"""Cutting-plane realization of weak optimization from weak membership.

The chain is: a weak membership oracle induces an approximate gauge (ray
bisection), the gauge induces an approximate separating direction (central
finite differences), and the separator drives an ellipsoid-localizer loop
that maximizes a linear objective with a certified optimality gap.

There is one engine: _cut_loop runs m objectives in lockstep on (m, n)
centers and (m, n, n) shape matrices. wopt_from_wmem is that engine on a
batch of one. wval_batch is the validity query over many objectives at
once, and wval_from_wmem is wval_batch on one row, so the gamma -/+ eps/2
exits, the eps/2 slack and the tie rule live in wval_batch alone.

Accuracy model (documented slack): membership queries run at the slack
delta of the first rule below; the central-cut update through an
approximate separator can truncate feasible points that lie within sigma of
the cut plane, where sigma is of order delta * (outer/inner) plus the
finite-difference error times the body diameter. At the default steps this
keeps the certified optimum within a few eps of the true support value on
smooth bodies; the tests pin 5*eps.

Policy where a row is not decided cleanly, the same for every caller:

- Membership slack: the center of a cut is queried at
  min(eps/8, inner_radius/4) of the optimization slack eps. A validity
  query at slack eps optimizes at eps/2, so its centers are queried at
  eps/16.
- Flat gauge: a separator whose differences vanish below the gauge noise
  floor raises FlatGaugeError. No direction is guessed.
- Iteration cap: a row still undecided after cfg.max_cut_iterations cuts
  raises IterationCapError carrying its incumbent. No verdict is guessed
  from the incumbent, which is not a legal weak answer inside the band.
- Degenerate cut: a shape matrix flat along the cut direction raises
  IterationCapError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    CenteredBody,
    ToleranceConfig,
    as_vector,
    positive_finite,
)
from .oracles import WeakMembershipOracle


class BracketError(RuntimeError):
    """Gauge bisection could not bracket (oracle inconsistent with centering)."""


class FlatGaugeError(RuntimeError):
    """Finite differences saw a flat gauge; reduce the step."""


class IterationCapError(RuntimeError):
    """Cutting-plane loop hit its iteration cap without a certified gap.

    Carries the best incumbent found so far.
    """

    def __init__(self, message, witness=None, value=None, gap=None):
        super().__init__(message)
        self.witness = witness
        self.value = value
        self.gap = gap


def _bounded(body: CenteredBody) -> None:
    if not math.isfinite(body.outer_radius):
        raise ValueError("this operation needs a bounded body (finite outer radius)")


def gauge_batch(oracle: WeakMembershipOracle, body: CenteredBody, points,
                tol: float) -> np.ndarray:
    """Gauges of several points in lockstep via bisection on their rays.

    Returns gauge values g with a + (p - a)/g on the boundary, accurate to
    about tol each. Rows equal to the center get gauge 0.
    """
    _bounded(body)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    P = np.atleast_2d(np.asarray(points, dtype=float))
    a = body.center
    D = P - a
    d = np.linalg.norm(D, axis=1)
    out = np.zeros(P.shape[0])
    live = d > 0.0
    if not np.any(live):
        return out
    lo = d[live] / body.outer_radius
    hi = d[live] / body.inner_radius
    if np.any(hi < lo):
        raise BracketError("centering radii are inconsistent")
    rays = D[live]
    d_live = d[live]
    # verdict-band slop adds at most hi * dq / inner to the gauge; keep it
    # under tol/2 at the widest bracket
    dq = 0.5 * tol * body.inner_radius * body.inner_radius / float(np.max(d_live))
    dq = max(dq, 1e-300)
    width = float(np.max(hi - lo))
    if width <= tol:  # inner == outer pins the gauge without any queries
        out[live] = 0.5 * (lo + hi)
        return out
    rounds = int(math.ceil(math.log2(width / tol))) + 1
    for _ in range(max(rounds, 1)):
        mid = 0.5 * (lo + hi)
        trial = a + rays / mid[:, None]
        inside = oracle.query_batch(trial, dq)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
        if float(np.max(hi - lo)) <= tol:
            break
    out[live] = 0.5 * (lo + hi)
    return out


def gauge_from_wmem(oracle: WeakMembershipOracle, body: CenteredBody, x,
                    tol: float | None = None,
                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Gauge of x about the body center, from weak membership queries alone.

    The gauge is inf{t > 0 : center + (x - center)/t in K}; it is <= 1 inside
    the body. Raises ValueError at the center itself, where the ray is
    undefined.
    """
    v = as_vector(x, body.n)
    if float(np.linalg.norm(v - body.center)) == 0.0:
        raise ValueError("gauge bisection undefined at the body center")
    tol = tol if tol is not None else cfg.gauge_tol_for(body)
    return float(gauge_batch(oracle, body, v[None, :], tol)[0])


def approx_separator(oracle: WeakMembershipOracle, body: CenteredBody, x,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Approximate outward normals from central differences of the gauge.

    x is one point or an (m, n) stack of points, and the result has its
    shape: per point a unit vector h with h . (y - x) <= sigma for all y in
    the body, sigma as documented in the module header. The 2n probes of
    every point share one gauge_batch call, at the step cfg.fd_step_for(body).
    Raises FlatGaugeError when the differences at any point vanish below the
    gauge noise floor (step too small or a point at the center).
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = as_vector(X, body.n)[None, :]
    elif X.ndim != 2 or X.shape[1] != body.n:
        raise ValueError(f"expected points of dimension {body.n}")
    step = cfg.fd_step_for(body)
    # gauge noise must sit below both the difference quotient and the
    # smallest credible gradient norm (about 1/outer_radius)
    tol = min(cfg.gauge_tol_for(body), 1e-3 * step)
    m, n = X.shape
    probes = np.repeat(X[:, None, :], 2 * n, axis=1)
    idx = np.arange(n)
    probes[:, 2 * idx, idx] += step
    probes[:, 2 * idx + 1, idx] -= step
    g = gauge_batch(oracle, body, probes.reshape(-1, n), tol).reshape(m, 2 * n)
    H = (g[:, 0::2] - g[:, 1::2]) / (2.0 * step)
    nrm = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(nrm <= 4.0 * tol / step):
        raise FlatGaugeError("flat gauge at a probe point; reduce step")
    H /= nrm
    return H[0] if single else H


class WvalVerdict(enum.Enum):
    """Answer of a weak validity query against threshold gamma."""

    UPPER_BOUND_HOLDS = "upper-bound-holds"
    LARGE_VALUE_EXISTS = "large-value-exists"


@dataclass(frozen=True)
class WvalQuery:
    """Linear-functional validity query: objective c, threshold gamma, slack eps."""

    c: np.ndarray
    gamma: float
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "c", as_vector(self.c))
        positive_finite(self.eps, "eps")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass
class WoptResult:
    """Outcome of the cutting-plane maximization.

    witness lies in the eps-thickened body; value = c . witness; gap is the
    certified bound on how much any point of the eps-shrunk body can beat the
    witness. gap_history is nonincreasing by construction.
    """

    witness: np.ndarray
    value: float
    gap: float
    iterations: int
    stop_reason: str
    gap_history: list = field(default_factory=list)


_STOP_REASONS = ("gap", "threshold-large", "threshold-upper")


def _central_cut(Z: np.ndarray, P: np.ndarray,
                 G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the minimum-volume ellipsoid containing the half
    {g.x <= g.z} of E(z, P); Z and G are (m, n), P is (m, n, n)."""
    n = Z.shape[1]
    S = np.einsum("bij,bj->bi", P, G)
    den = np.einsum("bi,bi->b", G, S)
    if not (den.min() > 0.0 and math.isfinite(den.max())):
        raise IterationCapError("localizer degenerated (flat along the cut direction)")
    if n == 1:
        w = np.sqrt(P[:, 0, 0])
        return Z - np.sign(G) * (w / 2.0)[:, None], (w * w / 4.0)[:, None, None]
    U = S / np.sqrt(den)[:, None]
    a = n * n / (n * n - 1.0)
    # u_i u_j == u_j u_i in floating point, so P stays exactly symmetric
    P = a * P - (2.0 * a / (n + 1.0)) * (U[:, :, None] * U[:, None, :])
    return Z - U / (n + 1.0), P


def _cut_loop(oracle: WeakMembershipOracle, body: CenteredBody, C: np.ndarray,
              eps: float, cfg: ToleranceConfig, stop_above: float | None = None,
              stop_ub_below: float | None = None, history: list | None = None):
    """Maximize c . x over the body for every row c of C, all rows in lockstep.

    Each row runs its own ellipsoid localizer with central cuts: an
    asserted-feasible center adds the objective cut (keep values above the
    center's), an asserted-infeasible center adds the separator cut. The
    incumbent starts at the body center, which the centering data guarantees
    feasible. A row leaves the loop at its first stop: certified gap
    <= eps/2, incumbent >= stop_above, or certified upper bound
    <= stop_ub_below, tested in that order. The centers of all live rows go
    to one query_batch per cut, and their infeasible ones to one
    approx_separator call.

    Returns per-row arrays (value, witness, gap, iterations, stop), stop
    indexing _STOP_REASONS. history, when given, receives the gap of row 0
    at every iteration; pass it only for a batch of one. Raises
    IterationCapError, carrying the incumbent of the first undecided row, if
    any row is undecided after cfg.max_cut_iterations cuts.
    """
    _bounded(body)
    positive_finite(eps, "eps")
    if np.any(np.linalg.norm(C, axis=1) == 0.0):
        raise ValueError("objective must be nonzero")
    lo = math.inf if stop_above is None else stop_above
    hi = -math.inf if stop_ub_below is None else stop_ub_below

    m, n = C.shape
    dq = min(eps / 8.0, body.inner_radius / 4.0)
    value, gap_out = np.empty(m), np.empty(m)
    witness = np.empty((m, n))
    iterations = np.empty(m, dtype=int)
    stop = np.empty(m, dtype=int)
    rows = np.arange(m)
    Z = np.tile(body.center, (m, 1))
    P = np.tile(np.eye(n) * body.outer_radius ** 2, (m, 1, 1))
    best = C @ body.center
    best_wit = Z.copy()
    ub_run = np.full(m, math.inf)

    for it in range(cfg.max_cut_iterations):
        vals = np.einsum("bi,bi->b", C, Z)
        quad = np.einsum("bi,bij,bj->b", C, P, C)
        ub_run = np.minimum(ub_run, vals + np.sqrt(np.maximum(quad, 0.0)))
        gap = np.maximum(ub_run - best, 0.0)
        if history is not None:
            history.append(float(gap[0]))
        certified = gap <= eps / 2.0
        large = best >= lo
        done = certified | large | (ub_run <= hi)
        if done.any():
            k = rows[done]
            value[k], witness[k], gap_out[k] = best[done], best_wit[done], gap[done]
            iterations[k] = it
            stop[k] = np.where(certified[done], 0, np.where(large[done], 1, 2))
            live = ~done
            if not live.any():
                return value, witness, gap_out, iterations, stop
            rows, C, Z, P, vals = rows[live], C[live], Z[live], P[live], vals[live]
            best, best_wit, ub_run = best[live], best_wit[live], ub_run[live]

        inside = oracle.query_batch(Z, dq)
        gain = inside & (vals > best)
        if gain.any():
            best = np.where(gain, vals, best)
            best_wit[gain] = Z[gain]
        G = -C
        if not inside.all():
            G[~inside] = approx_separator(oracle, body, Z[~inside], cfg=cfg)
        Z, P = _central_cut(Z, P, G)

    raise IterationCapError(
        f"no certified gap <= {eps / 2:.3g} within {cfg.max_cut_iterations} cuts "
        f"({rows.size} of {m} objectives undecided)",
        witness=best_wit[0], value=float(best[0]),
        gap=max(float(ub_run[0] - best[0]), 0.0),
    )


def wopt_from_wmem(oracle: WeakMembershipOracle, body: CenteredBody, c, eps: float,
                   cfg: ToleranceConfig = DEFAULT_CONFIG,
                   stop_above: float | None = None,
                   stop_ub_below: float | None = None) -> WoptResult:
    """Maximize c . x over the body to certified slack eps.

    The cutting-plane engine run on a batch of one, with its gap history.
    stop_above / stop_ub_below are early exits for validity queries: return
    as soon as the incumbent value reaches stop_above, or as soon as the
    certified upper bound falls to stop_ub_below.

    Raises IterationCapError (carrying the incumbent) if the gap target is
    not certified within cfg.max_cut_iterations.
    """
    history: list = []
    value, witness, gap, iterations, stop = _cut_loop(
        oracle, body, as_vector(c, body.n)[None, :], eps, cfg,
        stop_above, stop_ub_below, history)
    return WoptResult(witness[0], float(value[0]), float(gap[0]), int(iterations[0]),
                      _STOP_REASONS[stop[0]], history)


def wval_from_wmem(oracle: WeakMembershipOracle, body: CenteredBody,
                   query: WvalQuery,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> WvalVerdict:
    """Weak validity of c . x <= gamma over the body: wval_batch on one row.

    UPPER_BOUND_HOLDS asserts c . x <= gamma + eps on the eps-shrunk body;
    LARGE_VALUE_EXISTS asserts a point of the eps-thickened body with
    c . x >= gamma - eps.
    """
    if wval_batch(oracle, body, query.c[None, :], query.gamma, query.eps, cfg)[0]:
        return WvalVerdict.UPPER_BOUND_HOLDS
    return WvalVerdict.LARGE_VALUE_EXISTS


def wval_batch(oracle: WeakMembershipOracle, body: CenteredBody, C, gamma: float,
               eps: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Weak validity of c . x <= gamma over the body for every row c of C.

    Returns a bool array, True where UPPER_BOUND_HOLDS, from one lockstep run
    of the engine at slack eps/2 that exits early at the two thresholds
    gamma -/+ eps/2; ties at gamma - eps/2 prefer LARGE_VALUE_EXISTS. An
    empty C costs no oracle call.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != body.n or not np.all(np.isfinite(C)):
        raise ValueError(f"expected finite objectives of dimension {body.n}")
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    positive_finite(eps, "eps")
    if C.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    value = _cut_loop(oracle, body, C, eps / 2.0, cfg,
                      stop_above=gamma - eps / 2.0, stop_ub_below=gamma + eps / 2.0)[0]
    return value < gamma - eps / 2.0
