"""Cutting-plane realization of weak optimization from weak membership.

The chain is: a weak membership oracle induces an approximate gauge (ray
bisection), the gauge induces an approximate separating direction (forward
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
the cut plane. Take a center x answered OUT at slack dq, the gauge g about
the center a, the step h, the gauge tolerance tol, the signed steps
h_i = +h where x_i >= a_i and -h elsewhere, so that every probe
x + h_i e_i steps away from the center, and the quotients
H_i = (g~(x + h_i e_i) - g~(x)) / h_i of the computed gauges g~. Then

    sigma = (dq/inner + (|b| + 2 sqrt(n) tol/h) D) / |H|,  D = |x - a| + outer,

where b = F - s is the one-sided bias of the exact quotients
F_i = (g(x + h_i e_i) - g(x)) / h_i against a subgradient s of g at x.
Derivation: the dq-shrunk body holds a + (1 - dq/inner)(K - a), so an OUT
verdict gives g(x) > 1 - dq/inner, and for y in K convexity gives
s . (y - x) <= g(y) - g(x) < dq/inner. Each computed gauge is within tol of
g (gauge_batch), so each quotient errs by at most 2 tol/h and
|H - F| <= 2 sqrt(n) tol/h. With |y - x| <= D, summing gives
H . (y - x) <= |H| sigma. The bias is one-sided, b_i h_i >= 0, since
convexity gives g(x + h_i e_i) >= g(x) + h_i s_i. Where g is twice
differentiable along the probe segments with second partials at most M,
|b_i| <= M h / 2, so |b| <= sqrt(n) M h / 2: this O(h) term is the
price of n + 1 probes against the O(h^2) bias of 2n central probes. On a
facet of a polytope b = 0; within h of a kink |b_i| can reach the jump of
the i-th partial, and sigma grows with it. The outward signs keep H away
from zero: s . (x - a) = g(x) for a gauge, so some axis has
s_i (x_i - a_i) >= g(x)/n, and there g(x + h_i e_i) - g(x) >= h |s_i|,
giving |F| >= g(x) / (n |x - a|). Probes that step toward the center can
all see no change, as x + h e_i do at a corner of a cube whose coordinates
are all negative. At the default steps this keeps the certified optimum within
a few eps of the true support value on smooth bodies; the tests pin 5*eps.

Policy where a row is not decided cleanly, the same for every caller:

- Membership slack: the center of a cut is queried at
  dq = min(eps/8, inner_radius/4) of the optimization slack eps. A validity
  query at slack eps optimizes at eps/2, so its centers are queried at
  eps/16. What a run at slack eps certifies follows from dq. Its witness
  is a center answered IN, so it lies within dq of K. A center answered
  OUT lies outside K_dq = a + (1 - dq/inner)(K - a), which sits inside the
  dq-shrunk body, and its cut keeps K_dq up to sigma. So the certified gap
  eps/2 bounds c . z - value over K_dq, and K_dq loses
  h_K(c) - h_K_dq(c) = (dq/inner)(h_K(c) - c . a) <= (dq/inner) |c| outer
  of support against K.
- Anchored gauge window: the gauge g about the center is 1/inner-Lipschitz,
  since B(center, inner) lies in K. So a probe p near an anchor Z with
  gauge bracket [lo_Z, hi_Z] has g(p) in
  [lo_Z - L/2 - |p - Z|/inner, hi_Z + L/2 + |p - Z|/inner], where L/2 is
  the band slop of the coarse search at its own slack: an IN verdict at
  trial t shows g(Z) <= t + t dq/inner <= t + L/2, an OUT verdict
  g(Z) >= t - L/2. gauge_batch bisects each probe from that window
  intersected with [d/outer, d/inner]; no verification query is made.
- Flat gauge: the quotient vector H errs by up to 2 sqrt(n) tol/h, so a
  separator with |H| <= 4 sqrt(n) tol/h, twice that noise, raises
  FlatGaugeError. No direction is guessed.
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


def _ray_search(oracle: WeakMembershipOracle, a: np.ndarray, rays: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, tol: float, dq: float, k: int,
                buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-section of the gauge brackets [lo, hi] of the rays a + rays/t, all
    rows in lockstep, until every bracket is at most tol wide; k = 1 is
    bisection.

    Each round queries the k points a + ray/t_j at the interior trials
    t_j = lo + j w, w = (hi - lo)/(k + 1), all rows in one query_batch at
    slack dq. The new bracket runs from the trial just below the first
    trial answered IN (hi if none is) to that trial: each end is certified
    by its own verdict, so a non-monotone answer pattern inside the band
    cannot corrupt the bracket. Every bracket shrinks by exactly k + 1 per
    round, so the round count is fixed up front. buf, a C-contiguous array
    of at least rows * k rows, holds the trial points.
    """
    width = float(np.max(hi - lo))
    if width <= tol:
        return lo, hi
    rows, n = rays.shape
    steps = (hi - lo)[:, None] * (np.arange(1, k + 1) / (k + 1))  # t_j - lo
    trial = buf[:rows * k].reshape(rows, k, n)
    verdicts = np.ones((rows, k + 1), dtype=bool)  # the upper end counts as IN
    rays = rays[:, None, :]
    for _ in range(math.ceil(math.log(width / tol, k + 1))):
        np.divide(rays, (lo[:, None] + steps)[:, :, None], out=trial)
        trial += a
        verdicts[:, :k] = oracle.query_batch(trial.reshape(-1, n), dq).reshape(rows, k)
        lo = lo + verdicts.argmax(axis=1) * steps[:, 0]
        steps /= k + 1
    return lo, lo + (k + 1) * steps[:, 0]


def gauge_batch(oracle: WeakMembershipOracle, body: CenteredBody, points,
                tol: float, anchors=None) -> np.ndarray:
    """Gauges of several points in lockstep via bisection on their rays.

    Returns gauge values g with a + (p - a)/g on the boundary, each within
    tol of the gauge of the body for any legal weak oracle: half the final
    bracket width plus the band slop, at most tol/2 each. Rows equal to the
    center get gauge 0.

    anchors, an (m, n) stack, groups the points: rows i*k .. i*k + k - 1
    of the points, k = len(points) // m, belong to anchor i. Each anchor's
    gauge is first found by a k-section to the coarse tolerance
    L = max |p - Z| / inner, one query per point of its group per round;
    each point is then bisected from the window rule in the module header
    rather than from the centering bracket [d/outer, d/inner].
    """
    _bounded(body)
    tol = positive_finite(tol, "tol")
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.ndim != 2 or P.shape[1] != body.n or not np.all(np.isfinite(P)):
        raise ValueError(f"points must be a finite (N, {body.n}) stack")
    if anchors is not None:
        Z = np.asarray(anchors, dtype=float)
        if (Z.ndim != 2 or Z.shape[1] != body.n or Z.shape[0] == 0
                or P.shape[0] % Z.shape[0] or not np.all(np.isfinite(Z))):
            raise ValueError(f"anchors must be a finite, non-empty (m, {body.n}) "
                             "stack whose count divides the point count")
    a = body.center
    inner = body.inner_radius
    D = P - a
    d = np.linalg.norm(D, axis=1)
    lo = d / body.outer_radius
    hi = d / inner
    if np.any(hi < lo):
        raise BracketError("centering radii are inconsistent")
    # the center, or inner == outer, pins the gauge without any queries
    if float(np.max(hi - lo, initial=0.0)) <= tol:
        return 0.5 * (lo + hi)
    buf = np.empty_like(P)  # trial points of both phases
    if anchors is not None:
        m = Z.shape[0]
        k = P.shape[0] // m
        DZ = Z - a
        dz = np.linalg.norm(DZ, axis=1)
        slop = np.linalg.norm(P.reshape(m, k, -1) - Z[:, None, :], axis=2) / inner
        L = float(np.max(slop))
        zlo, zhi = dz / body.outer_radius, dz / inner
        zlive = dz > 0.0
        if L > 0.0 and np.any(zlive):
            dq = max(0.5 * L * inner * inner / float(np.max(dz)), 1e-300)
            zlo[zlive], zhi[zlive] = _ray_search(
                oracle, a, DZ[zlive], zlo[zlive], zhi[zlive], L, dq, k, buf)
        slop += 0.5 * L
        np.maximum(lo, (zlo[:, None] - slop).ravel(), out=lo)
        np.minimum(hi, (zhi[:, None] + slop).ravel(), out=hi)
        if np.any(hi < lo):
            raise BracketError("anchor window misses the centering bracket")
    live = d > 0.0
    if not live.all():
        D, lo, hi = D[live], lo[live], hi[live]
    # verdict-band slop adds at most hi * dq / inner to the gauge; keep it
    # under tol/2 at the widest bracket
    dq = max(0.5 * tol * inner * inner / float(np.max(d)), 1e-300)
    lo, hi = _ray_search(oracle, a, D, lo, hi, tol, dq, 1, buf)
    out = np.zeros(P.shape[0])
    out[live] = 0.5 * (lo + hi)
    return out


def _gauge_tol(body: CenteredBody) -> float:
    """Gauge bisection tolerance of a separator: 1e-8 of the outer radius."""
    return 1e-8 * body.outer_radius


def _fd_step(body: CenteredBody) -> float:
    """Finite-difference step of a separator: 1e-4 of the inner radius,
    at least 1e-5."""
    return max(1e-5, body.inner_radius * 1e-4)


def approx_separator(oracle: WeakMembershipOracle, body: CenteredBody,
                     x) -> np.ndarray:
    """Approximate outward normals from forward differences of the gauge.

    x is one point or an (m, n) stack of points, and the result has its
    shape: per point a unit vector u with u . (y - x) <= sigma for all y in
    the body, sigma as documented in the module header. Both tolerances
    derive from the body: the step is _fd_step, max(1e-5, 1e-4 inner), and
    the gauge tolerance min(_gauge_tol, 1e-3 step), _gauge_tol being
    1e-8 outer. The n + 1 probes x and x +/- step e_i of every point, each
    stepping away from the center, share one gauge_batch call anchored at
    the points, where x is its own probe at offset 0: an (n + 1)-section
    finds each point's gauge to step/inner, and the probes are bisected
    from the window around it (module header), so a separator costs n + 1
    primal calls per coarse and per fine round.
    Raises FlatGaugeError when the differences at any point fall below the
    gauge noise floor (a step too small for the gauge tolerance).
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = as_vector(X, body.n)[None, :]
    elif X.ndim != 2 or X.shape[1] != body.n:
        raise ValueError(f"expected points of dimension {body.n}")
    step = _fd_step(body)
    # gauge noise must sit below both the difference quotient and the
    # smallest credible gradient norm (about 1/outer_radius)
    tol = min(_gauge_tol(body), 1e-3 * step)
    m, n = X.shape
    # each probe steps away from the center along its axis
    hs = np.where(X >= body.center, step, -step)
    probes = np.repeat(X[:, None, :], n + 1, axis=1)
    probes[:, np.arange(1, n + 1), np.arange(n)] += hs
    g = gauge_batch(oracle, body, probes.reshape(-1, n), tol, anchors=X).reshape(m, n + 1)
    H = (g[:, 1:] - g[:, :1]) / hs
    nrm = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(nrm <= 4.0 * math.sqrt(n) * tol / step):
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

    witness lies in the dq-thickened body; value = c . witness; gap is the
    certified bound on how much any point of the shrunk body K_dq can beat
    the witness, dq and K_dq as in the module header's membership slack.
    gap_history is nonincreasing by construction.
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
            G[~inside] = approx_separator(oracle, body, Z[~inside])
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
