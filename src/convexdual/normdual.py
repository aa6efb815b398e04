"""Dual-norm evaluation from a weak membership oracle for the primal ball.

The dual norm is a support function: nu*(y) = max of y . x over the primal
unit ball B, its support value h_B(y). So dual_norm_eval is one certified
support query over B (cutting.support_batch): weak optimization from weak
membership, run once at y/|y| and scaled back by |y|.

The paper's longer route stays as stages of their own. Membership for the
primal ball gives weak validity of linear functionals over it
(cutting.wval_batch); validity over the primal ball decides weak
membership in the dual ball (the k >= 2 lemma, after rescaling:
rescale_norm and DualBallOracle, which also serves the polar Mahler run,
and settles most of its rows at no call: outside rows from the witnesses,
and inside rows from the certified support bounds, of one support_batch
run over a net of directions);
and an interval bisection turns ball membership into an additive-error
norm value with a certificate (approx_from_wmem and its BisectionTrace).

Scaling conventions: nu_r(x) = r * nu(x) has unit ball B_nu / r and sandwich
constants (r * k, r * K); membership of x in B_nu is membership of x/r in
B_(nu_r); the conjugate of nu_r is nu* / r.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CenteredBody,
    Interval,
    NormDescriptor,
    WeakVerdict,
    as_vector,
    positive_finite,
)
from .cutting import support_batch, wval_batch
# not called here; kept because perfbench's layer trace patches these names
from .cutting import gauge_batch, wval_from_wmem  # noqa: F401
from .oracles import FunctionApproxOracle, WeakMembershipOracle


@dataclass(frozen=True)
class ScalingBounds:
    """Ball scalings that wedge the thickened and shrunk unit balls.

    (1 + k*d) B <= S(B, d) <= (1 + K*d) B and, when K*d < 1,
    (1 - K*d) B <= S(B, -d) <= (1 - k*d) B.
    """

    thickened_inner: float
    thickened_outer: float
    shrunk_inner: float
    shrunk_outer: float


def ball_scaling_bounds(desc: NormDescriptor, delta: float) -> ScalingBounds:
    positive_finite(delta, "delta")
    if desc.k_hi * delta >= 1.0:
        raise ValueError(
            f"shrink bound needs k_hi * delta < 1, got {desc.k_hi * delta:.3g}"
        )
    return ScalingBounds(
        thickened_inner=1.0 + desc.k_lo * delta,
        thickened_outer=1.0 + desc.k_hi * delta,
        shrunk_inner=1.0 - desc.k_hi * delta,
        shrunk_outer=1.0 - desc.k_lo * delta,
    )


def rescale_norm(oracle: WeakMembershipOracle, desc: NormDescriptor,
                 r: float) -> tuple[WeakMembershipOracle, NormDescriptor]:
    """Oracle and descriptor of the rescaled norm x -> r * nu(x).

    The rescaled ball is B_nu / r; distances scale linearly, so a query at
    slack delta maps to a base query at slack r * delta.
    """
    positive_finite(r, "scale")
    desc_r = desc.rescaled(r)

    def fn(X, delta):
        return oracle.query_batch(r * X, r * delta)

    return WeakMembershipOracle(fn, desc_r.ball(),
                                label=f"{oracle.calls.label}*{r:.3g}"), desc_r


_BLOCK = 1024  # rows per block of every rows x directions product
_NET_SIZE = 64  # net directions in R^2 and R^3
# width of a net support interval over 1/k_hi, a lower bound on h_B: of
# 1e-2, 3e-3, 1e-3, 3e-4 and 1e-4, 1e-3 cost mahler the fewest calls
_NET_REL_ERR = 1e-3


def _net_directions(n: int) -> np.ndarray:
    """The dual ball's net of unit directions: 64 evenly spaced angles in
    R^2, a 64-point Fibonacci lattice in R^3, and elsewhere the 2 n^2
    directions +-e_i and (+-e_i +-e_j)/sqrt(2), i < j."""
    k = np.arange(_NET_SIZE)
    if n == 2:
        t = 2.0 * math.pi * k / _NET_SIZE
        return np.column_stack([np.cos(t), np.sin(t)])
    if n == 3:
        z = 1.0 - (2.0 * k + 1.0) / _NET_SIZE
        t = math.pi * (3.0 - math.sqrt(5.0)) * k  # the golden angle
        r = np.sqrt(1.0 - z * z)
        return np.column_stack([r * np.cos(t), r * np.sin(t), z])
    eye = np.eye(n)
    pairs = [(si * eye[i] + sj * eye[j]) / math.sqrt(2.0)
             for i, j in itertools.combinations(range(n), 2)
             for si in (1.0, -1.0) for sj in (1.0, -1.0)]
    return np.vstack([eye, -eye, *pairs])


class DualBallOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual unit ball, derived from the primal.

    Every query, one point or many, runs one path. The sandwich screen
    settles the rows it can for free: |x| <= k_lo is inside the dual ball,
    |x| >= k_hi outside it.

    The rows the sandwich leaves meet the net, once it exists. The oracle
    keeps one net V of unit directions (_net_directions). The first batch
    that leaves at least len(V) rows runs one cutting.support_batch over V.
    Per direction v it returns a bound hi(v) >= h_B(v) (the support interval
    of the cutting module header) and a witness w_v within the run's centre
    slack s of B_nu; those len(V) witnesses at slack s are the oracle's
    pool. From then on every row is first refuted, and then certified, for
    free.

    Refuted: x.w - |x| s > 1 for some pooled w. Such a w lies within s of
    some b in B_nu, so x.w <= x.b + |x| s <= nu*(x) + |x| s, hence
    nu*(x) > 1, and NOT_IN_SHRUNK is legal at every slack.

    Certified: a row c is written c = sum lam_i v_i + e over its n nearest
    net directions v_i, lam solving the n x n system and clipped to
    lam >= 0, e the residual. As h_B is sublinear, and h_B(e) <= |e| / k_lo
    because B_nu lies in B(0, 1/k_lo), nu*(c) = h_B(c)
    <= sum lam_i h_B(v_i) + h_B(e) <= sum lam_i hi(v_i) + |e| / k_lo. Where
    that bound is at most 1, c lies in the dual ball, and IN_THICKENED is
    legal at every slack. Both bounds are padded for rounding (_refuted,
    _certified). Smaller batches leave the net unbuilt and cost what the
    validity run costs.

    The rows all screens leave go to one lockstep validity run over the
    primal ball, which is what makes million-point volume sampling
    feasible. It decides the rescaled norm mu = r * nu* with
    r = max(1, 2 k_hi), so that mu's sandwich constant k_lo = r / k_hi is at
    least 2; x is in B_(nu*) iff x / r is in B_mu, and the run is over
    B_(mu*) = r B_nu at slack delta / r, clamped below 1/2. With k_lo >= 2
    and 0 < delta < 1/2 (the k >= 2 lemma), an upper bound max <= 1 + delta
    over the shrunk body forces mu(x / r) <= 1 + k_lo * delta, inside the
    thickening, and a large value forces mu(x / r) > 1 - k_lo * delta,
    outside the shrinking.
    """

    def __init__(self, primal: WeakMembershipOracle, desc: NormDescriptor):
        body = CenteredBody(np.zeros(desc.n), desc.k_lo, desc.k_hi)
        super().__init__(self._screen, body, label="dual-ball")
        self.primal = primal
        self.primal_descriptor = desc
        self.r = max(1.0, 2.0 * desc.k_hi)
        self._scaled_oracle = rescale_norm(primal, desc, 1.0 / self.r)[0]
        self.stragglers = 0  # always 0 (the cap raises); perfbench's layer trace reads it
        self._net = _net_directions(desc.n)
        self._net_hi = None  # per net direction v, hi(v) >= h_B(v), once built
        self._witness = None  # the pool: per net direction, its witness w_v
        self._witness_slack = None  # s: every witness lies within s of B_nu

    def _slack(self, delta: float) -> float:
        return min(delta / self.r, 0.49)

    def _refuted(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Rows with x.w - |x| s > 1 for some pooled witness w (class
        docstring). The rounding of x.w and |x| s is at most a few n machine
        epsilons of |x| (|w| + s), so s is padded by rho (|w| + s) and 1
        raised to 1 + rho."""
        W = self._witness
        rho = 16 * self.body.n * np.finfo(float).eps
        pad = self._witness_slack * (1.0 + rho) + rho * np.linalg.norm(W, axis=1)
        out = np.zeros(len(pts), dtype=bool)
        for lo in range(0, len(pts), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            bound = pts[rows] @ W.T - nrm[rows, None] * pad
            out[rows] = bound.max(axis=1) > 1.0 + rho
        return out

    def _build_net(self) -> None:
        """hi(v) and the witness w_v for every net direction from one support
        run over the primal ball, at width _NET_REL_ERR / k_hi; the run's
        centre slack bounds every witness's distance to B_nu."""
        desc = self.primal_descriptor
        _, self._net_hi, self._witness, _, self._witness_slack = support_batch(
            self.primal, desc.ball(), self._net, _NET_REL_ERR / desc.k_hi)

    def _certified(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Rows c with sum lam_i hi(v_i) + |e| / k_lo <= 1 over their n
        nearest net directions (class docstring). Each computed term errs by
        a few n machine epsilons of |c| + sum lam_i, relative to the norms
        that multiply it, so |e| is padded by rho (|c| + sum lam_i) and the
        whole bound raised by the factor 1 + rho. The residual makes any lam
        sound, so the solve needs no accuracy; rows whose n directions are
        linearly dependent, or nearly so (the 2 n^2 net of n >= 4 has such
        n-tuples), are left undecided."""
        n = self.body.n
        outer = 1.0 / self.primal_descriptor.k_lo
        rho = 16 * n * np.finfo(float).eps
        out = np.zeros(len(pts), dtype=bool)
        for lo in range(0, len(pts), _BLOCK):
            C = pts[lo:lo + _BLOCK]
            near = np.argpartition(C @ self._net.T, -n, axis=1)[:, -n:]
            A = self._net[near]  # rows v_i of each row's system
            ok = np.abs(np.linalg.det(A)) > 1e-9
            lam = np.zeros((len(C), n))
            lam[ok] = np.maximum(np.linalg.solve(
                A[ok].transpose(0, 2, 1), C[ok][:, :, None])[:, :, 0], 0.0)
            res = np.linalg.norm(C - np.einsum("bi,bij->bj", lam, A), axis=1)
            total = lam.sum(axis=1)
            bound = (np.einsum("bi,bi->b", lam, self._net_hi[near])
                     + outer * (res + rho * (nrm[lo:lo + _BLOCK] + total)))
            out[lo:lo + _BLOCK] = ok & (bound * (1.0 + rho) <= 1.0)
        return out

    def _screen(self, pts: np.ndarray, delta: float) -> np.ndarray:
        nrm = np.linalg.norm(pts, axis=1)
        out = nrm <= self.primal_descriptor.k_lo  # inside the inscribed ball
        work = (~out) & (nrm < self.primal_descriptor.k_hi)
        if self._net_hi is None and np.count_nonzero(work) >= len(self._net):
            self._build_net()
        if self._net_hi is not None and np.any(work):
            work[work] = ~self._refuted(pts[work], nrm[work])
            out[work] = self._certified(pts[work], nrm[work])
            work &= ~out
        if np.any(work):
            out[work] = self._lockstep(pts[work], delta)
        return out

    def _lockstep(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """Verdicts of the rows the screens leave, True = IN_THICKENED: one
        validity run of c = x / r against gamma = 1 over r B_nu, all rows in
        lockstep."""
        return wval_batch(self._scaled_oracle, self._scaled_oracle.body,
                          pts / self.r, 1.0, self._slack(delta))


def wmem_from_approx(approx: FunctionApproxOracle, desc: NormDescriptor, x,
                     delta: float) -> WeakVerdict:
    """Weak ball membership from one approximate norm evaluation.

    Points inside B(0, 1/k_hi) or outside B(0, 1/k_lo) are decided by the
    sandwich alone (no oracle call); otherwise the point is scaled to the
    unit sphere and one evaluation at slack k_lo^2 * delta / 4 decides via
    the threshold 1 + k_lo * delta / 2. A non-finite norm value raises
    ValueError (FunctionApproxOracle.eval).
    """
    positive_finite(delta, "delta")
    v = as_vector(x, desc.n)
    nx = float(np.linalg.norm(v))
    if nx <= 1.0 / desc.k_hi:
        return WeakVerdict.IN_THICKENED
    if nx >= 1.0 / desc.k_lo:
        return WeakVerdict.NOT_IN_SHRUNK
    eps = desc.k_lo ** 2 * delta / 4.0
    omega = approx.eval(v / nx, eps)
    if nx * omega <= 1.0 + desc.k_lo * delta / 2.0:
        return WeakVerdict.IN_THICKENED
    return WeakVerdict.NOT_IN_SHRUNK


@dataclass
class BisectionTrace:
    """Certificate of the norm-approximation bisection.

    intervals[i] always contains the true norm value; widths contract by
    exactly 3/4 per step; queries holds one (scale, slack, verdict) triple
    per refinement, so len(intervals) == len(queries) + 1.
    """

    intervals: list
    queries: list
    value: float


def bisection_step_count(b1: float, delta: float) -> int:
    """Closed-form interval count: smallest integer m with
    (3/4)^(m-1) * b1 < 2 * delta, via the log formula; m = 1 when the side
    condition 2*delta/b1 <= 1 fails (the start interval is already narrow
    enough)."""
    if b1 <= 0.0 or delta <= 0.0:
        raise ValueError("b1 and delta must be positive")
    if 2.0 * delta / b1 <= 1.0:
        v = 1.0 + (math.log2(b1) - math.log2(2.0 * delta)) / (2.0 - math.log2(3.0))
        return int(math.floor(v)) + 1
    return 1


def approx_from_wmem(oracle: WeakMembershipOracle, desc: NormDescriptor, x,
                     delta: float) -> tuple[float, BisectionTrace]:
    """Additive delta-approximation of nu(x) from ball membership queries.

    Requires 1/2 < |x| < 3/2 (rescale first; the evaluation pipelines do).
    Starts from [k_lo/2, 3*k_hi/2], queries x/r at the width-matched slack
    (b - a) / (2 * k_hi * (b + a)), and keeps the quarter-shifted endpoint
    dictated by the verdict, so each verdict certifies the new interval.
    """
    positive_finite(delta, "delta")
    v = as_vector(x, desc.n)
    nx = float(np.linalg.norm(v))
    if not (0.5 < nx < 1.5):
        raise ValueError(f"bisection defined on 1/2 < |x| < 3/2, got |x| = {nx}")
    a = 0.5 * desc.k_lo
    b = 1.5 * desc.k_hi
    m = bisection_step_count(b, delta)
    intervals = [Interval(a, b)]
    queries = []
    for _ in range(m - 1):
        r = 0.5 * (a + b)
        eps = (b - a) / (2.0 * desc.k_hi * (b + a))
        verdict = oracle.query(v / r, eps)
        if verdict is WeakVerdict.IN_THICKENED:
            b = 0.75 * b + 0.25 * a
        else:
            a = 0.25 * b + 0.75 * a
        intervals.append(Interval(a, b))
        queries.append((r, eps, verdict))
    omega = 0.5 * (a + b)
    return omega, BisectionTrace(intervals, queries, omega)


@dataclass
class DualNormResult:
    """Dual norm value, its certified interval and its accuracy scale.

    interval contains nu*(y) and value is its midpoint, both already scaled
    back by annulus_factor = |y|. The support run certifies an interval of
    width at most 2 delta / 3 at y/|y|, so the additive error is at most
    delta * annulus_factor / 3. cuts is that run's cut count, free cuts
    included (cutting.support_batch), 0 where no run is needed (y = 0, or a
    sandwich that is already that narrow).
    """

    value: float
    annulus_factor: float
    interval: Interval
    cuts: int


def dual_norm_eval(primal: WeakMembershipOracle, desc: NormDescriptor, y,
                   delta: float) -> DualNormResult:
    """Evaluate the dual norm nu*(y) from the primal ball oracle.

    nu*(y) = |y| h_B(u) at u = y/|y|. One support_batch row over the primal
    ball at err = 2 delta / 3 certifies an interval for h_B(u), and its
    midpoint, scaled by |y|, is within delta |y| / 3 of nu*(y). The
    sandwich alone puts h_B(u) in [1/k_hi, 1/k_lo]; where that is no wider
    than 2 delta / 3 (k_lo == k_hi up to rounding, as for l2), it answers
    at no call, and so does nu*(0) = 0.
    """
    positive_finite(delta, "delta")
    v = as_vector(y, desc.n)
    factor = float(np.linalg.norm(v))
    err = 2.0 * delta / 3.0
    if factor == 0.0 or 1.0 / desc.k_lo - 1.0 / desc.k_hi <= err:
        interval = Interval(factor / desc.k_hi, factor / desc.k_lo)
        return DualNormResult(interval.mid, factor, interval, 0)
    lo, hi, _, cuts, _ = support_batch(primal, desc.ball(), v[None, :] / factor, err)
    interval = Interval(factor * float(lo[0]), factor * float(hi[0]))
    return DualNormResult(interval.mid, factor, interval, int(cuts[0]))
