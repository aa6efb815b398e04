"""Dual-norm evaluation from a weak membership oracle for the primal ball.

The chain: membership for the primal ball gives weak validity of linear
functionals over it (cutting plane), validity over the primal ball decides
weak membership in the dual ball (the k >= 2 lemma, after rescaling), and an
interval bisection turns dual-ball membership into an additive-error dual
norm value. The stages exposed on their own are rescale_norm, the
DualBallOracle (whose validity stage is cutting.wval_batch), and
approx_from_wmem.

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
    DEFAULT_CONFIG,
    CenteredBody,
    Interval,
    NormDescriptor,
    ToleranceConfig,
    WeakVerdict,
    as_vector,
    positive_finite,
)
from .cutting import wval_batch
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


_POOL_BLOCK = 4096  # rows per block of the pool screen's rows x pool product


def _pool_directions(n: int) -> np.ndarray:
    """The 2 n^2 unit directions +-e_i and (+-e_i +-e_j)/sqrt(2), i < j."""
    eye = np.eye(n)
    pairs = [(si * eye[i] + sj * eye[j]) / math.sqrt(2.0)
             for i, j in itertools.combinations(range(n), 2)
             for si in (1.0, -1.0) for sj in (1.0, -1.0)]
    return np.vstack([eye, -eye, *pairs])


class DualBallOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual unit ball, derived from the primal.

    Every query, one point or many, runs one path. The sandwich screen
    settles the rows it can for free: |x| <= k_lo is inside the dual ball,
    |x| >= k_hi outside it. The pool screen then refutes, also for free,
    every row x with x.w - |x| s > 1 for a pooled point w that the primal
    answered IN_THICKENED at slack s (see certify). Proof: such a w lies
    within s of some b in B_nu, so x.w <= x.b + |x| s <= nu*(x) + |x| s,
    hence nu*(x) > 1, and NOT_IN_SHRUNK is legal at every slack. The rows
    both screens leave go to one lockstep validity run over the primal
    ball, which is what makes million-point volume sampling feasible. With
    an empty pool the pool screen is skipped.

    The validity run decides the rescaled norm mu = r * nu* with
    r = max(1, 2 k_hi), so that mu's sandwich constant k_lo = r / k_hi is at
    least 2; x is in B_(nu*) iff x / r is in B_mu, and the run is over
    B_(mu*) = r B_nu at slack delta / r, clamped below 1/2. With k_lo >= 2
    and 0 < delta < 1/2 (the k >= 2 lemma), an upper bound max <= 1 + delta
    over the shrunk body forces mu(x / r) <= 1 + k_lo * delta, inside the
    thickening, and a large value forces mu(x / r) > 1 - k_lo * delta,
    outside the shrinking.
    """

    def __init__(self, primal: WeakMembershipOracle, desc: NormDescriptor,
                 cfg: ToleranceConfig = DEFAULT_CONFIG, label: str = "dual-ball"):
        body = CenteredBody(np.zeros(desc.n), desc.k_lo, desc.k_hi)
        super().__init__(self._screen, body, label=label)
        self.primal = primal
        self.primal_descriptor = desc
        self.cfg = cfg
        self.r = max(1.0, 2.0 * desc.k_hi)
        self._scaled_oracle, scaled_desc = rescale_norm(primal, desc, 1.0 / self.r)
        self._scaled_body = scaled_desc.ball()
        self.stragglers = 0  # always 0 (the cap raises); perfbench's layer trace reads it
        # the pool: per direction u, the certified point w with the largest
        # u.w - s, its slack s, and that score (-inf while the slot is empty)
        self._pool_dirs = _pool_directions(desc.n)
        self._pool_w = np.zeros_like(self._pool_dirs)
        self._pool_s = np.zeros(len(self._pool_dirs))
        self._pool_score = np.full(len(self._pool_dirs), -np.inf)

    def _slack(self, delta: float) -> float:
        return min(delta / self.r, 0.49)

    def certify(self, W, slack: float) -> None:
        """Offer the pool the rows of W, each of which the primal oracle
        answered IN_THICKENED at this slack; the pool screen is only as
        sound as that promise. Each pool direction u keeps the point with
        the largest u.w - s seen so far. The 2 n^2 pooled points refute
        most outside rows of a Monte Carlo polar run at no call."""
        slack = positive_finite(slack, "slack")
        pts = np.asarray(W, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.body.n:
            raise ValueError(f"expected an (m, {self.body.n}) array of points, "
                             f"got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points have non-finite coordinates")
        cols = np.arange(len(self._pool_dirs))
        for lo in range(0, len(pts), _POOL_BLOCK):
            block = pts[lo:lo + _POOL_BLOCK]
            score = block @ self._pool_dirs.T - slack
            best = np.argmax(score, axis=0)
            top = score[best, cols]
            better = top > self._pool_score
            self._pool_w[better] = block[best[better]]
            self._pool_s[better] = slack
            self._pool_score[better] = top[better]

    def _refuted(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Rows with x.w - |x| s > 1 for some pooled (w, s). The rounding of
        x.w and |x| s is at most a few n machine epsilons of |x| (|w| + s),
        so s is padded by rho (|w| + s) and 1 raised to 1 + rho."""
        full = np.isfinite(self._pool_score)
        W = self._pool_w[full]
        rho = 16 * self.body.n * np.finfo(float).eps
        pad = self._pool_s[full] * (1.0 + rho) + rho * np.linalg.norm(W, axis=1)
        out = np.zeros(len(pts), dtype=bool)
        for lo in range(0, len(pts), _POOL_BLOCK):
            rows = slice(lo, lo + _POOL_BLOCK)
            bound = pts[rows] @ W.T - nrm[rows, None] * pad
            out[rows] = bound.max(axis=1) > 1.0 + rho
        return out

    def _screen(self, pts: np.ndarray, delta: float) -> np.ndarray:
        nrm = np.linalg.norm(pts, axis=1)
        out = nrm <= self.primal_descriptor.k_lo  # inside the inscribed ball
        work = (~out) & (nrm < self.primal_descriptor.k_hi)
        if np.isfinite(self._pool_score).any() and np.any(work):
            work[work] = ~self._refuted(pts[work], nrm[work])
        if np.any(work):
            out[work] = self._lockstep(pts[work], delta)
        return out

    def _lockstep(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """Verdicts of the rows the screen leaves, True = IN_THICKENED: one
        validity run of c = x / r against gamma = 1 over r B_nu, all rows in
        lockstep."""
        return wval_batch(self._scaled_oracle, self._scaled_body, pts / self.r,
                          1.0, self._slack(delta), self.cfg)


def dual_ball_wmem(primal: WeakMembershipOracle, desc: NormDescriptor,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> DualBallOracle:
    """Weak membership oracle for the dual unit ball B_(nu*)."""
    return DualBallOracle(primal, desc, cfg)


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
    """Dual norm value with its accuracy scale.

    The additive error is bounded by delta * annulus_factor / 3 (the
    bisection runs at delta/3 and the result is scaled back by the factor).
    """

    value: float
    annulus_factor: float
    trace: BisectionTrace | None


def dual_norm_eval(primal: WeakMembershipOracle, desc: NormDescriptor, y,
                   delta: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DualNormResult:
    """Evaluate the dual norm nu*(y) from the primal ball oracle.

    Composition: scale y onto the unit sphere, derive the dual-ball
    membership oracle, bisect it down to delta/3, and scale back.
    nu*(0) = 0 is answered directly.
    """
    positive_finite(delta, "delta")
    v = as_vector(y, desc.n)
    factor = float(np.linalg.norm(v))
    if factor == 0.0:
        return DualNormResult(0.0, 0.0, None)
    dual_oracle = dual_ball_wmem(primal, desc, cfg)
    omega, trace = approx_from_wmem(dual_oracle, desc.dual(), v / factor, delta / 3.0)
    return DualNormResult(factor * omega, factor, trace)
