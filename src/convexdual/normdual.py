"""Dual-norm evaluation from a weak membership oracle for the primal ball.

The dual norm is a support function: nu*(y) = max of y . x over the primal
unit ball B, its support value h_B(y). So dual_norm_eval is one certified
support query over B (cutting.support_batch): weak optimization from weak
membership, run once at y/|y| and scaled back by |y|.

The paper's longer route stays as stages of their own. Membership for the
primal ball gives weak validity of linear functionals over it
(cutting.wval_batch); validity over the primal ball decides weak
membership in the dual ball (the k >= 2 lemma, after rescaling:
rescale_norm and DualBallOracle, which also serves both Mahler runs,
and settles most of their rows at no call from one support_batch run over
a net of directions: its bounds refute primal rows and certify polar ones,
and its witnesses certify primal rows and refute polar ones);
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
_HULL_TOL = 1e-9  # slack of _hull_facets' side test, far above its rounding


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


def _hull_facets(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The facets of the hull of the rows of P about the origin, in R^2 or
    R^3: per facet, its n-tuple F of row indices and its plane H, with
    H . P_i = 1 for i in F and H . P_j <= 1 + _HULL_TOL for every row j.
    Brute force over the n-subsets, one first index i at a time, so the
    transient is one block of subsets against all m rows (about 1.3 MB for
    64 rows in R^3). A subset's plane is H = N / (N . P_i) for the normal N
    of its edges from P_i, and N . P_i is the determinant of its rows.
    Subsets that are singular, or nearly so relative to the size of P, are
    left out. _certified is sound over any subset, so a plane kept or left
    out in error costs verdicts, never their legality."""
    m, n = P.shape
    tiny = 1e-9 * np.linalg.norm(P, axis=1).max() ** n
    facets, planes = [np.zeros((0, n), dtype=int)], [np.zeros((0, n))]
    tails = np.array(list(itertools.combinations(range(m), n - 1)))  # sorted
    for i in range(m - n + 1):
        rest = tails[np.searchsorted(tails[:, 0], i + 1):]  # tails above i
        E = P[rest] - P[i]  # the subset's edges from P_i
        N = np.cross(E[:, 0], E[:, 1]) if n == 3 else E[:, 0, ::-1] * [1.0, -1.0]
        det = N @ P[i]
        ok = np.abs(det) > tiny
        H = N[ok] / det[ok, None]
        keep = np.all(H @ P.T <= 1.0 + _HULL_TOL, axis=1)
        facets.append(np.column_stack([np.full(len(H), i), rest[ok]])[keep])
        planes.append(H[keep])
    return np.vstack(facets), np.vstack(planes)


@dataclass(frozen=True)
class _Generators:
    """One generator set of the gauge certificate (_certified): rows G with
    gauge bounds g, gauge(G_i) <= g_i, and a residual constant L with
    gauge(e) <= L |e| for every e. In R^2 and R^3 a row's n generators are
    the facet of the hull of the scaled generators G_i / g_i that its ray
    meets first (_hull_facets): facets holds each facet's indices, planes
    its H, and inverse the inverse of its matrix G_F^T. Elsewhere (the
    2 n^2 net) the three are None, and a row's n generators are those of
    largest c . G_i.
    """

    G: np.ndarray
    g: np.ndarray
    L: float
    facets: np.ndarray | None = None
    planes: np.ndarray | None = None
    inverse: np.ndarray | None = None


def _generators(G: np.ndarray, g: np.ndarray, L: float) -> _Generators:
    if G.shape[1] not in (2, 3):  # the 2 n^2 net: no hull
        return _Generators(G, g, L)
    facets, planes = _hull_facets(G / g[:, None])
    return _Generators(G, g, L, facets, planes,
                       np.linalg.inv(G[facets].transpose(0, 2, 1)))


def _certified(gen: _Generators, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """Rows c whose gauge the generator set bounds by 1, nrm holding |c|.

    c is written c = sum lam_i G_i + e over the row's n generators (the
    pick of _Generators), lam solving the n x n system and clipped to
    lam >= 0, and e the residual. A gauge is sublinear, so
    gauge(c) <= sum lam_i g_i + L |e|; where that is at most 1, c lies in
    the body and IN_THICKENED is legal at every slack. The residual makes
    the bound hold for any lam and any n-subset, so neither the pick nor
    the solve needs to be right, only the bound computed with care: each
    computed term errs by a few n machine epsilons of |c| + sum lam_i |G_i|,
    relative to the constants that multiply it, so |e| is padded by rho
    times that and the whole bound raised by the factor 1 + rho. Rows
    whose n nearest generators are linearly dependent, or nearly so
    relative to the generators' size (the 2 n^2 net has such n-tuples),
    are left undecided.
    """
    n = pts.shape[1]
    rho = 16 * n * np.finfo(float).eps
    length = np.linalg.norm(gen.G, axis=1)
    tiny = 1e-9 * length.max() ** n
    out = np.zeros(len(pts), dtype=bool)
    for lo in range(0, len(pts), _BLOCK):
        C = pts[lo:lo + _BLOCK]
        if gen.planes is None:
            pick = np.argpartition(C @ gen.G.T, -n, axis=1)[:, -n:]
            A = gen.G[pick]  # rows G_i of each row's system
            ok = np.abs(np.linalg.det(A)) > tiny
            lam = np.zeros((len(C), n))
            lam[ok] = np.linalg.solve(A[ok].transpose(0, 2, 1), C[ok][:, :, None])[:, :, 0]
        else:
            facet = np.argmax(C @ gen.planes.T, axis=1)  # the plane the ray meets first
            pick = gen.facets[facet]
            A = gen.G[pick]
            ok = True
            lam = np.einsum("bij,bj->bi", gen.inverse[facet], C)
        lam = np.maximum(lam, 0.0)
        res = np.linalg.norm(C - np.einsum("bi,bij->bj", lam, A), axis=1)
        scale = nrm[lo:lo + _BLOCK] + np.einsum("bi,bi->b", lam, length[pick])
        bound = np.einsum("bi,bi->b", lam, gen.g[pick]) + gen.L * (res + rho * scale)
        out[lo:lo + _BLOCK] = ok & (bound * (1.0 + rho) <= 1.0)
    return out


class DualBallOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual unit ball, derived from the primal.

    Every query, one point or many, runs one path. The sandwich screen
    settles the rows it can for free: |x| <= k_lo is inside the dual ball,
    |x| >= k_hi outside it.

    The rows the sandwich leaves meet the net, once it exists. The oracle
    keeps one net V of unit directions (_net_directions). The first batch
    that leaves at least len(V) rows, of the polar run or of the primal one
    (_primal_screen), runs one cutting.support_batch over V. Per direction
    v it returns a bound hi(v) >= h_B(v) (the support interval of the
    cutting module header) and a witness w_v within the run's centre slack
    s of B_nu. A body and its polar are decided by the same data: the bounds
    certify polar rows and refute primal ones, and the witnesses refute
    polar rows and certify primal ones. From then on every row of either
    run is first refuted, and then certified, for free.

    Polar refuted: x.w - |x| s > 1 for some witness w. Such a w lies within
    s of some b in B_nu, so x.w <= x.b + |x| s <= nu*(x) + |x| s, hence
    nu*(x) > 1, and NOT_IN_SHRUNK is legal at every slack.

    Primal refuted: v.x > hi(v) for some net direction v. Then
    v.x > h_B(v), so x is outside B_nu, and NOT_IN_SHRUNK is legal at
    every slack.

    Certified, on either side, by one gauge certificate (_certified): a row
    is written over n generators G_i with gauge bounds g_i, and where
    sum lam_i g_i + L |e| <= 1 it is inside, so IN_THICKENED is legal at
    every slack. Polar: G = V, g = hi and L = 1 / k_lo, as
    nu*(v) = h_B(v) <= hi(v) and B_nu lies in B(0, 1/k_lo). Primal: G the
    witnesses, g = 1 + k_hi s and L = k_hi, as nu <= k_hi |.| and a witness
    within s of b in B_nu has nu(w) <= nu(b) + k_hi s. The bound holds for
    any choice of the n generators; in R^2 and R^3 each row takes the facet
    of the generators' hull that its ray meets first, where its lam is
    nonnegative and its residual is rounding.

    Every rule trusts hi(v) and s as support_batch certifies them, so the
    caveat of the cutting module header (the separator's sigma is not
    charged to the support interval) covers the primal verdicts as it
    covers the polar ones. All bounds are padded for rounding (_refuted,
    _primal_refuted, _certified). Smaller batches leave the net unbuilt
    and cost what the validity run, or the primal oracle, costs.

    The polar rows all screens leave go to one lockstep validity run over
    the primal ball, which is what makes million-point volume sampling
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
        self._witness = None  # per net direction, its witness w_v
        self._witness_slack = None  # s: every witness lies within s of B_nu
        self._polar_gen = None  # the polar certificate's generators: V
        self._primal_gen = None  # the primal certificate's: the witnesses

    def _slack(self, delta: float) -> float:
        return min(delta / self.r, 0.49)

    def _refuted(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Polar rows with x.w - |x| s > 1 for some witness w (class
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

    def _primal_refuted(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Primal rows with v.x > hi(v) for some net direction v (class
        docstring). The rounding of v.x - hi(v) is at most a few n machine
        epsilons of |x| + hi(v), so the difference must exceed rho times
        that."""
        rho = 16 * self.body.n * np.finfo(float).eps
        hi = self._net_hi * (1.0 + rho)
        out = np.zeros(len(pts), dtype=bool)
        for lo in range(0, len(pts), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            gap = pts[rows] @ self._net.T - hi - rho * nrm[rows, None]
            out[rows] = gap.max(axis=1) > 0.0
        return out

    def _build_net(self) -> None:
        """hi(v) and the witness w_v for every net direction from one support
        run over the primal ball, at width _NET_REL_ERR / k_hi, and the
        generators of both certificates; the run's centre slack bounds every
        witness's distance to B_nu."""
        desc = self.primal_descriptor
        _, hi, W, _, s = support_batch(self.primal, desc.ball(), self._net,
                                       _NET_REL_ERR / desc.k_hi)
        self._net_hi, self._witness, self._witness_slack = hi, W, s
        self._polar_gen = _generators(self._net, hi, 1.0 / desc.k_lo)
        self._primal_gen = _generators(W, np.full(len(W), 1.0 + desc.k_hi * s), desc.k_hi)

    def _net_query(self, pts: np.ndarray, nrm: np.ndarray, delta: float,
                   primal: bool) -> np.ndarray:
        """Verdicts, True = IN_THICKENED, of rows that no sandwich settles,
        on the primal ball or (primal False) on the dual one: refuted, then
        certified, by the net, once it is built, and the rest asked of the
        primal oracle or of the validity run. A batch of at least len(V)
        rows builds the net first."""
        if self._net_hi is None and len(pts) >= len(self._net):
            self._build_net()
        out = np.zeros(len(pts), dtype=bool)
        work = np.ones(len(pts), dtype=bool)
        if self._net_hi is not None:
            refuted, gen = ((self._primal_refuted, self._primal_gen) if primal
                            else (self._refuted, self._polar_gen))
            work = ~refuted(pts, nrm)
            out[work] = _certified(gen, pts[work], nrm[work])
            work &= ~out
        if np.any(work):
            ask = self.primal.query_batch if primal else self._lockstep
            out[work] = ask(pts[work], delta)
        return out

    def _screen(self, pts: np.ndarray, delta: float) -> np.ndarray:
        nrm = np.linalg.norm(pts, axis=1)
        out = nrm <= self.primal_descriptor.k_lo  # inside the inscribed ball
        work = (~out) & (nrm < self.primal_descriptor.k_hi)
        if np.any(work):
            out[work] = self._net_query(pts[work], nrm[work], delta, primal=False)
        return out

    def _primal_screen(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """Primal verdicts, True = IN_THICKENED, of rows that the primal
        ball's sandwich leaves (mahler_volume's primal run sends its shell
        here): the net decides what it can, and only the rest reach the
        primal oracle."""
        return self._net_query(pts, np.linalg.norm(pts, axis=1), delta, primal=True)

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
