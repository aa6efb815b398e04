"""Fenchel conjugate evaluation from approximate function values.

The conjugate is a support function: f*(y) = sup_x (y . x - f(x)) is the
support value of epi f = {(x, tau) : f(x) <= tau} in the direction (y, -1).
A growth certificate localizes the supremum inside a Euclidean ball, so epi f
is truncated to that ball and a cap once, and one weak optimization over it
gives f*(y). Minimization over a ball is the same support query in the
direction (0, -1). Growth certificates transfer to the conjugate in closed
form, which gives sandwich tests that need no second implementation of f*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CenteredBody, Interval, as_vector, positive_finite
from .cutting import wopt_from_wmem
from .oracles import FunctionApproxOracle, WeakMembershipOracle


class CertificateError(RuntimeError):
    """A caller-supplied certificate contradicts what the run observed."""


@dataclass(frozen=True)
class GrowthCertificate:
    """Two-sided power growth of a convex function outside a ball.

    Asserts k_lo |x|^s <= f(x) <= k_hi |x|^t whenever |x| >= r. Only the
    holder can vouch for it; the evaluation routines consume it to pick
    localization radii and caps.
    """

    k_lo: float
    k_hi: float
    s: float
    t: float
    r: float

    def __post_init__(self):
        for name in ("k_lo", "k_hi", "s", "t", "r"):
            positive_finite(getattr(self, name), name)
        if not self.k_lo <= self.k_hi:
            raise ValueError("need 0 < k_lo <= k_hi")
        if not 1.0 < self.s <= self.t:
            raise ValueError("need exponents 1 < s <= t")

    def lower(self, radius):
        return self.k_lo * np.asarray(radius, dtype=float) ** self.s

    def upper(self, radius):
        return self.k_hi * np.asarray(radius, dtype=float) ** self.t


@dataclass(frozen=True)
class InteriorMinCertificate:
    """Caller's assertion that the minimum over the ball is attained at least
    margin inside it, so shrinking the epigraph does not move the minimum."""

    margin: float

    def __post_init__(self):
        positive_finite(self.margin, "margin")


@dataclass(frozen=True)
class EpigraphBody:
    """Truncated epigraph {(x, tau) : x in ball, f(x) <= tau <= cap}.

    ball must be Euclidean (inner == outer). The holder vouches that
    |f| <= cap / 2 on the ball; the centering data below is valid exactly
    under that bound.
    """

    ball: CenteredBody
    cap: float
    values: FunctionApproxOracle

    def __post_init__(self):
        if self.ball.inner_radius != self.ball.outer_radius:
            raise ValueError("epigraph bodies are built over Euclidean balls")
        positive_finite(self.cap, "cap")
        if self.values.n != self.ball.n:
            raise ValueError("value oracle dimension does not match the ball")

    @property
    def n(self) -> int:
        return self.ball.n + 1

    def body(self) -> CenteredBody:
        # with |f| <= cap/2 on the ball, the slab tau in [3cap/4 - inner,
        # 3cap/4 + inner] sits inside the epigraph for inner <= cap/4, and
        # the whole epigraph fits in the cylinder B(c, R) x [-cap/2, cap],
        # which the stated outer ball and ellipsoid hold (cutting module
        # header, start ellipsoid)
        n, radius, cap = self.ball.n, self.ball.outer_radius, self.cap
        center = np.append(self.ball.center, 0.75 * cap)
        inner = min(radius, 0.25 * cap)
        outer = math.hypot(radius, 1.25 * cap)
        axes = np.append(np.full(n, radius * math.sqrt((n + 1) / n)),
                         0.75 * cap * math.sqrt(n + 1))
        ellipsoid = (np.append(self.ball.center, 0.25 * cap), np.diag(axes * axes))
        return CenteredBody(center, inner, outer, ellipsoid)

    def oracle(self) -> WeakMembershipOracle:
        """Row-wise weak membership, with the epigraph's own separator.

        Verdicts at slack dq: rows off the ball or above the cap are refuted
        without an evaluation, every other row costs one, f~(x) asked at the
        separator's slack ev = dq h / (16 sqrt(n) R), h = 1e-5 R, not at dq.
        The verdict function keeps its last batch's values, keyed by row and
        ev, and each call replaces them. The separator cuts a point
        z = (x, tau) answered outside at slack dq (cutting module header,
        value separators): off the ball along the ball's face, at depth
        |x - c| - R, and above the cap along tau <= cap, at depth
        tau - cap, both exact and without an evaluation. Below the graph it
        takes n forward differences of f at x, each stepping toward the
        ball's centre by h, with every value asked at slack ev. Their
        quotients H give the tangent halfspace
        (H, -1) . y <= H . x - f~(x) + ev, a cut at depth
        (f~(x) - ev - tau) / |(H, -1)|. It reads f~(x) from the last verdict
        batch where that batch holds x at the same ev, as it does for every
        centre the cutting engine hands it, and then costs n evaluations;
        elsewhere it asks f~(x) itself, for n + 1. Each row also gets a
        witness in the epigraph at no further evaluation: below the graph
        (x, min(f~(x) + ev, cap)), as f(x) <= f~(x) + ev, and off the ball
        or above the cap the ball point nearest x at tau = cap, as
        f <= cap/2 on the ball (cutting module header, separator witnesses).
        """
        center, radius, cap, values = (self.ball.center, self.ball.outer_radius,
                                       self.cap, self.values)
        n = self.ball.n
        step = 1e-5 * radius
        # each quotient errs by at most 2 ev / h, which costs at most dq / 4
        # of sigma over the ball's diameter 2R
        ev_per_dq = step / (16.0 * math.sqrt(n) * radius)
        last = {}  # (x bytes, ev) -> f~_ev(x), for the last verdict batch only

        def verdicts(Z, eps):
            if eps >= 0.5 * cap:
                raise ValueError("query slack must stay below half the cap")
            X, tau = Z[:, :-1], Z[:, -1]
            inside = (np.linalg.norm(X - center, axis=1) <= radius) & (tau <= cap)
            # asked at ev < eps: tau >= w means tau >= f(x) - ev >= f(x) - eps,
            # and (x, min(tau + eps, cap)) is an epigraph point within eps;
            # tau < w <= f(x) + eps means (x, tau - eps) lies below the graph,
            # refuting the eps-shrunk set
            ev = eps * ev_per_dq
            last.clear()
            for i in np.flatnonzero(inside):
                w = values.eval(X[i], ev)
                last[X[i].tobytes(), ev] = w
                inside[i] = tau[i] >= w
            return inside

        def separator(Z, dq):
            X, tau = Z[:, :-1], Z[:, -1]
            rel = X - center
            dist = np.linalg.norm(rel, axis=1)
            U = np.zeros_like(Z)
            outside = dist > radius
            U[outside, :-1] = rel[outside] / dist[outside, None]
            above = ~outside & (tau > cap)
            U[above, -1] = 1.0
            depth = np.where(outside, dist - radius, tau - cap)
            # witnesses: the ball point nearest x at the cap, f <= cap/2 there,
            # and below the graph (x, min(f~(x) + ev, cap)), f(x) <= f~(x) + ev
            scale = radius / np.maximum(dist, radius)
            W = np.column_stack([center + rel * scale[:, None], np.full(len(Z), cap)])
            ev = dq * ev_per_dq
            hs = np.where(rel >= 0.0, -step, step)
            for i in np.flatnonzero(~outside & ~above):
                fx = last.get((X[i].tobytes(), ev))
                if fx is None:
                    fx = values.eval(X[i], ev)
                fp = np.array([values.eval(p, ev) for p in X[i] + np.diag(hs[i])])
                u = np.append((fp - fx) / hs[i], -1.0)  # (H, -1)
                nrm = float(np.linalg.norm(u))
                U[i] = u / nrm
                depth[i] = (fx - ev - tau[i]) / nrm
                W[i, -1] = min(fx + ev, cap)
            return U, depth, W

        return WeakMembershipOracle(verdicts, self.body(), label="epigraph",
                                    separator=separator)


@dataclass(frozen=True)
class MinimizationResult:
    value: float
    point: np.ndarray
    iterations: int
    oracle_calls: int   # evaluations of f by the run, verdicts and separators


def min_via_wopt(epi: EpigraphBody, cert: InteriorMinCertificate,
                 eps: float) -> MinimizationResult:
    """Approximate min of f over the ball by pushing the epigraph downward.

    The support query of the truncated epigraph E in the direction (0, -1)
    at err = eps / 2 (cutting.wopt_from_wmem). As |f| <= cap / 2 on the
    ball, h_E((0, -1)) is minus the minimum of f over it, so the minimum
    lies in [-hi, -lo] for the query's interval [lo, hi], and the value
    returned, minus the witness's objective value, lies there too: within
    eps / 2 of the minimum. That interval already charges what the shrunk
    epigraph loses of support, so the interior-minimum certificate only
    bounds eps. It backs a cheap post-hoc probe, which raises
    CertificateError when the returned value is blatantly above function
    values seen at interior points.
    """
    if not (0.0 < eps < min(0.5 * epi.cap, cert.margin)):
        raise ValueError("need 0 < eps < min(cap / 2, certificate margin)")
    down = np.zeros(epi.n)
    down[-1] = -1.0
    oracle = epi.oracle()
    before = epi.values.calls.count
    res = wopt_from_wmem(oracle, oracle.body, down, 0.5 * eps)
    calls = epi.values.calls.count - before
    value = -res.value

    # the center and the points half the radius out along each axis
    steps = 0.5 * epi.ball.outer_radius * np.eye(epi.ball.n)
    probes = epi.ball.center + np.vstack([np.zeros(epi.ball.n), steps, -steps])
    seen = min(epi.values.eval(p, 0.25 * eps) + 0.25 * eps for p in probes)
    if value > seen + 1.5 * eps + 1e-12:
        raise CertificateError(
            f"minimum estimate {value:.6g} exceeds an observed value "
            f"{seen:.6g} by more than the slack; the interior-minimum "
            "certificate looks false")
    return MinimizationResult(value, res.witness[:-1].copy(), res.iterations, calls)


def dual_growth_constants(cert: GrowthCertificate,
                          f_lower_bound: float) -> GrowthCertificate:
    """Growth certificate for the conjugate of a function certified by cert.

    f_lower_bound is a lower bound for f on the ball B(0, r) where the power
    sandwich is silent. The conjugate obeys the returned sandwich: the upper
    constant comes from the primal lower bound and vice versa, with the dual
    exponents s / (s - 1) and t / (t - 1).
    """
    k, K, s, t, r = cert.k_lo, cert.k_hi, cert.s, cert.t, cert.r
    K_star = (s - 1.0) / (s * (k * s) ** (1.0 / (s - 1.0)))
    t_star = s / (s - 1.0)
    k_star = (t - 1.0) / (t * (K * t) ** (1.0 / (t - 1.0)))
    s_star = t / (t - 1.0)

    # below r1 the conjugate's upper sandwich could be polluted by the
    # uncontrolled region |x| < r: r1 is the largest z with
    # K_star z^{t_star} - r z + f_lower_bound <= 0 (zero when none exists)
    def g(z):
        return K_star * z ** t_star - r * z + f_lower_bound

    z_min = (r / (K_star * t_star)) ** (1.0 / (t_star - 1.0))
    if g(z_min) > 0.0:
        r1 = 0.0
    else:
        hi = max(z_min, 1.0)
        while g(hi) <= 0.0:
            hi *= 2.0
        lo = z_min
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        r1 = hi
    r_prime = max(r1, K * t * r ** (t - 1.0))
    return GrowthCertificate(k_star, K_star, s_star, t_star, r_prime)


@dataclass(frozen=True)
class ConjugateEstimate:
    value: float
    argmax: np.ndarray
    radius: float   # epi f is cut to the ball B(0, radius)
    cap: float      # and to tau <= cap: the epigraph whose support it is
    interval: Interval  # certified to contain f*(y), width at most eps
    cuts: int       # the support run's cuts, free cuts included


def fenchel_eval(values: FunctionApproxOracle, cert: GrowthCertificate, y,
                 eps: float) -> ConjugateEstimate:
    """Evaluate the Fenchel conjugate at y within eps: one support query of
    epi f in the direction c = (y, -1).

    Beyond a radius rho from the certificate, y . x - f(x) < -f(0) <= f*(y).
    So epi f is cut to the ball B(0, R), R = rho + 1, and to a cap with
    |f| <= cap / 2 there: f is convex, so the certificate's bound on the
    sphere bounds it above, and f(x) >= 2 f(0) - f(-x) below. Over that body
    E, with tau = f(x) under the cap, h_E(c) = f*(y).

    Slack. cutting.wopt_from_wmem at err = eps certifies an interval of
    width at most eps that contains h_E(c) (the support interval of the
    cutting module header, which proves it), and the estimate reports it
    with the run's cut count. The value returned is c . witness, which lies
    in that interval, so it is within eps of f*(y).
    """
    positive_finite(eps, "eps")
    y = as_vector(y, values.n)
    ny = float(np.linalg.norm(y))
    e0 = min(0.25, 0.25 * eps)
    f0_raw = values.eval(np.zeros(values.n), e0)
    f0_hi = f0_raw + e0   # upper bound on f(0)
    f0_lo = f0_raw - e0   # lower bound on f(0)

    # smallest convenient rho >= r with rho (k_lo rho^{s-1} - |y|) > f0_hi + 1:
    # beyond it, y . x - f(x) < -f0_hi <= f*(y)
    def excluded(rad):
        return rad * (cert.k_lo * rad ** (cert.s - 1.0) - ny) > f0_hi + 1.0

    rho = max(cert.r, 1.0, ((ny + 1.0) / cert.k_lo) ** (1.0 / (cert.s - 1.0)))
    while not excluded(rho):
        rho *= 2.0
    lo, hi = cert.r, rho
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excluded(mid):
            hi = mid
        else:
            lo = mid
    rho = hi

    radius = rho + 1.0
    f_sphere = float(cert.upper(radius))
    cap = 2.0 * (max(abs(f_sphere), abs(2.0 * f0_lo - f_sphere)) + 1.0)
    epi = EpigraphBody(CenteredBody(np.zeros(values.n), radius, radius), cap, values)
    oracle = epi.oracle()
    res = wopt_from_wmem(oracle, oracle.body, np.append(y, -1.0), eps)
    return ConjugateEstimate(res.value, res.witness[:-1].copy(), radius, cap,
                             res.interval, res.iterations)


def fenchel_brute(fn, y, radius: float, mesh: int = 101) -> float:
    """Grid evaluation of sup (y . x - f(x)) over the ball, dimensions <= 3.

    Blind to structure, so it works on nonconvex functions too; accuracy is
    whatever the mesh and the localization radius give. fn takes one point.
    """
    y = as_vector(y)
    d = y.size
    if d > 3:
        raise ValueError("brute-force conjugation is for dimensions 1 to 3")
    if mesh < 2 or radius <= 0.0:
        raise ValueError("need mesh >= 2 and radius > 0")
    axis = np.linspace(-radius, radius, mesh)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    X = X[np.linalg.norm(X, axis=1) <= radius]
    vals = np.array([float(fn(x)) for x in X])
    return float(np.max(X @ y - vals))


# ---------------------------------------------------------------------------
# reference functions with known conjugates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceFunction:
    """Named function with exact values and, when available, a closed-form
    conjugate and growth certificate for cross-checking the oracle pipeline."""

    name: str
    n: int
    fn: object            # x -> float
    conjugate: object     # y -> float, or None
    cert: GrowthCertificate | None

    def approx_oracle(self) -> FunctionApproxOracle:
        return FunctionApproxOracle(lambda x, e: float(self.fn(x)), self.n,
                                    label=self.name)


def _half_square(n: int) -> ReferenceFunction:
    return ReferenceFunction(
        "half_square_norm", n,
        fn=lambda x: 0.5 * float(x @ x),
        conjugate=lambda y: 0.5 * float(y @ y),
        cert=GrowthCertificate(0.5, 0.5, 2.0, 2.0, 1.0))


def _square(n: int) -> ReferenceFunction:
    return ReferenceFunction(
        "square_norm", n,
        fn=lambda x: float(x @ x),
        conjugate=lambda y: 0.25 * float(y @ y),
        cert=GrowthCertificate(1.0, 1.0, 2.0, 2.0, 1.0))


def _quartic(n: int) -> ReferenceFunction:
    if n != 1:
        raise ValueError("the quartic reference is one-dimensional")
    return ReferenceFunction(
        "quartic_quarter", 1,
        fn=lambda x: 0.25 * float(x[0]) ** 4,
        conjugate=lambda y: 0.75 * abs(float(y[0])) ** (4.0 / 3.0),
        cert=GrowthCertificate(0.25, 0.25, 4.0, 4.0, 0.5))


def _exp_pair(n: int) -> ReferenceFunction:
    if n < 1:
        raise ValueError("dimension must be positive")
    return ReferenceFunction(
        "exp_pair", n,
        fn=lambda x: math.exp(float(x[0])) + math.exp(-float(x[0])),
        conjugate=None,
        cert=None)   # exponential growth has no power certificate


def _clamped_product(n: int) -> ReferenceFunction:
    if n != 3:
        raise ValueError("the clamped product demo is three-dimensional")
    return ReferenceFunction(
        "clamped_negative_product", 3,
        fn=lambda x: max(-float(x[0] * x[1] * x[2]), -1.0),
        conjugate=None,  # nonconvex demo for the brute-force path
        cert=None)


REFERENCE_FUNCTIONS = {
    "half_square_norm": _half_square,
    "square_norm": _square,
    "quartic_quarter": _quartic,
    "exp_pair": _exp_pair,
    "clamped_negative_product": _clamped_product,
}


def make_reference_function(name: str, n: int) -> ReferenceFunction:
    try:
        builder = REFERENCE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown reference function {name!r}; choices: "
                         f"{sorted(REFERENCE_FUNCTIONS)}") from None
    return builder(n)
