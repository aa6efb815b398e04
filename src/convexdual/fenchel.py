"""Fenchel conjugate evaluation from approximate function values.

The conjugate f*(y) = sup_x (y . x - f(x)) is computed by localizing the
supremum inside a Euclidean ball (growth certificates make the tail
irrelevant), building a weak membership oracle for the truncated epigraph of
the shifted function g = f - y . x, and driving the cutting-plane optimizer
downward in the epigraph's last coordinate. Growth certificates transfer to
the conjugate in closed form, which gives sandwich tests that need no second
implementation of f*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    CenteredBody,
    ToleranceConfig,
    WeakVerdict,
    as_vector,
    positive_finite,
)
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
        if not (0.0 < self.k_lo <= self.k_hi):
            raise ValueError("need 0 < k_lo <= k_hi")
        if not (1.0 < self.s <= self.t):
            raise ValueError("need exponents 1 < s <= t")
        if self.r <= 0.0:
            raise ValueError("need r > 0")

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
        if self.margin <= 0.0:
            raise ValueError("margin must be positive")


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
        if not (self.cap > 0.0 and math.isfinite(self.cap)):
            raise ValueError("cap must be positive and finite")
        if self.values.n != self.ball.n:
            raise ValueError("value oracle dimension does not match the ball")

    @property
    def n(self) -> int:
        return self.ball.n + 1

    def body(self) -> CenteredBody:
        # with |f| <= cap/2 on the ball, the slab tau in [3cap/4 - inner,
        # 3cap/4 + inner] sits inside the epigraph for inner <= cap/4, and
        # the whole epigraph fits in the stated outer ball
        center = np.append(self.ball.center, 0.75 * self.cap)
        inner = min(self.ball.outer_radius, 0.25 * self.cap)
        outer = math.hypot(self.ball.outer_radius, 1.25 * self.cap)
        return CenteredBody(center, inner, outer)

    def oracle(self, label: str = "epigraph") -> WeakMembershipOracle:
        return WeakMembershipOracle(
            lambda Z, eps: np.array([self._verdict(z, eps) is WeakVerdict.IN_THICKENED
                                     for z in Z], dtype=bool),
            self.body(), label=label)

    def _verdict(self, z, eps):
        if eps >= 0.5 * self.cap:
            raise ValueError("query slack must stay below half the cap")
        x, tau = z[:-1], float(z[-1])
        if float(np.linalg.norm(x - self.ball.center)) > self.ball.outer_radius:
            return WeakVerdict.NOT_IN_SHRUNK
        if tau > self.cap:
            return WeakVerdict.NOT_IN_SHRUNK
        w = self.values.eval(x, eps)
        # tau >= w means tau >= f(x) - eps, and (x, min(tau + eps, cap)) is an
        # epigraph point within eps; tau < w means (x, tau - eps) lies below
        # the graph, refuting the eps-shrunk set
        if tau >= w:
            return WeakVerdict.IN_THICKENED
        return WeakVerdict.NOT_IN_SHRUNK


def epigraph_wmem(epi: EpigraphBody, point, eps: float) -> WeakVerdict:
    """One weak membership verdict for the truncated epigraph (one function
    evaluation, or none when the point misses the ball or the cap)."""
    eps = positive_finite(eps, "eps")
    return epi._verdict(as_vector(point, epi.n), eps)


@dataclass(frozen=True)
class MinimizationResult:
    value: float
    point: np.ndarray
    iterations: int
    oracle_calls: int


def min_via_wopt(epi: EpigraphBody, cert: InteriorMinCertificate, eps: float,
                 cfg: ToleranceConfig = DEFAULT_CONFIG) -> MinimizationResult:
    """Approximate min of f over the ball by pushing the epigraph downward.

    Maximizes -tau over the truncated epigraph with weak-optimization slack
    eps / 2. The interior-minimum certificate covers the gap between the
    shrunk epigraph's minimum and the true one; a cheap post-hoc probe raises
    CertificateError when the returned value is blatantly above function
    values seen at interior points.
    """
    if not (0.0 < eps < min(0.5 * epi.cap, cert.margin)):
        raise ValueError("need 0 < eps < min(cap / 2, certificate margin)")
    oracle = epi.oracle()
    objective = np.zeros(epi.n)
    objective[-1] = -1.0
    res = wopt_from_wmem(oracle, oracle.body, objective, 0.5 * eps, cfg)
    value = -float(res.value)

    probes = [epi.ball.center]
    step = 0.5 * epi.ball.outer_radius
    for i in range(epi.ball.n):
        e = np.zeros(epi.ball.n)
        e[i] = step
        probes.append(epi.ball.center + e)
        probes.append(epi.ball.center - e)
    seen = min(epi.values.eval(p, 0.25 * eps) + 0.25 * eps for p in probes)
    if value > seen + 1.5 * eps + 1e-12:
        raise CertificateError(
            f"minimum estimate {value:.6g} exceeds an observed value "
            f"{seen:.6g} by more than the slack; the interior-minimum "
            "certificate looks false")
    return MinimizationResult(value, res.witness[:-1].copy(), res.iterations,
                              oracle.calls.count)


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
    radius: float
    cap: float


def fenchel_eval(values: FunctionApproxOracle, cert: GrowthCertificate, y,
                 eps: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> ConjugateEstimate:
    """Evaluate the Fenchel conjugate at y within eps.

    The growth certificate localizes the supremum of y . x - f(x) inside a
    ball B(0, rho): outside it the lower power bound drives the objective
    below what x = 0 already achieves. The supremum then equals minus the
    minimum of g = f - y . x over B(0, rho + 1), computed by min_via_wopt
    with a unit interior margin. f must be convex: the cap for |g| over the
    ball combines the certificate's upper bound on the sphere (convexity puts
    the max of f on the boundary) with the midpoint bound
    f(x) >= 2 f(0) - f(-x) from below.
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
    lo = cert.r
    hi = rho
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excluded(mid):
            hi = mid
        else:
            lo = mid
    rho = hi

    radius = rho + 1.0
    f_sphere = float(cert.upper(radius))
    bound = max(abs(f_sphere), abs(2.0 * f0_lo - f_sphere)) + ny * radius
    cap = 2.0 * (bound + 1.0)

    shifted = FunctionApproxOracle(
        lambda x, e: values.eval(x, e) - float(y @ x), values.n,
        label="shifted-objective")
    epi = EpigraphBody(CenteredBody(np.zeros(values.n), radius, radius), cap,
                       shifted)
    res = min_via_wopt(epi, InteriorMinCertificate(1.0), eps, cfg)
    return ConjugateEstimate(-res.value, res.point, radius, cap)


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
    f_zero: float

    def approx_oracle(self) -> FunctionApproxOracle:
        return FunctionApproxOracle(lambda x, e: float(self.fn(x)), self.n,
                                    label=self.name)


def _half_square(n: int) -> ReferenceFunction:
    return ReferenceFunction(
        "half_square_norm", n,
        fn=lambda x: 0.5 * float(x @ x),
        conjugate=lambda y: 0.5 * float(y @ y),
        cert=GrowthCertificate(0.5, 0.5, 2.0, 2.0, 1.0),
        f_zero=0.0)


def _square(n: int) -> ReferenceFunction:
    return ReferenceFunction(
        "square_norm", n,
        fn=lambda x: float(x @ x),
        conjugate=lambda y: 0.25 * float(y @ y),
        cert=GrowthCertificate(1.0, 1.0, 2.0, 2.0, 1.0),
        f_zero=0.0)


def _quartic(n: int) -> ReferenceFunction:
    if n != 1:
        raise ValueError("the quartic reference is one-dimensional")
    return ReferenceFunction(
        "quartic_quarter", 1,
        fn=lambda x: 0.25 * float(x[0]) ** 4,
        conjugate=lambda y: 0.75 * abs(float(y[0])) ** (4.0 / 3.0),
        cert=GrowthCertificate(0.25, 0.25, 4.0, 4.0, 0.5),
        f_zero=0.0)


def _exp_pair(n: int) -> ReferenceFunction:
    if n < 1:
        raise ValueError("dimension must be positive")
    return ReferenceFunction(
        "exp_pair", n,
        fn=lambda x: math.exp(float(x[0])) + math.exp(-float(x[0])),
        conjugate=None,
        cert=None,   # exponential growth has no power certificate
        f_zero=2.0)


def _clamped_product(n: int) -> ReferenceFunction:
    if n != 3:
        raise ValueError("the clamped product demo is three-dimensional")
    return ReferenceFunction(
        "clamped_negative_product", 3,
        fn=lambda x: max(-float(x[0] * x[1] * x[2]), -1.0),
        conjugate=None,  # nonconvex demo for the brute-force path
        cert=None,
        f_zero=0.0)


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
