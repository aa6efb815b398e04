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

from .core import CenteredBody, Interval, as_vector, positive_finite, safe_norm
from .cutting import wopt_from_wmem
from .oracles import FunctionApproxOracle, WeakMembershipOracle


class CertificateError(RuntimeError):
    """A caller-supplied certificate contradicts what the run observed."""


def _threshold(holds, lo: float, hi: float, rounds: int) -> float:
    """A point where holds is true, for a predicate that stays true once it
    turns true: hi is doubled until holds(hi), and then [lo, hi] is
    bisected the given number of rounds, keeping holds(hi) true. Returns
    that hi, within (hi - lo) / 2^rounds of the turn when it lies in
    [lo, hi]."""
    while not holds(hi):
        hi *= 2.0
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GrowthCertificate:
    """Two-sided power growth of a convex function outside a ball.

    Asserts k_lo |x|^s <= f(x) <= k_hi |x|^t whenever |x| >= r, with
    1 < s <= t and a sandwich that is nonempty from r on:
    k_lo / k_hi <= r^(t - s), which at s = t reads k_lo <= k_hi. Only the
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
        if not 1.0 < self.s <= self.t:
            raise ValueError("need exponents 1 < s <= t")
        if not self.k_lo / self.k_hi <= self.r ** (self.t - self.s):
            raise ValueError("need a nonempty sandwich from r on: k_lo r^s <= k_hi r^t")

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
        # a finite cap can still square to inf: refuse it before squaring
        if float(axes.max()) > math.sqrt(np.finfo(float).max):
            raise ValueError(f"the stated ellipsoid's squared semi-axis "
                             f"{float(axes.max()):.3g}^2 overflows")
        ellipsoid = (np.append(self.ball.center, 0.25 * cap), np.diag(axes * axes))
        return CenteredBody(center, inner, outer, ellipsoid)

    def oracle(self, centre_value=None) -> EpigraphOracle:
        """Row-wise weak membership over one store of values of f, with the
        epigraph's own separator and witnesses for its IN verdicts.

        The store holds, for the oracle's life, one pair (w, e) per point x
        with |w - f(x)| <= e. centre_value, a pair (v, e) with
        |v - f(c)| <= e that the caller has already bought at the ball's
        centre c, seeds it. value(x, slack) returns the held pair where its
        e is at most slack, and otherwise asks f~(x) at slack and holds that
        pair in its place; every evaluation of the oracle goes through it.

        Verdicts at slack dq: rows off the ball or above the cap are refuted
        without an evaluation. Every other row z = (x, tau) first reads the
        pair held at x: its bounds decide tau where tau >= w + e, which puts
        z in the epigraph, as f(x) <= w + e <= tau, or where tau < w - e,
        which puts z below the graph. A row they leave open reads
        value(x, ev) at the separator's slack ev = dq h / (16 sqrt(n) R),
        h = 1e-5 R, not at dq, and is IN where tau >= w. So a point is asked
        again only at a slack tighter than the pair held there, whatever
        batch it comes in.

        The separator cuts a point z = (x, tau) answered outside at slack dq
        (cutting module header, value separators): off the ball along the
        ball's face, at depth |x - c| - R, and above the cap along
        tau <= cap, at depth tau - cap, both exact and without an
        evaluation. Below the graph it reads value(x, ev) = (w, e) and
        value(p, ev) at the n points p that step from x toward the ball's
        centre by h. Their quotients H give the tangent halfspace
        (H, -1) . y <= H . x - w + e, a cut at depth (w - e - tau) / |(H, -1)|.
        On the engine path the verdict has just held x at ev, unless a held
        pair's bounds decided it, so such a centre costs at most n + 1
        evaluations in all, and none at points already held. Each row also
        gets a witness in the epigraph at no further evaluation: below the
        graph (x, w + e), as f(x) <= w + e, and off the ball or above the
        cap the ball point nearest x at tau = cap, as f <= cap/2 on the ball
        (cutting module header, separator witnesses).

        The witness hook answers a row z = (x, tau) answered IN, at no
        evaluation, with (x, w + e) from the pair held at x, the least upper
        bound on f(x) the store holds, and (x, cap) where none is held, as
        cap bounds f on the ball. Every height, the separator's too, is
        clipped to [-cap/2, cap]. Under the holder's bound |f| <= cap/2 the
        lower end never binds, and the point lies in the epigraph; where
        values or that bound are false, the clip still keeps the witness in
        the cylinder B(c, R) x [-cap/2, cap] of the start ellipsoid, so one
        wrong value cannot carry the incumbent below it.
        """
        return EpigraphOracle(self, centre_value)


def _key(x) -> bytes:
    return (np.asarray(x, dtype=float) + 0.0).tobytes()  # -0.0 keys as 0.0


class EpigraphOracle(WeakMembershipOracle):
    """Weak membership oracle of a truncated epigraph over one store of
    values of f (EpigraphBody.oracle)."""

    def __init__(self, epi: EpigraphBody, centre_value=None):
        super().__init__(self._verdicts, epi.body(), label="epigraph",
                         separator=self._separator, witnesses=self._witnesses)
        self.epi = epi
        self._step = 1e-5 * epi.ball.outer_radius
        # each quotient errs by at most 2 ev / h, which costs at most dq / 4
        # of sigma over the ball's diameter 2R
        self._ev_per_dq = self._step / (16.0 * math.sqrt(epi.ball.n) * epi.ball.outer_radius)
        # x bytes -> (w, e) with |w - f(x)| <= e, seeded at the centre
        self._held = {} if centre_value is None else {_key(epi.ball.center): centre_value}

    def value(self, x, slack: float) -> tuple[float, float]:
        """A pair (w, e) with |w - f(x)| <= e <= slack, from the store where
        it holds one that tight, else f~(x) asked at slack and held."""
        pair = self._held.get(_key(x))
        if pair is None or pair[1] > slack:
            pair = self._held[_key(x)] = (self.epi.values.eval(x, slack), slack)
        return pair

    def _verdicts(self, Z, dq):
        ball, cap = self.epi.ball, self.epi.cap
        if dq >= 0.5 * cap:
            raise ValueError("query slack must stay below half the cap")
        X, tau = Z[:, :-1], Z[:, -1]
        inside = (np.linalg.norm(X - ball.center, axis=1) <= ball.outer_radius) & (tau <= cap)
        # decided bounds: tau >= w + e >= f(x) is in the epigraph, and
        # tau < w - e <= f(x) below the graph; at e <= ev < dq, tau >= w
        # means tau >= f(x) - dq, and (x, min(tau + dq, cap)) is an epigraph
        # point within dq, and tau < w <= f(x) + dq means (x, tau - dq) lies
        # below the graph, refuting the dq-shrunk set
        ev = dq * self._ev_per_dq
        for i in np.flatnonzero(inside):
            w, e = self._held.get(_key(X[i]), (0.0, math.inf))
            if e > ev and w - e <= tau[i] < w + e:
                w, e = self.value(X[i], ev)
            inside[i] = tau[i] >= w
        return inside

    def _witnesses(self, Z, dq):
        cap = self.epi.cap
        top = [sum(self._held.get(_key(x), (cap, 0.0))) for x in Z[:, :-1]]
        return np.column_stack([Z[:, :-1], np.clip(top, -0.5 * cap, cap)])

    def _separator(self, Z, dq):
        ball, cap = self.epi.ball, self.epi.cap
        X, tau = Z[:, :-1], Z[:, -1]
        rel = X - ball.center
        dist = np.linalg.norm(rel, axis=1)
        U = np.zeros_like(Z)
        outside = dist > ball.outer_radius
        U[outside, :-1] = rel[outside] / dist[outside, None]
        above = ~outside & (tau > cap)
        U[above, -1] = 1.0
        depth = np.where(outside, dist - ball.outer_radius, tau - cap)
        # witnesses: the ball point nearest x at the cap, f <= cap/2 there,
        # and below the graph (x, w + e), f(x) <= w + e
        scale = ball.outer_radius / np.maximum(dist, ball.outer_radius)
        W = np.column_stack([ball.center + rel * scale[:, None], np.full(len(Z), cap)])
        ev = dq * self._ev_per_dq
        hs = np.where(rel >= 0.0, -self._step, self._step)
        for i in np.flatnonzero(~outside & ~above):
            fx, e = self.value(X[i], ev)
            fp = np.array([self.value(p, ev)[0] for p in X[i] + np.diag(hs[i])])
            u = np.append((fp - fx) / hs[i], -1.0)  # (H, -1)
            nrm = float(np.linalg.norm(u))
            U[i] = u / nrm
            depth[i] = (fx - e - tau[i]) / nrm
            W[i, -1] = fx + e
        W[:, -1] = np.clip(W[:, -1], -0.5 * cap, cap)
        return U, depth, W


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
    values seen at interior points: the upper bounds w + e of the pairs
    value(p, eps / 4) at the ball's centre and half the radius out along
    each axis. The probes read the run's oracle, whose store holds the
    centre from the run's first cut centre (c, cap/4) at a slack below
    eps / 4, so the centre probe asks f nothing; oracle_calls counts the
    run's evaluations alone.
    """
    if not (0.0 < eps < min(0.5 * epi.cap, cert.margin)):
        raise ValueError("need 0 < eps < min(cap / 2, certificate margin)")
    down = np.append(np.zeros(epi.ball.n), -1.0)
    oracle = epi.oracle()
    before = epi.values.calls.count
    res = wopt_from_wmem(oracle, oracle.body, down, 0.5 * eps)
    calls = epi.values.calls.count - before
    value = -res.value

    # the center and the points half the radius out along each axis
    steps = 0.5 * epi.ball.outer_radius * np.eye(epi.ball.n)
    probes = epi.ball.center + np.vstack([np.zeros(epi.ball.n), steps, -steps])
    seen = min(sum(oracle.value(p, 0.25 * eps)) for p in probes)
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
    exponents s / (s - 1) and t / (t - 1). A bound that is not finite
    raises ValueError.
    """
    if not math.isfinite(f_lower_bound):
        raise ValueError(f"f_lower_bound must be finite, got {f_lower_bound}")
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
    else:  # a NaN g ends the search as g > 0 does
        r1 = _threshold(lambda z: not g(z) <= 0.0, z_min, max(z_min, 1.0), 200)
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

    Localization. Take f0_hi = f~(0) + e0 >= f(0), the threshold
    T = max(f0_hi, 0) and phi(r) = r (k_lo r^(s-1) - |y|). For
    |x| = r >= cert.r the certificate gives f(x) >= k_lo r^s, so
    y . x - f(x) <= -phi(r). phi is convex with phi(0) = 0, so where
    phi(r1) > T >= 0, every r > r1 has phi(r) >= (r/r1) phi(r1) > T:
    {r : phi(r) > T} is a ray, and bisection finds a point rho >= cert.r
    of it. Beyond rho, then, y . x - f(x) < -T <= -f(0) <= f*(y), as x = 0
    attains -f(0). So the supremum lies in the ball B(0, rho), with no
    margin added, and epi f is cut to it and to a cap with |f| <= cap / 2
    there: f is convex, so the certificate's bound on the sphere bounds it
    above, and f(x) >= 2 f(0) - f(-x) below. Over that body E, with
    tau = f(x) under the cap, h_E(c) = f*(y). The value f~(0), bought at
    slack e0 to size the ball and the cap, seeds the epigraph oracle's
    store with e0 (EpigraphBody.oracle), so the run asks f at x = 0 again
    only for a row (0, tau) within e0 of f~(0). A y whose ball or cap
    overflows a float raises ValueError.

    Slack. cutting.wopt_from_wmem at err = eps certifies an interval of
    width at most eps that contains h_E(c) (the support interval of the
    cutting module header, which proves it), and the estimate reports it
    with the run's cut count. The value returned is c . witness, which lies
    in that interval, so it is within eps of f*(y).
    """
    positive_finite(eps, "eps")
    y = as_vector(y, values.n)
    ny = float(safe_norm(y))
    e0 = min(0.25, 0.25 * eps)
    f0_raw = values.eval(np.zeros(values.n), e0)
    f0_hi = f0_raw + e0   # upper bound on f(0)
    f0_lo = f0_raw - e0   # lower bound on f(0)

    # a rho >= r with rho (k_lo rho^{s-1} - |y|) > max(f0_hi, 0): beyond it,
    # y . x - f(x) < -f0_hi <= f*(y), and every larger radius passes too
    threshold = max(f0_hi, 0.0)

    def excluded(rad):
        return rad * (cert.k_lo * rad ** (cert.s - 1.0) - ny) > threshold

    radius = _threshold(excluded, cert.r,
                        max(cert.r, 1.0, ((ny + 1.0) / cert.k_lo) ** (1.0 / (cert.s - 1.0))), 60)

    with np.errstate(over="ignore"):
        f_sphere = float(cert.upper(radius))
    cap = 2.0 * (max(abs(f_sphere), abs(2.0 * f0_lo - f_sphere)) + 1.0)
    if not math.isfinite(cap):  # so is radius wherever cap is finite
        raise ValueError(f"localization radius {radius:.3g} or cap {cap:.3g} overflows")
    epi = EpigraphBody(CenteredBody(np.zeros(values.n), radius, radius), cap, values)
    oracle = epi.oracle(centre_value=(f0_raw, e0))
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
