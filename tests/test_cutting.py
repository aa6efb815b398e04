import itertools
import math

import numpy as np
import pytest

from adversaries import band_adversary
from convexdual.core import CenteredBody, ToleranceConfig, rng_stream
from convexdual.cutting import (
    IterationCapError,
    WvalQuery,
    WvalVerdict,
    _fd_step,
    _gauge_tol,
    approx_separator,
    gauge_batch,
    wopt_from_wmem,
    wval_batch,
    wval_from_wmem,
)
from convexdual.oracles import ReferenceNorm, exact_to_weak


def _ball_oracle(p, n):
    norm = ReferenceNorm.lp(p, n)
    return norm, norm.oracle(), norm.ball()


def test_gauge_matches_norm_on_rays():
    norm, oracle, body = _ball_oracle(2.0, 2)
    g = gauge_batch(oracle, body, [[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]],
                    _gauge_tol(body))
    np.testing.assert_allclose(g[:2], [2.0, 0.5], atol=1e-6)
    assert g[2] == 0.0  # the center


def test_gauge_handles_shifted_center():
    center = np.array([1.0, -2.0])
    body = CenteredBody(center, 0.9, 1.1)  # loose sandwich forces bisection
    oracle = exact_to_weak(lambda X: np.linalg.norm(X - center, axis=1) <= 1.0, body)
    assert oracle.calls.count == 0
    g = gauge_batch(oracle, body, [center + [3.0, 0.0]], _gauge_tol(body))
    assert g[0] == pytest.approx(3.0, abs=1e-6)
    assert oracle.calls.count > 0


def test_gauge_skips_queries_when_sandwich_is_tight():
    center = np.zeros(2)
    body = CenteredBody(center, 1.0, 1.0)
    oracle = exact_to_weak(lambda X: np.linalg.norm(X, axis=1) <= 1.0, body)
    assert gauge_batch(oracle, body, [[3.0, 0.0]], 1e-8)[0] == pytest.approx(3.0)
    assert oracle.calls.count == 0


def test_gauge_batch_equals_scalar_loop():
    norm, oracle, body = _ball_oracle(1.0, 3)
    pts = rng_stream(21, 0).normal(size=(20, 3))
    batch = gauge_batch(oracle, body, pts, 1e-7)
    single = np.array([gauge_batch(oracle, body, p[None, :], 1e-7)[0] for p in pts])
    np.testing.assert_allclose(batch, single, atol=1e-7)
    # for a norm ball the gauge *is* the norm
    np.testing.assert_allclose(batch, norm.eval_batch(pts), atol=1e-5)


def test_gauge_rejects_unbounded_body_and_bad_tol():
    _, oracle, _ = _ball_oracle(2.0, 2)
    cone_body = CenteredBody(np.zeros(2), 1.0, math.inf)
    with pytest.raises(ValueError):
        gauge_batch(oracle, cone_body, [[1.0, 0.0]], 1e-6)
    with pytest.raises(ValueError):
        gauge_batch(oracle, oracle.body, [[1.0, 0.0]], 0.0)


def test_non_finite_tolerances_are_rejected():
    _, oracle, body = _ball_oracle(1.0, 3)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            gauge_batch(oracle, body, [[0.5, 0.3, 0.1]], bad)
    assert oracle.calls.count == 0


def test_gauge_batch_rejects_bad_points_and_anchors_before_querying():
    _, oracle, body = _ball_oracle(1.0, 3)
    X = np.array([[0.5, 0.3, 0.1], [1.5, -0.2, 0.4]])
    probes = np.repeat(X, 2, axis=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="points must be"):
            gauge_batch(oracle, body, np.vstack([X, [bad, 0.0, 0.0]]), 1e-6)
        with pytest.raises(ValueError, match="points must be"):
            gauge_batch(oracle, body, np.vstack([probes[:3], [0.5, bad, 0.1]]),
                        1e-6, anchors=X)
        with pytest.raises(ValueError, match="anchors must be"):
            gauge_batch(oracle, body, probes, 1e-6, anchors=[X[0], [bad, 0.0, 0.0]])
    for anchors in (np.empty((0, 3)), X[:, :2], X[0], X[None]):
        with pytest.raises(ValueError, match="anchors must be"):
            gauge_batch(oracle, body, probes, 1e-6, anchors=anchors)
    with pytest.raises(ValueError, match="anchors must be"):
        gauge_batch(oracle, body, probes[:3], 1e-6, anchors=X)  # 2 does not divide 3
    with pytest.raises(ValueError, match="points must be"):
        gauge_batch(oracle, body, probes[:, :2], 1e-6)
    assert oracle.calls.count == 0


def _separator_tolerances(body):
    step = _fd_step(body)
    return step, min(_gauge_tol(body), 1e-3 * step)


def _check_separator_cost(x, rounds, cold):
    """One separator costs n + 1 calls per round: an (n + 1)-section of its
    point's gauge to L = step/inner, then a bisection of the point and its n
    forward probes from the window around it, both in closed form and far
    below the cold bracket."""
    x = np.array(x)
    n = x.size
    k = n + 1
    _, oracle, body = _ball_oracle(3.0, n)
    step, tol = _separator_tolerances(body)
    L = step / body.inner_radius
    width = float(np.linalg.norm(x)) * (1.0 / body.inner_radius - 1.0 / body.outer_radius)
    coarse = math.ceil(math.log(width / L, k + 1))
    # widest window: the coarse bracket, L/2 band slop and |p - x|/inner = L
    # per side
    fine = math.ceil(math.log2((width / (k + 1) ** coarse + 3.0 * L) / tol))
    approx_separator(oracle, body, x)
    assert (coarse, fine) == rounds
    assert oracle.calls.count == k * (coarse + fine)
    # bisecting the same probes from their centering brackets
    oracle.calls.reset()
    probes = x + step * np.vstack([np.zeros(n), np.diag(np.sign(x))])
    gauge_batch(oracle, body, probes, tol)
    assert oracle.calls.count == k * cold


def test_separator_cost_is_coarse_plus_fine_rounds():
    # 4 * (6 + 15) = 84 calls, against 4 * 26 from the cold bracket
    _check_separator_cost([2.0, 1.0, -1.0], (6, 15), 26)


# n = 5 is the dimension of the dual-cone slice of psd(3)
@pytest.mark.parametrize("x,rounds,cold", [
    ([2.0, 1.0], (6, 15), 25),
    ([2.0, 1.0, -1.0, 0.5, 1.0], (5, 15), 26),
], ids=["r2", "r5"])
def test_separator_cost_in_other_dimensions(x, rounds, cold):
    _check_separator_cost(x, rounds, cold)


BAND_BALLS = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]


def _check_anchored_gauges(p, n, side, offsets):
    """Every anchored probe gauge lies within tol of the true gauge under a
    band adversary; returns the norm, oracle and random stream for more
    checks."""
    norm = ReferenceNorm.lp(p, n)
    oracle = band_adversary(norm, side)
    body = oracle.body
    rng = rng_stream(25, n)
    X = rng.normal(size=(40, n))
    X *= (rng.uniform(0.3, 3.0, size=40) / np.linalg.norm(X, axis=1))[:, None]
    step, tol = _separator_tolerances(body)
    probes = (X[:, None, :] + step * offsets).reshape(-1, n)
    g = gauge_batch(oracle, body, probes, tol, anchors=X)
    assert float(np.max(np.abs(g - norm.eval_batch(probes)))) <= tol
    return norm, oracle, rng


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", BAND_BALLS,
                         ids=[f"l{p:g}-r{n}" for p, n in BAND_BALLS])
def test_anchored_gauges_tolerate_band_adversaries(p, n, side):
    """Anchored probe gauges stay within tol of the true gauge, and the
    separators built on them keep wval_batch verdicts right, when every
    verdict inside the band goes against the caller."""
    offsets = np.vstack([np.eye(n), -np.eye(n)])
    norm, oracle, rng = _check_anchored_gauges(p, n, side, offsets)
    body = oracle.body

    eps = 0.02
    C = rng.normal(size=(6, n))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    support = norm.dual().eval_batch(C)
    for shift, holds in ((3.0 * eps, True), (-3.0 * eps, False)):
        for c, h in zip(C, support):
            assert wval_batch(oracle, body, c[None, :], h + shift, eps)[0] == holds


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", BAND_BALLS,
                         ids=[f"l{p:g}-r{n}" for p, n in BAND_BALLS])
def test_forward_probe_gauges_tolerate_band_adversaries(p, n, side):
    """The separator's own layout {x, x + step e_i}, whose first member sits
    at zero offset from its anchor, keeps every gauge within tol."""
    _check_anchored_gauges(p, n, side, np.vstack([np.zeros(n), np.eye(n)]))


def test_separator_is_not_flat_at_cube_corners():
    """Probes that step toward the center can all miss the leading face:
    at x = (-1.01, -1.01, -1.01) every gauge of x + h e_i equals g(x). Probes
    stepping away from the center always raise the gauge of one axis."""
    _, oracle, body = _ball_oracle(math.inf, 3)
    for signs in itertools.product((1.0, -1.0), repeat=3):
        x = 1.01 * np.array(signs)
        np.testing.assert_allclose(approx_separator(oracle, body, x),
                                   x / np.linalg.norm(x), atol=1e-6)


def test_separator_points_outward():
    _, oracle, body = _ball_oracle(2.0, 2)
    h = approx_separator(oracle, body, [2.0, 0.0])
    np.testing.assert_allclose(h, [1.0, 0.0], atol=1e-3)
    h = approx_separator(oracle, body, [1.5, 1.5])
    np.testing.assert_allclose(h, [math.sqrt(0.5)] * 2, atol=1e-3)


def test_separator_separates_sampled_body_points():
    norm, oracle, body = _ball_oracle(1.0, 3)
    rng = rng_stream(22, 0)
    x = np.array([0.9, 0.9, 0.2])  # outside the cross-polytope
    h = approx_separator(oracle, body, x)
    members = rng.normal(size=(500, 3))
    members /= norm.eval_batch(members)[:, None]  # boundary points
    slack = float(np.max(members @ h - x @ h))
    assert slack <= 5e-3


def _kink_body(name):
    """A polyhedral norm nu(x) = max_j |G_j . x| on R^3 and its generators G:
    the l1 ball from its sign patterns, the l-inf ball from the coordinates,
    or a rotated polytope."""
    if name == "l1":
        return ReferenceNorm.lp(1.0, 3), ReferenceNorm.cross(3).generators
    if name == "linf":
        return ReferenceNorm.lp(math.inf, 3), np.eye(3)
    Q, _ = np.linalg.qr(rng_stream(26, 0).normal(size=(3, 3)))
    G = np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]]]) @ Q.T
    return ReferenceNorm.polyhedral(G), G


def _vertices(G):
    """Vertices of {x : |G x|_inf <= 1} in R^3, from every triple of facets."""
    A = np.vstack([G, -G])
    V = []
    for rows in itertools.combinations(range(A.shape[0]), 3):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) > 1e-9:
            v = np.linalg.solve(M, np.ones(3))
            if np.max(np.abs(G @ v)) <= 1.0 + 1e-9:
                V.append(v)
    return np.array(V)


def _near_kink_points(G, h, count, rng):
    """Points of gauge 0.95 to 1.5 within h of a kink: a random point is moved
    onto the ridge where its two largest terms |G_j . x| tie, scaled, and
    pushed off the ridge by less than h in a random direction."""
    out = []
    while len(out) < count:
        x = rng.normal(size=G.shape[1])
        v = G @ x
        i, j = np.argsort(-np.abs(v))[:2]
        w = np.sign(v[i]) * G[i] - np.sign(v[j]) * G[j]
        z = x - (w @ x) / (w @ w) * w
        t = np.abs(G @ z)
        if abs(t[i] - t[j]) > 1e-9 * t[i] or t.max() > t[i] * (1.0 + 1e-9):
            continue  # projecting changed which terms lead
        d = rng.normal(size=G.shape[1])
        out.append(z * rng.uniform(0.95, 1.5) / t[i]
                   + rng.uniform(0.0, h) * d / np.linalg.norm(d))
    return np.array(out)


@pytest.mark.parametrize("side", [None, 0.9, -0.9], ids=["exact", "generous", "stingy"])
@pytest.mark.parametrize("body_name", ["l1", "linf", "rotated"])
def test_separator_slack_within_documented_sigma(body_name, side):
    """Near kinks, where the one-sided bias b = F - s is largest, every body
    point y has u . (y - x) <= sigma, the bound of the module header:
    sigma = ((1 - g(x))+ + (|b| + 2 sqrt(n) tol/h) D) / |H|, with
    D = |x| + outer and |H| >= |F| - 2 sqrt(n) tol/h. F_i is the exact
    quotient over the probe x + h_i e_i, h_i = +/- h away from the center."""
    norm, G = _kink_body(body_name)
    oracle = norm.oracle() if side is None else band_adversary(norm, side)
    body = oracle.body
    n = body.n
    h, tol = _separator_tolerances(body)
    X = _near_kink_points(G, h, 12, rng_stream(27, 0))
    U = approx_separator(oracle, body, X)
    V = _vertices(G)
    noise = 2.0 * math.sqrt(n) * tol / h
    for x, u in zip(X, U):
        gx = norm.eval(x)
        hs = np.where(x >= 0.0, h, -h)
        F = (norm.eval_batch(x + np.diag(hs)) - gx) / hs
        j = int(np.argmax(np.abs(G @ x)))
        s = np.sign(G[j] @ x) * G[j]  # a subgradient of the gauge at x
        b = F - s
        assert np.all(b * np.sign(hs) >= -1e-9)  # convexity: one-sided bias
        D = float(np.linalg.norm(x)) + body.outer_radius
        H_floor = float(np.linalg.norm(F)) - noise
        assert H_floor > 0.0
        sigma = (max(1.0 - gx, 0.0) + (float(np.linalg.norm(b)) + noise) * D) / H_floor
        assert float(np.max(V @ u)) - float(x @ u) <= sigma


DIRECTION_CASES = [
    (2.0, 2, lambda c: float(np.linalg.norm(c))),
    (2.0, 3, lambda c: float(np.linalg.norm(c))),
    (1.0, 2, lambda c: float(np.max(np.abs(c)))),
    (math.inf, 3, lambda c: float(np.sum(np.abs(c)))),
]


@pytest.mark.parametrize("p,n,support", DIRECTION_CASES,
                         ids=["l2-r2", "l2-r3", "l1-r2", "linf-r3"])
def test_wopt_support_function_accuracy(p, n, support):
    """Certified maximization lands within the documented 5*eps envelope."""
    eps = 0.02
    _, oracle, body = _ball_oracle(p, n)
    rng = rng_stream(23, 0)
    for _ in range(8):
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        res = wopt_from_wmem(oracle, body, c, eps)
        exact = support(c)
        assert abs(res.value - exact) <= 5.0 * eps
        # the witness sits in a thickening, so it can overshoot only by the
        # query slack
        assert res.value <= exact + eps
        assert res.stop_reason == "gap"
        assert res.gap <= eps / 2.0
        gaps = np.array(res.gap_history)
        assert np.all(np.diff(gaps) <= 1e-12)


def test_wopt_weighted_ball_frozen_supports():
    norm = ReferenceNorm.weighted_l2([0.5, 2.0])
    oracle, body = norm.oracle(), norm.ball()
    res = wopt_from_wmem(oracle, body, [1.0, 0.0], 0.02)
    assert res.value == pytest.approx(2.0, abs=0.05)
    res = wopt_from_wmem(oracle, body, [0.0, 1.0], 0.02)
    assert res.value == pytest.approx(0.5, abs=0.05)


def test_wopt_threshold_exits():
    _, oracle, body = _ball_oracle(2.0, 2)
    res = wopt_from_wmem(oracle, body, [1.0, 0.0], 0.01, stop_above=0.2)
    assert res.stop_reason == "threshold-large"
    assert res.value >= 0.2
    res = wopt_from_wmem(oracle, body, [1.0, 0.0], 0.01, stop_ub_below=2.0)
    assert res.stop_reason == "threshold-upper"
    assert res.iterations == 0  # the initial ball bound already certifies it


def test_wopt_input_validation():
    _, oracle, body = _ball_oracle(2.0, 2)
    with pytest.raises(ValueError):
        wopt_from_wmem(oracle, body, [0.0, 0.0], 0.01)
    with pytest.raises(ValueError):
        wopt_from_wmem(oracle, body, [1.0, 0.0], -0.1)
    cone_body = CenteredBody(np.zeros(2), 1.0, math.inf)
    with pytest.raises(ValueError):
        wopt_from_wmem(oracle, cone_body, [1.0, 0.0], 0.01)


def test_wopt_iteration_cap_carries_incumbent():
    _, oracle, body = _ball_oracle(2.0, 2)
    cfg = ToleranceConfig(max_cut_iterations=3)
    with pytest.raises(IterationCapError) as err:
        wopt_from_wmem(oracle, body, [1.0, 0.0], 1e-9, cfg)
    assert err.value.witness is not None
    assert err.value.value is not None
    assert err.value.gap > 0.0


def test_wval_verdicts_on_clear_cases():
    _, oracle, body = _ball_oracle(1.0, 2)
    # support of (1, 1) over the cross-polytope is 1
    q = WvalQuery(c=[1.0, 1.0], gamma=1.3, eps=0.1)
    assert wval_from_wmem(oracle, body, q) is WvalVerdict.UPPER_BOUND_HOLDS
    q = WvalQuery(c=[1.0, 1.0], gamma=0.7, eps=0.1)
    assert wval_from_wmem(oracle, body, q) is WvalVerdict.LARGE_VALUE_EXISTS


def test_wval_query_validation():
    with pytest.raises(ValueError):
        WvalQuery(c=[1.0], gamma=0.0, eps=0.0)
    with pytest.raises(ValueError):
        WvalQuery(c=[1.0], gamma=math.nan, eps=0.1)


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
def test_wopt_tolerates_band_adversaries(side):
    """Answers anywhere inside the ambiguity band keep the optimizer honest."""
    eps = 0.02
    oracle = band_adversary(ReferenceNorm.lp(2.0, 2), side)
    body = oracle.body
    rng = rng_stream(24, 0)
    for _ in range(5):
        c = rng.normal(size=2)
        c /= np.linalg.norm(c)
        res = wopt_from_wmem(oracle, body, c, eps)
        assert abs(res.value - 1.0) <= 5.0 * eps
