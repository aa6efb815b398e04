import math

import numpy as np
import pytest

from adversaries import band_adversary
from convexdual.core import DEFAULT_CONFIG, CenteredBody, ToleranceConfig, rng_stream
from convexdual.cutting import (
    IterationCapError,
    WvalQuery,
    WvalVerdict,
    approx_separator,
    gauge_batch,
    gauge_from_wmem,
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
    assert gauge_from_wmem(oracle, body, [2.0, 0.0]) == pytest.approx(2.0, abs=1e-6)
    assert gauge_from_wmem(oracle, body, [0.0, 0.5]) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError):
        gauge_from_wmem(oracle, body, [0.0, 0.0])


def test_gauge_handles_shifted_center():
    center = np.array([1.0, -2.0])
    body = CenteredBody(center, 0.9, 1.1)  # loose sandwich forces bisection
    oracle = exact_to_weak(lambda X: np.linalg.norm(X - center, axis=1) <= 1.0, body)
    assert oracle.calls.count == 0
    assert gauge_from_wmem(oracle, body, center + [3.0, 0.0]) == pytest.approx(
        3.0, abs=1e-6)
    assert oracle.calls.count > 0


def test_gauge_skips_queries_when_sandwich_is_tight():
    center = np.zeros(2)
    body = CenteredBody(center, 1.0, 1.0)
    oracle = exact_to_weak(lambda X: np.linalg.norm(X, axis=1) <= 1.0, body)
    assert gauge_from_wmem(oracle, body, [3.0, 0.0]) == pytest.approx(3.0)
    assert oracle.calls.count == 0


def test_gauge_batch_equals_scalar_loop():
    norm, oracle, body = _ball_oracle(1.0, 3)
    pts = rng_stream(21, 0).normal(size=(20, 3))
    batch = gauge_batch(oracle, body, pts, 1e-7)
    single = np.array([gauge_from_wmem(oracle, body, p, tol=1e-7) for p in pts])
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
        with pytest.raises(ValueError):
            gauge_from_wmem(oracle, body, [0.5, 0.3, 0.1], tol=bad)
        with pytest.raises(ValueError):
            ToleranceConfig(gauge_tol=bad)
        with pytest.raises(ValueError):
            ToleranceConfig(fd_step=bad)
    assert oracle.calls.count == 0


def _separator_tolerances(body):
    step = DEFAULT_CONFIG.fd_step_for(body)
    return step, min(DEFAULT_CONFIG.gauge_tol_for(body), 1e-3 * step)


def test_separator_cost_is_coarse_plus_fine_rounds():
    """One separator costs 2n calls per round: a 2n-section of its point's
    gauge to L = step/inner, then a bisection of every probe from the
    window around it, both in closed form and far below the cold bracket."""
    _, oracle, body = _ball_oracle(3.0, 3)
    x = np.array([2.0, 1.0, -1.0])
    n, k = 3, 6
    step, tol = _separator_tolerances(body)
    L = step / body.inner_radius
    width = float(np.linalg.norm(x)) * (1.0 / body.inner_radius - 1.0 / body.outer_radius)
    coarse = math.ceil(math.log(width / L, k + 1))
    # window: the coarse bracket, L/2 band slop and |p - x|/inner = L per side
    fine = math.ceil(math.log2((width / (k + 1) ** coarse + 3.0 * L) / tol))
    approx_separator(oracle, body, x)
    assert (coarse, fine) == (5, 15)
    assert oracle.calls.count == k * (coarse + fine)
    # bisecting the same probes from their centering brackets takes 26 rounds
    oracle.calls.reset()
    probes = x + step * np.vstack([np.eye(n), -np.eye(n)])
    gauge_batch(oracle, body, probes, tol)
    assert oracle.calls.count == k * 26


BAND_BALLS = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", BAND_BALLS,
                         ids=[f"l{p:g}-r{n}" for p, n in BAND_BALLS])
def test_anchored_gauges_tolerate_band_adversaries(p, n, side):
    """Anchored probe gauges stay within tol of the true gauge, and the
    separators built on them keep wval_batch verdicts right, when every
    verdict inside the band goes against the caller."""
    norm = ReferenceNorm.lp(p, n)
    oracle = band_adversary(norm, side)
    body = oracle.body
    rng = rng_stream(25, n)
    X = rng.normal(size=(40, n))
    X *= (rng.uniform(0.3, 3.0, size=40) / np.linalg.norm(X, axis=1))[:, None]
    step, tol = _separator_tolerances(body)
    offsets = step * np.vstack([np.eye(n), -np.eye(n)])
    probes = (X[:, None, :] + offsets).reshape(-1, n)
    g = gauge_batch(oracle, body, probes, tol, anchors=X)
    assert float(np.max(np.abs(g - norm.eval_batch(probes)))) <= tol

    eps = 0.02
    C = rng.normal(size=(6, n))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    support = norm.dual().eval_batch(C)
    for shift, holds in ((3.0 * eps, True), (-3.0 * eps, False)):
        for c, h in zip(C, support):
            assert wval_batch(oracle, body, c[None, :], h + shift, eps)[0] == holds


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
