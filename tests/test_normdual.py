import math

import numpy as np
import pytest

from adversaries import band_adversary, norm_value_adversary
from convexdual.core import Interval, NormDescriptor, WeakVerdict, rng_stream
from convexdual.normdual import (
    DualBallOracle,
    approx_from_wmem,
    ball_scaling_bounds,
    bisection_step_count,
    dual_norm_eval,
    rescale_norm,
    wmem_from_approx,
)
from convexdual.oracles import ReferenceNorm


def test_ball_scaling_bounds_frozen_numbers():
    desc = NormDescriptor(2, 0.5, 2.0)
    b = ball_scaling_bounds(desc, 0.1)
    assert b.thickened_inner == pytest.approx(1.05)
    assert b.thickened_outer == pytest.approx(1.2)
    assert b.shrunk_inner == pytest.approx(0.8)
    assert b.shrunk_outer == pytest.approx(0.95)
    with pytest.raises(ValueError):
        ball_scaling_bounds(desc, 0.5)  # k_hi * delta = 1 breaks the shrink side


def test_ball_scaling_bounds_wedge_thickened_sets():
    """Empirical wedge: norm values of scaled sphere points classify exactly
    as the scaling bounds predict."""
    norm = ReferenceNorm.weighted_l2([0.5, 2.0])
    desc = norm.descriptor
    delta = 0.05
    b = ball_scaling_bounds(desc, delta)
    rng = rng_stream(31, 0)
    for _ in range(100):
        u = rng.normal(size=2)
        u /= norm.eval(u)  # boundary point of the unit ball
        # inside the thickened-inner scaling, distance to the ball is < delta
        x = u * b.thickened_inner * 0.999
        gap = norm.eval(x) - 1.0
        assert gap <= desc.k_hi * delta  # still within the thickening wedge
        # outside the shrunk-outer scaling the point cannot be delta-deep
        x = u * b.shrunk_outer * 1.001
        assert norm.eval(x) >= 1.0 - desc.k_hi * delta


def test_rescale_norm_round_trip_verdicts():
    norm = ReferenceNorm.lp(2.0, 2)
    scaled, desc_r = rescale_norm(norm.oracle(), norm.descriptor, 2.0)
    assert desc_r.k_lo == pytest.approx(2.0, rel=1e-9)
    # ball of 2*nu is the half ball
    assert scaled.query([0.49, 0.0], 0.01) is WeakVerdict.IN_THICKENED
    assert scaled.query([0.51, 0.0], 1e-4) is WeakVerdict.NOT_IN_SHRUNK
    with pytest.raises(ValueError):
        rescale_norm(norm.oracle(), norm.descriptor, 0.0)


DUAL_PAIRS = [
    ("lp-1", ReferenceNorm.lp(1.0, 2)),
    ("lp-3", ReferenceNorm.lp(3.0, 2)),
    ("lp-inf", ReferenceNorm.lp(math.inf, 3)),
    ("weighted", ReferenceNorm.weighted_l2([0.5, 2.0])),
    ("box", ReferenceNorm.box(2)),
    ("cross", ReferenceNorm.cross(3)),
]


@pytest.mark.parametrize("name,norm", DUAL_PAIRS, ids=[n for n, _ in DUAL_PAIRS])
def test_dual_ball_verdicts_match_closed_form(name, norm):
    """Scalar dual-ball verdicts agree with the closed-form dual norm outside
    the 2*delta ambiguity band."""
    delta = 0.02
    dual_norm = norm.dual()
    oracle = DualBallOracle(norm.oracle(), norm.descriptor)
    rng = rng_stream(32, 0)
    tested = 0
    for _ in range(60):
        x = rng.normal(size=norm.n)
        x *= rng.uniform(0.3, 1.8) / np.linalg.norm(x)
        value = dual_norm.eval(x)
        if abs(value - 1.0) < 2.0 * delta:
            continue
        want = (WeakVerdict.IN_THICKENED if value < 1.0
                else WeakVerdict.NOT_IN_SHRUNK)
        assert oracle.query(x, delta) is want
        tested += 1
    assert tested >= 40


def test_dual_ball_batch_matches_closed_form():
    delta = 0.02
    norm = ReferenceNorm.lp(1.0, 3)
    dual_norm = norm.dual()
    oracle = DualBallOracle(norm.oracle(), norm.descriptor)
    rng = rng_stream(33, 0)
    pts = rng.normal(size=(400, 3))
    pts *= (rng.uniform(0.3, 1.8, size=400) / np.linalg.norm(pts, axis=1))[:, None]
    vals = dual_norm.eval_batch(pts)
    outside_band = np.abs(vals - 1.0) >= 2.0 * delta
    got = oracle.query_batch(pts, delta)
    want = vals < 1.0
    np.testing.assert_array_equal(got[outside_band], want[outside_band])


def test_dual_ball_counts_queries():
    norm = ReferenceNorm.lp(1.0, 2)
    primal = norm.oracle()
    oracle = DualBallOracle(primal, norm.descriptor)
    # interior point: the initial ellipsoid bound certifies the upper branch
    # before any primal query
    assert oracle.query([0.5, 0.4], 0.02) is WeakVerdict.IN_THICKENED
    assert oracle.calls.count == 1
    assert primal.calls.count == 0
    # |x| = 1.70 >= k_hi = sqrt(2): the sandwich screen refutes it for free
    assert oracle.query([1.2, 1.2], 0.02) is WeakVerdict.NOT_IN_SHRUNK
    assert oracle.calls.count == 2
    assert primal.calls.count == 0
    # |x| = 1.14 lies between the sandwich radii and nu*(x) = 1.1: the
    # validity run must consult the primal
    assert oracle.query([1.1, 0.3], 0.02) is WeakVerdict.NOT_IN_SHRUNK
    assert oracle.calls.count == 3
    assert primal.calls.count > 0


def test_wmem_from_approx_call_budget():
    """Sandwich shortcuts answer for free; the annulus costs exactly one
    evaluation."""
    norm = ReferenceNorm.weighted_l2([0.5, 2.0])  # 1/k_hi = 0.5, 1/k_lo = 2
    desc = norm.descriptor
    approx = norm.approx_oracle()
    assert wmem_from_approx(approx, desc, [0.2, 0.1], 0.05) is WeakVerdict.IN_THICKENED
    assert approx.calls.count == 0
    assert wmem_from_approx(approx, desc, [2.0, 0.5], 0.05) is WeakVerdict.NOT_IN_SHRUNK
    assert approx.calls.count == 0
    v = wmem_from_approx(approx, desc, [1.0, 0.2], 0.05)
    assert approx.calls.count == 1
    # nu(1, 0.2) = sqrt(0.25 + 0.16) = 0.64..., well inside the ball
    assert v is WeakVerdict.IN_THICKENED
    v = wmem_from_approx(approx, desc, [1.8, 0.4], 0.05)
    assert approx.calls.count == 2
    # nu(1.8, 0.4) = sqrt(0.81 + 0.64) = 1.204..., clearly outside
    assert v is WeakVerdict.NOT_IN_SHRUNK


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_wmem_from_approx_rejects_non_finite_values(monkeypatch, bad):
    """A non-finite norm value is no evidence for either verdict: on l1/R2,
    x = (0.9, 0) lies between the sandwich radii 1/sqrt(2) and 1, so the
    one evaluation it costs must raise rather than answer."""
    norm = ReferenceNorm.lp(1.0, 2)
    monkeypatch.setattr(norm, "eval", lambda x: bad)
    approx = norm.approx_oracle()
    with pytest.raises(ValueError):
        wmem_from_approx(approx, norm.descriptor, [0.9, 0.0], 0.05)
    assert approx.calls.count == 1


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["overstated", "understated"])
def test_wmem_from_approx_tolerates_value_adversaries(side):
    """Verdicts stay legal when every norm value is off by 0.9 eps in one
    direction: IN only inside the (1 + k_lo delta)-ball, which the
    delta-thickening holds, OUT only outside the (1 - k_lo delta)-ball,
    which holds the delta-shrinking."""
    delta = 0.05
    for p, n in ((1.0, 2), (3.0, 3), (math.inf, 3)):
        norm = ReferenceNorm.lp(p, n)
        desc = norm.descriptor
        approx = norm_value_adversary(norm, side)
        rng = rng_stream(62, n)
        X = rng.normal(size=(200, n))
        band = desc.k_lo * delta
        X *= (rng.uniform(1.0 - 2.0 * band, 1.0 + 2.0 * band, size=200)
              / norm.eval_batch(X))[:, None]
        for x, nu in zip(X, norm.eval_batch(X)):
            if wmem_from_approx(approx, desc, x, delta) is WeakVerdict.IN_THICKENED:
                assert nu <= 1.0 + band
            else:
                assert nu >= 1.0 - band
        assert approx.calls.count > 0


def test_bisection_step_count_frozen():
    assert bisection_step_count(1.5, 0.01) == 17
    assert bisection_step_count(1.5, 1.0) == 1  # side condition 2d/b1 > 1
    with pytest.raises(ValueError):
        bisection_step_count(0.0, 0.01)


def test_bisection_count_is_sufficient():
    # the count's defining property: final width under 2*delta
    for b1 in (1.5, 3.0, 10.0):
        for delta in (0.2, 0.01, 1e-4):
            m = bisection_step_count(b1, delta)
            assert b1 * 0.75 ** (m - 1) < 2.0 * delta
            if m > 1:
                assert b1 * 0.75 ** (m - 2) >= 2.0 * delta


def test_approx_from_wmem_certificate():
    """Every interval of the trace contains the true value and widths contract
    by exactly 3/4."""
    norm = ReferenceNorm.lp(1.0, 2)
    oracle = norm.oracle()
    delta = 0.01
    rng = rng_stream(34, 0)
    for _ in range(10):
        x = rng.normal(size=2)
        x *= rng.uniform(0.6, 1.4) / np.linalg.norm(x)
        true = norm.eval(x)
        omega, trace = approx_from_wmem(oracle, norm.descriptor, x, delta)
        assert abs(omega - true) <= delta
        m = bisection_step_count(1.5 * norm.descriptor.k_hi, delta)
        assert len(trace.intervals) == m
        assert len(trace.queries) == m - 1
        widths = np.array([iv.width for iv in trace.intervals])
        np.testing.assert_allclose(widths[1:] / widths[:-1], 0.75, rtol=1e-12)
        for iv in trace.intervals:
            assert iv.contains(true)
        assert trace.value == omega


def test_approx_from_wmem_rejects_points_off_annulus():
    norm = ReferenceNorm.lp(2.0, 2)
    with pytest.raises(ValueError):
        approx_from_wmem(norm.oracle(), norm.descriptor, [0.1, 0.0], 0.01)
    with pytest.raises(ValueError):
        approx_from_wmem(norm.oracle(), norm.descriptor, [2.0, 0.0], 0.01)


DUAL_EVAL_CASES = [
    ("lp-2", ReferenceNorm.lp(2.0, 2), [0.7, -0.4]),
    ("lp-3", ReferenceNorm.lp(3.0, 2), [0.9, 0.2]),
    ("lp-1", ReferenceNorm.lp(1.0, 3), [0.5, -0.8, 0.1]),
    ("lp-inf", ReferenceNorm.lp(math.inf, 2), [1.4, 0.3]),
]


@pytest.mark.parametrize("name,norm,y", DUAL_EVAL_CASES,
                         ids=[n for n, _, _ in DUAL_EVAL_CASES])
def test_dual_norm_eval_against_closed_form(name, norm, y):
    delta = 0.02
    oracle = norm.oracle()
    res = dual_norm_eval(oracle, norm.descriptor, y, delta)
    exact = norm.dual().eval(y)
    assert abs(res.value - exact) <= delta * res.annulus_factor / 3.0
    assert res.annulus_factor == pytest.approx(float(np.linalg.norm(y)))
    assert res.interval.contains(exact)
    assert res.value == res.interval.mid
    # the l2 sandwich is tight up to rounding, so it answers alone
    assert (oracle.calls.count == 0) == (res.cuts == 0) == (name == "lp-2")


def test_dual_norm_eval_at_zero():
    norm = ReferenceNorm.lp(2.0, 2)
    oracle = norm.oracle()
    res = dual_norm_eval(oracle, norm.descriptor, [0.0, 0.0], 0.02)
    assert res.value == 0.0
    assert res.interval == Interval(0.0, 0.0)
    assert res.cuts == 0
    assert oracle.calls.count == 0


BAND_NORMS = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", BAND_NORMS,
                         ids=[f"l{p:g}-R{n}" for p, n in BAND_NORMS])
def test_dual_norm_eval_tolerates_band_adversaries(p, n, side):
    """Over a primal that answers adversarially inside the whole band, every
    interval still contains nu*(y), and the midpoint meets the documented
    bound delta |y| / 3 itself, not the 5 delta of the acceptance gate."""
    delta = 0.02
    norm = ReferenceNorm.lp(p, n)
    dual = norm.dual()
    rng = rng_stream(63, 10 * n + (9 if math.isinf(p) else int(p)))
    Y = rng.normal(size=(12, n))
    Y *= (rng.uniform(0.2, 5.0, size=12) / np.linalg.norm(Y, axis=1))[:, None]
    for y in Y:
        oracle = band_adversary(norm, side)
        res = dual_norm_eval(oracle, norm.descriptor, y, delta)
        exact = dual.eval(y)
        assert res.interval.contains(exact)
        assert abs(res.value - exact) <= delta * res.annulus_factor / 3.0
        assert res.cuts > 0 and oracle.calls.count > 0


@pytest.mark.parametrize("name,norm", DUAL_PAIRS[:4], ids=[n for n, _ in DUAL_PAIRS[:4]])
def test_support_route_agrees_with_paper_route(name, norm):
    """The paper's route, a bisection over dual-ball membership at delta/3 on
    the unit sphere, and the one support query agree within the sum of
    their bounds, delta |y| / 3 each."""
    delta = 0.02
    desc = norm.descriptor
    rng = rng_stream(64, norm.n)
    for _ in range(2):
        y = rng.normal(size=norm.n)
        y *= rng.uniform(0.5, 3.0) / np.linalg.norm(y)
        ny = float(np.linalg.norm(y))
        omega, _ = approx_from_wmem(DualBallOracle(norm.oracle(), desc), desc.dual(),
                                    y / ny, delta / 3.0)
        res = dual_norm_eval(norm.oracle(), desc, y, delta)
        assert abs(res.value - ny * omega) <= 2.0 * delta * ny / 3.0


def test_dual_norm_eval_is_deterministic():
    norm = ReferenceNorm.lp(3.0, 2)
    vals = []
    counts = []
    for _ in range(2):
        oracle = norm.oracle()
        res = dual_norm_eval(oracle, norm.descriptor, [0.9, 0.2], 0.02)
        vals.append(res.value)
        counts.append(oracle.calls.count)
    assert vals[0] == vals[1]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_dual_norm_where_the_norm_of_y_overflows(p):
    """nu*(1e200 y) = 1e200 nu*(y): the run is over the same unit direction,
    and only the scale |y|, finite though its plain norm overflows, moves."""
    norm = ReferenceNorm.lp(p, 2)
    y = np.array([1.0, 2.0])
    small = dual_norm_eval(norm.oracle(), norm.descriptor, y, 0.02)
    big = dual_norm_eval(norm.oracle(), norm.descriptor, 1e200 * y, 0.02)
    np.testing.assert_allclose([big.value, big.interval.lo, big.interval.hi],
                               [1e200 * small.value, 1e200 * small.interval.lo,
                                1e200 * small.interval.hi], rtol=1e-12)
