import dataclasses
import math
import threading

import numpy as np
import pytest

from convexdual.core import (
    CallCounter,
    CenteredBody,
    Interval,
    NormDescriptor,
    ToleranceConfig,
    as_vector,
    rng_stream,
    safe_norm,
)
from convexdual.cutting import _separator_scales


def test_as_vector_accepts_lists_and_checks_dim():
    v = as_vector([1, 2, 3])
    assert v.dtype == float and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, math.nan])


def test_norm_descriptor_validation():
    with pytest.raises(ValueError):
        NormDescriptor(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        NormDescriptor(2, 2.0, 1.0)
    with pytest.raises(ValueError):
        NormDescriptor(0, 1.0, 1.0)


def test_norm_descriptor_dual_swaps_and_inverts():
    d = NormDescriptor(3, 0.5, 2.0)
    dd = d.dual()
    assert dd.k_lo == pytest.approx(0.5)
    assert dd.k_hi == pytest.approx(2.0)
    # involution
    back = dd.dual()
    assert back.k_lo == pytest.approx(d.k_lo)
    assert back.k_hi == pytest.approx(d.k_hi)


def test_norm_descriptor_rescaled():
    d = NormDescriptor(2, 0.5, 2.0)
    r = d.rescaled(3.0)
    assert (r.k_lo, r.k_hi) == (1.5, 6.0)
    ball = r.ball()
    assert ball.inner_radius == pytest.approx(1.0 / 6.0)
    assert ball.outer_radius == pytest.approx(1.0 / 1.5)


def test_centered_body_validation_and_infinite_outer():
    with pytest.raises(ValueError):
        CenteredBody(np.zeros(2), 2.0, 1.0)
    with pytest.raises(ValueError):
        CenteredBody(np.zeros(2), 0.0, 1.0)
    cone_body = CenteredBody(np.ones(3), 0.5, math.inf)
    assert cone_body.n == 3


@pytest.mark.parametrize("inner", [math.inf, math.nan])
def test_centered_body_rejects_non_finite_inner_radius(inner):
    for outer in (math.inf, 2.0):
        with pytest.raises(ValueError, match="inner"):
            CenteredBody(np.zeros(2), inner, outer)


BAD_ELLIPSOIDS = {
    "centre-dimension": (np.zeros(3), np.eye(2)),
    "shape-rows": (np.zeros(2), np.eye(3)),
    "shape-rank": (np.zeros(2), np.ones(2)),
    "nan-shape": (np.zeros(2), np.array([[1.0, 0.0], [0.0, math.nan]])),
    "inf-shape": (np.zeros(2), np.array([[math.inf, 0.0], [0.0, 1.0]])),
    "inf-centre": (np.array([0.0, math.inf]), np.eye(2)),
    "asymmetric": (np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]])),
    "singular": (np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]])),
    "indefinite": (np.zeros(2), np.diag([1.0, -1.0])),
}


@pytest.mark.parametrize("case", sorted(BAD_ELLIPSOIDS))
def test_centered_body_rejects_malformed_ellipsoid(case):
    """A stated ellipsoid needs a centre of the body's dimension and a
    finite, symmetric positive-definite (n, n) shape."""
    with pytest.raises(ValueError):
        CenteredBody(np.zeros(2), 0.5, 1.0, BAD_ELLIPSOIDS[case])


def test_centered_body_keeps_a_valid_ellipsoid():
    body = CenteredBody(np.zeros(2), 0.5, 1.0, ([0.0, 0.1], [[2.0, 0.5], [0.5, 1.0]]))
    e, Q = body.ellipsoid
    assert e.dtype == Q.dtype == np.float64
    np.testing.assert_array_equal(e, [0.0, 0.1])
    np.testing.assert_array_equal(Q, [[2.0, 0.5], [0.5, 1.0]])
    assert CenteredBody(np.zeros(2), 0.5, 1.0).ellipsoid is None


def test_interval():
    iv = Interval(1.0, 2.0)
    assert iv.width == pytest.approx(1.0)
    assert iv.mid == pytest.approx(1.5)
    assert iv.contains(1.0) and iv.contains(2.0) and not iv.contains(2.1)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_call_counter_thread_safety():
    counter = CallCounter("shared")
    threads = [threading.Thread(target=lambda: [counter.add() for _ in range(1000)])
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.count == 8000
    counter.reset()
    assert counter.count == 0


def test_tolerance_config_derived_values():
    """The config holds only the Monte Carlo seed; the separator's gauge
    tolerance and step derive from the body."""
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["rng_seed"]
    body = CenteredBody(np.zeros(2), 0.5, 4.0)
    step, tol = _separator_scales(body)
    assert step == pytest.approx(max(1e-5, 0.5e-4))
    assert tol == pytest.approx(4e-8)


def test_rng_stream_reproducible_and_disjoint():
    a = rng_stream(11, 0).normal(size=5)
    b = rng_stream(11, 0).normal(size=5)
    c = rng_stream(11, 1).normal(size=5)
    d = rng_stream(12, 0).normal(size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)
    with pytest.raises(ValueError):
        rng_stream(-1, 0)


def test_rng_stream_keys_span_one_philox_word():
    """A seed or stream index past 2^64 - 1 does not fit a Philox key word,
    and raises ValueError; the largest one still keys a stream, the same
    as before."""
    top = 2 ** 64 - 1
    want = np.random.Generator(np.random.Philox(key=np.array([top, top], dtype=np.uint64)))
    np.testing.assert_array_equal(rng_stream(top, top).normal(size=3), want.normal(size=3))
    for seed, stream in [(top + 1, 0), (0, top + 1)]:
        with pytest.raises(ValueError):
            rng_stream(seed, stream)


def test_rng_stream_keys_are_integers():
    """A seed or stream index that is not an integer, a bool included,
    raises ValueError, where 1.5 used to key stream 1's numbers; numpy
    integers key the same stream as Python ones."""
    for seed, stream in [(1.5, 0), (True, 0), (0, 1.0), (0, False)]:
        with pytest.raises(ValueError, match="integers"):
            rng_stream(seed, stream)
    np.testing.assert_array_equal(rng_stream(np.int64(3), np.uint64(2)).normal(size=3),
                                  rng_stream(3, 2).normal(size=3))


def test_safe_norm_stays_finite_where_the_plain_norm_overflows():
    """Rows whose plain Euclidean norm overflows are rescaled by their
    largest magnitude; every other row keeps the plain norm, bit for bit."""
    X = np.array([[3.0, 4.0], [3e200, 4e200], [0.0, 0.0], [-1e300, 1e300]])
    got = safe_norm(X)
    assert got[0] == np.linalg.norm(X[0]) and got[2] == 0.0
    np.testing.assert_allclose(got[1:], [5e200, 0.0, math.sqrt(2.0) * 1e300], rtol=1e-15)
    assert float(safe_norm(X[1])) == got[1]
    assert safe_norm(X[0]) == np.linalg.norm(X[0])
    bad = safe_norm(np.array([[np.inf, 1e200], [np.nan, 1e200]]))
    assert bad[0] == math.inf and math.isnan(bad[1])
