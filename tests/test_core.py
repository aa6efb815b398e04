import dataclasses
import math
import threading

import numpy as np
import pytest

from convexdual.core import (
    DEFAULT_CONFIG,
    CallCounter,
    CenteredBody,
    Interval,
    NormDescriptor,
    ToleranceConfig,
    as_vector,
    rng_stream,
)
from convexdual.cutting import _fd_step, _gauge_tol


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
    """The config holds only the cut cap and the seed; the separator's gauge
    tolerance and step derive from the body."""
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == [
        "max_cut_iterations", "rng_seed"]
    assert DEFAULT_CONFIG.max_cut_iterations == 4000
    body = CenteredBody(np.zeros(2), 0.5, 4.0)
    assert _gauge_tol(body) == pytest.approx(4e-8)
    assert _fd_step(body) == pytest.approx(max(1e-5, 0.5e-4))
    with pytest.raises(ValueError):
        ToleranceConfig(max_cut_iterations=0)


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
