"""The batched cutting-plane engine: batch/scalar parity, the cap policy,
empty batches, and band-adversarial primal oracles on the dual ball's
batched path."""

import math

import numpy as np
import pytest

from adversaries import band_adversary
from convexdual.conedual import (
    cone_wmem_to_section_wmem,
    descriptor_from_reference,
    dual_cone_wmem,
)
from convexdual.core import CenteredBody, ToleranceConfig, WeakVerdict, rng_stream
from convexdual.cutting import (
    IterationCapError,
    WvalQuery,
    WvalVerdict,
    wval_batch,
    wval_from_wmem,
)
from convexdual.fenchel import EpigraphBody, make_reference_function
from convexdual.mahler import linear_image
from convexdual.normdual import DualBallOracle, rescale_norm
from convexdual.oracles import ReferenceCone, ReferenceNorm

PARITY_CASES = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]


@pytest.mark.parametrize("p,n", PARITY_CASES,
                         ids=[f"l{p:g}-r{n}" for p, n in PARITY_CASES])
def test_wval_batch_matches_scalar_verdicts(p, n):
    """One lockstep run gives the verdicts of one scalar run per row on
    objectives whose support is clear of the threshold."""
    eps = 0.02
    norm = ReferenceNorm.lp(p, n)
    oracle, body = norm.oracle(), norm.ball()
    rng = rng_stream(41, n)
    U = rng.normal(size=(12, n))
    support = np.tile([0.75, 0.9, 1.1, 1.25], 3)  # clear of gamma = 1 by 5 * eps
    C = U * (support / norm.dual().eval_batch(U))[:, None]
    got = wval_batch(oracle, body, C, 1.0, eps)
    scalar = [wval_from_wmem(oracle, body, WvalQuery(c=c, gamma=1.0, eps=eps))
              is WvalVerdict.UPPER_BOUND_HOLDS for c in C]
    np.testing.assert_array_equal(got, scalar)
    np.testing.assert_array_equal(got, support < 1.0)


def test_iteration_cap_raises_on_scalar_and_batched_paths():
    """An undecided row raises with its incumbent; no verdict is guessed."""
    cfg = ToleranceConfig(max_cut_iterations=3)
    norm = ReferenceNorm.lp(1.0, 2)
    query = WvalQuery(c=[1.0, 1.0], gamma=1.0, eps=0.01)  # support is exactly 1
    with pytest.raises(IterationCapError) as err:
        wval_from_wmem(norm.oracle(), norm.ball(), query, cfg)
    assert err.value.witness is not None
    # |y| sits between the sandwich radii, so the screen leaves it to the engine
    oracle = DualBallOracle(norm.oracle(), norm.descriptor, cfg)
    with pytest.raises(IterationCapError) as err:
        oracle.query_batch([[1.0, 0.5]], 0.01)
    assert err.value.witness is not None


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
def test_dual_ball_tolerates_band_adversaries(side):
    """Scalar and batched dual-ball verdicts over an adversarial primal agree
    with the closed-form dual norm outside the 2*delta band, on a kinked norm
    whose points the sandwich screen does not settle."""
    delta = 0.02
    norm = ReferenceNorm.lp(1.0, 2)
    desc = norm.descriptor
    oracle = DualBallOracle(band_adversary(norm, side), desc)
    rng = rng_stream(42, 0)
    U = rng.normal(size=(200, 2))
    # dual-norm values on the edges of the 2*delta band, where the slack
    # accounting has no room to spare
    vals = np.where(np.arange(200) % 2 == 0, 1.0 - 2.02 * delta, 1.0 + 2.02 * delta)
    pts = U * (vals / norm.dual().eval_batch(U))[:, None]
    nrm = np.linalg.norm(pts, axis=1)
    engine = np.flatnonzero((nrm > desc.k_lo) & (nrm < desc.k_hi))[:24]
    assert engine.size == 24
    pts, want = pts[engine], vals[engine] < 1.0
    np.testing.assert_array_equal(oracle.query_batch(pts, delta), want)
    for x, inside in zip(pts[:8], want[:8]):
        verdict = oracle.query(x, delta)
        assert (verdict is WeakVerdict.IN_THICKENED) == inside


def test_empty_batches_cost_nothing():
    """A (0, n) stack gets an empty verdict array and charges no call, on
    the engine, the section transfer and every kind of oracle."""
    norm = ReferenceNorm.lp(3.0, 2)
    primal, desc = norm.oracle(), norm.descriptor
    cone = ReferenceCone("psd", 2)
    cone_oracle = cone.oracle()
    dual_cone = dual_cone_wmem(cone_oracle, descriptor_from_reference(cone))
    values = make_reference_function("half_square_norm", 2).approx_oracle()
    epigraph = EpigraphBody(CenteredBody(np.zeros(2), 1.0, 1.0), 4.0, values).oracle()
    oracles = [primal, rescale_norm(primal, desc, 2.0)[0],
               linear_image(primal, desc, np.diag([2.0, 1.0]))[0],
               DualBallOracle(primal, desc), cone_oracle, dual_cone,
               dual_cone._kb_oracle, epigraph]
    for oracle in oracles:
        got = oracle.query_batch(np.empty((0, oracle.body.n)), 0.01)
        assert got.shape == (0,) and got.dtype == bool
    empty = np.zeros(0, dtype=bool)
    np.testing.assert_array_equal(
        wval_batch(primal, norm.ball(), np.empty((0, 2)), 1.0, 0.01), empty)
    np.testing.assert_array_equal(
        cone_wmem_to_section_wmem(cone_oracle, descriptor_from_reference(cone),
                                  np.empty((0, cone.n)), 0.05), empty)
    assert values.calls.count == 0
    assert all(oracle.calls.count == 0 for oracle in oracles)
