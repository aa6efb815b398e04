"""The batched cutting-plane engine: batch/scalar parity, the cap policy,
empty batches, and band-adversarial primal oracles on the dual ball's
batched path."""

import itertools
import math

import numpy as np
import pytest

from adversaries import band_adversary
from convexdual.conedual import (
    descriptor_from_reference,
    dual_cone_wmem,
)
from convexdual import cutting, normdual
from convexdual.core import CenteredBody, WeakVerdict, rng_stream
from convexdual.cutting import (
    IterationCapError,
    WvalVerdict,
    approx_separator,
    gauge_batch,
    support_batch,
    wval_batch,
    wval_from_wmem,
)
from convexdual.fenchel import EpigraphBody, make_reference_function
from convexdual.mahler import linear_image
from convexdual.normdual import DualBallOracle, rescale_norm
from convexdual.oracles import ReferenceCone, ReferenceNorm, exact_to_weak

PARITY_CASES = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]


def _check_wval_batch_matches_scalar(norm, oracle):
    """One lockstep run gives the verdicts of one scalar run per row on
    objectives whose support is clear of the threshold, and both are right."""
    eps = 0.02
    n, body = norm.n, norm.ball()
    rng = rng_stream(41, n)
    U = rng.normal(size=(12, n))
    support = np.tile([0.75, 0.9, 1.1, 1.25], 3)  # clear of gamma = 1 by 5 * eps
    C = U * (support / norm.dual().eval_batch(U))[:, None]
    got = wval_batch(oracle, body, C, 1.0, eps)
    scalar = [wval_from_wmem(oracle, body, c, 1.0, eps) is WvalVerdict.UPPER_BOUND_HOLDS
              for c in C]
    np.testing.assert_array_equal(got, scalar)
    np.testing.assert_array_equal(got, support < 1.0)


@pytest.mark.parametrize("p,n", PARITY_CASES,
                         ids=[f"l{p:g}-r{n}" for p, n in PARITY_CASES])
def test_wval_batch_matches_scalar_verdicts(p, n):
    """One lockstep run gives the verdicts of one scalar run per row on
    objectives whose support is clear of the threshold."""
    norm = ReferenceNorm.lp(p, n)
    _check_wval_batch_matches_scalar(norm, norm.oracle())


WRAP_CASES = [(1.0, 3), (3.0, 2), (math.inf, 3)]


@pytest.mark.parametrize("side", [None, 0.9, -0.9], ids=["exact", "generous", "stingy"])
@pytest.mark.parametrize("p,n", WRAP_CASES, ids=["l1-r3", "l3-r2", "linf-r3"])
def test_cut_pool_wraps_soundly(monkeypatch, p, n, side):
    """A run's cut pool of two halfspaces wraps many times per run, and
    still every support interval contains the closed-form support value and
    the lockstep verdicts match one scalar run per row, over the exact
    oracle and over band adversaries."""
    monkeypatch.setattr(cutting, "_POOL_CAP", 2)
    separated = []
    separator = cutting.approx_separator

    def counting_separator(oracle, body, X, delta):
        separated.append(len(X))
        return separator(oracle, body, X, delta)

    monkeypatch.setattr(cutting, "approx_separator", counting_separator)
    norm = ReferenceNorm.lp(p, n)
    oracle = norm.oracle() if side is None else band_adversary(norm, side)
    C = rng_stream(43, n).normal(size=(12, n))
    lo, hi, _, _, _ = support_batch(oracle, norm.ball(), C, 0.05)
    assert sum(separated) > 10 * cutting._POOL_CAP
    h = norm.dual().eval_batch(C)
    assert np.all((lo <= h) & (h <= hi))
    _check_wval_batch_matches_scalar(norm, oracle)


def _shifted_disc():
    """The unit disc about (1, -2) under the loose sandwich radii 0.9 and 1.1,
    so that both sandwich rules have room to act."""
    center = np.array([1.0, -2.0])
    body = CenteredBody(center, 0.9, 1.1)
    return exact_to_weak(lambda X: np.linalg.norm(X - center, axis=1) <= 1.0, body)


def _epigraph():
    values = make_reference_function("half_square_norm", 2).approx_oracle()
    return EpigraphBody(CenteredBody(np.zeros(2), 1.0, 1.0), 4.0, values).oracle()


SANDWICH_CASES = {
    "l1-r3": lambda: ReferenceNorm.lp(1.0, 3).oracle(),
    "l3-r2": lambda: ReferenceNorm.lp(3.0, 2).oracle(),
    "linf-r3": lambda: ReferenceNorm.lp(math.inf, 3).oracle(),
    "shifted-disc": _shifted_disc,
    "epigraph": _epigraph,
}


@pytest.mark.parametrize("case", sorted(SANDWICH_CASES))
def test_sandwich_centers_are_never_asked(monkeypatch, case):
    """No cut center sent to query_batch or to approx_separator lies in the
    open inner ball or outside the outer ball: the centering data decides
    those at no call. Every row's first cut center is the centre of the
    body's stated ellipsoid, the body center where it states none, and
    every row's first incumbent is the body center, at no call."""
    oracle = SANDWICH_CASES[case]()
    body = oracle.body
    sent, cut_centers, busy = [], [], []
    query, cut, separator = oracle.query_batch, cutting._cut, cutting.approx_separator

    def recording_query(X, delta):
        if not busy:  # the separator's own gauge probes are not centers
            sent.append(np.array(X))
        return query(X, delta)

    def recording_separator(oracle, body, X, delta):
        sent.append(np.array(X))
        busy.append(1)
        try:
            return separator(oracle, body, X, delta)
        finally:
            busy.pop()

    def recording_cut(Z, P, G, A):
        cut_centers.append(np.array(Z))
        return cut(Z, P, G, A)

    monkeypatch.setattr(oracle, "query_batch", recording_query)
    monkeypatch.setattr(cutting, "approx_separator", recording_separator)
    monkeypatch.setattr(cutting, "_cut", recording_cut)
    C = rng_stream(44, body.n).normal(size=(6, body.n))
    start = body.center if body.ellipsoid is None else body.ellipsoid[0]
    support_batch(oracle, body, C, 0.05)
    # rows only leave a run, so its first cut holds every row it ever cuts
    assert cut_centers[0].shape == C.shape
    assert np.all(cut_centers[0] == start)
    cut_centers.clear()
    wval_batch(oracle, body, C, float(np.max(C @ body.center)) + 0.5, 0.02)
    assert np.all(cut_centers[0] == start)
    X = np.vstack(sent)
    r = np.linalg.norm(X - body.center, axis=1)
    assert len(X) > 0
    assert np.all((r >= body.inner_radius) & (r <= body.outer_radius))

    # a stop that fires at once returns each row's first incumbent
    sent.clear()
    value, witness, _, iterations = cutting._cut_loop(oracle, body, C, 0.05, 0.05 / 8.0,
                                                       stop_above=-math.inf)
    assert not sent
    np.testing.assert_array_equal(witness, np.tile(body.center, (len(C), 1)))
    np.testing.assert_array_equal(value, C @ body.center)
    np.testing.assert_array_equal(iterations, 0)


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", WRAP_CASES, ids=["l1-r3", "l3-r2", "linf-r3"])
def test_sandwich_rules_tolerate_band_adversaries(p, n, side):
    """The l1 ball touches its inner ball at its facet centers and the
    l-infinity ball its outer ball at its vertices, so there the adversary's
    band verdicts and the sandwich's can disagree; both are legal. Every
    support interval still contains the closed-form support value, and the
    lockstep verdicts match one scalar run per row."""
    norm = ReferenceNorm.lp(p, n)
    oracle = band_adversary(norm, side)
    C = rng_stream(45, n).normal(size=(12, n))
    lo, hi, _, _, _ = support_batch(oracle, norm.ball(), C, 0.05)
    h = norm.dual().eval_batch(C)
    assert np.all((lo <= h) & (h <= hi))
    _check_wval_batch_matches_scalar(norm, oracle)


def test_far_rule_keeps_the_vertices_of_a_tight_cube(monkeypatch):
    """The l-infinity ball in R^3 touches its outer ball at its vertices, to
    the outward rounding of the stored radius, so a far cut that reached
    inside the outer ball would shave them off. Objectives toward the
    vertices, whose runs cut centers outside the outer ball, still get
    intervals that contain h_K(c), the l1 norm of c."""
    norm = ReferenceNorm.lp(math.inf, 3)
    body = norm.ball()
    assert body.outer_radius == pytest.approx(math.sqrt(3.0), rel=1e-11)
    radii, cut = [], cutting._cut

    def recording_cut(Z, P, G, A):
        radii.extend(np.linalg.norm(Z, axis=1))
        return cut(Z, P, G, A)

    monkeypatch.setattr(cutting, "_cut", recording_cut)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    tilt = 0.01 * rng_stream(46, 3).normal(size=(8, 3))
    C = np.vstack([signs, signs + tilt])
    lo, hi, _, _, _ = support_batch(norm.oracle(), body, C, 0.01)
    assert max(radii) > body.outer_radius
    h = np.abs(C).sum(axis=1)
    assert np.all((lo <= h) & (h <= hi))


def test_iteration_cap_raises_on_scalar_and_batched_paths(monkeypatch):
    """An undecided row raises with its incumbent; no verdict is guessed."""
    monkeypatch.setattr(cutting, "_MAX_CUTS", 3)
    norm = ReferenceNorm.lp(1.0, 2)
    with pytest.raises(IterationCapError) as err:  # the support of (1, 1) is exactly 1
        wval_from_wmem(norm.oracle(), norm.ball(), [1.0, 1.0], 1.0, 0.01)
    assert err.value.witness is not None
    # |y| sits between the sandwich radii, so the screen leaves it to the engine
    oracle = DualBallOracle(norm.oracle(), norm.descriptor)
    with pytest.raises(IterationCapError) as err:
        oracle.query_batch([[1.0, 0.5]], 0.01)
    assert err.value.witness is not None


def _band_edge_rows(norm, count, delta):
    """The rows, of count random directions scaled to dual-norm values on
    the edges of the 2*delta band, where the slack accounting has no room
    to spare, that the sandwich screen leaves to the engine, and their
    closed-form verdicts."""
    desc = norm.descriptor
    U = rng_stream(42, 0).normal(size=(count, norm.n))
    vals = np.where(np.arange(count) % 2 == 0, 1.0 - 2.02 * delta, 1.0 + 2.02 * delta)
    pts = U * (vals / norm.dual().eval_batch(U))[:, None]
    nrm = np.linalg.norm(pts, axis=1)
    engine = np.flatnonzero((nrm > desc.k_lo) & (nrm < desc.k_hi))
    return pts[engine], vals[engine] < 1.0


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
def test_dual_ball_tolerates_band_adversaries(side):
    """Scalar and batched dual-ball verdicts over an adversarial primal agree
    with the closed-form dual norm outside the 2*delta band, on a kinked norm
    whose points the sandwich screen does not settle."""
    delta = 0.02
    norm = ReferenceNorm.lp(1.0, 2)
    oracle = DualBallOracle(band_adversary(norm, side), norm.descriptor)
    pts, want = _band_edge_rows(norm, 200, delta)
    pts, want = pts[:24], want[:24]
    assert want.size == 24
    np.testing.assert_array_equal(oracle.query_batch(pts, delta), want)
    for x, inside in zip(pts[:8], want[:8]):
        verdict = oracle.query(x, delta)
        assert (verdict is WeakVerdict.IN_THICKENED) == inside


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
def test_wide_dual_ball_run_tolerates_band_adversaries(monkeypatch, side):
    """Hundreds of rows of one lockstep validity run, every one on the edge
    of the 2*delta band of the l-infinity dual norm, all get the closed-form
    verdict over an adversarial primal, with every row's free cuts drawn
    from one pool of all rows' separator halfspaces, which wraps. The run is
    driven directly: through query_batch the net certificate would settle
    every one of these rows."""
    delta = 0.02
    norm = ReferenceNorm.lp(1.0, 2)
    oracle = DualBallOracle(band_adversary(norm, side), norm.descriptor)
    pts, want = _band_edge_rows(norm, 2000, delta)
    assert want.size >= 200
    runs, separated = [], []
    batch, separator = cutting.wval_batch, cutting.approx_separator

    def counting_batch(oracle, body, C, gamma, eps):
        runs.append(len(C))
        return batch(oracle, body, C, gamma, eps)

    def counting_separator(oracle, body, X, delta):
        separated.append(len(X))
        return separator(oracle, body, X, delta)

    monkeypatch.setattr(normdual, "wval_batch", counting_batch)
    monkeypatch.setattr(cutting, "approx_separator", counting_separator)
    np.testing.assert_array_equal(oracle._lockstep(pts, delta), want)
    assert runs == [want.size]
    assert sum(separated) > cutting._POOL_CAP


def test_empty_batches_cost_nothing():
    """A (0, n) stack gets an empty result and charges no call, on every
    engine entry and every kind of oracle, the dual cone's slice oracle
    (the section transfer) among them."""
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
    E, ball = np.empty((0, 2)), norm.ball()
    np.testing.assert_array_equal(wval_batch(primal, ball, E, 1.0, 0.01), empty)
    for anchors in (None, E):
        assert gauge_batch(primal, ball, E, 1e-6, anchors=anchors).shape == (0,)
    for oracle in (primal, epigraph):  # the gauge path and a body's own separator
        n = oracle.body.n
        U, depth, W = approx_separator(oracle, oracle.body, np.empty((0, n)), 0.01)
        assert U.shape == W.shape == (0, n) and depth.shape == (0,)
    lo, hi, witness, cuts, _ = support_batch(primal, ball, E, 0.01)
    assert lo.shape == hi.shape == cuts.shape == (0,) and witness.shape == (0, 2)
    assert values.calls.count == 0
    assert all(oracle.calls.count == 0 for oracle in oracles)
