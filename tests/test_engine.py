"""The batched cutting-plane engine: batch/scalar parity, the cap policy,
empty batches, and band-adversarial primal oracles on the dual ball's
batched path."""

import itertools
import math

import numpy as np
import pytest

from adversaries import band_adversary, cone_band_adversary
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

    def counting_separator(oracle, body, X, delta, *rest):
        separated.append(len(X))
        return separator(oracle, body, X, delta, *rest)

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
    every row's first incumbent is the body center, at no call. The
    validity run is the engine's (_cut_loop) at wval_batch's slack, centre
    slack and exits: its rows run in lockstep on the ellipsoid, where
    wval_batch runs them in turn on hull centres in R^2 and R^3."""
    oracle = SANDWICH_CASES[case]()
    body = oracle.body
    sent, cut_centers, busy = [], [], []
    query, cut, separator = oracle.query_batch, cutting._cut, cutting.approx_separator

    def recording_query(X, delta):
        if not busy:  # the separator's own gauge probes are not centers
            sent.append(np.array(X))
        return query(X, delta)

    def recording_separator(oracle, body, X, delta, *rest):
        sent.append(np.array(X))
        busy.append(1)
        try:
            return separator(oracle, body, X, delta, *rest)
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
    gamma, eps = float(np.max(C @ body.center)) + 0.5, 0.02
    cutting._cut_loop(oracle, body, C, eps / 2.0, cutting.validity_centre_slack(body, eps),
                      stop_above=gamma - eps / 2.0, stop_ub_below=gamma + eps / 2.0)
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


HULL_BODIES = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]


@pytest.mark.parametrize("side", [None, 0.9, -0.9], ids=["exact", "generous", "stingy"])
@pytest.mark.parametrize("err", [1e-2, 1e-3], ids=["err1e-2", "err1e-3"])
@pytest.mark.parametrize("p,n", HULL_BODIES,
                         ids=[f"l{p:g}-r{n}" for p, n in HULL_BODIES])
def test_hull_and_ellipsoid_runs_hold_the_support(monkeypatch, p, n, err, side):
    """The same row on both sides of the engine's selection: alone, a run of
    one objective in R^2 or R^3 takes hull centres, and in a batch of two
    equal rows it takes the ellipsoid. Every interval contains h_B(c), the
    dual norm of c, and is no wider than err, over the exact oracle and
    over band adversaries."""
    norm = ReferenceNorm.lp(p, n)
    oracle = norm.oracle() if side is None else band_adversary(norm, side)
    cuts, cut = [], cutting._cut

    def counting_cut(Z, P, G, A):
        cuts.append(len(Z))
        return cut(Z, P, G, A)

    monkeypatch.setattr(cutting, "_cut", counting_cut)
    C = rng_stream(61, n).normal(size=(4, n))
    h = norm.dual().eval_batch(C)
    for c, hc in zip(C, h):
        for rows in (c[None], np.vstack([c, c])):
            del cuts[:]
            lo, hi, _, _, _ = support_batch(oracle, norm.ball(), rows, err)
            assert np.all((lo <= hc) & (hc <= hi)), (rows, lo, hi, hc)
            assert np.all(hi - lo <= err * (1.0 + 1e-9))
            assert (len(cuts) > 0) == (len(rows) == 2)  # the ellipsoid runs the batch


def test_a_vertex_that_returns_sends_the_run_to_the_ellipsoid(monkeypatch):
    """A separator that only claims the central cut through the vertex, with
    the body center as its witness, leaves the vertex where it was: the
    hull run then goes over to the ellipsoid, from its start, and its
    interval still holds h_B(c)."""
    norm = ReferenceNorm.lp(3.0, 2)
    body = norm.ball()
    separator, cut = cutting.approx_separator, cutting._cut
    cuts = []

    def central_separator(oracle, body, X, delta, *rest):
        U, depth, _ = separator(oracle, body, X, delta)
        return U, np.minimum(depth, 0.0), np.tile(body.center, (len(X), 1))

    def recording_cut(Z, P, G, A):
        cuts.append(Z[0])
        return cut(Z, P, G, A)

    monkeypatch.setattr(cutting, "approx_separator", central_separator)
    monkeypatch.setattr(cutting, "_cut", recording_cut)
    c = np.array([1.0, 0.4])
    lo, hi, _, _, _ = support_batch(norm.oracle(), body, c[None], 1e-2)
    h = norm.dual().eval_batch(c[None])[0]
    # the ball states no ellipsoid, so the localizer starts at B(a, outer)
    np.testing.assert_array_equal(cuts[0], body.center)
    assert lo[0] <= h <= hi[0]
    assert hi[0] - lo[0] <= 1e-2 * (1.0 + 1e-9)


@pytest.mark.parametrize("p,n", HULL_BODIES, ids=[f"l{p:g}-r{n}" for p, n in HULL_BODIES])
def test_shared_hull_stays_convex(monkeypatch, p, n):
    """A dual ball's validity run, seeded with the pool that its net and a
    first polar batch filled, takes its rows in turn on one polar hull.
    After the run every point of that hull lies within _HULL_TOL of its
    scale inside every facet plane, so crowded insertions left no facet
    that a point sees, and the run's verdicts are the closed-form ones at
    nu*(c) = 1 -/+ 1.5 delta/k_lo. On the l3 balls the rows' cuts join the
    hull; on the polytopes the pool's facets decide every row without
    one."""
    norm = ReferenceNorm.lp(p, n)
    desc, delta = norm.descriptor, 1e-3
    oracle = DualBallOracle(norm.oracle(), desc)
    rng = rng_stream(62, n)
    oracle.query_batch(rng.uniform(-desc.k_hi, desc.k_hi, size=(2000, n)), delta)
    assert len(oracle._net) and len(oracle._pool.rows)
    hulls, seed = [], cutting._seed_hull

    def recording_seed(body, rows):
        hull = seed(body, rows)
        hulls.append((hull, len(hull.points)))
        return hull

    monkeypatch.setattr(cutting, "_seed_hull", recording_seed)
    U = rng.normal(size=(60, n))
    U /= norm.dual().eval_batch(U)[:, None]
    band = 1.5 * delta / desc.k_lo
    C = np.vstack([(1.0 - band) * U, (1.0 + band) * U])
    np.testing.assert_array_equal(oracle._lockstep(C, delta), norm.dual().eval_batch(C) <= 1.0)
    ((hull, seeded),) = hulls
    assert seeded > len(cutting._start_hull(n).points)  # the pool's halfspaces
    assert (len(hull.points) > seeded) == (p == 3.0)  # the rows' cuts
    beyond = hull.normals @ hull.points.T - hull.offsets[:, None]
    assert beyond.max() <= cutting._HULL_TOL * np.linalg.norm(hull.points, axis=1).max()


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
    """Hundreds of rows of one validity run, every one on the edge of the
    2*delta band of the l-infinity dual norm, all get the closed-form
    verdict over an adversarial primal: through the dual ball's run, whose
    rows take turns on one shared hull, and through the engine's lockstep
    run at the same slack, centre slack and exits, which keeps the
    ellipsoid and draws every row's free cuts from one pool of all rows'
    separator halfspaces, which wraps. The run is driven directly: through
    query_batch the net certificate would settle every one of these rows."""
    delta = 0.02
    norm = ReferenceNorm.lp(1.0, 2)
    oracle = DualBallOracle(band_adversary(norm, side), norm.descriptor)
    pts, want = _band_edge_rows(norm, 2000, delta)
    assert want.size >= 200
    runs, separated = [], []
    batch, separator = cutting.wval_batch, cutting.approx_separator

    def counting_batch(oracle, body, C, gamma, eps, **kw):
        runs.append(len(C))
        return batch(oracle, body, C, gamma, eps, **kw)

    def counting_separator(oracle, body, X, delta, *rest):
        separated.append(len(X))
        return separator(oracle, body, X, delta, *rest)

    monkeypatch.setattr(normdual, "wval_batch", counting_batch)
    monkeypatch.setattr(cutting, "approx_separator", counting_separator)
    np.testing.assert_array_equal(oracle._lockstep(pts, delta), want)
    assert runs == [want.size]
    separated.clear()
    eps, body = oracle._slack(delta), oracle._scaled_oracle.body
    value = cutting._cut_loop(oracle._scaled_oracle, body, pts / oracle.r, eps / 2.0,
                              cutting.validity_centre_slack(body, eps),
                              stop_above=1.0 - eps / 2.0, stop_ub_below=1.0 + eps / 2.0,
                              pool=cutting.CutPool(norm.n))[0]
    np.testing.assert_array_equal(value < 1.0 - eps / 2.0, want)  # wval_batch's rule
    assert sum(separated) > cutting._POOL_CAP


def _ball_case(p, n, side):
    """A band-adversarial lp ball, and the closed-form test of its points."""
    norm = ReferenceNorm.lp(p, n)
    oracle = band_adversary(norm, side)
    return norm, oracle, lambda W: norm.eval_batch(W) <= 1.0


def _slice_case(kind, n, side):
    """The slice oracle of a dual cone over a band-adversarial cone, and the
    closed-form test of its points: a frame point lies in the slice body
    where its lift a + B w lies in the cone."""
    cone = ReferenceCone(kind, n)
    dual = dual_cone_wmem(cone_band_adversary(cone, side), descriptor_from_reference(cone))
    lift = lambda W: cone.member_batch(dual.desc.a + W @ dual._basis.T)  # noqa: E731
    return cone, dual, lift


def _spy_early_witnesses(monkeypatch):
    """Record, per separator call, its oracle and the witnesses of the rows
    it settled (NaN depth)."""
    early = []
    separator = cutting.approx_separator

    def recording_separator(oracle, body, X, delta, *rest):
        U, depth, W = separator(oracle, body, X, delta, *rest)
        early.append((oracle, W[np.isnan(depth)]))
        return U, depth, W

    monkeypatch.setattr(cutting, "approx_separator", recording_separator)
    return early


def _check_witnesses_settle_at_their_exits(oracle, inside, n, gauge=None):
    """approx_separator, asked at 24 points outside the body (each still
    outside when pulled 2 % towards the center) with exit levels spread from
    half its centering bracket's low end to its high end, settles some
    points and not others: a
    settled point's witness lies in the body and reaches its exit, and an
    open point's stays below it."""
    body = oracle.body
    rng = rng_stream(49, n)
    X = []
    while len(X) < 24:
        x = rng.normal(size=n)
        x *= rng.uniform(body.inner_radius, 1.5 * body.outer_radius) / np.linalg.norm(x)
        if not inside(((x - body.center) / 1.02 + body.center)[None])[0]:
            X.append(x)
    X = np.array(X)
    D = X - body.center
    C = rng.normal(size=X.shape)
    C *= np.sign(np.einsum("bi,bi->b", C, D))[:, None]
    d = np.linalg.norm(D, axis=1)
    level = rng.uniform(0.5 * d / body.outer_radius, d / body.inner_radius)
    if gauge is not None:
        # the same points again, each at the level g + tol/2 of its closed-form
        # gauge g, which only an IN end at or below g reaches
        tol = cutting._separator_scales(body)[1]
        X, D, C = np.vstack([X, X]), np.vstack([D, D]), np.vstack([C, C])
        level = np.concatenate([level, gauge(X[:24]) + tol / 2.0])
    exits = C @ body.center + np.einsum("bi,bi->b", C, D) / level
    U, depth, W = approx_separator(oracle, body, X, 0.01, C, exits)
    settled = np.isnan(depth)
    assert settled.any() and not settled.all()
    assert np.isnan(U[settled]).all() and np.isfinite(U[~settled]).all()
    assert inside(W[settled]).all()
    reach = np.einsum("bi,bi->b", C, W)
    assert np.all(reach[settled] >= exits[settled])
    assert np.all(reach[~settled] < exits[~settled])
    return settled[24:]


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)],
                         ids=[f"l{p:g}-r{n}" for p in (1.0, 3.0, math.inf) for n in (2, 3)])
def test_early_witnesses_are_legal_on_balls_under_band_adversaries(monkeypatch, p, n, side):
    """Every witness that settles a row lies in the ball, closed-form gauge
    at most 1, and every wval_batch verdict is legal, over a band adversary.
    The direct separator check adds points whose exit level is g + tol/2:
    they settle only once a generous IN end falls below g, where a witness
    read without the band slop tol/2 would leave the ball.
    Each of 8 rows is scaled to support h = 1 and gamma sweeps 1 +/- 3 eps:
    UPPER_BOUND_HOLDS needs the eps-shrunk ball's support, at least
    1 - eps/inner, to be at most gamma + eps, and LARGE_VALUE_EXISTS needs
    the eps-thickened ball's, 1 + eps |c|, to reach gamma - eps."""
    norm, oracle, inside = _ball_case(p, n, side)
    tight = _check_witnesses_settle_at_their_exits(oracle, inside, n, norm.eval_batch)
    # only a generous adversary's IN end can reach below the gauge
    assert tight.any() == (side > 0)
    early = _spy_early_witnesses(monkeypatch)
    body = oracle.body
    eps = 0.02
    C = rng_stream(47, n).normal(size=(8, n))
    C /= norm.dual().eval_batch(C)[:, None]
    nc = np.linalg.norm(C, axis=1)
    for s in (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        gamma = 1.0 + s * eps
        upper = wval_batch(oracle, body, C, gamma, eps)
        assert np.all(1.0 - eps / body.inner_radius <= gamma + eps) or not upper.any()
        assert np.all(1.0 + eps * nc[~upper] >= gamma - eps)
    assert all(inside(W).all() for _, W in early)


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("kind,n", [("orthant", 4), ("soc", 4), ("psd", 3)],
                         ids=["orthant", "soc", "psd"])
def test_early_witnesses_are_legal_on_dual_cone_slices(monkeypatch, kind, n, side):
    """The dual cone's validity runs over its slice body, with the cone
    oracle a band adversary: every witness that settles a row lifts into
    the cone, and every dual-cone verdict, batched and one point at a time,
    is the only legal one at 40 points near the axis a, each at margin
    2.02 delta. On soc the first upper bound settles every row before any
    separator, so only the direct check sees its slice's witnesses."""
    cone, dual, inside = _slice_case(kind, n, side)
    _check_witnesses_settle_at_their_exits(dual._kb_oracle, inside, cone.n - 1)
    early = _spy_early_witnesses(monkeypatch)
    delta = 0.02
    a = dual.desc.a / np.linalg.norm(dual.desc.a)
    top = math.acos(cone.eps_a)
    rng = rng_stream(48, cone.n)
    pts = []
    while len(pts) < 40:
        g = rng.normal(size=cone.n)
        g -= (g @ a) * a
        theta = rng.uniform(top / 2.0, top)
        u = math.cos(theta) * a + math.sin(theta) * g / np.linalg.norm(g)
        margin = cone.boundary_margin(u)
        if abs(margin) >= 0.02:
            pts.append(u * 2.02 * delta / abs(margin))
    pts = np.array(pts)
    want = np.array([cone.boundary_margin(x) > 0 for x in pts])
    np.testing.assert_array_equal(dual.query_batch(pts, delta), want)
    for x, inside_cone in zip(pts, want):
        assert (dual.query(x, delta) is WeakVerdict.IN_THICKENED) == inside_cone
    assert all(inside(W).all() for o, W in early if o is dual._kb_oracle)
    assert (kind == "soc") == all(len(W) == 0 for _, W in early)


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
