import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from adversaries import band_adversary, lopsided_band_adversary
from convexdual import cutting, mahler, normdual
from convexdual.core import DEFAULT_CONFIG, CenteredBody, WeakVerdict, rng_stream
from convexdual.cutting import _Hull
from convexdual.mahler import _CHUNK, _sandwich_query, linear_image, mahler_volume, volume_mc
from convexdual.normdual import DualBallOracle, _net_directions, rescale_norm
from convexdual.oracles import ReferenceNorm, WeakMembershipOracle


def test_volume_is_deterministic_in_seed_and_samples():
    norm = ReferenceNorm.lp(2.0, 2)
    a = volume_mc(norm.oracle(), 1.5, 30_000, seed=7)
    b = volume_mc(norm.oracle(), 1.5, 30_000, seed=7)
    assert a == b
    c = volume_mc(norm.oracle(), 1.5, 30_000, seed=8)
    assert c.hits != a.hits


def test_volume_extension_replays_prefix():
    """Growing the sample count keeps the shared chunks identical, so the
    hit count can only increase."""
    norm = ReferenceNorm.lp(1.0, 2)
    small = volume_mc(norm.oracle(), 1.0, 40_000, seed=3)
    big = volume_mc(norm.oracle(), 1.0, 100_000, seed=3)
    assert big.hits >= small.hits


def test_volume_known_disc():
    norm = ReferenceNorm.lp(2.0, 2)
    est = volume_mc(norm.oracle(), 1.0, 200_000, seed=11)
    assert abs(est.value - math.pi) <= est.half_width
    assert est.half_width < 0.05
    lo, hi = est.interval()
    assert lo < math.pi < hi


def test_volume_ci_shrinks_with_samples():
    norm = ReferenceNorm.lp(2.0, 2)
    base = volume_mc(norm.oracle(), 1.0, 50_000, seed=5)
    finer = volume_mc(norm.oracle(), 1.0, 200_000, seed=5)
    # 4x the samples should halve the half-width, up to binomial noise
    assert finer.half_width == pytest.approx(0.5 * base.half_width, rel=0.2)


def test_volume_half_width_when_every_sample_falls_on_one_side():
    """With no miss or no hit the normal half-width reads 0, so volume_mc
    reports the exact one-sided bound 1 - 0.025^(1/N) of the cube, and the
    interval holds the true area; a mixed run keeps the normal width. The
    l1 ball has area 2: a box of radius 0.5 lies inside it, and one of
    radius 1.5 leaves it 2/9 of the box."""
    norm = ReferenceNorm.lp(1.0, 2)
    full = volume_mc(norm.oracle(), 0.5, 7, seed=1)
    assert full.hits == 7 and full.value == 1.0
    assert full.half_width == (1.0 - 0.025 ** (1.0 / 7)) * 1.0
    none = next(est for est in (volume_mc(norm.oracle(), 1.5, 3, seed=s) for s in range(40))
                if est.hits == 0)
    assert none.value == 0.0
    assert none.half_width == (1.0 - 0.025 ** (1.0 / 3)) * 9.0
    lo, hi = none.interval()
    assert lo <= 2.0 <= hi
    mixed = next(est for est in (volume_mc(norm.oracle(), 1.5, 3, seed=s) for s in range(40))
                 if 0 < est.hits < 3)
    p = mixed.hits / 3
    assert mixed.half_width == 1.96 * math.sqrt(p * (1.0 - p) / 3) * 9.0


def test_volume_validation():
    norm = ReferenceNorm.lp(2.0, 2)
    with pytest.raises(ValueError):
        volume_mc(norm.oracle(), 1.0, 0, seed=1)
    with pytest.raises(ValueError):
        volume_mc(norm.oracle(), 0.0, 100, seed=1)
    with pytest.raises(ValueError):
        volume_mc(ReferenceNorm.lp(2.0, 7).oracle(), 1.0, 100, seed=1)
    # a count that is not an integer is refused before any query
    oracle = norm.oracle()
    for samples in (1e5, True, 100.0):
        with pytest.raises(ValueError, match="integer"):
            volume_mc(oracle, 1.0, samples, seed=1)
    assert oracle.calls.count == 0


def _samples(box, samples, seed, n):
    """The samples volume_mc draws for (box, samples, seed), in its order."""
    takes = [min(_CHUNK, samples - done) for done in range(0, samples, _CHUNK)]
    return np.vstack([rng_stream(seed, k).uniform(-box, box, size=(take, n))
                      for k, take in enumerate(takes)])


def test_sandwich_samples_are_never_asked():
    """On an l1 ball moved off the origin, only samples strictly between the
    sandwich radii about its centre reach the oracle; the rest cost no call.
    Across two chunks, the hits are exactly a direct membership count over
    the same seeded samples, and the screen's verdicts on those samples are
    that membership row by row, at one call per shell row."""
    norm = ReferenceNorm.lp(1.0, 2)
    ball = norm.ball()
    a = np.array([0.3, -0.2])
    body = CenteredBody(a, ball.inner_radius, ball.outer_radius)
    seen = []

    def member(X, delta):
        seen.append(X.copy())
        return norm.eval_batch(X - a) <= 1.0

    oracle = WeakMembershipOracle(member, body)
    box, samples, seed = 1.5, _CHUNK + 4000, 21
    est = volume_mc(oracle, box, samples, seed)
    asked = np.vstack(seen)
    dist = np.linalg.norm(asked - a, axis=1)
    assert np.all((dist > body.inner_radius) & (dist <= body.outer_radius))
    assert oracle.calls.count == len(asked)
    pts = _samples(box, samples, seed, 2)
    shell = np.linalg.norm(pts - a, axis=1)
    shell = (shell > body.inner_radius) & (shell <= body.outer_radius)
    assert len(asked) == np.count_nonzero(shell) < 0.5 * samples
    hit = norm.eval_batch(pts - a) <= 1.0
    assert est.hits == np.count_nonzero(hit)
    before = oracle.calls.count
    np.testing.assert_array_equal(_sandwich_query(oracle, pts, box * 1e-6), hit)
    assert oracle.calls.count - before == np.count_nonzero(shell)


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("p,n", [(1.0, 2), (1.0, 3), (math.inf, 3)],
                         ids=["l1-R2", "l1-R3", "linf-R3"])
def test_sandwich_screen_is_legal_under_band_adversary(p, n, side):
    """Under an adversary that answers at the edge of its band, every sample
    the screen puts inside lies in the delta-thickened ball, and every
    sample of the delta-shrunk ball is put inside: each verdict is one a
    legal oracle can give. volume_mc's hits are the count of those inside
    verdicts. The box is tight, so the sandwich settles samples on both
    sides."""
    norm = ReferenceNorm.lp(p, n)
    k_hi = norm.descriptor.k_hi
    oracle = band_adversary(norm, side)
    box, samples, seed = 1.0 / norm.descriptor.k_lo, 30_000, 22
    delta = box * 1e-6
    est = volume_mc(oracle, box, samples, seed)
    assert 0 < oracle.calls.count < samples
    pts = _samples(box, samples, seed, n)
    dist = np.linalg.norm(pts, axis=1)
    ball = norm.ball()
    assert np.any(dist <= ball.inner_radius) and np.any(dist > ball.outer_radius)
    inside = _sandwich_query(oracle, pts, delta)
    assert est.hits == np.count_nonzero(inside)
    nu = norm.eval_batch(pts)
    assert np.all(nu[inside] <= 1.0 + k_hi * delta)
    assert np.all(inside[nu <= 1.0 - k_hi * delta])


def test_relative_half_width_of_empty_estimate():
    # a box far away from the body scores zero hits; the relative width
    # degrades gracefully instead of dividing by zero
    norm = ReferenceNorm.lp(2.0, 2)
    est = volume_mc(norm.oracle(), 1e-12, 256, seed=2)
    assert est.value >= 0.0
    if est.value == 0.0:
        assert est.relative_half_width == math.inf


MAHLER_TARGETS = [  # (n, p, target, scale r of the norm r nu)
    (2, 2.0, math.pi ** 2, 1.0),         # disc is self-polar
    (2, 1.0, 8.0, 1.0),                  # cross polytope x cube
    (3, 1.0, 32.0 / 3.0, 1.0),
    (3, 1.0, 32.0 / 3.0, 1000.0),        # the product ignores scale
]


@pytest.mark.parametrize("n,p,target,r", MAHLER_TARGETS,
                         ids=["l2-R2", "l1-R2", "l1-R3", "l1-R3-small"])
def test_mahler_product_covers_known_values(n, p, target, r):
    """The Mahler product covers its closed form, also for the ball of
    1000 |x|_1, whose net witnesses and hull are 1000 times smaller."""
    norm = ReferenceNorm.lp(p, n)
    oracle, desc = rescale_norm(norm.oracle(), norm.descriptor, r)
    est = mahler_volume(oracle, desc, 200_000)
    lo, hi = est.interval()
    assert lo <= target <= hi
    assert est.half_width / est.value < 0.03


def test_mahler_product_of_a_segment():
    """Every Mahler product in R^1 is 4. nu(x) = max(2|x|, 3|x|) has the
    ball [-1/3, 1/3] and the polar [-3, 3], and a sandwich that is not
    tight (k_lo = sqrt(13/2) < k_hi = 3), so samples reach the net, which
    in R^1 builds no hull and certifies by its nearest generator."""
    norm = ReferenceNorm.polyhedral([[2.0], [3.0]])
    assert norm.descriptor.k_lo < norm.descriptor.k_hi
    est = mahler_volume(norm.oracle(), norm.descriptor, 20_000)
    assert abs(est.value - 4.0) <= 3.0 * est.half_width
    assert est.half_width < 0.05


def test_seeds_are_checked_before_any_call():
    """A seed that keys no stream raises ValueError before the first call:
    volume_mc at seed 1.5, and mahler_volume on l1/R2 where the polar
    run's seed rng_seed + 1 passes the last Philox key word (its primal run
    used to make all its calls first), or where rng_seed is a bool."""
    norm = ReferenceNorm.lp(1.0, 2)
    oracle = norm.oracle()
    with pytest.raises(ValueError):
        volume_mc(oracle, 1.0, 1000, seed=1.5)
    for seed in (2 ** 64 - 1, True):
        with pytest.raises(ValueError):
            mahler_volume(oracle, norm.descriptor, 20_000,
                          dataclasses.replace(DEFAULT_CONFIG, rng_seed=seed))
    assert oracle.calls.count == 0


@pytest.mark.parametrize("weights,box", [((1e-110, 2e-110, 1e-110), 1e110),
                                         ((1e110, 2e110, 1e110), 1e-110),
                                         ((1.0, 1e150, 1.0), 1e150)],
                         ids=["overflow", "underflow", "polar-overflow"])
def test_box_volume_is_checked_before_any_call(weights, box):
    """A sampling box whose volume (2 box)^n is not a positive normal float
    raises ValueError before the first call, from volume_mc on that box and
    from mahler_volume. On weighted_l2 in R^3, weights of 1e-110 put the
    primal box at 1e110, whose cube overflows, and volume_mc at 2,000
    samples and seed 1 raised OverflowError after 933 calls; weights of
    1e110 put it at 1e-110, whose cube underflows, and volume_mc reported a
    volume of 0.0 +- 0.0 from 562 hits. Weights (1, 1e150, 1) leave the
    primal box at 1 and put the polar box at 1e150: mahler_volume checks
    both boxes before its primal run asks anything."""
    norm = ReferenceNorm.weighted_l2(weights)
    oracle = norm.oracle()
    with pytest.raises(ValueError, match="sampling box"):
        volume_mc(oracle, box, 2_000, seed=1)
    with pytest.raises(ValueError, match="sampling box"):
        mahler_volume(oracle, norm.descriptor, 2_000)
    assert oracle.calls.count == 0


# case -> (p, n, samples) of the block-size check
BLOCK_CASES = {"l1-R2": (1.0, 2, 20_000), "l1-R3": (1.0, 3, 20_000),
               "l3-R2": (3.0, 2, 10_000), "image-l2-R2": (2.0, 2, 10_000)}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_size_never_changes_an_answer(monkeypatch, case):
    """The sampling, the sandwich screen and the net's rounds work in
    blocks of _BLOCK rows, and no answer depends on the block size: at 7,
    64 and the default, mahler_volume at seed 2 gives bit-equal estimates
    and half-widths at equal calls to the oracle it is handed, and grows a
    bit-equal net (directions, bounds, witnesses and their slack). A chunk
    drawn block by block is one draw of it. On the lp bodies a hull of the
    net has more than 7 facets, so at 7 _gauge_bound takes its inverses one
    per row, and at the default one per facet."""
    p, n, samples = BLOCK_CASES[case]
    stream = rng_stream(2, 0)
    np.testing.assert_array_equal(np.vstack([stream.uniform(-1.0, 1.0, size=(7, n))
                                             for _ in range(3)]),
                                  rng_stream(2, 0).uniform(-1.0, 1.0, size=(21, n)))
    made = _record_dual_balls(monkeypatch)
    runs = []
    for block in (7, 64, cutting._BLOCK):
        for module in (cutting, normdual, mahler):  # every module that binds the name
            monkeypatch.setattr(module, "_BLOCK", block)
        norm = ReferenceNorm.lp(p, n)
        oracle, desc = norm.oracle(), norm.descriptor
        if case.startswith("image"):
            oracle, desc = linear_image(oracle, desc, IMAGE)
        est = mahler_volume(oracle, desc, samples,
                            dataclasses.replace(DEFAULT_CONFIG, rng_seed=2))
        runs.append((est, oracle.calls.count, made[-1]))
    est, calls, net = runs[-1]
    assert len(net._net) > 2 * n
    if not case.startswith("image"):  # its net stops at 6 directions here
        assert max(len(hull.planes()[0]) for hull in net._hulls) > 7
    for other_est, other_calls, other in runs[:-1]:
        assert other_est == est and other_calls == calls
        for name in ("_net", "_net_hi", "_witness", "_witness_slack"):
            np.testing.assert_array_equal(getattr(other, name), getattr(net, name))


# case -> primal calls of mahler_volume at 50,000 samples and seed 2
SMOOTH_NET_COSTS = {"l3-R2": (3.0, 2, 8_704), "l3-R3": (3.0, 3, 79_104),
                    "l1.5-R3": (1.5, 3, 80_885)}


@pytest.mark.parametrize("case", list(SMOOTH_NET_COSTS))
def test_net_cost_on_smooth_bodies(case):
    """On smooth non-Euclidean balls, which no benchmark workload samples,
    the grown net keeps mahler_volume's primal calls within 2 % of the
    measured counts. A net that ran one support row per direction, not one
    per +- pair, cost 10,174, 90,282 and 84,007 calls; pricing a polar row
    as a direction in its growth rounds cost 2.2 to 5.5 times as many."""
    p, n, calls = SMOOTH_NET_COSTS[case]
    norm = ReferenceNorm.lp(p, n)
    primal = norm.oracle()
    mahler_volume(primal, norm.descriptor, 50_000, dataclasses.replace(DEFAULT_CONFIG, rng_seed=2))
    assert 0 < primal.calls.count <= 1.02 * calls


# case -> primal calls of volume_mc on the dual ball alone at 50,000
# samples and seed 3, with no primal run to grow the net
POLAR_NET_COSTS = {"l3-R2": (3.0, 2, 8_801), "l1-R3": (1.0, 3, 836),
                   "linf-R3": (math.inf, 3, 1_600)}


@pytest.mark.parametrize("case", list(POLAR_NET_COSTS))
def test_net_cost_of_polar_sampling(case):
    """Sampling the dual ball alone, whose polar rows are all that grow the
    net, keeps its primal calls within 2 % of the measured counts. A net
    that ran one support row per direction, not one per +- pair, cost
    8,980, 955 and 2,013 calls. On that net, pricing a polar row as a
    direction cost 2.5 and 2.7 times as many calls on l3/R^2 and l1/R^3,
    and without polar growth the cube's 2,013 calls were 48,820."""
    p, n, calls = POLAR_NET_COSTS[case]
    norm = ReferenceNorm.lp(p, n)
    primal = norm.oracle()
    volume_mc(DualBallOracle(primal, norm.descriptor), norm.descriptor.k_hi, 50_000, 3)
    assert 0 < primal.calls.count <= 1.02 * calls


def test_net_beyond_r3_asks_every_direction(monkeypatch):
    """Beyond R^3 the net keeps its fixed 2 n^2 directions, each asked of
    its support run: l1/R^4 at 5,000 samples and seed 2 keeps
    mahler_volume's primal calls within 2 % of the measured 7,251. One run
    per +- pair there, with the answers mirrored, cost 8,399, as its
    validity runs cost 5,903 calls, not 3,783."""
    made = _record_dual_balls(monkeypatch)
    norm = ReferenceNorm.lp(1.0, 4)
    primal = norm.oracle()
    mahler_volume(primal, norm.descriptor, 5_000, dataclasses.replace(DEFAULT_CONFIG, rng_seed=2))
    assert 0 < primal.calls.count <= 1.02 * 7_251
    (oracle,) = made
    assert len(oracle._net) == 2 * 4 ** 2


def test_disc_mahler_costs_no_primal_call():
    """The disc's sandwich radii agree up to outward rounding, so it settles
    every primal sample and, through the polar oracle, every polar one."""
    norm = ReferenceNorm.lp(2.0, 2)
    oracle = norm.oracle()
    est = mahler_volume(oracle, norm.descriptor, 60_000)
    assert oracle.calls.count == 0
    lo, hi = est.interval()
    assert lo <= math.pi ** 2 <= hi


def test_mahler_primal_run_reads_the_net():
    """On l1/R3 the net refutes and certifies most primal shell samples at
    no call: fewer than a quarter of the samples between the sandwich radii
    reach the primal oracle, and the primal hits are still the exact count
    over all samples."""
    norm = ReferenceNorm.lp(1.0, 3)
    asked = []

    def member(X, delta):
        asked.append(X.copy())
        return norm.eval_batch(X) <= 1.0

    samples = 20_000
    est = mahler_volume(WeakMembershipOracle(member, norm.ball()), norm.descriptor, samples)
    pts = _samples(1.0 / norm.descriptor.k_lo, samples, DEFAULT_CONFIG.rng_seed, 3)
    dist = np.linalg.norm(pts, axis=1)
    ball = norm.ball()
    shell = np.count_nonzero((dist > ball.inner_radius) & (dist <= ball.outer_radius))
    drawn = {tuple(x) for x in pts}
    reached = sum(tuple(x) in drawn for x in np.vstack(asked))
    assert 0 < reached < 0.25 * shell
    assert est.primal.hits == np.count_nonzero(norm.eval_batch(pts) <= 1.0)


def test_mahler_is_deterministic(monkeypatch):
    norm = ReferenceNorm.lp(2.0, 2)
    oa, ob = norm.oracle(), norm.oracle()
    a = mahler_volume(oa, norm.descriptor, 60_000)
    b = mahler_volume(ob, norm.descriptor, 60_000)
    assert a.value == b.value
    assert a.primal.hits == b.primal.hits
    assert oa.calls.count == ob.calls.count
    # on l1 the polar run reaches the net, the pool and the engine; its
    # calls repeat too
    rows = []
    lockstep = DualBallOracle._lockstep

    def counting_lockstep(self, pts, delta):
        rows.append(len(pts))
        return lockstep(self, pts, delta)

    monkeypatch.setattr(DualBallOracle, "_lockstep", counting_lockstep)
    l1 = ReferenceNorm.lp(1.0, 2)
    oa, ob = l1.oracle(), l1.oracle()
    assert (mahler_volume(oa, l1.descriptor, 20_000).value
            == mahler_volume(ob, l1.descriptor, 20_000).value)
    assert oa.calls.count == ob.calls.count > 0
    assert sum(rows) > 0
    # a different seed moves the draw
    c = mahler_volume(norm.oracle(), norm.descriptor, 60_000,
                      dataclasses.replace(DEFAULT_CONFIG, rng_seed=99))
    assert c.primal.hits != a.primal.hits


def _band_rows(desc, rng, m):
    """m points in random directions whose lengths lie strictly between the
    sandwich radii of desc, so only the pool, the net or the engine can
    decide them."""
    U = rng.normal(size=(m, desc.n))
    r = rng.uniform(desc.k_lo, desc.k_hi, size=m)
    return U * (r / np.linalg.norm(U, axis=1))[:, None]


POOL_CASES = [(1.0, 2), (1.0, 3), (3.0, 3), (math.inf, 3)]


@pytest.mark.parametrize("p,n", POOL_CASES, ids=[f"l{p:g}-R{n}" for p, n in POOL_CASES])
def test_pooled_refutations_are_legal_under_band_adversary(p, n):
    """A witness pool at a large slack, of points that an oracle admitting
    points outside the ball answered IN at that slack, refutes only rows
    whose closed-form dual norm exceeds 1: the refutation rule holds for
    any witnesses within the slack of B, not only those of the net run."""
    slack = 0.05
    norm = ReferenceNorm.lp(p, n)
    adversary = band_adversary(norm, 0.9)
    oracle = DualBallOracle(adversary, norm.descriptor)
    rng = rng_stream(43, n)
    W = rng.uniform(-1.2, 1.2, size=(20_000, n)) / norm.descriptor.k_lo
    oracle._witness, oracle._witness_slack = W[adversary.query_batch(W, slack)], slack
    C = _band_rows(norm.descriptor, rng, 4000)
    refuted = oracle._lower(C, np.linalg.norm(C, axis=1), False) > 1.0
    dual = norm.dual().eval_batch(C)
    assert np.count_nonzero(refuted) > 0.5 * np.count_nonzero(dual > 1.1)
    assert np.all(dual[refuted] > 1.0)


def test_pool_tight_probe():
    """c.w sits just inside 1 + |c| s for the pooled witness w, and
    nu*(c) = 0.98: the |c| s term is all that keeps the pool from refuting
    a point of the shrunk dual ball."""
    slack, delta = 0.05, 1e-3
    norm = ReferenceNorm.lp(1.0, 2)
    adversary = band_adversary(norm, 0.9)
    w = np.array([1.0 + 0.85 * slack, 0.0])  # outside B, yet IN at this slack
    assert adversary.query(w, slack) is WeakVerdict.IN_THICKENED
    c = 0.98 * np.array([1.0, 0.5])
    assert norm.dual().eval(c) == pytest.approx(0.98)
    assert norm.descriptor.k_lo < np.linalg.norm(c) < norm.descriptor.k_hi
    assert 1.0 < c @ w < 1.0 + np.linalg.norm(c) * slack
    oracle = DualBallOracle(adversary, norm.descriptor)
    oracle._witness, oracle._witness_slack = w[None, :], slack
    assert oracle._lower(c[None, :], np.linalg.norm(c, keepdims=True), False)[0] <= 1.0
    # c + B(0, delta) lies in the dual ball, so NOT_IN_SHRUNK is illegal here
    assert oracle.query(c, delta) is WeakVerdict.IN_THICKENED


def _certified(oracle, C, primal):
    """Rows of C that the oracle's gauge certificate of that side puts
    inside."""
    return oracle._upper(C, np.linalg.norm(C, axis=1), primal, oracle._planes(primal))[0] <= 1.0


def test_primal_certificate_tight_probe(monkeypatch):
    """Witnesses that the generous adversary admits outside B, at
    nu(w) = 1 + 0.85 s, and a row x in the simplex of two of them with
    sum lam = 0.962 and nu(x) = 0.962 (1 + 0.85 s) > 1: only the gauge
    bound 1 + k_hi s that the net gives each witness keeps the certificate
    from putting x inside, where a slack of delta forbids IN_THICKENED. A
    bound of 1 + k_hi s / 2 = 1 + 0.71 s would certify it. The net's first
    support run, over the rows e_1 and e_2 of its directions +-e_i that it
    asks, is answered with these witnesses, and their mirrors enter the net
    with them, so it holds all four."""
    slack, delta = 0.05, 1e-3
    norm = ReferenceNorm.lp(1.0, 2)
    adversary = band_adversary(norm, 0.9)
    W = (1.0 + 0.85 * slack) * np.vstack([np.eye(2), -np.eye(2)])
    assert np.all(adversary.query_batch(W, slack))  # outside B, yet IN
    oracle = DualBallOracle(adversary, norm.descriptor)

    def answer(primal, body, C, *args, **kw):
        """The net's support run on the rows C it asks: h_B(c), exactly,
        and the witness (1 + 0.85 s) c at this slack."""
        hi = norm.dual().eval_batch(C)
        return hi, hi, (1.0 + 0.85 * slack) * C, None, slack

    monkeypatch.setattr(normdual, "support_batch", answer)
    oracle._grow(_net_directions(2))
    np.testing.assert_array_equal(oracle._witness, W)
    k_hi = norm.descriptor.k_hi
    x = 0.962 * 0.5 * (W[0] + W[1])
    assert 0.962 * (1.0 + k_hi * slack / 2) < 1.0 < norm.eval(x)
    assert adversary.query(x, delta) is WeakVerdict.NOT_IN_SHRUNK
    assert not _certified(oracle, x[None, :], True)[0]
    # the same row at 0.9 of the simplex is certified: 0.9 (1 + k_hi s) < 1
    y = 0.9 * 0.5 * (W[0] + W[1])
    assert _certified(oracle, y[None, :], True)[0]


def test_pool_refutations_cost_no_primal_calls():
    """Once the net is built, its witnesses refute rows well outside the
    dual ball at no further primal call."""
    norm = ReferenceNorm.lp(1.0, 3)
    primal = norm.oracle()
    oracle = DualBallOracle(primal, norm.descriptor)
    oracle._grow(_net_directions(3))
    rng = rng_stream(44, 0)
    C = _band_rows(norm.descriptor, rng, 2000)
    C = C[norm.dual().eval_batch(C) > 1.4][:200]
    assert len(C) == 200
    assert np.all(oracle._lower(C, np.linalg.norm(C, axis=1), False) > 1.0)
    before = primal.calls.count
    np.testing.assert_array_equal(oracle.query_batch(C, 0.01), np.zeros(200, bool))
    assert oracle.query(C[0], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert primal.calls.count == before


IMAGE = np.array([[2.0, 1.0], [0.0, 1.0]])  # the disc's image is an ellipse
# case -> (p, n, A): the lp ball of R^n, or its image under A; R^2 and R^3
# take each row's generators from the hull, R^4 its n nearest
NET_BODIES = {
    "l1-R2": (1.0, 2, None),
    "l1-R3": (1.0, 3, None),
    "l3-R3": (3.0, 3, None),
    "linf-R3": (math.inf, 3, None),
    "ellipse-R2": (2.0, 2, IMAGE),
    "image-l3-R2": (3.0, 2, IMAGE),
    "l3-R4": (3.0, 4, None),
}


def _net_body(case, side, adversary=band_adversary):
    """Primal oracle, descriptor and closed-form norm and dual norm of a net
    case: an lp ball, or its image A B under linear_image, whose norm is
    x -> nu(A^-1 x) and dual norm c -> nu*(A^T c). side None is the exact
    oracle, else the adversary (band_adversary or lopsided_band_adversary)
    of that side. The image of the disc never reaches its base (equal
    radii), so only the image of a non-Euclidean ball puts the adversary
    behind linear_image's pullback."""
    p, n, A = NET_BODIES[case]
    norm = ReferenceNorm.lp(p, n)
    oracle = norm.oracle() if side is None else adversary(norm, side)
    dual = norm.dual().eval_batch
    if A is None:
        return oracle, norm.descriptor, norm.eval_batch, dual
    image, desc = linear_image(oracle, norm.descriptor, A)
    inv = np.linalg.inv(A)
    return image, desc, lambda X: norm.eval_batch(X @ inv.T), lambda C: dual(C @ A)


def _grown_net(case, side, polar_only=False, adversary=band_adversary):
    """A dual-ball oracle of a net case whose net grew from its own rows,
    and the rows: 2000 polar rows strictly between the sandwich radii and
    2000 within 2 % of the unit sphere of nu*, and the same of primal rows
    for nu. The primal rows go through _net_query first, as in
    mahler_volume, then the polar ones; each side's shell rows build the
    net, grow it in R^2 and R^3, and are answered. With polar_only the
    primal rows are not asked, so the polar rows alone build and grow the
    net. Returns the oracle, the closed-form gauge and dual norm, the
    descriptor and both row sets."""
    primal, desc, gauge, dual = _net_body(case, side, adversary)
    oracle = DualBallOracle(primal, desc)
    rng = rng_stream(45, desc.n)
    U = rng.normal(size=(2000, desc.n))
    near = U * (rng.uniform(0.98, 1.02, size=2000) / dual(U))[:, None]
    polar_rows = np.vstack([_band_rows(desc, rng, 2000), near])
    U = rng.normal(size=(4000, desc.n))
    r = np.concatenate([rng.uniform(1.0 / desc.k_hi, 1.0 / desc.k_lo, size=2000)
                        / np.linalg.norm(U[:2000], axis=1),
                        rng.uniform(0.98, 1.02, size=2000) / gauge(U[2000:])])
    primal_rows = U * r[:, None]
    for C, inner, outer, is_primal in ((primal_rows, 1.0 / desc.k_hi, 1.0 / desc.k_lo, True),
                                       (polar_rows, desc.k_lo, desc.k_hi, False)):
        if polar_only and is_primal:
            continue
        nrm = np.linalg.norm(C, axis=1)
        shell = (nrm > inner) & (nrm < outer)
        oracle._net_query(C[shell], 0.01, is_primal)
    return oracle, gauge, dual, desc, polar_rows, primal_rows


SIDES = {"exact": None, "generous": 0.9, "stingy": -0.9}
# a polar-only net on the cube puts directions near its vertices, where the
# support runs' bounds hi(v) fall below h_B(v) by up to 2.7e-4 (its
# verdicts stay legal)
VERTEX_SIGMA = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: net bounds at cube vertices carry an uncharged sigma")
NET_LEGALITY_CASES = (
    [pytest.param(case, side, False, band_adversary, id=f"{case}-{name}")
     for case in NET_BODIES for name, side in SIDES.items()]
    + [pytest.param(case, side, True, band_adversary, id=f"{case}-{name}-polar-only",
                    marks=VERTEX_SIGMA if case == "linf-R3" else ())
       for case, (_, n, _) in NET_BODIES.items() if n <= 3 for name, side in SIDES.items()]
    # an oracle generous on x_1 > 0 and stingy on x_1 < 0, whose answers
    # are not symmetric where the ball is
    + [pytest.param(case, 0.9, polar_only, lopsided_band_adversary,
                    id=f"{case}-lopsided" + ("-polar-only" if polar_only else ""),
                    marks=VERTEX_SIGMA if case == "linf-R3" and polar_only else ())
       for case, (_, n, _) in NET_BODIES.items() if n <= 3 for polar_only in (False, True)])


@pytest.mark.parametrize("case,side,polar_only,adversary", NET_LEGALITY_CASES)
def test_net_verdicts_are_legal_under_band_adversary(case, side, polar_only, adversary):
    """On a net grown from its own rows under the adversary (_grown_net),
    on the polar side, every row the net certifies has nu*(c) <= 1 and
    every row that a witness refutes has nu*(c) > 1; on the primal side,
    every row that hi refutes has nu(x) > 1 and every row the witnesses
    certify has nu(x) <= 1. In R^2 and R^3 the net grew beyond +-e_i, and
    each rule settles more than half of the rows 5 % beyond its side of the
    unit sphere; in R^4 each settles some. Half the rows lie within 2 % of
    the sphere. The polar side also has one row per net direction v at
    nu*(c) = 1 - 1e-7, where a witness that the generous adversary admits
    outside B refutes c unless its slack is counted in full; the primal
    side one row per witness w at nu(x) = 1 + 1e-7 on the ray through w,
    which the witnesses certify if w is outside B and its gauge bound
    leaves out the slack. Last, every net bound hi(v) is at least the
    closed-form support value h_B(v) = nu*(v).

    In R^2 and R^3 the net is symmetric, each -v in it with hi(v) and -w_v,
    also under the lopsided adversary, whose answers are not: the mirrors
    are certified by the ball's symmetry.

    A polar-only net, which polar rows alone built and grew, is checked on
    the polar side, and not for settling half: at one call a row, its
    4000 rows buy only the directions that many of them pay for."""
    oracle, gauge, dual, desc, polar_rows, primal_rows = _grown_net(case, side, polar_only,
                                                                    adversary)
    if desc.n <= 3:
        assert len(oracle._net) > 2 * desc.n
        # the net is symmetric: each -v is in it, with hi(v) and -w_v
        mirror = np.argmin(oracle._net @ oracle._net.T, axis=1)
        np.testing.assert_array_equal(oracle._net[mirror], -oracle._net)
        np.testing.assert_array_equal(oracle._net_hi[mirror], oracle._net_hi)
        np.testing.assert_array_equal(oracle._witness[mirror], -oracle._witness)
    tight = (1.0 - 1e-7) * oracle._net / dual(oracle._net)[:, None]
    W = oracle._witness
    sides = [  # rows, closed form, sandwich radii, primal side
        (np.vstack([polar_rows, tight]), dual, desc.k_lo, desc.k_hi, False),
        (np.vstack([primal_rows, (1.0 + 1e-7) * W / gauge(W)[:, None]]), gauge,
         1.0 / desc.k_hi, 1.0 / desc.k_lo, True),
    ]
    for C, closed, inner, outer, primal in sides[:1] if polar_only else sides:
        nrm = np.linalg.norm(C, axis=1)
        keep = (nrm > inner) & (nrm < outer)  # rows no sandwich settles
        C, nrm = C[keep], nrm[keep]
        certified = _certified(oracle, C, primal)
        refuted = oracle._lower(C, nrm, primal) > 1.0
        nu = closed(C)
        assert np.all(nu[certified] <= 1.0)
        assert np.all(nu[refuted] > 1.0)
        assert np.any(certified) and np.any(refuted)
        if desc.n <= 3 and not polar_only:  # the 2 n^2 net of R^4 is too coarse
            assert np.count_nonzero(certified) > 0.5 * np.count_nonzero(nu < 0.95)
            assert np.count_nonzero(refuted) > 0.5 * np.count_nonzero(nu > 1.05)
    assert np.all(oracle._net_hi >= dual(oracle._net))


@pytest.mark.parametrize("side", [None, 0.9, -0.9], ids=["exact", "generous", "stingy"])
@pytest.mark.parametrize("case", [case for case, (_, n, _) in NET_BODIES.items() if n <= 3])
def test_shared_cut_verdicts_are_legal_under_band_adversary(case, side):
    """On a net grown from its own rows under the adversary (_grown_net),
    whose support runs and validity runs have filled the oracle's cut pool,
    a validity run that reads the pool gives the closed-form verdict on
    every row the sandwich leaves at nu*(c) = 1 -/+ 1.01 delta/k_lo, just
    beyond the band of either side, at delta = 1e-2 and 1e-3."""
    oracle, _, dual, desc, _, _ = _grown_net(case, side)
    assert len(oracle._pool.rows) > 0
    U = rng_stream(50, desc.n).normal(size=(150, desc.n))
    U /= dual(U)[:, None]
    for delta in (1e-2, 1e-3):
        band = 1.01 * delta / desc.k_lo
        C = np.vstack([(1.0 - band) * U, (1.0 + band) * U])
        nrm = np.linalg.norm(C, axis=1)
        C = C[(nrm > desc.k_lo) & (nrm < desc.k_hi)]
        assert len(C) > 100
        np.testing.assert_array_equal(oracle._lockstep(C, delta), dual(C) <= 1.0)


# (p, n, the primal calls of the pooled validity run when its rows took the
# ellipsoid in lockstep, the pool seeding its ring)
REUSE_CASES = [(1.0, 2, 1423), (1.0, 3, 2555), (math.inf, 2, 1403), (math.inf, 3, 2753)]


@pytest.mark.parametrize("p,n,lockstep_calls", REUSE_CASES,
                         ids=["l1-R2", "l1-R3", "linf-R2", "linf-R3"])
def test_validity_runs_reuse_the_nets_cuts(p, n, lockstep_calls):
    """Once a batch has built the net, whose support runs pool their
    separator halfspaces moved out to hold the primal ball, a validity run
    on rows 1 % either side of the dual sphere, which seeds its shared hull
    with that pool, costs fewer primal calls than the same run on an oracle
    with an empty pool, and no more than it cost when its rows took the
    ellipsoid in lockstep, with the same closed-form verdicts. Two
    mahler_volume calls on one primal oracle, each with its own polar
    oracle and pool, cost the same calls."""
    norm = ReferenceNorm.lp(p, n)
    desc, delta = norm.descriptor, 1e-3
    rng = rng_stream(51, n)
    primal, fresh = norm.oracle(), norm.oracle()
    oracle = DualBallOracle(primal, desc)
    oracle.query_batch(_band_rows(desc, rng, 100), delta)
    assert len(oracle._net) and len(oracle._pool.rows) > 0
    U = rng.normal(size=(100, n))
    U /= norm.dual().eval_batch(U)[:, None]
    C = np.vstack([0.99 * U, 1.01 * U])
    want = norm.dual().eval_batch(C) <= 1.0
    before = primal.calls.count
    np.testing.assert_array_equal(oracle._lockstep(C, delta), want)
    calls = primal.calls.count - before
    np.testing.assert_array_equal(DualBallOracle(fresh, desc)._lockstep(C, delta), want)
    assert 0 < calls < fresh.calls.count
    assert calls <= lockstep_calls
    primal = norm.oracle()
    mahler_volume(primal, desc, 20_000)
    first = primal.calls.count
    mahler_volume(primal, desc, 20_000)
    assert primal.calls.count == 2 * first > 0


HOLD_CASES = [(1.0, 2), (1.0, 3), (math.inf, 2), (math.inf, 3), (3.0, 2), (3.0, 3)]
# ROADMAP item 7: the separator's sigma is not charged, so a halfspace moved
# out by its centre slack alone can still cut into the ball it should hold
UNCHARGED_SIGMA = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: pooled halfspaces carry an uncharged sigma")


@pytest.mark.parametrize("p,n", [
    pytest.param(p, n, marks=() if p == 1.0 else UNCHARGED_SIGMA, id=f"l{p:g}-R{n}")
    for p, n in HOLD_CASES])
def test_pool_holds_the_scaled_ball(p, n):
    """Every pooled halfspace u . y <= beta of a DualBallOracle holds r B_nu,
    the body of its validity runs: r nu*(u) <= beta. It is checked once the
    net is built, by the shell rows of 50,000 box samples sent through
    _net_query(primal=True) as in mahler_volume, whose support runs pool their
    halfspaces with beta scaled by r, and again after one polar batch of
    50,000 box samples through query_batch, whose validity runs pool theirs.
    On the l1 balls this pins _grow's unit change; on the cube and the l3
    balls the uncharged sigma of item 7 shows."""
    norm = ReferenceNorm.lp(p, n)
    desc = norm.descriptor
    oracle = DualBallOracle(norm.oracle(), desc)
    rng = rng_stream(55, n)

    def assert_pool_holds():
        U, beta = oracle._pool.rows[:, :n], oracle._pool.rows[:, n]
        assert len(U) > 0
        excess = oracle.r * norm.dual().eval_batch(U) - beta
        assert np.all(excess <= 0.0), f"{np.sum(excess > 0.0)} of {len(U)} rows, " \
                                      f"up to {excess.max():.3g} inside r B_nu"

    X = rng.uniform(-1.0 / desc.k_lo, 1.0 / desc.k_lo, size=(50_000, n))
    nrm = np.linalg.norm(X, axis=1)
    oracle._net_query(X[(nrm > 1.0 / desc.k_hi) & (nrm < 1.0 / desc.k_lo)],
                      1e-6 / desc.k_lo, primal=True)
    assert len(oracle._net)
    assert_pool_holds()
    oracle.query_batch(rng.uniform(-desc.k_hi, desc.k_hi, size=(50_000, n)), 1e-6 * desc.k_hi)
    assert_pool_holds()


def test_small_batches_never_build_the_net():
    """A scalar query, and a batch that leaves no more rows than the net
    has directions, cost exactly the calls of the validity run on the rows
    they leave and get its verdicts: until a run has measured them, a row
    and a direction are priced alike, so 2n rows do not pay for the 2n
    directions +-e_i. The first batch that leaves more rows builds the net.
    The same holds on the primal side, where a batch of no more rows costs
    exactly the primal oracle's calls on them."""
    norm = ReferenceNorm.lp(1.0, 2)
    desc = norm.descriptor
    rng = rng_stream(46, 0)
    primal, fresh = norm.oracle(), norm.oracle()
    oracle = DualBallOracle(primal, desc)
    lockstep = DualBallOracle(fresh, desc)._lockstep
    size = len(_net_directions(desc.n))
    assert size == 2 * desc.n
    C = _band_rows(desc, rng, size + 1)
    c = C[0]
    verdict = oracle.query(c, 0.01)
    assert not len(oracle._net)
    want = lockstep(c[None, :], 0.01)[0]
    assert (verdict is WeakVerdict.IN_THICKENED) == want
    assert primal.calls.count == fresh.calls.count > 0
    # the sandwich settles the short rows, so size rows reach the engine
    short = 0.5 * desc.k_lo * C / np.linalg.norm(C, axis=1)[:, None]
    got = oracle.query_batch(np.vstack([C[1:], short]), 0.01)
    assert not len(oracle._net)
    np.testing.assert_array_equal(got[:size], lockstep(C[1:], 0.01))
    assert np.all(got[size:])
    assert primal.calls.count == fresh.calls.count
    oracle.query_batch(_band_rows(desc, rng, size + 1), 0.01)
    assert len(oracle._net)
    # the primal side: size rows of the primal shell cost one call each and
    # get the oracle's verdicts; size + 1 rows build the net
    primal = norm.oracle()
    oracle = DualBallOracle(primal, desc)
    U = rng.normal(size=(size + 1, desc.n))
    X = U * (rng.uniform(1.0 / desc.k_hi, 1.0 / desc.k_lo, size=size + 1)
             / np.linalg.norm(U, axis=1))[:, None]
    got = oracle._net_query(X[1:], 0.01, primal=True)
    assert not len(oracle._net)
    assert primal.calls.count == size
    np.testing.assert_array_equal(got, norm.eval_batch(X[1:]) <= 1.0)
    oracle._net_query(X, 0.01, primal=True)
    assert len(oracle._net)


def _record_dual_balls(monkeypatch):
    """The list of every DualBallOracle that mahler_volume makes from now on."""
    made = []

    class Recorded(DualBallOracle):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(mahler, "DualBallOracle", Recorded)
    return made


def test_growth_is_paid_for(monkeypatch):
    """The net grows only where its rows pay for it. On l1/R3, at the
    streams of the benchmark's seed-1 op, it grows from +-e_i by the
    octahedron's facet normals (+-1, +-1, +-1)/sqrt(3), and the op costs
    under 4,000 primal calls (19,085 on the fixed net of 64 directions).
    Then 10 rows on each side within 1e-9 of the unit sphere pay for no
    face: a row that thin counts for nothing against a direction. The net
    keeps its 14 directions, and the primal rows cost one call each."""
    made = _record_dual_balls(monkeypatch)
    norm = ReferenceNorm.lp(1.0, 3)
    primal = norm.oracle()
    mahler_volume(primal, norm.descriptor, 50_000,
                  dataclasses.replace(DEFAULT_CONFIG, rng_seed=12))
    assert primal.calls.count < 4000
    (oracle,) = made
    diagonals = np.array(list(itertools.product((1.0, -1.0), repeat=3))) / math.sqrt(3.0)
    assert len(oracle._net) == 14
    assert np.all((diagonals @ oracle._net.T).max(axis=1) > 1.0 - 1e-12)
    U = rng_stream(49, 0).normal(size=(10, 3))
    before = primal.calls.count
    oracle._net_query(U / norm.eval_batch(U)[:, None] * (1.0 + 1e-9), 1e-6, primal=True)
    assert primal.calls.count - before == 10
    oracle.query_batch(U / norm.dual().eval_batch(U)[:, None] * (1.0 - 1e-9), 1e-6)
    assert len(oracle._net) == 14


# case -> (p, n, bound): the tracemalloc peak of one mahler_volume call at
# 50,000 samples and seed 2 reads 1.22, 1.10, 0.91 and 1.87 sample chunks
WORKING_SETS = {"l1-R2": (1.0, 2, 1.3), "l1-R3": (1.0, 3, 1.2), "l3-R2": (3.0, 2, 1.0),
                "image-l2-R2": (2.0, 2, 2.0)}


@pytest.mark.parametrize("case", list(WORKING_SETS))
def test_mahler_working_set(case):
    """One mahler_volume call at 50,000 samples holds at most its bound, in
    multiples of a sample chunk's bytes, at its peak (tracemalloc).
    Drawing each chunk whole, and copying every open row of the net's
    growth rounds with its bounds, read 3.78, 3.38, 1.90 and 4.44 chunks;
    before that, building a copy of the facet plane per row for the net's
    growth, and squaring a whole chunk at once in the sandwich screen, read
    4.80 and 4.97 on l1/R2 and l1/R3."""
    p, n, bound = WORKING_SETS[case]
    norm = ReferenceNorm.lp(p, n)
    oracle, desc = norm.oracle(), norm.descriptor
    if case.startswith("image"):
        oracle, desc = linear_image(oracle, desc, IMAGE)
    tracemalloc.start()
    try:
        mahler_volume(oracle, desc, 50_000, dataclasses.replace(DEFAULT_CONFIG, rng_seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 50_000 * n * 8


def _brute_hull(P):
    """The reference for _Hull.planes: every n-subset of the rows of P, in
    R^2 or R^3, whose plane H (H . P_i = 1 on the subset) has
    H . P_j <= 1 + 1e-9 for every row j. Brute force, one first index i at
    a time; a subset's plane is H = N / (N . P_i) for the normal N of its
    edges from P_i. Subsets that are singular, or nearly so relative to the
    size of P, are left out, and coplanar rows give every triangle of their
    face. Each plane meets a spread of 32 rows first, and only the planes
    that no row of it rules out meet all m."""
    m, n = P.shape
    tiny = 1e-9 * np.linalg.norm(P, axis=1).max() ** n
    facets, planes = [np.zeros((0, n), dtype=int)], [np.zeros((0, n))]
    tails = np.array(list(itertools.combinations(range(m), n - 1)))  # sorted
    spread = P[::max(1, m // 32)]
    for i in range(m - n + 1):
        rest = tails[np.searchsorted(tails[:, 0], i + 1):]  # tails above i
        E = P[rest] - P[i]
        N = np.cross(E[:, 0], E[:, 1]) if n == 3 else E[:, 0, ::-1] * [1.0, -1.0]
        det = N @ P[i]
        ok = np.abs(det) > tiny
        H = N[ok] / det[ok, None]
        keep = np.all(H @ spread.T <= 1.0 + 1e-9, axis=1)
        keep[keep] = np.all(H[keep] @ P.T <= 1.0 + 1e-9, axis=1)
        facets.append(np.column_stack([np.full(len(H), i), rest[ok]])[keep])
        planes.append(H[keep])
    return np.vstack(facets), np.vstack(planes)


def _assert_same_hull(hull):
    """The grown hull's facets are facets of the brute-force reference over
    its points, both have the same planes (a face that coplanar points
    triangulate has one), and the grown hull, origin included, is closed:
    each ridge lies on exactly two of its facets."""
    facets, planes = hull.planes()
    ref_facets, ref_planes = _brute_hull(hull.points[1:])
    ref = {tuple(f) for f in ref_facets}
    assert len(facets) and all(tuple(f) in ref for f in np.sort(facets, axis=1))
    gap = np.abs(planes[:, None] - ref_planes[None]).max(axis=2) / np.abs(ref_planes).max()
    assert np.all(gap.min(axis=1) < 1e-9) and np.all(gap.min(axis=0) < 1e-9)
    n = hull.points.shape[1]
    ridges = np.vstack([np.delete(hull.facets, k, axis=1) for k in range(n)])
    assert np.all(np.unique(ridges, axis=0, return_counts=True)[1] == 2)


CUBE = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
AXES = np.vstack([np.eye(3), -np.eye(3)])
SQUARE = np.array(list(itertools.product((1.0, -1.0), repeat=2)))


def _point_set(name):
    """Random unit points in R^3, and degenerate sets: coplanar points on
    the cube's faces, face centres 1e-6 beyond them (vertices that a
    coarser side test would skip), repeated points, witnesses clustered
    near the vertices of the octahedron, and l-infinity witnesses at
    corners, whose hull has the origin on an edge or a face."""
    if name.startswith("sphere-"):
        m = int(name[len("sphere-"):])
        U = rng_stream(48, m).normal(size=(m, 3))
        return U / np.linalg.norm(U, axis=1)[:, None]
    edges = np.array([v for v in itertools.product((1.0, 0.0, -1.0), repeat=3)
                      if np.count_nonzero(v) == 2])
    return {
        "cube-face-centres": np.vstack([AXES, CUBE]),
        "cube-edge-midpoints": np.vstack([AXES, edges, CUBE]),
        "face-centres-just-beyond": np.vstack([CUBE, (1.0 + 1e-6) * AXES]),
        "repeated": np.vstack([CUBE, CUBE[:3], AXES, AXES[:2]]),
        "clustered": np.repeat(AXES, 10, axis=0) + 1e-4 * rng_stream(48, 0).normal(size=(60, 3)),
        "square-edge-points": np.vstack([np.eye(2), -np.eye(2), SQUARE, 0.5 * SQUARE + 0.5]),
        "origin-on-edge-R2": np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
        "origin-on-face-R3": np.vstack([CUBE[[0, 1, 2, 4]], CUBE[0]]),
    }[name]


POINT_SETS = ["sphere-64", "sphere-128", "sphere-192", "cube-face-centres",
              "cube-edge-midpoints", "face-centres-just-beyond", "repeated", "clustered",
              "square-edge-points", "origin-on-edge-R2", "origin-on-face-R3"]


@pytest.mark.parametrize("name", POINT_SETS)
def test_grown_hull_matches_brute_force(name):
    """The hull grown by insertion, three batches of points, has the
    brute-force reference's facets (_assert_same_hull)."""
    P = _point_set(name)
    hull = _Hull(P.shape[1])
    for part in np.array_split(P, 3):
        hull.add(part)
    _assert_same_hull(hull)


@pytest.mark.parametrize("case", [case for case, (_, n, _) in NET_BODIES.items() if n <= 3])
def test_grown_hulls_match_brute_force_on_net_bodies(case):
    """Both hulls of a net grown from its own rows (_grown_net), the points
    V / hi and the scaled witnesses, have the brute-force reference's
    facets."""
    oracle = _grown_net(case, None)[0]
    for hull in oracle._hulls:
        _assert_same_hull(hull)


def test_grown_hulls_match_brute_force_on_workload_nets(monkeypatch):
    """The same on the nets that the benchmark's four Mahler bodies grow at
    seed 1. The disc's sandwich settles every row, so it builds no net."""
    made = _record_dual_balls(monkeypatch)
    for i, (p, n, A) in enumerate([(2.0, 2, None), (1.0, 2, None), (1.0, 3, None),
                                   (2.0, 2, IMAGE)]):
        norm = ReferenceNorm.lp(p, n)
        oracle, desc = norm.oracle(), norm.descriptor
        if A is not None:
            oracle, desc = linear_image(oracle, desc, A)
        mahler_volume(oracle, desc, 50_000, dataclasses.replace(DEFAULT_CONFIG, rng_seed=2 * (4 + i)))
    assert not len(made[0]._net)
    for oracle in made[1:]:
        assert len(oracle._net) > 2 * oracle.body.n
        for hull in oracle._hulls:
            _assert_same_hull(hull)


def test_grown_hull_is_faster_than_brute_force():
    """At 192 random unit points in R^3 the grown hull takes a fraction of
    the brute force's time (fastest of three runs each)."""
    P = _point_set("sphere-192")

    def fastest(build):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            build()
            times.append(time.perf_counter() - start)
        return min(times)

    assert fastest(lambda: _Hull(3).add(P)) < 0.5 * fastest(lambda: _brute_hull(P))


def test_linear_image_membership():
    norm = ReferenceNorm.lp(2.0, 2)
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    img, desc = linear_image(norm.oracle(), norm.descriptor, A)
    rng = np.random.default_rng(17)
    delta = 1e-6
    for _ in range(200):
        x = rng.normal(size=2)
        pulled = float(np.linalg.norm(np.linalg.solve(A, x)))
        # skip the ambiguity band around the ellipse boundary
        if abs(pulled - 1.0) < 1e-5:
            continue
        got = img.query(x, delta) is WeakVerdict.IN_THICKENED
        assert got == (pulled <= 1.0)
    # image sandwich constants scale by the extreme singular values
    sig = np.linalg.svd(A, compute_uv=False)
    assert desc.k_lo == pytest.approx(norm.descriptor.k_lo / sig[0])
    assert desc.k_hi == pytest.approx(norm.descriptor.k_hi / sig[-1])


@pytest.mark.parametrize("p", [2.0, 1.0, 3.0], ids=["l2", "l1", "l3"])
def test_image_asks_its_base_only_for_the_shell(p):
    """The image asks its base once per pulled-back row strictly between the
    base's own sandwich radii, and for no other row: the disc's image costs
    no call. Its verdicts are closed-form membership off the band."""
    norm = ReferenceNorm.lp(p, 2)
    base = norm.oracle()
    img, desc = linear_image(base, norm.descriptor, IMAGE)
    rng = rng_stream(47, 0)
    X = rng.uniform(-1.0, 1.0, size=(4000, 2)) / desc.k_lo  # the image's box
    got = img.query_batch(X, 1e-6)
    pulled = np.linalg.solve(IMAGE, X.T).T
    dist = np.linalg.norm(pulled, axis=1)
    ball = norm.ball()
    shell = (dist > ball.inner_radius) & (dist < ball.outer_radius)
    assert base.calls.count == np.count_nonzero(shell)
    assert np.any(dist <= ball.inner_radius) and np.any(dist >= ball.outer_radius)
    if p == 2.0:
        assert base.calls.count == 0
    else:
        assert base.calls.count > 0
    nu = norm.eval_batch(pulled)
    off = np.abs(nu - 1.0) > 1e-5
    np.testing.assert_array_equal(got[off], nu[off] <= 1.0)


def test_linear_image_validation():
    norm = ReferenceNorm.lp(2.0, 2)
    with pytest.raises(ValueError):
        linear_image(norm.oracle(), norm.descriptor, np.eye(3))
    with pytest.raises(ValueError):
        linear_image(norm.oracle(), norm.descriptor,
                     np.array([[1.0, 0.0], [2.0, 0.0]]))
    for bad in (np.nan, np.inf):  # refused before the SVD sees them
        with pytest.raises(ValueError, match="finite entries"):
            linear_image(norm.oracle(), norm.descriptor, np.array([[1.0, bad], [0.0, 1.0]]))


def test_mahler_invariant_under_unimodular_map():
    """vol(AK) vol((AK)*) should match vol(K) vol(K*) when det A = 1; run
    both at modest sample counts and compare through the combined intervals."""
    norm = ReferenceNorm.lp(2.0, 2)
    base = mahler_volume(norm.oracle(), norm.descriptor, 120_000)
    A = np.array([[2.0, 1.0], [0.0, 1.0]])   # det 2, then renormalize
    A = A / math.sqrt(2.0)
    img, desc = linear_image(norm.oracle(), norm.descriptor, A)
    moved = mahler_volume(img, desc, 120_000)
    assert abs(base.value - moved.value) <= base.half_width + moved.half_width
