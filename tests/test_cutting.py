import itertools
import math

import numpy as np
import pytest

from adversaries import band_adversary
from convexdual import cutting
from convexdual.core import CenteredBody, rng_stream
from convexdual.cutting import (
    CutPool,
    IterationCapError,
    WvalVerdict,
    _separator_scales,
    approx_separator,
    gauge_batch,
    support_batch,
    wopt_from_wmem,
    wval_batch,
    wval_from_wmem,
)
from convexdual.oracles import ReferenceNorm, WeakMembershipOracle, exact_to_weak


def _ball_oracle(p, n):
    norm = ReferenceNorm.lp(p, n)
    return norm, norm.oracle(), norm.ball()


def test_gauge_matches_norm_on_rays():
    norm, oracle, body = _ball_oracle(2.0, 2)
    g = gauge_batch(oracle, body, [[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]],
                    _separator_scales(body)[1])
    np.testing.assert_allclose(g[:2], [2.0, 0.5], atol=1e-6)
    assert g[2] == 0.0  # the center


def test_gauge_handles_shifted_center():
    center = np.array([1.0, -2.0])
    body = CenteredBody(center, 0.9, 1.1)  # loose sandwich forces bisection
    oracle = exact_to_weak(lambda X: np.linalg.norm(X - center, axis=1) <= 1.0, body)
    assert oracle.calls.count == 0
    g = gauge_batch(oracle, body, [center + [3.0, 0.0]], _separator_scales(body)[1])
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
        with pytest.raises(ValueError, match="non-finite"):
            gauge_batch(oracle, body, np.vstack([X, [bad, 0.0, 0.0]]), 1e-6)
        with pytest.raises(ValueError, match="non-finite"):
            gauge_batch(oracle, body, np.vstack([probes[:3], [0.5, bad, 0.1]]),
                        1e-6, anchors=X)
        with pytest.raises(ValueError, match="non-finite"):
            gauge_batch(oracle, body, probes, 1e-6, anchors=[X[0], [bad, 0.0, 0.0]])
    for anchors in (X[:, :2], X[0], X[None]):
        with pytest.raises(ValueError, match=r"expected an \(m, 3\) stack"):
            gauge_batch(oracle, body, probes, 1e-6, anchors=anchors)
    with pytest.raises(ValueError, match="do not divide"):
        gauge_batch(oracle, body, probes, 1e-6, anchors=np.empty((0, 3)))
    with pytest.raises(ValueError, match="do not divide"):
        gauge_batch(oracle, body, probes[:3], 1e-6, anchors=X)  # 2 does not divide 3
    for points in (probes[:, :2], probes[0], probes[None]):
        with pytest.raises(ValueError, match=r"expected an \(m, 3\) stack"):
            gauge_batch(oracle, body, points, 1e-6)
    assert oracle.calls.count == 0


@pytest.mark.parametrize("p,n", [(3.0, 2), (1.0, 2), (3.0, 3), (math.inf, 3)],
                         ids=["l3-r2", "l1-r2", "l3-r3", "linf-r3"])
def test_verdict_function_may_keep_its_input(p, n):
    """Each call of a verdict function gets its own array: a function that
    keeps every X it is handed, with a copy, finds each kept batch equal to
    its copy after gauge_batch, approx_separator and support_batch have
    returned, the bisection rounds that followed it included."""
    norm = ReferenceNorm.lp(p, n)
    body = norm.ball()
    kept = []

    def keeping(X, delta):
        kept.append((X, X.copy()))
        return norm.eval_batch(X) <= 1.0

    oracle = WeakMembershipOracle(keeping, body)
    rng = rng_stream(54, n)
    X = rng.normal(size=(6, n))
    X *= (1.5 / norm.eval_batch(X))[:, None]
    gauge_batch(oracle, body, X, _separator_scales(body)[1])
    approx_separator(oracle, body, X, 1e-3)
    support_batch(oracle, body, rng.normal(size=(6, n)), 0.05)
    assert len(kept) > 20
    changed = sum(not np.array_equal(Y, copy) for Y, copy in kept)
    assert changed == 0, f"{changed} of {len(kept)} batches changed after the call"


def _check_separator_cost(x, rounds, cold):
    """One separator costs one call per anchor round, a bisection of its
    point's gauge to tol, and n calls per probe round, a bisection of its n
    forward probes from the window around that gauge; the point itself is
    not queried again. Both round counts are exact in closed form and far
    below the cold bracket."""
    x = np.array(x)
    n = x.size
    _, oracle, body = _ball_oracle(3.0, n)
    step, tol = _separator_scales(body)
    width = float(np.linalg.norm(x)) * (1.0 / body.inner_radius - 1.0 / body.outer_radius)
    anchor = math.ceil(math.log2(width / tol))
    # the window: the anchor's gauge -/+ (tol + step/inner)
    probe = math.ceil(math.log2(2.0 * (tol + step / body.inner_radius) / tol))
    approx_separator(oracle, body, x[None], 0.01)
    assert (anchor, probe) == rounds
    assert oracle.calls.count == anchor + n * probe
    # bisecting the point and its probes from their centering brackets
    oracle.calls.reset()
    probes = x + step * np.vstack([np.zeros(n), np.diag(np.sign(x))])
    gauge_batch(oracle, body, probes, tol)
    assert oracle.calls.count == (n + 1) * cold


def test_separator_cost_is_anchor_plus_probe_rounds():
    # 26 + 3 * 15 = 71 calls, against 4 * 26 from the cold bracket
    _check_separator_cost([2.0, 1.0, -1.0], (26, 15), 26)


# n = 5 is the dimension of the dual-cone slice of psd(3)
@pytest.mark.parametrize("x,rounds,cold", [
    ([2.0, 1.0], (25, 15), 25),  # 55 calls
    ([2.0, 1.0, -1.0, 0.5, 1.0], (26, 14), 26),  # 96 calls
], ids=["r2", "r5"])
def test_separator_cost_in_other_dimensions(x, rounds, cold):
    _check_separator_cost(x, rounds, cold)


# (p, the first centre e in the shell between the ball and B(a, outer), the
# earliest round k may be)
SETTLED_CASES = [(1.0, [0.9, 0.3], 4), (1.0, [0.9, 0.3], 12), (3.0, [0.95, 0.6, 0.3], 8)]


@pytest.mark.parametrize("p,e,first", SETTLED_CASES, ids=["l1-r2-k4", "l1-r2-k12", "l3-r3-k8"])
def test_settled_row_costs_its_anchor_rounds_and_no_probe(monkeypatch, p, e, first):
    """A validity row whose first separator's witness clears
    gamma - eps/2 costs its centre query plus k anchor rounds, and no
    probe call. The run is the engine's (_cut_loop) at wval_batch's slack,
    centre slack and exits, with two equal rows, so it takes the ellipsoid:
    wval_batch itself runs rows in turn on hull centres in R^2 and R^3,
    which the stated ellipsoid does not place. The body states an ellipsoid centred at e,
    so e is each row's first centre, asked and answered OUT: one centre
    query per row, and the two anchors share each round. Under the
    exact oracle the anchor bisection of e's gauge g from the centering
    bracket [d/outer, d/inner], w wide, has the IN end
    hi_r = d/outer + w ceil(2^r (g - d/outer)/w) / 2^r after r rounds. k is
    the first round from `first` on that moves the IN end, and gamma puts
    the witness's exit level hi + tol/2 halfway between hi_k and hi_(k-1),
    so the witness a + (e - a)/(hi + tol/2) reaches gamma - eps/2 at round
    k and not before. The row answers LARGE_VALUE_EXISTS, legally, as the
    ball's support is 1 >= gamma - eps."""
    n = len(e)
    norm = ReferenceNorm.lp(p, n)
    oracle, ball = norm.oracle(), norm.ball()
    e = np.array(e)
    d = float(np.linalg.norm(e - ball.center))
    g = float(norm.eval_batch(e[None])[0])
    assert ball.inner_radius < d < ball.outer_radius and g > 1.0
    radius = ball.outer_radius + d
    body = CenteredBody(ball.center, ball.inner_radius, ball.outer_radius,
                        (e, radius * radius * np.eye(n)))
    step, tol = _separator_scales(body)
    assert tol <= step / (16.0 * math.sqrt(n) * body.outer_radius)  # the separator's tol
    lo, w = d / body.outer_radius, d / body.inner_radius - d / body.outer_radius

    def hi(r):
        return lo + w * math.ceil(2.0 ** r * (g - lo) / w) / 2.0 ** r

    k = next(r for r in itertools.count(first) if hi(r) < hi(r - 1))
    level = 0.5 * (hi(k) + hi(k - 1)) + tol / 2.0
    c = np.eye(n)[0]
    eps = 1e-3
    gamma = float(c @ body.center + c @ (e - body.center) / level) + eps / 2.0
    assert gamma + eps / 2.0 < 1.0  # the ellipsoid's upper exit cannot fire first
    separated = []
    separator = cutting.approx_separator

    def recording_separator(o, body, X, delta, *rest):
        before = o.calls.count
        out = separator(o, body, X, delta, *rest)
        separated.append((X, out, o.calls.count - before))
        return out

    monkeypatch.setattr(cutting, "approx_separator", recording_separator)
    value = cutting._cut_loop(oracle, body, np.vstack([c, c]), eps / 2.0,
                              cutting.validity_centre_slack(body, eps),
                              stop_above=gamma - eps / 2.0, stop_ub_below=gamma + eps / 2.0)[0]
    assert not (value < gamma - eps / 2.0).any()  # wval_batch's verdict rule
    ((X, (U, depth, W), cost),) = separated
    np.testing.assert_array_equal(X, [e, e])
    assert cost == 2 * k and oracle.calls.count == 2 * (1 + k)
    assert np.isnan(U).all() and np.isnan(depth).all()
    assert np.all(W @ c >= gamma - eps / 2.0)
    assert np.all(norm.eval_batch(W) <= 1.0)


def test_points_at_their_anchors_cost_no_query():
    """A point equal to its anchor takes the anchor's gauge at no query, so
    a stack of only such points costs exactly the anchors' bisection."""
    norm, oracle, body = _ball_oracle(3.0, 3)
    X = np.array([[2.0, 1.0, -1.0], [0.3, -0.5, 0.2], [0.0, 0.0, 0.0]])
    tol = 1e-8
    alone = gauge_batch(oracle, body, X, tol)
    cost = oracle.calls.count
    oracle.calls.reset()
    g = gauge_batch(oracle, body, np.repeat(X, 3, axis=0), tol, anchors=X)
    assert oracle.calls.count == cost
    np.testing.assert_array_equal(g, np.repeat(alone, 3))
    assert float(np.max(np.abs(g - norm.eval_batch(np.repeat(X, 3, axis=0))))) <= tol


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
    step, tol = _separator_scales(body)
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
        np.testing.assert_allclose(approx_separator(oracle, body, x[None], 0.01)[0][0],
                                   x / np.linalg.norm(x), atol=1e-6)


def test_separator_points_outward():
    _, oracle, body = _ball_oracle(2.0, 2)
    X = np.array([[2.0, 0.0], [1.5, 1.5]])
    H, depth, _ = approx_separator(oracle, body, X, 0.01)
    np.testing.assert_allclose(H, [[1.0, 0.0], [math.sqrt(0.5)] * 2], atol=1e-3)
    # the depth (1 - 1/glo) u . x of the cut through the boundary point reads
    # glo, a certified lower bound on each point's gauge g within 2 tol of it
    gauges = np.array([2.0, 1.5 * math.sqrt(2.0)])
    ux = np.einsum("bi,bi->b", H, X)
    tol = _separator_scales(body)[1]
    assert np.all(depth <= (1.0 - 1.0 / gauges) * ux)
    assert np.all(depth >= (1.0 - 1.0 / (gauges - 2.0 * tol)) * ux)


def test_separator_separates_sampled_body_points():
    norm, oracle, body = _ball_oracle(1.0, 3)
    rng = rng_stream(22, 0)
    x = np.array([0.9, 0.9, 0.2])  # outside the cross-polytope
    h = approx_separator(oracle, body, x[None], 0.01)[0][0]
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
    h, tol = _separator_scales(body)
    X = _near_kink_points(G, h, 12, rng_stream(27, 0))
    U, _, _ = approx_separator(oracle, body, X, 0.01)
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


WITNESS_CASES = [f"l{p:g}-r{n}" for p, n in BAND_BALLS] + ["kink-l1", "kink-linf",
                                                            "kink-rotated"]


@pytest.mark.parametrize("side", [None, 0.9, -0.9], ids=["exact", "generous", "stingy"])
@pytest.mark.parametrize("case", WITNESS_CASES)
def test_separator_witnesses_lie_in_the_body(case, side):
    """Every gauge separator returns, per point x, the witness
    W = a + (x - a)/(g~(x) + tol), a point of the body for every legal
    oracle: gauge_batch keeps g~(x) within tol of g(x), so
    g(W) = g(x)/(g~(x) + tol) <= 1. The points are outside the l1, l3 and
    l-inf balls in R^2 and R^3, from just past the boundary to three times
    out, and the near-kink points of the sigma test, some of them inside.
    Each witness is also the boundary point x/g(x) up to 2 tol."""
    rng = rng_stream(28, len(case))
    if case.startswith("kink-"):
        norm, G = _kink_body(case[5:])
        X = _near_kink_points(G, _separator_scales(norm.ball())[0], 12, rng)
    else:
        p, n = BAND_BALLS[WITNESS_CASES.index(case)]
        norm = ReferenceNorm.lp(p, n)
        X = rng.normal(size=(40, n))
        X /= norm.eval_batch(X)[:, None]
        X *= np.append([1.0 + 1e-9, 1.0 + 1e-6], rng.uniform(1.0, 3.0, size=38))[:, None]
    oracle = norm.oracle() if side is None else band_adversary(norm, side)
    _, _, W = approx_separator(oracle, oracle.body, X, 0.01)
    assert W.shape == X.shape
    nu = norm.eval_batch(W)
    assert float(np.max(nu)) <= 1.0 + 1e-12
    # and no deeper than the boundary point x/g(x) allows, g~ + tol <= g + 2 tol
    gx = norm.eval_batch(X)
    assert np.all(nu >= gx / (gx + 2.0 * _separator_scales(oracle.body)[1]) - 1e-12)


def _central_cut_reference(Z, P, G):
    """The central-cut update the deep cut replaced, kept as the reference
    that a cut of depth 0 must reproduce bit for bit."""
    n = Z.shape[1]
    S = np.einsum("bij,bj->bi", P, G)
    den = np.einsum("bi,bi->b", G, S)
    if n == 1:
        w = np.sqrt(P[:, 0, 0])
        return Z - np.sign(G) * (w / 2.0)[:, None], (w * w / 4.0)[:, None, None]
    U = S / np.sqrt(den)[:, None]
    a = n * n / (n * n - 1.0)
    P = a * P - (2.0 * a / (n + 1.0)) * (U[:, :, None] * U[:, None, :])
    return Z - U / (n + 1.0), P


@pytest.mark.parametrize("depth", [0.0, 0.3, 0.9, 1.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_deep_cut_contains_the_kept_part(n, depth):
    """The cut of normalized depth d = alpha/sqrt(g'Pg) keeps every sampled
    point of E(z, P) with g . (x - z) <= -alpha, d clipped at _MAX_DEPTH;
    depth 0 is the central cut exactly."""
    rng = rng_stream(29, n)
    m = 6
    Z = rng.normal(size=(m, n))
    B = rng.normal(size=(m, n, n))
    P = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(n)
    G = rng.normal(size=(m, n))
    r = np.sqrt(np.einsum("bi,bij,bj->b", G, P, G))
    Z2, P2 = cutting._cut(Z, P, G, depth * r)
    if depth == 0.0:
        Zc, Pc = _central_cut_reference(Z, P, G)
        np.testing.assert_array_equal(Z2, Zc)
        np.testing.assert_array_equal(P2, Pc)
    if depth > cutting._MAX_DEPTH:
        Zc, Pc = cutting._cut(Z, P, G, cutting._MAX_DEPTH * r)
        np.testing.assert_allclose(Z2, Zc, rtol=1e-12)
        np.testing.assert_allclose(P2, Pc, rtol=1e-12)
    np.testing.assert_array_equal(P2, P2.transpose(0, 2, 1))
    assert np.all(np.linalg.eigvalsh(P2) > 0.0)
    alpha = min(depth, cutting._MAX_DEPTH) * r
    # points of E: its boundary, and the inside, both in the kept part
    Y = rng.normal(size=(4000, n))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    Y[2000:] *= rng.uniform(size=(2000, 1)) ** (1.0 / n)
    for i in range(m):
        X = Z[i] + Y @ np.linalg.cholesky(P[i]).T
        X = X[(X - Z[i]) @ G[i] <= -alpha[i]]
        assert len(X) > 20
        D = X - Z2[i]
        q = np.einsum("bi,ij,bj->b", D, np.linalg.inv(P2[i]), D)
        assert float(np.max(q)) <= 1.0 + 1e-9


@pytest.mark.parametrize("p,n", [(3.0, 2), (1.0, 3), (math.inf, 3)],
                         ids=["l3-r2", "l1-r3", "linf-r3"])
def test_separator_cut_keeps_the_boundary_point(monkeypatch, p, n):
    """A gauge that reads g~ = g + tol, the top of its contract, must not push
    a separator cut past the true boundary point x_b = a + (x - a)/g(x) of
    its center x: the depth is read from the certified lower bound g~ - tol.
    The cut plane then passes through x_b to rounding, and a depth read from
    g~ itself would cut x_b off by about tol/g. A free cut re-applies the
    remembered halfspace of one earlier separator cut, so it must keep the
    x_b of the center that made it, to rounding, wherever it is applied."""
    norm, oracle, body = _ball_oracle(p, n)
    monkeypatch.setattr(
        cutting, "gauge_batch",
        lambda oracle, body, points, tol, anchors=None, levels=None:
        (norm.eval_batch(points) + tol, np.full(len(anchors), math.inf)))
    events = []
    cut, separator = cutting._cut, cutting.approx_separator

    def recording_separator(oracle, body, X, delta, *rest):
        events.append(X)
        return separator(oracle, body, X, delta, *rest)

    def recording_cut(Z, P, G, A):
        events.append((Z, P, G, A))
        return cut(Z, P, G, A)

    monkeypatch.setattr(cutting, "approx_separator", recording_separator)
    monkeypatch.setattr(cutting, "_cut", recording_cut)
    C = rng_stream(30, n).normal(size=(4, n))
    support_batch(oracle, body, C, 0.05)
    made = {}  # a separator cut's unit -> the boundary point of its center
    paid, free, separated = 0, 0, set()
    for ev in events:
        if not isinstance(ev, tuple):
            separated = {tuple(x) for x in ev}
            continue
        Z, P, G, A = ev
        r = np.sqrt(np.einsum("bi,bij,bj->b", G, P, G))
        alpha = np.clip(A, 0.0, cutting._MAX_DEPTH * r)
        for z, g, a in zip(Z, G, alpha):
            if tuple(z) in separated:
                made[tuple(g)] = xb = z / norm.eval_batch(z[None])[0]
                paid += a > 0.0
            elif tuple(g) in made:
                xb = made[tuple(g)]
                free += a > 0.0
            else:
                continue  # an objective cut
            assert g @ (xb - z) + a <= 1e-12
        separated = set()
    assert paid > 0 and free > 0


def _follow(ids, before, after):
    """The ids of the rows of after, a stable subsequence of the rows of
    before, which carry ids."""
    out, k = [], 0
    for z in after:
        while not np.array_equal(before[k], z):
            k += 1
        out.append(ids[k])
        k += 1
    return out


@pytest.mark.parametrize("p,n", [(3.0, 2), (1.0, 2), (1.0, 3), (math.inf, 3)],
                         ids=["l3-r2", "l1-r2", "l1-r3", "linf-r3"])
def test_free_cuts_cost_no_call(monkeypatch, p, n):
    """A center sent neither to query_batch nor to approx_separator is cut
    at no call, and is exactly one of four kinds: it violates a halfspace
    in the run's pool, the last _POOL_CAP separator halfspaces of all its
    rows, and is cut along the most violated one at its violation a > 0;
    or it violates none and lies inside the inner ball, an incumbent cut
    along g = -c; or it violates none and lies outside the outer ball, cut
    along g = (z - a)/|z - a| at a = |z - a| - outer; or it violates none,
    lies between the balls and sits below the incumbent, c . z <= best, cut
    along g = -c at a = best - c . z. No center that was sent violates a
    pooled halfspace or sits below the incumbent, some free cuts use another
    row's halfspace, and the cut count of each row counts its free cuts too.
    Each row's incumbent starts at the body center and rises to the centers
    answered or taken IN and to the witnesses the separator returns; a
    center whose witness settles its row (NaN normal) takes the objective
    cut at the raised incumbent and pools nothing. Rows are followed
    through the lockstep compaction by their exact centers."""
    _, oracle, body = _ball_oracle(p, n)
    events, busy = [], []
    query, cut, separator = oracle.query_batch, cutting._cut, cutting.approx_separator

    def counting_query(X, delta):
        if not busy:  # the separator's own gauge probes are not centers
            events.append(("query", np.array(X), None))
        return query(X, delta)

    def recording_separator(oracle, body, X, delta, *rest):
        busy.append(1)
        try:
            U, depth, W = separator(oracle, body, X, delta, *rest)
        finally:
            busy.pop()
        events.append(("separator", np.array(X), (W, U)))
        return U, depth, W

    def recording_cut(Z, P, G, A):
        Z2, P2 = cut(Z, P, G, A)
        events.append(("cut", Z, G, A, Z2))
        return Z2, P2

    monkeypatch.setattr(oracle, "query_batch", counting_query)
    monkeypatch.setattr(cutting, "approx_separator", recording_separator)
    monkeypatch.setattr(cutting, "_cut", recording_cut)
    m = 6
    C = rng_stream(31, n).normal(size=(m, n))
    _, _, _, cuts, _ = support_batch(oracle, body, C, 0.05)

    pool = []  # the run's pooled (u, beta, row that made it), oldest first
    best = C @ body.center
    counted = np.zeros(m, dtype=int)
    kinds = {"pooled": 0, "near": 0, "far": 0, "below": 0, "settled": 0}
    ids, before, sent, shared = None, None, [], 0
    for kind, *ev in events:
        if kind != "cut":
            sent.append((kind, *ev))
            continue
        Z, G, A, after = ev
        ids = list(range(m)) if ids is None else _follow(ids, before, Z)
        assert len(ids) == len(Z)
        for _, X, _ in sent:
            for x in X:
                for u, beta, _ in pool:
                    assert u @ x - beta <= 1e-12
        asked = {tuple(x) for kind, X, _ in sent if kind == "query" for x in X}
        witness = {tuple(x): wu for kind, X, WU in sent if kind == "separator"
                   for x, wu in zip(X, zip(*WU))}
        assert witness.keys() <= asked
        made, raised = [], best.copy()
        for z, g, a, i in zip(Z, G, A, ids):
            counted[i] += 1
            value = C[i] @ z
            if tuple(z) in asked:
                assert value > best[i] - 1e-12
                if tuple(z) in witness:
                    w, u = witness[tuple(z)]
                    raised[i] = max(raised[i], C[i] @ w)
                    if np.isnan(u).any():
                        # settled by its witness: the objective cut at the
                        # raised incumbent, and nothing pooled
                        kinds["settled"] += 1
                        np.testing.assert_array_equal(g, -C[i])
                        assert a == pytest.approx(raised[i] - value, rel=0, abs=1e-12)
                    else:
                        made.append((g, g @ z - max(a, 0.0), i))
                else:
                    raised[i] = max(raised[i], value)
                continue
            violation = max((u @ z - beta for u, beta, _ in pool), default=-math.inf)
            r = np.linalg.norm(z - body.center)
            if violation > 0.0:
                kinds["pooled"] += 1
                assert a > 0.0
                owners = {k for u, _, k in pool if np.array_equal(g, u)}
                assert owners
                shared += i not in owners
            elif r < body.inner_radius:
                kinds["near"] += 1
                np.testing.assert_array_equal(g, -C[i])
                raised[i] = max(raised[i], value)
            elif r > body.outer_radius:
                kinds["far"] += 1
                np.testing.assert_allclose(g, (z - body.center) / r, rtol=0, atol=1e-15)
                assert a == pytest.approx(r - body.outer_radius, rel=0, abs=1e-15)
            else:
                kinds["below"] += 1
                assert value <= best[i] + 1e-12
                np.testing.assert_array_equal(g, -C[i])
                assert a == pytest.approx(best[i] - value, rel=0, abs=1e-12)
        pool = (pool + made)[-cutting._POOL_CAP:]
        before, sent, best = after, [], raised
    assert kinds["pooled"] > 0 and shared > 0 and kinds["below"] > 0
    assert kinds["near"] >= m  # every row's first center is the body center
    np.testing.assert_array_equal(cuts, counted)


def test_cut_pool_keeps_the_newest_halfspaces():
    pool = CutPool(2)
    assert pool.rows.shape == (0, 3)
    rows = np.arange(3.0 * (cutting._POOL_CAP + 5)).reshape(-1, 3)
    pool.add(rows[:5])
    pool.add(rows[5:])
    np.testing.assert_array_equal(pool.rows, rows[-cutting._POOL_CAP:])


@pytest.mark.parametrize("p,n", [(1.0, 2), (1.0, 3), (math.inf, 3), (3.0, 3)],
                         ids=["l1-r2", "l1-r3", "linf-r3", "l3-r3"])
def test_pooled_halfspaces_hold_the_body(p, n):
    """A support run handed a CutPool appends its separator halfspaces,
    each moved out from K_dq to K, beta <- u . a + (beta - u . a)/t with
    t = 1 - dq/inner, and every one holds the exact lp ball: h_K(u) <= beta.
    Unmoved, some fall inside the l1 ball of R^2 and the cube, whose kinks
    make the separator's sigma."""
    norm, oracle, body = _ball_oracle(p, n)
    C = rng_stream(52, n).normal(size=(40, n))
    pool = CutPool(n)
    *_, dq = support_batch(oracle, body, C, 0.05, pool=pool)
    assert len(pool.rows) > 10
    U, beta = pool.rows[:, :n], pool.rows[:, n]
    h = norm.dual().eval_batch(U)
    assert np.all(h <= beta)
    t = 1.0 - dq / body.inner_radius
    if p != 3.0 and (p, n) != (1.0, 3):
        assert np.any(t * beta < h)  # the center is the origin, so u . a = 0


def test_validity_run_reads_the_pool():
    """A validity run handed the pool of a support run over the same body
    seeds its hull with it (rows in turn on hull centres, in R^3): on rows
    whose support value lies more than 2.5 eps from gamma, where the
    verdict is forced, it gives the verdicts of a run with no pool at under
    half its primal calls, and at no more than the 584 calls that the same
    run made when it took the ellipsoid, the pool seeding its ring; the
    pool keeps the halfspaces it held first."""
    norm, _, body = _ball_oracle(1.0, 3)
    eps = 0.02
    C = rng_stream(53, 3).normal(size=(100, 3))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    h = norm.dual().eval_batch(C)
    gamma = float(np.median(h))
    C, h = C[np.abs(h - gamma) > 2.5 * eps], h[np.abs(h - gamma) > 2.5 * eps]
    assert len(C) > 50
    pool = CutPool(3)
    support_batch(norm.oracle(), body, C, 0.01, pool=pool)
    seeded = pool.rows.copy()
    assert 0 < len(seeded) < cutting._POOL_CAP
    plain, pooled = norm.oracle(), norm.oracle()
    np.testing.assert_array_equal(wval_batch(plain, body, C, gamma, eps), h <= gamma)
    np.testing.assert_array_equal(wval_batch(pooled, body, C, gamma, eps, pool=pool),
                                  h <= gamma)
    assert 0 < pooled.calls.count < 0.5 * plain.calls.count
    assert pooled.calls.count <= 584
    np.testing.assert_array_equal(pool.rows[:len(seeded)], seeded)


DIRECTION_CASES = [
    (2.0, 2, lambda c: float(np.linalg.norm(c))),
    (2.0, 3, lambda c: float(np.linalg.norm(c))),
    (1.0, 2, lambda c: float(np.max(np.abs(c)))),
    (math.inf, 3, lambda c: float(np.sum(np.abs(c)))),
]


@pytest.mark.parametrize("p,n,support", DIRECTION_CASES,
                         ids=["l2-r2", "l2-r3", "l1-r2", "linf-r3"])
def test_wopt_support_function_accuracy(p, n, support):
    """Certified maximization lands within the documented 5*eps envelope,
    and its interval, no wider than eps, holds the closed form and the
    value."""
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
        assert res.interval.contains(exact)
        assert res.interval.width <= eps
        assert res.interval.contains(res.value)


def test_wopt_weighted_ball_frozen_supports():
    norm = ReferenceNorm.weighted_l2([0.5, 2.0])
    oracle, body = norm.oracle(), norm.ball()
    res = wopt_from_wmem(oracle, body, [1.0, 0.0], 0.02)
    assert res.value == pytest.approx(2.0, abs=0.05)
    res = wopt_from_wmem(oracle, body, [0.0, 1.0], 0.02)
    assert res.value == pytest.approx(0.5, abs=0.05)


def test_wopt_threshold_exits():
    """The engine's validity exits: the incumbent reaching stop_above, and
    the certified bound falling to stop_ub_below. The first run is a hull
    run, whose first witness already lies near h = 1, so at the slack 0.01
    its gap exit would fire with the threshold; at 1e-6 it cannot."""
    _, oracle, body = _ball_oracle(2.0, 2)
    C = np.array([[1.0, 0.0]])
    value, _, gap, _ = cutting._cut_loop(oracle, body, C, 1e-6, 1e-6 / 8.0,
                                         stop_above=0.2)
    assert value[0] >= 0.2
    assert gap[0] > 5e-7  # not the gap exit
    _, _, gap, iterations = cutting._cut_loop(oracle, body, C, 0.01, 0.01 / 8.0,
                                              stop_ub_below=2.0)
    assert gap[0] > 0.005
    assert iterations[0] == 0  # the initial ball bound already certifies it


def test_wopt_input_validation():
    _, oracle, body = _ball_oracle(2.0, 2)
    with pytest.raises(ValueError):
        wopt_from_wmem(oracle, body, [0.0, 0.0], 0.01)
    with pytest.raises(ValueError):
        wopt_from_wmem(oracle, body, [1.0, 0.0], -0.1)
    cone_body = CenteredBody(np.zeros(2), 1.0, math.inf)
    with pytest.raises(ValueError):
        wopt_from_wmem(oracle, cone_body, [1.0, 0.0], 0.01)


def test_wopt_iteration_cap_carries_incumbent(monkeypatch):
    _, oracle, body = _ball_oracle(2.0, 2)
    monkeypatch.setattr(cutting, "_MAX_CUTS", 3)
    with pytest.raises(IterationCapError) as err:
        wopt_from_wmem(oracle, body, [1.0, 0.0], 1e-9)
    assert err.value.witness is not None
    assert err.value.value is not None
    assert err.value.gap > 0.0


def test_wval_verdicts_on_clear_cases():
    _, oracle, body = _ball_oracle(1.0, 2)
    # support of (1, 1) over the cross-polytope is 1
    c = [1.0, 1.0]
    assert wval_from_wmem(oracle, body, c, 1.3, 0.1) is WvalVerdict.UPPER_BOUND_HOLDS
    assert wval_from_wmem(oracle, body, c, 0.7, 0.1) is WvalVerdict.LARGE_VALUE_EXISTS


def test_wval_query_validation():
    _, oracle, body = _ball_oracle(1.0, 2)
    for gamma, eps in ((0.0, 0.0), (math.nan, 0.1), (math.inf, 0.1), (0.0, math.nan)):
        with pytest.raises(ValueError):
            wval_from_wmem(oracle, body, [1.0, 0.0], gamma, eps)
    assert oracle.calls.count == 0


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


SUPPORT_BALLS = [(1.0, 2), (3.0, 3), (math.inf, 3), (2.0, 2)]


@pytest.mark.parametrize("p,n", SUPPORT_BALLS,
                         ids=[f"l{p:g}-R{n}" for p, n in SUPPORT_BALLS])
def test_support_batch_intervals_contain_closed_form(p, n):
    """Rows of different lengths in one run: every interval contains the
    closed-form support value, the dual norm of the row, and is no wider
    than err."""
    err = 0.03
    norm, oracle, body = _ball_oracle(p, n)
    C = rng_stream(25, n).normal(size=(6, n))
    C *= rng_stream(26, n).uniform(0.3, 3.0, size=(6, 1))
    lo, hi, witness, cuts, _ = support_batch(oracle, body, C, err)
    exact = norm.dual().eval_batch(C)
    assert np.all(lo <= exact) and np.all(exact <= hi)
    assert np.all(hi - lo <= err)
    values = np.einsum("bi,bi->b", C, witness)
    assert np.all(lo <= values) and np.all(values <= hi)
    assert np.all(cuts > 0)


def test_support_batch_empty_costs_nothing():
    _, oracle, body = _ball_oracle(1.0, 3)
    lo, hi, witness, cuts, _ = support_batch(oracle, body, np.empty((0, 3)), 0.01)
    assert lo.shape == hi.shape == cuts.shape == (0,)
    assert witness.shape == (0, 3)
    assert oracle.calls.count == 0


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_support_batch_rejects_bad_rows_before_querying(bad):
    _, oracle, body = _ball_oracle(1.0, 2)
    C = np.array([[1.0, 0.5], [bad, 0.0 if bad == 0.0 else 1.0]])
    with pytest.raises(ValueError):
        support_batch(oracle, body, C, 0.01)
    with pytest.raises(ValueError):
        support_batch(oracle, body, [[1.0, 0.0]], 0.0)
    assert oracle.calls.count == 0


LP_BALLS = list(itertools.product([1.0, 1.5, 2.0, 3.0, math.inf], [2, 3]))


@pytest.mark.parametrize("p,n", LP_BALLS, ids=[f"l{p:g}-R{n}" for p, n in LP_BALLS])
def test_support_batch_keeps_the_split_of_lp_balls(p, n, monkeypatch):
    """On an lp ball in R^2 or R^3, unit rows have x = 1 + outer/inner <= 4,
    and the run keeps e = err/(1/2 + x/8) and dq = min(e/8, inner/4) bit for
    bit: the gap's floor of err/2 binds only above x = 4."""
    seen, run = [], cutting._cut_loop

    def spy(oracle, body, C, eps, dq, *args, **kw):
        seen.append((eps, dq))
        return run(oracle, body, C, eps, dq, *args, **kw)

    monkeypatch.setattr(cutting, "_cut_loop", spy)
    _, oracle, body = _ball_oracle(p, n)
    C = rng_stream(27, n).normal(size=(4, n))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    err = 0.01
    *_, dq = support_batch(oracle, body, C, err)
    x = float(np.max(np.linalg.norm(C, axis=1))) * (
        1.0 + body.outer_radius / body.inner_radius)
    assert x <= 4.0
    e = err / (0.5 + x / 8.0)
    assert seen == [(e, min(e / 8.0, body.inner_radius / 4.0))]
    assert dq == seen[0][1]


def _disc_band(side):
    """The unit disc declared with the loose sandwich B(0, 0.05) <= K <= B(0, 1),
    answering IN iff |x| <= 1 + side delta: legal for |side| < 1."""
    return WeakMembershipOracle(
        lambda X, delta: np.linalg.norm(X, axis=1) <= 1.0 + side * delta,
        CenteredBody(np.zeros(2), 0.05, 1.0), label="disc-band")


@pytest.mark.parametrize("side", [-0.9, 0.0, 0.9], ids=["stingy", "exact", "generous"])
def test_support_batch_split_on_a_loose_sandwich(side):
    """Where x > 4 the gap keeps err/2 and the dq terms the rest: dq x <= err/2,
    every interval is no wider than err, and it holds the closed form |c|
    and the witness's value, whatever the band adversary answers."""
    oracle = _disc_band(side)
    body = oracle.body
    C = rng_stream(28, 2).normal(size=(6, 2))
    C *= rng_stream(29, 2).uniform(0.3, 3.0, size=(6, 1))
    err = 0.02
    lo, hi, witness, _, dq = support_batch(oracle, body, C, err)
    nc = np.linalg.norm(C, axis=1)
    x = float(np.max(nc)) * (1.0 + body.outer_radius / body.inner_radius)
    assert x > 4.0
    assert dq * x <= err / 2.0
    assert np.all(hi - lo <= err)
    assert np.all(lo <= nc) and np.all(nc <= hi)
    values = np.einsum("bi,bi->b", C, witness)
    assert np.all(lo <= values) and np.all(values <= hi)


@pytest.mark.parametrize("side", [-0.9, 0.0, 0.9], ids=["stingy", "exact", "generous"])
def test_wval_holds_its_contract_on_a_loose_sandwich(side):
    """Validity over the unit disc declared with outer/inner = 20: for gamma
    swept across h = |c|, UPPER_BOUND_HOLDS needs (1 - eps)|c| <= gamma + eps,
    the support of the eps-shrunk disc, and LARGE_VALUE_EXISTS needs
    (1 + eps)|c| >= gamma - eps, that of the eps-thickened disc."""
    oracle = _disc_band(side)
    eps = 0.02
    u = rng_stream(30, 2).normal(size=2)
    u /= np.linalg.norm(u)
    for h in (0.5, 1.0, 3.0):
        c = h * u
        gammas = h + eps * np.array([-3.0, -2.0, -1.5, -1.0, -0.5, 0.0,
                                     0.5, 1.0, 1.5, 2.0, 3.0]) * max(h, 1.0)
        for gamma in gammas:
            verdict = wval_from_wmem(oracle, oracle.body, c, float(gamma), eps)
            if verdict is WvalVerdict.UPPER_BOUND_HOLDS:
                assert (1.0 - eps) * h <= gamma + eps
            else:
                assert (1.0 + eps) * h >= gamma - eps


# every engine entry as a call on an input X for the unit ball of a norm on
# R^2, at slack or tolerance s; wval_from_wmem takes the last row of X as its
# one objective
ENTRIES = {
    "query_batch": lambda o, norm, X, s: o.query_batch(X, s),
    "gauge_batch": lambda o, norm, X, s: gauge_batch(o, norm.ball(), X, s),
    "approx_separator": lambda o, norm, X, s: approx_separator(o, norm.ball(), X, s),
    "wval_batch": lambda o, norm, X, s: wval_batch(o, norm.ball(), X, 1.0, s),
    "wval_from_wmem":
        lambda o, norm, X, s: wval_from_wmem(o, norm.ball(), np.asarray(X)[-1], 1.0, s),
    "support_batch": lambda o, norm, X, s: support_batch(o, norm.ball(), X, s),
}
OBJECTIVE_ENTRIES = {"wval_batch", "wval_from_wmem", "support_batch"}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_entries_reject_bad_input_before_querying(entry):
    """Every engine entry checks its stack with core.as_stack: a non-finite
    row, a wrong width, and a 1-D or 3-D input raise ValueError before any
    primal call; so do a zero objective and a bad slack or tolerance."""
    norm, oracle, _ = _ball_oracle(1.0, 2)
    call = ENTRIES[entry]
    bad = [[[1.0, 0.5], [math.nan, 1.0]], [[1.0, 0.5], [math.inf, 1.0]],
           [[1.0, 0.5, 0.0]], [1.0, 0.5], [[[1.0, 0.5]]]]
    if entry in OBJECTIVE_ENTRIES:
        bad.append([[1.0, 0.5], [0.0, 0.0]])
    for X in bad:
        with pytest.raises(ValueError):
            call(oracle, norm, X, 0.01)
    for s in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            call(oracle, norm, [[1.0, 0.5]], s)
    assert oracle.calls.count == 0


def test_verdict_witnesses_raise_the_incumbent():
    """An oracle's witness hook is handed exactly the centres its verdict
    batch has just answered IN, at the run's slack, and the run takes its
    points as incumbents: on the unit disc a hook that returns the
    boundary point x/|x| of each IN centre lets the run stop in fewer
    cuts and calls than the same oracle without it, and both intervals
    hold h(c) = |c|. The disc is declared with the loose sandwich
    B(0, 0.05) <= K <= B(0, 1), so that its centres reach the oracle."""
    norm = ReferenceNorm.lp(2.0, 2)
    body = CenteredBody(np.zeros(2), 0.05, 1.0)
    C = rng_stream(30, 2).normal(size=(4, 2))
    last, handed = [], []

    def member(X, delta):
        inside = norm.eval_batch(X) <= 1.0
        last[:] = [(X[inside], delta)]
        return inside

    def witnesses(X, delta):
        handed.append((X, delta))
        np.testing.assert_array_equal(X, last[0][0])
        assert delta == last[0][1]
        return X / np.linalg.norm(X, axis=1, keepdims=True)

    runs = {}
    for hook in (None, witnesses):
        oracle = WeakMembershipOracle(member, body, witnesses=hook)
        lo, hi, _, cuts, _ = support_batch(oracle, oracle.body, C, 0.02)
        nc = np.linalg.norm(C, axis=1)
        assert np.all(lo <= nc) and np.all(nc <= hi)
        runs[hook is None] = (oracle.calls.count, int(cuts.sum()))
    assert handed
    assert runs[False][0] < runs[True][0] and runs[False][1] < runs[True][1]
