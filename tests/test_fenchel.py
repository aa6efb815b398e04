import collections
import math

import numpy as np
import pytest

from adversaries import alternating_value_adversary, value_adversary
from convexdual.core import WeakVerdict, rng_stream
from convexdual import cutting
from convexdual.cutting import approx_separator, support_batch, wval_batch
from convexdual.fenchel import (
    CertificateError,
    EpigraphBody,
    GrowthCertificate,
    InteriorMinCertificate,
    dual_growth_constants,
    fenchel_brute,
    fenchel_eval,
    make_reference_function,
    min_via_wopt,
)
from convexdual.oracles import CenteredBody, FunctionApproxOracle


def _ball(n, radius=1.0, center=None):
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    return CenteredBody(c, radius, radius)


def _oracle(fn, n, **kw):
    return FunctionApproxOracle(lambda x, e: float(fn(x)), n, **kw)


def test_growth_certificate_validation():
    with pytest.raises(ValueError):
        GrowthCertificate(0.0, 1.0, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 1.0, 1.0, 2.0, 1.0)   # s must exceed 1
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 1.0, 3.0, 2.0, 1.0)   # s <= t
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 1.0, 2.0, 2.0, 0.0)
    cert = GrowthCertificate(0.5, 2.0, 2.0, 3.0, 1.0)
    assert cert.lower(2.0) == pytest.approx(2.0)
    assert cert.upper(2.0) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        InteriorMinCertificate(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_certificates_reject_non_finite_fields(bad):
    """Every certificate field must be positive and finite; a NaN radius used
    to pass and send fenchel_eval's localization loop round forever."""
    good = dict(k_lo=0.5, k_hi=0.5, s=2.0, t=2.0, r=1.0)
    for field in good:
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            GrowthCertificate(**{**good, field: bad})
    with pytest.raises(ValueError, match="^margin must be positive and finite"):
        InteriorMinCertificate(bad)


def test_epigraph_body_validation():
    vals = _oracle(lambda x: float(x @ x), 2)
    with pytest.raises(ValueError):
        EpigraphBody(CenteredBody(np.zeros(2), 0.5, 1.0), 4.0, vals)
    for cap in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^cap must be positive and finite"):
            EpigraphBody(_ball(2), cap, vals)
    with pytest.raises(ValueError):
        EpigraphBody(_ball(3), 4.0, vals)
    epi = EpigraphBody(_ball(2), 4.0, vals)
    assert epi.n == 3
    body = epi.body()
    np.testing.assert_allclose(body.center, [0.0, 0.0, 3.0])
    assert body.inner_radius == pytest.approx(1.0)
    assert body.outer_radius == pytest.approx(math.hypot(1.0, 5.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_epigraph_ellipsoid_holds_the_cylinder(n):
    """The stated ellipsoid, centred at (c, cap/4) with semi-axes
    R sqrt((n + 1)/n) across the ball and 0.75 cap sqrt(n + 1) along tau,
    holds the cylinder B(c, R) x [-cap/2, cap], and with it the truncated
    epigraph: a rim point of either end disc gives n/(n + 1) + 1/(n + 1) = 1,
    up to rounding, and every interior point less."""
    rng = rng_stream(64, n)
    center, R, cap = rng.normal(size=n), 1.5, 5.0
    epi = EpigraphBody(_ball(n, R, center), cap, _oracle(lambda x: 0.0, n))
    e, Q = epi.body().ellipsoid
    np.testing.assert_allclose(e, np.append(center, 0.25 * cap))
    D = rng.normal(size=(400, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    rim = np.column_stack([center + R * D, np.where(np.arange(400) % 2, cap, -0.5 * cap)])
    inner = np.column_stack([center + R * rng.uniform(size=(400, 1)) * D,
                             rng.uniform(-0.5 * cap, cap, size=400)])
    Qinv = np.linalg.inv(Q)

    def level(Y):
        return np.einsum("bi,ij,bj->b", Y - e, Qinv, Y - e)

    np.testing.assert_allclose(level(rim), 1.0, rtol=1e-12)
    assert np.all(level(inner) <= 1.0 + 1e-12)


def test_epigraph_first_incumbent_is_the_body_centre():
    """A run over the epigraph starts at its ellipsoid's centre (c, cap/4),
    but its first incumbent is the body centre a = (c, 3 cap/4), which the
    centering data certifies: a stop that fires at iteration 0 returns a at
    no value call, upward and along (y, -1) alike."""
    values = _oracle(lambda x: float(x @ x), 2)
    oracle = EpigraphBody(_ball(2), 4.0, values).oracle()
    body = oracle.body
    up = np.array([0.0, 0.0, 1.0])
    assert not wval_batch(oracle, body, up[None], float(up @ body.center), 0.02)[0]
    c = np.array([0.5, -0.3, -1.0])
    value, witness, _, iterations = cutting._cut_loop(
        oracle, body, c[None], 0.05, 0.05 / 8.0, stop_above=float(c @ body.center))
    assert iterations[0] == 0
    assert value[0] == c @ body.center
    np.testing.assert_array_equal(witness[0], body.center)
    assert values.calls.count == 0


def test_epigraph_wmem_budget_and_verdicts():
    vals = _oracle(lambda x: float(x @ x), 2)
    oracle = EpigraphBody(_ball(2), 4.0, vals).oracle()

    # the main branch costs one function evaluation per point, and a later
    # row at the same point reads the held value
    assert oracle.query([0.5, 0.0, 1.0], 0.01) is WeakVerdict.IN_THICKENED
    assert vals.calls.count == 1
    assert oracle.query([0.5, 0.0, 0.1], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert vals.calls.count == 1
    assert oracle.query([0.0, 0.5, 0.1], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert vals.calls.count == 2

    # off the ball or above the cap: decided without touching the function
    assert oracle.query([2.0, 0.0, 1.0], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert oracle.query([0.0, 0.0, 9.0], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert vals.calls.count == 2

    with pytest.raises(ValueError):
        oracle.query([0.0, 0.0, 1.0], 2.0)   # eps >= cap / 2
    assert vals.calls.count == 2


def test_epigraph_centre_value_answers_at_no_evaluation():
    """A value v of f at the ball's centre, handed over with its slack e,
    answers a centre row at or above v + e IN at no evaluation, with the
    witness (c, v + e); a centre row below it, and every other row, still
    costs its evaluation."""
    vals = _oracle(lambda x: float(x @ x) + 0.5, 2)
    oracle = EpigraphBody(_ball(2), 4.0, vals).oracle(centre_value=(0.45, 0.1))
    Z = np.array([[0.0, 0.0, 0.55], [0.0, 0.0, 1.5], [0.5, 0.0, 1.5]])
    np.testing.assert_array_equal(oracle.query_batch(Z, 0.01), [True, True, True])
    assert vals.calls.count == 1
    W = oracle.witnesses(Z, 0.01)
    assert vals.calls.count == 1
    np.testing.assert_allclose(W[:2, -1], 0.55)
    assert 0.75 <= W[2, -1] <= 0.75 + 1e-6
    assert oracle.query([0.0, 0.0, 0.52], 0.01) is WeakVerdict.IN_THICKENED
    assert vals.calls.count == 2


def test_epigraph_batch_matches_row_queries():
    """A mixed batch gets the per-row verdicts and pays one evaluation per
    point on the ball and under the cap, none for the rest: two rows at one
    point share its value. The same rows, queried one at a time, get the
    same verdicts from the held values."""
    vals = _oracle(lambda x: float(x @ x), 2)
    oracle = EpigraphBody(_ball(2), 4.0, vals).oracle()
    Z = np.array([[0.5, 0.0, 1.0],    # above the graph: IN
                  [2.0, 0.0, 1.0],    # off the ball
                  [0.5, 0.0, 0.1],    # below the graph
                  [0.0, 0.0, 9.0],    # above the cap
                  [0.0, -0.6, 0.4],   # above the graph: IN
                  [-1.5, 1.5, 9.0]])  # off the ball and above the cap
    got = oracle.query_batch(Z, 0.01)
    assert vals.calls.count == 2
    np.testing.assert_array_equal(got, [True, False, False, False, True, False])
    rows = [oracle.query(z, 0.01) is WeakVerdict.IN_THICKENED for z in Z]
    np.testing.assert_array_equal(got, rows)
    with pytest.raises(ValueError):
        oracle.query_batch(Z, 2.0)
    assert vals.calls.count == 2


def _kinked(x):
    """f(x) = |x|^2 / 2 + |x|_1, kinked wherever a coordinate is 0."""
    return 0.5 * float(x @ x) + float(np.sum(np.abs(x)))


# (function, gradient, dimension, cap with |f| <= cap / 2 on the ball of
# radius 2 about 0); the affine case has no curvature to hide a tilted cut,
# and the kinked one a jump of its partials wherever a coordinate is 0
VALUE_SEPARATOR_CASES = {
    "half_square_norm": (make_reference_function("half_square_norm", 2).fn,
                         lambda x: x, 2, 8.0),
    "square_norm": (make_reference_function("square_norm", 3).fn,
                    lambda x: 2.0 * x, 3, 10.0),
    "affine": (lambda x: 0.5 * float(x[0]) - 0.25 * float(x[1]) + 1.0,
               lambda x: np.array([0.5, -0.25]), 2, 8.0),
    "kinked": (_kinked, lambda x: x + np.sign(x), 2, 10.0),
}
VALUE_ORACLES = {
    "exact": lambda fn, n: _oracle(fn, n),
    "raised": lambda fn, n: value_adversary(fn, n, 0.9),
    "lowered": lambda fn, n: value_adversary(fn, n, -0.9),
    "alternating": lambda fn, n: alternating_value_adversary(fn, n, 0.9),
}


def _ball_points(rng, count, n, lo, hi):
    """count points with norms uniform in [lo, hi] in random directions."""
    D = rng.normal(size=(count, n))
    return D * (rng.uniform(lo, hi, size=(count, 1)) / np.linalg.norm(D, axis=1,
                                                                          keepdims=True))


@pytest.mark.parametrize("kind", list(VALUE_ORACLES))
@pytest.mark.parametrize("case", list(VALUE_SEPARATOR_CASES))
def test_value_separator_within_documented_sigma(case, kind):
    """The epigraph's own separator keeps every point y of the truncated
    epigraph: u . (y - z) <= -max(alpha, 0) + sigma_v at each centre z =
    (x, tau) it cuts, sigma_v = 0 off the ball and above the cap, and below
    the graph sigma_v = (dq + 2 ev + (|b| + 2 sqrt(n) ev/h) 2R) / |(H, -1)|
    (cutting module header), with h = 1e-5 R, ev = dq h / (16 sqrt(n) R) and
    b the bias of the exact forward quotients F against the gradient. Below
    the graph the unclipped depth meets the sharper bound the header derives
    first, without the dq + 2 ev term. The centres below the graph include
    some within dq of it, which an oracle may answer outside at slack dq
    and which get a negative depth. Values come exact, or off by 0.9 of the
    slack they are asked at, all the same way or alternating in sign, which
    tilts the differences. Off the ball and above the cap a row costs no
    evaluation, below the graph n + 1. On the kinked case the centres below
    the graph lie 16h to 48h from the kink x_1 = 0, on either side, so each
    probe steps toward the kink without reaching it: the exact quotients at
    h see no jump, while a step 64 times as long would straddle it and tilt
    the cut through graph points near the kink, which the test includes."""
    fn, grad, n, cap = VALUE_SEPARATOR_CASES[case]
    R, dq = 2.0, 1e-3
    values = VALUE_ORACLES[kind](fn, n)
    oracle = EpigraphBody(_ball(n, R), cap, values).oracle()
    h = 1e-5 * R
    ev = dq * h / (16.0 * math.sqrt(n) * R)
    rng = rng_stream(62, n)
    fx = lambda X: np.array([fn(x) for x in X])  # noqa: E731

    X = _ball_points(rng, 6, n, 1.01 * R, 1.5 * R)
    off = np.column_stack([X, rng.uniform(-1.0, cap + 1.0, size=6)])
    X = _ball_points(rng, 6, n, 0.0, R)
    above = np.column_stack([X, cap + rng.uniform(1e-3, 1.0, size=6)])
    X = _ball_points(rng, 12, n, 0.0, R)
    if case == "kinked":
        X[:, 0] = rng.choice([-h, h], size=12) * rng.uniform(16.0, 48.0, size=12)
    gaps = np.where(np.arange(12) % 3 == 0, -0.5 * dq, rng.uniform(0.0, 2.0, size=12))
    below = np.column_stack([X, fx(X) - gaps])

    # truncated-epigraph points: on the graph, and between it and the cap,
    # and on the graph within 128h of each centre below it along each axis
    Xs = _ball_points(rng, 4000, n, 0.0, R)
    lift = np.where(np.arange(4000) % 2 == 0, 0.0, rng.uniform(size=4000))
    near = (X[:, None, None, :] + h * np.arange(-128.0, 129.0, 2.0)[None, :, None, None]
            * np.eye(n)[None, None]).reshape(-1, n)
    Xs = np.vstack([Xs, near[np.linalg.norm(near, axis=1) <= R]])
    lift = np.append(lift, np.zeros(len(Xs) - 4000))
    Y = np.column_stack([Xs, fx(Xs) + lift * (cap - fx(Xs))])

    values.calls.reset()
    U, depth, _ = approx_separator(oracle, oracle.body, np.vstack([off, above]), dq)
    assert values.calls.count == 0
    np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0)
    for z, u, a in zip(np.vstack([off, above]), U, depth):
        assert a > 0.0
        assert float(np.max((Y - z) @ u)) <= -a + 1e-12

    saw_band = False
    for z in below:
        values.calls.reset()
        U, depth, _ = approx_separator(oracle, oracle.body, z[None], dq)
        assert values.calls.count == n + 1
        u, a = U[0], float(depth[0])
        x = z[:-1]
        saw_band |= a < 0.0
        hs = np.where(x >= 0.0, -h, h)
        F = (fx(x + np.diag(hs)) - fn(x)) / hs
        b = float(np.linalg.norm(F - grad(x)))
        width = -1.0 / u[-1]  # |(H, -1)|
        assert width >= 1.0
        tilt = (b + 2.0 * math.sqrt(n) * ev / h) * 2.0 * R / width
        reach = float(np.max((Y - z) @ u))
        assert reach <= -a + tilt
        assert reach <= -max(a, 0.0) + (dq + 2.0 * ev) / width + tilt  # sigma_v
    assert saw_band


@pytest.mark.parametrize("kind", list(VALUE_ORACLES))
@pytest.mark.parametrize("case", list(VALUE_SEPARATOR_CASES))
def test_value_separator_witnesses_lie_in_the_epigraph(case, kind):
    """The epigraph's own separator returns, per centre z = (x, tau), a
    witness (x', tau') of the truncated epigraph: off the ball or above the
    cap the ball point nearest x at tau' = cap, with f <= cap/2 on the ball,
    and below the graph (x, min(f~(x) + ev, cap)), with f(x) <= f~(x) + ev,
    for every legal value oracle. So |x' - c| <= R and f(x') <= tau' <= cap,
    up to rounding; the rows below the graph include some within dq of it.
    The witness hook does the same for the rows a verdict batch answered
    IN, at no evaluation: (x, f~(x) + ev) from that batch's own value, no
    higher than cap. Those rows include some within dq of the graph, above
    and below it."""
    fn, _, n, cap = VALUE_SEPARATOR_CASES[case]
    R, dq = 2.0, 1e-3
    values = VALUE_ORACLES[kind](fn, n)
    oracle = EpigraphBody(_ball(n, R), cap, values).oracle()
    rng = rng_stream(64, n)
    X = _ball_points(rng, 6, n, 1.01 * R, 1.5 * R)
    off = np.column_stack([X, rng.uniform(-1.0, cap + 1.0, size=6)])
    X = _ball_points(rng, 6, n, 0.0, R)
    above = np.column_stack([X, cap + rng.uniform(1e-3, 1.0, size=6)])
    X = _ball_points(rng, 12, n, 0.0, R)
    gaps = np.where(np.arange(12) % 3 == 0, -0.5 * dq, rng.uniform(0.0, 2.0, size=12))
    below = np.column_stack([X, [fn(x) for x in X] - gaps])
    Z = np.vstack([off, above, below])
    _, _, W = approx_separator(oracle, oracle.body, Z, dq)
    assert W.shape == Z.shape
    assert float(np.max(np.linalg.norm(W[:, :-1], axis=1))) <= R * (1.0 + 1e-12)
    assert all(fn(w[:-1]) <= w[-1] <= cap for w in W)
    np.testing.assert_array_equal(W[:12, -1], cap)
    np.testing.assert_array_equal(W[12:, :-1], X)

    # IN rows: over the graph up to the cap, a third of them within dq of it
    Xi = _ball_points(rng, 12, n, 0.0, R)
    fi = np.array([fn(x) for x in Xi])
    lifts = np.where(np.arange(12) % 3 == 0, dq * rng.uniform(-1.0, 1.0, size=12),
                     rng.uniform(0.0, 1.0, size=12) * (cap - fi))
    Zi = np.column_stack([Xi, fi + lifts])
    inside = oracle.query_batch(Zi, dq)
    assert np.count_nonzero(inside) >= 8
    before = values.calls.count
    Wi = oracle.witnesses(Zi[inside], dq)
    assert values.calls.count == before
    assert Wi.shape == Zi[inside].shape
    np.testing.assert_array_equal(Wi[:, :-1], Xi[inside])
    assert all(fn(w[:-1]) <= w[-1] <= cap for w in Wi)


def test_value_separator_reuses_the_verdicts_value():
    """On the engine path a centre below the graph costs n + 1 evaluations
    in all: its verdict asks f~(x) at the separator's slack ev, and the
    separator, called on the batch's OUT rows at the same dq, reads that
    value and asks only the n shifted points. It cuts exactly as a
    separator that asks f~(x) itself. Rows the store does not hold cost
    n + 1 in the separator. The store outlives the batch: the same rows at
    2 dq, whose ev the held values already meet, cost nothing and get the
    same cuts, at dq / 2 each point is asked again at the tighter ev, and a
    later batch evicts nothing."""
    fn = make_reference_function("square_norm", 3).fn
    n, R, cap, dq = 3, 2.0, 10.0, 1e-3
    rng = rng_stream(66, n)
    fx = lambda X: np.array([fn(x) for x in X])  # noqa: E731
    X = _ball_points(rng, 8, n, 0.0, R)
    below = np.column_stack([X, fx(X) - rng.uniform(1e-3, 2.0, size=8)])
    over = np.column_stack([X, fx(X) + rng.uniform(1e-3, 1.0, size=8)])
    off = np.column_stack([_ball_points(rng, 3, n, 1.01 * R, 1.5 * R), np.ones(3)])
    capped = np.column_stack([_ball_points(rng, 3, n, 0.0, R), np.full(3, cap + 0.5)])
    Z = np.vstack([below, over, off, capped])

    values = _oracle(fn, n)
    oracle = EpigraphBody(_ball(n, R), cap, values).oracle()
    inside = oracle.query_batch(Z, dq)
    np.testing.assert_array_equal(inside, [False] * 8 + [True] * 8 + [False] * 6)
    assert values.calls.count == 8  # below and over share their points
    got = approx_separator(oracle, oracle.body, Z[~inside], dq)
    assert values.calls.count == 8 + 8 * n

    fresh_values = _oracle(fn, n)
    fresh = EpigraphBody(_ball(n, R), cap, fresh_values).oracle()
    want = approx_separator(fresh, fresh.body, Z[~inside], dq)
    assert fresh_values.calls.count == 8 * (n + 1)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)

    X = _ball_points(rng, 5, n, 0.0, R)
    unheld = np.column_stack([X, fx(X) - 0.5])
    values.calls.reset()
    approx_separator(oracle, oracle.body, unheld, dq)
    assert values.calls.count == 5 * (n + 1)
    values.calls.reset()
    for g, w in zip(approx_separator(oracle, oracle.body, below, 2.0 * dq), want):
        np.testing.assert_array_equal(g, w[:8])
    assert values.calls.count == 0
    approx_separator(oracle, oracle.body, below, 0.5 * dq)
    assert values.calls.count == 8 * (n + 1)
    oracle.query_batch(unheld, dq)
    values.calls.reset()
    approx_separator(oracle, oracle.body, below, dq)
    assert values.calls.count == 0


def _epigraph_sample(rng, fn, n, R, cap, X, h):
    """Truncated-epigraph points: on the graph and between it and the cap
    over the ball, and on the graph within 128h of each x in X along each
    axis."""
    fx = lambda X: np.array([fn(x) for x in X])  # noqa: E731
    Xs = _ball_points(rng, 4000, n, 0.0, R)
    lift = np.where(np.arange(4000) % 2 == 0, 0.0, rng.uniform(size=4000))
    near = (X[:, None, None, :] + h * np.arange(-128.0, 129.0, 2.0)[None, :, None, None]
            * np.eye(n)[None, None]).reshape(-1, n)
    Xs = np.vstack([Xs, near[np.linalg.norm(near, axis=1) <= R]])
    lift = np.append(lift, np.zeros(len(Xs) - 4000))
    return np.column_stack([Xs, fx(Xs) + lift * (cap - fx(Xs))])


@pytest.mark.parametrize("kind", list(VALUE_ORACLES))
@pytest.mark.parametrize("case", list(VALUE_SEPARATOR_CASES))
def test_value_verdicts_and_reused_cuts_are_legal(case, kind):
    """Verdicts at slack dq ask f~ at ev = dq h / (16 sqrt(n) R), so on
    points within 1.5 dq of the graph each answer is legal at ev, and so at
    dq: IN only where tau >= f(x) - ev, OUT only where tau < f(x) + ev. The
    separator then cuts that batch's OUT rows from the verdicts' values, at
    n evaluations a row. As the depth reads the value the verdict read,
    alpha > -ev/|(H, -1)|, and every cut meets the header's sharper bound
    u . (y - z) <= -alpha + tilt, tilt = (|b| + 2 sqrt(n) ev/h) 2R/|(H, -1)|,
    so against the clipped depth it keeps the epigraph up to ev/|(H, -1)| +
    tilt, within sigma_v. Each witness lies in the epigraph. On the kinked
    case the centres lie 16h to 48h from the kink x_1 = 0, as in
    test_value_separator_within_documented_sigma."""
    fn, grad, n, cap = VALUE_SEPARATOR_CASES[case]
    R, dq = 2.0, 1e-3
    values = VALUE_ORACLES[kind](fn, n)
    oracle = EpigraphBody(_ball(n, R), cap, values).oracle()
    h = 1e-5 * R
    ev = dq * h / (16.0 * math.sqrt(n) * R)
    rng = rng_stream(68, n)
    fx = lambda X: np.array([fn(x) for x in X])  # noqa: E731

    X = _ball_points(rng, 30, n, 0.0, R)
    if case == "kinked":
        X[:, 0] = rng.choice([-h, h], size=30) * rng.uniform(16.0, 48.0, size=30)
    # a third each within 2 ev, dq and 1.5 dq of the graph, above or below
    band = np.array([2.0 * ev, dq, 1.5 * dq])[np.arange(30) % 3]
    Z = np.column_stack([X, fx(X) + band * rng.uniform(-1.0, 1.0, size=30)])
    gap = Z[:, -1] - fx(X)
    values.calls.reset()
    inside = oracle.query_batch(Z, dq)
    assert values.calls.count == 30
    assert np.all(gap[inside] >= -ev) and np.all(gap[~inside] < ev)
    assert np.all(gap[inside] >= -dq) and np.all(gap[~inside] < dq)
    assert 8 <= np.count_nonzero(~inside) <= 22

    out = Z[~inside]
    values.calls.reset()
    U, depth, W = approx_separator(oracle, oracle.body, out, dq)
    assert values.calls.count == n * len(out)
    np.testing.assert_array_equal(W[:, :-1], out[:, :-1])
    assert all(fn(w[:-1]) <= w[-1] <= cap for w in W)
    Y = _epigraph_sample(rng, fn, n, R, cap, out[:, :-1], h)
    for z, u, a in zip(out, U, depth):
        x = z[:-1]
        hs = np.where(x >= 0.0, -h, h)
        F = (fx(x + np.diag(hs)) - fn(x)) / hs
        b = float(np.linalg.norm(F - grad(x)))
        width = -1.0 / u[-1]  # |(H, -1)|
        assert width >= 1.0
        assert a > -ev / width * (1.0 + 1e-9)
        tilt = (b + 2.0 * math.sqrt(n) * ev / h) * 2.0 * R / width
        reach = float(np.max((Y - z) @ u))
        assert reach <= -a + tilt
        assert reach <= -max(a, 0.0) + ev / width + tilt
        assert reach <= -max(a, 0.0) + (dq + 2.0 * ev) / width + tilt  # sigma_v


def _kinked_conjugate(y):
    return 0.5 * float(np.sum(np.maximum(np.abs(y) - 1.0, 0.0) ** 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fenchel_eval_with_argmax_on_a_kink(n):
    """f(x) = |x|^2 / 2 + |x|_1 has f*(y) = sum max(|y_i| - 1, 0)^2 / 2, and
    its maximizer x_i = sign(y_i) max(|y_i| - 1, 0) sits on the kink x_i = 0
    for every |y_i| < 1, where the separators' forward differences straddle
    a jump of the i-th partial. f <= (1/2 + sqrt(n)) |x|^2 for |x| >= 1."""
    eps = 0.05
    cert = GrowthCertificate(0.5, 0.5 + math.sqrt(n), 2.0, 2.0, 1.0)
    rng = rng_stream(63, n)
    for _ in range(20):
        y = rng.uniform(-3.0, 3.0, size=n)
        y[rng.integers(n)] = rng.uniform(-1.0, 1.0)
        est = fenchel_eval(_oracle(_kinked, n), cert, y, eps)
        assert abs(est.value - _kinked_conjugate(y)) <= eps


MIN_CASES = [
    # (fn, n, ball center, cap, expected min over the unit-radius ball)
    (lambda x: float((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2) + 0.7, 2,
     (0.0, 0.0), 8.0, 0.7),
    (lambda x: math.exp(float(x[0])) + math.exp(-float(x[0])), 2,
     (0.0, 0.0), 8.0, 2.0),
    (lambda x: 2.0 * float((x - 0.25) @ (x - 0.25)), 3,
     (0.25, 0.25, 0.25), 8.0, 0.0),
    # a tall epigraph, 640 from its centre to its rim: its gauge slopes
    # shrink like 1/cap, so the separators' flat-gauge floor must too
    (lambda x: float(x @ x), 2, (0.0, 0.0), 512.0, 0.0),
]
MIN_IDS = ["shifted-quadratic", "exp-pair", "centered", "tall-cap"]


@pytest.mark.parametrize("fn,n,center,cap,want", MIN_CASES, ids=MIN_IDS)
def test_min_via_wopt_accuracy(fn, n, center, cap, want):
    eps = 0.05
    values = _oracle(fn, n)
    epi = EpigraphBody(_ball(n, 1.0, center), cap, values)
    res = min_via_wopt(epi, InteriorMinCertificate(0.2), eps)
    assert abs(res.value - want) <= eps
    # every evaluation but the 2n certificate probes off the centre is the
    # run's own: the centre probe reads the value the run holds there
    assert res.oracle_calls == values.calls.count - 2 * n > 0
    # the reported point is feasible and nearly optimal itself
    assert np.linalg.norm(res.point - np.asarray(center)) <= 1.0 + 1e-9
    assert fn(res.point) <= want + 2.0 * eps


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["raised", "lowered"])
@pytest.mark.parametrize("fn,n,center,cap,want", MIN_CASES, ids=MIN_IDS)
def test_min_via_wopt_tolerates_value_adversaries(fn, n, center, cap, want, side):
    """Values off by 0.9 eps in one direction keep the minimum within eps."""
    eps = 0.05
    epi = EpigraphBody(_ball(n, 1.0, center), cap, value_adversary(fn, n, side))
    res = min_via_wopt(epi, InteriorMinCertificate(0.2), eps)
    assert abs(res.value - want) <= eps


def test_min_via_wopt_rejects_oversized_eps():
    epi = EpigraphBody(_ball(2), 4.0, _oracle(lambda x: float(x @ x), 2))
    with pytest.raises(ValueError):
        min_via_wopt(epi, InteriorMinCertificate(0.1), 0.2)  # eps >= margin


def test_min_via_wopt_flags_inconsistent_values():
    """An oracle that shows the probes a far lower function than the epigraph
    machinery saw must trip the certificate check."""

    def two_faced(x, e):
        if float(np.linalg.norm(x)) < 0.51:   # the probe set
            return -100.0
        return float(x @ x)

    vals = FunctionApproxOracle(two_faced, 2, label="rigged")
    epi = EpigraphBody(_ball(2), 4.0, vals)
    with pytest.raises(CertificateError):
        min_via_wopt(epi, InteriorMinCertificate(0.2), 0.05)


FROZEN_DUAL_CERTS = [
    # (primal (k, K, s, t, r), dual (k*, K*, s*, t*, r'))
    ((1.0, 1.0, 2.0, 2.0, 1.0), (0.25, 0.25, 2.0, 2.0, 4.0)),
    ((0.5, 0.5, 2.0, 2.0, 1.0), (0.5, 0.5, 2.0, 2.0, 2.0)),
]


@pytest.mark.parametrize("primal,want", FROZEN_DUAL_CERTS,
                         ids=["square", "half-square"])
def test_dual_growth_constants_frozen(primal, want):
    out = dual_growth_constants(GrowthCertificate(*primal), 0.0)
    got = (out.k_lo, out.k_hi, out.s, out.t, out.r)
    np.testing.assert_allclose(got, want, rtol=1e-9)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dual_growth_constants_refuse_a_bound_that_is_not_finite(bound):
    """A lower bound on f that is not finite raises ValueError: NaN and +inf
    would return a certificate with r' = 1.0, where -1 gives r' = 2.732,
    and -inf would double its search radius until it overflows."""
    with pytest.raises(ValueError, match="f_lower_bound"):
        dual_growth_constants(GrowthCertificate(0.5, 0.5, 2.0, 2.0, 1.0), bound)


def test_dual_growth_sandwich_holds_for_quartic():
    """Conjugate constants from a deliberately slack primal certificate still
    sandwich the exact conjugate beyond the dual radius."""
    ref = make_reference_function("quartic_quarter", 1)
    loose = GrowthCertificate(0.2, 0.3, 4.0, 4.0, 0.5)   # true k is 0.25
    dual = dual_growth_constants(loose, 0.0)
    for z in np.linspace(dual.r + 1e-6, dual.r + 30.0, 200):
        exact = ref.conjugate(np.array([z]))
        assert dual.lower(z) - 1e-9 <= exact <= dual.upper(z) + 1e-9


def test_dual_growth_constants_take_growth_with_s_below_t():
    """f(x) = 0.75 |x|^3 satisfies (k_lo, k_hi, s, t, r) = (0.75, 0.75, 2, 4,
    1). Its conjugate constants (0.5200, 0.3333, 4/3, 2, r' = 3) have
    k_lo > k_hi, a valid sandwich with s < t, and conjugating them gives
    back (0.75, 0.75, 2, 4). The dual sandwich holds the closed form
    f*(y) = (4/9) |y|^(3/2) on [r', r' + 30]. Every primal certificate
    with a nonempty sandwich from r on, of 2,000 random ones with s < t and
    k_lo <= k_hi, has a conjugate certificate."""
    dual = dual_growth_constants(GrowthCertificate(0.75, 0.75, 2.0, 4.0, 1.0), 0.0)
    np.testing.assert_allclose((dual.k_lo, dual.k_hi, dual.s, dual.t, dual.r),
                               (0.75 / 3.0 ** (1.0 / 3.0), 1.0 / 3.0, 4.0 / 3.0, 2.0, 3.0),
                               rtol=1e-9)
    assert dual.k_lo > dual.k_hi
    back = dual_growth_constants(dual, 0.0)
    np.testing.assert_allclose((back.k_lo, back.k_hi, back.s, back.t),
                               (0.75, 0.75, 2.0, 4.0), rtol=1e-9)
    z = np.linspace(dual.r, dual.r + 30.0, 200)
    exact = 4.0 / 9.0 * z ** 1.5
    assert np.all(dual.lower(z) <= exact) and np.all(exact <= dual.upper(z))
    rng = np.random.default_rng(5)
    s = 1.0 + rng.uniform(0.05, 3.0, 2000)
    t = s + rng.uniform(0.0, 3.0, 2000)
    k_lo = rng.uniform(0.05, 3.0, 2000)
    k_hi = k_lo * rng.uniform(1.0, 4.0, 2000)
    r = rng.uniform(0.01, 5.0, 2000)
    nonempty = k_lo * r ** s <= k_hi * r ** t
    assert np.count_nonzero(nonempty) > 1000
    for cert in zip(k_lo[nonempty], k_hi[nonempty], s[nonempty], t[nonempty], r[nonempty]):
        dual_growth_constants(GrowthCertificate(*map(float, cert)), 0.0)
    with pytest.raises(ValueError, match="nonempty sandwich"):
        GrowthCertificate(2.0, 1.0, 2.0, 3.0, 1.5)   # 2 r^2 > r^3 at r = 1.5


CONJ_CASES = [
    ("half_square_norm", 2, [0.6, -0.8]),
    ("half_square_norm", 2, [0.0, 0.0]),
    ("square_norm", 2, [1.0, 0.5]),
    ("quartic_quarter", 1, [2.0]),
    ("quartic_quarter", 1, [-1.2]),
    # steep slopes; at |y| = 10 epi f reaches 560 from its centre, and its
    # gauge slopes shrink with that size, below any fixed flat-gauge floor
    ("half_square_norm", 2, [6.0, 0.0]),
    ("square_norm", 3, [6.0, 0.0, 0.0]),
    ("quartic_quarter", 1, [8.0]),
    ("half_square_norm", 2, [10.0, 0.0]),
    # off-axis and steep, where gauge noise up to half the least quotient
    # norm tilted a separator enough to miss eps
    ("half_square_norm", 2, [7.577, -9.305]),
]


@pytest.mark.parametrize("name,n,y", CONJ_CASES)
def test_fenchel_eval_matches_closed_forms(name, n, y):
    """The value is within eps of the closed form, and the support run's
    certified interval, no wider than eps, holds both; the estimate also
    reports the run's cut count."""
    ref = make_reference_function(name, n)
    eps = 0.05
    est = fenchel_eval(ref.approx_oracle(), ref.cert, y, eps)
    want = ref.conjugate(np.asarray(y, dtype=float))
    assert abs(est.value - want) <= eps
    assert est.interval.contains(want) and est.interval.contains(est.value)
    assert est.interval.width <= eps
    assert est.cuts > 0


def test_fenchel_eval_cost_pin():
    """half_square_norm on R^2 at y = (0.6, -0.8), eps = 0.05, costs at most
    16 evaluations and lands within 0.1 eps of f*(y) = 1/2: every separator
    below the graph returns its graph point as an incumbent and reuses its
    verdict's value, centres below the incumbent get the objective cut at no
    evaluation, and the support run's gap keeps half of eps, however much
    the epigraph's outer/inner weighs on its centre slack."""
    ref = make_reference_function("half_square_norm", 2)
    values = ref.approx_oracle()
    eps = 0.05
    est = fenchel_eval(values, ref.cert, [0.6, -0.8], eps)
    assert values.calls.count <= 16
    assert abs(est.value - 0.5) <= 0.1 * eps


@pytest.mark.parametrize("kind", list(VALUE_ORACLES))
def test_support_batch_split_on_the_pinned_epigraph(kind):
    """The cost pin's epigraph is elongated, x = |c| (1 + outer/inner) > 4,
    so its support run gives the gap err/2 and the dq terms the rest:
    dq x <= err/2, the interval is no wider than err and holds f*(y) = 1/2
    and the witness's value under every value oracle."""
    ref = make_reference_function("half_square_norm", 2)
    y, eps = np.array([0.6, -0.8]), 0.05
    est = fenchel_eval(ref.approx_oracle(), ref.cert, y, eps)
    epi = EpigraphBody(_ball(2, est.radius), est.cap, VALUE_ORACLES[kind](ref.fn, 2))
    oracle = epi.oracle()
    body = oracle.body
    c = np.append(y, -1.0)
    lo, hi, witness, _, dq = support_batch(oracle, body, c[None, :], eps)
    x = float(np.linalg.norm(c)) * (1.0 + body.outer_radius / body.inner_radius)
    assert x > 4.0
    assert dq * x <= eps / 2.0
    assert hi[0] - lo[0] <= eps
    assert lo[0] <= 0.5 <= hi[0]
    assert lo[0] <= float(c @ witness[0]) <= hi[0]


# one point per function of the benchmark's conjugate workload
WORKLOAD_POINTS = [
    ("half_square_norm", 2, [0.6, -0.8]),
    ("square_norm", 3, [1.0, 0.5, -0.3]),
    ("quartic_quarter", 1, [-1.2]),
    # |y| near 3, where the |c| = sqrt(1 + |y|^2) of the engine slack weighs most
    ("half_square_norm", 2, [0.648, -2.929]),
    ("square_norm", 3, [-1.534, -2.534, -0.475]),
]


@pytest.mark.parametrize("kind", list(VALUE_ORACLES))
@pytest.mark.parametrize("name,n,y", WORKLOAD_POINTS)
def test_fenchel_eval_asks_no_point_twice(name, n, y, kind):
    """One fenchel_eval evaluates f~ at no point twice: the entry point asks
    f(0) at e0 to size the ball and the cap and hands that value to the
    epigraph's oracle, which answers the first cut centre (0, cap/4) from
    it. Every centre below the graph pays for f~(x) once, in its verdict,
    and its separator reuses that value."""
    ref = make_reference_function(name, n)
    seen = []

    def fn(x):
        seen.append(x.tobytes())
        return ref.fn(x)

    fenchel_eval(VALUE_ORACLES[kind](fn, n), ref.cert, y, 0.05)
    assert max(collections.Counter(seen).values()) == 1


# the three minima of the benchmark's conjugate workload:
# (function, dimension, ball centre, cap, minimum over the unit ball)
WORKLOAD_MINIMA = [
    ("half_square_norm", 2, (0.3, -0.2), 4.0, 0.0),
    ("exp_pair", 2, (0.0, 0.0), 8.0, 2.0),
    ("square_norm", 3, (0.25, 0.25, 0.25), 8.0, 0.0),
]


@pytest.mark.parametrize("kind", list(VALUE_ORACLES))
@pytest.mark.parametrize("name,n,center,cap,want", WORKLOAD_MINIMA)
def test_min_via_wopt_asks_no_point_twice(name, n, center, cap, want, kind):
    """One min_via_wopt evaluates f~ at no point twice: the epigraph's store
    holds every value the run buys, so a later centre at a point already
    asked reads it, and so does the certificate's probe at the ball's
    centre, which the run has asked at a slack below eps / 4."""
    ref = make_reference_function(name, n)
    seen = []

    def fn(x):
        seen.append(x.tobytes())
        return ref.fn(x)

    epi = EpigraphBody(_ball(n, 1.0, center), cap, VALUE_ORACLES[kind](fn, n))
    res = min_via_wopt(epi, InteriorMinCertificate(0.5), 0.05)
    assert abs(res.value - want) <= 0.05
    assert max(collections.Counter(seen).values()) == 1


@pytest.mark.parametrize("name,n,y", WORKLOAD_POINTS)
def test_fenchel_eval_asks_f_at_the_origin_once(name, n, y, monkeypatch):
    """fenchel_eval buys f~(0) at e0 to size the ball and the cap, and hands
    that value to the epigraph's oracle: the first cut centre (0, cap/4)
    lies above f~(0) + e0, so its verdict is IN at no evaluation, and f is
    asked at x = 0 exactly once."""
    ref = make_reference_function(name, n)
    at_origin = []
    plain = FunctionApproxOracle.eval

    def counted(self, x, eps):
        if not np.any(np.asarray(x, dtype=float)):
            at_origin.append(eps)
        return plain(self, x, eps)

    monkeypatch.setattr(FunctionApproxOracle, "eval", counted)
    est = fenchel_eval(ref.approx_oracle(), ref.cert, y, 0.05)
    assert len(at_origin) == 1
    assert abs(est.value - ref.conjugate(np.asarray(y, dtype=float))) <= 0.05


def test_fenchel_eval_with_negative_value_at_the_origin():
    """f(x) = |x|^2 - 4 has f(0) < 0 and f*(y) = |y|^2/4 + 4, and obeys the
    certificate (1/2, 1, 2, 2, 3): |x|^2/2 <= |x|^2 - 4 <= |x|^2 for
    |x| >= 3. The ball is the rho of the threshold max(f0_hi, 0) = 0, the
    least rho >= 3 with rho (rho/2 - |y|) > 0, so max(3, 2|y|), and beyond
    it y . x - f(x) < -f(0) = 4. Each certified interval holds the closed
    form, at |y| from 0 to 10."""
    n, eps = 2, 0.05
    cert = GrowthCertificate(0.5, 1.0, 2.0, 2.0, 3.0)
    fn = lambda x: float(x @ x) - 4.0  # noqa: E731
    rng = rng_stream(65, n)
    for norm in [0.0, 0.5, 1.2, 1.5, 2.5, 4.0, 7.0, 10.0]:
        d = rng.normal(size=n)
        y = norm * d / np.linalg.norm(d)
        want = 0.25 * float(y @ y) + 4.0
        est = fenchel_eval(_oracle(fn, n), cert, y, eps)
        assert est.interval.contains(want) and est.interval.width <= eps
        assert abs(est.value - want) <= eps
        rho = est.radius
        assert rho * (0.5 * rho - norm) > 0.0
        assert rho == pytest.approx(max(3.0, 2.0 * norm), rel=1e-9)
        X = _ball_points(rng, 400, n, rho, 3.0 * rho)
        X[0] = rho * (y / norm if norm > 0.0 else np.eye(n)[0])
        assert np.all(X @ y - np.array([fn(x) for x in X]) < -fn(np.zeros(n)))


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["raised", "lowered"])
@pytest.mark.parametrize("name,n,y", WORKLOAD_POINTS)
def test_fenchel_eval_tolerates_value_adversaries(name, n, y, side):
    """Values off by 0.9 eps in one direction keep the conjugate within eps;
    the separators of the run probe epigraphs built from those values."""
    ref = make_reference_function(name, n)
    eps = 0.05
    est = fenchel_eval(value_adversary(ref.fn, n, side), ref.cert, y, eps)
    assert abs(est.value - ref.conjugate(np.asarray(y, dtype=float))) <= eps


def test_quartic_conjugate_frozen_value():
    # (3/4) |y|^{4/3} at y = 2
    ref = make_reference_function("quartic_quarter", 1)
    assert ref.conjugate(np.array([2.0])) == pytest.approx(1.8898815748423097)


def test_fenchel_young_inequality():
    """f(x) + f*(y) >= x . y up to the advertised slack, on sampled pairs."""
    ref = make_reference_function("half_square_norm", 2)
    eps = 0.05
    rng = rng_stream(61, 0)
    ys = rng.normal(size=(5, 2))
    for y in ys:
        est = fenchel_eval(ref.approx_oracle(), ref.cert, y, eps)
        for x in rng.normal(size=(20, 2)):
            assert ref.fn(x) + est.value >= float(x @ y) - eps


def test_fenchel_eval_argmax_is_consistent():
    ref = make_reference_function("half_square_norm", 2)
    y = np.array([0.3, 0.4])
    est = fenchel_eval(ref.approx_oracle(), ref.cert, y, 0.05)
    # the reported maximizer nearly achieves the reported value
    attained = float(y @ est.argmax) - ref.fn(est.argmax)
    assert attained >= est.value - 0.15


def test_fenchel_brute_on_nonconvex_demo():
    ref = make_reference_function("clamped_negative_product", 3)
    # at y = 0 the conjugate is sup -f = -min f = 1 (the clamp floor), and an
    # odd mesh over a radius-2 ball hits a clamped point exactly
    got = fenchel_brute(ref.fn, np.zeros(3), radius=2.0, mesh=41)
    assert got == pytest.approx(1.0)


def test_fenchel_brute_agrees_with_closed_form():
    ref = make_reference_function("quartic_quarter", 1)
    got = fenchel_brute(ref.fn, [2.0], radius=3.0, mesh=3001)
    assert got == pytest.approx(ref.conjugate(np.array([2.0])), abs=2e-3)


def test_fenchel_brute_validation():
    with pytest.raises(ValueError):
        fenchel_brute(lambda x: 0.0, np.zeros(4), radius=1.0)
    with pytest.raises(ValueError):
        fenchel_brute(lambda x: 0.0, np.zeros(2), radius=0.0)
    with pytest.raises(ValueError):
        fenchel_brute(lambda x: 0.0, np.zeros(2), radius=1.0, mesh=1)


def test_reference_function_registry():
    with pytest.raises(ValueError):
        make_reference_function("nope", 2)
    with pytest.raises(ValueError):
        make_reference_function("quartic_quarter", 2)
    with pytest.raises(ValueError):
        make_reference_function("clamped_negative_product", 2)
    ref = make_reference_function("exp_pair", 2)
    assert ref.cert is None
    assert ref.fn(np.zeros(2)) == pytest.approx(2.0)


@pytest.mark.parametrize("name,n,y", [("half_square_norm", 2, [1e200, 0.0]),
                                      ("square_norm", 3, [-1e200, 1e200, 0.0])])
def test_fenchel_eval_raises_where_the_cap_overflows(name, n, y):
    """y is finite, but |y| overflows the plain Euclidean norm, and the
    localization ball's cap f(rho) overflows: fenchel_eval raises
    ValueError, with no value asked beyond f(0), where an infinite |y| would
    keep the search for rho from ever ending."""
    ref = make_reference_function(name, n)
    values = ref.approx_oracle()
    with pytest.raises(ValueError, match="overflows"):
        fenchel_eval(values, ref.cert, y, 0.05)
    assert values.calls.count == 1


def test_fenchel_eval_raises_where_the_ellipsoid_overflows():
    """At y = -1e200 on quartic_quarter/R^1 the localization radius and the
    cap (about 1.5e267) are finite, but the stated ellipsoid's squared
    semi-axis along tau, (0.75 cap sqrt(2))^2, is not: EpigraphBody.body()
    raises ValueError before squaring it, with no overflow warning (the
    suite turns warnings into errors) and no value asked beyond f(0)."""
    ref = make_reference_function("quartic_quarter", 1)
    values = ref.approx_oracle()
    with pytest.raises(ValueError, match="squared semi-axis .* overflows"):
        fenchel_eval(values, ref.cert, [-1e200], 0.05)
    assert values.calls.count == 1
