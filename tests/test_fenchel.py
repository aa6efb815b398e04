import math

import numpy as np
import pytest

from adversaries import value_adversary
from convexdual.core import WeakVerdict, rng_stream
from convexdual.fenchel import (
    CertificateError,
    EpigraphBody,
    GrowthCertificate,
    InteriorMinCertificate,
    dual_growth_constants,
    epigraph_wmem,
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


def test_epigraph_body_validation():
    vals = _oracle(lambda x: float(x @ x), 2)
    with pytest.raises(ValueError):
        EpigraphBody(CenteredBody(np.zeros(2), 0.5, 1.0), 4.0, vals)
    with pytest.raises(ValueError):
        EpigraphBody(_ball(2), 0.0, vals)
    with pytest.raises(ValueError):
        EpigraphBody(_ball(3), 4.0, vals)
    epi = EpigraphBody(_ball(2), 4.0, vals)
    assert epi.n == 3
    body = epi.body()
    np.testing.assert_allclose(body.center, [0.0, 0.0, 3.0])
    assert body.inner_radius == pytest.approx(1.0)
    assert body.outer_radius == pytest.approx(math.hypot(1.0, 5.0))


def test_epigraph_wmem_budget_and_verdicts():
    vals = _oracle(lambda x: float(x @ x), 2)
    epi = EpigraphBody(_ball(2), 4.0, vals)

    # the main branch costs exactly one function evaluation
    assert epigraph_wmem(epi, [0.5, 0.0, 1.0], 0.01) is WeakVerdict.IN_THICKENED
    assert vals.calls.count == 1
    assert epigraph_wmem(epi, [0.5, 0.0, 0.1], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert vals.calls.count == 2

    # off the ball or above the cap: decided without touching the function
    assert epigraph_wmem(epi, [2.0, 0.0, 1.0], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert epigraph_wmem(epi, [0.0, 0.0, 9.0], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert vals.calls.count == 2

    with pytest.raises(ValueError):
        epigraph_wmem(epi, [0.0, 0.0, 1.0], 2.0)   # eps >= cap / 2


MIN_CASES = [
    # (fn, n, ball center, expected min over the unit-radius ball)
    (lambda x: float((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2) + 0.7, 2,
     (0.0, 0.0), 0.7),
    (lambda x: math.exp(float(x[0])) + math.exp(-float(x[0])), 2,
     (0.0, 0.0), 2.0),
    (lambda x: 2.0 * float((x - 0.25) @ (x - 0.25)), 3,
     (0.25, 0.25, 0.25), 0.0),
]


@pytest.mark.parametrize("fn,n,center,want", MIN_CASES,
                         ids=["shifted-quadratic", "exp-pair", "centered"])
def test_min_via_wopt_accuracy(fn, n, center, want):
    eps = 0.05
    epi = EpigraphBody(_ball(n, 1.0, center), 8.0, _oracle(fn, n))
    res = min_via_wopt(epi, InteriorMinCertificate(0.2), eps)
    assert abs(res.value - want) <= eps
    assert res.oracle_calls > 0
    # the reported point is feasible and nearly optimal itself
    assert np.linalg.norm(res.point - np.asarray(center)) <= 1.0 + 1e-9
    assert fn(res.point) <= want + 2.0 * eps


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["raised", "lowered"])
@pytest.mark.parametrize("fn,n,center,want", MIN_CASES,
                         ids=["shifted-quadratic", "exp-pair", "centered"])
def test_min_via_wopt_tolerates_value_adversaries(fn, n, center, want, side):
    """Values off by 0.9 eps in one direction keep the minimum within eps."""
    eps = 0.05
    epi = EpigraphBody(_ball(n, 1.0, center), 8.0, value_adversary(fn, n, side))
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


def test_dual_growth_sandwich_holds_for_quartic():
    """Conjugate constants from a deliberately slack primal certificate still
    sandwich the exact conjugate beyond the dual radius."""
    ref = make_reference_function("quartic_quarter", 1)
    loose = GrowthCertificate(0.2, 0.3, 4.0, 4.0, 0.5)   # true k is 0.25
    dual = dual_growth_constants(loose, 0.0)
    for z in np.linspace(dual.r + 1e-6, dual.r + 30.0, 200):
        exact = ref.conjugate(np.array([z]))
        assert dual.lower(z) - 1e-9 <= exact <= dual.upper(z) + 1e-9


CONJ_CASES = [
    ("half_square_norm", 2, [0.6, -0.8]),
    ("half_square_norm", 2, [0.0, 0.0]),
    ("square_norm", 2, [1.0, 0.5]),
    ("quartic_quarter", 1, [2.0]),
    ("quartic_quarter", 1, [-1.2]),
]


@pytest.mark.parametrize("name,n,y", CONJ_CASES)
def test_fenchel_eval_matches_closed_forms(name, n, y):
    ref = make_reference_function(name, n)
    eps = 0.05
    est = fenchel_eval(ref.approx_oracle(), ref.cert, y, eps)
    assert abs(est.value - ref.conjugate(np.asarray(y, dtype=float))) <= eps


# one point per function of the benchmark's conjugate workload
@pytest.mark.parametrize("side", [0.9, -0.9], ids=["raised", "lowered"])
@pytest.mark.parametrize("name,n,y", [
    ("half_square_norm", 2, [0.6, -0.8]),
    ("square_norm", 3, [1.0, 0.5, -0.3]),
    ("quartic_quarter", 1, [-1.2]),
])
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
