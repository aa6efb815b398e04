import math

import numpy as np
import pytest

from convexdual.core import CenteredBody, WeakVerdict, rng_stream
from convexdual.oracles import (
    FunctionApproxOracle,
    ReferenceCone,
    ReferenceNorm,
    exact_to_weak,
    smat,
    svec,
)

# frozen closed-form values, each worked out by hand before being written down
FROZEN_NORMS = [
    (ReferenceNorm.lp(2.0, 2), [3.0, 4.0], 5.0),
    (ReferenceNorm.lp(1.0, 3), [1.0, -2.0, 0.5], 3.5),
    (ReferenceNorm.lp(math.inf, 3), [1.0, -2.0, 0.5], 2.0),
    (ReferenceNorm.lp(3.0, 2), [1.0, 1.0], 2.0 ** (1.0 / 3.0)),
    (ReferenceNorm.lp(4.0, 2), [0.7, 0.7], 0.7 * 2.0 ** 0.25),
    (ReferenceNorm.weighted_l2([2.0, 0.5]), [1.0, 2.0], math.sqrt(5.0)),
    (ReferenceNorm.box(2), [0.3, -0.8], 0.8),
    (ReferenceNorm.cross(2), [0.3, -0.8], 1.1),
]


@pytest.mark.parametrize("norm,x,want", FROZEN_NORMS,
                         ids=[f"{n.kind}-{i}" for i, (n, _, _) in enumerate(FROZEN_NORMS)])
def test_reference_norm_frozen_values(norm, x, want):
    assert norm.eval(x) == pytest.approx(want, rel=1e-12)


def test_lp_rejects_bad_p():
    with pytest.raises(ValueError):
        ReferenceNorm.lp(0.5, 2)


def test_reference_norm_sandwich_holds_everywhere():
    """The advertised constants really wedge the norm between Euclidean balls."""
    norms = [
        ReferenceNorm.lp(1.0, 4),
        ReferenceNorm.lp(1.7, 3),
        ReferenceNorm.lp(5.0, 3),
        ReferenceNorm.lp(math.inf, 5),
        ReferenceNorm.weighted_l2([0.3, 1.0, 4.0]),
        ReferenceNorm.box(4),
        ReferenceNorm.cross(3),
        ReferenceNorm.polyhedral(rng_stream(5, 1).normal(size=(7, 3))),
    ]
    rng = rng_stream(5, 0)
    for norm in norms:
        pts = rng.normal(size=(200, norm.n))
        vals = norm.eval_batch(pts)
        euclid = np.linalg.norm(pts, axis=1)
        assert np.all(vals >= norm.descriptor.k_lo * euclid - 1e-12)
        assert np.all(vals <= norm.descriptor.k_hi * euclid + 1e-12)


def test_eval_batch_matches_scalar():
    rng = rng_stream(6, 0)
    for norm in (ReferenceNorm.lp(3.0, 3), ReferenceNorm.box(3),
                 ReferenceNorm.weighted_l2([1.0, 2.0, 3.0])):
        pts = rng.normal(size=(50, 3))
        batch = norm.eval_batch(pts)
        single = np.array([norm.eval(p) for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)


def test_dual_norm_closed_forms():
    rng = rng_stream(7, 0)
    pairs = [
        (ReferenceNorm.lp(2.0, 3), 2.0),
        (ReferenceNorm.lp(1.0, 3), math.inf),
        (ReferenceNorm.lp(3.0, 3), 1.5),
        (ReferenceNorm.box(3), None),   # dual is the sum norm
        (ReferenceNorm.cross(3), None),  # dual is the max norm
    ]
    for norm, q in pairs:
        dual = norm.dual()
        if q is not None:
            assert dual.p == pytest.approx(q)
        pts = rng.normal(size=(40, 3))
        # Cauchy-Schwarz style pairing bound: x.y <= nu(x) nu*(y)
        for x in pts[:20]:
            for y in pts[20:]:
                lhs = float(x @ y)
                rhs = norm.eval(x) * dual.eval(y) + 1e-9
                assert lhs <= rhs


def test_box_cross_duality_is_mutual():
    # dual of the max norm is the sum norm and vice versa
    x = np.array([0.4, -1.2, 0.3])
    assert ReferenceNorm.box(3).dual().eval(x) == pytest.approx(1.9)
    assert ReferenceNorm.cross(3).dual().eval(x) == pytest.approx(1.2)


def test_generic_polyhedral_has_no_closed_dual():
    norm = ReferenceNorm.polyhedral(rng_stream(8, 0).normal(size=(5, 2)))
    with pytest.raises(ValueError):
        norm.dual()


def test_reference_dual_norm_helper():
    dual = ReferenceNorm.lp(2.0, 2).dual()
    assert dual.eval([3.0, 4.0]) == pytest.approx(5.0)


def test_descriptor_constants_rounded_outward():
    # directional sample check should never be able to beat the constants
    for p in (1.0, 1.3, 2.0, 4.0, math.inf):
        norm = ReferenceNorm.lp(p, 4)
        assert norm.descriptor.k_lo <= norm.descriptor.k_hi


def test_weak_oracle_verdicts_and_counting():
    norm = ReferenceNorm.lp(2.0, 2)
    oracle = norm.oracle()
    assert oracle.query([0.5, 0.0], 0.01) is WeakVerdict.IN_THICKENED
    assert oracle.query([2.0, 0.0], 0.01) is WeakVerdict.NOT_IN_SHRUNK
    assert oracle.calls.count == 2
    with pytest.raises(ValueError):
        oracle.query([0.5, 0.0], 0.0)
    with pytest.raises(ValueError):
        oracle.query([0.5, 0.0], math.inf)


def test_weak_oracle_batch_matches_scalar_loop():
    norm = ReferenceNorm.lp(1.0, 3)
    oracle = norm.oracle()
    rng = rng_stream(9, 0)
    pts = rng.normal(size=(100, 3)) * 0.8
    batch = oracle.query_batch(pts, 0.01)
    single = np.array([norm.oracle().query(p, 0.01) is WeakVerdict.IN_THICKENED
                       for p in pts])
    np.testing.assert_array_equal(batch, single)
    assert oracle.calls.count == 100


def test_exact_to_weak_is_a_legal_weak_oracle():
    body = CenteredBody(np.zeros(2), 1.0, 1.0)
    oracle = exact_to_weak(lambda X: np.linalg.norm(X, axis=1) <= 1.0, body)
    # members stay IN under any slack, non-members stay NOT under any slack
    for delta in (1e-6, 0.1, 0.4):
        assert oracle.query([0.99, 0.0], delta) is WeakVerdict.IN_THICKENED
        assert oracle.query([1.01, 0.0], delta) is WeakVerdict.NOT_IN_SHRUNK


def test_weak_oracle_rejects_bad_points_before_counting():
    """Both entry points share one input check: non-finite coordinates and
    arrays of the wrong shape raise, and no call is charged."""
    oracle = ReferenceNorm.lp(2.0, 2).oracle()
    for bad in ([[math.nan, 0.0]], [[0.0, math.inf]], [[1.0, 0.0], [-math.inf, 0.0]]):
        with pytest.raises(ValueError):
            oracle.query_batch(bad, 0.01)
        with pytest.raises(ValueError):
            oracle.query(bad[-1], 0.01)
    for bad in (np.zeros((2, 2, 2)), np.zeros(2), np.zeros((2, 3))):
        with pytest.raises(ValueError):
            oracle.query_batch(bad, 0.01)
    for bad in (np.zeros((2, 2, 2)), np.zeros((1, 2)), np.zeros(3)):
        with pytest.raises(ValueError):
            oracle.query(bad, 0.01)
    assert oracle.calls.count == 0


def test_function_approx_oracle_rejects_nonfinite():
    oracle = FunctionApproxOracle(lambda x, e: math.inf, 2)
    with pytest.raises(ValueError):
        oracle.eval([0.0, 0.0], 0.1)


# -- symmetric matrix embedding ------------------------------------------------

def test_svec_smat_roundtrip_and_isometry():
    rng = rng_stream(10, 0)
    for d in (2, 3, 4):
        A = rng.normal(size=(d, d))
        M = 0.5 * (A + A.T)
        v = svec(M)
        assert v.shape == (d * (d + 1) // 2,)
        np.testing.assert_allclose(smat(v), M, atol=1e-12)
        # Frobenius isometry is what makes Euclidean slacks meaningful
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(M, "fro"))


def test_smat_rejects_bad_length():
    with pytest.raises(ValueError):
        smat(np.ones(5))


# -- reference cones -----------------------------------------------------------

def test_orthant_membership_and_margin():
    cone = ReferenceCone("orthant", 3)
    assert cone.member([1.0, 2.0, 0.0])
    assert not cone.member([1.0, -0.1, 2.0])
    assert cone.boundary_margin([1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert cone.boundary_margin([1.0, -0.3, 3.0]) == pytest.approx(-0.3)


def test_soc_membership_and_margin():
    cone = ReferenceCone("soc", 3)
    assert cone.member([0.3, 0.4, 0.6])
    assert not cone.member([0.3, 0.4, 0.4])
    # margin is the normal distance to the 45-degree boundary
    assert cone.boundary_margin([0.0, 0.0, 1.0]) == pytest.approx(1.0 / math.sqrt(2.0))
    assert cone.boundary_margin([1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_psd_membership_margin_is_min_eigenvalue():
    cone = ReferenceCone("psd", 2)
    eye = svec(np.eye(2))
    assert cone.member(eye)
    assert cone.boundary_margin(eye) == pytest.approx(1.0)
    indef = svec(np.array([[1.0, 0.0], [0.0, -0.5]]))
    assert not cone.member(indef)
    assert cone.boundary_margin(indef) == pytest.approx(-0.5)


def test_cone_normalization_of_interior_data():
    for kind, n in [("orthant", 4), ("soc", 4), ("psd", 3)]:
        cone = ReferenceCone(kind, n)
        assert float(cone.b @ cone.a) == pytest.approx(1.0)
        assert cone.member(cone.a)
        # the interior balls really sit inside the cone
        rng = rng_stream(12, 0)
        for _ in range(50):
            u = rng.normal(size=cone.n)
            u *= 0.99 * cone.eps_a / np.linalg.norm(u)
            assert cone.member(cone.a + u)


def test_cone_member_batch_matches_scalar():
    for kind, n in [("orthant", 3), ("soc", 4), ("psd", 3)]:
        cone = ReferenceCone(kind, n)
        pts = rng_stream(13, 0).normal(size=(80, cone.n))
        batch = cone.member_batch(pts)
        single = np.array([cone.member(p) for p in pts])
        np.testing.assert_array_equal(batch, single)


def test_cone_oracle_body_is_unbounded():
    cone = ReferenceCone("orthant", 3)
    oracle = cone.oracle()
    assert math.isinf(oracle.body.outer_radius)
    assert oracle.query(cone.a, 0.01) is WeakVerdict.IN_THICKENED


def test_unknown_cone_kind():
    with pytest.raises(ValueError):
        ReferenceCone("icecream", 3)
