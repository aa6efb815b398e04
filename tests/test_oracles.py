import math

import numpy as np
import pytest

from convexdual import normdual
from convexdual.core import CenteredBody, WeakVerdict, rng_stream
from convexdual.oracles import (
    FunctionApproxOracle,
    ReferenceCone,
    ReferenceNorm,
    WeakMembershipOracle,
    _psd_min_eigs,
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


def test_polyhedral_cannot_claim_a_closed_dual():
    """Only box and cross set their closed-form dual; polyhedral takes no
    tag, so a generic generator matrix cannot claim the l1 dual."""
    G = rng_stream(8, 0).normal(size=(5, 2))
    with pytest.raises(TypeError):
        ReferenceNorm.polyhedral(G, dual_tag="box")


@pytest.mark.parametrize("build", [lambda: ReferenceNorm.box(0), lambda: ReferenceNorm.cross(0),
                                   lambda: ReferenceNorm.cross(-1),
                                   lambda: ReferenceNorm.polyhedral([]),
                                   lambda: ReferenceNorm.polyhedral([[]]),
                                   lambda: ReferenceNorm.lp(3.0, 0),
                                   lambda: ReferenceNorm.lp(math.inf, 0)],
                         ids=["box-0", "cross-0", "cross-minus-1", "polyhedral-empty",
                              "polyhedral-empty-row", "l3-0", "linf-0"])
def test_degenerate_polyhedral_norms_raise_value_error(build):
    """A box or cross norm in no dimension, an empty generator matrix, and
    an lp norm with p > 2 in no dimension raise ValueError, not an
    IndexError, TypeError or ZeroDivisionError from the factory's
    arithmetic."""
    with pytest.raises(ValueError):
        build()


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


def test_weak_oracle_rejects_verdicts_of_the_wrong_shape():
    """A verdict function must answer m rows with m verdicts, shape (m,).
    A scalar, a single verdict or an (m, 1) column raises ValueError from
    query_batch, from query and from a pipeline that asks the oracle
    (dual_norm_eval), where numpy would broadcast the first two to every
    row asked and refuse the column deep inside the engine. For query's one
    row a single verdict is the right shape."""
    norm = ReferenceNorm.lp(1.0, 2)
    answers = {
        "scalar": lambda X, delta: norm.eval_batch(X)[0] <= 1.0,
        "single": lambda X, delta: (norm.eval_batch(X) <= 1.0)[:1],
        "column": lambda X, delta: (norm.eval_batch(X) <= 1.0)[:, None],
    }
    for name, fn in answers.items():
        oracle = WeakMembershipOracle(fn, norm.ball())
        with pytest.raises(ValueError, match="verdict function"):
            oracle.query_batch(np.full((3, 2), 0.2), 0.01)
        with pytest.raises(ValueError, match="verdict function"):
            normdual.dual_norm_eval(oracle, norm.descriptor, [0.3, 0.7], 0.01)
        if name != "single":
            with pytest.raises(ValueError, match="verdict function"):
                oracle.query([0.2, 0.2], 0.01)


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
    # svec order: column by column, each from the diagonal down
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    r = math.sqrt(2.0)
    np.testing.assert_array_equal(svec(M), [1.0, 2.0 * r, 3.0 * r, 4.0, 5.0 * r, 6.0])
    np.testing.assert_array_equal(smat(svec(M)), M)


def test_svec_rejects_a_matrix_symmetric_only_to_numpy_default_tolerance():
    """An asymmetry of 4e-6 passes np.allclose's default rtol of 1e-5, and
    svec would then silently read the lower triangle; it must raise. An
    asymmetry at rounding level is still accepted. A scalar, a vector and a
    non-square matrix raise ValueError too, not IndexError."""
    with pytest.raises(ValueError, match="symmetric"):
        svec([[1.0, 0.5], [0.500004, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        svec([[1e6, 0.5e6], [0.5e6 + 1e-3, 1e6]])
    v = svec([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    assert v[1] == pytest.approx(0.5 * math.sqrt(2.0), abs=1e-14)
    for bad in (1.0, [1.0, 2.0], [[1.0, 2.0]]):  # not a square matrix
        with pytest.raises(ValueError, match="symmetric"):
            svec(bad)


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


def _numpy_margin(cone, x):
    """The cone's boundary margin in numpy, the reference of its closed forms."""
    v = np.asarray(x, dtype=float)
    if cone.kind == "orthant":
        neg = np.minimum(v, 0.0)
        return -float(np.linalg.norm(neg)) if np.any(neg < 0.0) else float(v.min())
    if cone.kind == "soc":
        u, t = float(np.linalg.norm(v[:-1])), float(v[-1])
        return -float(np.linalg.norm(v)) if t <= -u else (t - u) / math.sqrt(2.0)
    eigs = np.linalg.eigvalsh(smat(v))
    return float(eigs[0]) if eigs[0] >= 0.0 else -float(np.linalg.norm(np.minimum(eigs, 0.0)))


# spectra of rotated 3 x 3 matrices, from two positive magnitudes l and m
PSD3_SPECTRA = {
    "double-positive": lambda l, m: [l, l, m], "double-negative": lambda l, m: [-l, -l, m],
    "double-mixed": lambda l, m: [l, l, -m], "near-double": lambda l, m: [l, l * (1 + 1e-14), -m],
    "identity": lambda l, m: [l, l, l], "negative-identity": lambda l, m: [-l, -l, -l],
    "rank-1": lambda l, m: [l, 0.0, 0.0], "rank-1-negative": lambda l, m: [-l, 0.0, 0.0],
    "rank-2": lambda l, m: [l, -m, 0.0], "rank-2-positive": lambda l, m: [l, m, 0.0],
}
PSD3_FAMILIES = ["random", "diagonal", "subnormal-off-diagonal", *PSD3_SPECTRA]


def _psd3_points(family):
    """svec points of one family of symmetric 3 x 3 matrices."""
    rng = rng_stream(15, PSD3_FAMILIES.index(family))
    if family == "random":
        return rng.normal(size=(200, 6))
    if family == "diagonal":
        return np.array([svec(np.diag(rng.normal(size=3))) for _ in range(20)])
    if family == "subnormal-off-diagonal":
        X = np.array([svec(np.diag(rng.normal(size=3))) for _ in range(20)])
        X[:, [1, 2, 4]] = 1e-310 * rng.normal(size=(20, 3))
        return X
    out = []
    for l, m in np.abs(rng.normal(size=(10, 2))) + 0.1:
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        M = Q @ np.diag(PSD3_SPECTRA[family](l, m)) @ Q.T
        out.append(svec((M + M.T) / 2.0))
    return np.array(out)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("family", PSD3_FAMILIES)
def test_psd3_margin_closed_form_matches_eigvalsh(family, scale):
    """The 3 x 3 closed form gives eigvalsh's margin to 1e-13 max(1, |x|)
    at every scale, double and triple eigenvalues, singular matrices and
    subnormal entries included."""
    cone = ReferenceCone("psd", 3)
    for x in scale * _psd3_points(family):
        want = _numpy_margin(cone, x)
        assert abs(cone.boundary_margin(x) - want) <= 1e-13 * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("kind,n", [("orthant", 4), ("soc", 4), ("soc", 2), ("psd", 2),
                                    ("psd", 4)])
def test_cone_margin_matches_numpy_forms(kind, n):
    """Orthant and soc margins equal their numpy forms to a few ulps of |x|,
    on both sides of the cone and in the soc's polar region; psd(2) and
    psd(4), which take eigvalsh, to rounding."""
    cone = ReferenceCone(kind, n)
    X = rng_stream(16, n).normal(size=(300, cone.n)) * np.logspace(-150, 150, 300)[:, None]
    X[::3] = np.abs(X[::3])  # a third inside the orthant
    for x in X:
        want = _numpy_margin(cone, x)
        assert abs(cone.boundary_margin(x) - want) <= 8 * np.finfo(float).eps * np.linalg.norm(x)


@pytest.mark.parametrize("d,asks", [(2, True), (3, False), (4, True)])
def test_psd_margin_takes_eigvalsh_except_for_3x3(monkeypatch, d, asks):
    asked = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: asked.append(M) or eigvalsh(M))
    cone = ReferenceCone("psd", d)
    assert cone.boundary_margin(cone.a) == pytest.approx(1.0 / math.sqrt(d))
    assert bool(asked) is asks


@pytest.mark.parametrize("kind,n", [("orthant", 3), ("soc", 3), ("psd", 2), ("psd", 3)])
def test_cone_margin_rejects_bad_points(kind, n):
    cone = ReferenceCone(kind, n)
    good = np.ones(cone.n)
    for bad in (np.append(good[1:], np.nan), np.append(good[1:], np.inf),
                np.append(good[1:], -np.inf), good[1:], np.append(good, 1.0), good[None, :]):
        with pytest.raises(ValueError):
            cone.boundary_margin(bad)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_psd_min_eigs_match_one_matrix_at_a_time(d):
    """The batched eigenvalues equal those of smat row by row, bit for bit,
    so the psd verdicts cannot move."""
    X = rng_stream(14, d).normal(size=(300, d * (d + 1) // 2))
    want = [np.linalg.eigvalsh(smat(x))[0] for x in X]
    np.testing.assert_array_equal(_psd_min_eigs(X, d), want)
    assert _psd_min_eigs(X[:0], d).shape == (0,)


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


@pytest.mark.parametrize("kind", ["orthant", "soc"])
def test_reference_cone_membership_where_the_norm_overflows(kind):
    """Points whose plain Euclidean norm overflows keep the membership of
    their scaled-down copies: the rounding tolerance stays finite."""
    cone = ReferenceCone(kind, 3)
    X = np.array([[-1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0.5, 1.0], [1.0, 1.0, 1.5]])
    np.testing.assert_array_equal(cone.member_batch(1e200 * X), cone.member_batch(X))
    assert not cone.member_batch(1e200 * X)[0]
