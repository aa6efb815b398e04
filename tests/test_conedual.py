import math

import numpy as np
import pytest

from adversaries import cone_band_adversary
from convexdual.conedual import (
    ConeDescriptor,
    _section_basis,
    _section_query_delta,
    descriptor_from_reference,
    dual_cone_wmem,
    normalize_cone,
)
from convexdual.core import WeakVerdict, rng_stream
from convexdual.oracles import ReferenceCone


def _orthant_desc(n=3):
    return descriptor_from_reference(ReferenceCone("orthant", n))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ConeDescriptor(2, [1.0, 0.0], [-1.0, 0.0], 0.5, 0.5, 1.0)  # b.a < 0
    with pytest.raises(ValueError):
        ConeDescriptor(2, [1.0, 0.0], [1.0, 0.0], 0.0, 0.5, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_descriptor_rejects_non_finite_radii(bad):
    """A NaN radius used to fail only inside CenteredBody, and an infinite
    section bound only at the dual-cone oracle's first query."""
    good = dict(eps_a=0.5, eps_b=0.5, section_outer=1.0)
    for field in good:
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            ConeDescriptor(2, [1.0, 0.0], [1.0, 0.0], **{**good, field: bad})


def test_normalize_cone_rescales_a():
    desc = ConeDescriptor(2, [2.0, 2.0], [0.5, 0.5], 0.5, 0.25, 1.0)
    assert float(desc.b @ desc.a) == pytest.approx(2.0)
    out = normalize_cone(desc)
    assert float(out.b @ out.a) == pytest.approx(1.0)
    # eps_a shrinks with a, and the slice bound absorbs the shift of a
    assert out.eps_a == pytest.approx(0.25)
    assert out.section_outer > desc.section_outer
    # already-normalized data passes through unchanged
    again = normalize_cone(out)
    np.testing.assert_array_equal(again.a, out.a)


def test_section_frame_round_trip():
    """The section basis gives orthonormal coordinates on every hyperplane
    normal . z = normal . offset: ambient points built from coordinates lie
    on the hyperplane, and the coordinates come back."""
    rng = rng_stream(42, 0)
    for n in (2, 3, 5):
        normal = rng.normal(size=n)
        offset = rng.normal(size=n)
        basis = _section_basis(normal)
        assert basis.shape == (n, n - 1)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n - 1), atol=1e-12)
        u = rng.normal(size=n - 1)
        y = offset + basis @ u
        np.testing.assert_allclose(basis.T @ (y - offset), u, atol=1e-12)
        assert float(normal @ (y - offset)) == pytest.approx(0.0, abs=1e-10)


def test_section_frame_is_deterministic():
    a = _section_basis(np.array([1.0, 1.0, 1.0]))
    b = _section_basis(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(a, b)


def test_cone_to_section_transfer_verdicts():
    """Slice verdicts derived from the cone oracle, asked in frame
    coordinates, agree with exact slice membership away from the boundary."""
    cone = ReferenceCone("orthant", 3)
    desc = _orthant_desc(3)
    basis = _section_basis(desc.b)
    oracle = cone.oracle()
    dual = dual_cone_wmem(oracle, desc)
    rng = rng_stream(43, 0)
    eps = 0.05
    U = rng.normal(size=(60, 2)) * 0.8
    Y = desc.a + U @ basis.T
    margin = np.array([cone.boundary_margin(y) for y in Y])
    clear = np.abs(margin) >= 2.0 * eps * np.linalg.norm(Y, axis=1)
    # one batch answers row by row: the shared slack is the row minimum,
    # which is sound for every row
    got = dual._kb_oracle.query_batch(U, eps)
    np.testing.assert_array_equal(got[clear], margin[clear] > 0)
    assert oracle.calls.count == len(U)


@pytest.mark.parametrize("n", [3, 4])
def test_section_transfer_tight_probe(n):
    """The slice oracle over a band-adversarial soc oracle, at probes where
    the weak contract first forces a verdict.

    The soc slice is {x_n = 1, |x'| <= 1} with a = b = e_n, so a frame point
    u has slice margin 1 - |u|. Probes sit at slice margin +-(1 + 1e-3) eps,
    just outside the slice's ambiguity band: inside rows must be IN, outside
    rows OUT. The adversary takes the whole band of the transfer's slack
    dq = 3 bx^2 eps / (16 |b|), bx = 0.75 / |y|. The query point
    x = 0.75 y / |y| has cone margin bx (1 - |u|) / sqrt(2), which is
    64 |y| (1 + 1e-3) / (9 sqrt(2)) times dq: between 6.9 and 7.3. So the
    probe flips a verdict under a slack 8 times too large, but no legal
    band adversary on this slice can see one 4 times too large."""
    eps = 0.05
    cone = ReferenceCone("soc", n)
    desc = descriptor_from_reference(cone)
    basis = _section_basis(desc.b)
    rng = rng_stream(47, n)
    dirs = rng.normal(size=(32, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for inside, side in ((True, -1.0 + 1e-9), (False, 1.0 - 1e-9)):
        U = (1.0 - (1.0 if inside else -1.0) * (1.0 + 1e-3) * eps) * dirs
        primal = cone_band_adversary(cone, side)
        dual = dual_cone_wmem(primal, desc)
        got = dual._kb_oracle.query_batch(U, eps)
        np.testing.assert_array_equal(got, np.full(len(U), inside))
        assert primal.calls.count == len(U)
        # every probe's query point clears the adversary's band by a factor
        # between 4 and 8
        Y = desc.a + U @ basis.T
        ny = np.linalg.norm(Y, axis=1)
        dq = _section_query_delta(0.75 / ny, eps, 1.0)
        ratio = np.array([abs(cone.boundary_margin(x)) for x in 0.75 * Y / ny[:, None]]) / dq
        np.testing.assert_allclose(ratio, 64.0 * ny * (1.0 + 1e-3) / (9.0 * math.sqrt(2.0)))
        assert np.all((4.0 < ratio) & (ratio < 8.0))


CONES = [("orthant", 4), ("soc", 4), ("psd", 3)]


@pytest.mark.parametrize("kind,n", CONES, ids=[k for k, _ in CONES])
def test_dual_cone_verdicts_match_self_dual_reference(kind, n):
    """Derived dual-cone verdicts agree with the reference membership test
    (the reference cones are self-dual) outside the ambiguity band."""
    delta = 0.02
    cone = ReferenceCone(kind, n)
    dual = dual_cone_wmem(cone.oracle(), descriptor_from_reference(cone))
    rng = rng_stream(44, 0)
    pts = rng.normal(size=(300, cone.n))
    tested = 0
    for p in pts:
        margin = cone.boundary_margin(p)
        if abs(margin) < 2.0 * delta * max(1.0, float(np.linalg.norm(p))):
            continue
        want = (WeakVerdict.IN_THICKENED if margin > 0
                else WeakVerdict.NOT_IN_SHRUNK)
        assert dual.query(p, delta) is want
        tested += 1
    assert tested >= 200


def test_dual_cone_zero_is_always_in():
    cone = ReferenceCone("soc", 3)
    dual = dual_cone_wmem(cone.oracle(), descriptor_from_reference(cone))
    assert dual.query(np.zeros(3), 0.01) is WeakVerdict.IN_THICKENED


def test_dual_cone_scale_invariance():
    """Cones are rays: scaling a query point must not flip the verdict for
    points that clear the band at both scales."""
    delta = 0.01
    cone = ReferenceCone("orthant", 3)
    dual = dual_cone_wmem(cone.oracle(), descriptor_from_reference(cone))
    rng = rng_stream(45, 0)
    tested = 0
    for _ in range(80):
        p = rng.normal(size=3)
        margin = cone.boundary_margin(p)
        if abs(margin) < 2.0 * delta * max(1.0, 2.0 * float(np.linalg.norm(p))):
            continue
        assert dual.query(p, delta) is dual.query(2.0 * p, delta)
        tested += 1
    assert tested >= 50


def test_dual_cone_pairing_screen_saves_queries():
    cone = ReferenceCone("orthant", 3)
    oracle = cone.oracle()
    dual = dual_cone_wmem(oracle, descriptor_from_reference(cone))
    # strongly negative direction: rejected by the pairing screen alone
    assert dual.query([-1.0, -1.0, -1.0], 0.02) is WeakVerdict.NOT_IN_SHRUNK
    assert oracle.calls.count == 0


def test_dual_cone_on_ray_of_b_is_in():
    cone = ReferenceCone("psd", 3)
    desc = descriptor_from_reference(cone)
    dual = dual_cone_wmem(cone.oracle(), desc)
    assert dual.query(3.0 * desc.b, 0.02) is WeakVerdict.IN_THICKENED


@pytest.mark.parametrize("side", [0.9, -0.9], ids=["generous", "stingy"])
@pytest.mark.parametrize("kind,n", CONES, ids=[k for k, _ in CONES])
def test_dual_cone_tolerates_band_adversaries(kind, n, side):
    """Batched and per-point dual-cone verdicts over a band-adversarial cone
    oracle match the self-dual reference on points at margin 2.02 * delta,
    and the free screens charge no primal call inside a mixed batch."""
    delta = 0.02
    cone = ReferenceCone(kind, n)
    desc = descriptor_from_reference(cone)
    primal = cone_band_adversary(cone, side)
    dual = dual_cone_wmem(primal, desc)
    rng = rng_stream(46, cone.n)
    # 45 directions that pass the pairing screen (a . u > eps_a, |a| = 1)
    # and 15 unrestricted ones, each kept only if clear of the boundary
    dirs = []
    while len(dirs) < 60:
        w = rng.normal(size=cone.n)
        if len(dirs) < 45:
            w -= (w @ desc.a) * desc.a
            cos = rng.uniform(1.02 * desc.eps_a, 1.0)
            w = cos * desc.a + math.sqrt(1.0 - cos * cos) * w / np.linalg.norm(w)
        u = w / np.linalg.norm(w)
        if abs(cone.boundary_margin(u)) >= 0.05:
            dirs.append(u)
    # scale each point onto the edge of the 2 * delta band
    pts = np.array([u * 2.02 * delta / abs(cone.boundary_margin(u)) for u in dirs])
    want = np.array([cone.boundary_margin(p) > 0 for p in pts])
    np.testing.assert_array_equal(dual.query_batch(pts, delta), want)
    for p, inside in zip(pts, want):
        assert (dual.query(p, delta) is WeakVerdict.IN_THICKENED) == inside

    # a mixed batch: apex, a row the pairing screen refutes, the b-ray, and
    # four rows past the screen; the first three cost what they cost alone,
    # nothing
    engine = pts[:4]
    screened = np.array([np.zeros(cone.n), -desc.a, 3.0 * desc.b])
    before = primal.calls.count
    np.testing.assert_array_equal(dual.query_batch(screened, delta), [True, False, True])
    assert primal.calls.count == before
    alone = dual.query_batch(engine, delta)
    cost = primal.calls.count - before
    # on soc the engine's first upper bound settles every row the pairing
    # screen leaves, so only the other cones consult the primal
    assert (cost > 0) == (kind != "soc")
    mixed = dual.query_batch(np.vstack([screened, engine]), delta)
    np.testing.assert_array_equal(mixed, np.concatenate([[True, False, True], alone]))
    assert primal.calls.count - before == 2 * cost


def test_dual_cone_verdicts_where_the_norm_overflows():
    """Points whose plain Euclidean norm overflows get the verdicts of
    their scaled-down copies, as cones are homogeneous: the ray of b is IN,
    the pairing screen refutes, and the others run the validity run."""
    cone = ReferenceCone("orthant", 3)
    oracle = dual_cone_wmem(cone.oracle(), descriptor_from_reference(cone))
    C = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [-1.0, 1.0, 1.0], [0.1, 2.0, 3.0]])
    small = oracle.query_batch(C, 0.02)
    np.testing.assert_array_equal(small, [True, True, False, True])
    np.testing.assert_array_equal(oracle.query_batch(1e200 * C, 0.02), small)
