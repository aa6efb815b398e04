import math

import numpy as np
import pytest

from adversaries import cone_band_adversary
from convexdual.conedual import (
    ConeDescriptor,
    _section_basis,
    cone_wmem_to_section_wmem,
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
    """Slice verdicts derived from the cone oracle agree with exact slice
    membership away from the boundary."""
    cone = ReferenceCone("orthant", 3)
    desc = _orthant_desc(3)
    basis = _section_basis(desc.b)
    oracle = cone.oracle()
    rng = rng_stream(43, 0)
    eps = 0.05
    Y = desc.a + (rng.normal(size=(60, 2)) * 0.8) @ basis.T
    margin = np.array([cone.boundary_margin(y) for y in Y])
    clear = np.abs(margin) >= 2.0 * eps * np.linalg.norm(Y, axis=1)
    # one batch answers row by row: the shared slack is the row minimum,
    # which is sound for every row
    got = cone_wmem_to_section_wmem(oracle, desc, Y, eps)
    np.testing.assert_array_equal(got[clear], margin[clear] > 0)
    assert oracle.calls.count == len(Y)


def test_cone_to_section_rejects_points_off_hyperplane():
    cone = ReferenceCone("orthant", 3)
    desc = _orthant_desc(3)
    basis = _section_basis(desc.b)
    y = desc.a + basis @ [0.1, 0.1] + desc.b  # push off the hyperplane
    with pytest.raises(ValueError):
        cone_wmem_to_section_wmem(cone.oracle(), desc, [desc.a + basis @ [0.0, 0.2], y],
                                  0.05)


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
