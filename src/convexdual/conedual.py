"""Dual-cone weak membership from a weak membership oracle for the cone.

A pointed full cone K with interior data (a interior to K, b interior to the
dual cone K*, normalized to b . a = 1) is decided through its compact
hyperplane sections: membership in K reduces to membership in the slice
P_b = {x in K : b . x = 1}, linear validity over the slice body
K_b = P_b - a decides membership in the dual slice P_a* = {c in K* : a . c = 1},
and dual-cone verdicts lift back along rays. All section work happens in an
orthonormal frame of the hyperplane, where relative thickenings are plain
Euclidean ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    CenteredBody,
    ToleranceConfig,
    WeakVerdict,
    as_vector,
)
from .cutting import WvalQuery, WvalVerdict, wval_from_wmem
from .oracles import ReferenceCone, WeakMembershipOracle


@dataclass(frozen=True)
class ConeDescriptor:
    """Interior data of a pointed full cone.

    a is interior to K with B(a, eps_a) inside K; b is interior to the dual
    cone with B(b, eps_b) inside K*. section_outer bounds the slice body
    P_b - a, dual_section_outer bounds P_a* - b. The reduction pipelines
    require the normalization b . a = 1 (normalize_cone produces it).
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    eps_a: float
    eps_b: float
    section_outer: float
    dual_section_outer: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, self.n))
        object.__setattr__(self, "b", as_vector(self.b, self.n))
        if self.eps_a <= 0.0 or self.eps_b <= 0.0:
            raise ValueError("interior radii must be positive")
        if self.section_outer <= 0.0 or self.dual_section_outer <= 0.0:
            raise ValueError("section radius bounds must be positive")
        if float(self.b @ self.a) <= 0.0:
            raise ValueError("interior data needs b . a > 0")

    @property
    def normalized(self) -> bool:
        return abs(float(self.b @ self.a) - 1.0) <= 1e-9

    def swapped(self) -> "ConeDescriptor":
        """Descriptor of the dual cone, roles of (a, b) exchanged."""
        return ConeDescriptor(self.n, self.b.copy(), self.a.copy(),
                              self.eps_b, self.eps_a,
                              self.dual_section_outer, self.section_outer)


def normalize_cone(desc: ConeDescriptor) -> ConeDescriptor:
    """Rescale a so that b . a = 1; eps_a and the slice bound follow the scale."""
    ba = float(desc.b @ desc.a)
    if ba <= 0.0:
        raise ValueError("cannot normalize: b . a <= 0")
    if abs(ba - 1.0) <= 1e-12:
        return desc
    a_new = desc.a / ba
    shift = float(np.linalg.norm(desc.a - a_new))
    return replace(desc, a=a_new, eps_a=desc.eps_a / ba,
                   section_outer=desc.section_outer + shift)


def interior_bound_check(desc: ConeDescriptor, x) -> bool:
    """Check the pairing bound b . x >= eps_b * |x| that every cone point obeys.

    The bound follows from B(b, eps_b) being inside the dual cone; it is the
    reason slices by {b . x = 1} are compact.
    """
    v = as_vector(x, desc.n)
    return float(desc.b @ v) >= desc.eps_b * float(np.linalg.norm(v))


@dataclass(frozen=True)
class SectionFrame:
    """Orthonormal coordinates on a hyperplane {z : normal . z = normal . offset}."""

    offset: np.ndarray
    basis: np.ndarray  # ambient_dim x (ambient_dim - 1), orthonormal columns
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", as_vector(self.offset))
        object.__setattr__(self, "normal", as_vector(self.normal, self.offset.size))
        B = np.asarray(self.basis, dtype=float)
        n = self.offset.size
        if B.shape != (n, n - 1):
            raise ValueError(f"basis must be {n} x {n - 1}")
        if not np.allclose(B.T @ B, np.eye(n - 1), atol=1e-10):
            raise ValueError("basis columns are not orthonormal")
        if float(np.max(np.abs(self.normal @ B))) > 1e-10:
            raise ValueError("basis does not span the normal complement")
        object.__setattr__(self, "basis", B)

    def to_section(self, y) -> np.ndarray:
        return self.basis.T @ (as_vector(y, self.offset.size) - self.offset)

    def to_ambient(self, u) -> np.ndarray:
        return self.offset + self.basis @ as_vector(u, self.basis.shape[1])

    def project(self, y) -> np.ndarray:
        """Nearest point of the hyperplane."""
        v = as_vector(y, self.offset.size)
        w = v - self.offset
        return self.offset + self.basis @ (self.basis.T @ w)


def build_section_frame(normal, offset) -> SectionFrame:
    """Deterministic frame: orthonormalize the coordinate basis with the
    normal prepended, drop near-parallel candidates."""
    b = as_vector(normal)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        raise ValueError("normal must be nonzero")
    n = b.size
    vecs = [b / nb]
    for cand in np.eye(n):
        w = cand.copy()
        for v in vecs:
            w -= (v @ w) * v
        nw = float(np.linalg.norm(w))
        if nw > 1e-10:
            vecs.append(w / nw)
        if len(vecs) == n:
            break
    if len(vecs) < n:
        raise ValueError("could not complete an orthonormal frame")
    basis = np.stack(vecs[1:], axis=1)
    return SectionFrame(as_vector(offset, n), basis, b / nb)


# ---------------------------------------------------------------------------
# section transfer
# ---------------------------------------------------------------------------

def _section_query_delta(bx, eps: float, b_norm: float) -> float:
    # midpoint of the workable interval ((bx)^2 eps / (8|b|), (bx)^2 eps / (4|b|)),
    # clamped under the ray-perturbation bound bx / (2|b|) that keeps perturbed
    # points above the hyperplane at infinity; any smaller delta stays sound,
    # so for an array of bx the row minimum is sound for every row
    mid = 3.0 * bx * bx * eps / (16.0 * b_norm)
    dq = float(np.min(np.minimum(mid, 0.45 * bx / (2.0 * b_norm))))
    if not (dq > 0.0 and math.isfinite(dq)):
        raise ValueError("query too close to the hyperplane at infinity")
    return dq


def cone_wmem_to_section_wmem(cone_oracle: WeakMembershipOracle,
                              desc: ConeDescriptor, Y, eps: float) -> np.ndarray:
    """Decide every row y of Y against the slice P_b, relative to the
    hyperplane, from one batch of cone queries; True = IN_THICKENED.

    Each y must lie in {b . z = 1}. Its query point is the ray representative
    at radius 3/4 (inside the cone oracle's working annulus); the slack comes
    from the quadratic ray-to-slice distance transfer, at the row minimum.
    """
    if eps <= 0.0 or not math.isfinite(eps):
        raise ValueError("eps must be positive and finite")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != desc.n:
        raise ValueError(f"expected an (m, {desc.n}) array of points")
    ny = np.linalg.norm(Y, axis=1)
    if np.any(np.abs(Y @ desc.b - 1.0) > 1e-7 * (1.0 + ny)):
        raise ValueError("query point is not on the section hyperplane; project first")
    X = 0.75 * Y / ny[:, None]
    # b . x = 0.75 / |y|, since b . y = 1
    dq = _section_query_delta(0.75 / ny, eps, float(np.linalg.norm(desc.b)))
    return cone_oracle.query_batch(X, dq)


def section_wmem_to_cone_wmem(section_verdict, desc: ConeDescriptor, x,
                              delta: float) -> WeakVerdict:
    """Decide x against the cone from one relative slice verdict.

    section_verdict(y, eps) decides y, a point of the hyperplane, against the
    slice, with slack eps taken inside the hyperplane. x must lie in the
    working annulus 1/2 < |x| < 1. Points on or below the hyperplane at
    infinity (b . x <= 0) are rejected without a query; others map to their
    slice representative x / (b . x) at slack delta / (b . x).
    """
    if delta <= 0.0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    v = as_vector(x, desc.n)
    nx = float(np.linalg.norm(v))
    if not (0.5 < nx < 1.0):
        raise ValueError(f"cone queries live on 1/2 < |x| < 1, got |x| = {nx}")
    bx = float(desc.b @ v)
    if bx <= 0.0:
        return WeakVerdict.NOT_IN_SHRUNK  # outside {b . z > 0}, hence outside K
    return section_verdict(v / bx, delta / bx)


# ---------------------------------------------------------------------------
# the dual-cone oracle
# ---------------------------------------------------------------------------

class DualConeOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual cone, derived from the cone's.

    A query scales onto the working annulus, lifts to the dual slice
    {a . c = 1}, and decides slice membership by one linear validity run over
    the primal slice body K_b = P_b - a: an upper bound certifies membership
    through the shift (c + tau*b) / (1 + tau), a large value refutes it
    through (c - 2*tau*b) / (1 - 2*tau).
    """

    def __init__(self, cone_oracle: WeakMembershipOracle, desc: ConeDescriptor,
                 cfg: ToleranceConfig = DEFAULT_CONFIG, label: str = "dual-cone"):
        desc = normalize_cone(desc)
        body = CenteredBody(desc.b, desc.eps_b, math.inf)
        super().__init__(self._verdicts, body, label=label)
        self.cone_oracle = cone_oracle
        self.desc = desc
        self.cfg = cfg
        self._frame_b = build_section_frame(desc.b, desc.a)
        self._kb_body = CenteredBody(np.zeros(desc.n - 1), desc.eps_a,
                                     desc.section_outer)
        # membership in the slice body K_b, asked in frame coordinates
        basis = self._frame_b.basis
        self._kb_oracle = WeakMembershipOracle(
            lambda U, t: cone_wmem_to_section_wmem(cone_oracle, desc,
                                                   desc.a + U @ basis.T, t),
            self._kb_body, label=f"{label}/slice")
        self._swapped = self.desc.swapped()

    def _dual_slice_verdict(self, c, eps_sec):
        """Membership of c (on {a . c = 1}) in the dual slice P_a*."""
        desc = self.desc
        eps_use = min(eps_sec, 0.49)
        nc = float(np.linalg.norm(c))
        bc = float(np.linalg.norm(desc.b - c))
        bound = 1.0 / (4.0 * (1.0 + nc))
        if bc > 0.0:
            bound = min(bound, eps_use / (4.0 * (1.0 + nc) * bc))
        eps_w = 0.5 * bound
        c_frame = self._frame_b.basis.T @ c
        if float(np.linalg.norm(c_frame)) <= 1e-13 * max(nc, 1.0):
            # c is (numerically) a positive multiple of b, which is interior
            # to the dual cone
            return WeakVerdict.IN_THICKENED
        gamma = float(c @ desc.a)
        verdict = wval_from_wmem(self._kb_oracle, self._kb_body,
                                 WvalQuery(c=-c_frame, gamma=gamma, eps=eps_w),
                                 self.cfg)
        if verdict is WvalVerdict.UPPER_BOUND_HOLDS:
            return WeakVerdict.IN_THICKENED
        return WeakVerdict.NOT_IN_SHRUNK

    def _verdicts(self, C, delta):
        return np.array([self._verdict(c, delta) is WeakVerdict.IN_THICKENED
                         for c in C], dtype=bool)

    def _verdict(self, c_raw, delta):
        nc = float(np.linalg.norm(c_raw))
        if nc == 0.0:
            return WeakVerdict.IN_THICKENED  # the apex is in every dual cone
        c0 = 0.75 * c_raw / nc
        dd = delta * min(1.0, 0.75 / nc)  # ray scaling of the slack
        # dual points obey a . c >= eps_a |c| (mirror of interior_bound_check),
        # so a small pairing already refutes membership outright; this also
        # keeps the slice representative c0 / (a . c0) bounded by 1 / eps_a,
        # which the linear-validity slack below depends on
        if float(self.desc.a @ c0) < 0.75 * self.desc.eps_a:
            return WeakVerdict.NOT_IN_SHRUNK
        return section_wmem_to_cone_wmem(self._dual_slice_verdict, self._swapped,
                                         c0, dd)


def dual_cone_wmem(cone_oracle: WeakMembershipOracle, desc: ConeDescriptor,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> DualConeOracle:
    """Weak membership oracle for the dual cone K*."""
    return DualConeOracle(cone_oracle, desc, cfg)


def descriptor_from_reference(cone: ReferenceCone) -> ConeDescriptor:
    """Interior data of a reference cone (already normalized, self-dual)."""
    return ConeDescriptor(cone.n, cone.a, cone.b, cone.eps_a, cone.eps_b,
                          cone.section_outer, cone.section_outer)
