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
    as_vector,
    positive_finite,
)
from .cutting import wval_batch
# not called here; kept because perfbench's layer trace patches this name
from .cutting import wval_from_wmem  # noqa: F401
from .oracles import ReferenceCone, WeakMembershipOracle


@dataclass(frozen=True)
class ConeDescriptor:
    """Interior data of a pointed full cone.

    a is interior to K with B(a, eps_a) inside K; b is interior to the dual
    cone with B(b, eps_b) inside K*. section_outer bounds the slice body
    P_b - a. The reduction pipelines require the normalization b . a = 1
    (normalize_cone produces it).
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    eps_a: float
    eps_b: float
    section_outer: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, self.n))
        object.__setattr__(self, "b", as_vector(self.b, self.n))
        if self.eps_a <= 0.0 or self.eps_b <= 0.0:
            raise ValueError("interior radii must be positive")
        if self.section_outer <= 0.0:
            raise ValueError("section radius bound must be positive")
        if float(self.b @ self.a) <= 0.0:
            raise ValueError("interior data needs b . a > 0")


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


def _section_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as n x (n - 1) columns, of the complement of a
    nonzero normal: Gram-Schmidt on the coordinate basis with the normal
    prepended, dropping near-parallel candidates. Deterministic."""
    n = normal.size
    vecs = [normal / float(np.linalg.norm(normal))]
    for cand in np.eye(n):
        w = cand.copy()
        for v in vecs:
            w -= (v @ w) * v
        nw = float(np.linalg.norm(w))
        if nw > 1e-10:
            vecs.append(w / nw)
        if len(vecs) == n:
            break
    return np.stack(vecs[1:], axis=1)


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
    An empty Y costs no cone query.
    """
    positive_finite(eps, "eps")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != desc.n:
        raise ValueError(f"expected an (m, {desc.n}) array of points")
    if Y.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    ny = np.linalg.norm(Y, axis=1)
    if np.any(np.abs(Y @ desc.b - 1.0) > 1e-7 * (1.0 + ny)):
        raise ValueError("query point is not on the section hyperplane; project first")
    X = 0.75 * Y / ny[:, None]
    # b . x = 0.75 / |y|, since b . y = 1
    dq = _section_query_delta(0.75 / ny, eps, float(np.linalg.norm(desc.b)))
    return cone_oracle.query_batch(X, dq)


# ---------------------------------------------------------------------------
# the dual-cone oracle
# ---------------------------------------------------------------------------

class DualConeOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual cone, derived from the cone's.

    Every query, one point or many, runs one pass over its rows, in order:
    the apex is IN; the pairing screen refutes a . c < eps_a |c| with no
    primal call (dual points obey a . c >= eps_a |c|, because B(a, eps_a)
    lies in K, which also bounds the slice representative below by
    1 / eps_a); the rest are scaled onto |c0| = 3/4, at slack
    delta * min(1, 3/(4|c|)), and lifted to the dual slice {a . c = 1} as
    S = c0 / (a . c0), at that slack over a . c0; rows on the ray of b,
    interior to the dual cone, are IN. The rows left go to one lockstep
    validity run of -S against gamma = 1 (a . S = 1 by construction) over
    the primal slice body K_b = P_b - a, in the frame of {b . z = 1}: an
    upper bound certifies membership through the shift
    (c + tau*b) / (1 + tau), a large value refutes it through
    (c - 2*tau*b) / (1 - 2*tau). The run takes the row minimum of the
    per-row validity slacks: a verdict at a smaller slack is legal at a
    larger one.
    """

    def __init__(self, cone_oracle: WeakMembershipOracle, desc: ConeDescriptor,
                 cfg: ToleranceConfig = DEFAULT_CONFIG, label: str = "dual-cone"):
        desc = normalize_cone(desc)
        body = CenteredBody(desc.b, desc.eps_b, math.inf)
        super().__init__(self._verdicts, body, label=label)
        self.cone_oracle = cone_oracle
        self.desc = desc
        self.cfg = cfg
        self._kb_body = CenteredBody(np.zeros(desc.n - 1), desc.eps_a,
                                     desc.section_outer)
        # membership in the slice body K_b, asked in frame coordinates
        self._basis = basis = _section_basis(desc.b)
        self._kb_oracle = WeakMembershipOracle(
            lambda U, t: cone_wmem_to_section_wmem(cone_oracle, desc,
                                                   desc.a + U @ basis.T, t),
            self._kb_body, label=f"{label}/slice")

    def _verdicts(self, C: np.ndarray, delta: float) -> np.ndarray:
        desc = self.desc
        nc = np.linalg.norm(C, axis=1)
        out = nc == 0.0  # the apex
        rows = np.flatnonzero(~out)
        # the pairing screen, on the rows scaled onto |c0| = 3/4
        C0 = 0.75 * C[rows] / nc[rows, None]
        ac = C0 @ desc.a
        paired = ac >= 0.75 * desc.eps_a
        rows, C0, ac = rows[paired], C0[paired], ac[paired]
        # the dual slice representatives and their slice slacks
        S = C0 / ac[:, None]
        eps_sec = np.minimum(delta * np.minimum(1.0, 0.75 / nc[rows]) / ac, 0.49)
        # the ray of b
        U = S @ self._basis
        nS = np.linalg.norm(S, axis=1)
        on_ray = np.linalg.norm(U, axis=1) <= 1e-13 * np.maximum(nS, 1.0)
        out[rows[on_ray]] = True
        # one validity run for the rest; |b - S| >= |U| > 0 off the ray
        work = ~on_ray
        if np.any(work):
            q = 4.0 * (1.0 + nS[work])
            bc = np.linalg.norm(desc.b - S[work], axis=1)
            eps_w = 0.5 * float(np.min(np.minimum(1.0 / q, eps_sec[work] / (q * bc))))
            out[rows[work]] = wval_batch(self._kb_oracle, self._kb_body, -U[work],
                                         1.0, eps_w, self.cfg)
        return out


def dual_cone_wmem(cone_oracle: WeakMembershipOracle, desc: ConeDescriptor,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> DualConeOracle:
    """Weak membership oracle for the dual cone K*."""
    return DualConeOracle(cone_oracle, desc, cfg)


def descriptor_from_reference(cone: ReferenceCone) -> ConeDescriptor:
    """Interior data of a reference cone (already normalized, self-dual)."""
    return ConeDescriptor(cone.n, cone.a, cone.b, cone.eps_a, cone.eps_b,
                          cone.section_outer)
