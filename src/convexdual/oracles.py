"""Oracle wrappers and closed-form reference bodies.

A weak membership oracle answers "x is in the delta-thickened body" or "x is
outside the delta-shrunk body"; inside the overlap band either answer is
legal. Everything the reduction pipelines consume is one of the small oracle
classes below. The reference norms and cones exist so every derived quantity
in the package can be checked against a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CallCounter,
    CenteredBody,
    NormDescriptor,
    WeakVerdict,
    as_vector,
    positive_finite,
)

_OUTWARD = 1e-12  # relative rounding applied to sandwich constants


def _round_down(x: float) -> float:
    return x * (1.0 - _OUTWARD)


def _round_up(x: float) -> float:
    return x * (1.0 + _OUTWARD)


class WeakMembershipOracle:
    """Weak membership oracle for a centered convex body.

    Parameters
    ----------
    fn : callable (X, delta) -> bool array
        The row-wise verdict function: maps an (m, n) array of points and a
        slack to m booleans, True meaning IN_THICKENED. Must honor the weak
        contract for the body on every row.
    body : CenteredBody
        Centering data B(center, inner) <= K <= B(center, outer); cones use
        outer = inf.
    label : str
        Counter label for call accounting.

    query_batch validates, counts and calls fn; query is the same call on
    one row. Both count one call per point and raise ValueError, before
    counting, on a bad slack or on points that are not finite rows of
    dimension n.
    """

    def __init__(self, fn, body: CenteredBody, label: str = "wmem"):
        self._fn = fn
        self.body = body
        self.calls = CallCounter(label)

    def query(self, x, delta: float) -> WeakVerdict:
        delta = positive_finite(delta, "delta")
        v = as_vector(x, self.body.n)
        self.calls.add(1)
        # fn itself, not self.query_batch: a tracer that wraps both entry
        # points would otherwise see this point twice
        if self._fn(v[None, :], delta)[0]:
            return WeakVerdict.IN_THICKENED
        return WeakVerdict.NOT_IN_SHRUNK

    def query_batch(self, X, delta: float) -> np.ndarray:
        """Vectorized query; returns a bool array, True = IN_THICKENED."""
        delta = positive_finite(delta, "delta")
        pts = np.asarray(X, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.body.n:
            raise ValueError(f"expected an (m, {self.body.n}) array of points, "
                             f"got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points have non-finite coordinates")
        self.calls.add(pts.shape[0])
        return np.asarray(self._fn(pts, delta), dtype=bool)


class FunctionApproxOracle:
    """Additive-error evaluator of a function on R^n, norms included.

    eval(x, eps) returns a finite value within eps of the function at x; a
    non-finite value raises ValueError after the call is counted.
    """

    def __init__(self, fn, n: int, label: str = "func"):
        if n < 1:
            raise ValueError("dimension must be positive")
        self._fn = fn
        self.n = n
        self.calls = CallCounter(label)

    def eval(self, x, eps: float) -> float:
        positive_finite(eps, "eps")
        v = as_vector(x, self.n)
        self.calls.add(1)
        out = float(self._fn(v, float(eps)))
        if not math.isfinite(out):
            raise ValueError("function oracle returned a non-finite value")
        return out


def exact_to_weak(member, body: CenteredBody, label: str = "wmem") -> WeakMembershipOracle:
    """Wrap a row-wise exact membership predicate as a weak oracle that
    ignores slack.

    member maps an (m, n) array to m booleans. Answering IN_THICKENED exactly
    when member holds is always a legal weak answer: members are inside every
    thickening, non-members are outside every shrinking.
    """
    return WeakMembershipOracle(lambda X, delta: member(X), body, label=label)


# ---------------------------------------------------------------------------
# reference norms
# ---------------------------------------------------------------------------

def _lp_eval(X: np.ndarray, p: float) -> np.ndarray:
    """Row-wise lp norm, overflow-safe for large p."""
    A = np.abs(X)
    if math.isinf(p):
        return A.max(axis=1)
    if p == 1.0:
        return A.sum(axis=1)
    if p == 2.0:
        return np.sqrt((A * A).sum(axis=1))
    m = A.max(axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    s = ((A / safe[:, None]) ** p).sum(axis=1)
    return m * s ** (1.0 / p)


def _lp_constants(p: float, n: int) -> tuple[float, float]:
    # |x|_p vs |x|_2: for p <= 2 the lp norm dominates, with gap n^(1/p - 1/2);
    # for p >= 2 the roles flip.
    if math.isinf(p):
        gap = n ** (-0.5)
    else:
        gap = n ** (1.0 / p - 0.5)
    if p <= 2.0:
        return 1.0, gap
    return gap, 1.0


class ReferenceNorm:
    """Closed-form norm with stored sandwich constants.

    Kinds: "lp" (p in [1, inf]), "weighted_l2" (positive diagonal weights),
    "polyhedral" (nu(x) = max_i |c_i . x| over the rows of a full-rank
    generator matrix). Constants are exact closed forms where available,
    rounded outward so the sandwich inequalities survive float rounding, and
    sample-checked at construction.
    """

    def __init__(self, kind: str, n: int, *, p: float | None = None,
                 weights: np.ndarray | None = None, generators: np.ndarray | None = None,
                 k_lo: float | None = None, k_hi: float | None = None,
                 dual_tag: str | None = None):
        self.kind = kind
        self.n = n
        self.p = p
        self.weights = weights
        self.generators = generators
        self._dual_tag = dual_tag
        if k_lo is None or k_hi is None:
            raise ValueError("constants are set by the factory methods")
        self.descriptor = NormDescriptor(n, k_lo, k_hi)
        self._sample_check()

    # -- factories ---------------------------------------------------------

    @classmethod
    def lp(cls, p: float, n: int) -> "ReferenceNorm":
        if p < 1.0:
            raise ValueError("lp norms need p >= 1")
        k, K = _lp_constants(float(p), n)
        dual_tag = None
        return cls("lp", n, p=float(p), k_lo=_round_down(k), k_hi=_round_up(K),
                   dual_tag=dual_tag)

    @classmethod
    def weighted_l2(cls, weights) -> "ReferenceNorm":
        w = as_vector(weights)
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        return cls("weighted_l2", w.size, weights=w,
                   k_lo=_round_down(float(w.min())), k_hi=_round_up(float(w.max())))

    @classmethod
    def polyhedral(cls, generators, dual_tag: str | None = None) -> "ReferenceNorm":
        C = np.atleast_2d(np.asarray(generators, dtype=float))
        m, n = C.shape
        if not np.all(np.isfinite(C)):
            raise ValueError("generators must be finite")
        smin = float(np.linalg.svd(C, compute_uv=False)[-1])
        if smin <= 0.0 or m < n:
            raise ValueError("generator matrix must have full column rank")
        k = smin / math.sqrt(m)          # max_i |c_i.x| >= |Cx|_2 / sqrt(m)
        K = float(np.linalg.norm(C, axis=1).max())
        return cls("polyhedral", n, generators=C,
                   k_lo=_round_down(k), k_hi=_round_up(K), dual_tag=dual_tag)

    @classmethod
    def box(cls, n: int) -> "ReferenceNorm":
        """Max norm, built as the polyhedral norm of the coordinate generators."""
        return cls.polyhedral(np.eye(n), dual_tag="box")

    @classmethod
    def cross(cls, n: int) -> "ReferenceNorm":
        """Sum norm, built from all sign-pattern generators (cross-polytope ball)."""
        if n > 12:
            raise ValueError("sign-pattern generators blow up past n = 12")
        rows = np.array([[(1.0 if (i >> j) & 1 == 0 else -1.0) for j in range(n)]
                         for i in range(2 ** (n - 1))])
        return cls.polyhedral(rows, dual_tag="cross")

    # -- evaluation --------------------------------------------------------

    def eval_batch(self, X) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(X, dtype=float))
        if pts.shape[1] != self.n:
            raise ValueError(f"expected points of dimension {self.n}")
        if self.kind == "lp":
            return _lp_eval(pts, self.p)
        if self.kind == "weighted_l2":
            W = pts * self.weights
            return np.sqrt((W * W).sum(axis=1))
        return np.abs(pts @ self.generators.T).max(axis=1)

    def eval(self, x) -> float:
        return float(self.eval_batch(as_vector(x, self.n)[None, :])[0])

    def _sample_check(self, samples: int = 200) -> None:
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
        U = rng.normal(size=(samples, self.n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        vals = self.eval_batch(U)
        d = self.descriptor
        if np.any(vals < d.k_lo) or np.any(vals > d.k_hi):
            raise ValueError("sandwich constants fail on random unit vectors")

    # -- derived structures --------------------------------------------------

    def dual(self) -> "ReferenceNorm":
        """Closed-form dual norm; raises for polyhedral kinds without one."""
        if self.kind == "lp":
            p = self.p
            if p == 1.0:
                return ReferenceNorm.lp(math.inf, self.n)
            if math.isinf(p):
                return ReferenceNorm.lp(1.0, self.n)
            return ReferenceNorm.lp(p / (p - 1.0), self.n)
        if self.kind == "weighted_l2":
            return ReferenceNorm.weighted_l2(1.0 / self.weights)
        if self._dual_tag == "box":
            return ReferenceNorm.lp(1.0, self.n)
        if self._dual_tag == "cross":
            return ReferenceNorm.lp(math.inf, self.n)
        raise ValueError("no closed-form dual for this polyhedral norm")

    def ball(self) -> CenteredBody:
        return self.descriptor.ball()

    def oracle(self, label: str | None = None) -> WeakMembershipOracle:
        """Exact-membership weak oracle for the unit ball."""
        label = label or f"{self.kind}-ball"
        return exact_to_weak(lambda X: self.eval_batch(X) <= 1.0, self.ball(),
                             label=label)

    def approx_oracle(self, label: str | None = None) -> FunctionApproxOracle:
        """Norm evaluator that ignores its slack (exact closed form)."""
        return FunctionApproxOracle(lambda x, eps: self.eval(x), self.n,
                                    label=label or f"{self.kind}-approx")


# ---------------------------------------------------------------------------
# reference cones
# ---------------------------------------------------------------------------

def svec(M) -> np.ndarray:
    """Symmetric d x d matrix -> R^(d(d+1)/2), off-diagonals scaled by sqrt(2).

    The scaling makes the embedding an isometry between the Frobenius and
    Euclidean inner products, so the PSD cone embeds as a self-dual cone.
    """
    A = np.asarray(M, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("svec expects a symmetric square matrix")
    out = []
    for j in range(d):
        out.append(A[j, j])
        for i in range(j + 1, d):
            out.append(math.sqrt(2.0) * A[i, j])
    return np.array(out)


def smat(v) -> np.ndarray:
    """Inverse of svec."""
    x = as_vector(v)
    d = int((math.isqrt(8 * x.size + 1) - 1) // 2)
    if d * (d + 1) // 2 != x.size:
        raise ValueError(f"length {x.size} is not a triangular number")
    M = np.zeros((d, d))
    idx = 0
    for j in range(d):
        M[j, j] = x[idx]
        idx += 1
        for i in range(j + 1, d):
            M[i, j] = M[j, i] = x[idx] / math.sqrt(2.0)
            idx += 1
    return M


def _psd_min_eigs(X: np.ndarray, d: int) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        out[i] = np.linalg.eigvalsh(smat(row))[0]
    return out


class ReferenceCone:
    """Self-dual reference cone with closed-form membership and interior data.

    Kinds: "orthant" (nonnegative orthant in R^n), "soc" (second-order cone,
    last coordinate is the axis), "psd" (d x d PSD matrices embedded by svec).
    Interior data: a = b is the symmetric interior point normalized to
    b.a = 1, with B(a, eps_a) inside the cone; section_outer bounds the
    slice {x in cone : b.x = 1} - a.
    """

    def __init__(self, kind: str, n: int):
        if kind not in ("orthant", "soc", "psd"):
            raise ValueError(f"unknown cone kind {kind!r}")
        self.kind = kind
        if kind == "psd":
            self.d = n
            self.n = n * (n + 1) // 2
            if n < 2:
                raise ValueError("psd cone needs matrix side >= 2")
        else:
            self.d = None
            self.n = n
            if n < 2:
                raise ValueError("cone pipelines need ambient dimension >= 2")
        if kind == "orthant":
            s = math.sqrt(n)
            self.a = np.ones(n) / s
            self.eps_a = 1.0 / s
            self.section_outer = math.sqrt(n - 1) if n > 1 else 1.0
        elif kind == "soc":
            self.a = np.zeros(n)
            self.a[-1] = 1.0
            self.eps_a = 1.0 / math.sqrt(2.0)
            self.section_outer = 1.0
        else:
            d = self.d
            self.a = svec(np.eye(d)) / math.sqrt(d)
            self.eps_a = 1.0 / math.sqrt(d)
            self.section_outer = math.sqrt(d - 1)
        # all three kinds are self-dual with symmetric interior data
        self.b = self.a.copy()
        self.eps_b = self.eps_a

    def member_batch(self, X) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(X, dtype=float))
        if pts.shape[1] != self.n:
            raise ValueError(f"expected points of dimension {self.n}")
        tol = 1e-12 * np.maximum(1.0, np.linalg.norm(pts, axis=1))
        if self.kind == "orthant":
            return pts.min(axis=1) >= -tol
        if self.kind == "soc":
            return np.linalg.norm(pts[:, :-1], axis=1) <= pts[:, -1] + tol
        return _psd_min_eigs(pts, self.d) >= -tol

    def member(self, x) -> bool:
        return bool(self.member_batch(as_vector(x, self.n)[None, :])[0])

    def boundary_margin(self, x) -> float:
        """Signed Euclidean distance to the cone boundary (negative outside)."""
        v = as_vector(x, self.n)
        if self.kind == "orthant":
            neg = np.minimum(v, 0.0)
            if np.any(neg < 0.0):
                return -float(np.linalg.norm(neg))
            return float(v.min())
        if self.kind == "soc":
            u, t = float(np.linalg.norm(v[:-1])), float(v[-1])
            if t <= -u:
                return -float(np.linalg.norm(v))
            return (t - u) / math.sqrt(2.0)
        eigs = np.linalg.eigvalsh(smat(v))
        if eigs[0] >= 0.0:
            return float(eigs[0])
        return -float(np.linalg.norm(np.minimum(eigs, 0.0)))

    def dual(self) -> "ReferenceCone":
        return self  # all reference kinds are self-dual

    def oracle(self, label: str | None = None) -> WeakMembershipOracle:
        body = CenteredBody(self.a, self.eps_a, math.inf)
        return exact_to_weak(self.member_batch, body, label=label or f"{self.kind}-cone")
