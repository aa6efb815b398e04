"""Oracle wrappers and closed-form reference bodies.

A weak membership oracle answers "x is in the delta-thickened body" or "x is
outside the delta-shrunk body"; inside the overlap band either answer is
legal. Everything the reduction pipelines consume is one of the small oracle
classes below. The reference norms and cones exist so every derived quantity
in the package can be checked against a closed form.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    CallCounter,
    CenteredBody,
    NormDescriptor,
    WeakVerdict,
    as_stack,
    as_vector,
    positive_finite,
    safe_norm,
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
        contract for the body on every row. Each call from the package gets
        its own array, which no later call overwrites, so fn may keep it.
    body : CenteredBody
        Centering data B(center, inner) <= K <= B(center, outer); cones use
        outer = inf.
    label : str
        Counter label for call accounting.
    separator : callable (X, delta) -> (U, depth, W), optional
        The body's own separator, for a body that can separate more cheaply
        than finite differences of its gauge. X is an (m, n) stack of points
        that fn answered outside at slack delta. Per point, U holds a unit
        normal u and depth a deep-cut depth alpha such that
        u . (y - x) <= -max(alpha, 0) + sigma for every y of the body, with
        sigma the documented bound of that separator (the cutting module
        header), and W a witness: a point of the body, which the cutting
        engine takes as an incumbent. calls does not count it; the primal
        oracle it evaluates does. cutting.approx_separator uses it where it is given.
    witnesses : callable (X, delta) -> W, optional
        Witnesses for IN verdicts, for a body whose verdicts buy more than a
        yes. X is an (m, n) stack of points that fn has just answered IN at
        slack delta, all from its last batch; W holds per point a point of
        the body, read from what that batch bought, at no call. The cutting
        engine takes it as an incumbent where it beats the row's incumbent
        (cutting module header, separator witnesses). Gauge oracles have
        none.

    query_batch validates, counts and calls fn; query is the same call on
    one row. Both count one call per point and raise ValueError, before
    counting, on a bad slack or on points that are not finite rows of
    dimension n, and after it when fn answers m rows with anything but m
    verdicts, shape (m,) (_asked). An empty (0, n) stack gets an empty
    result at no call: fn is not called, so no verdict function handles an
    empty stack.
    """

    def __init__(self, fn, body: CenteredBody, label: str = "wmem", separator=None,
                 witnesses=None):
        self._fn = fn
        self.body = body
        self.calls = CallCounter(label)
        self.separator = separator
        self.witnesses = witnesses

    def query(self, x, delta: float) -> WeakVerdict:
        delta = positive_finite(delta, "delta")
        v = as_vector(x, self.body.n)
        self.calls.add(1)
        # fn (through _asked), not self.query_batch: a tracer that wraps
        # both entry points would otherwise see this point twice
        if self._asked(v[None, :], delta)[0]:
            return WeakVerdict.IN_THICKENED
        return WeakVerdict.NOT_IN_SHRUNK

    def query_batch(self, X, delta: float) -> np.ndarray:
        """Vectorized query; returns a bool array, True = IN_THICKENED."""
        delta = positive_finite(delta, "delta")
        pts = as_stack(X, self.body.n)
        if pts.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        self.calls.add(pts.shape[0])
        return self._asked(pts, delta)

    def _asked(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """fn's verdicts on the m rows of pts, as m booleans. Any other
        shape raises ValueError: numpy would broadcast a scalar or a single
        verdict to every row it is assigned to."""
        out = np.asarray(self._fn(pts, delta), dtype=bool)
        if out.shape != (len(pts),):
            raise ValueError(f"verdict function answered {len(pts)} rows with shape "
                             f"{out.shape}, not ({len(pts)},)")
        return out


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
                 k_lo: float | None = None, k_hi: float | None = None):
        self.kind = kind
        self.n = n
        self.p = p
        self.weights = weights
        self.generators = generators
        self._dual_tag = None  # "box" or "cross": the polyhedral kinds with a closed dual
        if k_lo is None or k_hi is None:
            raise ValueError("constants are set by the factory methods")
        self.descriptor = NormDescriptor(n, k_lo, k_hi)
        self._sample_check()

    # -- factories ---------------------------------------------------------

    @classmethod
    def lp(cls, p: float, n: int) -> "ReferenceNorm":
        if p < 1.0:
            raise ValueError("lp norms need p >= 1")
        if n < 1:
            raise ValueError("dimension must be positive")
        k, K = _lp_constants(float(p), n)
        return cls("lp", n, p=float(p), k_lo=_round_down(k), k_hi=_round_up(K))

    @classmethod
    def weighted_l2(cls, weights) -> "ReferenceNorm":
        w = as_vector(weights)
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        return cls("weighted_l2", w.size, weights=w,
                   k_lo=_round_down(float(w.min())), k_hi=_round_up(float(w.max())))

    @classmethod
    def polyhedral(cls, generators) -> "ReferenceNorm":
        C = np.atleast_2d(np.asarray(generators, dtype=float))
        m, n = C.shape
        if C.size == 0:
            raise ValueError("generator matrix must not be empty")
        if not np.all(np.isfinite(C)):
            raise ValueError("generators must be finite")
        smin = float(np.linalg.svd(C, compute_uv=False)[-1])
        if smin <= 0.0 or m < n:
            raise ValueError("generator matrix must have full column rank")
        k = smin / math.sqrt(m)          # max_i |c_i.x| >= |Cx|_2 / sqrt(m)
        K = float(np.linalg.norm(C, axis=1).max())
        return cls("polyhedral", n, generators=C,
                   k_lo=_round_down(k), k_hi=_round_up(K))

    @classmethod
    def box(cls, n: int) -> "ReferenceNorm":
        """Max norm, built as the polyhedral norm of the coordinate generators."""
        if n < 1:
            raise ValueError("dimension must be positive")
        norm = cls.polyhedral(np.eye(n))
        norm._dual_tag = "box"
        return norm

    @classmethod
    def cross(cls, n: int) -> "ReferenceNorm":
        """Sum norm, built from all sign-pattern generators (cross-polytope ball)."""
        if n < 1:
            raise ValueError("dimension must be positive")
        if n > 12:
            raise ValueError("sign-pattern generators blow up past n = 12")
        rows = np.array([[(1.0 if (i >> j) & 1 == 0 else -1.0) for j in range(n)]
                         for i in range(2 ** (n - 1))])
        norm = cls.polyhedral(rows)
        norm._dual_tag = "cross"
        return norm

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

    def _sample_check(self) -> None:
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
        U = rng.normal(size=(200, self.n))
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

    def oracle(self) -> WeakMembershipOracle:
        """Exact-membership weak oracle for the unit ball."""
        return exact_to_weak(lambda X: self.eval_batch(X) <= 1.0, self.ball(),
                             label=f"{self.kind}-ball")

    def approx_oracle(self) -> FunctionApproxOracle:
        """Norm evaluator that ignores its slack (exact closed form)."""
        return FunctionApproxOracle(lambda x, eps: self.eval(x), self.n,
                                    label=f"{self.kind}-approx")


# ---------------------------------------------------------------------------
# reference cones
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _svec_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of svec order (column j, then rows i >= j),
    and the scale that turns matrix entries into svec entries: 1 on the
    diagonal, sqrt(2) off it."""
    j, i = np.triu_indices(d)
    return i, j, np.where(i == j, 1.0, math.sqrt(2.0))


def svec(M) -> np.ndarray:
    """Symmetric d x d matrix -> R^(d(d+1)/2), off-diagonals scaled by sqrt(2).

    The scaling makes the embedding an isometry between the Frobenius and
    Euclidean inner products, so the PSD cone embeds as a self-dual cone.
    M must be symmetric to 1e-12, absolutely and relatively; svec reads its
    lower triangle.
    """
    A = np.asarray(M, dtype=float)
    if (A.ndim != 2 or A.shape[0] != A.shape[1]
            or not np.allclose(A, A.T, rtol=1e-12, atol=1e-12)):
        raise ValueError("svec expects a symmetric square matrix")
    i, j, scale = _svec_layout(A.shape[0])
    return A[i, j] * scale


def smat(v) -> np.ndarray:
    """Inverse of svec: the checked one-row case of _smat_stack. v must be
    a finite vector of triangular length d (d + 1) / 2."""
    x = as_vector(v)
    d = int((math.isqrt(8 * x.size + 1) - 1) // 2)
    if d * (d + 1) // 2 != x.size:
        raise ValueError(f"length {x.size} is not a triangular number")
    return _smat_stack(x[None, :], d)[0]


def _smat_stack(X: np.ndarray, d: int) -> np.ndarray:
    """smat of every row of the finite (m, d(d+1)/2) stack X, unchecked."""
    i, j, scale = _svec_layout(d)
    vals = X / scale
    M = np.zeros((X.shape[0], d, d))
    M[:, i, j] = vals
    M[:, j, i] = vals
    return M


def _psd_min_eigs(X: np.ndarray, d: int) -> np.ndarray:
    """Smallest eigenvalue of smat(x) for every row x, in one batched call."""
    return np.linalg.eigvalsh(_smat_stack(X, d))[:, 0]


_SQRT2 = math.sqrt(2.0)
_SQRT27 = math.sqrt(27.0)
_THIRD_TURN = 2.0 * math.pi / 3.0


def _sym3_eigs(a: float, b: float, c: float, d: float, e: float,
               f: float) -> tuple[float, float, float]:
    """Eigenvalues, largest first, of the symmetric matrix
    [[a, b, c], [b, d, e], [c, e, f]], in closed form (O. K. Smith,
    "Eigenvalues of a symmetric 3 x 3 matrix", CACM 4(4), 1961).

    With q the mean of the diagonal and S = A - q I, the eigenvalues are
    q + 2 p cos(theta + 2 pi k / 3), k = 0, 1, 2, where p = sqrt(J2 / 3),
    J2 = tr(S^2) / 2, and 3 theta is the angle in [0, pi] whose cosine is
    J3 / (2 p^3), J3 = det S. Smith reads the angle from that cosine by
    acos, but near a double eigenvalue the cosine is near +-1, where acos
    turns a rounding error eps into an angle error of sqrt(eps). So the
    angle is read by atan2 from the cosine and the sine, whose square is
    D / (108 p^6): D = 4 J2^3 - 27 J3^2 = prod_{i<j} (s_i - s_j)^2 is the
    discriminant, which is computed not as that difference but as the
    determinant of the Gram matrix of I, S and S^2, a sum of squares by
    Cauchy-Binet (Parlett, "The (matrix) discriminant as a determinant",
    LAA 355, 2002). Every term then errs by a few eps of |S|^3, so the
    angle by a few eps, and every eigenvalue by a few eps of the largest
    entry of A. A is first divided by that entry, so no square or cube
    overflows or underflows at any finite scale.
    """
    scale = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    a, b, c, d, e, f = a / scale, b / scale, c / scale, d / scale, e / scale, f / scale
    q = (a + d + f) / 3.0
    x, y, z = a - q, d - q, f - q  # the diagonal of S; b, c, e are its off-diagonal
    bb, cc, ee = b * b, c * c, e * e
    j2 = (x * x + y * y + z * z) / 2.0 + bb + cc + ee
    if j2 == 0.0:
        q *= scale
        return q, q, q
    j3 = x * (y * z - ee) - b * (b * z - c * e) + c * (b * e - c * y)
    # the Gram determinant sums the squared 3 x 3 minors of the six rows
    # (1, s_ii, t_ii), on the diagonal, and sqrt(2) (0, s_ij, t_ij), i < j,
    # off it, with T = S^2: the minor of the three diagonal rows; the nine
    # of two diagonal rows and one off it, where rows (i, j) give
    # m_j - m_i; and the three pairs of off-diagonal rows, each with any
    # of the three diagonal rows
    tx, ty, tz = x * x + bb + cc, bb + y * y + ee, cc + ee + z * z
    tb, tc, te = b * (x + y) + c * e, c * (x + z) + b * e, e * (y + z) + b * c
    sy, sz, ty, tz = y - x, z - x, ty - tx, tz - tx  # the rows less the first
    disc = (sy * tz - sz * ty) ** 2
    for s, t in ((b, tb), (c, tc), (e, te)):
        my, mz = sy * t - ty * s, sz * t - tz * s
        disc += 2.0 * (my * my + mz * mz + (mz - my) ** 2)
    disc += 12.0 * ((b * tc - c * tb) ** 2 + (b * te - e * tb) ** 2 + (c * te - e * tc) ** 2)
    theta = math.atan2(math.sqrt(disc), _SQRT27 * j3) / 3.0
    r = 2.0 * math.sqrt(j2 / 3.0)
    return (scale * (q + r * math.cos(theta)),
            scale * (q + r * math.cos(theta - _THIRD_TURN)),
            scale * (q + r * math.cos(theta + _THIRD_TURN)))


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
        tol = 1e-12 * np.maximum(1.0, safe_norm(pts))
        if self.kind == "orthant":
            return pts.min(axis=1) >= -tol
        if self.kind == "soc":
            return safe_norm(pts[:, :-1]) <= pts[:, -1] + tol
        return _psd_min_eigs(pts, self.d) >= -tol

    def member(self, x) -> bool:
        return bool(self.member_batch(as_vector(x, self.n)[None, :])[0])

    def boundary_margin(self, x) -> float:
        """Signed Euclidean distance to the cone boundary (negative outside).

        x is checked once (as_vector), and the closed forms run on Python
        floats:
        - orthant: the least coordinate, exactly, or minus the
          root-sum-square of the negative coordinates (math.hypot), to an
          ulp;
        - soc: (t - |u|)/sqrt(2) for x = (u, t), or -|x| where t <= -|u|
          (the polar cone), |u| by math.hypot, to a few ulps of |x|;
        - psd: the least eigenvalue of smat(x), or minus the
          root-sum-square of the negative ones. For 3 x 3 matrices the
          eigenvalues come from Smith's trigonometric closed form
          (_sym3_eigs), to a few eps of the largest entry at any scale;
          the tests hold it to 1e-13 max(1, |x|) of numpy's eigvalsh. Every
          other size takes eigvalsh.
        """
        v = as_vector(x, self.n)
        if self.kind == "soc":
            *u, t = v.tolist()
            r = math.hypot(*u)
            if t <= -r:
                return -math.hypot(r, t)
            return (t - r) / _SQRT2
        # the orthant's coordinates, or the eigenvalues of smat(x)
        if self.kind == "orthant":
            vals = v.tolist()
        elif self.d == 3:
            a, b, c, d, e, f = v.tolist()  # svec order (_svec_layout)
            vals = _sym3_eigs(a, b / _SQRT2, c / _SQRT2, d, e / _SQRT2, f)
        else:
            vals = np.linalg.eigvalsh(_smat_stack(v[None, :], self.d)[0]).tolist()
        low = min(vals)
        if low >= 0.0:
            return low
        return -math.hypot(*[w for w in vals if w < 0.0])

    def dual(self) -> "ReferenceCone":
        return self  # all reference kinds are self-dual

    def oracle(self) -> WeakMembershipOracle:
        body = CenteredBody(self.a, self.eps_a, math.inf)
        return exact_to_weak(self.member_batch, body, label=f"{self.kind}-cone")
