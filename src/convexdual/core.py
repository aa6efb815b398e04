"""Shared primitives: vectors, body descriptors, verdicts, counters, RNG streams.

Everything downstream works with plain float64 numpy arrays. The helpers here
validate the handful of invariants the oracle layer relies on (finite entries,
fixed dimension, positive radii) and centralize the two pieces of global
policy: oracle-call accounting and counter-based random streams.
"""

from __future__ import annotations

import enum
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np


class WeakVerdict(enum.Enum):
    """Answer of a weak membership query.

    IN_THICKENED asserts the point lies in the delta-thickening of the body;
    NOT_IN_SHRUNK asserts it lies outside the delta-shrinking. Inside the
    overlap band either answer is legal, so callers must never read a verdict
    as exact membership.
    """

    IN_THICKENED = "in-thickened"
    NOT_IN_SHRUNK = "not-in-shrunk"


def positive_finite(x, name: str) -> float:
    """Return x as a float; raise ValueError unless it is positive and finite."""
    if x <= 0.0 or not math.isfinite(x):
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return float(x)


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and return x as a 1-D float64 array.

    Raises ValueError on empty, non-1-D, or non-finite input, and on a
    dimension mismatch when n is given.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite coordinates")
    if n is not None and v.size != n:
        raise ValueError(f"expected dimension {n}, got {v.size}")
    return v


def as_stack(X, n: int) -> np.ndarray:
    """Validate and return X as an (m, n) float64 array, m >= 0.

    The stack counterpart of as_vector: raises ValueError on any other shape
    and on non-finite entries.
    """
    S = np.asarray(X, dtype=float)
    if S.ndim != 2 or S.shape[1] != n:
        raise ValueError(f"expected an (m, {n}) stack, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("stack has non-finite entries")
    return S


def safe_norm(X):
    """Euclidean norm of a vector, or of each row of a stack, finite for
    finite input: where the plain norm of a finite row overflows (above
    about 1e154) the row is first divided by its largest magnitude.
    Everywhere else, rows with an inf or a nan included, the result is the
    plain norm, bit for bit."""
    X = np.asarray(X, dtype=float)
    try:
        with np.errstate(over="raise"):
            return np.linalg.norm(X, axis=-1)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        plain = np.linalg.norm(X, axis=-1)
        top = np.abs(X).max(axis=-1, keepdims=True)
        scaled = top[..., 0] * np.linalg.norm(X / np.where(top > 0.0, top, 1.0), axis=-1)
    return np.where(np.isfinite(plain) | ~np.isfinite(top[..., 0]), plain, scaled)


@dataclass(frozen=True)
class NormDescriptor:
    """Euclidean sandwich constants of a norm: k_lo*|x| <= nu(x) <= k_hi*|x|.

    The dual norm then satisfies the mirrored sandwich with constants
    (1/k_hi, 1/k_lo), and the unit ball is wedged between the Euclidean balls
    of radii 1/k_hi and 1/k_lo.
    """

    n: int
    k_lo: float
    k_hi: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if not (0.0 < self.k_lo <= self.k_hi) or not math.isfinite(self.k_hi):
            raise ValueError(
                f"need 0 < k_lo <= k_hi finite, got ({self.k_lo}, {self.k_hi})"
            )

    def dual(self) -> "NormDescriptor":
        return NormDescriptor(self.n, 1.0 / self.k_hi, 1.0 / self.k_lo)

    def rescaled(self, r: float) -> "NormDescriptor":
        """Descriptor of x -> r*nu(x)."""
        if r <= 0.0:
            raise ValueError("scale must be positive")
        return NormDescriptor(self.n, r * self.k_lo, r * self.k_hi)

    def ball(self) -> "CenteredBody":
        """Centering data of the unit ball of the described norm."""
        return CenteredBody(np.zeros(self.n), 1.0 / self.k_hi, 1.0 / self.k_lo)


@dataclass(frozen=True)
class CenteredBody:
    """Well-bounded convex body data: B(center, inner) <= K <= B(center, outer).

    outer_radius may be math.inf for cones; bounded pipelines check for it.
    inner_radius must be finite, and no radius NaN.

    ellipsoid, when given, is a pair (e, Q): a centre e and a symmetric
    positive-definite shape Q with K <= {y : (y - e)' Q^-1 (y - e) <= 1}.
    Like the radii it is a promise about the body, which only its builder
    can vouch for; cutting runs start from it (cutting module header, start
    ellipsoid). Without one they start from B(center, outer).
    """

    center: np.ndarray
    inner_radius: float
    outer_radius: float
    ellipsoid: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not math.isfinite(self.inner_radius):
            raise ValueError(f"inner radius must be finite, got {self.inner_radius}")
        if not (0.0 < self.inner_radius <= self.outer_radius):
            raise ValueError(
                f"need 0 < inner <= outer, got ({self.inner_radius}, {self.outer_radius})"
            )
        if self.ellipsoid is not None:
            e, Q = self.ellipsoid
            e = as_vector(e, self.n)
            Q = np.asarray(Q, dtype=float)
            if Q.shape != (self.n, self.n) or not np.isfinite(Q).all():
                raise ValueError(f"ellipsoid shape must be a finite ({self.n}, {self.n}) "
                                 f"matrix, got shape {Q.shape}")
            if not np.array_equal(Q, Q.T):
                raise ValueError("ellipsoid shape must be symmetric")
            try:
                np.linalg.cholesky(Q)
            except np.linalg.LinAlgError:
                raise ValueError("ellipsoid shape must be positive definite") from None
            object.__setattr__(self, "ellipsoid", (e, Q))

    @property
    def n(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class CallCounter:
    """Thread-safe labeled call counter for oracle-complexity accounting."""

    def __init__(self, label: str = "oracle"):
        self.label = label
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    def add(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("cannot decrement a call counter")
        with self._lock:
            self._count += k

    def reset(self) -> None:
        with self._lock:
            self._count = 0

    def __repr__(self):
        return f"CallCounter({self.label!r}, count={self._count})"


@dataclass(frozen=True)
class ToleranceConfig:
    """The seed of mahler_volume's Monte Carlo streams, its only setting.

    Every other numeric choice belongs to the method: the cut cap is
    cutting._MAX_CUTS, and the gauge tolerance and finite-difference step
    derive from each body (see cutting.approx_separator). The seed stays
    wrapped in this object because the benchmark builds
    ToleranceConfig(rng_seed=...) and passes it to mahler_volume."""

    rng_seed: int = 20260819


DEFAULT_CONFIG = ToleranceConfig()


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based random stream: Philox keyed by (seed, stream).

    Distinct stream indices give statistically independent streams, and the
    mapping is pure, so any partition of work across streams reproduces
    exactly regardless of scheduling. A seed or stream index that is not an
    integer (a bool included; numpy integers are integers) raises
    ValueError, as does one outside a Philox key word.
    """
    for key in (seed, stream):
        if isinstance(key, bool) or not isinstance(key, numbers.Integral):
            raise ValueError(f"seed and stream index must be integers, got {key!r}")
    if not (0 <= seed < 2 ** 64 and 0 <= stream < 2 ** 64):
        raise ValueError("seed and stream index must lie in [0, 2^64 - 1], "
                         "the range of a Philox key word")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
