"""Monte Carlo volume and Mahler products from weak membership oracles.

The volume of a sandwiched body is estimated by uniform sampling of its
bounding box; the Mahler product multiplies the body's estimate with the
estimate for its polar, whose oracle is derived (not hand-written) from the
primal one. Each run reads the body's centering data B(a, inner) <= K <=
B(a, outer) first: a sample inside the inner ball or outside the outer ball
is decided there and costs no oracle call, so only the samples in the shell
between the two balls are asked (none at all on the Euclidean disc, whose
radii agree). The primal run hands the points it certified inside to the
polar oracle's pool, which then refutes most outside polar samples without
a primal call; the polar oracle's first large batch buys certified upper
bounds on the primal's support function over a net of directions, which
accept most inside polar samples without a primal call, so the polar run
costs a fraction of a call per sample. Sampling slack is tied to the box
scale, far below the Monte Carlo resolution, so verdict ambiguity near the
boundary is statistically invisible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONFIG, CenteredBody, NormDescriptor, ToleranceConfig,
                   positive_finite, rng_stream)
from .normdual import DualBallOracle
from .oracles import WeakMembershipOracle

_CHUNK = 65536
_MAX_DIM = 6  # hit rates collapse beyond this; a box sampler is the wrong tool


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    half_width: float   # 95% confidence half-width
    samples: int
    hits: int
    box_radius: float
    seed: int

    @property
    def relative_half_width(self) -> float:
        if self.value == 0.0:
            return math.inf
        return self.half_width / self.value

    def interval(self) -> tuple[float, float]:
        return (self.value - self.half_width, self.value + self.half_width)


def _sandwich_screen(pts: np.ndarray, body: CenteredBody) -> tuple[np.ndarray, np.ndarray]:
    """Rows that B(a, inner) <= K settles inside, and rows that neither
    ball settles; the rest lie outside B(a, outer), hence outside K."""
    sq = pts - body.center
    sq *= sq  # in place: one chunk-sized temporary, not two
    dist = np.sqrt(sq.sum(axis=1))
    inside = dist <= body.inner_radius
    return inside, ~inside & (dist <= body.outer_radius)


def volume_mc(oracle: WeakMembershipOracle, box_radius: float, samples: int,
              seed: int, *, on_inside=None) -> VolumeEstimate:
    """Estimate the volume of the oracle's body inside [-box, box]^n.

    Samples are drawn in fixed-size chunks, each from its own counter-keyed
    stream, so the estimate depends only on (seed, samples) and extending a
    run replays the shared prefix. The query slack is box_radius * 1e-6:
    boundary ambiguity at that scale is orders of magnitude below the
    binomial noise.

    The body's sandwich B(a, inner) <= K <= B(a, outer) settles a sample
    with |x - a| <= inner as inside and one with |x - a| > outer as outside,
    at no oracle call; only the samples between the two balls reach
    oracle.query_batch. Both verdicts are legal at every slack, and the
    slack dwarfs the rounding of |x - a|. on_inside, when given, receives
    each chunk's inside points, settled or asked, and that slack, as
    on_inside(points, slack).
    """
    chunk = _CHUNK
    n = oracle.body.n
    if n > _MAX_DIM:
        raise ValueError(f"box sampling is limited to dimension {_MAX_DIM}")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"sample count must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    positive_finite(box_radius, "box radius")
    delta = box_radius * 1e-6
    hits = 0
    done = 0
    stream = 0
    while done < samples:
        take = min(chunk, samples - done)
        rng = rng_stream(seed, stream)
        pts = rng.uniform(-box_radius, box_radius, size=(take, n))
        inside, ask = _sandwich_screen(pts, oracle.body)
        asked = pts[ask]
        if on_inside is None:
            pts = None  # free the chunk during the query; only on_inside reads it later
        if len(asked):
            inside[ask] = oracle.query_batch(asked, delta)
        hits += int(np.count_nonzero(inside))
        if on_inside is not None:
            on_inside(pts[inside], delta)
        done += take
        stream += 1
    p = hits / samples
    cube = (2.0 * box_radius) ** n
    half = 1.96 * math.sqrt(p * (1.0 - p) / samples) * cube
    return VolumeEstimate(p * cube, half, samples, hits, box_radius, seed)


@dataclass(frozen=True)
class MahlerEstimate:
    value: float
    half_width: float
    primal: VolumeEstimate
    dual: VolumeEstimate

    def interval(self) -> tuple[float, float]:
        return (self.value - self.half_width, self.value + self.half_width)


def mahler_volume(oracle: WeakMembershipOracle, desc: NormDescriptor,
                  samples: int, cfg: ToleranceConfig = DEFAULT_CONFIG) -> MahlerEstimate:
    """Mahler product vol(B) * vol(B*) of a sandwiched unit ball.

    The primal ball lives in the box of radius 1 / k_lo, the polar ball in
    the box of radius k_hi; the polar's oracle is derived from the primal
    one, so the product is computed from a single membership routine. The
    primal run certifies its inside points to the polar oracle's pool. The
    half-width combines the two independent estimates by first-order error
    propagation. cfg supplies the seed: the primal run samples the streams
    of cfg.rng_seed, the polar run those of cfg.rng_seed + 1.
    """
    dual_oracle = DualBallOracle(oracle, desc)
    primal = volume_mc(oracle, 1.0 / desc.k_lo, samples, cfg.rng_seed,
                       on_inside=dual_oracle.certify)
    dual = volume_mc(dual_oracle, desc.k_hi, samples, cfg.rng_seed + 1)
    value = primal.value * dual.value
    half = math.hypot(dual.value * primal.half_width,
                      primal.value * dual.half_width)
    return MahlerEstimate(value, half, primal, dual)


def linear_image(oracle: WeakMembershipOracle, desc: NormDescriptor,
                 A) -> tuple[WeakMembershipOracle, NormDescriptor]:
    """Oracle and sandwich constants for the image body A K.

    Queries pull back through A^{-1} with slack delta / sigma_max(A): a
    thickened hit of K within that slack lands inside the delta-thickening
    of A K, and a shrunk miss rules out the delta-shrinking. Used to check
    that Mahler products do not move under volume-preserving maps.
    """
    A = np.asarray(A, dtype=float)
    n = desc.n
    if A.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix")
    sig = np.linalg.svd(A, compute_uv=False)
    s_min, s_max = float(sig[-1]), float(sig[0])
    if s_min <= 0.0:
        raise ValueError("the map must be invertible")
    inv = np.linalg.inv(A)
    image_desc = NormDescriptor(n, desc.k_lo / s_max, desc.k_hi / s_min)

    def fn(X, delta):
        return oracle.query_batch(X @ inv.T, delta / s_max)

    return (WeakMembershipOracle(fn, image_desc.ball(), label=f"{oracle.calls.label}@image"),
            image_desc)
