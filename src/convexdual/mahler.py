"""Monte Carlo volume and Mahler products from weak membership oracles.

The volume of a sandwiched body is estimated by uniform sampling of its
bounding box; the Mahler product multiplies the body's estimate with the
estimate for its polar, whose oracle is derived (not hand-written) from the
primal one. Sampling slack is tied to the box scale, far below the Monte
Carlo resolution, so verdict ambiguity near the boundary is statistically
invisible.

One screen serves every oracle this module asks (_sandwich_query): a row
inside the inner ball or outside the outer ball of the body's centering
data B(a, inner) <= K <= B(a, outer) is decided there at no call, and only
the rows in the shell between the two balls reach the oracle's
query_batch. volume_mc screens its samples by the sampled body's radii,
and linear_image screens its pulled-back rows by its base's radii, which
are tighter than the image's; the Euclidean disc and its images cost no
primal call at all.

Both runs of mahler_volume then read one net: the polar oracle
(normdual.DualBallOracle) keeps a net of directions with a support bound
and a witness each, built at +-e_i by the first batch of either run that
leaves more rows than that, and its bounds and witnesses decide most
shell rows of both runs. A bound hi(v) refutes primal samples and
certifies polar ones; a witness near the body certifies primal samples
and refutes polar ones. In R^2 and R^3 the net grows, one support run per
round, where the rows it leaves unsettled, at one call each on either
side, pay for a new direction. There each run asks one direction of each
+- pair and enters its answer for both, as the ball is symmetric. So each
run costs a fraction of a primal call per shell sample. The polar
oracle also keeps one cut pool for its life: its validity runs cut the
centres outside the primal ball with the separator halfspaces that the
net's support runs and earlier validity runs bought, at no call.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONFIG, NormDescriptor, ToleranceConfig, positive_finite,
                   rng_stream)
from .cutting import _BLOCK
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


def _sandwich_query(oracle: WeakMembershipOracle, pts: np.ndarray,
                    delta: float) -> np.ndarray:
    """The oracle's verdicts on the rows of pts, True = IN_THICKENED, asking
    it only about the rows its body's sandwich B(a, inner) <= K <= B(a, outer)
    leaves: a row with |x - a| <= inner is IN and one with |x - a| > outer is
    OUT, at no call. Both verdicts are legal at every slack above the
    rounding of |x - a|. Only the rows asked reach oracle.query_batch, so
    its call counter, and any tracer on it, count exactly those; pts is
    released before the query, so a caller that hands over its only
    reference frees the rows during it. The distances are summed in blocks
    of _BLOCK rows, so the squares take one block's temporary, not one the
    size of pts; each row's sum is the same either way."""
    body = oracle.body
    dist = np.empty(len(pts))
    for lo in range(0, len(pts), _BLOCK):
        sq = pts[lo:lo + _BLOCK] - body.center
        sq *= sq
        dist[lo:lo + _BLOCK] = np.sqrt(sq.sum(axis=1))
    out = dist <= body.inner_radius
    ask = ~out & (dist <= body.outer_radius)
    asked = pts[ask]
    del pts, dist  # only the asked rows live through the query
    if len(asked):
        out[ask] = oracle.query_batch(asked, delta)
    return out


def volume_mc(oracle: WeakMembershipOracle, box_radius: float, samples: int,
              seed: int) -> VolumeEstimate:
    """Estimate the volume of the oracle's body inside [-box, box]^n.

    Samples are drawn in fixed-size chunks, each from its own counter-keyed
    stream, so the estimate depends only on (seed, samples) and extending a
    run replays the shared prefix. The query slack is box_radius * 1e-6:
    boundary ambiguity at that scale is orders of magnitude below the
    binomial noise, and it dwarfs the rounding of the sandwich screen
    (_sandwich_query), which settles the samples inside the inner ball or
    outside the outer ball at no call. The half-width is the normal 95 %
    one, 1.96 sqrt(p (1 - p)/N) of the cube, for a hit share p strictly
    between 0 and 1. At p = 0 or 1 that reads 0, so the half-width there is
    the exact one-sided bound on the unseen side, 1 - 0.025^(1/N) of the
    cube: were the unseen side (the body at p = 0, the rest of the box at
    p = 1) that share of the box or more, all N samples would miss it with
    chance at most 0.025.
    """
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
    for start in range(0, samples, _CHUNK):
        # the chunk goes in unnamed, so it is freed during the query
        size = (min(_CHUNK, samples - start), n)
        inside = _sandwich_query(oracle, rng_stream(seed, start // _CHUNK).uniform(
            -box_radius, box_radius, size=size), delta)
        hits += int(np.count_nonzero(inside))
    p = hits / samples
    cube = (2.0 * box_radius) ** n
    if 0 < hits < samples:
        half = 1.96 * math.sqrt(p * (1.0 - p) / samples) * cube
    else:
        # no miss or no hit: the normal width is 0, so take the exact
        # one-sided bound on the unseen side, 1 - 0.025^(1/N) of the cube
        half = (1.0 - 0.025 ** (1.0 / samples)) * cube
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
    one, so the product is computed from a single membership routine. Each
    run asks one side of the polar oracle's entry (DualBallOracle._net_query),
    whose sandwich and net settle what they can: the primal run through
    primal=True, so the primal oracle sees only the shell samples that the
    net leaves, and the polar run through the oracle's verdict function.
    The polar oracle, and with it its net and cut pool, lives for this call
    only, so the calls of a call repeat from call to call. The half-width
    combines the two independent estimates by first-order error
    propagation. cfg supplies the seed: the primal run samples the streams
    of cfg.rng_seed, the polar run those of cfg.rng_seed + 1. Both seeds are
    checked (rng_stream) before the first call, so a seed that keys no
    stream raises ValueError at no cost.
    """
    rng_stream(cfg.rng_seed)
    rng_stream(cfg.rng_seed + 1)
    dual_oracle = DualBallOracle(oracle, desc)
    screened = WeakMembershipOracle(functools.partial(dual_oracle._net_query, primal=True),
                                    oracle.body, label=f"{oracle.calls.label}@net")
    primal = volume_mc(screened, 1.0 / desc.k_lo, samples, cfg.rng_seed)
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
    of A K, and a shrunk miss rules out the delta-shrinking. The pulled-back
    rows pass the base body's sandwich first (_sandwich_query), whose radii
    are tighter than the image's, so the base is asked only about the rows
    in its own shell: none at all when K is a Euclidean ball. Used to check
    that Mahler products do not move under volume-preserving maps.
    """
    A = np.asarray(A, dtype=float)
    n = desc.n
    if A.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix")
    if not np.isfinite(A).all():
        raise ValueError("the map must have finite entries")
    sig = np.linalg.svd(A, compute_uv=False)
    s_min, s_max = float(sig[-1]), float(sig[0])
    if s_min <= 0.0:
        raise ValueError("the map must be invertible")
    inv = np.linalg.inv(A)
    image_desc = NormDescriptor(n, desc.k_lo / s_max, desc.k_hi / s_min)

    def fn(X, delta):
        return _sandwich_query(oracle, X @ inv.T, delta / s_max)

    return (WeakMembershipOracle(fn, image_desc.ball(), label=f"{oracle.calls.label}@image"),
            image_desc)
