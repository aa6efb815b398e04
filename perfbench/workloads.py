"""The four benchmark workloads, one per user pipeline.

Each workload function takes the seed and returns a Workload: a fixed list of
ops (made from the seed alone) plus the oracle objects built at set-up. An op
answers one or more user-visible operations and checks its answers against a
closed form. Every op reports the primal calls it caused (read from the
package's own CallCounter), its worst error as a share of the pinned
tolerance, and whether every answer was right.

The package is called through its modules (``normdual.dual_norm_eval`` and so
on, never a name bound at import time), so that the traced run's patches
take effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from convexdual import conedual, fenchel, mahler, normdual
from convexdual.core import CenteredBody, ToleranceConfig, WeakVerdict
from convexdual.cutting import BracketError, FlatGaugeError, IterationCapError
from convexdual.oracles import ReferenceCone, ReferenceNorm

DUALNORM_DELTA = 0.02   # dual-norm error gate is 5 * delta
CONE_DELTA = 0.02       # points keep a clear margin of 2 * delta
CONJ_EPS = 0.05         # conjugate and minimum values within eps
MAHLER_SAMPLES = 50_000  # per body, primal and polar each
MAHLER_Z = 2.0          # answers must fall within 2 x the 95% half-width

# errors a pipeline raises for an answer it cannot give; each is a failed op
PIPELINE_ERRORS = (BracketError, FlatGaugeError, IterationCapError,
                   fenchel.CertificateError)


@dataclass
class Outcome:
    calls: int          # primal membership or function-value calls
    err_ratio: float    # worst error / tolerance; <= 1 is correct
    ok: bool


@dataclass
class Op:
    label: str
    run: object         # run(tracer or None) -> Outcome
    weight: int = 1     # user operations answered (Monte Carlo samples)


@dataclass
class Workload:
    ops: list
    nominal_pass_s: float   # pass time when the benchmark was added, 2-vCPU Xeon
    traced_objects: list = field(default_factory=list)


def _wrap_member(tr, oracle):
    return tr.member_oracle(oracle) if tr is not None else oracle


def _wrap_value(tr, oracle):
    return tr.value_oracle(oracle) if tr is not None else oracle


# ---------------------------------------------------------------------------
# dualnorm: scalar chain, a fresh primal oracle per evaluation
# ---------------------------------------------------------------------------

DUALNORM_NORMS = [(p, n) for p in (1.0, 2.0, 3.0, math.inf) for n in (2, 3)]


def _dual_norm_op(norm, y, want):
    def run(tr):
        oracle = _wrap_member(tr, norm.oracle())
        res = normdual.dual_norm_eval(oracle, norm.descriptor, y, DUALNORM_DELTA)
        ratio = abs(res.value - want) / (5.0 * DUALNORM_DELTA)
        return Outcome(oracle.calls.count, ratio, ratio <= 1.0)
    return run


def _icosahedron_axes() -> np.ndarray:
    """One vertex of each antipodal pair of the regular icosahedron."""
    phi = 0.5 * (1.0 + math.sqrt(5.0))
    v = np.array([[0.0, 1.0, phi], [0.0, -1.0, phi], [1.0, phi, 0.0],
                  [-1.0, phi, 0.0], [phi, 0.0, 1.0], [phi, 0.0, -1.0]])
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _stratified_directions(rng, n: int) -> np.ndarray:
    """Well-spread unit directions, placed by the seed.

    Every norm of the battery is invariant under signed coordinate
    permutations, so only the direction within those symmetries sets the
    cost of an evaluation. R^2 gets 4 directions evenly spaced over a
    quarter turn from a random offset, and R^3 gets the six axes of a
    randomly rotated icosahedron (a spherical 5-design). Both cover the
    directions more evenly than independent draws, which keeps the
    workload's total cost steadier from seed to seed.
    """
    if n == 2:
        theta = (rng.uniform() + np.arange(4)) * (0.5 * math.pi / 4)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rot = q * np.sign(np.diag(r))
    return _icosahedron_axes() @ rot.T


def dualnorm(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    groups = []
    for p, n in DUALNORM_NORMS:
        norm = ReferenceNorm.lp(p, n)
        exact = norm.dual()
        dirs = _stratified_directions(rng, n)
        pts = dirs * rng.uniform(0.2, 5.0, size=len(dirs))[:, None]
        groups.append([Op(f"l{p:g}/R{n}", _dual_norm_op(norm, y, exact.eval(y)))
                       for y in pts])
    # interleave the norms, so a slow spell of the host is spread over them
    ops = [op for i in range(6) for g in groups for op in g[i:i + 1]]
    return Workload(ops, nominal_pass_s=8.0)


# ---------------------------------------------------------------------------
# dualcone: clear-margin points near the cone axis a
# ---------------------------------------------------------------------------

DUALCONE_CONES = [("orthant", 4), ("soc", 4), ("psd", 3)]
DUALCONE_POINTS = 500   # per cone
DUALCONE_POOL = 4       # candidates drawn per point kept


def _near_axis_points(cone: ReferenceCone, rng, count: int) -> list:
    """Clear-margin points (|margin| >= 2 delta) at angles from the axis a
    between top/2 and top = arccos(eps_a).

    Beyond top the pairing screen (a . c < eps_a |c|) settles a point with
    no primal call; well below top/2 the validity run stops before its first
    query. The cost of a verdict is heavy-tailed and depends mostly on the
    margin relative to |x|: points close to the ambiguity band cost several
    times the average. So the points are stratified by it: a pool of
    clear-margin candidates, themselves stratified by angle, is sorted by
    margin / |x|, and one point is drawn from each of count equal slices.
    """
    a = cone.a / np.linalg.norm(cone.a)
    top = math.acos(cone.eps_a)
    m = DUALCONE_POOL * count
    pool = []
    for _ in range(100):
        g = rng.normal(size=(m, cone.n))
        g -= np.outer(g @ a, a)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        theta = top * (1.0 + (rng.permutation(m) + rng.uniform(size=m)) / m) / 2.0
        X = (np.outer(np.cos(theta), a) + np.sin(theta)[:, None] * g) \
            * rng.uniform(0.6, 1.4, size=(m, 1))
        margins = [cone.boundary_margin(x) for x in X]
        pool += [(mg, x) for mg, x in zip(margins, X) if abs(mg) >= 2.0 * CONE_DELTA]
        if len(pool) >= m:
            break
    else:
        raise RuntimeError(f"too few clear-margin points for the {cone.kind} cone")
    pool.sort(key=lambda p: p[0] / np.linalg.norm(p[1]))
    edges = np.linspace(0, len(pool), count + 1).astype(int)
    picks = [pool[rng.integers(lo, hi)] for lo, hi in zip(edges[:-1], edges[1:])]
    return [(picks[i][1], picks[i][0]) for i in rng.permutation(count)]


def _dual_cone_op(dual, primal, x, margin):
    want = WeakVerdict.IN_THICKENED if margin > 0 else WeakVerdict.NOT_IN_SHRUNK

    def run(tr):
        before = primal.calls.count
        got = dual.query(x, CONE_DELTA)
        # a wrong verdict is as far outside the ambiguity band as the margin
        ok = got is want
        return Outcome(primal.calls.count - before,
                       0.0 if ok else abs(margin) / (2.0 * CONE_DELTA), ok)
    return run


def dualcone(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    groups, objects = [], []
    for kind, size in DUALCONE_CONES:
        cone = ReferenceCone(kind, size)
        primal = cone.oracle()
        dual = conedual.dual_cone_wmem(primal, conedual.descriptor_from_reference(cone))
        objects += [(primal, "oracles.member"),
                    (dual._kb_oracle, "conedual.section_transfer")]
        groups.append([Op(kind, _dual_cone_op(dual, primal, x, m))
                       for x, m in _near_axis_points(cone, rng, DUALCONE_POINTS)])
    ops = [op for batch in zip(*groups) for op in batch]
    return Workload(ops, nominal_pass_s=7.5, traced_objects=objects)


# ---------------------------------------------------------------------------
# conjugate: Fenchel values plus interior minima
# ---------------------------------------------------------------------------

CONJUGATE_FUNCS = [("half_square_norm", 2), ("square_norm", 3), ("quartic_quarter", 1)]
CONJUGATE_POINTS = 8    # per function

# the three interior-minimum cases of the acceptance battery:
# (function, dimension, ball center, cap, minimum)
MIN_CASES = [
    ("half_square_norm", 2, (0.3, -0.2), 4.0, 0.0),
    ("exp_pair", 2, (0.0, 0.0), 8.0, 2.0),
    ("square_norm", 3, (0.25, 0.25, 0.25), 8.0, 0.0),
]


def _conjugate_op(ref, y):
    want = ref.conjugate(y)

    def run(tr):
        values = _wrap_value(tr, ref.approx_oracle())
        est = fenchel.fenchel_eval(values, ref.cert, y, CONJ_EPS)
        ratio = abs(est.value - want) / CONJ_EPS
        return Outcome(values.calls.count, ratio, ratio <= 1.0)
    return run


def _min_op(ref, center, cap, want):
    def run(tr):
        values = _wrap_value(tr, ref.approx_oracle())
        epi = fenchel.EpigraphBody(CenteredBody(np.array(center), 1.0, 1.0), cap, values)
        res = fenchel.min_via_wopt(epi, fenchel.InteriorMinCertificate(0.5), CONJ_EPS)
        ratio = abs(res.value - want) / CONJ_EPS
        return Outcome(values.calls.count, ratio, ratio <= 1.0)
    return run


def conjugate(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    groups = []
    for name, n in CONJUGATE_FUNCS:
        ref = fenchel.make_reference_function(name, n)
        groups.append([Op(f"conj/{name}", _conjugate_op(ref, y))
                       for y in rng.normal(size=(CONJUGATE_POINTS, n))])
    ops = [op for batch in zip(*groups) for op in batch]
    for name, n, center, cap, want in MIN_CASES:
        ref = fenchel.make_reference_function(name, n)
        ops.append(Op(f"min/{name}", _min_op(ref, center, cap, want)))
    return Workload(ops, nominal_pass_s=6.5)


# ---------------------------------------------------------------------------
# mahler: batched polar oracle and Monte Carlo sampling
# ---------------------------------------------------------------------------

def _mahler_op(primal, oracle, desc, target, seed):
    """One Mahler product; primal is the user's oracle under oracle."""
    cfg = ToleranceConfig(rng_seed=seed)

    def run(tr):
        before = primal.calls.count
        est = mahler.mahler_volume(oracle, desc, MAHLER_SAMPLES, cfg)
        ratio = abs(est.value - target) / (MAHLER_Z * est.half_width)
        return Outcome(primal.calls.count - before, ratio, ratio <= 1.0)
    return run


def mahler_products(seed: int) -> Workload:
    bodies, objects = [], []
    for p, n, target in [(2.0, 2, math.pi ** 2), (1.0, 2, 8.0), (1.0, 3, 32.0 / 3.0)]:
        norm = ReferenceNorm.lp(p, n)
        oracle = norm.oracle()
        objects.append((oracle, "oracles.member"))
        bodies.append((f"l{p:g}/R{n}", oracle, oracle, norm.descriptor, target))
    norm = ReferenceNorm.lp(2.0, 2)
    base = norm.oracle()
    image, desc = mahler.linear_image(base, norm.descriptor,
                                      np.array([[2.0, 1.0], [0.0, 1.0]]))
    objects += [(base, "oracles.member"), (image, "mahler.linear_image")]
    bodies.append(("image-l2/R2", base, image, desc, math.pi ** 2))
    # every body samples its own pair of streams (primal seed s, polar s + 1)
    ops = [Op(label, _mahler_op(primal, oracle, d, target, 2 * (4 * seed + i)),
              weight=MAHLER_SAMPLES)
           for i, (label, primal, oracle, d, target) in enumerate(bodies)]
    return Workload(ops, nominal_pass_s=4.0, traced_objects=objects)


WORKLOADS = {
    "dualnorm": dualnorm,
    "dualcone": dualcone,
    "conjugate": conjugate,
    "mahler": mahler_products,
}
