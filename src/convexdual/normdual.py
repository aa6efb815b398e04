"""Dual-norm evaluation from a weak membership oracle for the primal ball.

The dual norm is a support function: nu*(y) = max of y . x over the primal
unit ball B, its support value h_B(y). So dual_norm_eval is one certified
support query over B (cutting.wopt_from_wmem): weak optimization from weak
membership, run once at y/|y| and scaled back by |y|.

The paper's longer route stays as stages of their own. Membership for the
primal ball gives weak validity of linear functionals over it
(cutting.wval_batch); validity over the primal ball decides weak
membership in the dual ball (the k >= 2 lemma, after rescaling:
rescale_norm and DualBallOracle, which also serves both Mahler runs,
and settles most of their rows at no call from support_batch runs over a
net of directions that grows where their rows are, each unsettled row of
either run priced at one call: its bounds refute primal rows and certify
polar ones, and its witnesses certify primal rows and refute polar ones);
and an interval bisection turns ball membership into an additive-error
norm value with a certificate (approx_from_wmem and its BisectionTrace).

Scaling conventions: nu_r(x) = r * nu(x) has unit ball B_nu / r and sandwich
constants (r * k, r * K); membership of x in B_nu is membership of x/r in
B_(nu_r); the conjugate of nu_r is nu* / r.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CenteredBody,
    Interval,
    NormDescriptor,
    WeakVerdict,
    as_vector,
    positive_finite,
    safe_norm,
)
from . import cutting
from .cutting import (_BLOCK, _HULL_DIMS, CutPool, _gauge_bound, _Hull, support_batch,
                      validity_centre_slack, wval_batch)
# not called here; kept because perfbench's layer trace patches these names
from .cutting import gauge_batch, wval_from_wmem  # noqa: F401
from .oracles import FunctionApproxOracle, WeakMembershipOracle


@dataclass(frozen=True)
class ScalingBounds:
    """Ball scalings that wedge the thickened and shrunk unit balls.

    (1 + k*d) B <= S(B, d) <= (1 + K*d) B and, when K*d < 1,
    (1 - K*d) B <= S(B, -d) <= (1 - k*d) B.
    """

    thickened_inner: float
    thickened_outer: float
    shrunk_inner: float
    shrunk_outer: float


def ball_scaling_bounds(desc: NormDescriptor, delta: float) -> ScalingBounds:
    positive_finite(delta, "delta")
    if desc.k_hi * delta >= 1.0:
        raise ValueError(
            f"shrink bound needs k_hi * delta < 1, got {desc.k_hi * delta:.3g}"
        )
    return ScalingBounds(
        thickened_inner=1.0 + desc.k_lo * delta,
        thickened_outer=1.0 + desc.k_hi * delta,
        shrunk_inner=1.0 - desc.k_hi * delta,
        shrunk_outer=1.0 - desc.k_lo * delta,
    )


def rescale_norm(oracle: WeakMembershipOracle, desc: NormDescriptor,
                 r: float) -> tuple[WeakMembershipOracle, NormDescriptor]:
    """Oracle and descriptor of the rescaled norm x -> r * nu(x).

    The rescaled ball is B_nu / r; distances scale linearly, so a query at
    slack delta maps to a base query at slack r * delta.
    """
    positive_finite(r, "scale")
    desc_r = desc.rescaled(r)

    def fn(X, delta):
        return oracle.query_batch(r * X, r * delta)

    return WeakMembershipOracle(fn, desc_r.ball(),
                                label=f"{oracle.calls.label}*{r:.3g}"), desc_r


# width of a net support interval over 1/k_hi, a lower bound on h_B. Over
# 1e-2, 3e-3, 1e-3, 3e-4 and 1e-4 the grown net's seed-1 mahler calls per
# sample fall, 0.167 to 0.0096, but at 1e-4 the smooth l3/R^3 ball costs
# more (786,373 calls at 50,000 samples) than 64 fixed directions did
# (775,871); 3e-4 is the tightest width that stays below
_NET_REL_ERR = 3e-4
_SAME_DIRECTION = 1.0 - 1e-12  # cosine above which a new direction repeats one


def _net_directions(n: int) -> np.ndarray:
    """The directions that the dual ball's empty net is first built from:
    +-e_i in R^2 and R^3, where the net then grows (DualBallOracle), and
    elsewhere the fixed 2 n^2 directions +-e_i and (+-e_i +-e_j)/sqrt(2),
    i < j."""
    eye = np.eye(n)
    return np.vstack([eye, -eye, *[(si * eye[i] + sj * eye[j]) / math.sqrt(2.0)
                                   for i, j in itertools.combinations(range(n), 2)
                                   if n not in _HULL_DIMS
                                   for si in (1.0, -1.0) for sj in (1.0, -1.0)]])


class DualBallOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual unit ball, derived from the primal.

    Every query, one point or many, runs one path, _net_query on the polar
    side; mahler_volume's primal run asks its primal side. Each side first
    settles for free what its own sandwich decides from the row norms:
    |x| <= k_lo is inside the dual ball and |x| >= k_hi outside it, and the
    primal side reads the radii 1/k_hi and 1/k_lo.

    The rows the sandwich leaves meet the net, once it exists. The net is a
    set V of unit directions with, per direction v, a bound hi(v) >= h_B(v)
    (the support interval of the cutting module header) and a witness w_v
    within the run's centre slack s of B_nu, from cutting.support_batch
    runs over the primal ball. A body and its polar are decided by the same
    data: the bounds certify polar rows and refute primal ones, and the
    witnesses refute polar rows and certify primal ones. Every row of either
    run is first refuted, and then certified, for free.

    Polar refuted: x.w - |x| s > 1 for some witness w. Such a w lies within
    s of some b in B_nu, so x.w <= x.b + |x| s <= nu*(x) + |x| s, hence
    nu*(x) > 1, and NOT_IN_SHRUNK is legal at every slack.

    Primal refuted: v.x > hi(v) for some net direction v. Then
    v.x > h_B(v), so x is outside B_nu, and NOT_IN_SHRUNK is legal at
    every slack.

    Certified, on either side, by one gauge certificate (_gauge_bound): a
    row is written over n generators G_i with gauge bounds g_i, and where
    sum lam_i g_i + L |e| <= 1 it is inside, so IN_THICKENED is legal at
    every slack. Polar: G = V, g = hi and L = 1 / k_lo, as
    nu*(v) = h_B(v) <= hi(v) and B_nu lies in B(0, 1/k_lo). Primal: G the
    witnesses, g = 1 + k_hi s and L = k_hi, as nu <= k_hi |.| and a witness
    within s of b in B_nu has nu(w) <= nu(b) + k_hi s. The bound holds for
    any choice of the n generators; in R^2 and R^3 each row takes the facet
    of the generators' hull (_Hull) that its ray meets first, where its lam
    is nonnegative and its residual is rounding. The net's arrays and the
    two hulls are all the oracle keeps: each certificate is read from them
    when it is asked for (_upper).

    Both sides ask through _net_query, with one sandwich, one refutation
    (_lower) and one certificate (_upper) over the side's generators. The
    net is empty until the first batch of either side whose sandwich leaves
    more rows than _net_directions has directions (+-e_i in R^2 and R^3)
    builds it from those. In R^2 and R^3 the net then grows where its two
    approximations of the body disagree, as in the sandwich algorithm of
    polyhedral approximation (Rote 1992; Bronstein 2008): each round adds
    the directions that the batch's unsettled rows pay for
    (_new_directions), by one more support run, and the hulls take the new
    points. An unsettled row is priced at one call on either side, and a
    direction at the last support run's calls per row it ran, so a face buys
    a direction only where many of its rows would pay for it. The rows that
    pay for no direction are asked together after the last round.

    In R^2 and R^3 the net is symmetric: a support run asks one direction
    of each +- pair and enters its answer for both (_grow). Each mirrored
    datum is certified for every legal primal oracle, as the symmetry is
    the ball's, B_nu = -B_nu, not the oracle's answers': hi(v) >= h_B(v) =
    h_B(-v); a witness w within s of b in B_nu puts -w within s of -b in
    B_nu; and a halfspace u . y <= beta that holds r B_nu gives
    -u . y <= beta, which holds -r B_nu = r B_nu. Beyond R^3 the fixed net
    asks every direction, as mirroring it there measured more calls.

    Every rule trusts hi(v) and s as support_batch certifies them, so the
    caveat of the cutting module header (the separator's sigma is not
    charged to the support interval) covers the primal verdicts as it
    covers the polar ones. All bounds are padded for rounding (_lower,
    _gauge_bound). Smaller batches leave the net empty and cost what the
    validity run, or the primal oracle, costs.

    The polar rows all screens leave go to one validity run over the
    primal ball, which is what makes million-point volume sampling
    feasible. In R^2 and R^3 its rows run in turn on hull centres, all on
    one cut polytope that starts from the oracle's pool and keeps every
    row's cuts for the rows after it; elsewhere they run in lockstep on
    the ellipsoid (cutting.wval_batch). It decides the rescaled norm mu = r * nu* with
    r = max(1, 2 k_hi), so that mu's sandwich constant k_lo = r / k_hi is at
    least 2; x is in B_(nu*) iff x / r is in B_mu, and the run is over
    B_(mu*) = r B_nu at slack delta / r, clamped below 1/2. With k_lo >= 2
    and 0 < delta < 1/2 (the k >= 2 lemma), an upper bound max <= 1 + delta
    over the shrunk body forces mu(x / r) <= 1 + k_lo * delta, inside the
    thickening, and a large value forces mu(x / r) > 1 - k_lo * delta,
    outside the shrinking.

    Every run the oracle makes asks about the one primal ball, so it keeps
    one cutting.CutPool for its life: separator halfspaces that hold
    r B_nu, where the validity runs work (cutting module header, pooled
    cuts). The validity runs read the pool and write to it, so a centre
    outside the ball is mostly cut by a halfspace that an earlier run
    bought, at no call. The net's support runs, over B_nu, write to it with
    each beta times r, but never read it (each runs on a fresh pool): a net
    bound is kept for the oracle's life, and an imported halfspace would
    carry another run's uncharged sigma into it. A run's halfspace is moved
    out by about its centre slack before it is pooled, so the net's runs ask
    their centres at no more than dq_v / r, where dq_v is the centre slack
    of a validity run at the delta of the batch that first builds the net;
    that cap is fixed for the oracle's life. At their own slack their
    halfspaces would sit too far outside the facets to cut a validity run's
    centres.
    """

    stragglers = 0  # always 0 (the cap raises); perfbench's layer trace reads it

    def __init__(self, primal: WeakMembershipOracle, desc: NormDescriptor):
        body = CenteredBody(np.zeros(desc.n), desc.k_lo, desc.k_hi)
        super().__init__(functools.partial(self._net_query, primal=False), body, label="dual-ball")
        self.primal = primal
        self.primal_descriptor = desc
        self.r = max(1.0, 2.0 * desc.k_hi)
        self._scaled_oracle = rescale_norm(primal, desc, 1.0 / self.r)[0]
        self._net = np.zeros((0, desc.n))  # the net's unit directions V
        self._net_hi = np.zeros(0)  # per net direction v, hi(v) >= h_B(v)
        self._witness = np.zeros((0, desc.n))  # per net direction, its witness w_v
        self._witness_slack = 0.0  # s: every witness lies within s of B_nu
        # in R^2 and R^3, the hulls of the points V / hi and W / g (in R^1 a
        # hull has no facet to form, and rows take their nearest generators)
        self._hulls = (_Hull(desc.n), _Hull(desc.n)) if desc.n in _HULL_DIMS else None
        self._direction_calls = None  # primal calls per row of the last support run
        # separator halfspaces over r B_nu, where the validity runs work: they
        # read and write it, and the net's support runs write to it
        self._pool = CutPool(desc.n)
        self._net_dq = math.inf  # the net runs' centre slack cap, once a batch sets it

    def _slack(self, delta: float) -> float:
        return min(delta / self.r, 0.49)

    def _lower(self, C: np.ndarray, nrm: np.ndarray, primal: bool) -> np.ndarray:
        """Per row x of C, nrm holding the norms, a lower bound on its gauge
        on the primal ball or (primal False) the dual one, so a row above 1
        is refuted (class docstring): the largest (x.g - |x| pad) / div over
        the side's generators g. Primal: v.x / hi(v) over the net, as
        v.x <= nu(x) hi(v). Polar: x.w - |x| s over the witnesses. rho pads
        for a rounding of a few n machine epsilons: primal, pad = rho and
        div = hi(v) (1 + rho); polar, pad = s (1 + rho) + rho |w| and
        div = 1 + rho. Its temporaries are the size of C times the net, so
        the rounds hand it one block of _BLOCK rows at a time (_round)."""
        rho = 16 * self.body.n * np.finfo(float).eps
        if primal:
            G, pad, div = self._net, rho, self._net_hi * (1.0 + rho)
        else:
            G, div = self._witness, 1.0 + rho
            pad = self._witness_slack * (1.0 + rho) + rho * np.linalg.norm(G, axis=1)
        return ((C @ G.T - nrm[:, None] * pad) / div).max(axis=1)

    def _grow(self, V: np.ndarray) -> None:
        """Append the unit directions V to the net: hi(v) and the witness
        w_v for each from one support run over the primal ball at width
        _NET_REL_ERR / k_hi, and both hulls grown with them. In R^2 and R^3
        the run is one per +- pair: it asks only the rows of V that neither
        repeat nor mirror a direction of the net or a row kept before them,
        and enters each answer twice, v with hi(v) and w_v and -v with hi(v)
        and -w_v, its halfspaces (u, beta) beside (-u, beta) (class
        docstring). Each run's centre slack, at most the net's cap, bounds
        its witnesses' distance to B_nu, so the largest bounds them all. The
        run gets a fresh pool, so it reads no halfspace of another run, and
        what it writes goes to the oracle's pool, scaled to r B_nu. Its
        primal calls per row it ran price the next direction."""
        desc = self.primal_descriptor
        mirror = self._hulls is not None  # in R^2 and R^3
        if mirror:
            kept = self._net
            for v in V:
                if np.max(np.abs(kept @ v), initial=0.0) < _SAME_DIRECTION:
                    kept = np.vstack([kept, v])
            V = kept[len(self._net):]
        before = self.primal.calls.count
        made = CutPool(desc.n)
        _, hi, W, _, s = support_batch(self.primal, desc.ball(), V, _NET_REL_ERR / desc.k_hi,
                                       pool=made, max_dq=self._net_dq)
        self._direction_calls = (self.primal.calls.count - before) / len(V)
        pooled = made.rows
        pooled[:, -1] *= self.r  # u . y <= beta over B_nu is u . y <= r beta over r B_nu
        if mirror:
            V, hi, W = np.vstack([V, -V]), np.concatenate([hi, hi]), np.vstack([W, -W])
            pooled = np.vstack([pooled, pooled * np.append(-np.ones(desc.n), 1.0)])
        self._pool.add(pooled)
        self._net = np.vstack([self._net, V])
        self._net_hi = np.concatenate([self._net_hi, hi])
        self._witness = np.vstack([self._witness, W])
        self._witness_slack = max(self._witness_slack, s)
        if self._hulls is not None:
            self._hulls[0].add(V / hi[:, None])
            self._hulls[1].add(W / (1.0 + desc.k_hi * self._witness_slack))

    def _planes(self, primal: bool) -> tuple[np.ndarray, np.ndarray] | None:
        """The facets and planes of the certificate hull of the primal side
        or (primal False) of the polar one (_Hull.planes), None beyond R^3."""
        return None if self._hulls is None else self._hulls[int(primal)].planes()

    def _upper(self, C: np.ndarray, nrm: np.ndarray, primal: bool,
               planes: tuple[np.ndarray, np.ndarray] | None
               ) -> tuple[np.ndarray, np.ndarray | None]:
        """_gauge_bound of the rows C, nrm holding their norms, on the
        primal ball or (primal False) on the dual one, over that side's
        generators and the planes of its hull (_planes; class docstring):
        the witnesses with g = 1 + k_hi s and L = k_hi, or V with g = hi and
        L = 1 / k_lo."""
        desc = self.primal_descriptor
        if primal:
            g = np.full(len(self._witness), 1.0 + desc.k_hi * self._witness_slack)
            return _gauge_bound(self._witness, g, desc.k_hi, planes, C, nrm)
        return _gauge_bound(self._net, self._net_hi, 1.0 / desc.k_lo, planes, C, nrm)

    def _new_directions(self, normal: np.ndarray, paid: np.ndarray, first: np.ndarray,
                        summed: np.ndarray, primal: bool) -> np.ndarray:
        """The directions that one growth round's open rows pay for, read
        from its per-face totals (_round). normal holds the unit normals of
        the certificate hull's facets, which are grouped into faces by those
        normals, rounded, so coplanar facets share one, and the faces are
        taken in the order of the rounded normals. Per face, paid sums the shares of the open rows
        whose ray meets it first, first is the facet that its first such row
        met (-1 where none did), and on the polar side summed adds up those
        rows' unit directions.

        A face gets a direction when its rows would cost more than the
        direction: a row costs one call on either side, and a direction the
        last support run's calls per row it ran. Each row counts with the
        share of its sandwich upper - lower that one support run could
        remove: a direction through the row leaves a sandwich about
        |x| (err + s) thick on the polar side and k_hi (err + s) nu(x) on the
        primal one, err being the run's width, so a row already that thin
        counts for nothing. A primal face's direction is the normal of its
        first row's facet, a polar face's the mean direction of its rows,
        and a direction that repeats one of the net is not added."""
        met = np.flatnonzero(first >= 0)
        if primal:
            U = normal[first[met]]
        else:
            U = summed[met]
            U /= np.linalg.norm(U, axis=1)[:, None]
        pays = ((paid[met] > self._direction_calls)
                & (np.max(U @ self._net.T, axis=1) < _SAME_DIRECTION))
        return U[pays]

    def _net_query(self, pts: np.ndarray, delta: float, primal: bool) -> np.ndarray:
        """Verdicts, True = IN_THICKENED, of the rows pts on the primal ball
        or (primal False) on the dual one. The side's sandwich settles first,
        from the row norms, at no call: a row no longer than 1/k_hi (primal)
        or k_lo (polar) is IN, and one no shorter than 1/k_lo or k_hi is
        OUT. The rows it leaves are refuted, then certified, by the net, and
        the rest asked together, of the primal oracle or of the validity
        run. The polar side is the oracle's verdict function, and
        mahler_volume's primal run asks the primal side, so only the rows
        the net leaves reach the primal oracle. While the net is empty, a
        batch whose sandwich leaves more rows than _net_directions has
        directions builds it from those first, and its delta fixes the cap
        on the net's centre slack (class docstring). Then the net settles
        the open rows in rounds (_round), and in R^2 and R^3 it grows by the
        directions each round's open rows pay for, until a round buys none.
        The norms are taken, and every round passes over the open rows, in
        blocks of _BLOCK rows, so beside pts the query holds one norm and
        one index per row and block-sized temporaries."""
        desc = self.primal_descriptor
        inner, outer = (1.0 / desc.k_hi, 1.0 / desc.k_lo) if primal else (desc.k_lo, desc.k_hi)
        nrm = np.empty(len(pts))
        for lo in range(0, len(pts), _BLOCK):
            nrm[lo:lo + _BLOCK] = np.linalg.norm(pts[lo:lo + _BLOCK], axis=1)
        out = nrm <= inner
        todo = np.flatnonzero(~out & (nrm < outer))  # rows that no rule has settled
        if not len(self._net):
            start = _net_directions(self.body.n)
            if len(todo) > len(start):
                self._net_dq = validity_centre_slack(self._scaled_oracle.body,
                                                     self._slack(delta)) / self.r
                self._grow(start)
        while len(self._net) and len(todo):
            todo, new = self._round(pts, nrm, out, todo, primal)
            if not len(new):
                break
            self._grow(new)
        if len(todo):
            ask = self.primal.query_batch if primal else self._lockstep
            out[todo] = ask(pts[todo], delta)
        return out

    def _round(self, pts: np.ndarray, nrm: np.ndarray, out: np.ndarray, todo: np.ndarray,
               primal: bool) -> tuple[np.ndarray, np.ndarray]:
        """One pass of the net over the open rows todo of pts, nrm holding
        the norms of pts, on the primal side or (primal False) the polar
        one: each block of _BLOCK open rows is refuted (_lower) and
        certified (_upper) on the net as the round found it, with the
        side's hull planes read once for the round, and out takes the
        block's settled verdicts. Returns the rows left open, compacted in
        place at the front of todo, and the directions they pay for
        (_new_directions; none beyond R^3). A block adds its open rows to
        the per-face totals that _new_directions reads, its shares summed
        by np.add.at in row order, so the totals, and the directions, are
        the same whatever the blocks."""
        desc = self.primal_descriptor
        planes = self._planes(primal)
        grows = planes is not None and len(planes[0]) > 0
        if grows:
            normal = planes[1] / np.linalg.norm(planes[1], axis=1)[:, None]
            face = np.unique(np.round(normal, 9), axis=0, return_inverse=True)[1].ravel()
            paid = np.zeros(face.max() + 1)
            first = np.full(len(paid), -1)
            summed = np.zeros((len(paid), desc.n))
            thin = _NET_REL_ERR / desc.k_hi + self._witness_slack  # err + s
        kept = 0
        for lo in range(0, len(todo), _BLOCK):
            rows = todo[lo:lo + _BLOCK]
            C, C_nrm = pts[rows], nrm[rows]
            lower = self._lower(C, C_nrm, primal)
            upper, met = self._upper(C, C_nrm, primal, planes)
            out[rows] = (lower <= 1.0) & (upper <= 1.0)
            left = (lower <= 1.0) & (upper > 1.0)
            # rows[left] is copied before it is written back, at kept <= lo
            count = np.count_nonzero(left)
            todo[kept:kept + count] = rows[left]
            kept += count
            if not grows:
                continue
            lower, upper, met = lower[left], upper[left], met[left]
            thinnest = desc.k_hi * thin * lower if primal else C_nrm[left] * thin
            f = face[met]
            np.add.at(paid, f, np.clip(1.0 - thinnest / (upper - lower), 0.0, 1.0))
            faces, at = np.unique(f, return_index=True)
            fresh = first[faces] < 0
            first[faces[fresh]] = met[at[fresh]]
            if not primal:
                np.add.at(summed, f, C[left] / C_nrm[left, None])
        todo = todo[:kept]
        if not grows or not len(todo):
            return todo, np.zeros((0, desc.n))
        return todo, self._new_directions(normal, paid, first, summed, primal)

    def _lockstep(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """Verdicts of the rows the screens leave, True = IN_THICKENED: one
        validity run of c = x / r against gamma = 1 over r B_nu, its rows on
        one shared cut polytope in R^2 and R^3 and in lockstep elsewhere,
        that reads the oracle's pool and writes to it."""
        return wval_batch(self._scaled_oracle, self._scaled_oracle.body,
                          pts / self.r, 1.0, self._slack(delta), pool=self._pool)


def wmem_from_approx(approx: FunctionApproxOracle, desc: NormDescriptor, x,
                     delta: float) -> WeakVerdict:
    """Weak ball membership from one approximate norm evaluation.

    Points inside B(0, 1/k_hi) or outside B(0, 1/k_lo) are decided by the
    sandwich alone (no oracle call); otherwise the point is scaled to the
    unit sphere and one evaluation at slack k_lo^2 * delta / 4 decides via
    the threshold 1 + k_lo * delta / 2. A non-finite norm value raises
    ValueError (FunctionApproxOracle.eval).
    """
    positive_finite(delta, "delta")
    v = as_vector(x, desc.n)
    nx = float(np.linalg.norm(v))
    if nx <= 1.0 / desc.k_hi:
        return WeakVerdict.IN_THICKENED
    if nx >= 1.0 / desc.k_lo:
        return WeakVerdict.NOT_IN_SHRUNK
    eps = desc.k_lo ** 2 * delta / 4.0
    omega = approx.eval(v / nx, eps)
    if nx * omega <= 1.0 + desc.k_lo * delta / 2.0:
        return WeakVerdict.IN_THICKENED
    return WeakVerdict.NOT_IN_SHRUNK


@dataclass
class BisectionTrace:
    """Certificate of the norm-approximation bisection.

    intervals[i] always contains the true norm value; widths contract by
    exactly 3/4 per step; queries holds one (scale, slack, verdict) triple
    per refinement, so len(intervals) == len(queries) + 1.
    """

    intervals: list
    queries: list
    value: float


def bisection_step_count(b1: float, delta: float) -> int:
    """Closed-form interval count: smallest integer m with
    (3/4)^(m-1) * b1 < 2 * delta, via the log formula; m = 1 when the side
    condition 2*delta/b1 <= 1 fails (the start interval is already narrow
    enough)."""
    if b1 <= 0.0 or delta <= 0.0:
        raise ValueError("b1 and delta must be positive")
    if 2.0 * delta / b1 <= 1.0:
        v = 1.0 + (math.log2(b1) - math.log2(2.0 * delta)) / (2.0 - math.log2(3.0))
        return int(math.floor(v)) + 1
    return 1


def approx_from_wmem(oracle: WeakMembershipOracle, desc: NormDescriptor, x,
                     delta: float) -> tuple[float, BisectionTrace]:
    """Additive delta-approximation of nu(x) from ball membership queries.

    Requires 1/2 < |x| < 3/2 (rescale first; the evaluation pipelines do).
    Starts from [k_lo/2, 3*k_hi/2], queries x/r at the width-matched slack
    (b - a) / (2 * k_hi * (b + a)), and keeps the quarter-shifted endpoint
    dictated by the verdict, so each verdict certifies the new interval.
    """
    positive_finite(delta, "delta")
    v = as_vector(x, desc.n)
    nx = float(np.linalg.norm(v))
    if not (0.5 < nx < 1.5):
        raise ValueError(f"bisection defined on 1/2 < |x| < 3/2, got |x| = {nx}")
    a = 0.5 * desc.k_lo
    b = 1.5 * desc.k_hi
    m = bisection_step_count(b, delta)
    intervals = [Interval(a, b)]
    queries = []
    for _ in range(m - 1):
        r = 0.5 * (a + b)
        eps = (b - a) / (2.0 * desc.k_hi * (b + a))
        verdict = oracle.query(v / r, eps)
        if verdict is WeakVerdict.IN_THICKENED:
            b = 0.75 * b + 0.25 * a
        else:
            a = 0.25 * b + 0.75 * a
        intervals.append(Interval(a, b))
        queries.append((r, eps, verdict))
    omega = 0.5 * (a + b)
    return omega, BisectionTrace(intervals, queries, omega)


@dataclass
class DualNormResult:
    """Dual norm value, its certified interval and its accuracy scale.

    interval contains nu*(y) and value is its midpoint, both already scaled
    back by annulus_factor = |y|. The support run certifies an interval of
    width at most 2 delta / 3 at y/|y|, so the additive error is at most
    delta * annulus_factor / 3. cuts is that run's cut count, free cuts
    included (cutting.wopt_from_wmem), 0 where no run is needed (y = 0, or a
    sandwich that is already that narrow).
    """

    value: float
    annulus_factor: float
    interval: Interval
    cuts: int


def dual_norm_eval(primal: WeakMembershipOracle, desc: NormDescriptor, y,
                   delta: float) -> DualNormResult:
    """Evaluate the dual norm nu*(y) from the primal ball oracle.

    nu*(y) = |y| h_B(u) at u = y/|y|. One wopt_from_wmem run over the
    primal ball at err = 2 delta / 3 certifies an interval for h_B(u), and its
    midpoint, scaled by |y|, is within delta |y| / 3 of nu*(y). In R^2 and
    R^3 that run takes hull centres (cutting module header). The
    sandwich alone puts h_B(u) in [1/k_hi, 1/k_lo]; where that is no wider
    than 2 delta / 3 (k_lo == k_hi up to rounding, as for l2), it answers
    at no call, and so does nu*(0) = 0.
    """
    positive_finite(delta, "delta")
    v = as_vector(y, desc.n)
    factor = float(safe_norm(v))
    err = 2.0 * delta / 3.0
    if factor == 0.0 or 1.0 / desc.k_lo - 1.0 / desc.k_hi <= err:
        interval = Interval(factor / desc.k_hi, factor / desc.k_lo)
        return DualNormResult(interval.mid, factor, interval, 0)
    res = cutting.wopt_from_wmem(primal, desc.ball(), v / factor, err)
    interval = Interval(factor * res.interval.lo, factor * res.interval.hi)
    return DualNormResult(interval.mid, factor, interval, res.iterations)
