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
net of directions that grows where their rows are: its bounds refute
primal rows and certify polar ones, and its witnesses certify primal
rows and refute polar ones);
and an interval bisection turns ball membership into an additive-error
norm value with a certificate (approx_from_wmem and its BisectionTrace).

Scaling conventions: nu_r(x) = r * nu(x) has unit ball B_nu / r and sandwich
constants (r * k, r * K); membership of x in B_nu is membership of x/r in
B_(nu_r); the conjugate of nu_r is nu* / r.
"""

from __future__ import annotations

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
)
from .cutting import support_batch, wopt_from_wmem, wval_batch
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


_BLOCK = 1024  # rows per block of every rows x directions product
# width of a net support interval over 1/k_hi, a lower bound on h_B. Over
# 1e-2, 3e-3, 1e-3, 3e-4 and 1e-4 the grown net's seed-1 mahler calls per
# sample fall, 0.167 to 0.0096, but at 1e-4 the smooth l3/R^3 ball costs
# more (786,373 calls at 50,000 samples) than 64 fixed directions did
# (775,871); 3e-4 is the tightest width that stays below
_NET_REL_ERR = 3e-4
_HULL_TOL = 1e-9  # a point this share of the hull's scale beyond a plane sees it
_SAME_DIRECTION = 1.0 - 1e-12  # cosine above which a new direction repeats one


def _net_directions(n: int) -> np.ndarray:
    """The dual ball's first net of unit directions: +-e_i in R^2 and R^3,
    where the net then grows (DualBallOracle), and elsewhere the fixed 2 n^2
    directions +-e_i and (+-e_i +-e_j)/sqrt(2), i < j."""
    eye = np.eye(n)
    if n <= 3:
        return np.vstack([eye, -eye])
    pairs = [(si * eye[i] + sj * eye[j]) / math.sqrt(2.0)
             for i, j in itertools.combinations(range(n), 2)
             for si in (1.0, -1.0) for sj in (1.0, -1.0)]
    return np.vstack([eye, -eye, *pairs])


class _Hull:
    """The hull of a growing point set together with the origin, in R^2 or
    R^3, by beneath-beyond insertion (Clarkson and Shor 1989).

    The origin and the first points that span the space make a simplex.
    Each later point removes the facets it sees and cones their horizon:
    the ridges of the seen facets that only one of them has. So a point
    costs one product with the facets' planes, and the hull grows with its
    points. A point sees a facet when it lies more than _HULL_TOL of the
    scale beyond its plane, so a point on or near a face triangulates that
    face instead of adding slivers, and a repeated point is skipped. Facets
    are sorted rows of vertex indices, point i being row i + 1 (row 0 is
    the origin), with unit normals pointing away from the first simplex's
    centroid, which every later hull contains, and offsets.
    """

    def __init__(self, n: int):
        self.points = np.zeros((1, n))
        self.facets = np.zeros((0, n), dtype=int)
        self.normals = np.zeros((0, n))
        self.offsets = np.zeros(0)
        self.inside = None  # the first simplex's centroid, once there is one
        self.tol = 0.0

    def _planes(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit outward normals and offsets of the facets F."""
        V = self.points[F]
        a, b = V[:, 1] - V[:, 0], V[:, -1] - V[:, 0]
        if V.shape[2] == 3:
            N = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
        else:
            N = a[:, ::-1] * [1.0, -1.0]
        N /= np.sqrt((N * N).sum(axis=1))[:, None]
        N *= np.sign(((V[:, 0] - self.inside) * N).sum(axis=1))[:, None]  # outward
        return N, (N * V[:, 0]).sum(axis=1)

    def _simplex(self) -> list | None:
        """The origin and, n times, the point farthest from the span of
        those picked; None while every point lies within tol of a span of
        fewer than n of them."""
        pick = [0]
        for _ in range(self.points.shape[1]):
            R = self.points
            if len(pick) > 1:
                Q = np.linalg.qr(self.points[pick[1:]].T)[0]
                R = R - (R @ Q) @ Q.T
            dist = np.linalg.norm(R, axis=1)
            if dist.max() <= self.tol:
                return None
            pick.append(int(np.argmax(dist)))
        return pick

    def add(self, P: np.ndarray) -> None:
        """Insert the rows of P, in order."""
        first = len(self.points)
        self.points = np.vstack([self.points, P])
        self.tol = _HULL_TOL * np.linalg.norm(self.points, axis=1).max()
        todo = range(first, len(self.points))
        if self.inside is None:
            simplex = self._simplex()
            if simplex is None:
                return
            self.inside = self.points[simplex].mean(axis=0)
            self.facets = np.sort(list(itertools.combinations(simplex, len(simplex) - 1)))
            self.normals, self.offsets = self._planes(self.facets)
            todo = [i for i in range(1, len(self.points)) if i not in simplex]
        m = len(self.points)
        for i in todo:
            seen = self.normals @ self.points[i] - self.offsets > self.tol
            if not np.any(seen):
                continue
            F = self.facets[seen]
            if F.shape[1] == 3:  # a ridge is an edge (a, b), a < b, coded a m + b
                code = np.concatenate([F[:, 0] * m + F[:, 1], F[:, 0] * m + F[:, 2],
                                       F[:, 1] * m + F[:, 2]])
            else:  # a ridge is a vertex
                code = F.ravel()
            code, count = np.unique(code, return_counts=True)
            horizon = code[count == 1]
            ridges = (np.column_stack([horizon // m, horizon % m]) if F.shape[1] == 3
                      else horizon[:, None])
            new = np.sort(np.column_stack([ridges, np.full(len(ridges), i)]), axis=1)
            N, d = self._planes(new)
            self.facets = np.vstack([self.facets[~seen], new])
            self.normals = np.vstack([self.normals[~seen], N])
            self.offsets = np.concatenate([self.offsets[~seen], d])

    def planes(self) -> tuple[np.ndarray, np.ndarray]:
        """The facets whose plane keeps the origin strictly on its inner
        side, as rows of point indices, and per facet its plane H, with
        H . P_i = 1 for i in the facet and H . P_j <= 1 up to tol for every
        point j."""
        keep = self.offsets > self.tol
        return self.facets[keep] - 1, self.normals[keep] / self.offsets[keep, None]


@dataclass(frozen=True)
class _Generators:
    """One generator set of the gauge certificate (_gauge_bound): rows G
    with gauge bounds g, gauge(G_i) <= g_i, and a residual constant L with
    gauge(e) <= L |e| for every e. In R^2 and R^3 a row's n generators are
    the facet of the hull of the scaled generators G_i / g_i (_Hull) that
    its ray meets first: facets holds each facet's indices,
    planes its H, and inverse the inverse of its matrix G_F^T. Elsewhere
    (the 2 n^2 net) the three are None, and a row's n generators are those
    of largest c . G_i.
    """

    G: np.ndarray
    g: np.ndarray
    L: float
    facets: np.ndarray | None = None
    planes: np.ndarray | None = None
    inverse: np.ndarray | None = None


def _generators(G: np.ndarray, g: np.ndarray, L: float, hull: _Hull | None) -> _Generators:
    if hull is None:  # the 2 n^2 net: no hull
        return _Generators(G, g, L)
    facets, planes = hull.planes()
    return _Generators(G, g, L, facets, planes,
                       np.linalg.inv(G[facets].transpose(0, 2, 1)))


def _gauge_bound(gen: _Generators, pts: np.ndarray,
                 nrm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row c, nrm holding |c|, an upper bound on its gauge from the
    generator set, and in R^2 and R^3 the facet of the hull that gave it.

    c is written c = sum lam_i G_i + e over the row's n generators (the
    pick of _Generators), lam solving the n x n system and clipped to
    lam >= 0, and e the residual. A gauge is sublinear, so
    gauge(c) <= sum lam_i g_i + L |e|; where that is at most 1, c lies in
    the body and IN_THICKENED is legal at every slack. The residual makes
    the bound hold for any lam and any n-subset, so neither the pick nor
    the solve needs to be right, only the bound computed with care: each
    computed term errs by a few n machine epsilons of |c| + sum lam_i |G_i|,
    relative to the constants that multiply it, so |e| is padded by rho
    times that and the whole bound raised by the factor 1 + rho. Rows
    whose n nearest generators are linearly dependent, or nearly so
    relative to the generators' size (the 2 n^2 net has such n-tuples),
    get no bound (inf), and so does every row of a hull with no facet.

    A row's facet is the one its ray meets first, the facet of largest
    H . c, where its lam is nonnegative.
    """
    n = pts.shape[1]
    rho = 16 * n * np.finfo(float).eps
    length = np.linalg.norm(gen.G, axis=1)
    tiny = 1e-9 * length.max() ** n
    bound = np.full(len(pts), np.inf)
    facet = np.zeros(len(pts), dtype=int)
    if gen.facets is not None and not len(gen.facets):
        return bound, facet
    for lo in range(0, len(pts), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        C = pts[rows]
        if gen.facets is None:
            pick = np.argpartition(C @ gen.G.T, -n, axis=1)[:, -n:]
            A = gen.G[pick]  # rows G_i of each row's system
            ok = np.abs(np.linalg.det(A)) > tiny
            lam = np.zeros((len(C), n))
            lam[ok] = np.linalg.solve(A[ok].transpose(0, 2, 1), C[ok][:, :, None])[:, :, 0]
        else:
            met = np.argmax(C @ gen.planes.T, axis=1)  # the plane the ray meets first
            facet[rows] = met
            pick = gen.facets[met]
            A = gen.G[pick]
            ok = True
            lam = np.einsum("bij,bj->bi", gen.inverse[met], C)
        lam = np.maximum(lam, 0.0)
        res = np.linalg.norm(C - np.einsum("bi,bij->bj", lam, A), axis=1)
        scale = nrm[rows] + np.einsum("bi,bi->b", lam, length[pick])
        value = np.einsum("bi,bi->b", lam, gen.g[pick]) + gen.L * (res + rho * scale)
        bound[rows] = np.where(ok, value * (1.0 + rho), np.inf)
    return bound, facet


class DualBallOracle(WeakMembershipOracle):
    """Weak membership oracle for the dual unit ball, derived from the primal.

    Every query, one point or many, runs one path. The sandwich screen
    settles the rows it can for free: |x| <= k_lo is inside the dual ball,
    |x| >= k_hi outside it.

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
    is nonnegative and its residual is rounding.

    The net starts at _net_directions: +-e_i in R^2 and R^3. The first
    batch, of the polar run or of the primal one (_primal_screen), that
    leaves more rows than the net has directions builds it. In R^2 and R^3
    the net then grows where its two approximations of the body disagree,
    as in the sandwich algorithm of polyhedral approximation (Rote 1992;
    Bronstein 2008): each round adds the directions that the batch's
    unsettled rows pay for (_new_directions), by one more support run, and
    the hulls take the new points. Rows that pay for no direction are asked.

    Every rule trusts hi(v) and s as support_batch certifies them, so the
    caveat of the cutting module header (the separator's sigma is not
    charged to the support interval) covers the primal verdicts as it
    covers the polar ones. All bounds are padded for rounding
    (_polar_lower, _primal_lower, _gauge_bound). Smaller batches leave the
    net unbuilt and cost what the validity run, or the primal oracle, costs.

    The polar rows all screens leave go to one lockstep validity run over
    the primal ball, which is what makes million-point volume sampling
    feasible. It decides the rescaled norm mu = r * nu* with
    r = max(1, 2 k_hi), so that mu's sandwich constant k_lo = r / k_hi is at
    least 2; x is in B_(nu*) iff x / r is in B_mu, and the run is over
    B_(mu*) = r B_nu at slack delta / r, clamped below 1/2. With k_lo >= 2
    and 0 < delta < 1/2 (the k >= 2 lemma), an upper bound max <= 1 + delta
    over the shrunk body forces mu(x / r) <= 1 + k_lo * delta, inside the
    thickening, and a large value forces mu(x / r) > 1 - k_lo * delta,
    outside the shrinking.
    """

    def __init__(self, primal: WeakMembershipOracle, desc: NormDescriptor):
        body = CenteredBody(np.zeros(desc.n), desc.k_lo, desc.k_hi)
        super().__init__(self._screen, body, label="dual-ball")
        self.primal = primal
        self.primal_descriptor = desc
        self.r = max(1.0, 2.0 * desc.k_hi)
        self._scaled_oracle = rescale_norm(primal, desc, 1.0 / self.r)[0]
        self.stragglers = 0  # always 0 (the cap raises); perfbench's layer trace reads it
        self._net = _net_directions(desc.n)
        self._net_hi = None  # per net direction v, hi(v) >= h_B(v), once built
        self._witness = None  # per net direction, its witness w_v
        self._witness_slack = None  # s: every witness lies within s of B_nu
        self._polar_gen = None  # the polar certificate's generators: V
        self._primal_gen = None  # the primal certificate's: the witnesses
        # in R^2 and R^3, the hulls of the points V / hi and W / g
        self._hulls = (_Hull(desc.n), _Hull(desc.n)) if desc.n <= 3 else None
        self._direction_calls = None  # primal calls per direction, last support run
        self._row_calls = None  # primal calls per row, last validity run

    def _slack(self, delta: float) -> float:
        return min(delta / self.r, 0.49)

    def _polar_lower(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Per polar row x, a lower bound on nu*(x): the largest
        x.w - |x| s over the witnesses w (class docstring), so a row above 1
        is refuted. The rounding of x.w and |x| s is at most a few n machine
        epsilons of |x| (|w| + s), so s is padded by rho (|w| + s) and the
        bound divided by 1 + rho."""
        W = self._witness
        rho = 16 * self.body.n * np.finfo(float).eps
        pad = self._witness_slack * (1.0 + rho) + rho * np.linalg.norm(W, axis=1)
        out = np.zeros(len(pts))
        for lo in range(0, len(pts), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            out[rows] = (pts[rows] @ W.T - nrm[rows, None] * pad).max(axis=1)
        return out / (1.0 + rho)

    def _primal_lower(self, pts: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Per primal row x, a lower bound on nu(x): the largest v.x / hi(v)
        over the net, as v.x <= nu(x) h_B(v) <= nu(x) hi(v), so a row above
        1 is refuted (class docstring). The rounding of v.x is at most a few
        n machine epsilons of |x|, and of hi(v) and the quotient a few of
        theirs, so v.x is lowered by rho |x| and hi(v) raised by 1 + rho."""
        rho = 16 * self.body.n * np.finfo(float).eps
        hi = self._net_hi * (1.0 + rho)
        out = np.zeros(len(pts))
        for lo in range(0, len(pts), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            out[rows] = ((pts[rows] @ self._net.T - rho * nrm[rows, None]) / hi).max(axis=1)
        return out

    def _grow(self, V: np.ndarray) -> None:
        """Add the unit directions V to the net (all of it, the first time):
        hi(v) and the witness w_v for each from one support run over the
        primal ball at width _NET_REL_ERR / k_hi, and both hulls and
        certificates grown with them. Each run's centre slack bounds its
        witnesses' distance to B_nu, so the largest bounds them all. The
        run's primal calls per direction price the next direction."""
        desc = self.primal_descriptor
        before = self.primal.calls.count
        _, hi, W, _, s = support_batch(self.primal, desc.ball(), V, _NET_REL_ERR / desc.k_hi)
        self._direction_calls = (self.primal.calls.count - before) / len(V)
        if self._net_hi is None:
            self._net, self._net_hi, self._witness, self._witness_slack = V, hi, W, s
        else:
            self._net = np.vstack([self._net, V])
            self._net_hi = np.concatenate([self._net_hi, hi])
            self._witness = np.vstack([self._witness, W])
            self._witness_slack = max(self._witness_slack, s)
        g = 1.0 + desc.k_hi * self._witness_slack
        polar_hull, primal_hull = self._hulls or (None, None)
        if self._hulls is not None:
            polar_hull.add(V / hi[:, None])
            primal_hull.add(W / g)
        self._polar_gen = _generators(self._net, self._net_hi, 1.0 / desc.k_lo, polar_hull)
        self._primal_gen = _generators(self._witness, np.full(len(self._witness), g),
                                       desc.k_hi, primal_hull)

    def _new_directions(self, C: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                        facet: np.ndarray, primal: bool) -> tuple[np.ndarray, np.ndarray]:
        """The directions that the unsettled rows C pay for, and which rows
        lie in a face that got none. lower < 1 < upper bound each row's
        gauge, and facet is the certificate hull's facet its ray meets first.

        Rows are grouped by the face of that facet (coplanar facets share
        it). A face gets a direction when its rows would cost more than the
        direction. A primal row costs one call, a polar row the last
        validity run's calls per row, and a direction the last support run's
        calls per direction; until a validity run has measured it, a polar
        row is priced as a direction. Each row counts with the share of its
        sandwich upper - lower that one support run could remove: a
        direction through the row leaves a sandwich about
        |x| (err + s) thick on the polar side and k_hi (err + s) nu(x) on the
        primal one, err being the run's width, so a row already that thin
        counts for nothing. A primal face's direction is its normal, a polar
        face's the mean direction of its rows, and a direction that repeats
        one of the net is not added."""
        desc = self.primal_descriptor
        err_s = _NET_REL_ERR / desc.k_hi + self._witness_slack
        if primal:
            gen, row, thinnest = self._primal_gen, 1.0, desc.k_hi * err_s * lower
        else:
            gen = self._polar_gen
            row = self._direction_calls if self._row_calls is None else self._row_calls
            thinnest = np.linalg.norm(C, axis=1) * err_s
        share = np.clip(1.0 - thinnest / (upper - lower), 0.0, 1.0)
        H = gen.planes[facet]
        normal = H / np.linalg.norm(H, axis=1)[:, None]
        _, first, face = np.unique(np.round(normal, 9), axis=0, return_index=True,
                                   return_inverse=True)
        face = face.ravel()
        if primal:
            U = normal[first]
        else:
            U = np.zeros((len(first), C.shape[1]))
            np.add.at(U, face, C / np.linalg.norm(C, axis=1)[:, None])
            U /= np.linalg.norm(U, axis=1)[:, None]
        pays = ((np.bincount(face, weights=share) * row > self._direction_calls)
                & (np.max(U @ self._net.T, axis=1) < _SAME_DIRECTION))
        return U[pays], ~pays[face]

    def _net_query(self, pts: np.ndarray, nrm: np.ndarray, delta: float,
                   primal: bool) -> np.ndarray:
        """Verdicts, True = IN_THICKENED, of rows that no sandwich settles,
        on the primal ball or (primal False) on the dual one: refuted, then
        certified, by the net, and the rest asked of the primal oracle or of
        the validity run. A batch that leaves more rows than the net has
        directions builds the net first: until a run has measured them, a
        row and a direction are priced alike. In R^2 and R^3 the net then
        grows in rounds (_new_directions). While no validity run has priced
        a polar row, the rows of faces that pay for no direction are asked
        at once, which prices the next round's rows; the other rows left
        are asked together after the last round."""
        if self._net_hi is None and len(pts) > len(self._net):
            self._grow(self._net)
        out = np.zeros(len(pts), dtype=bool)
        todo = np.arange(len(pts))  # rows that no rule has settled
        lower_bound = self._primal_lower if primal else self._polar_lower
        ask = self.primal.query_batch if primal else self._polar_ask
        while self._net_hi is not None and len(todo):
            gen = self._primal_gen if primal else self._polar_gen
            C = pts[todo]
            lower = lower_bound(C, nrm[todo])
            upper, facet = _gauge_bound(gen, C, nrm[todo])
            out[todo] = (lower <= 1.0) & (upper <= 1.0)
            left = (lower <= 1.0) & (upper > 1.0)
            todo = todo[left]
            if self._hulls is None or not len(gen.facets) or not len(todo):
                break
            new, stay = self._new_directions(C[left], lower[left], upper[left],
                                             facet[left], primal)
            if not primal and self._row_calls is None and np.any(stay):
                out[todo[stay]] = ask(pts[todo[stay]], delta)  # measures the price
                todo = todo[~stay]
            if not len(new):
                break
            self._grow(new)
        if len(todo):
            out[todo] = ask(pts[todo], delta)
        return out

    def _polar_ask(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """The validity run's verdicts (_lockstep); its primal calls per row
        price the next polar row."""
        before = self.primal.calls.count
        out = self._lockstep(pts, delta)
        self._row_calls = (self.primal.calls.count - before) / len(pts)
        return out

    def _screen(self, pts: np.ndarray, delta: float) -> np.ndarray:
        nrm = np.linalg.norm(pts, axis=1)
        out = nrm <= self.primal_descriptor.k_lo  # inside the inscribed ball
        work = (~out) & (nrm < self.primal_descriptor.k_hi)
        if np.any(work):
            out[work] = self._net_query(pts[work], nrm[work], delta, primal=False)
        return out

    def _primal_screen(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """Primal verdicts, True = IN_THICKENED, of rows that the primal
        ball's sandwich leaves (mahler_volume's primal run sends its shell
        here): the net decides what it can, and only the rest reach the
        primal oracle."""
        return self._net_query(pts, np.linalg.norm(pts, axis=1), delta, primal=True)

    def _lockstep(self, pts: np.ndarray, delta: float) -> np.ndarray:
        """Verdicts of the rows the screens leave, True = IN_THICKENED: one
        validity run of c = x / r against gamma = 1 over r B_nu, all rows in
        lockstep."""
        return wval_batch(self._scaled_oracle, self._scaled_oracle.body,
                          pts / self.r, 1.0, self._slack(delta))


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
    midpoint, scaled by |y|, is within delta |y| / 3 of nu*(y). The
    sandwich alone puts h_B(u) in [1/k_hi, 1/k_lo]; where that is no wider
    than 2 delta / 3 (k_lo == k_hi up to rounding, as for l2), it answers
    at no call, and so does nu*(0) = 0.
    """
    positive_finite(delta, "delta")
    v = as_vector(y, desc.n)
    factor = float(np.linalg.norm(v))
    err = 2.0 * delta / 3.0
    if factor == 0.0 or 1.0 / desc.k_lo - 1.0 / desc.k_hi <= err:
        interval = Interval(factor / desc.k_hi, factor / desc.k_lo)
        return DualNormResult(interval.mid, factor, interval, 0)
    res = wopt_from_wmem(primal, desc.ball(), v / factor, err)
    interval = Interval(factor * res.interval.lo, factor * res.interval.hi)
    return DualNormResult(interval.mid, factor, interval, res.iterations)
