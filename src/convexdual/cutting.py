"""Cutting-plane realization of weak optimization from weak membership.

The chain is: a weak membership oracle induces an approximate gauge (ray
bisection), the gauge induces an approximate separating direction (forward
finite differences), and the separator drives an ellipsoid-localizer loop
that maximizes a linear objective with a certified optimality gap. An
oracle that carries its own separator skips the gauge: the truncated
epigraph of the fenchel module separates from its function values (value
separators, below).

There is one engine: _cut_loop runs m objectives in lockstep on (m, n)
centers and (m, n, n) shape matrices, and a scalar call is a batch of one.
_cut_loop checks every run's input once, before any oracle call: a bounded
body, the slack and the centre slack, a finite (m, n) stack of nonzero
objectives (core.as_stack); an empty stack returns empty results at no call.
It has two entries, the two questions of Groetschel, Lovasz and Schrijver
(1988, ch. 4). support_batch is weak optimization over many objectives: it
picks the engine slack and the centre slack from the accuracy asked for and
turns each row's run into a certified interval for h_K(c), the one place
those slacks are proved, and wopt_from_wmem is support_batch on one row.
wval_batch is weak validity over many objectives, and wval_from_wmem is
wval_batch on one row, so the gamma -/+ eps/2 exits, the eps/2 slack, the
centre slack and the tie rule live in wval_batch alone. gauge_batch and
approx_separator take stacks too; gauge_batch anchors points passed without
anchors at themselves.

Accuracy model (documented slack): membership queries run at the slack
delta of the first rule below; a cut through an approximate separator
can truncate feasible points that lie within sigma of the cut plane, and
a deep cut (below) within the same sigma of its deeper plane. Take a
center x answered OUT at slack dq, the gauge g about the center a, the
step h, the gauge tolerance tol, the signed steps
h_i = +h where x_i >= a_i and -h elsewhere, so that every probe
x + h_i e_i steps away from the center, and the quotients
H_i = (g~(x + h_i e_i) - g~(x)) / h_i of the computed gauges g~. Then

    sigma = (dq/inner + (|b| + 2 sqrt(n) tol/h) D) / |H|,  D = |x - a| + outer,

where b = F - s is the one-sided bias of the exact quotients
F_i = (g(x + h_i e_i) - g(x)) / h_i against a subgradient s of g at x.
Derivation: the dq-shrunk body holds a + (1 - dq/inner)(K - a), so an OUT
verdict gives g(x) > 1 - dq/inner, and for y in K convexity gives
s . (y - x) <= g(y) - g(x) < dq/inner. Each computed gauge is within tol of
g (gauge_batch), so each quotient errs by at most 2 tol/h and
|H - F| <= 2 sqrt(n) tol/h. With |y - x| <= D, summing gives
H . (y - x) <= |H| sigma. The bias is one-sided, b_i h_i >= 0, since
convexity gives g(x + h_i e_i) >= g(x) + h_i s_i. Where g is twice
differentiable along the probe segments with second partials at most M,
|b_i| <= M h / 2, so |b| <= sqrt(n) M h / 2: this O(h) term is the
price of n + 1 probes against the O(h^2) bias of 2n central probes. On a
facet of a polytope b = 0; within h of a kink |b_i| can reach the jump of
the i-th partial, and sigma grows with it. The outward signs keep H away
from zero: s . (x - a) = g(x) for a gauge, and h_i has the sign of
x_i - a_i, so b_i h_i >= 0 gives F_i (x_i - a_i) >= s_i (x_i - a_i) on
every axis. Summing, F . (x - a) >= g(x), so |F| >= g(x) / |x - a|, which
is at least 1/outer, as K lies in B(a, outer). Probes that step toward the
center can all see no change, as x + h e_i do at a corner of a cube whose
coordinates are all negative. At the default steps this keeps the
certified optimum within a few eps of the true support value on smooth
bodies; the tests pin 5*eps.

Policy where a row is not decided cleanly, the same for every caller:

- Membership slack: the centres of a run are queried at one slack dq,
  which each entry picks from what its answer must absorb (validity slack
  and support interval, below); the engine has no default. What a run at
  slack eps certifies follows from dq. Its witness is a center answered
  IN, which lies within dq of K, or a point of K: the body center, a
  center inside the inner ball (sandwich centers) or a separator's witness
  (below). A center answered OUT lies outside
  K_dq = a + (1 - dq/inner)(K - a), which sits inside the dq-shrunk body,
  and its cut keeps K_dq up to sigma. So the certified gap eps/2 bounds
  c . z - value over K_dq, and K_dq loses
  h_K(c) - h_K_dq(c) = (dq/inner)(h_K(c) - c . a) <= (dq/inner) |c| outer
  of support against K.
- Deep cuts: each cut keeps the part {g . (y - z) <= -alpha} of the
  ellipsoid E(z, P), at a depth alpha that costs no extra query. An IN
  center cuts at the incumbent, g = -c and alpha = best - c . z: a point
  it drops has c . y < best = value, so the gap over K_dq still holds. An
  OUT center x cuts with the separator's unit u at the depth the separator
  returns. On the gauge path that is
  alpha = (1 - 1/glo) u . (x - a) where glo > 1, and alpha = 0 elsewhere;
  glo = g~(x) - tol is the separator's offset-0 probe less its tolerance,
  so g(x) >= glo (gauge_batch). The gauge is 1-homogeneous, so
  s . (x - a) = g(x) and s . (y - a) <= g(y) make s a subgradient at the
  boundary point x_b = a + (x - a)/g(x) too. For y in K, and so in K_dq,
  s . (y - x_b) <= g(y) - 1 <= 0, and g(x) > 1 puts x_b between a and x,
  so |y - x_b| <= |y - a| + |x_b - a| <= outer + |x - a| = D. The
  derivation above, run at x_b in place of x, gives
  u . (y - x_b) <= (|b| + 2 sqrt(n) tol/h) D / |H|, which is no larger
  than the central sigma: it lacks the dq/inner term. As
  x - x_b = (1 - 1/g(x))(x - a) and g(x) >= glo, u . (x - x_b) >= alpha
  wherever u . (x - a) >= 0; elsewhere alpha < 0, which the clip below
  makes 0. So u . (y - x) = u . (y - x_b) - u . (x - x_b)
  <= -alpha + |u| sigma, and a deep cut keeps K_dq up to sigma as a
  central cut does. The normalized depth d = alpha / sqrt(g'Pg) is
  clipped to [0, _MAX_DEPTH] = [0, 0.9], and d = 0 is the central cut.
  A shallower cut keeps a superset of the deeper half, so clipping is
  always sound. At d >= 1 the half meets E in at most one point, and the
  update (_cut) has delta <= 0, so it is no ellipsoid. A separator cut can
  reach that depth, because E may already have lost part of K_dq to the
  sigma of earlier cuts. Below 1, the new ellipsoid's width along the cut
  direction is (1 - d) times the central cut's, so at 0.9 one cut squeezes
  E along g at most ten times harder than a central cut does.
- Value separators: approx_separator hands the centers answered OUT, and
  their slack dq, to the oracle's own separator where it has one
  (oracles.WeakMembershipOracle). The truncated epigraph
  E = {(x, tau) : |x - c| <= R, f(x) <= tau <= cap} of
  fenchel.EpigraphBody has one built from values f~ of f. A center
  z = (x, tau) off the ball is cut along ((x - c)/|x - c|, 0) at depth
  |x - c| - R, and one above the cap along (0, 1) at depth tau - cap: both
  halfspaces hold all of E, so sigma = 0, at no evaluation. Any other
  center costs its verdict one evaluation, f~(x) asked at the separator's
  slack ev = dq h / (16 sqrt(n) R) rather than at dq. That is legal at dq:
  IN gives tau >= f~(x) >= f(x) - ev >= f(x) - dq, and OUT gives
  tau < f~(x) <= f(x) + ev <= f(x) + dq, so an OUT center is below the
  graph up to the band. Its n forward quotients
  H_i = (f~(x + h_i e_i) - f~(x))/h_i, with h_i = -/+h stepping toward c
  and every value asked at slack ev, give the unit u = (H, -1)/|(H, -1)|
  and the depth alpha = (f~(x) - ev - tau)/|(H, -1)|. The verdict function
  keeps its last batch's values by row and ev, and the engine hands the
  separator a subset of the batch it has just asked, at the same dq, so
  the separator reads f~(x) there and a center below the graph costs n
  further evaluations, n + 1 in all. A center that batch does not hold at
  that ev (a direct call) has f~(x) asked afresh, at n + 1 evaluations in
  the separator. Take y' = (x', tau') in E, s a subgradient of f at x, F
  the exact quotients and b = F - s their one-sided bias, as for the
  gauge. Convexity gives tau' >= f(x') >= f(x) + s . (x' - x), and
  f(x) >= f~(x) - ev, so
  (H, -1) . (y' - z) <= (H - s) . (x' - x) - (f~(x) - ev - tau). Each value
  errs by at most ev, so |H - F| <= 2 sqrt(n) ev/h, and |x' - x| <= 2R, so
  u . (y' - z) <= -alpha + (|b| + 2 sqrt(n) ev/h) 2R / |(H, -1)|. An OUT
  verdict inside the band can leave alpha < 0. Where the depth reads the
  verdict's own value, OUT means tau < f~(x), so alpha > -ev/|(H, -1)|.
  Where it reads a fresh one, tau < f(x) + dq <= f~(x) + ev + dq gives
  only alpha > -(dq + 2 ev)/|(H, -1)|. The clip makes either cut central.
  So against the clipped depth a value cut keeps E, and with it K_dq, up
  to

      sigma_v = (dq + 2 ev + (|b| + 2 sqrt(n) ev/h) 2R) / |(H, -1)|,

  as a gauge cut does up to sigma. This bound covers both paths; on the
  engine path its clip term dq + 2 ev falls to ev. |(H, -1)| >= 1, so a
  value separator has no flat case. The step is h = 1e-5 R, fixed by the
  ball, and ev = dq h / (16 sqrt(n) R) holds the noise term
  2 sqrt(n) (ev/h) 2R to dq/4. The bias term is O(h) where f is smooth,
  |b| <= sqrt(n) M h/2 for second partials at most M, and near a kink can
  reach the jump of a partial, as for gauges; choosing h so that it stays
  below a fraction of the slack is open, with the gauge path's step and
  tolerance (ROADMAP item 7).
- Pooled cuts: each run keeps one pool, the halfspaces u . y <= beta of
  its last _POOL_CAP separator cuts from all its rows,
  beta = u . x - max(alpha, 0). Each keeps K_dq up to sigma (deep cuts and
  value separators, above), and that holds for every row of the run, not
  just the row whose center x made it. dq, and with it K_dq, is the run's.
  The sigma of a gauge cut reads dq, the body, the separator's step and
  tolerance and x; the sigma_v of a value cut reads dq, ev, h, R and x. All
  of these are the same for every row, and neither reads the objective c
  of a row. A center z of any row with v = u . z - beta > 0 for a pooled
  halfspace is cut along the most violated one at alpha = v, the same
  halfspace under the same sigma and the same dq, at no primal call:
  neither the membership query nor the separator is made. Skipping both
  can only forgo an incumbent, the center itself or the witness its
  separator would have returned (separator witnesses, below); it
  certifies nothing new, as the gap reads only the incumbent and the
  ellipsoid. The pool is a ring: a new halfspace overwrites the oldest,
  and a halfspace dropped only forgoes the free cuts it would have made.
  It lives for one _cut_loop call; a run of one row pools only its own
  cuts.
- Separator witnesses: every separator returns, per center x it cuts, a
  point W of K that costs no call beyond the cut, and the run raises the
  row's incumbent to W where c . W beats it. On the gauge path
  W = a + (x - a)/(g~(x) + tol), from the offset-0 probe that the depth
  reads already: gauge_batch keeps g(x) <= g~(x) + tol, and the gauge is
  1-homogeneous, so g(W) = g(x)/(g~(x) + tol) <= 1 and W lies in K, up to
  rounding. As g~(x) - tol <= g(x), g(W) >= g(x)/(g(x) + 2 tol): W sits
  next to the boundary point x_b of the deep cut, on the segment from a.
  The epigraph's value separator returns (x, min(f~(x) + ev, cap)) below
  the graph, in E since f(x) <= f~(x) + ev and f <= cap/2 on the ball,
  and for a center off the ball or above the cap the ball point
  (c + (x - c) min(1, R/|x - c|), cap), in E at no evaluation. A witness
  in K lies within dq of K, so it is as legal an incumbent as an IN
  center, and the gap over K_dq holds as before: it reads only the
  incumbent.
- Objective cuts below the incumbent: a center z that no pooled, far or
  near rule takes and that has c . z <= best can raise nothing, whatever
  the oracle says. It takes the objective cut at the incumbent, g = -c at
  depth alpha = best - c . z >= 0, at no call, the cut an IN center takes
  (deep cuts): a point y it drops has c . y < best, so the gap over K_dq
  still holds. Neither the membership query nor the separator is made, so
  the run forgoes only the witness an OUT verdict would have bought. This
  is the sliding objective of Groetschel, Lovasz and Schrijver (1988,
  ch. 3); incumbents from separator witnesses are what make such centers
  common.
- Sandwich centers: the centering data B(a, inner) <= K <= B(a, outer)
  decides two kinds of center at no primal call, neither the membership
  query nor the separator. Each is a center that no pooled halfspace cuts
  (pooled cuts come first). A center z with |z - a| > outer is OUT: it is
  cut along u = (z - a)/|z - a| at depth alpha = |z - a| - outer. That
  halfspace, u . y <= u . a + outer, holds B(a, outer), which holds K and
  with it K_dq, so its sigma is 0; its depth is clipped to _MAX_DEPTH like
  any other (deep cuts). It is not pooled: a center of another row that
  violates it lies outside B(a, outer) too and is cut by this rule. A
  center z with |z - a| < inner lies in K, so within dq of K, a legal
  incumbent whatever the oracle would have answered; it takes the
  objective cut at the incumbent as any IN center does. The body center,
  every row's first incumbent, is such a center, and it is every row's
  first cut center where the body states no ellipsoid (below).
- Start ellipsoid: each row's localizer starts at the ellipsoid
  E(e, Q) = {y : (y - e)' Q^-1 (y - e) <= 1} that the body states
  (core.CenteredBody.ellipsoid), and at B(a, outer), e = a and
  Q = outer^2 I, bit for bit, where it states none. The loop keeps K_dq
  in its ellipsoids up to the sigma of the cuts made; at the start there
  are none, and K_dq <= K <= E(e, Q) is the body's promise. Rounding of Q
  cannot lose K_dq: for y in K_dq, w with |w| <= dq and t = dq/inner,
  y + w = (1 - t) k + t (a + w/t) for a k in K, and a + w/t lies in
  B(a, inner), so K_dq sits dq inside K. Nothing else reads the
  ellipsoid: the far and near rules stay on B(a, outer) and B(a, inner),
  and the slack and the support interval on the radii. The incumbent
  still starts at a, best = c . a, not at e: the centering data puts a in
  K, a legal incumbent at no query, while e need not lie within dq of K.
  The truncated epigraph of fenchel.EpigraphBody, n the ball's dimension,
  lies in the cylinder B(c, R) x [-cap/2, cap], as |f| <= cap/2 on the
  ball. It states e = (c, cap/4) and semi-axes R sqrt((n + 1)/n) across
  the ball and (3 cap/4) sqrt(n + 1) along tau. A point (x, tau) of the
  cylinder has |x - c|^2 n / ((n + 1) R^2) <= n/(n + 1) and
  (tau - cap/4)^2 / ((3 cap/4)^2 (n + 1)) <= 1/(n + 1), as
  |tau - cap/4| <= 3 cap/4, so its level is at most 1, with equality on
  the rims of both end discs. Its cap runs to 15 times R, and there
  B(a, hypot(R, 1.25 cap)) spends most of its volume far from the
  cylinder, so the early cuts of a run from the ball trim empty space.
- Validity slack: wval_batch at slack eps runs the engine at eps/2, with
  exits at gamma -/+ eps/2, and queries its centres at
  dq = min(eps/16, eps inner/(2 outer), inner/4). LARGE_VALUE_EXISTS
  follows a row whose incumbent reached gamma - eps/2; it lies within
  dq < eps of K, so it is a point of the eps-thickened body with
  c . x >= gamma - eps. UPPER_BOUND_HOLDS follows a row whose certified
  bound fell to gamma + eps/2, or whose gap fell to eps/4 with its value
  below gamma - eps/2; either way c . z <= gamma + eps/2 over K_dq. K_dq
  loses at most (dq/inner) |c| outer <= eps |c|/2 of support (membership
  slack), so h_K(c) <= gamma + eps/2 + eps |c|/2. The eps-shrunk body S
  has S + eps B inside K, so h_S(c) <= h_K(c) - eps |c| <= gamma + eps,
  which is the verdict's claim, for every sandwich. The middle term of dq
  is what holds the loss to eps |c|/2, and it binds only above
  outer/inner = 8: eps/16 alone keeps the loss under eps/2 + eps |c|, and
  so the claim, only while outer/inner <= 16 (1 + 1/(2 |c|)).
- Support interval: support_batch turns one run at slack e into an
  interval [lo, hi] that contains h_K(c), with
  lo = value - |c| dq and hi = value + gap + (dq/inner) |c| outer.
  The witness lies within dq of K, so value <= h_K(c) + |c| dq, which is
  lo <= h_K(c). The gap bounds c . z - value over K_dq, and K_dq loses at
  most (dq/inner) |c| outer of support against K (above), so h_K(c) <= hi.
  Write x = |c|max (1 + outer/inner) for the largest |c| of the batch, so
  that hi - lo <= gap + dq x. The run takes e = max(err/(1/2 + x/8), err),
  a row stops at gap <= e/2, and the centres are queried at
  dq = min(e/8, inner/4, err/(2 x)). Where x <= 4, e = err/(1/2 + x/8) and
  dq <= e/8 <= err/(2 x), so hi - lo <= e/2 + e x/8 = err; where x > 4,
  e = err and hi - lo <= err/2 + err/2 = err. So the gap gets
  max(4/(4 + x), 1/2) of err, and the dq terms the rest. Where x <= 4 the
  floor of 1/2 does not bind, e = err/(1/2 + x/8) and
  dq = min(e/8, inner/4): a unit row of an lp ball in R^2 or R^3 has
  x = 1 + outer/inner <= 1 + sqrt(3). The floor binds on elongated bodies
  such as the truncated epigraph, whose outer/inner runs to 19 on the
  conjugate workload, and there it keeps the gap from as little as a tenth
  of err. The dq terms are paid in membership slack, which costs no call,
  since a verdict is one query whatever its slack; every halving of the
  gap costs cuts.
- Anchored gauge window: the gauge g about the center is 1/inner-Lipschitz,
  since B(center, inner) lies in K. So a probe p near an anchor Z whose
  gauge g~(Z) gauge_batch has bisected to within tol has g(p) in
  [g~(Z) - tol - |p - Z|/inner, g~(Z) + tol + |p - Z|/inner]. gauge_batch
  bisects each probe from that window intersected with [d/outer, d/inner],
  and a probe equal to its anchor takes g~(Z) at no query; no verification
  query is made.
- Flat gauge: the quotient vector H errs by up to 2 sqrt(n) tol/h, so a
  separator with |H| <= 4 sqrt(n) tol/h, twice that noise, raises
  FlatGaugeError. No direction is guessed. The gauge tolerance keeps the
  noise under |F|/8 and the floor at most 1/(4 outer), a quarter of the
  least |F| can be (above), so the floor shrinks with the body instead of
  staying an absolute number.
- Iteration cap: a row still undecided after _MAX_CUTS cuts, the fixed
  iteration bound of the method, raises IterationCapError carrying its
  incumbent. No verdict is guessed from the incumbent, which is not a
  legal weak answer inside the band.
- Degenerate cut: a shape matrix flat along the cut direction raises
  IterationCapError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import CenteredBody, Interval, as_stack, positive_finite
from .oracles import WeakMembershipOracle

_MAX_CUTS = 4000  # cuts per engine run before IterationCapError
_MAX_DEPTH = 0.9  # clip of a cut's normalized depth (module header)
_POOL_CAP = 256  # separator halfspaces a run pools for free cuts (module header)
_SCAN_ROWS = 512  # centers per pool scan: a 1 MB violation matrix at _POOL_CAP


class BracketError(RuntimeError):
    """Gauge bisection could not bracket (oracle inconsistent with centering)."""


class FlatGaugeError(RuntimeError):
    """Finite differences saw a flat gauge; reduce the step."""


class IterationCapError(RuntimeError):
    """Cutting-plane loop hit its iteration cap without a certified gap.

    Carries the best incumbent found so far.
    """

    def __init__(self, message, witness=None, value=None, gap=None):
        super().__init__(message)
        self.witness = witness
        self.value = value
        self.gap = gap


def _bounded(body: CenteredBody) -> None:
    if not math.isfinite(body.outer_radius):
        raise ValueError("this operation needs a bounded body (finite outer radius)")


def _ray_search(oracle: WeakMembershipOracle, body: CenteredBody, rays: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, tol: float,
                buf: np.ndarray) -> np.ndarray:
    """Gauges of the points center + rays, each within tol, by bisection of
    their gauge brackets [lo, hi], all rows in lockstep.

    Each round queries every row's point center + ray/t at the midpoint t
    of its bracket, all rows in one query_batch at slack dq. An IN verdict
    moves the upper end to t and an OUT verdict the lower end, so each end
    is certified by its own verdict and a non-monotone answer pattern inside
    the band cannot corrupt the bracket. The band slop t dq/inner of a
    verdict stays under tol/2, and so does half the final bracket width.
    Every bracket halves per round, so the round count is fixed up front.
    buf, a C-contiguous array of at least as many rows as rays, holds the
    trial points.
    """
    width = float(np.max(hi - lo, initial=0.0))
    if width > tol:
        dq = max(0.5 * tol * body.inner_radius / float(np.max(hi)), 1e-300)
        trial = buf[:rays.shape[0]]
        for _ in range(math.ceil(math.log2(width / tol))):
            t = 0.5 * (lo + hi)
            np.divide(rays, t[:, None], out=trial)
            trial += body.center
            inside = oracle.query_batch(trial, dq)
            hi = np.where(inside, t, hi)
            lo = np.where(inside, lo, t)
    return 0.5 * (lo + hi)


def gauge_batch(oracle: WeakMembershipOracle, body: CenteredBody, points,
                tol: float, anchors=None) -> np.ndarray:
    """Gauges of an (N, n) stack of points in lockstep via bisection on their
    rays.

    Returns gauge values g with a + (p - a)/g on the boundary, each within
    tol of the gauge of the body for any legal weak oracle: half the final
    bracket width plus the band slop, at most tol/2 each. Rows equal to the
    center get gauge 0, and an empty stack costs no call.

    anchors, an (m, n) stack, groups the points: rows i*k .. i*k + k - 1
    of the points, k = N // m, belong to anchor i; without anchors every
    point is its own. Each anchor's gauge is first bisected to tol from its
    centering bracket [d/outer, d/inner]. A point equal to its anchor takes
    that gauge at no query, and every other point is bisected from the
    window of the module header, the anchor's gauge -/+ (tol + |p - Z|/inner)
    intersected with its centering bracket.
    """
    _bounded(body)
    tol = positive_finite(tol, "tol")
    P = as_stack(points, body.n)
    Z = P if anchors is None else as_stack(anchors, body.n)
    m = Z.shape[0]
    k = P.shape[0] // max(m, 1)
    if m * k != P.shape[0]:
        raise ValueError(f"{m} anchors do not divide {P.shape[0]} points")
    inner = body.inner_radius
    d = np.linalg.norm(P - body.center, axis=1)
    lo = d / body.outer_radius
    hi = d / inner
    # the center, or inner == outer, pins the gauge without any queries
    if float(np.max(hi - lo, initial=0.0)) <= tol:
        return 0.5 * (lo + hi)
    dist = np.linalg.norm(P.reshape(m, k, -1) - Z[:, None, :], axis=2).ravel()
    live = (dist > 0.0) & (d > 0.0)  # a point at its anchor or the center is known
    buf = np.empty_like(P)  # trial points of both searches
    DZ = Z - body.center
    dz = np.linalg.norm(DZ, axis=1)
    gz = np.zeros(m)
    zlive = dz > 0.0
    gz[zlive] = _ray_search(oracle, body, DZ[zlive], dz[zlive] / body.outer_radius,
                            dz[zlive] / inner, tol, buf)
    gz = np.repeat(gz, k)
    dist /= inner
    dist += tol
    np.maximum(lo, gz - dist, out=lo)
    np.minimum(hi, gz + dist, out=hi)
    if np.any(hi < lo):
        raise BracketError("anchor window misses the centering bracket")
    out = np.where(d > 0.0, gz, 0.0)
    out[live] = _ray_search(oracle, body, P[live] - body.center, lo[live], hi[live],
                            tol, buf)
    return out


def _gauge_tol(body: CenteredBody) -> float:
    """Gauge bisection tolerance of a separator: 1e-8 of the outer radius."""
    return 1e-8 * body.outer_radius


def _fd_step(body: CenteredBody) -> float:
    """Finite-difference step of a separator: 1e-4 of the inner radius,
    at least 1e-5."""
    return max(1e-5, body.inner_radius * 1e-4)


def approx_separator(oracle: WeakMembershipOracle, body: CenteredBody,
                     X, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate outward normals of the body at points answered outside.

    X is an (m, n) stack of points that the oracle answered outside at
    membership slack delta. Returns (U, depth, W): U is an (m, n) stack
    holding per point a unit vector u, and depth a deep-cut depth alpha,
    with u . (y - x) <= -max(alpha, 0) + sigma for all y in the body, sigma
    as documented in the module header; W is an (m, n) stack holding per
    point a witness, a point of the body bought by the same calls (module
    header, separator witnesses). An empty stack costs no call.

    An oracle built with its own separator answers through it, at the slack
    delta of its verdicts (module header, value separators). Every other
    oracle takes forward differences of the gauge, and delta is not read:
    both tolerances derive from the body. The step is _fd_step,
    max(1e-5, 1e-4 inner), and the gauge tolerance
    min(_gauge_tol, 1e-3 step, step / (16 sqrt(n) outer)),
    _gauge_tol being 1e-8 outer; the last term keeps the quotient noise
    2 sqrt(n) tol / step under 1/(8 outer) and the flat-gauge floor, twice
    that, at most 1/(4 outer), against the least the exact quotients can be,
    1/outer (module header). The n + 1 probes x and x +/- step e_i of every
    point, each stepping away from the center, share one gauge_batch call
    anchored at the points, where x is its own probe at offset 0: each
    point's gauge is bisected to tol, and the n other probes are bisected
    from the window around it (module header), so a separator costs one
    primal call per anchor round and n per probe round. The depth is that
    of the cut through the boundary point a + (x - a)/g(x), read from
    g~(x) - tol, a certified lower bound on the gauge (module header, deep
    cuts). The witness is a + (x - a)/(g~(x) + tol), read from the same
    probe: g~(x) + tol is a certified upper bound on the gauge. Raises
    FlatGaugeError when the differences at any point fall below the gauge
    noise floor (a step too small for the gauge tolerance).
    """
    X = as_stack(X, body.n)
    delta = positive_finite(delta, "delta")
    if oracle.separator is not None:
        return oracle.separator(X, delta)
    step = _fd_step(body)
    m, n = X.shape
    # gauge noise must sit below the difference quotient, and the
    # flat-gauge floor below the least gradient norm, 1/outer_radius
    tol = min(_gauge_tol(body), 1e-3 * step,
              step / (16.0 * math.sqrt(n) * body.outer_radius))
    # each probe steps away from the center along its axis
    hs = np.where(X >= body.center, step, -step)
    probes = np.repeat(X[:, None, :], n + 1, axis=1)
    probes[:, np.arange(1, n + 1), np.arange(n)] += hs
    g = gauge_batch(oracle, body, probes.reshape(-1, n), tol, anchors=X).reshape(m, n + 1)
    H = (g[:, 1:] - g[:, :1]) / hs
    nrm = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(nrm <= 4.0 * math.sqrt(n) * tol / step):
        raise FlatGaugeError("flat gauge at a probe point; reduce step")
    H /= nrm
    D = X - body.center
    glo = np.maximum(g[:, 0] - tol, 1.0)
    depth = (1.0 - 1.0 / glo) * np.einsum("bi,bi->b", H, D)
    return H, depth, body.center + D / (g[:, :1] + tol)


class WvalVerdict(enum.Enum):
    """Answer of a weak validity query against threshold gamma."""

    UPPER_BOUND_HOLDS = "upper-bound-holds"
    LARGE_VALUE_EXISTS = "large-value-exists"


@dataclass
class WoptResult:
    """Outcome of a weak optimization query, the support query of one row c.

    interval contains h_K(c) and is no wider than the err asked for (module
    header, support interval). witness lies in the dq-thickened body: it is
    a center answered IN, or a point of the body (the body center, a center
    inside the inner ball, or a separator's witness), and value = c . witness
    lies in interval. iterations counts the run's cuts, free cuts included.
    stop_reason is always "gap", as a support run has no early exit; it
    stays with iterations because the benchmark's layer trace reads both.
    """

    witness: np.ndarray
    value: float
    interval: Interval
    iterations: int
    stop_reason: str


def _cut(Z: np.ndarray, P: np.ndarray, G: np.ndarray,
         A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the minimum-volume ellipsoid containing the part
    {g.(x - z) <= -alpha} of E(z, P); Z and G are (m, n), P is (m, n, n),
    and A holds each row's depth alpha.

    With U = Pg / sqrt(g'Pg) and the normalized depth
    d = alpha / sqrt(g'Pg), clipped to [0, _MAX_DEPTH] (module header),
    the update is Z - tau U and delta (P - sigma U U'), where
    tau = (1 + n d)/(n + 1), sigma = 2 (1 + n d)/((n + 1)(1 + d)) and
    delta = n^2 (1 - d^2)/(n^2 - 1) (Groetschel, Lovasz and Schrijver,
    1988, 3.3). The products are ordered so that d = 0 gives the central
    cut bit for bit.
    """
    n = Z.shape[1]
    S = np.einsum("bij,bj->bi", P, G)
    den = np.einsum("bi,bi->b", G, S)
    if not (den.min() > 0.0 and math.isfinite(den.max())):
        raise IterationCapError("localizer degenerated (flat along the cut direction)")
    r = np.sqrt(den)
    depth = np.clip(A / r, 0.0, _MAX_DEPTH)
    if n == 1:
        # the interval [z - w, z + w] shrinks to [z - w, z - d w] along sign(g)
        w = np.sqrt(P[:, 0, 0])
        half = w * (1.0 - depth) / 2.0
        Z = Z - np.sign(G) * (w * (1.0 + depth) / 2.0)[:, None]
        return Z, (half * half)[:, None, None]
    U = S / r[:, None]
    t = 1.0 + n * depth
    delta = n * n * (1.0 - depth * depth) / (n * n - 1.0)
    # u_i u_j == u_j u_i in floating point, so P stays exactly symmetric
    P = (delta[:, None, None] * P
         - (2.0 * delta * t / ((n + 1.0) * (1.0 + depth)))[:, None, None]
         * (U[:, :, None] * U[:, None, :]))
    return Z - U * t[:, None] / (n + 1.0), P


def _most_violated(Z: np.ndarray, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per center z of Z, the index j of the halfspace u . y <= beta that z
    violates most among the rows (u, beta) of pool, and its violation
    v = u . z - beta. The centers are scanned _SCAN_ROWS at a time, so the
    violation matrix stays within (_SCAN_ROWS, _POOL_CAP)."""
    j = np.empty(len(Z), dtype=int)
    v = np.empty(len(Z))
    for lo in range(0, len(Z), _SCAN_ROWS):
        V = Z[lo:lo + _SCAN_ROWS] @ pool[:, :-1].T
        V -= pool[:, -1]
        jb = V.argmax(axis=1)
        j[lo:lo + _SCAN_ROWS] = jb
        v[lo:lo + _SCAN_ROWS] = V[np.arange(len(V)), jb]
    return j, v


def _cut_loop(oracle: WeakMembershipOracle, body: CenteredBody, C, eps: float,
              dq: float, stop_above: float = math.inf,
              stop_ub_below: float = -math.inf):
    """Maximize c . x over the body for every row c of C, all rows in lockstep.

    Each row runs its own ellipsoid localizer with deep cuts (module
    header): an asserted-feasible center adds the objective cut at the
    incumbent (keep values at least best), an asserted-infeasible center
    adds the separator cut at the depth its separator returns, and the
    separator's witness, a point of the body, raises the incumbent where
    it beats it (module header, separator witnesses). Each row's
    ellipsoid starts as the body's stated ellipsoid, or as B(a, outer) where
    it states none (module header, start ellipsoid). The incumbent starts
    at the body center a, which the centering data guarantees feasible, at
    no query. A row leaves the loop once its certified gap falls to eps/2,
    its incumbent reaches stop_above, or its certified upper bound falls to
    stop_ub_below; the last two are the exits of validity queries
    (wval_batch), and by default neither fires. A center that violates one
    of the run's pooled separator halfspaces, made by any of its rows, is
    cut along the most violated one at no call (module header, pooled
    cuts). Of the rest, a center outside the outer ball is cut along its
    direction from the body center, and one inside the inner ball is an
    incumbent, neither asked (module header, sandwich centers). A center
    left whose objective value is at most its row's incumbent takes the
    objective cut at the incumbent, unasked (module header, objective cuts
    below the incumbent). The other centers of all live rows go to one
    query_batch per cut at slack dq, and those answered infeasible to one
    approx_separator call at the same dq, which uses the oracle's own
    separator where it has one (value separators) and differences of the
    gauge elsewhere. The caller picks dq (module header, membership slack).

    Returns per-row arrays (value, witness, gap, iterations); iterations
    counts every cut, free or paid. Raises IterationCapError, carrying the
    incumbent of the first undecided row, if any row is undecided after
    _MAX_CUTS cuts. Raises ValueError, before any oracle call, on an
    unbounded body, a bad slack or centre slack, or a C that is not a finite
    (m, n) stack of nonzero rows; an empty C returns empty arrays at no
    call.
    """
    _bounded(body)
    C = as_stack(C, body.n)
    if np.any(np.linalg.norm(C, axis=1) == 0.0):
        raise ValueError("objective must be nonzero")
    positive_finite(eps, "engine slack")
    positive_finite(dq, "centre slack")

    m, n = C.shape
    value, gap_out = np.empty(m), np.empty(m)
    witness = np.empty((m, n))
    iterations = np.empty(m, dtype=int)
    rows = np.arange(m)
    # the stated ellipsoid, else B(a, outer); the incumbent is a either way
    # (module header, start ellipsoid)
    if body.ellipsoid is None:
        start, shape = body.center, np.eye(n) * body.outer_radius ** 2
    else:
        start, shape = body.ellipsoid
    Z = np.tile(start, (m, 1))
    P = np.tile(shape, (m, 1, 1))
    best = C @ body.center
    best_wit = np.tile(body.center, (m, 1))
    ub_run = np.full(m, math.inf)
    # the ring of the run's last _POOL_CAP separator halfspaces u . y <= beta,
    # from all rows, as rows (u, beta); made counts every one written to it,
    # and a slot not yet written holds u = 0, beta = inf, which no center
    # violates
    pool = np.zeros((_POOL_CAP, n + 1))
    pool[:, n] = math.inf
    made = 0

    for it in range(_MAX_CUTS):
        vals = np.einsum("bi,bi->b", C, Z)
        quad = np.einsum("bi,bij,bj->b", C, P, C)
        ub_run = np.minimum(ub_run, vals + np.sqrt(np.maximum(quad, 0.0)))
        gap = np.maximum(ub_run - best, 0.0)
        done = (gap <= eps / 2.0) | (best >= stop_above) | (ub_run <= stop_ub_below)
        if done.any():
            k = rows[done]
            value[k], witness[k], gap_out[k] = best[done], best_wit[done], gap[done]
            iterations[k] = it
            live = ~done
            rows, C, Z, P, vals = rows[live], C[live], Z[live], P[live], vals[live]
            best, best_wit, ub_run = best[live], best_wit[live], ub_run[live]
        if rows.size == 0:
            return value, witness, gap_out, iterations

        # a pooled halfspace that the center violates is a free cut, and so
        # is the sandwich: a center outside B(a, outer) is out, one inside
        # B(a, inner) is in (module header, sandwich centers)
        j, v = _most_violated(Z, pool)
        free = v > 0.0
        D = Z - body.center
        r = np.linalg.norm(D, axis=1)
        far = ~free & (r > body.outer_radius)
        inside = ~free & (r < body.inner_radius)
        # a center with c . z <= best can raise nothing: its objective cut
        # is free (module header, objective cuts below the incumbent)
        ask = ~(free | far | inside) & (vals > best)
        if ask.any():
            inside[ask] = oracle.query_batch(Z[ask], dq)
        gain = inside & (vals > best)
        if gain.any():
            best = np.where(gain, vals, best)
            best_wit[gain] = Z[gain]
        G = -C
        A = best - vals  # objective cut at the incumbent
        G[free] = pool[j[free], :n]
        A[free] = v[free]
        G[far] = D[far] / r[far, None]
        A[far] = r[far] - body.outer_radius
        out = ask & ~inside
        if out.any():
            X = Z[out]
            G[out], A[out], W = approx_separator(oracle, body, X, dq)
            # every separator pays for a point of the body (module header,
            # separator witnesses)
            wv = np.einsum("bi,bi->b", C[out], W)
            up = wv > best[out]
            k = np.flatnonzero(out)[up]
            best[k], best_wit[k] = wv[up], W[up]
            beta = np.einsum("bi,bi->b", G[out], X) - np.maximum(A[out], 0.0)
            new = np.column_stack([G[out], beta])[-_POOL_CAP:]
            pool[(made + np.arange(len(new))) % _POOL_CAP] = new
            made += len(new)
        Z, P = _cut(Z, P, G, A)

    raise IterationCapError(
        f"no certified gap <= {eps / 2:.3g} within {_MAX_CUTS} cuts "
        f"({rows.size} of {m} objectives undecided)",
        witness=best_wit[0], value=float(best[0]),
        gap=max(float(ub_run[0] - best[0]), 0.0),
    )


def wopt_from_wmem(oracle: WeakMembershipOracle, body: CenteredBody, c,
                   err: float) -> WoptResult:
    """Weak optimization of c . x over the body: support_batch on the one
    row c, which checks every input.

    The interval of the result contains h_K(c) and is no wider than err,
    and its witness, within the run's centre slack of the body, has
    c . witness in it (module header, support interval). Raises
    IterationCapError, carrying the incumbent, if the run is undecided after
    _MAX_CUTS cuts.
    """
    c = np.asarray(c, dtype=float)
    lo, hi, witness, cuts, _ = support_batch(oracle, body, c[None], err)
    return WoptResult(witness[0], float(c @ witness[0]),
                      Interval(float(lo[0]), float(hi[0])), int(cuts[0]), "gap")


def support_batch(oracle: WeakMembershipOracle, body: CenteredBody, C, err: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Certified support values h_K(c) of the body for every row c of C.

    One lockstep run of the engine at the slack e = max(err/(1/2 + x/8), err)
    and the centre slack dq = min(e/8, inner/4, err/(2x)), where
    x = |c|max (1 + outer/inner) prices the support K_dq loses per unit of
    dq: the gap gets max(4/(4 + x), 1/2) of err and the dq terms the rest.
    Returns per-row arrays (lo, hi, witness, cuts) and dq: an interval
    [lo, hi] that contains h_K(c) with hi - lo <= err (the support interval
    of the module header), the incumbent, a point within dq of the body with
    c . witness in [lo, hi], and the row's cut count, free cuts at pooled
    halfspaces included. C is checked by the engine (_cut_loop).
    """
    err = positive_finite(err, "err")
    # axis -1, so that a C of the wrong rank reaches the engine's check
    nc = np.linalg.norm(np.asarray(C, dtype=float), axis=-1)
    inner, outer = body.inner_radius, body.outer_radius
    x = float(np.max(nc, initial=0.0)) * (1.0 + outer / inner)
    e = max(err / (0.5 + x / 8.0), err)
    dq = min(e / 8.0, inner / 4.0)
    if x > 0.0:  # else C is empty, which costs no call, or zero, which the engine rejects
        dq = min(dq, err / (2.0 * x))
    value, witness, gap, cuts = _cut_loop(oracle, body, C, e, dq)
    return value - nc * dq, value + gap + (dq / inner) * nc * outer, witness, cuts, dq


def wval_from_wmem(oracle: WeakMembershipOracle, body: CenteredBody, c,
                   gamma: float, eps: float) -> WvalVerdict:
    """Weak validity of c . x <= gamma over the body at slack eps:
    wval_batch on the one row c, which checks every input.

    UPPER_BOUND_HOLDS asserts c . x <= gamma + eps on the eps-shrunk body;
    LARGE_VALUE_EXISTS asserts a point of the eps-thickened body with
    c . x >= gamma - eps.
    """
    if wval_batch(oracle, body, np.asarray(c, dtype=float)[None], gamma, eps)[0]:
        return WvalVerdict.UPPER_BOUND_HOLDS
    return WvalVerdict.LARGE_VALUE_EXISTS


def wval_batch(oracle: WeakMembershipOracle, body: CenteredBody, C, gamma: float,
               eps: float) -> np.ndarray:
    """Weak validity of c . x <= gamma over the body for every row c of C.

    Returns a bool array, True where UPPER_BOUND_HOLDS, from one lockstep run
    of the engine at slack eps/2 that exits early at the two thresholds
    gamma -/+ eps/2; ties at gamma - eps/2 prefer LARGE_VALUE_EXISTS. Its
    centres are queried at dq = min(eps/16, eps inner/(2 outer), inner/4),
    so that K_dq loses at most eps |c|/2 of support whatever the sandwich
    (module header, validity slack). C and eps are checked by the engine
    (_cut_loop); an empty C costs no call.
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    inner = body.inner_radius
    dq = min(eps / 16.0, eps * inner / (2.0 * body.outer_radius), inner / 4.0)
    value = _cut_loop(oracle, body, C, eps / 2.0, dq, stop_above=gamma - eps / 2.0,
                      stop_ub_below=gamma + eps / 2.0)[0]
    return value < gamma - eps / 2.0
