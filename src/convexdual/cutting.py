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
A run of one objective in R^2 or R^3 whose oracle has no separator of its
own takes the vertices of its cut polytope as centres instead of the
ellipsoid's, and a validity batch there runs its rows in turn on one such
polytope (hull centres, below); every rule around the centre is the same.
It has two entries, the two questions of Groetschel, Lovasz and Schrijver
(1988, ch. 4), and each checks its input once, before any oracle call: a
bounded body, a positive and finite err or eps, and a finite (m, n) stack of
nonzero objectives (core.as_stack). _cut_loop trusts them, and an empty
stack returns empty results at no call. support_batch is weak optimization
over many objectives: it picks the engine slack and the centre slack from
the accuracy asked for and turns each row's run into a certified interval
for h_K(c), the one place those slacks are proved, and wopt_from_wmem is
support_batch on one row. wval_batch is weak validity over many objectives,
and wval_from_wmem is wval_batch on one row, so the gamma -/+ eps/2 exits,
the eps/2 slack, the centre slack and the tie rule live in wval_batch alone.
gauge_batch and approx_separator take stacks too; gauge_batch anchors points
passed without anchors at themselves.

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
  center inside the inner ball (sandwich centers), a separator's witness
  or a verdict's witness (below). A center answered OUT lies outside
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
  halfspaces hold all of E, so sigma = 0, at no evaluation. The oracle
  keeps one store of values for its life, pairs (w, e) with
  |w - f(x)| <= e, one per point, and buys every value through it
  (fenchel.EpigraphBody.oracle). Any other center z = (x, tau) is first
  read against the pair held at x: tau >= w + e puts z in E and
  tau < w - e puts it below the graph, both legal at every slack and at
  no evaluation. Otherwise its verdict reads a pair of slack e at most
  the separator's slack ev = dq h / (16 sqrt(n) R), asking f~(x) at ev
  where none is held, rather than at dq. That is legal at dq: IN gives
  tau >= w >= f(x) - e >= f(x) - dq, and OUT gives
  tau < w <= f(x) + e <= f(x) + dq, so an OUT center is below the graph
  up to the band. The separator reads the pair (w, e) at x and the values
  w_i at the n points x + h_i e_i, with h_i = -/+h stepping toward c, each
  of slack at most ev. The quotients H_i = (w_i - w)/h_i give the unit
  u = (H, -1)/|(H, -1)| and the depth alpha = (w - e - tau)/|(H, -1)|.
  The engine hands the separator a subset of the batch it has just
  asked, at the same dq, whose verdicts leave a pair of slack at most ev
  held at x unless a held pair's bounds decided them. So a center below
  the graph costs at most n further evaluations, n + 1 in all, and a point
  the store already holds costs nothing again. A center the store does
  not hold (a direct call) has f~(x) asked in the separator, at n + 1
  evaluations. Take y' = (x', tau') in E, s a subgradient of f at x, F
  the exact quotients and b = F - s their one-sided bias, as for the
  gauge. Convexity gives tau' >= f(x') >= f(x) + s . (x' - x), and
  f(x) >= w - e, so
  (H, -1) . (y' - z) <= (H - s) . (x' - x) - (w - e - tau). Each value
  errs by at most ev, so |H - F| <= 2 sqrt(n) ev/h, and |x' - x| <= 2R, so
  u . (y' - z) <= -alpha + (|b| + 2 sqrt(n) ev/h) 2R / |(H, -1)|. An OUT
  verdict inside the band can leave alpha < 0. Where the verdict read the
  pair the depth reads, OUT means tau < w, so alpha > -e/|(H, -1)|
  >= -ev/|(H, -1)|. Elsewhere, tau < f(x) + dq <= w + e + dq gives only
  alpha > -(dq + 2 ev)/|(H, -1)|. The clip makes either cut central.
  So against the clipped depth a value cut keeps E, and with it K_dq, up
  to

      sigma_v = (dq + 2 ev + (|b| + 2 sqrt(n) ev/h) 2R) / |(H, -1)|,

  as a gauge cut does up to sigma. This bound covers both paths; where
  the verdict read the separator's pair its clip term dq + 2 ev falls to
  ev. |(H, -1)| >= 1, so a
  value separator has no flat case. The step is h = 1e-5 R, fixed by the
  ball, and ev = dq h / (16 sqrt(n) R) holds the noise term
  2 sqrt(n) (ev/h) 2R to dq/4. The bias term is O(h) where f is smooth,
  |b| <= sqrt(n) M h/2 for second partials at most M, and near a kink can
  reach the jump of a partial, as for gauges; choosing h so that it stays
  below a fraction of the slack is open, with the gauge path's step and
  tolerance (ROADMAP item 7).
- Pooled cuts: each run keeps one ring, a CutPool of the halfspaces
  u . y <= beta of its last _POOL_CAP separator cuts from all its rows,
  newest last, beta = u . x - max(alpha, 0). Each keeps K_dq up to sigma
  (deep cuts and value separators, above), and that holds for every row of
  the run, not just the row whose center x made it. dq, and with it K_dq,
  is the run's.
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
  ellipsoid. A new halfspace drops the oldest once the ring holds
  _POOL_CAP, and a halfspace dropped only forgoes the free cuts it would
  have made. The ring lives for one _cut_loop call; a run of one row, with
  no caller's pool, pools only its own cuts.
  A caller that asks several runs about one body K may hand them one
  CutPool, which it creates and owns (no user sets one), of halfspaces
  that hold K itself. On return a run appends its own new halfspaces to
  the pool, each first moved out from K_dq to K:
  beta <- u . a + (beta - u . a)/t, t = 1 - dq/inner. For y in K the
  point a + t (y - a) lies in K_dq = a + t (K - a), so
  u . (a + t (y - a)) <= beta + sigma, which is u . y <= the new beta plus
  sigma/t. Every entry keeps dq <= inner/4, so t >= 3/4, and the moved
  halfspace holds K up to at most 4 sigma/3; that sigma is charged no more
  than any other (ROADMAP item 7). A halfspace that holds K holds the K_dq
  of every run over K, whatever its dq, so a run seeds its ring with the
  pool's halfspaces and cuts with them as with its own, at no call and
  certifying nothing new; its own halfspaces are the newest of its ring,
  and they alone go back to the pool. support_batch and wval_batch pass
  the pool through. A caller that keeps a support interval for long
  should hand its run a fresh pool, as normdual.DualBallOracle does for
  its net: an imported halfspace would carry another run's uncharged sigma
  into a bound that outlives the run. With no pool, every run is bit for
  bit as without this rule.
- Separator witnesses: every separator returns, per center x it cuts, a
  point W of K that costs no call beyond the cut, and the run raises the
  row's incumbent to W where c . W beats it. On the gauge path
  W = a + (x - a)/(g~(x) + tol), from the offset-0 probe that the depth
  reads already (a row the separator settles gets the earlier witness
  of witness-first separators, below): gauge_batch keeps
  g(x) <= g~(x) + tol, and the gauge is 1-homogeneous, so
  g(W) = g(x)/(g~(x) + tol) <= 1 and W lies in K, up to rounding. As
  g~(x) - tol <= g(x), g(W) >= g(x)/(g(x) + 2 tol): W sits next to the
  boundary point x_b of the deep cut, on the segment from a.
  The epigraph's value separator returns (x, min(w + e, cap)) below the
  graph, from the pair (w, e) it reads at x, in E since f(x) <= w + e and
  f <= cap/2 on the ball,
  and for a center off the ball or above the cap the ball point
  (c + (x - c) min(1, R/|x - c|), cap), in E at no evaluation. An oracle
  may also return witnesses with its IN verdicts
  (oracles.WeakMembershipOracle, witnesses): the run hands the hook the
  centers the query batch has just answered IN, at the same dq, and raises
  each row's incumbent to its W where c . W beats c . z, the same way. The
  epigraph's hook returns (x, w + e) from the pair its store holds at x,
  the one the verdict read, in E as f(x) <= w + e, for a center
  z = (x, tau) answered IN, so tau >= w; along c = (y, -1) it beats z
  wherever tau > w + e, and it costs no evaluation. Both the value separator's
  heights and the hook's are clipped to [-cap/2, cap], where the holder's
  bound |f| <= cap/2 puts every height of E, so the clip never moves a
  witness of a legal oracle. Gauge oracles have no hook. A witness in K
  lies within dq of K, so it is as legal an incumbent as an IN center:
  c . W <= h_K(c), so the support interval's lo <= h_K(c) stands, and the
  gap over K_dq holds as before, as it reads only the incumbent.
- Witness-first separators: on the gauge path a witness is certified at
  every round of the anchor search, not only at its end, and a row whose
  witness already ends it pays for no probe. The search of the gauge of x
  (_ray_search under gauge_batch) asks its midpoints t at the slack
  dq_g = tol inner/(2 max hi) <= tol inner/(2 t). With s = dq_g/inner,
  K + dq_g B lies in a + (1 + s)(K - a): for y in K and |w| <= dq_g,
  (y + w - a)/(1 + s) = (y - a)/(1 + s) + (s/(1 + s)) (w/s), a convex
  combination of y - a and w/s, both in K - a, as |w/s| <= inner. So an IN
  verdict at t gives g(x)/t <= 1 + s and g(x) <= t + t s <= t + tol/2. The
  IN end hi of the bracket is such a t, or the centering bound d/inner,
  which g(x) never exceeds, so g(x) <= hi + tol/2 at every round, and
  W = a + (x - a)/(hi + tol/2) has g(W) = g(x)/(hi + tol/2) <= 1: a point
  of K, as legal an incumbent as the witness above. _cut_loop hands the
  separator each row's objective c and its exit, min(stop_above,
  ub - eps/2) for the row's certified bound ub: an incumbent that reaches
  it ends the row at the next check, as ub only falls. Before each round
  of the anchor search, and after the last, a row whose W reaches its
  exit, hi + tol/2 <= c . (x - a)/(exit - c . a) where both sides of that
  quotient are positive, leaves the search, and its n probes are never
  asked. The round count and dq_g are fixed before the first round, so the
  rows still open keep their rounds, midpoints and slack, and their
  gauges, cuts and witnesses, bit for bit; and as hi + tol/2 <= g~ + tol
  at the end of a search, a row that stays open would not have reached its
  exit with the witness above either. A settled row takes the objective
  cut at its raised incumbent, at no call and legally, as an IN center
  does (deep cuts), and pools nothing, as no separator cut was made. It
  certifies nothing new: the row leaves at the next check on its incumbent
  alone, and its verdict or support interval reads only the incumbent and
  the certified bound, as before. It loses nothing either: the separator
  cut it skips would only have shrunk an ellipsoid that the row no longer
  uses, and the other rows of a run forgo only the free cuts that its
  halfspace might have given them.
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
- Hull centres: a run of one objective c over a body in R^2 or R^3 whose
  oracle has no separator of its own, every dual-norm run, every single
  dual-ball or dual-cone query and every row of a validity batch over such
  a body, takes as each centre the vertex z of max c . y over its
  cut polytope Q (Kelley, "The cutting-plane method for solving convex
  programs", J. SIAM 8, 1960). Q starts as the tangent halfspaces of
  B(a, outer) at the axis directions +-e_i, which make its box, and at the
  2^n diagonal directions (+-1, ..., +-1)/sqrt(n); it holds the run's ring,
  the caller's pool with it, and it takes each round's cut. A tangent
  holds B(a, outer), which holds K, and a ring halfspace holds K_dq up to
  sigma (pooled cuts), so max c . y over Q bounds c . y over K_dq up to
  the same sigma as the ellipsoid's bound does, and it is the run's
  certified bound in its place, with the bound c . a + |c| outer of
  B(a, outer) before any cut. The gap, the support interval and the
  validity verdicts read only that bound and the incumbent, so their
  proofs carry over unchanged.
  Polar duality solves the linear program without a solver. In the units
  y' = (y - a)/outer, a halfspace u . y <= beta with beta > u . a is
  p . y' <= 1 at p = outer u/(beta - u . a), so Q is the polar of the
  hull of the origin and the points p, held by one _Hull. A facet of that
  hull with plane H . p = 1 is the vertex y' = H of Q, so z = a + outer H
  for the facet of largest H . c, and the value max c . y' over Q is the
  gauge of c over the hull, which _gauge_bound bounds from above with its
  padding for rounding, as it does for normdual's net. A new halfspace is
  one add and a centre one argmax. A halfspace that does not keep a
  strictly inside has no point p and is left out, which only keeps Q
  larger, and so its bound sound.
  At z the rules of the ellipsoid's centres apply. A vertex inside
  B(a, inner), answered IN, or with c . z <= best has closed its gap,
  since its value is the bound. The hull holds every halfspace of the
  ring already, or, for one that an earlier row of a validity batch
  (below) moved out to the pool, the halfspace it was moved from, so no
  pooled cut is scanned. A vertex more than
  _TANGENT_SHARE outer beyond B(a, outer) is cut at no call by the ball's
  tangent along z - a (sandwich centers), which joins Q; a nearer one is
  asked, because a tangent there cuts off little, and one answered OUT
  buys a separator cut, whose halfspace joins the ring and Q.
  Termination: Q only shrinks, so in exact arithmetic no vertex comes
  back once it is cut off. A far vertex is cut off by
  |z - a| - outer > _TANGENT_SHARE outer. An asked vertex answered OUT is
  cut off, or its witness closes the gap: a depth clipped to 0 (deep
  cuts) means g~(z) - tol <= 1, and then the witness
  W = a + (z - a)/(g~(z) + tol) has c . (z - W) <= 2 tol c . (z - a), so
  the gap closes wherever eps/2 exceeds that and the bound's rounding
  padding. Where neither holds, or where rounding leaves the hull
  unchanged, the vertex comes back. A vertex that comes back, at any
  later round, sends the row to the ellipsoid: its localizer starts at
  the start ellipsoid, reads the ring as pooled cuts, and keeps the bound
  and the incumbent the hull run reached.
  Validity batches share one hull. wval_batch over such a body and oracle
  runs its rows one after another, each a hull run of one row, and all of
  them on one polar hull: it starts as the start polytope and the
  caller's pool, built once per run, and each row continues from the hull
  that the row before it left. Every halfspace in it holds the run's
  K_dq: the tangents hold B(a, outer), the pool's halfspaces hold K, and
  each separator halfspace holds K_dq up to sigma, as the ring's do. dq,
  and with it K_dq, is the run's, and no halfspace reads the objective of
  the row that made it (pooled cuts), so the bound each row reads from the
  hull is certified as on a hull of its own. Each row still hands its own
  halfspaces, moved out, to the caller's pool on return, and a vertex
  that comes back sends only its own row to the ellipsoid; the hull stays
  for the rows after it. Run in turn, the rows no longer share query
  batches, so such a run makes more and smaller batches for fewer calls.
  Every other run takes the ellipsoid, bit for bit, for measured reasons.
  One hull per row of every batch raised mahler's seed-1 calls per sample
  from 0.007175 to 0.009635. Split by run, per-row hulls on the net's
  support runs alone read 0.00968, and one shared hull on the validity
  runs alone 0.00571, so a support batch, and any run of many rows
  through _cut_loop, keeps the ellipsoid. On the truncated epigraph, whose
  value separator costs only n + 1 evaluations, hull centres saved 2 % of
  the conjugate workload's calls (seed 1: 14.222 to 13.889), and a pass
  took 1.5 to 2.3 times as long. R^1 and R^4 and up have no hull: _Hull
  inserts in R^2 and R^3 only. A prototype hull in R^5, on the dual
  cone's slice of psd(3), raised the psd ops' calls from 48.98 to 50.96
  each and their time from 1.0 to 6.8 s a pass.
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

import copy
import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CenteredBody, Interval, as_stack, positive_finite
from .oracles import WeakMembershipOracle

_MAX_CUTS = 4000  # cuts per engine run before IterationCapError
_MAX_DEPTH = 0.9  # clip of a cut's normalized depth (module header)
_POOL_CAP = 256  # separator halfspaces a run pools for free cuts (module header)
# rows per block of a row-wise temporary (gauges, net screens, sandwiches, and
# pool scans, whose violation matrix takes 2 MB at _POOL_CAP)
_BLOCK = 1024
# share of outer beyond B(a, outer) past which a hull vertex takes the ball's
# tangent at no call; a nearer one is asked (module header, hull centres). At
# 1e-3, 1e-2 and 3e-2 seed-1 dualnorm read 106.1, 102.7 and 111.1 calls per
# op, and a dualcone pass 7,410, 5,267 and 4,093 hull rounds at 41.25, 41.23
# and 41.56 calls per op: nearer tangents cut off little, farther vertices
# buy separators
_TANGENT_SHARE = 1e-2
_HULL_TOL = 1e-9  # a point this share of the hull's scale beyond a plane sees it
_HULL_DIMS = (2, 3)  # dimensions that take hull centres and grow nets (module header)


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
                stop: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [lo, hi] of the gauges of the points center + rays, bisected
    in place, all rows in lockstep; returns the final (lo, hi).

    Each round queries every open row's point center + ray/t at the
    midpoint t of its bracket, all open rows in one query_batch at slack
    dq. An IN verdict moves the upper end to t and an OUT verdict the lower
    end, so each end is certified by its own verdict and a non-monotone
    answer pattern inside the band cannot corrupt the bracket. The band slop
    t dq/inner of a verdict stays under tol/2, so the gauge lies in
    [lo - tol/2, hi + tol/2] at every round. The round count and dq are
    fixed up front, from the widest bracket, so that every bracket ends at
    most tol wide. stop, where given, holds a level per row: a row whose hi
    is at most its level before a round leaves the search with its bracket
    as it stands, and the rows still open keep their rounds, midpoints and
    dq bit for bit. Each round's trial points are a new array, so a verdict
    function may keep the stack it is handed.
    """
    width = float(np.max(hi - lo, initial=0.0))
    if width > tol:
        dq = max(0.5 * tol * body.inner_radius / float(np.max(hi)), 1e-300)
        act = slice(None)  # every row, unless stop levels are given
        for _ in range(math.ceil(math.log2(width / tol))):
            if stop is not None:
                act = np.flatnonzero(hi > stop)
                if act.size == 0:
                    break
                if act.size == hi.size:
                    act = slice(None)
            t = 0.5 * (lo[act] + hi[act])
            inside = oracle.query_batch(rays[act] / t[:, None] + body.center, dq)
            hi[act] = np.where(inside, t, hi[act])
            lo[act] = np.where(inside, lo[act], t)
    return lo, hi


def gauge_batch(oracle: WeakMembershipOracle, body: CenteredBody, points,
                tol: float, anchors=None, levels=None):
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
    intersected with its centering bracket. Every round asks its trial
    points as a new array, so the oracle's verdict function may keep each
    stack it is handed.

    levels, an (m,) array beside anchors, lets an anchor leave its search
    early (module header, witness-first separators). Before every round of
    the anchor search, and after the last, an anchor whose IN end hi makes
    hi + tol/2, a certified upper bound on its gauge, at most its level
    leaves: its search stops there and none of its k points is bisected.
    The call then returns (g, up): g as above, NaN on every point of an
    anchor that left, and up per anchor, the bound hi + tol/2 at which it
    left and the trivial bound inf where it did not. A call whose brackets
    need no round returns up = inf throughout.
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
        g = 0.5 * (lo + hi)
        return g if levels is None else (g, np.full(m, math.inf))
    dist = np.linalg.norm(P.reshape(m, k, -1) - Z[:, None, :], axis=2).ravel()
    live = (dist > 0.0) & (d > 0.0)  # a point at its anchor or the center is known
    DZ = Z - body.center
    dz = np.linalg.norm(DZ, axis=1)
    lz, hz = dz / body.outer_radius, dz / inner
    zlive = dz > 0.0
    stop = None if levels is None else np.asarray(levels, dtype=float) - 0.5 * tol
    lz[zlive], hz[zlive] = _ray_search(oracle, body, DZ[zlive], lz[zlive], hz[zlive], tol,
                                       None if stop is None else stop[zlive])
    gz = np.repeat(0.5 * (lz + hz), k)
    left = np.zeros(m, dtype=bool) if stop is None else hz <= stop
    gone = np.repeat(left, k)  # the points of anchors that left
    dist /= inner
    dist += tol
    np.maximum(lo, gz - dist, out=lo)
    np.minimum(hi, gz + dist, out=hi)
    if np.any((hi < lo) & ~gone):
        raise BracketError("anchor window misses the centering bracket")
    out = np.where(d > 0.0, gz, 0.0)
    live &= ~gone
    plo, phi = _ray_search(oracle, body, P[live] - body.center, lo[live], hi[live], tol)
    out[live] = 0.5 * (plo + phi)
    if levels is None:
        return out
    out[gone] = math.nan
    return out, np.where(left, hz + 0.5 * tol, math.inf)


def _separator_scales(body: CenteredBody) -> tuple[float, float]:
    """Finite-difference step and gauge tolerance of a gauge separator
    (approx_separator). The step is 1e-4 of the inner radius, at least
    1e-5, and the tolerance min(1e-8 outer, 1e-3 step,
    step / (16 sqrt(n) outer)): the last term keeps the quotient noise
    2 sqrt(n) tol / step under 1/(8 outer) and the flat-gauge floor, twice
    that, at most 1/(4 outer), against the least the exact quotients can
    be, 1/outer (module header)."""
    step = max(1e-5, body.inner_radius * 1e-4)
    return step, min(1e-8 * body.outer_radius, 1e-3 * step,
                     step / (16.0 * math.sqrt(body.n) * body.outer_radius))


def approx_separator(oracle: WeakMembershipOracle, body: CenteredBody, X, delta: float,
                     C=None, exits=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    the step and the gauge tolerance derive from the body
    (_separator_scales). The n + 1 probes x and x +/- step e_i of every
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

    C, an (m, n) stack of objectives, and exits, an (m,) array, come
    together and make the gauge path witness-first (module header): a point
    whose witness a + (x - a)/(hi + tol/2), from the IN end hi of its
    anchor search at any round, reaches c . W >= exit leaves that search
    there, and its n probes are not asked. Such a point is settled: its W
    is that witness, and its U and depth are NaN, as no cut was bought.
    Every other point gets the U, depth and W above, bit for bit. An
    oracle's own separator does not read C and exits.
    """
    X = as_stack(X, body.n)
    delta = positive_finite(delta, "delta")
    if oracle.separator is not None:
        return oracle.separator(X, delta)
    step, tol = _separator_scales(body)
    m, n = X.shape
    if (C is None) != (exits is None):
        raise ValueError("objectives and exits come together")
    D = X - body.center
    # the gauge level at which a witness a + D/u reaches its exit: u at most
    # c . D / (exit - c . a), where both are positive; -inf never leaves
    levels = np.full(m, -math.inf)
    if C is not None:
        C = as_stack(C, n)
        room = np.broadcast_to(np.asarray(exits, dtype=float), (m,)) - C @ body.center
        cD = np.einsum("bi,bi->b", C, D)
        np.divide(cD, room, out=levels, where=(cD > 0.0) & (room > 0.0))
    # each probe steps away from the center along its axis
    hs = np.where(X >= body.center, step, -step)
    probes = np.repeat(X[:, None, :], n + 1, axis=1)
    probes[:, np.arange(1, n + 1), np.arange(n)] += hs
    g, up = gauge_batch(oracle, body, probes.reshape(-1, n), tol, anchors=X, levels=levels)
    g = g.reshape(m, n + 1)
    # a settled point's gauges are NaN, and so are its U and depth
    H = (g[:, 1:] - g[:, :1]) / hs
    nrm = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(nrm <= 4.0 * math.sqrt(n) * tol / step):
        raise FlatGaugeError("flat gauge at a probe point; reduce step")
    H /= nrm
    glo = np.maximum(g[:, 0] - tol, 1.0)
    depth = (1.0 - 1.0 / glo) * np.einsum("bi,bi->b", H, D)
    return H, depth, body.center + D / np.where(up < math.inf, up, g[:, 0] + tol)[:, None]


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
    inside the inner ball, or a separator's or a verdict's witness), and
    value = c . witness lies in interval. iterations counts the run's cuts,
    free cuts included. stop_reason is a class constant, "gap", as a
    support run has no early exit; the benchmark's layer trace reads it
    with iterations.
    """

    witness: np.ndarray
    value: float
    interval: Interval
    iterations: int
    stop_reason = "gap"


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
    v = u . z - beta; an empty pool is violated nowhere, v = -inf. The
    centers are scanned _BLOCK at a time, so the violation matrix stays
    within (_BLOCK, _POOL_CAP)."""
    j = np.zeros(len(Z), dtype=int)
    v = np.full(len(Z), -math.inf)
    if len(pool):
        for lo in range(0, len(Z), _BLOCK):
            V = Z[lo:lo + _BLOCK] @ pool[:, :-1].T
            V -= pool[:, -1]
            jb = V.argmax(axis=1)
            j[lo:lo + _BLOCK] = jb
            v[lo:lo + _BLOCK] = V[np.arange(len(V)), jb]
    return j, v


def _raise_incumbent(best: np.ndarray, best_wit: np.ndarray, k: np.ndarray,
                     C: np.ndarray, W: np.ndarray) -> None:
    """Raise, in place, the incumbents of rows k to the witnesses W, points
    of the body, where c . W beats them; C holds those rows' objectives."""
    wv = np.einsum("bi,bi->b", C, W)
    up = wv > best[k]
    best[k[up]], best_wit[k[up]] = wv[up], W[up]


class _Hull:
    """The hull of a growing point set together with the origin, in R^2 or
    R^3, by beneath-beyond insertion (Clarkson and Shor 1989). The dual
    ball's net keeps two (normdual.DualBallOracle), and a hull run of the
    engine keeps the polar of its cut polytope in one (module header, hull
    centres).

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
        self.tol = max(self.tol, _HULL_TOL * np.linalg.norm(P, axis=1).max(initial=0.0))
        todo = range(first, len(self.points))
        if self.inside is None:
            simplex = self._simplex()
            if simplex is None:
                return
            self.inside = self.points[simplex].mean(axis=0)
            self.facets = np.sort(list(itertools.combinations(simplex, len(simplex) - 1)))
            self.normals, self.offsets = self._planes(self.facets)
            todo = [i for i in range(1, len(self.points)) if i not in simplex]
        m, n = self.points.shape
        # a ridge is a facet less one vertex, its sorted indices coded as the
        # digits of one base-m number
        ridge = np.array(list(itertools.combinations(range(n), n - 1)))
        place = m ** np.arange(n - 2, -1, -1)
        for i in todo:
            seen = self.normals @ self.points[i] - self.offsets > self.tol
            if not np.any(seen):
                continue
            F = self.facets.compress(seen, axis=0)
            code, count = np.unique(F[:, ridge] @ place, return_counts=True)
            ridges = code[count == 1, None] // place % m
            new = np.sort(np.column_stack([ridges, np.full(len(ridges), i)]), axis=1)
            N, d = self._planes(new)
            kept = ~seen
            self.facets = np.vstack([self.facets.compress(kept, axis=0), new])
            self.normals = np.vstack([self.normals.compress(kept, axis=0), N])
            self.offsets = np.concatenate([self.offsets[kept], d])

    def planes(self) -> tuple[np.ndarray, np.ndarray]:
        """The facets whose plane keeps the origin strictly on its inner
        side, as rows of point indices, and per facet its plane H, with
        H . P_i = 1 for i in the facet and H . P_j <= 1 up to tol for every
        point j."""
        keep = self.offsets > self.tol
        return (self.facets.compress(keep, axis=0) - 1,
                self.normals.compress(keep, axis=0) / self.offsets[keep][:, None])


def _gauge_bound(G: np.ndarray, g: np.ndarray, L: float, hull: _Hull | None,
                 pts: np.ndarray, nrm: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Per row c, nrm holding |c|, an upper bound on its gauge from the
    generators G, with gauge bounds gauge(G_i) <= g_i, and the residual
    constant L, gauge(e) <= L |e| for every e; and, where hull has facets,
    per row the index of the facet that gave it, together with the planes
    H of the hull's facets that index reads (else None and None).

    c is written c = sum lam_i G_i + e over the row's n generators, lam
    solving the n x n system and clipped to lam >= 0, and e the residual. A
    gauge is sublinear, so gauge(c) <= sum lam_i g_i + L |e|; where that is
    at most 1, c lies in the body and IN_THICKENED is legal at every slack.
    The residual makes the bound hold for any lam and any n-subset, so
    neither the pick nor the solve needs to be right, only the bound
    computed with care: each computed term errs by a few n machine epsilons
    of |c| + sum lam_i |G_i|, relative to the constants that multiply it, so
    |e| is padded by rho times that and the whole bound raised by the
    factor 1 + rho.

    The engine's hull runs read the value of their cut polytope from it,
    with G its polar points, g = 1 and L = sqrt(n) in the units of its box
    (module header, hull centres).

    hull is the hull of the scaled generators G_i / g_i (_Hull) in R^2 and
    R^3, and None elsewhere (the dual ball's 2 n^2 net, and R^1). With a
    hull, a row's n generators are the facet its ray meets first, the facet
    of largest H . c (_Hull.planes), where its lam is nonnegative; the
    planes and the inverses of the facet matrices G_F^T are read from the
    hull on every call, one inverse per facet, or per row where there are
    fewer rows than facets (each inverse is the same either way). A hull
    with no facet gives no row a bound (inf). Without one, a
    row's n generators are those of largest c . G_i, and rows whose n are
    linearly dependent, or nearly so relative to the generators' size (the
    2 n^2 net has such n-tuples), get no bound.
    """
    n = pts.shape[1]
    rho = 16 * n * np.finfo(float).eps
    length = np.linalg.norm(G, axis=1)
    tiny = 1e-9 * length.max() ** n
    bound = np.full(len(pts), np.inf)
    met = planes = None
    if hull is not None:
        facets, planes = hull.planes()
        if not len(facets):
            return bound, None, None
        # one inverse per facet, or per row where there are fewer rows
        inverse = (np.linalg.inv(G[facets].transpose(0, 2, 1))
                   if len(pts) >= len(facets) else None)
        met = np.empty(len(pts), dtype=int)
    for lo in range(0, len(pts), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        C = pts[rows]
        if hull is None:
            pick = np.argpartition(C @ G.T, -n, axis=1)[:, -n:]
            A = G[pick]  # rows G_i of each row's system
            ok = np.abs(np.linalg.det(A)) > tiny
            lam = np.zeros((len(C), n))
            lam[ok] = np.linalg.solve(A[ok].transpose(0, 2, 1), C[ok][:, :, None])[:, :, 0]
        else:
            f = np.argmax(C @ planes.T, axis=1)  # the facet the ray meets first
            met[rows] = f
            pick = facets[f]
            A = G[pick]
            ok = True
            lam = np.einsum("bij,bj->bi", np.linalg.inv(A.transpose(0, 2, 1))
                            if inverse is None else inverse[f], C)
        lam = np.maximum(lam, 0.0)
        res = np.linalg.norm(C - np.einsum("bi,bij->bj", lam, A), axis=1)
        scale = nrm[rows] + np.einsum("bi,bi->b", lam, length[pick])
        value = np.einsum("bi,bi->b", lam, g[pick]) + L * (res + rho * scale)
        bound[rows] = np.where(ok, value * (1.0 + rho), np.inf)
    return bound, met, planes


def _add_polar(hull: _Hull, rows: np.ndarray, body: CenteredBody) -> None:
    """Add to hull, the polar of a cut polytope in the units
    y' = (y - a)/outer, the points outer u / (beta - u . a) of the
    halfspaces u . y <= beta held as rows (u, beta). A halfspace that does
    not keep a strictly inside has no such point and is left out, which
    only keeps the polytope larger (module header, hull centres)."""
    room = (rows[:, -1] - rows[:, :-1] @ body.center) / body.outer_radius
    keep = room > 0.0
    if keep.any():
        hull.add(rows[keep, :-1] / room[keep, None])


def _takes_hull(oracle: WeakMembershipOracle, body: CenteredBody) -> bool:
    """Whether a run of one row over the body takes hull centres: in R^2
    and R^3, where the oracle has no separator of its own (module header,
    hull centres)."""
    return body.n in _HULL_DIMS and oracle.separator is None


def _seed_hull(body: CenteredBody, rows: np.ndarray) -> _Hull:
    """The polar hull of a hull run's start polytope and of the halfspaces
    rows, held as rows (u, beta), that hold its K_dq (_add_polar)."""
    hull = copy.copy(_start_hull(body.n))
    _add_polar(hull, rows, body)
    return hull


@functools.cache
def _start_hull(n: int) -> _Hull:
    """The polar hull of a run's start polytope, in the units of _add_polar:
    the tangent halfspaces of the unit ball at the 2n axis directions +-e_i,
    which make the box, and at the 2^n diagonal ones (+-1, ..., +-1)/sqrt(n).
    Every hull run starts from a shallow copy, which add never changes in
    place."""
    S = np.array(list(itertools.product((1.0, -1.0), repeat=n))) / math.sqrt(n)
    hull = _Hull(n)
    hull.add(np.vstack([np.eye(n), -np.eye(n), S]))
    return hull


class CutPool:
    """Separator halfspaces u . y <= beta, held as rows (u, beta), the newest
    last, at most _POOL_CAP of them (module header, pooled cuts). A caller's
    pool holds halfspaces that hold one body K itself, shared by the engine
    runs over K that its owner hands it to; each run's ring is one too, of
    halfspaces that hold that run's K_dq."""

    def __init__(self, n: int):
        self.rows = np.empty((0, n + 1))

    def add(self, rows: np.ndarray) -> None:
        """Append the halfspaces rows, keeping the newest _POOL_CAP."""
        self.rows = np.vstack([self.rows, rows])[-_POOL_CAP:]


def _checked(body: CenteredBody, C) -> tuple[np.ndarray, np.ndarray]:
    """The stack C of an entry's run and its row norms; ValueError unless
    the body is bounded and C a finite (m, n) stack of nonzero rows."""
    _bounded(body)
    C = as_stack(C, body.n)
    nc = np.linalg.norm(C, axis=1)
    if np.any(nc == 0.0):
        raise ValueError("objective must be nonzero")
    return C, nc


def _cut_loop(oracle: WeakMembershipOracle, body: CenteredBody, C, eps: float,
              dq: float, stop_above: float = math.inf,
              stop_ub_below: float = -math.inf, pool: CutPool | None = None,
              hull: _Hull | None = None):
    """Maximize c . x over the body for every row c of C, all rows in lockstep.

    Each row runs its own ellipsoid localizer with deep cuts (module
    header): an asserted-feasible center adds the objective cut at the
    incumbent (keep values at least best), an asserted-infeasible center
    adds the separator cut at the depth its separator returns, and the
    separator's witness, a point of the body, raises the incumbent where
    it beats it (module header, separator witnesses), as does the
    witness an oracle's hook returns with an IN verdict. Each row's
    ellipsoid starts as the body's stated ellipsoid, or as B(a, outer) where
    it states none (module header, start ellipsoid). The incumbent starts
    at the body center a, which the centering data guarantees feasible, at
    no query. A row leaves the loop once its certified gap falls to eps/2,
    its incumbent reaches stop_above, or its certified upper bound falls to
    stop_ub_below; the last two are the exits of validity queries
    (wval_batch), and by default neither fires. The run's ring is a CutPool
    of separator halfspaces, newest last: it starts as the caller's pool,
    takes each round's new separator halfspaces, and keeps the newest
    _POOL_CAP. A center that violates one of them, made by any of the run's
    rows or read from the caller's pool, is cut along the most violated one
    at no call (module header, pooled cuts). Of the rest, a center outside
    the outer ball is cut along its direction from the body center, and one
    inside the inner ball is an incumbent, neither asked (module header,
    sandwich centers). A center left whose objective value is at most its
    row's incumbent takes the objective cut at the incumbent, unasked
    (module header, objective cuts below the incumbent). The other centers
    of all live rows go to one query_batch per cut at slack dq, and those
    answered infeasible to one approx_separator call at the same dq, which
    uses the oracle's own separator where it has one (value separators)
    and differences of the gauge elsewhere. The call carries each row's
    objective and exit, the least incumbent that ends the row,
    min(stop_above, ub - eps/2) for its certified bound ub; a row whose
    gauge witness reaches its exit during the anchor search is settled
    there and pays for no probe. It takes the objective cut at its raised
    incumbent, at no call, pools nothing, and leaves at the next check
    (module header, witness-first separators).
    Every cut's direction and depth is set once per round, after the
    separator, and the halfspace of each far or separator cut is formed
    from them once, for the ring and the hull.
    A run of one row in R^2 or R^3 whose oracle has no separator of its own
    takes hull centres instead (module header): each centre is the vertex
    of max c . x over the run's cut polytope, whose value is the row's
    certified bound, read from one _Hull of its polar, and a far vertex, or
    one answered OUT, adds its halfspace to the polytope where the
    ellipsoid would cut. A vertex more than _TANGENT_SHARE of the outer
    radius beyond the outer ball takes its tangent; a nearer one is asked.
    A vertex that comes back sends the row to the ellipsoid, from its
    start. hull, a _Hull that the earlier rows of a validity batch left
    (wval_batch), is the polytope such a run of one row continues on, in
    place of a fresh one seeded with its ring; its halfspaces hold the
    run's K_dq, and the run's cuts join it in place. A run of many rows
    takes the ellipsoid, and so does every other run, bit for bit as
    before. The caller picks dq (module header, membership slack). pool,
    a CutPool of halfspaces that hold the body, seeds the run's ring, and
    on return takes the run's own halfspaces, the newest of the ring,
    moved out to hold the body (module header, pooled cuts); without one
    the run pools only its own cuts.

    The entries have checked the body, C, eps and dq (support_batch,
    wval_batch). Returns per-row arrays (value, witness, gap, iterations);
    iterations counts every cut, free or paid, and an empty C returns empty
    arrays at no call. Raises IterationCapError, carrying the incumbent of
    the first undecided row, if any row is undecided after _MAX_CUTS cuts.
    """
    nc = np.linalg.norm(C, axis=1)
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
    # the run's ring of separator halfspaces, seeded with the caller's pool;
    # own counts the newest that the run made itself
    ring = CutPool(n)
    if pool is not None:
        ring.rows = pool.rows
    own = 0
    # one objective in R^2 or R^3, over an oracle with no separator of its
    # own, takes hull centres: the polar hull of the start polytope and of
    # the ring, or the one an earlier row of the run left, grows with each
    # round's cut (module header, hull centres)
    if hull is None and m == 1 and _takes_hull(oracle, body):
        hull = _seed_hull(body, ring.rows)
    if hull is not None:
        ub_run = best + nc * body.outer_radius  # the bound of B(a, outer)
        vertices = np.empty((0, n))  # the vertices asked or cut so far

    for it in range(_MAX_CUTS):
        if hull is not None:
            # the vertex of max c . y and its certified value; a vertex that
            # comes back sends the row to the ellipsoid, from its start
            bound, met, planes = _gauge_bound(hull.points[1:], np.ones(len(hull.points) - 1),
                                              math.sqrt(n), hull, C, nc)
            H = planes[met]
            if (vertices == H).all(axis=1).any():
                hull = None
                Z = np.tile(start, (len(C), 1))
            else:
                vertices = np.vstack([vertices, H])
                Z = body.center + body.outer_radius * H
                ub_run = np.minimum(ub_run, C @ body.center + body.outer_radius * bound)
        vals = np.einsum("bi,bi->b", C, Z)
        if hull is None:
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
            if pool is not None:
                # the run's own halfspaces, moved out from K_dq to K
                new = ring.rows[len(ring.rows) - own:].copy()
                ua = new[:, :n] @ body.center
                new[:, n] = ua + (new[:, n] - ua) / (1.0 - dq / body.inner_radius)
                pool.add(new)
            return value, witness, gap_out, iterations

        # a pooled halfspace that the center violates is a free cut, and so
        # is the sandwich: a center outside B(a, outer) is out, one inside
        # B(a, inner) is in (module header, sandwich centers)
        # (the hull holds every halfspace of the ring already)
        j, v = _most_violated(Z, ring.rows if hull is None else ring.rows[:0])
        free = v > 0.0
        D = Z - body.center
        r = np.linalg.norm(D, axis=1)
        far = ~free & (r > body.outer_radius * (1.0 if hull is None
                                                else 1.0 + _TANGENT_SHARE))
        inside = ~free & (r < body.inner_radius)
        # a center with c . z <= best can raise nothing: its objective cut
        # is free (module header, objective cuts below the incumbent)
        ask = ~(free | far | inside) & (vals > best)
        if ask.any():
            inside[ask] = oracle.query_batch(Z[ask], dq)
        if inside.any():  # a center in K_dq is an incumbent as it stands
            ki = np.flatnonzero(inside)
            _raise_incumbent(best, best_wit, ki, C[ki], Z[ki])
        if oracle.witnesses is not None and (ask & inside).any():
            # a verdict's own witness (module header, separator witnesses)
            ki = np.flatnonzero(ask & inside)
            _raise_incumbent(best, best_wit, ki, C[ki], oracle.witnesses(Z[ki], dq))
        cut = np.flatnonzero(ask & ~inside)
        if cut.size:
            # every separator pays for a point of the body, and one that
            # reaches the row's exit settles it before any probe (module
            # header, separator witnesses and witness-first separators)
            U, dep, W = approx_separator(oracle, body, Z[cut], dq, C[cut],
                                         np.minimum(stop_above, ub_run[cut] - eps / 2.0))
            _raise_incumbent(best, best_wit, cut, C[cut], W)
            bought = ~np.isnan(dep)  # a settled row keeps the objective cut
            cut, U, dep = cut[bought], U[bought], dep[bought]
        # the objective cut at the incumbent, unless a rule above cut the
        # center; j indexes the ring as scanned, so the round's new
        # halfspaces join it only after
        G, A = -C, best - vals
        G[free], A[free] = ring.rows[j[free], :n], v[free]
        G[far], A[far] = D[far] / r[far, None], r[far] - body.outer_radius
        if cut.size:
            G[cut], A[cut] = U, dep
        # the halfspace u . y <= u . z - max(alpha, 0) of each far and
        # separator cut, formed once: the ring takes the separator's, and the
        # hull both, as a vertex answered IN, or left unasked, closed its gap
        k = far.copy()
        k[cut] = True
        if k.any():
            made = np.column_stack([G[k], np.einsum("bi,bi->b", G[k], Z[k])
                                    - np.maximum(A[k], 0.0)])
            ring.add(made[~far[k]])
            own = min(own + cut.size, _POOL_CAP)
            if hull is not None:
                _add_polar(hull, made, body)
        if hull is None:
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
                      Interval(float(lo[0]), float(hi[0])), int(cuts[0]))


def support_batch(oracle: WeakMembershipOracle, body: CenteredBody, C, err: float,
                  pool: CutPool | None = None, max_dq: float = math.inf
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
    halfspaces included. Raises ValueError, before any oracle call, on an
    unbounded body, an err that is not positive and finite, or a C that is
    not a finite (m, n) stack of nonzero rows; an empty C returns empty
    arrays at no call.

    max_dq caps dq; a smaller centre slack only narrows the interval.
    pool, a CutPool over the body, seeds the run's ring and takes its
    separator halfspaces, moved out to hold the body (module header, pooled
    cuts). A C of one row in R^2 or R^3, over an oracle with no separator
    of its own, runs on hull centres, the vertices of its cut polytope, and
    its interval reads the polytope's certified bound (module header, hull
    centres); its proof is the same. A C of more rows takes the ellipsoid
    in lockstep, as the rows' own hulls cost the net's support runs more
    calls.
    """
    err = positive_finite(err, "err")
    C, nc = _checked(body, C)
    inner, outer = body.inner_radius, body.outer_radius
    x = float(np.max(nc, initial=0.0)) * (1.0 + outer / inner)
    e = max(err / (0.5 + x / 8.0), err)
    dq = min(e / 8.0, inner / 4.0, max_dq)
    if x > 0.0:  # else C is empty, which costs no call
        dq = min(dq, err / (2.0 * x))
    value, witness, gap, cuts = _cut_loop(oracle, body, C, e, dq, pool=pool)
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
               eps: float, pool: CutPool | None = None) -> np.ndarray:
    """Weak validity of c . x <= gamma over the body for every row c of C.

    Returns a bool array, True where UPPER_BOUND_HOLDS, from one run of the
    engine at slack eps/2 that exits early at the two thresholds
    gamma -/+ eps/2; ties at gamma - eps/2 prefer LARGE_VALUE_EXISTS. Its
    centres are queried at dq = min(eps/16, eps inner/(2 outer), inner/4),
    so that K_dq loses at most eps |c|/2 of support whatever the sandwich
    (module header, validity slack). Raises ValueError before any oracle
    call where support_batch does, eps in place of err, or on a gamma that
    is not finite; an empty C costs no call. pool, a CutPool over the body,
    seeds the run's ring and takes its separator halfspaces, moved out to
    hold the body (module header, pooled cuts).
    In R^2 and R^3, over an oracle with no separator of its own, the rows
    run in turn, each on hull centres, and all on one cut polytope, whose
    polar hull is built once per run from the start polytope and the pool;
    each row continues from the hull the row before it left, its exits
    read the polytope's certified bound, and it hands its own halfspaces,
    moved out, to the pool (module header, hull centres). Elsewhere the
    rows run in lockstep on the ellipsoid.
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    eps = positive_finite(eps, "eps")
    C = _checked(body, C)[0]
    dq = validity_centre_slack(body, eps)
    exits = dict(stop_above=gamma - eps / 2.0, stop_ub_below=gamma + eps / 2.0, pool=pool)
    if _takes_hull(oracle, body):
        # the rows in turn, each a hull run on the one polar hull that the
        # rows before it left (module header, hull centres)
        hull = _seed_hull(body, (pool or CutPool(body.n)).rows)
        value = np.array([_cut_loop(oracle, body, c[None], eps / 2.0, dq, hull=hull,
                                    **exits)[0][0] for c in C])
    else:
        value = _cut_loop(oracle, body, C, eps / 2.0, dq, **exits)[0]
    return value < gamma - eps / 2.0


def validity_centre_slack(body: CenteredBody, eps: float) -> float:
    """The centre slack dq = min(eps/16, eps inner/(2 outer), inner/4) of a
    wval_batch run at slack eps (module header, validity slack)."""
    inner = body.inner_radius
    return min(eps / 16.0, eps * inner / (2.0 * body.outer_radius), inner / 4.0)
