"""A legality map of the weak semantics over slack and body (ROADMAP item
25): each cell asks one entry for verdicts at one slack on one body and
checks every answer against the closed form.

The validity column: the dual ball's validity run
(normdual.DualBallOracle._lockstep), on a fresh oracle, decides rows at
nu*(x) = 1 -/+ 1.5 delta/k_lo, for the l1, l3 and l-infinity balls in R^2
and R^3 at delta from 1e-2 down to 1e-6. The dual ball holds B(0, k_lo),
so S(B, delta) lies in (1 + delta/k_lo) B and S(B, -delta) holds
(1 - delta/k_lo) B: a row outside answered IN, or one inside answered
OUT, is illegal.

The support column: one support run (cutting.support_batch) over the
primal ball, on a fresh oracle, certifies an interval [lo, hi] of width
err / k_hi for each of 200 unit rows c, for the same six balls at err
from 1e-2 down to 1e-5. Each interval must hold the closed-form support
value h_B(c) = nu*(c).

Both columns also run under three adversaries that answer inside the
ambiguity band wherever the weak contract allows (tests/adversaries.py):
band_adversary at side +0.99 (generous) and -0.99 (stingy), and
lopsided_band_adversary at 0.99, generous on x_1 > 0 and stingy on
x_1 < 0. Those cells take the widths 1e-2 and 1e-4.

The entry column: the dual ball's full entry (DualBallOracle.query_batch:
its sandwich, its net, then the validity run) decides the rows of a
validity cell at delta 1e-2 and 1e-4, once the oracle's primal side has
built the net, and grown it in R^2 and R^3, as mahler_volume's primal run
does, for the same six balls under the exact oracle and the three
adversaries below.

A cell that fails today is a strict xfail naming the item that will
repair it, so that a repair must take its mark off.
"""

import math

import numpy as np
import pytest

from adversaries import band_adversary, lopsided_band_adversary
from convexdual import cutting
from convexdual.core import rng_stream
from convexdual.normdual import DualBallOracle
from convexdual.oracles import ReferenceNorm

BODIES = [(p, n) for p in (1.0, 3.0, math.inf) for n in (2, 3)]
DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
# cells with illegal IN verdicts on outside rows, of 100: l-infinity in R^2
# 1 / 91 / 100 and in R^3 51 / 87 / 100 at delta 1e-4 / 1e-5 / 1e-6
UNCHARGED_SIGMA = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: separator cuts carry an uncharged sigma")
ILLEGAL = {(math.inf, n, delta) for n in (2, 3) for delta in (1e-4, 1e-5, 1e-6)}
VALIDITY_CELLS = [
    pytest.param(p, n, delta, marks=UNCHARGED_SIGMA if (p, n, delta) in ILLEGAL else (),
                 id=f"l{p:g}-R{n}-{delta:g}")
    for p, n in BODIES for delta in DELTAS]


@pytest.mark.parametrize("p,n,delta", VALIDITY_CELLS)
def test_dual_ball_validity_verdicts_are_legal(p, n, delta):
    """Every verdict of one validity run over 100 rows just inside and 100
    just outside the dual sphere is the closed-form one."""
    norm = ReferenceNorm.lp(p, n)
    _assert_validity_legal(norm, norm.oracle(), delta)


def _validity_rows(norm, delta):
    """The rows of a validity cell: 100 just inside and 100 just outside
    the dual sphere, at nu*(x) = 1 -/+ 1.5 delta/k_lo."""
    U = rng_stream(12, norm.n).normal(size=(100, norm.n))
    U /= norm.dual().eval_batch(U)[:, None]
    band = 1.5 * delta / norm.descriptor.k_lo
    return np.vstack([(1.0 - band) * U, (1.0 + band) * U])


def _assert_validity_legal(norm, primal, delta):
    """One validity cell, primal being an oracle of norm's unit ball."""
    X = _validity_rows(norm, delta)
    got = DualBallOracle(primal, norm.descriptor)._lockstep(X, delta)
    np.testing.assert_array_equal(got, norm.dual().eval_batch(X) <= 1.0)


ERRS = [1e-2, 1e-3, 3e-4, 1e-4, 1e-5]
# cells whose intervals miss h_B, of 200 rows: l1 in R^3 19 / 105 at
# err 1e-4 / 1e-5, l-infinity in R^2 20 / 200 / 200 and in R^3
# 151 / 197 / 200 at err 3e-4 / 1e-4 / 1e-5
MISSED = ({(1.0, 3, err) for err in (1e-4, 1e-5)}
          | {(math.inf, n, err) for n in (2, 3) for err in (3e-4, 1e-4, 1e-5)})
SUPPORT_CELLS = [
    pytest.param(p, n, err, marks=UNCHARGED_SIGMA if (p, n, err) in MISSED else (),
                 id=f"l{p:g}-R{n}-{err:g}")
    for p, n in BODIES for err in ERRS]


@pytest.mark.parametrize("p,n,err", SUPPORT_CELLS)
def test_support_intervals_hold_the_support_value(p, n, err):
    """Every interval of one support run over 200 unit rows holds the
    closed-form support value."""
    norm = ReferenceNorm.lp(p, n)
    _assert_support_held(norm, norm.oracle(), err)


def _assert_support_held(norm, primal, err):
    """One support cell, primal being an oracle of norm's unit ball."""
    C = rng_stream(12, norm.n).normal(size=(200, norm.n))
    C /= np.linalg.norm(C, axis=1)[:, None]
    lo, hi, _, _, _ = cutting.support_batch(primal, norm.ball(), C,
                                            err / norm.descriptor.k_hi)
    h = norm.dual().eval_batch(C)
    assert np.all(lo <= h) and np.all(h <= hi)


ADVERSARIES = {
    "generous": lambda norm: band_adversary(norm, 0.99),
    "stingy": lambda norm: band_adversary(norm, -0.99),
    "lopsided": lambda norm: lopsided_band_adversary(norm, 0.99),
}
ADVERSARY_WIDTHS = [1e-2, 1e-4]
# validity cells with illegal verdicts, of 200: l-infinity in R^3 at 1e-4,
# 16 generous, 3 stingy and 28 lopsided
ADVERSARY_ILLEGAL = {(math.inf, 3, 1e-4, name) for name in ADVERSARIES}
# support cells whose intervals miss h_B, of 200 rows: l-infinity in R^2
# and R^3 at 1e-4 under every adversary (200 and 199), and l1 in R^2 at
# 1e-4 under the stingy band (16), where the exact oracle holds all 200
ADVERSARY_MISSED = ({(math.inf, n, 1e-4, name) for n in (2, 3) for name in ADVERSARIES}
                    | {(1.0, 2, 1e-4, "stingy")})


def _adversary_cells(failing):
    return [pytest.param(p, n, width, name,
                         marks=UNCHARGED_SIGMA if (p, n, width, name) in failing else (),
                         id=f"l{p:g}-R{n}-{width:g}-{name}")
            for p, n in BODIES for width in ADVERSARY_WIDTHS for name in ADVERSARIES]


@pytest.mark.parametrize("p,n,delta,adversary", _adversary_cells(ADVERSARY_ILLEGAL))
def test_dual_ball_validity_verdicts_are_legal_under_adversaries(p, n, delta, adversary):
    """The validity cell of test_dual_ball_validity_verdicts_are_legal, its
    primal oracle the adversary."""
    norm = ReferenceNorm.lp(p, n)
    _assert_validity_legal(norm, ADVERSARIES[adversary](norm), delta)


@pytest.mark.parametrize("p,n,err,adversary", _adversary_cells(ADVERSARY_MISSED))
def test_support_intervals_hold_the_support_value_under_adversaries(p, n, err, adversary):
    """The support cell of test_support_intervals_hold_the_support_value,
    its primal oracle the adversary."""
    norm = ReferenceNorm.lp(p, n)
    _assert_support_held(norm, ADVERSARIES[adversary](norm), err)


ORACLES = {"exact": lambda norm: norm.oracle(), **ADVERSARIES}


@pytest.mark.parametrize("p,n,delta,oracle", [
    pytest.param(p, n, delta, name, id=f"l{p:g}-R{n}-{delta:g}-{name}")
    for p, n in BODIES for delta in ADVERSARY_WIDTHS for name in ORACLES])
def test_dual_ball_entry_is_legal_after_the_primal_side_built_the_net(p, n, delta, oracle):
    """Once 5,000 box samples of the primal ball have built the net through
    _net_query(primal=True), at mahler_volume's slack, the dual ball's full
    entry gives the closed-form verdict on every row of the validity cell."""
    norm = ReferenceNorm.lp(p, n)
    desc = norm.descriptor
    dual = DualBallOracle(ORACLES[oracle](norm), desc)
    X = rng_stream(55, n).uniform(-1.0 / desc.k_lo, 1.0 / desc.k_lo, size=(5000, n))
    dual._net_query(X, 1e-6 / desc.k_lo, primal=True)
    assert len(dual._net)
    C = _validity_rows(norm, delta)
    np.testing.assert_array_equal(dual.query_batch(C, delta), norm.dual().eval_batch(C) <= 1.0)
