"""Test-only oracles that answer adversarially wherever their contract
allows: weak membership oracles inside the ambiguity band, where either
verdict is legal, and value oracles at the edge of their additive error."""

import numpy as np

from convexdual.oracles import (
    FunctionApproxOracle,
    ReferenceCone,
    ReferenceNorm,
    WeakMembershipOracle,
)


def band_adversary(norm: ReferenceNorm, side: float) -> WeakMembershipOracle:
    """Unit-ball oracle answering IN iff nu(x) <= 1 + side * k_lo * delta.

    Legal for |side| < 1 by ball_scaling_bounds: (1 + k_lo*delta) B lies in
    the delta-thickening, and the delta-shrinking lies in (1 - k_lo*delta) B.
    side > 0 admits points outside the ball (generous), side < 0 refutes
    points inside it (stingy).
    """
    k_lo = norm.descriptor.k_lo
    return WeakMembershipOracle(
        lambda X, delta: norm.eval_batch(X) <= 1.0 + side * k_lo * delta,
        norm.ball(), label="adversary")


def lopsided_band_adversary(norm: ReferenceNorm, side: float) -> WeakMembershipOracle:
    """Unit-ball oracle answering IN iff
    nu(x) <= 1 + side * sign(x_1) * k_lo * delta.

    Legal for |side| < 1, as band_adversary is: each point's threshold lies
    strictly between 1 - k_lo*delta and 1 + k_lo*delta. Unlike the ball, it
    is not symmetric: for side > 0 it admits points outside the ball on
    x_1 > 0 (generous) and refutes points inside it on x_1 < 0 (stingy), so
    a point and its mirror can get opposite verdicts.
    """
    k_lo = norm.descriptor.k_lo
    return WeakMembershipOracle(
        lambda X, delta: norm.eval_batch(X) <= 1.0 + side * np.sign(X[:, 0]) * k_lo * delta,
        norm.ball(), label="lopsided-adversary")


def cone_band_adversary(cone: ReferenceCone, side: float) -> WeakMembershipOracle:
    """Cone oracle answering IN iff boundary_margin(x) >= -side * delta.

    Legal for |side| < 1, because boundary_margin is the signed Euclidean
    distance to the boundary (for psd, through the svec isometry): a point
    of the delta-shrinking has margin >= delta, and a point outside the
    delta-thickening has margin < -delta. side > 0 admits points outside
    the cone (generous), side < 0 refutes points inside it (stingy).
    """
    return WeakMembershipOracle(
        lambda X, delta: np.array([cone.boundary_margin(x) >= -side * delta
                                   for x in X], dtype=bool),
        cone.oracle().body, label="cone-adversary")


def norm_value_adversary(norm: ReferenceNorm, side: float) -> FunctionApproxOracle:
    """Norm evaluator returning nu(x) + side * eps.

    Legal for |side| <= 1. side > 0 overstates every norm (points look
    farther out), side < 0 understates it.
    """
    return FunctionApproxOracle(lambda x, eps: norm.eval(x) + side * eps,
                                norm.n, label="norm-adversary")


def value_adversary(fn, n: int, side: float) -> FunctionApproxOracle:
    """Function evaluator returning f(x) + side * eps.

    Legal for |side| <= 1. side > 0 raises the graph (the epigraph shrinks
    and minima look higher), side < 0 lowers it.
    """
    return FunctionApproxOracle(lambda x, eps: float(fn(x)) + side * eps, n,
                                label="value-adversary")


def alternating_value_adversary(fn, n: int, side: float) -> FunctionApproxOracle:
    """Function evaluator returning f(x) + side * eps * (-1)^k at its k-th call.

    Legal for |side| <= 1. A constant error cancels in a difference of two
    values; this one flips sign from one call to the next, so a forward
    difference of consecutive values errs by up to 2 |side| eps.
    """
    calls = []

    def value(x, eps):
        calls.append(None)
        return float(fn(x)) + side * eps * (-1.0) ** len(calls)

    return FunctionApproxOracle(value, n, label="alternating-adversary")
