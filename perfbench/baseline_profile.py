#!/usr/bin/env python3
"""Per-evaluation layer counts of dual_norm_eval on the l3 ball in R^3.

    python3 perfbench/baseline_profile.py

Runs the dual-norm acceptance battery's first 20 points for p = 3, n = 3 at
delta = 0.02 under the benchmark tracer and prints, per evaluation, the
dual-ball queries, ellipsoid cuts, separator calls and primal oracle calls,
plus untraced seconds per evaluation. These are the figures of the profile
that motivates the batching work on the dual-norm path.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from convexdual import normdual  # noqa: E402
from convexdual.core import rng_stream  # noqa: E402
from convexdual.oracles import ReferenceNorm  # noqa: E402
from layertrace import Tracer  # noqa: E402

POINTS = 20


def battery_points(count: int) -> np.ndarray:
    """The first points of the acceptance battery's 100 for the l3 norm on R^3."""
    rng = rng_stream(101, 30 + 3)
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return (dirs * rng.uniform(0.2, 5.0, size=100)[:, None])[:count]


def main() -> int:
    norm = ReferenceNorm.lp(3.0, 3)
    pts = battery_points(POINTS)

    calls = 0
    t0 = time.perf_counter()
    for y in pts:
        oracle = norm.oracle()
        normdual.dual_norm_eval(oracle, norm.descriptor, y, 0.02)
        calls += oracle.calls.count
    seconds = time.perf_counter() - t0

    tr = Tracer()
    tr.install()
    try:
        for y in pts:
            normdual.dual_norm_eval(tr.member_oracle(norm.oracle()), norm.descriptor, y, 0.02)
    finally:
        tr.uninstall()
    m = tr.layer_metrics()
    if m["oracles.member.points"] != calls:
        sys.exit(f"traced primal calls {m['oracles.member.points']} != CallCounter {calls}")
    k = len(pts)
    print(f"l3/R3, delta 0.02, {k} points, per evaluation:")
    print(f"  dual-ball queries {m['normdual.dual_ball.query.calls'] / k:.1f}")
    print(f"  ellipsoid cuts    {m['cutting.wopt_from_wmem.cuts'] / k:.1f}")
    print(f"  separator calls   {m['cutting.approx_separator.calls'] / k:.1f}")
    print(f"  primal calls      {calls / k:.1f}")
    print(f"  gauge rounds per separator "
          f"{m['cutting.gauge_batch.rounds'] / max(m['cutting.gauge_batch.calls'], 1):.1f}")
    print(f"  seconds (untraced) {seconds / k:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
