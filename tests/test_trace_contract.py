"""The benchmark's layer trace still sees every primal call.

perfbench/layertrace.py finds the layers it traces by attribute name, so a
renamed or deleted name breaks only a traced benchmark run. This runs each
workload's first op under the tracer and checks the trace against the
package's own call counters, the cross-check a traced run makes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_primal_calls_match_call_counters(name):
    wl = workloads.WORKLOADS[name](1)
    tr = Tracer()
    tr.install(wl.traced_objects)
    try:
        out = wl.ops[0].run(tr)
    finally:
        tr.uninstall()
    m = tr.layer_metrics()
    assert out.ok
    assert m["oracles.member.points"] + m["oracles.value.evals"] == out.calls > 0
