"""The benchmark's layer trace still sees every primal call.

perfbench/layertrace.py finds the layers it traces by attribute name, so a
renamed or deleted name breaks only a traced benchmark run. This runs each
workload's first op, and its last op that calls the primal, under the tracer
and checks the trace against the package's own call counters, the
cross-check a traced run makes. The last op reaches paths the first does
not, such as min_via_wopt on the conjugate workload.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


def _traced(wl, op) -> tuple[int, dict]:
    """The op's primal calls and layer metrics from one traced run."""
    tr = Tracer()
    tr.install(wl.traced_objects)
    try:
        out = op.run(tr)
    finally:
        tr.uninstall()
    m = tr.layer_metrics()
    assert out.ok
    assert m["oracles.member.points"] + m["oracles.value.evals"] == out.calls
    return out.calls, m


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_primal_calls_match_call_counters(name):
    """The contract from the start of the op list, up to the first op that
    reaches the primal (the sandwich settles every sample of l2/R2 mahler,
    which costs 0)."""
    wl = workloads.WORKLOADS[name](1)
    assert any(_traced(wl, op)[0] > 0 for op in wl.ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_last_op_matches_call_counters(name):
    """The same contract from the end of the op list, back to the last op
    that reaches the primal (a dual-cone op the screen settles costs 0)."""
    wl = workloads.WORKLOADS[name](1)
    assert any(_traced(wl, op)[0] > 0 for op in reversed(wl.ops))


def test_traced_dual_norm_op_counts_separator_calls():
    """The engine reaches its separator through the module attribute the
    tracer patches, so a traced dual-norm op counts separator calls."""
    wl = workloads.WORKLOADS["dualnorm"](1)
    op = wl.ops[0]
    assert op.label == "l1/R2"
    assert _traced(wl, op)[1]["cutting.approx_separator.calls"] > 0


def test_traced_separator_makes_one_gauge_call():
    """Each separator makes one traced gauge_batch call: its anchor search
    runs inside that call, not through the name the tracer patches, which
    would double the gauge spans and count them as rounds."""
    wl = workloads.WORKLOADS["dualnorm"](1)
    m = _traced(wl, wl.ops[0])[1]
    assert m["cutting.gauge_batch.calls"] == m["cutting.approx_separator.calls"] > 0


def test_traced_conjugate_op_counts_separator_calls():
    """The epigraph's own separator answers through the module attribute the
    tracer patches, so a traced conjugate op counts its separator calls, and
    none of them bisects a gauge."""
    wl = workloads.WORKLOADS["conjugate"](1)
    op = wl.ops[0]
    assert op.label.startswith("conj/")
    m = _traced(wl, op)[1]
    assert m["cutting.approx_separator.calls"] > 0
    assert m["cutting.gauge_batch.calls"] == 0
