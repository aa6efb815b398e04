#!/usr/bin/env python3
"""Benchmark of the four convexdual pipelines.

    python3 perfbench/run.py --workload dualnorm --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/``; nothing
is installed or built. Workloads: dualnorm, dualcone, conjugate, mahler (see
perfbench/README.md for why each was chosen).

A run repeats the workload's fixed op list in passes, one op after another
from a single caller, and takes each op's latency as the fastest of its
runs. Between ops, spread over the run, an untraced run also times the
set-up (interpreter start, imports, building bodies, oracles and dual-cone
frames) in fresh child processes and reports the fastest.
Every answer is checked against its closed form. With --trace 0 the last
line of standard output is the JSON result with the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, and the result holds the
per-layer metrics of the traced passes. The spans of the first traced pass
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 12
MAX_RUN_S = 150.0      # stop starting passes beyond this, whatever --seconds says


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["dualnorm", "dualcone", "conjugate", "mahler"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def _import_package():
    if not (SRC / "convexdual" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'convexdual'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


class SetupProbes:
    """Times set-up: from spawning a fresh interpreter until it has imported
    the package and built the workload.

    The probes are spread over the run, one between two ops whenever the
    next one is due, and set-up time is the fastest of them. A slowdown of
    a shared host then moves the figure only if it covers the whole run
    (on a shared 2-vCPU Xeon, some spells last several minutes and do).
    """

    def __init__(self, args, count: int, span_s: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.count = count
        self.every = span_s / count
        self.times = []
        self.due = time.perf_counter()

    def _probe(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe failed (exit {code})")
        self.times.append(elapsed)
        self.due += self.every

    def __call__(self) -> None:
        """Run a probe if one is due; called between ops."""
        if len(self.times) < self.count and time.perf_counter() >= self.due:
            self._probe()

    def seconds(self) -> float:
        while len(self.times) < self.count:
            self._probe()
        return min(self.times)


def _machine() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        import ctypes
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libs.glob("libscipy_openblas*"):
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            blas = fn()
    except (OSError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas,
            "cpu": platform.processor() or platform.machine()}


def _run_pass(ops, errors, tracer=None, between=None) -> dict:
    """Run every op once, in order; returns per-op latency, calls, errors.
    An op that raises one of errors (the pipelines' own) counts as failed.
    between(), if given, is called after each op, outside its timing."""
    lat, calls, errs, failed = [], [], [], []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run(tracer)
        except errors as exc:
            lat.append(time.perf_counter() - t0)
            calls.append(0)
            failed.append(op.weight)
            print(f"# failed op {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            lat.append(time.perf_counter() - t0)
            calls.append(out.calls)
            errs.append(out.err_ratio)
            failed.append(0 if out.ok else op.weight)
        if between is not None:
            between()
    return {"wall": time.perf_counter() - t_pass, "lat": lat, "calls": calls,
            "errs": errs, "failed": failed}


def _order_stat(values, weights, k: int) -> float:
    """k-th smallest (0-based) of the samples, each value repeated by weight."""
    order = sorted(range(len(values)), key=values.__getitem__)
    seen = 0
    for i in order:
        seen += weights[i]
        if seen > k:
            return values[i]
    raise IndexError(k)


def _best(passes) -> list:
    """Each op's latency: the fastest of its runs over the passes.

    Other tenants of a shared host only ever slow a run down (by up to 1.6x,
    in bursts shorter than a second, on a shared 2-vCPU Xeon), so the
    fastest of several interleaved runs is the steadiest estimate of what
    the op itself costs.
    """
    return [min(ts) for ts in zip(*(p["lat"] for p in passes))]


def _latency(best, ops) -> tuple:
    """Median and tail over the answers of one pass, each answer taking its
    op's latency (a Monte Carlo sample waits for its whole mahler_volume
    call). The tail is the highest percentile with at least 10 answers
    beyond it; returns (p50, tail, tail percentile, answers)."""
    w = [op.weight for op in ops]
    n = sum(w)
    p50 = 0.5 * (_order_stat(best, w, (n - 1) // 2) + _order_stat(best, w, n // 2))
    tail_k = max(n - 11, 0)
    return p50, _order_stat(best, w, tail_k), 100.0 * (tail_k + 1) / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _args(argv)
    workloads = _import_package()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    # set-up is an end-to-end metric, so only untraced runs time it
    setup = None if args.trace else SetupProbes(args, SETUP_PROBES, args.seconds)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ops = wl.ops
    weight = sum(op.weight for op in ops)
    # passes are interleaved repeats of the whole op list: as many as the
    # workload's nominal pass time fits in --seconds, cut short when the host
    # runs slow, and at least two for a fastest-of estimate
    passes, min_passes = max(2, round(args.seconds / wl.nominal_pass_s)), 2
    if args.trace:
        # each untraced pass is paired with a traced one
        passes, min_passes = max(1, passes // 2), 1
        from layertrace import Tracer

    plain, traced, layers = [], [], []
    t_start = time.perf_counter()
    while len(plain) < passes:
        elapsed = time.perf_counter() - t_start
        if plain:
            per = elapsed / len(plain)
            if (len(plain) >= min_passes and elapsed + per > args.seconds) \
                    or elapsed + per > MAX_RUN_S:
                break
        plain.append(_run_pass(ops, workloads.PIPELINE_ERRORS, between=setup))
        if args.trace:
            tr = Tracer()
            tr.install(wl.traced_objects)
            try:
                traced.append(_run_pass(ops, workloads.PIPELINE_ERRORS, tr))
            finally:
                tr.uninstall()
            layers.append(tr.layer_metrics())
            if len(traced) == 1:
                out = HERE / "out"
                out.mkdir(exist_ok=True)
                tr.save(out / f"spans-{args.workload}-seed{args.seed}.npz")

    runs = plain + traced
    pass_calls = [sum(p["calls"]) for p in runs]
    failed = sum(sum(p["failed"]) for p in runs)
    attempted = weight * len(runs)
    problems = []
    if len(set(pass_calls)) != 1:
        problems.append(f"primal call counts differ between passes: {pass_calls}")
    if args.trace:
        lm = layers[0]
        seen = lm["oracles.member.points"] + lm["oracles.value.evals"]
        if seen != pass_calls[0]:
            problems.append(f"traced primal calls {seen} != CallCounter total {pass_calls[0]}")
    for msg in problems:
        print(f"# check failed: {msg}", file=sys.stderr)

    best = _best(plain)
    wall = sum(best)
    p50, tail, tail_pct, samples = _latency(best, ops)
    err_max = max((e for p in runs for e in p["errs"]), default=0.0)
    timing = {
        "wall_s": _metric(wall, "s"),
        "ops_per_s": _metric(weight / wall, "1/s"),
        "op_ms_p50": _metric(1e3 * p50, "ms"),
        "op_ms_tail": _metric(1e3 * tail, "ms"),
        "op_ms_tail.pct": _metric(tail_pct, "%"),
        "op_ms_tail.samples": _metric(samples, "count"),
    }
    print(f"# machine {json.dumps(_machine())}")
    print(f"# {args.workload}: {len(ops)} ops ({weight} answers) per pass, "
          f"{len(plain)} untraced passes, err_ratio_max {err_max:.4g}, "
          f"failed {failed}/{attempted}")
    print("# pass seconds: untraced " + " ".join(f"{p['wall']:.3f}" for p in plain)
          + (" | traced " + " ".join(f"{p['wall']:.3f}" for p in traced) if traced else ""))
    print("# timing " + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in timing.items()))

    if not args.trace:
        setup_s = setup.seconds()
        print("# setup probe seconds " + " ".join(f"{t:.3f}" for t in setup.times))
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "oracle_calls_per_op": _metric(pass_calls[0] / weight, "count"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {}
        for name in layers[0]:
            unit = "s" if name.endswith("_s") else (
                "ratio" if name.endswith("_share") else "count")
            values = [lm[name] for lm in layers]
            metrics[name] = _metric(statistics.median(values) if unit == "s"
                                    else values[0], unit)
        traced_wall = sum(_best(traced))
        metrics["trace.overhead_frac"] = _metric(traced_wall / wall - 1.0, "ratio")
        metrics.update(timing)
        metrics["check.err_ratio_max"] = _metric(err_max, "ratio")
        metrics["check.failed_frac"] = _metric(failed / attempted, "ratio")

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
