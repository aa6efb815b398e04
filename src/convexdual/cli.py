"""Command line front end.

Bodies, cones and functions are described by small JSON spec files; each
subcommand loads one, runs the matching pipeline, and prints a flat report
(grep-able "key value" lines, or JSON with --json). Exit codes: 0 success,
2 bad input or spec, 3 numerical failure inside a pipeline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .core import DEFAULT_CONFIG, ToleranceConfig
from .cutting import BracketError, FlatGaugeError, IterationCapError
from .conedual import descriptor_from_reference, dual_cone_wmem
from .fenchel import CertificateError, fenchel_eval, make_reference_function
from .mahler import mahler_volume
from .normdual import dual_norm_eval
from .oracles import ReferenceCone, ReferenceNorm

_NORM_KINDS = ("lp_norm", "weighted_l2", "polyhedral_norm", "box", "cross")
_CONE_KINDS = ("orthant", "soc", "psd")


class SpecError(ValueError):
    pass


def _require(spec: dict, key: str):
    if key not in spec:
        raise SpecError(f"spec is missing {key!r}")
    return spec[key]


def _integer(spec: dict, key: str) -> int:
    """The spec's key read as a JSON integer: a float or a bool is refused,
    not truncated."""
    value = _require(spec, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key!r} must be an integer, got {value!r}")
    return value


def load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("spec must be a JSON object with a 'kind' field")
    return spec


def norm_from_spec(spec: dict) -> ReferenceNorm:
    kind = spec["kind"]
    if kind == "lp_norm":
        p = _require(spec, "p")
        p = math.inf if p in ("inf", "Infinity") else float(p)
        return ReferenceNorm.lp(p, _integer(spec, "n"))
    if kind == "weighted_l2":
        return ReferenceNorm.weighted_l2(_require(spec, "weights"))
    if kind == "polyhedral_norm":
        return ReferenceNorm.polyhedral(_require(spec, "generators"))
    if kind == "box":
        return ReferenceNorm.box(_integer(spec, "n"))
    if kind == "cross":
        return ReferenceNorm.cross(_integer(spec, "n"))
    raise SpecError(f"not a norm spec: kind {kind!r} (expected one of {_NORM_KINDS})")


def cone_from_spec(spec: dict) -> ReferenceCone:
    kind = spec["kind"]
    if kind in ("orthant", "soc"):
        return ReferenceCone(kind, _integer(spec, "n"))
    if kind == "psd":
        return ReferenceCone("psd", _integer(spec, "d"))
    raise SpecError(f"not a cone spec: kind {kind!r} (expected one of {_CONE_KINDS})")


def parse_point(text: str, n: int | None = None) -> np.ndarray:
    try:
        if text.strip().startswith("["):
            vals = json.loads(text)
        else:
            vals = [float(t) for t in text.split(",") if t.strip()]
        point = np.asarray(vals, dtype=float)
    except (ValueError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot parse point {text!r}: {exc}") from exc
    if point.ndim != 1 or point.size == 0 or not np.all(np.isfinite(point)):
        raise SpecError(f"point must be a finite vector, got {text!r}")
    if n is not None and point.size != n:
        raise SpecError(f"point has dimension {point.size}, spec needs {n}")
    return point


def emit_report(fields: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(fields, indent=2, sort_keys=False))
    else:
        for k, v in fields.items():
            if isinstance(v, float):
                v = f"{v:.12g}"
            print(f"{k} {v}")


def cmd_wmem(args) -> dict:
    spec = load_spec(args.spec)
    if spec["kind"] in _CONE_KINDS:
        cone = cone_from_spec(spec)
        oracle = cone.oracle()
    else:
        oracle = norm_from_spec(spec).oracle()
    point = parse_point(args.point, oracle.body.n)
    verdict = oracle.query(point, args.delta)
    return {"verdict": verdict.value, "oracle_calls": oracle.calls.count}


def cmd_dual_norm(args) -> dict:
    norm = norm_from_spec(load_spec(args.spec))
    point = parse_point(args.point, norm.n)
    oracle = norm.oracle()
    res = dual_norm_eval(oracle, norm.descriptor, point, args.delta)
    out = {"value": res.value, "interval_lo": res.interval.lo,
           "interval_hi": res.interval.hi, "cuts": res.cuts,
           "oracle_calls": oracle.calls.count}
    try:
        out["closed_form_value"] = norm.dual().eval(point)
    except ValueError:
        pass
    return out


def cmd_dual_cone(args) -> dict:
    cone = cone_from_spec(load_spec(args.spec))
    point = parse_point(args.point, cone.n)
    oracle = cone.oracle()
    dual = dual_cone_wmem(oracle, descriptor_from_reference(cone))
    verdict = dual.query(point, args.delta)
    return {"verdict": verdict.value, "cone_calls": oracle.calls.count,
            "dual_calls": dual.calls.count}


def cmd_fenchel(args) -> dict:
    spec = load_spec(args.spec)
    if spec["kind"] != "function":
        raise SpecError("fenchel needs a spec of kind 'function'")
    ref = make_reference_function(str(_require(spec, "name")),
                                  _integer(spec, "n"))
    if ref.cert is None:
        raise SpecError(f"function {ref.name!r} carries no growth certificate")
    y = parse_point(args.point, ref.n)
    values = ref.approx_oracle()
    est = fenchel_eval(values, ref.cert, y, args.eps)
    out = {"value": est.value, "interval_lo": est.interval.lo,
           "interval_hi": est.interval.hi, "cuts": est.cuts,
           "localization_radius": est.radius, "value_calls": values.calls.count}
    if ref.conjugate is not None:
        out["closed_form_value"] = float(ref.conjugate(y))
    return out


def cmd_mahler(args) -> dict:
    norm = norm_from_spec(load_spec(args.spec))
    oracle = norm.oracle()
    est = mahler_volume(oracle, norm.descriptor, args.samples,
                        ToleranceConfig(rng_seed=args.seed))
    return {
        "value": est.value, "half_width": est.half_width,
        "primal_volume": est.primal.value, "primal_half_width": est.primal.half_width,
        "dual_volume": est.dual.value, "dual_half_width": est.dual.half_width,
        "samples": args.samples, "seed": args.seed,
        # primal calls of both runs; samples the sandwich or the net settles cost none
        "oracle_calls": oracle.calls.count,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexdual",
        description="Convex duality through weak membership oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point_help, slack_flag, slack_help, slack_default):
        p.add_argument("--spec", required=True, help="JSON body spec file")
        p.add_argument("--point", required=True, help=point_help)
        p.add_argument(slack_flag, type=float, default=slack_default,
                       dest=slack_flag.lstrip("-").replace("-", "_"),
                       help=slack_help)
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("wmem", help="weak membership verdict for a body or cone")
    common(p, "query point, comma separated or JSON list (use --point=-1,2 "
              "when the first coordinate is negative)", "--delta",
           "membership slack", 0.01)
    p.set_defaults(fn=cmd_wmem)

    p = sub.add_parser("dual-norm", help="evaluate the dual norm via the "
                                         "derived polar-ball oracle")
    common(p, "point to evaluate the dual norm at", "--delta",
           "additive evaluation slack", 0.02)
    p.set_defaults(fn=cmd_dual_norm)

    p = sub.add_parser("dual-cone", help="weak membership in the dual cone")
    common(p, "query point", "--delta", "membership slack", 0.02)
    p.set_defaults(fn=cmd_dual_cone)

    p = sub.add_parser("fenchel", help="evaluate a Fenchel conjugate")
    common(p, "dual vector y", "--eps", "additive evaluation slack", 0.05)
    p.set_defaults(fn=cmd_fenchel)

    p = sub.add_parser("mahler", help="Mahler volume product of a norm ball")
    p.add_argument("--spec", required=True, help="JSON norm spec file")
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo samples per body")
    p.add_argument("--seed", type=int, default=DEFAULT_CONFIG.rng_seed,
                   help="Monte Carlo sampling seed")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(fn=cmd_mahler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        fields = args.fn(args)
    except (SpecError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, FlatGaugeError, IterationCapError,
            CertificateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    report = {"command": args.command, "spec": args.spec}
    if hasattr(args, "point"):
        report["point"] = args.point
    for key in ("delta", "eps", "samples"):
        if hasattr(args, key):
            report[key] = getattr(args, key)
    report.update(fields)
    report["wall_time_s"] = round(wall, 4)
    emit_report(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
