import json
import math

import numpy as np
import pytest

from convexdual import cli
from convexdual.cli import SpecError, load_spec, main, parse_point
from convexdual.cutting import BracketError, FlatGaugeError, IterationCapError
from convexdual.fenchel import CertificateError


@pytest.fixture
def specs(tmp_path):
    """Write one spec file per kind used below; returns name -> path."""
    files = {
        "disc": {"kind": "lp_norm", "p": 2, "n": 2},
        "linf": {"kind": "lp_norm", "p": "inf", "n": 2},
        "box": {"kind": "box", "n": 2},
        "weighted": {"kind": "weighted_l2", "weights": [1.0, 2.0]},
        "orthant": {"kind": "orthant", "n": 3},
        "psd": {"kind": "psd", "d": 2},
        "half_square": {"kind": "function", "name": "half_square_norm", "n": 2},
        "no_cert": {"kind": "function", "name": "exp_pair", "n": 2},
        "segment": {"kind": "polyhedral_norm", "generators": [[2], [3]]},
    }
    out = {}
    for name, body in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body))
        out[name] = str(path)
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition(" ")
        out[key] = val
    return out


# -- parsing helpers --------------------------------------------------------

def test_parse_point_accepts_both_syntaxes():
    np.testing.assert_array_equal(parse_point("1, -2.5, 3"), [1.0, -2.5, 3.0])
    np.testing.assert_array_equal(parse_point("[0.5, 0.5]"), [0.5, 0.5])


def test_parse_point_rejects_garbage():
    with pytest.raises(SpecError):
        parse_point("one,two")
    with pytest.raises(SpecError):
        parse_point("[1, 2]", n=3)
    with pytest.raises(SpecError):
        parse_point("[[1], [2]]")
    with pytest.raises(SpecError):
        parse_point("[1, null]")


def test_load_spec_errors(tmp_path):
    with pytest.raises(SpecError):
        load_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        load_spec(str(bad))
    nolist = tmp_path / "list.json"
    nolist.write_text("[1, 2]")
    with pytest.raises(SpecError):
        load_spec(str(nolist))


# -- subcommands ------------------------------------------------------------

def test_wmem_on_norm_ball(capsys, specs):
    code, out, _ = _run(capsys, ["wmem", "--spec", specs["disc"],
                                 "--point", "0.3,0.4"])
    assert code == 0
    rep = _report(out)
    assert rep["verdict"] == "in-thickened"
    assert rep["command"] == "wmem"
    code, out, _ = _run(capsys, ["wmem", "--spec", specs["disc"],
                                 "--point", "2,2"])
    assert _report(out)["verdict"] == "not-in-shrunk"


def test_wmem_on_cone(capsys, specs):
    code, out, _ = _run(capsys, ["wmem", "--spec", specs["orthant"],
                                 "--point", "1,2,3"])
    assert code == 0
    assert _report(out)["verdict"] == "in-thickened"


def test_dual_norm_report(capsys, specs):
    code, out, _ = _run(capsys, ["dual-norm", "--spec", specs["linf"],
                                 "--point", "1,1", "--delta", "0.05"])
    assert code == 0
    rep = _report(out)
    # dual of l-inf is l1: exact value 2
    assert float(rep["closed_form_value"]) == pytest.approx(2.0)
    assert abs(float(rep["value"]) - 2.0) <= 5 * 0.05
    assert float(rep["interval_lo"]) <= float(rep["closed_form_value"]) \
        <= float(rep["interval_hi"])
    assert int(rep["cuts"]) > 0
    assert int(rep["oracle_calls"]) > 0


def test_dual_norm_json_round_trip(capsys, specs):
    code, out, _ = _run(capsys, ["dual-norm", "--spec", specs["weighted"],
                                 "--point", "[1.0, 0.0]", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "dual-norm"
    # dual weights are reciprocals: nu*(e1) = 1 / 1.0
    assert rep["closed_form_value"] == pytest.approx(1.0)
    assert abs(rep["value"] - 1.0) <= 5 * rep["delta"]


def test_dual_cone_report(capsys, specs):
    code, out, _ = _run(capsys, ["dual-cone", "--spec", specs["orthant"],
                                 "--point", "1,1,1"])
    assert code == 0
    rep = _report(out)
    assert rep["verdict"] == "in-thickened"
    # psd d = 2 queries live in packed dimension 3; this is the identity
    code, out, _ = _run(capsys, ["dual-cone", "--spec", specs["psd"],
                                 "--point", "[1, 0, 1]"])
    assert code == 0
    assert _report(out)["verdict"] == "in-thickened"


def test_fenchel_report(capsys, specs):
    code, out, _ = _run(capsys, ["fenchel", "--spec", specs["half_square"],
                                 "--point", "0.6,0.8", "--json"])
    assert code == 0
    rep = json.loads(out)
    # half the squared norm is self-conjugate: value 0.5 at |y| = 1
    assert rep["closed_form_value"] == pytest.approx(0.5)
    assert abs(rep["value"] - 0.5) <= rep["eps"]
    assert rep["interval_lo"] <= 0.5 <= rep["interval_hi"]
    assert rep["interval_hi"] - rep["interval_lo"] <= rep["eps"]
    assert rep["cuts"] > 0
    assert rep["value_calls"] > 0


def test_fenchel_requires_certificate(capsys, specs):
    code, _, err = _run(capsys, ["fenchel", "--spec", specs["no_cert"],
                                 "--point", "0,0"])
    assert code == 2
    assert "certificate" in err


def test_mahler_report(capsys, specs):
    code, out, _ = _run(capsys, ["mahler", "--spec", specs["disc"],
                                 "--samples", "20000", "--json"])
    assert code == 0
    rep = json.loads(out)
    lo = rep["value"] - rep["half_width"]
    hi = rep["value"] + rep["half_width"]
    assert lo < np.pi ** 2 < hi
    assert rep["samples"] == 20000
    assert rep["primal_volume"] > 0 and rep["dual_volume"] > 0
    # the disc's sandwich settles every sample, primal and polar: no call
    assert rep["oracle_calls"] == 0


def test_reports_are_deterministic_modulo_wall_time(capsys, specs):
    argv = ["mahler", "--spec", specs["box"], "--samples", "20000", "--json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b
    # and the seed flag actually changes the draw
    _, out3, _ = _run(capsys, argv + ["--seed", "5"])
    c = json.loads(out3)
    assert c["seed"] == 5
    assert c["value"] != a["value"]


def test_mahler_of_a_segment(capsys, specs):
    """A norm on R^1 whose sandwich is not tight runs to exit 0; every
    Mahler product in R^1 is 4."""
    code, out, _ = _run(capsys, ["mahler", "--spec", specs["segment"],
                                 "--samples", "20000", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["value"] - 4.0) <= 3.0 * rep["half_width"]


@pytest.mark.parametrize("command", ["wmem", "dual-norm", "dual-cone", "fenchel"])
def test_seed_is_a_mahler_option_only(specs, command):
    """Only mahler samples; the other subcommands reject --seed as argparse
    rejects any unknown flag, with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", specs["disc"], "--point", "1,0", "--seed", "5"])
    assert exc.value.code == 2


# -- exit codes -------------------------------------------------------------

def test_exit_2_on_missing_spec(capsys, tmp_path):
    code, _, err = _run(capsys, ["wmem", "--spec", str(tmp_path / "no.json"),
                                 "--point", "0,0"])
    assert code == 2
    assert "error:" in err


def test_exit_2_on_kind_mismatch(capsys, specs):
    # a cone spec handed to a norm pipeline
    code, _, err = _run(capsys, ["dual-norm", "--spec", specs["orthant"],
                                 "--point", "1,1,1"])
    assert code == 2
    assert "not a norm spec" in err


def test_exit_2_on_bad_point(capsys, specs):
    code, _, err = _run(capsys, ["wmem", "--spec", specs["disc"],
                                 "--point", "1,2,3"])
    assert code == 2
    assert "dimension" in err


DIMENSION_SPECS = [
    ("dual-norm", {"kind": "lp_norm", "p": 2}, "n", "1,0"),
    ("dual-cone", {"kind": "psd"}, "d", "1,0,1"),
    ("fenchel", {"kind": "function", "name": "half_square_norm"}, "n", "1,0"),
]


@pytest.mark.parametrize("bad", [2.5, 2.9, True], ids=["2.5", "2.9", "true"])
@pytest.mark.parametrize("command,spec,key,point", DIMENSION_SPECS,
                         ids=["norm", "cone", "function"])
def test_exit_2_on_a_dimension_that_is_not_an_integer(capsys, tmp_path, command, spec,
                                                       key, point, bad):
    """A float or a bool dimension is refused, not truncated to an integer."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, key: bad}))
    code, out, err = _run(capsys, [command, "--spec", str(path), "--point", point])
    assert code == 2
    assert out == ""
    assert f"{key!r} must be an integer" in err


@pytest.mark.parametrize("bad", [True, False, "2", "1.5", "infinity", None, [2], "NaN"],
                         ids=["true", "false", "str-2", "str-1.5", "infinity", "null", "list",
                              "str-nan"])
def test_exit_2_on_an_exponent_that_is_not_a_number(capsys, tmp_path, bad):
    """p is a JSON number, "inf" or "Infinity": true is not the l1 norm, and
    a numeric string is not read as its number."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "lp_norm", "p": bad, "n": 2}))
    code, out, err = _run(capsys, ["dual-norm", "--spec", str(path), "--point", "1,0"])
    assert code == 2
    assert out == ""
    assert "'p' must be a number" in err


@pytest.mark.parametrize("spec", [{"kind": "box", "n": 0}, {"kind": "cross", "n": 0},
                                  {"kind": "cross", "n": -1},
                                  {"kind": "polyhedral_norm", "generators": []},
                                  {"kind": "polyhedral_norm", "generators": [[]]},
                                  {"kind": "lp_norm", "p": 3, "n": 0},
                                  {"kind": "lp_norm", "p": "inf", "n": 0}],
                         ids=["box-0", "cross-0", "cross-minus-1", "polyhedral-empty",
                              "polyhedral-empty-row", "l3-0", "linf-0"])
def test_exit_2_on_a_degenerate_polyhedral_norm(capsys, tmp_path, spec):
    """A norm spec with no dimension, or with no generator, is a spec error
    (exit 2), not a traceback; lp norms with p > 2 included."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, ["dual-norm", "--spec", str(path), "--point", "1"])
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("p,want", [(1, 1.0), (1.5, 1.5), ("inf", math.inf),
                                    ("Infinity", math.inf)],
                         ids=["1", "1.5", "inf", "Infinity"])
def test_exponent_takes_numbers_and_infinity(p, want):
    assert cli.norm_from_spec({"kind": "lp_norm", "p": p, "n": 2}).p == want


@pytest.mark.parametrize("error", [BracketError, FlatGaugeError, IterationCapError,
                                   CertificateError],
                         ids=lambda e: e.__name__)
def test_exit_3_on_numerical_failure(capsys, monkeypatch, specs, error):
    def fail(*args, **kwargs):
        raise error("pipeline gave up")

    monkeypatch.setattr(cli, "dual_norm_eval", fail)
    code, out, err = _run(capsys, ["dual-norm", "--spec", specs["disc"],
                                   "--point", "1,0"])
    assert code == 3
    assert out == ""
    assert "numerical failure: pipeline gave up" in err


@pytest.mark.parametrize("weights", [[1e-110, 2e-110, 1e-110], [1e110, 2e110, 1e110]],
                         ids=["overflow", "underflow"])
def test_exit_2_on_a_sampling_box_whose_volume_is_not_a_normal_float(capsys, tmp_path,
                                                                      weights):
    """The primal box 1/k_lo is 1e110 or 1e-110, and its cube overflows or
    underflows: an error that names the box (exit 2), where the overflow
    was a traceback (exit 1)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "weighted_l2", "weights": weights}))
    code, out, err = _run(capsys, ["mahler", "--spec", str(path), "--samples", "2000"])
    assert code == 2
    assert out == ""
    assert "sampling box" in err


def test_exit_2_on_a_seed_past_the_philox_key(capsys, specs):
    """The polar run samples the streams of seed + 1, which must fit a
    Philox key word too."""
    code, _, err = _run(capsys, ["mahler", "--spec", specs["disc"], "--samples", "1000",
                                 "--seed", str(2 ** 64 - 1)])
    assert code == 2
    assert "2^64" in err


def test_exit_2_on_a_conjugate_point_that_overflows(capsys, specs):
    """|y| = 1e200 is finite, but the localization ball's cap overflows."""
    code, _, err = _run(capsys, ["fenchel", "--spec", specs["half_square"],
                                 "--point=1e200,0"])
    assert code == 2
    assert "overflows" in err
