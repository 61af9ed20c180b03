"""Golden reports of the command-line front end.

Every case runs ``cli.main(argv)`` in process and is compared with the
exit code, stdout, stderr and written report file recorded in
``golden/cli.json``.  Keys, strings, bools, ints and exit codes must match
exactly; floats, including the numbers printed inside text, to 1e-12
absolute, so a change that moves residuals in their last digits keeps the
goldens.

Regenerate the goldens, only after checking that a change of the reports
is intended, with

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cpdilate import cli, dilation, duality

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
FLOAT_TOL = 1e-12
REPORT_FILE = "report.json"
FLOAT_TOKEN = re.compile(r"([-+]?\d+\.\d+(?:e[-+]\d+)?)")


def _instances():
    """Instance files of the file-based cases, derived from the worked example."""
    two_maps = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    two_maps["cp_maps"]["T"] = {"from": "A", "to": "B",
                                "action": [[[1.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0]]]}
    two_maps["contexts"]["identity"] = {"map": "T", "f": "f", "g": "g"}
    non_covariant = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    non_covariant["states"]["f"]["vector"] = [[1.0, 0.0], [0.0, 0.0]]
    non_unital = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    non_unital["cp_maps"]["S"]["action"] = [[[0.25, 0.0], [0.25, 0.0]],
                                            [[0.25, 0.0], [0.25, 0.0]]]
    return {"two_maps.json": json.dumps(two_maps),
            "non_covariant.json": json.dumps(non_covariant),
            "non_unital.json": json.dumps(non_unital),
            "broken.json": '{"schema": 1, "algebras": ',
            "no_schema.json": json.dumps({"algebras": {}})}


def _cases():
    cases = []
    for command in ("dilate", "dual", "extend", "roundtrip"):
        cases += [[command, "--builtin"], [command, "--builtin", "--json"]]
        if command != "roundtrip":
            cases.append([command, "--builtin", "--json", "--emit-matrices"])
        cases += [[command, "--random", "--rng-seed", str(seed), "--json"]
                  for seed in range(5)]
    # sources with blocks of dim >= 2, so the emitted j pins the GNS basis
    cases += [["dilate", "--random", "--rng-seed", str(seed), "--json",
               "--emit-matrices"] for seed in (0, 1, 62)]
    cases += [
        ["dilate", "--random", "--rng-seed", "2"],
        ["dilate", "--builtin", "--seed-qons", "standard", "--json"],
        ["dilate", "--builtin", "--tol", "1e-9", "--json"],
        ["dilate", "--input", "two_maps.json", "--map", "T", "--json"],
        ["dilate", "--input", "two_maps.json", "--map", "S",
         "--seed-qons", "standard", "--json"],
        ["dual", "--input", "two_maps.json", "--context", "identity", "--json"],
        ["extend", "--input", "two_maps.json", "--context", "uniform"],
        ["dual", "--builtin", "--output", REPORT_FILE],
        ["dilate", "--builtin", "--json", "--output", REPORT_FILE],
        ["paper-example"],
        ["paper-example", "--json"],
        ["paper-example", "--no-seed", "--json"],
        ["verify", "--builtin"],
        ["verify", "--builtin", "--json"],
        ["verify", "--input", "two_maps.json", "--json"],
        # exit 2: failed hypotheses or a failed construction
        ["dual", "--input", "non_covariant.json"],
        ["dual", "--input", "non_covariant.json", "--json"],
        ["extend", "--input", "non_covariant.json", "--json"],
        ["roundtrip", "--input", "non_covariant.json", "--json"],
        ["verify", "--input", "non_covariant.json", "--json"],
        ["dilate", "--input", "non_unital.json"],
        # exit 1: input errors
        ["dilate", "--input", "missing.json"],
        ["dilate", "--input", "broken.json"],
        ["verify", "--input", "no_schema.json"],
        ["dilate", "--builtin", "--seed-qons", "nope"],
        ["dilate", "--input", "two_maps.json"],
        ["dual", "--input", "two_maps.json"],
        ["dilate"],
        ["verify"],
    ]
    return cases


def capture(argv):
    """Exit code, stdout, stderr and report file of one in-process run."""
    if os.path.exists(REPORT_FILE):
        os.remove(REPORT_FILE)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report = None
    if os.path.exists(REPORT_FILE):
        with open(REPORT_FILE, encoding="utf-8") as fh:
            report = fh.read()
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "file": report}


def _write_instances(directory):
    for name, text in _instances().items():
        (Path(directory) / name).write_text(text, encoding="utf-8")


def _assert_text_close(expected, actual, where):
    exp_parts = FLOAT_TOKEN.split(expected)
    act_parts = FLOAT_TOKEN.split(actual)
    assert len(exp_parts) == len(act_parts), f"{where}: {actual!r} != {expected!r}"
    for i, (e, a) in enumerate(zip(exp_parts, act_parts)):
        if i % 2:
            assert abs(float(e) - float(a)) <= FLOAT_TOL, f"{where}: {a} != {e}"
        else:
            assert e == a, f"{where}: {actual!r} != {expected!r}"


def assert_close(expected, actual, where="report"):
    """Exact on structure, keys, strings, bools and ints; floats to FLOAT_TOL."""
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} != {expected!r}"
        assert abs(actual - expected) <= FLOAT_TOL, f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), \
            f"{where}: keys {list(actual)} != {list(expected)}"
        for key in expected:
            assert_close(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            f"{where}: {actual!r} != {expected!r}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_close(e, a, f"{where}[{i}]")
    elif isinstance(expected, str):
        assert isinstance(actual, str), f"{where}: {actual!r} != {expected!r}"
        _assert_text_close(expected, actual, where)
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{where}: {actual!r} != {expected!r}"


def _parsed(text):
    """A JSON report as data; any other output as its text."""
    try:
        return json.loads(text)
    except (TypeError, json.JSONDecodeError):
        return text


def _golden():
    return {" ".join(case["argv"]): case
            for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_goldens_cover_every_case():
    assert list(_golden()) == [" ".join(argv) for argv in _cases()]


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_matches_golden(argv, tmp_path, monkeypatch):
    _write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = _golden()[" ".join(argv)]
    actual = capture(argv)
    assert actual["code"] == expected["code"]
    for key in ("stdout", "stderr", "file"):
        assert_close(_parsed(expected[key]), _parsed(actual[key]), key)


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--builtin", "--emit-matrices"],
    ["paper-example", "--input", "instance.json"],
    ["paper-example", "--builtin"],
    ["paper-example", "--emit-matrices"],
    ["verify", "--builtin", "--timings"],
    ["verify", "--builtin", "--emit-matrices"],
    ["verify", "--random"],
    ["verify", "--builtin", "--dims", "3"],
    ["verify", "--builtin", "--rng-seed", "1"],
], ids=" ".join)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, stages", [
    (["dilate", "--builtin", "--seed-qons", "standard"], ["gns", "dilate"]),
    (["dual", "--builtin"], ["dual", "double-dual"]),
    (["extend", "--builtin"], ["extend"]),
    (["roundtrip", "--builtin"], ["pipeline", "back"]),
    (["paper-example"], ["gns", "qons", "dilate"]),
], ids=lambda value: " ".join(value))
def test_timings_list_the_timed_stages(argv, stages, capsys):
    assert cli.main(argv + ["--json", "--timings"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    assert sorted(timings) == sorted(stages)
    assert all(seconds >= 0.0 for seconds in timings.values())


def _bad_context_instances():
    """Worked examples whose context states are no unit vectors of the
    map's spaces: f of norm √2, f on a one-dimensional space, and g on
    the two-dimensional source space of a map into ℂ³."""
    not_unit = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    not_unit["states"]["f"]["vector"] = [[1.0, 0.0], [1.0, 0.0]]
    wrong_f = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    wrong_f["algebras"]["C"] = {"blocks": [{"dim": 1, "mult": 1}]}
    wrong_f["states"]["f"] = {"space": "C", "vector": [[1.0, 0.0]]}
    wrong_g = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    wrong_g["algebras"]["B"] = {"blocks": [{"dim": 1, "mult": 1}] * 3}
    wrong_g["cp_maps"]["S"]["action"] = [[[1.0, 0.0], [0.0, 0.0]]] * 3
    wrong_g["states"]["g"]["space"] = "A"
    return {"not_unit": (not_unit, "expected a unit vector"),
            "wrong_f": (wrong_f, "state f has dim 1"),
            "wrong_g": (wrong_g, "state g has dim 2")}


@pytest.mark.parametrize("command", ["dual", "verify"])
@pytest.mark.parametrize("case", sorted(_bad_context_instances()))
def test_context_states_off_the_map_spaces_are_input_errors(case, command,
                                                           tmp_path):
    raw, message = _bad_context_instances()[case]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    result = capture([command, "--input", str(path)])
    assert result["code"] == 1
    assert result["stderr"].startswith("input error: context 'uniform'")
    assert message in result["stderr"]


def _malformed_instances():
    """Instance texts that are no valid instance, each with the command
    that reads the broken part."""
    def edited(edit, command=("verify",)):
        raw = copy.deepcopy(cli.BUILTIN_EXAMPLE)
        edit(raw)
        return json.dumps(raw), list(command)

    nan = float("nan")
    return {
        "not_an_object": ("[1, 2]", ["verify"]),
        "state_without_vector": edited(
            lambda raw: raw["states"]["f"].pop("vector")),
        "map_without_action": edited(
            lambda raw: raw["cp_maps"]["S"].pop("action")),
        "ragged_action": edited(
            lambda raw: raw["cp_maps"]["S"]["action"][0].append([0.5, 0.0])),
        "non_numeric_entry": edited(
            lambda raw: raw["cp_maps"]["S"]["action"][0].__setitem__(0, ["x", 0.0])),
        "nan_in_state": edited(
            lambda raw: raw["states"]["f"]["vector"].__setitem__(0, [nan, 0.0])),
        "nan_in_action": edited(
            lambda raw: raw["cp_maps"]["S"]["action"][1].__setitem__(1, [nan, 0.0])),
        "non_numeric_tolerance": edited(
            lambda raw: raw.__setitem__("tolerances", {"verify": "abc"})),
        "nan_tolerance": edited(
            lambda raw: raw.__setitem__("tolerances", {"verify": nan})),
        "negative_tolerance": edited(
            lambda raw: raw.__setitem__("tolerances", {"roundtrip": -1e-8})),
        "seed_term_without_a": edited(
            lambda raw: raw["seeds"]["standard"]["elements"][1]["terms"][0].pop("a"),
            ("dilate", "--seed-qons", "standard")),
        "fractional_block_dim": edited(
            lambda raw: raw["algebras"]["B"]["blocks"][0].__setitem__("dim", 1.5)),
    }


@pytest.mark.parametrize("case", sorted(_malformed_instances()))
def test_malformed_instances_are_input_errors(case, tmp_path):
    text, command = _malformed_instances()[case]
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    result = capture([command[0], "--input", str(path)] + command[1:])
    assert result["code"] == 1, result["stderr"]
    assert result["stderr"].startswith("input error: ")
    assert result["stdout"] == ""


@pytest.mark.parametrize("argv, message", [
    (["dual", "--builtin", "--context", "nope"], "unknown context 'nope'"),
    (["dilate", "--builtin", "--map", "nope"], "unknown cp_map 'nope'"),
], ids=["context", "map"])
def test_unknown_names_are_input_errors(argv, message):
    result = capture(argv)
    assert result["code"] == 1
    assert result["stderr"] == f"input error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_tol_must_be_finite_and_non_negative(value, tmp_path):
    report = tmp_path / REPORT_FILE
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dual", "--builtin", "--tol", value,
                      "--output", str(report)])
    assert exc.value.code == 2
    assert "argument --tol" in err.getvalue()
    assert not report.exists()


@pytest.mark.parametrize("value", ["-1", "0", "1", "65", "200", "3.5", "x"])
def test_dims_must_be_an_ambient_dimension_under_the_cap(value, tmp_path):
    report = tmp_path / REPORT_FILE
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dilate", "--random", "--dims", value,
                      "--output", str(report)])
    assert exc.value.code == 2
    assert "argument --dims: expected an integer from 2 to 64" in err.getvalue()
    assert not report.exists()


@pytest.mark.parametrize("value", ["2", "64"])
def test_dims_at_the_bounds_run(value):
    result = capture(["dilate", "--random", "--dims", value, "--json"])
    assert result["code"] == 0, result["stderr"]


def test_extend_at_the_dims_cap_certifies_its_dilation():
    # seed 1 draws an S' with n_B' = 162 and K·G = 270, whose dilation an
    # n_A²-product homomorphism check could not certify in minutes
    result = capture(["extend", "--random", "--dims", "64", "--rng-seed", "1",
                      "--json"])
    assert result["code"] == 0, result["stderr"]
    assert json.loads(result["stdout"])["pass"] is True


def test_seed_of_another_map_is_an_input_error(tmp_path, monkeypatch):
    _write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)
    result = capture(["dilate", "--input", "two_maps.json", "--map", "T",
                      "--seed-qons", "standard"])
    assert result["code"] == 1
    assert result["stderr"] == ("input error: seed 'standard' is declared "
                                "for map 'S', not for map 'T'\n")


@pytest.mark.parametrize("command, table", [("dilate", "cp_maps"),
                                            ("dual", "contexts")])
def test_instance_without_entries_says_so(command, table, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"schema": 1}), encoding="utf-8")
    result = capture([command, "--input", str(path)])
    assert result["code"] == 1
    assert result["stderr"] == f"input error: instance has no {table}\n"


def test_tolerances_of_no_stage_are_ignored(tmp_path):
    raw = copy.deepcopy(cli.BUILTIN_EXAMPLE)
    raw["tolerances"] = {"note": "hand-tuned", "verify": 1e-8}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    result = capture(["verify", "--input", str(path), "--json"])
    assert result["code"] == 0, result["stderr"]
    assert json.loads(result["stdout"])["tolerances"] == {
        **cli.STAGE_TOLERANCES, "verify": 1e-8}


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    # every golden argv, in order and in reverse order, each pass after a
    # usage error: one call leaking parser state into the next would show
    _write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = []
    for order in (_cases(), _cases()[::-1]):
        with contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit):
                cli.main(["verify", "--builtin", "--dims", "3"])
        runs.append({" ".join(argv): capture(argv) for argv in order})
    forward, backward = runs
    for key, result in forward.items():
        for field in ("code", "stdout", "file"):
            assert backward[key][field] == result[field], f"{key}: {field}"


def test_roundtrip_builds_the_gns_data_of_s_once(monkeypatch):
    calls = []
    real = cli.gns

    def counted(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    for module in (cli, dilation, duality):
        monkeypatch.setattr(module, "gns", counted)
    assert capture(["roundtrip", "--builtin", "--json"])["code"] == 0
    # gns(S), shared by dual_map and dilation_from_extension, and gns(S')
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_text_comparison_tolerates_only_float_noise():
    _assert_text_close("max residual 1.000e-15)", "max residual 3.000e-15)", "t")
    with pytest.raises(AssertionError):
        _assert_text_close("max residual 1.000e-15)", "max residual 1.000e-03)", "t")
    with pytest.raises(AssertionError):
        _assert_text_close("[pass] dual-map", "[FAIL] dual-map", "t")


def main():
    cases = []
    with tempfile.TemporaryDirectory() as directory:
        _write_instances(directory)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            cases = [capture(argv) for argv in _cases()]
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
