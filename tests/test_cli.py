import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bernsym import cli, identities


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_chars_counts(capsys):
    code, doc = run_json(capsys, ["chars", "--modulus", "5"])
    assert code == 0
    assert len(doc["records"]) == 4

    code, doc = run_json(capsys, ["chars", "--modulus", "1"])
    assert code == 0
    assert len(doc["records"]) == 1
    assert doc["records"][0]["conductor"] == 1


def test_chars_mod8_conductors(capsys):
    code, doc = run_json(capsys, ["chars", "--modulus", "8"])
    assert code == 0
    assert sorted(r["conductor"] for r in doc["records"]) == [1, 4, 8, 8]


def test_chars_primitive_only(capsys):
    code, doc = run_json(capsys, ["chars", "--modulus", "8", "--primitive-only"])
    assert code == 0
    assert [r["conductor"] for r in doc["records"]] == [8, 8]
    assert all(r["primitive"] for r in doc["records"])


def test_chars_rejects_zero_modulus(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chars", "--modulus", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["chars", "--modulus", "abc"], "--modulus/-d"),
        (["sweep", "--moduli", "4,x"], "--moduli"),
        (["sweep", "--weights", "1,2,x"], "--weights"),
        (["sweep", "--n-max", "two"], "--n-max"),
        (["lambda", "--family", "L23", "--index", "x", "--modulus", "4"], "--index"),
    ],
)
def test_non_numeric_flag_value_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected" in err
    assert "invalid _" not in err


def test_compute_bernoulli_number(capsys):
    code, doc = run_json(
        capsys, ["compute", "bernoulli-number", "--modulus", "1", "--char", "0", "-n", "4"]
    )
    assert code == 0
    assert doc["records"][0]["value"] == "-1/30"

    code, doc = run_json(
        capsys, ["compute", "bernoulli-number", "--modulus", "4", "--char", "1", "-n", "3"]
    )
    assert code == 0
    assert doc["records"][0]["value"] == "3/2"
    assert doc["records"][0]["rational"] == "3/2"


def test_compute_power_sum(capsys):
    code, doc = run_json(
        capsys,
        ["compute", "power-sum", "--modulus", "4", "--char", "1", "-k", "2", "-n", "7"],
    )
    assert code == 0
    assert doc["records"][0]["value"] == "-32"


def test_compute_bernoulli_poly(capsys):
    code, doc = run_json(
        capsys,
        ["compute", "bernoulli-poly", "--modulus", "1", "--char", "0", "-n", "2", "--x", "1/2"],
    )
    assert code == 0
    assert doc["records"][0]["value"] == "-1/12"


def test_compute_unknown_label_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "bernoulli-number", "--modulus", "4", "--char", "9", "-n", "3"])
    assert exc.value.code == 2


def test_lambda_routes_agree(capsys):
    code, doc = run_json(
        capsys,
        [
            "lambda", "--family", "L23", "--index", "1", "--modulus", "4",
            "--char", "1", "--weights", "1,2,3", "--ys", "0,1/2",
            "--order", "8", "--route", "both",
        ],
    )
    assert code == 0
    assert doc["summary"]["routes_agree"] is True
    assert len(doc["records"]) == 9


def test_lambda_matches_library(capsys):
    from bernsym.characters import enumerate_characters
    from bernsym.identities import LambdaSpec, lambda_series

    code, doc = run_json(
        capsys,
        [
            "lambda", "--family", "L12", "--index", "0", "--modulus", "3",
            "--char", "1", "--weights", "2,3,5", "--ys", "1/2", "--order", "6",
        ],
    )
    assert code == 0
    chi = enumerate_characters(3)[1]
    series = lambda_series(LambdaSpec("L12", 0, (2, 3, 5), (Fraction(1, 2),)), chi, 6)
    for rec in doc["records"]:
        assert rec["egf_coeff"] == str(series.egf_coeff(rec["n"]))


@pytest.mark.parametrize("family, index", [("L23", "5"), ("L12", "2")])
def test_lambda_index_out_of_range_is_usage_error(capsys, family, index):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lambda", "--family", family, "--index", index, "--modulus", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bernsym: error: ")
    assert err.count("\n") == 1
    assert "out of range" in err
    assert "-2" not in err


def test_verify_single_instance_passes(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "--theorem", "T1", "--modulus", "4", "--char", "1",
         "--n-max", "0", "--weights", "1,1,1"],
    )
    assert code == 0
    assert "PASS" in out
    assert "0 failures" in out


def test_verify_perturbed_fails_with_detail(capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--theorem", "T2", "--modulus", "1", "--n-max", "2",
         "--weights", "1,2,3", "--ys", "1/2,2/3", "--perturb"],
    )
    assert code == 1
    assert doc["summary"]["failures"] > 0
    failed = [r for r in doc["records"] if not r["all_equal"]]
    assert failed and failed[0]["first_mismatch"] is not None
    assert failed[0]["first_mismatch"]["left"] != failed[0]["first_mismatch"]["right"]


def test_verify_all_theorems_small(capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--theorem", ",".join(cli.THEOREM_IDS), "--modulus", "5",
         "--n-max", "2", "--weights", "1,2,3", "--ys", "1/2"],
    )
    assert code == 0
    assert doc["summary"]["failures"] == 0
    # all primitive characters mod 5 were exercised
    assert {r["char"] for r in doc["records"]} == {1, 2, 3}


def test_sweep_small_grid(capsys):
    args = ["sweep", "--moduli", "4", "--theorems", "T7,T8", "--n-max", "3",
            "--weights", "1,2,3", "--ys", "0,1/2"]
    code, doc = run_json(capsys, args)
    assert code == 0
    assert doc["summary"]["failures"] == 0
    assert doc["summary"]["instances"] == len(doc["records"])
    assert doc["config"]["moduli"] == [4]


def test_sweep_report_is_deterministic(capsys):
    args = ["sweep", "--moduli", "3", "--theorems", "T4", "--n-max", "2",
            "--weights", "1,2,3", "--ys", "0,1/2", "--format", "json"]
    code1, out1 = run_cli(capsys, args)
    code2, out2 = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_config_round_trip(tmp_path, capsys):
    args = ["sweep", "--moduli", "4", "--theorems", "T6", "--n-max", "2",
            "--weights", "1,2,3;2,3,5", "--ys", "0,1/2"]
    code, doc = run_json(capsys, args)
    assert code == 0
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    # rerunning from the echoed config reproduces the verdicts
    code2, doc2 = run_json(capsys, ["sweep", "--config", str(report_path)])
    assert code2 == 0
    assert doc2["config"] == doc["config"]
    assert doc2["records"] == doc["records"]


def test_sweep_reruns_verify_report(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--theorem", "T1,T4,T8", "--modulus", "5", "--n-max", "2",
         "--weights", "1,2,3", "--ys", "1/2,1/3"],
    )
    assert code == 0
    report_path = tmp_path / "verify.json"
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code2, doc2 = run_json(capsys, ["sweep", "--config", str(report_path)])
    assert code2 == 0
    assert doc2["config"] == doc["config"]
    assert doc2["records"] == doc["records"]


def test_sweep_t3_finding_emitted(capsys):
    code, out = run_cli(
        capsys,
        ["sweep", "--moduli", "4", "--theorems", "T3", "--n-max", "2",
         "--weights", "1,2,3", "--ys", "0,1/2"],
    )
    assert code == 0
    assert "finding: printed fifth-line variant of T3" in out
    code, doc = run_json(
        capsys,
        ["sweep", "--moduli", "4", "--theorems", "T3", "--n-max", "2",
         "--weights", "1,2,3", "--ys", "0,1/2"],
    )
    assert "t3_printed_line5" in doc["summary"]
    assert doc["summary"]["t3_printed_line5"]["applicable"] > 0


def test_csv_output(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "--theorem", "T8", "--modulus", "1", "--n-max", "1",
         "--weights", "1,2,3", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theorem,")
    assert len(lines) == 3  # header + two instances


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "content",
    [
        '{"moduli": "abc"}',
        "[1, 2]",
        '{"modulii": [4], "theorems": ["T7"], "n_max": 0}',
        '{"moduli": [4], "theorems": ["T7"], "n_max": 0, "allow_imprimitive": "no"}',
        '{"moduli": [4], "theorems": ["T7"], "n_max": 2.5}',
        '{"moduli": [4], "theorems": ["T7"], "n_max": true}',
        '{"moduli": [4], "theorems": ["T7"], "n_max": 0, "ys_pool": [0.5]}',
        "[" * 2000 + "]" * 2000,
    ],
)
def test_sweep_malformed_config_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bernsym: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_dead_worker_is_usage_error(monkeypatch, capsys):
    parent = os.getpid()
    verify = identities.verify_theorem

    def die_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(identities, "verify_theorem", die_in_worker)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--moduli", "1", "--theorems", "T8", "--n-max", "3",
                  "--weights", "1,2,3", "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bernsym: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_config_converters_cover_every_field():
    from dataclasses import fields

    names = {f.name for f in fields(cli.SweepConfig)}
    assert set(cli._CONFIG_FIELDS) == set(cli._FIELD_TYPES) == names


# a config built in Python meets the JSON reader's type rule: a float or a
# bool would be verified as its binary value or as 1 and echoed as a
# config that reads back differently, so each raises instead
@pytest.mark.parametrize(
    "field, value",
    [
        ("ys_pool", (0.1,)),
        ("ys_pool", (Fraction(1, 2), True)),
        ("ys_pool", ("1/2",)),
        ("ys", (Fraction(1, 2), 0.5)),
        ("moduli", (True,)),
        ("moduli", (5.0,)),
        ("moduli", [5]),
        ("theorems", ["T7"]),
        ("n_max", True),
        ("n_max", 2.0),
        ("weights", ((1, 2, 3.0),)),
        ("weights", ((1, True, 3),)),
        ("weights", [(1, 2, 3)]),
        ("allow_imprimitive", 1),
        ("char_labels", (True,)),
    ],
    ids=repr,
)
def test_python_config_meets_the_json_type_rule(field, value):
    config = cli.SweepConfig(moduli=(1,), theorems=("T7",), n_max=0, weights=((1, 2, 3),))
    assert len(cli.build_instances(config)) == 3  # one per pooled y
    setattr(config, field, value)
    with pytest.raises(ValueError, match=f"config field '{field}' has the wrong type"):
        cli.build_instances(config)


def _argv_with_config(tmp_path, argv, config):
    if config is None:
        return argv
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["sweep", "--config", str(path)]


def _usage_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bernsym: error: ")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sweep", "--moduli", "4", "--theorems", "T7", "--n-max", "0", "--ys", ""], None),
        (None, {"ys_pool": [], "theorems": ["T7"]}),
    ],
)
def test_sweep_empty_y_pool_is_usage_error(tmp_path, capsys, argv, config):
    err = _usage_error(capsys, _argv_with_config(tmp_path, argv, config))
    assert "pool" in err
    assert "T7" in err


def test_sweep_empty_y_pool_without_y_arguments_passes(capsys):
    code, doc = run_json(
        capsys,
        ["sweep", "--moduli", "4", "--theorems", "T8", "--n-max", "0",
         "--weights", "1,2,3", "--ys", ""],
    )
    assert code == 0
    assert doc["summary"]["instances"] == 1


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sweep", "--weights", ""], None),
        (None, {"weights": []}),
        (None, {"moduli": [4], "char_labels": []}),
        (["verify", "--theorem", "T7", "--modulus", "2", "--n-max", "0"], None),
    ],
)
def test_empty_grid_is_usage_error(tmp_path, capsys, argv, config):
    err = _usage_error(capsys, _argv_with_config(tmp_path, argv, config))
    assert "no instances" in err


_T7 = ["--theorems", "T7", "--n-max", "0", "--weights", "1,2,3"]


@pytest.mark.parametrize(
    "argv, config, axis, shown",
    [
        (["sweep", "--moduli", "1", *_T7, "--ys", "0,0"], None, "ys_pool", "0"),
        (["sweep", "--moduli", "4,4", *_T7], None, "moduli", "4"),
        (["sweep", "--moduli", "1", *_T7, "--theorems", "T7,t7"], None, "theorems", "T7"),
        (["sweep", "--moduli", "1", *_T7, "--weights", "1,2,3;2,3,5;1,2,3"], None,
         "weights", "1,2,3"),
        (None, {"moduli": [1, 1], "theorems": ["T7"], "n_max": 0}, "moduli", "1"),
        (None, {"moduli": [1], "theorems": ["T8", "T8"], "n_max": 0}, "theorems", "T8"),
        (None, {"moduli": [1], "theorems": ["T7"], "weights": [[1, 2, 3], [1, 2, 3]]},
         "weights", "1,2,3"),
        (None, {"moduli": [1], "theorems": ["T7"], "ys_pool": ["1/2", "2/4"]},
         "ys_pool", "1/2"),
        (None, {"moduli": [5], "theorems": ["T7"], "char_labels": [1, 1]},
         "char_labels", "1"),
    ],
)
def test_repeated_grid_value_is_usage_error(tmp_path, capsys, argv, config, axis, shown):
    err = _usage_error(capsys, _argv_with_config(tmp_path, argv, config))
    assert f"{axis} lists the value {shown} more than once" in err


def test_verify_ys_may_repeat(capsys):
    # explicit ys are the arguments of one instance, not a grid axis
    code, doc = run_json(
        capsys,
        ["verify", "--theorem", "T1", "--modulus", "1", "--n-max", "1", "--ys", "0,0,0"],
    )
    assert code == 0
    assert doc["summary"]["instances"] == 2
    assert doc["records"][0]["ys"] == ["0", "0", "0"]


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["compute", "bernoulli-poly", "--modulus", "1", "-n", "2", "--x", "-1/2"], ": 11/12\n"),
        (["verify", "--theorem", "T2", "--modulus", "1", "--n-max", "1",
          "--ys", "-1/3,1/2"], "ys=(-1/3,1/2) PASS"),
        (["sweep", "--moduli", "1", "--theorems", "T7", "--n-max", "1",
          "--weights", "1,2,3", "--ys", "-1/2,0"], "ys=(-1/2) PASS"),
    ],
)
def test_negative_rational_is_an_option_value(capsys, argv, shown):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert shown in out


@pytest.mark.parametrize("flag", ["--n-max", "--jobs"])
def test_negative_integer_is_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--theorem", "T2", "--modulus", "1", flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a" in capsys.readouterr().err


def _main_in_process(argv):
    # (exit code, stdout, stderr) of main, as a usage error exits
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_one_parser_serves_every_call(monkeypatch):
    # main keeps one parser per process; each call must behave as a fresh
    # interpreter's main does, a usage error first
    calls = [
        ["sweep", "--n-max", "-1"],
        ["lambda", "--family", "L23", "--index", "1", "--modulus", "5", "--char", "1",
         "--weights", "2,3,5", "--ys", "1/2,-2/3", "--order", "6"],
        ["sweep", "--moduli", "4", "--theorems", "T7", "--n-max", "1", "--format", "json"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    got = [_main_in_process(argv) for argv in calls]
    assert [code for code, _, _ in got] == [2, 0, 0]
    for argv, result in zip(calls, got):
        fresh = subprocess.run(
            [sys.executable, "-m", "bernsym.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
