import contextlib
import dataclasses
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from bernsym import cli, identities
from bernsym.characters import enumerate_characters


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


def test_a_poisoned_closed_route_factor_fails_the_route_check(monkeypatch, capsys):
    # One cached factor of the closed route built wrong, with e^((shift + 1)
    # t) for e^(shift t).  The integral route reads no table of the closed
    # route, so lambda --route both flags the difference and exits 1; from
    # emptied tables the same call agrees again.
    from bernsym import bernoulli
    from bernsym.identities import LambdaSpec, lambda_series

    argv = [
        "lambda", "--family", "L23", "--index", "1", "--modulus", "5", "--char", "1",
        "--weights", "2,3,5", "--ys", "1/2,-2/3", "--order", "8", "--route", "both",
    ]
    spec = LambdaSpec("L23", 1, (2, 3, 5), (Fraction(1, 2), Fraction(-2, 3)))
    real = bernoulli.exp_series
    bernoulli.clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(bernoulli, "exp_series", lambda c, order: real(c + 1, order))
        lambda_series(spec, enumerate_characters(5)[1], 8)
    assert bernoulli._closed_factor.cache_info().currsize == 1
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc["summary"]["routes_agree"] is False
    bernoulli.clear_caches()
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["summary"]["routes_agree"] is True


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_lambda_route_mismatch_is_flagged_at_its_n_only(monkeypatch, capsys, fmt):
    # the integral route made to differ from the closed one at n = 5 only:
    # the report flags that one record, keeps the closed route's values and
    # exits 1
    from bernsym.identities import LambdaSpec, lambda_series
    from bernsym.series import TruncatedSeries

    order, bad = 8, 5
    real = cli.lambda_series_from_integrals

    def skewed(spec, chi, n):
        step = TruncatedSeries.from_coeffs(n, [0] * bad + [1], chi.order)
        return real(spec, chi, n) + step

    monkeypatch.setattr(cli, "lambda_series_from_integrals", skewed)
    code, out = run_cli(
        capsys,
        [
            "lambda", "--family", "L23", "--index", "1", "--modulus", "5",
            "--char", "1", "--weights", "2,3,5", "--ys", "1/2,-2/3",
            "--order", str(order), "--route", "both", "--format", fmt,
        ],
    )
    assert code == 1
    chi = enumerate_characters(5)[1]
    spec = LambdaSpec("L23", 1, (2, 3, 5), (Fraction(1, 2), Fraction(-2, 3)))
    closed = [str(lambda_series(spec, chi, order).egf_coeff(n)) for n in range(order + 1)]
    if fmt == "json":
        doc = json.loads(out)
        assert doc["summary"]["routes_agree"] is False
        assert [r["routes_agree"] for r in doc["records"]] == [n != bad for n in range(order + 1)]
        assert [r["egf_coeff"] for r in doc["records"]] == closed
    elif fmt == "csv":
        lines = out.splitlines()
        assert lines[0] == "n,egf_coeff,routes_agree"
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags == [str(n != bad) for n in range(order + 1)]
    else:
        lines = out.splitlines()[1:]
        assert len(lines) == order + 1
        assert out.count("[ROUTE MISMATCH]") == 1
        assert lines[bad] == f"  n={bad}: {closed[bad]}  [ROUTE MISMATCH]"


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
    "content, flags",
    [
        pytest.param(content, [], id=content)
        for content in [
            '{"moduli": "abc"}',
            "[1, 2]",
            '{"modulii": [4], "theorems": ["T7"], "n_max": 0}',
            '{"moduli": [4], "theorems": ["T7"], "n_max": 0, "allow_imprimitive": "no"}',
            '{"moduli": [4], "theorems": ["T7"], "n_max": 2.5}',
            '{"moduli": [4], "theorems": ["T7"], "n_max": true}',
            '{"moduli": [4], "theorems": ["T7"], "n_max": 0, "ys_pool": [0.5]}',
            "[" * 2000 + "]" * 2000,
            # only a field whose default is None may be null
            '{"moduli": [4], "theorems": ["T7"], "n_max": null}',
            '{"moduli": [4], "theorems": ["T7"], "n_max": 0, "ys_pool": ["1/0"]}',
        ]
    ]
    + [
        # a wrongly typed field is refused even though a flag overrides it
        pytest.param(
            '{"moduli": [4], "theorems": ["T7"], "n_max": 2.5}', ["--n-max", "3"],
            id="n_max 2.5 overridden by --n-max 3",
        ),
    ],
)
def test_sweep_malformed_config_is_usage_error(tmp_path, capsys, content, flags):
    path = tmp_path / "config.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(path), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bernsym: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# two degree runs of one character at --jobs 2: a pool of two workers
POOLED_SWEEP = ["sweep", "--moduli", "1", "--theorems", "T8", "--n-max", "3",
                "--weights", "1,2,3;2,3,5", "--jobs", "2"]


def _no_child_left():
    # every process this one forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_in_workers(monkeypatch, capsys, fail):
    # POOLED_SWEEP with verify_theorem calling fail() in every worker: the
    # one stderr line it exits 2 with, once no worker is left
    parent = os.getpid()
    verify = identities.verify_theorem

    def fail_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            fail()
        return verify(*args, **kwargs)

    monkeypatch.setattr(identities, "verify_theorem", fail_in_worker)
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 2)  # a pool on any machine
    with pytest.raises(SystemExit) as exc:
        cli.main(POOLED_SWEEP)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("bernsym: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    _no_child_left()
    return err


def test_sweep_dead_worker_is_usage_error(monkeypatch, capsys):
    err = _fail_in_workers(monkeypatch, capsys, lambda: os._exit(1))
    assert err == "bernsym: error: a worker process exited with status 1\n"


def _raise(exc):
    raise exc


@pytest.mark.parametrize(
    "fail, err",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         "a worker process was killed by signal 9 (SIGKILL)"),
        (lambda: _raise(ValueError("raised in a worker")), "raised in a worker"),
        (lambda: _raise(MemoryError()), "out of memory"),
    ],
    ids=["SIGKILL", "ValueError", "MemoryError"],
)
def test_sweep_failing_worker_is_one_error_line(monkeypatch, capsys, fail, err):
    assert _fail_in_workers(monkeypatch, capsys, fail) == f"bernsym: error: {err}\n"


def test_passing_pooled_sweep_leaves_no_child(monkeypatch, capsys):
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 2)  # a pool on any machine
    serial = run_cli(capsys, [*POOLED_SWEEP[:-1], "1"])
    assert serial[0] == 0
    assert run_cli(capsys, POOLED_SWEEP) == serial
    _no_child_left()


def test_out_of_memory_is_usage_error():
    # a grid too large for a child capped at 200 MB of address space: the
    # cap is set in that child alone, between its fork and its exec
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "bernsym.cli", "sweep", "--moduli", "1", "--theorems", "T8",
         "--n-max", "30000000"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap, check=False,
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "bernsym: error: out of memory\n")


# main with the CPUs pinned at 2, then the pool modules it left loaded, on stderr
_LOADED_POOL_MODULES = """
import sys
from bernsym import cli, identities
identities._usable_cpus = lambda: 2
try:
    cli.main(sys.argv[1:])
finally:
    pool = ("concurrent.futures", "multiprocessing", "bernsym._pool")
    print(*(m for m in pool if m in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["sweep", "--moduli", "4", "--theorems", "T7", "--n-max", "1", "--jobs", "1"], ""),
        (["verify", "--theorem", "T1", "--modulus", "5", "--n-max", "1"], ""),
        (["lambda", "--family", "L23", "--index", "1", "--modulus", "5", "--char", "1",
          "--weights", "2,3,5", "--ys", "1/2,-2/3", "--order", "6", "--route", "both"], ""),
        (["compute", "bernoulli-number", "--modulus", "4", "--char", "1", "-n", "3"], ""),
        (["chars", "--modulus", "5"], ""),
        (POOLED_SWEEP, "bernsym._pool"),
    ],
    ids=["sweep --jobs 1", "verify", "lambda --route both", "compute", "chars", "sweep --jobs 2"],
)
def test_only_a_started_pool_loads_the_pool_modules(argv, loaded):
    # a fresh interpreter, since this one has loaded the pool; no command
    # loads concurrent.futures or multiprocessing, and the pooled sweep,
    # which loads bernsym._pool, shows that the check sees a loaded module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_POOL_MODULES, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == loaded + "\n"


_EVERY_FIELD_SET = cli.SweepConfig(
    moduli=(5,),
    theorems=("T1", "T7"),
    n_max=3,
    weights=((2, 3, 5), (1, 1, 2)),
    ys_pool=(Fraction(-1, 2), Fraction(3)),
    allow_imprimitive=True,
    char_labels=(1, 2),
    ys=(Fraction(1, 3), Fraction(2)),
)


@pytest.mark.parametrize(
    "config",
    [_EVERY_FIELD_SET, dataclasses.replace(_EVERY_FIELD_SET, ys=None)],
    ids=["every field set", "ys None"],
)
def test_config_round_trips_through_its_echo(config):
    for f in dataclasses.fields(config):
        if f.name != "ys" or config.ys is not None:
            assert getattr(config, f.name) != f.default, f.name
    echo = json.loads(json.dumps(config.to_dict()))
    # a None ys is left out of the echo, and a None char_labels is written
    assert ("ys" in echo) == (config.ys is not None)
    read = cli.SweepConfig.from_dict(echo)
    assert read == config
    assert repr(read) == repr(config)  # the same types, Fractions included
    assert cli.SweepConfig.from_dict({"char_labels": None}).to_dict()["char_labels"] is None


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
        ("n_max", None),
        ("moduli", None),
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


# Python caps int-to-str conversion (4300 digits by default); exact values
# past it are written whole, while argv and config files stay under the cap
_CAP = sys.int_info.default_max_str_digits


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "T7", "--modulus", "5", "--n-max", "10", "--ys", "1e1000",
         "--jobs", "1"],
        ["verify", "--theorem", "T7", "--modulus", "5", "--n-max", "10", "--ys", "1e1000",
         "--jobs", "2"],
        ["compute", "bernoulli-poly", "--modulus", "1", "-n", "10", "--x", "1e500"],
        ["lambda", "--family", "L12", "--index", "0", "--modulus", "1", "--ys", "1e500",
         "--order", "10"],
    ],
    ids=["verify-jobs1", "verify-jobs2", "compute", "lambda"],
)
def test_values_of_any_length_are_written(capsys, argv):
    cap = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    assert max(len(run) for run in re.findall(r"[0-9]+", out)) > _CAP
    assert sys.get_int_max_str_digits() == cap


def test_a_worker_renders_values_of_any_length():
    # a pool worker need not inherit the caller's setting, so the record
    # renderer lifts the cap itself
    chi = enumerate_characters(1)[0]
    instance = identities.TheoremInstance("T7", chi, 10, (1, 2, 3), (Fraction(10**1000),))
    report = identities.verify_theorem(instance)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_CAP)
    try:
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(report.values[0])
        record = json.loads(cli._render_sweep_record("json", report))
        assert sys.get_int_max_str_digits() == _CAP
    finally:
        sys.set_int_max_str_digits(saved)
    assert record["all_equal"] is True
    assert len(record["values"][0]) > _CAP


@pytest.mark.parametrize(
    "flag, value, shown",
    [
        ("--n-max", "1" + "0" * _CAP, "argument --n-max: expected a nonnegative integer"),
        # exponent notation passes the cap on parsing, so the value is checked
        ("--ys", f"1e{_CAP}", "argument --ys: not a rational p/q"),
    ],
    ids=["digits", "exponent"],
)
def test_long_numbers_on_the_command_line_are_refused(capsys, flag, value, shown):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", flag, value])
    assert exc.value.code == 2
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize(
    "field", [f'"n_max": 1{"0" * _CAP}', f'"ys_pool": ["1e{_CAP}"]'], ids=["digits", "exponent"]
)
def test_long_numbers_in_a_config_file_are_refused(tmp_path, capsys, field):
    path = tmp_path / "config.json"
    path.write_text(f"{{{field}}}", encoding="utf-8")
    err = _usage_error(capsys, ["sweep", "--config", str(path)])
    assert "Exceeds the limit" in err


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
