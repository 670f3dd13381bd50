"""Reports written record by record equal the documents rendered whole.

Each test builds a report's document the way it was built before records
were rendered one at a time: every record as a dict, then the whole
document through json.dumps(indent=2, sort_keys=True), csv.DictWriter or
the text layout.  The written report must equal it byte for byte.  The
pool tests check that a sweep's report does not depend on where its
records were rendered, and that a rendered report leaves its worker
without the instance or the exact values.
"""

import csv
import functools
import io
import json
import os
import pickle
from fractions import Fraction as F

import pytest

from bernsym import __version__, cli, identities
from bernsym.bernoulli import gen_bernoulli_poly
from bernsym.characters import _galois_orbits, enumerate_characters
from bernsym.identities import (
    LambdaSpec,
    TheoremInstance,
    lambda_series,
    lambda_series_from_integrals,
    sweep_verify,
)

# -- the documents as they were built whole ----------------------------------


def _doc(command, config, records, summary):
    return {
        "tool": {"name": "bernsym", "version": __version__},
        "command": command,
        "config": config,
        "records": records,
        "summary": summary,
    }


def _record(report):
    inst = report.instance
    rec = {
        "theorem": inst.theorem,
        "modulus": inst.chi.modulus,
        "char": inst.chi.label,
        "char_order": inst.chi.order,
        "conductor": inst.chi.conductor,
        "n": inst.n,
        "weights": list(inst.weights),
        "ys": [str(y) for y in inst.ys],
        "values": [str(v) for v in report.values],
        "all_equal": report.all_equal,
        "first_mismatch": None,
        "extras": report.extras,
    }
    if report.first_mismatch is not None:
        i, j = report.first_mismatch
        rec["first_mismatch"] = {
            "left_index": i,
            "right_index": j,
            "left": str(report.values[i]),
            "right": str(report.values[j]),
        }
    return rec


def _summarize(records):
    failures = sum(1 for r in records if not r["all_equal"])
    summary = {"instances": len(records), "failures": failures}
    probes = [r for r in records if r["extras"].get("printed_line5_applies")]
    if probes:
        matched = sum(1 for r in probes if r["extras"].get("printed_line5_matches"))
        summary["t3_printed_line5"] = {
            "applicable": len(probes),
            "matched": matched,
            "mismatched": len(probes) - matched,
        }
    collapses = [r for r in records if "collapsed_variants_equal" in r["extras"]]
    if collapses:
        summary["collapsed_variants_ok"] = all(
            r["extras"]["collapsed_variants_equal"] for r in collapses
        )
    return summary


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(doc):
    out = io.StringIO()
    records = doc["records"]
    if not records:
        return ""
    writer = csv.DictWriter(out, fieldnames=list(records[0].keys()), lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({
            k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
            for k, v in rec.items()
        })
    return out.getvalue()


def _verify_text(doc):
    lines = []
    for rec in doc["records"]:
        w = ",".join(str(x) for x in rec["weights"])
        ys = ",".join(rec["ys"]) if rec["ys"] else "-"
        status = "PASS" if rec["all_equal"] else "FAIL"
        lines.append(
            f"{rec['theorem']} d={rec['modulus']} chi={rec['char']} "
            f"n={rec['n']} w=({w}) ys=({ys}) {status}"
        )
        if rec["first_mismatch"] is not None:
            mm = rec["first_mismatch"]
            lines.append(
                f"  mismatch: expr[{mm['left_index']}] = {mm['left']}  !=  "
                f"expr[{mm['right_index']}] = {mm['right']}"
            )
    summary = doc["summary"]
    lines.append(f"checked {summary['instances']} instances: {summary['failures']} failures")
    if "t3_printed_line5" in summary:
        probe = summary["t3_printed_line5"]
        verdict = (
            "matches the symmetric orbit"
            if probe["mismatched"] == 0
            else f"deviates from the symmetric orbit on {probe['mismatched']} of "
            f"{probe['applicable']} applicable instances"
        )
        lines.append(
            "finding: printed fifth-line variant of T3 (shift ratio w1/w2 inside "
            f"the w3 block) {verdict}"
        )
    return "\n".join(lines) + "\n"


# -- sweeps ------------------------------------------------------------------

# Imprimitive characters mod 8 and every character mod 11 (order 10, so
# phi = 4 values from n = 3), a negative and a zero y, and weights with
# w2 != w3 (the T3 probe applies) and w2 == w3 (it does not).
SHAPES = dict(
    moduli=(8, 11),
    n_max=3,
    weights=((1, 2, 3), (3, 2, 2)),
    ys_pool=(F(-1, 2), F(0), F(2, 3)),
    allow_imprimitive=True,
)


def _same_text(got: str, want: str) -> None:
    # As strict as assert got == want, since a text is the join of its lines
    # kept with their endings, but a failure shows the first differing line
    # only, where pytest would diff two reports of several hundred kB
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for k, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            pytest.fail(f"line {k} differs:\n got {a!r}\nwant {b!r}", pytrace=False)
    if len(got_lines) != len(want_lines):
        pytest.fail(f"{len(got_lines)} lines written, {len(want_lines)} expected", pytrace=False)


def _written(capsys, command, config, perturb, fmt, jobs=1):
    code = cli._run_verification(command, config, jobs, perturb, fmt)
    return code, capsys.readouterr().out


def _whole(command, config, perturb):
    reports = sweep_verify(cli.build_instances(config), perturb=perturb)
    records = [_record(r) for r in reports]
    return _doc(command, config.to_dict(), records, _summarize(records))


@functools.cache
def _shapes(perturb):
    return _whole("sweep", cli.SweepConfig(**SHAPES), perturb)


def test_sweep_covers_every_record_shape():
    # every branch of the json record template: the lists of every length
    # it meets, the empty one included, each shape of extras, and passing
    # and failing records with rational and non-rational values
    records = _shapes(False)["records"]
    perturbed = _shapes(True)["records"]
    extras = [r["extras"] for r in records]
    assert {e.get("printed_line5_applies") for e in extras} >= {True, False}
    assert {e.get("printed_line5_matches") for e in extras} == {None, True, False}
    assert {r["theorem"] for r in records if "collapsed_variants_equal" in r["extras"]} == {
        "T4", "T8"
    }
    assert {tuple(r["extras"]) for r in records + perturbed} == {
        (), ("collapsed_variants_equal",), ("printed_line5_applies",),
        ("printed_line5_applies", "printed_line5_matches"),
    }
    assert {r["extras"].get("collapsed_variants_equal") for r in perturbed} == {None, True, False}
    assert {len(r["ys"]) for r in records} == {0, 1, 2, 3}
    assert {len(r["values"]) for r in records} == {2, 3, 6}
    assert any(r["first_mismatch"] is not None for r in perturbed)
    assert {"-1/2", "0"} <= {y for r in records for y in r["ys"]}
    assert any(r["conductor"] < r["modulus"] for r in records)
    assert any(r["values"][0].endswith("@ zeta(10)") for r in records)
    assert all(r["all_equal"] for r in records)
    failing = [r for r in perturbed if not r["all_equal"]]
    for rational in (True, False):
        assert any(
            all(("@" not in v) == rational for v in r["values"]) and len(set(r["values"])) > 1
            for r in failing
        )
    assert any(r["all_equal"] for r in perturbed)


@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_sweep_report_equals_the_whole_document(capsys, fmt, perturb):
    doc = _shapes(perturb)
    code, out = _written(capsys, "sweep", cli.SweepConfig(**SHAPES), perturb, fmt)
    assert code == (1 if perturb else 0)
    _same_text(out, {"json": _json, "csv": _csv, "text": _verify_text}[fmt](doc))


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_report_equals_the_whole_document(capsys, fmt):
    # verify echoes its explicit ys; T8 takes none of them
    config = cli.SweepConfig(
        moduli=(5,), theorems=("T1", "T8"), n_max=2, weights=((2, 3, 5),),
        ys_pool=(), ys=(F(-3, 4), F(0)),
    )
    doc = _whole("verify", config, False)
    assert doc["config"]["ys"] == ["-3/4", "0"]
    code, out = _written(capsys, "verify", config, False, fmt)
    assert code == 0
    _same_text(out, {"json": _json, "csv": _csv, "text": _verify_text}[fmt](doc))


# -- lambda, chars and compute -----------------------------------------------


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _check_run(capsys, argv, expected_code, expected):
    code, out = _run(capsys, argv)
    assert code == expected_code
    _same_text(out, expected)


@pytest.mark.parametrize("route", ["closed", "both"])
def test_lambda_report_equals_the_whole_document(capsys, route):
    chi = enumerate_characters(11)[1]  # order 10, phi = 4
    spec = LambdaSpec("L23", 1, (2, 3, 5), (F(1, 2), F(-2, 3)))
    argv = ["lambda", "--family", "L23", "--index", "1", "--modulus", "11", "--char", "1",
            "--weights", "2,3,5", "--ys", "1/2,-2/3", "--order", "6", "--route", route]
    series = [lambda_series(spec, chi, 6)]
    if route == "both":
        series.append(lambda_series_from_integrals(spec, chi, 6))
    records = []
    for n in range(7):
        rec = {"n": n, "egf_coeff": str(series[0].egf_coeff(n))}
        if route == "both":
            rec["routes_agree"] = series[0].egf_coeff(n) == series[1].egf_coeff(n)
        records.append(rec)
    summary = {"order": 6}
    if route == "both":
        summary["routes_agree"] = all(r["routes_agree"] for r in records)
    config = {"family": "L23", "index": 1, "modulus": 11, "char": 1, "weights": [2, 3, 5],
              "ys": ["1/2", "-2/3"], "order": 6, "route": route}
    doc = _doc("lambda", config, records, summary)
    text = "L23^1 d=11 chi=1 w=(2, 3, 5) ys=('1/2', '-2/3')\n" + "".join(
        f"  n={r['n']}: {r['egf_coeff']}\n" for r in records
    )
    for fmt, expected in (("json", _json(doc)), ("csv", _csv(doc)), ("text", text)):
        _check_run(capsys, argv + ["--format", fmt], 0, expected)


def test_lambda_without_ys_has_an_empty_list(capsys):
    code, out = _run(capsys, ["lambda", "--family", "L12", "--index", "1", "--modulus", "1",
                              "--order", "2", "--format", "json"])
    assert code == 0
    assert '    "ys": []\n' in out
    _same_text(out, _json(json.loads(out)))


@pytest.mark.parametrize("modulus, primitive_only", [(8, False), (9, True), (2, True)])
def test_chars_report_equals_the_whole_document(capsys, modulus, primitive_only):
    chars = [c for c in enumerate_characters(modulus) if c.primitive or not primitive_only]
    records = [
        {"modulus": c.modulus, "label": c.label, "order": c.order, "conductor": c.conductor,
         "primitive": c.primitive, "values": [str(v) for v in c.values]}
        for c in chars
    ]
    doc = _doc("chars", {"modulus": modulus, "primitive_only": primitive_only}, records,
               {"characters": len(records)})
    lines = [f"{len(records)} characters mod {modulus}"]
    for rec in records:
        flag = "primitive" if rec["primitive"] else f"induced from {rec['conductor']}"
        lines.append(f"  label {rec['label']}: order {rec['order']}, conductor "
                     f"{rec['conductor']} ({flag}); values [{', '.join(rec['values'])}]")
    argv = ["chars", "--modulus", str(modulus)] + (["--primitive-only"] if primitive_only else [])
    for fmt, expected in (("json", _json(doc)), ("csv", _csv(doc)),
                          ("text", "\n".join(lines) + "\n")):
        _check_run(capsys, argv + ["--format", fmt], 0, expected)
    if not records:  # mod 2 has no primitive character
        assert '"records": [],' in _json(doc)


def test_compute_report_equals_the_whole_document(capsys):
    value = gen_bernoulli_poly(enumerate_characters(5)[1], 3, F(-1, 2))  # order 4
    record = {"kind": "bernoulli-poly", "modulus": 5, "char": 1,
              "params": {"n": 3, "x": "-1/2"}, "value": str(value), "rational": None}
    doc = _doc("compute", {"n": 3, "x": "-1/2", "kind": "bernoulli-poly"}, [record], {})
    argv = ["compute", "bernoulli-poly", "--modulus", "5", "--char", "1", "-n", "3",
            "--x", "-1/2"]
    _check_run(capsys, argv + ["--format", "json"], 0, _json(doc))
    _check_run(capsys, argv + ["--format", "csv"], 0, _csv(doc))


# -- records rendered in pool workers ----------------------------------------

FOLDED = ["sweep", "--moduli", "9,12", "--allow-imprimitive", "--theorems", "T3,T5,T6",
          "--n-max", "2", "--weights", "1,2,3;2,2,3", "--ys=-1/2,0,2/3", "--perturb"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pool_report_matches_serial(monkeypatch, capsys):
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 2)  # a pool on any machine
    for fmt in ("json", "csv", "text"):
        code, serial = _run(capsys, FOLDED + ["--format", fmt])
        assert code == 1
        _check_run(capsys, FOLDED + ["--format", fmt, "--jobs", "2"], 1, serial)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pool_applies_a_render_callable_that_does_not_pickle(monkeypatch):
    # a forked worker holds the render callable already, so a closure, which
    # pickle refuses, renders in the workers what it renders serially
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 2)  # a pool on any machine
    seen = []

    def render(report):
        seen.append(report)
        return cli._render_sweep_record("csv", report)

    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(render)
    instances = cli.build_instances(cli.SweepConfig(
        moduli=(5, 7), theorems=("T3", "T7"), n_max=2, weights=((1, 2, 3),)
    ))
    serial = identities.sweep_verify(instances, jobs=1, render=render)
    assert len(seen) == len(instances)
    pooled = identities.sweep_verify(instances, jobs=2, render=render)
    assert len(seen) == len(instances)  # every pooled record was rendered in a worker
    assert [r.text for r in pooled] == [r.text for r in serial]
    flags = [(r.all_equal, r.first_mismatch, r.extras) for r in serial]
    assert [(r.all_equal, r.first_mismatch, r.extras) for r in pooled] == flags


class _Classes(pickle.Unpickler):
    """Unpickles while recording every class the pickle names."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.names = set()

    def find_class(self, module, name):
        self.names.add(f"{module}.{name}")
        return super().find_class(module, name)


def test_worker_result_carries_only_text_and_flags():
    # one task: mod 11 char 1 (order 10) verified, and the reports of its
    # three Galois conjugates derived from it
    chars = enumerate_characters(11)
    chi = chars[1]
    orbits = _galois_orbits(chars)
    conjugates = [(psi, k) for psi, (rep, k) in orbits.items() if rep is chi and psi is not chi]
    assert len(conjugates) == 3

    def instance_of(psi):
        return TheoremInstance("T3", psi, 3, (1, 2, 3), (F(-1, 2), F(2, 3)))

    instance = instance_of(chi)
    render = functools.partial(cli._render_sweep_record, "json")
    task = (instance, [(instance_of(psi), k) for psi, k in conjugates], False, render)
    result = identities._verify_star(task)
    unpickler = _Classes(pickle.dumps(result))
    shipped = unpickler.load()
    assert unpickler.names == {"bernsym.identities.VerificationReport"}
    assert len(shipped) == 1 + len(conjugates)
    for report, psi in zip(shipped, [chi] + [psi for psi, _ in conjugates]):
        full = identities.verify_theorem(instance_of(psi))
        assert report.instance is None and report.values is None
        assert json.loads(report.text) == _record(full)
        assert report.text == render(full)
        assert (report.all_equal, report.first_mismatch, report.extras) == (
            full.all_equal, full.first_mismatch, full.extras
        )
