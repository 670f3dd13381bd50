"""Command-line surface: exact values, series dumps, identity verification.

All output is exact (rationals as "p/q", cyclotomic values as coordinate
vectors); reports carry the tool version, an echo of the effective
configuration, per-instance records and summary counts, and identical
configurations produce byte-identical output.  Exit status for verify and
sweep runs is 0 exactly when no instance failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .bernoulli import gen_bernoulli_number, gen_bernoulli_poly, power_sum
from .characters import DirichletChar, enumerate_characters, primitive_characters
from .identities import (
    THEOREM_IDS,
    LambdaSpec,
    TheoremInstance,
    VerificationReport,
    lambda_series,
    lambda_series_from_integrals,
    sweep_verify,
    theorem_y_arity,
)

# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    # outside input is held to Python's digit cap on int <-> str conversion;
    # exponent notation (1e9999) passes it on parsing, so the value is
    # checked too: str raises ValueError past the cap
    value = Fraction(text)
    str(value)
    return value


def _fraction(text: str) -> Fraction:
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}") from exc


def _int_at_least(least: int, kind: str):
    # the parser of a flag that takes an integer >= least, a kind integer
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonneg_int = _int_at_least(0, "nonnegative")


def _int_list(text: str, expected: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None


def _positive_int_list(text: str) -> tuple[int, ...]:
    expected = "positive integers"
    values = _int_list(text, expected)
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return values


def _weights(text: str) -> tuple[int, int, int]:
    expected = "three positive weights w1,w2,w3"
    vals = _int_list(text, expected)
    if len(vals) != 3 or min(vals) < 1:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return vals  # type: ignore[return-value]


def _weight_list(text: str) -> tuple[tuple[int, int, int], ...]:
    return tuple(_weights(part) for part in text.split(";") if part != "")


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(",") if part != "")


def _theorem_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip().upper() for part in text.split(",") if part.strip())
    for name in names:
        if name not in THEOREM_IDS:
            raise argparse.ArgumentTypeError(f"unknown theorem {name!r}")
    if not names:
        raise argparse.ArgumentTypeError("at least one theorem is required")
    return names


# ---------------------------------------------------------------------------
# sweep configuration
# ---------------------------------------------------------------------------


def _rule(kind: type, depth: int, default, omit_none: bool = False):
    """A SweepConfig field whose elements are of type kind, nested depth tuples deep.

    kind Fraction is a rational: an int or a Fraction.  The field may be
    None exactly when its default is None; omit_none leaves a None value
    out of the echo.
    """
    return field(default=default, metadata={"rule": (kind, depth), "omit_none": omit_none})


@dataclass
class SweepConfig:
    # Each field's type rule serves the exact-type check, the JSON reader
    # and the echo: a bool is not an int, and a float is not a rational.
    moduli: tuple[int, ...] = _rule(int, 1, (1, 3, 4, 5, 7, 8))
    theorems: tuple[str, ...] = _rule(str, 1, THEOREM_IDS)
    n_max: int = _rule(int, 0, 10)
    weights: tuple[tuple[int, int, int], ...] = _rule(
        int, 2, ((1, 1, 1), (1, 2, 3), (2, 3, 5), (3, 4, 7))
    )
    ys_pool: tuple[Fraction, ...] = _rule(
        Fraction, 1, (Fraction(0), Fraction(1, 2), Fraction(2, 3))
    )
    allow_imprimitive: bool = _rule(bool, 0, False)
    char_labels: tuple[int, ...] | None = _rule(int, 1, None)
    # explicit y-arguments: when set, each theorem takes a zero-padded
    # prefix of them instead of rotations of ys_pool; echoed only when set
    ys: tuple[Fraction, ...] | None = _rule(Fraction, 1, None, omit_none=True)

    def _check_types(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.default is None or _conforms(value, *f.metadata["rule"])):
                raise ValueError(f"config field {f.name!r} has the wrong type: {value!r}")

    def validate(self):
        self._check_types()
        if not self.moduli or min(self.moduli) < 1:
            raise ValueError("moduli must be positive integers")
        if self.n_max < 0:
            raise ValueError("n-max must be nonnegative")
        if not self.theorems:
            raise ValueError("at least one theorem must be selected")
        for tid in self.theorems:
            if tid not in THEOREM_IDS:
                raise ValueError(f"unknown theorem {tid!r}")
        for w in self.weights:
            if len(w) != 3 or min(w) < 1:
                raise ValueError(f"bad weight tuple {w!r}")
        if self.char_labels is not None and len(self.moduli) != 1:
            raise ValueError("explicit character labels require a single modulus")
        # a repeated grid value would verify the same instances twice
        for axis in ("moduli", "theorems", "weights", "ys_pool", "char_labels"):
            seen = set()
            for value in getattr(self, axis) or ():
                if value in seen:
                    shown = ",".join(map(str, value)) if axis == "weights" else value
                    raise ValueError(f"{axis} lists the value {shown} more than once")
                seen.add(value)
        if self.ys is None and not self.ys_pool:
            takers = [tid for tid in self.theorems if theorem_y_arity(tid)]
            if takers:
                raise ValueError(
                    f"the y-value pool (ys_pool, sweep --ys) is empty, "
                    f"but {takers[0]} takes y-arguments"
                )
        if self.ys is not None:
            max_arity = max(theorem_y_arity(tid) for tid in self.theorems)
            if len(self.ys) > max_arity:
                raise ValueError(
                    f"selected theorems take at most {max_arity} y-arguments, "
                    f"got {len(self.ys)}"
                )

    def to_dict(self) -> dict:
        return {
            f.name: _to_json(getattr(self, f.name), *f.metadata["rule"])
            for f in fields(self)
            if not (f.metadata["omit_none"] and getattr(self, f.name) is None)
        }

    @classmethod
    def from_dict(cls, data) -> SweepConfig:
        """Read a config object decoded from JSON; malformed input raises ValueError.

        Absent fields keep their defaults.  The type check runs here, so a
        wrongly typed field is refused even if a flag overrides it later.
        """
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        rules = {f.name: f.metadata["rule"] for f in fields(cls)}
        values = {}
        for key, value in data.items():
            if key not in rules:
                raise ValueError(f"unknown config field {key!r}")
            try:
                values[key] = _from_json(value, *rules[key])
            except (ValueError, ArithmeticError) as exc:
                raise ValueError(f"config field {key!r}: {exc}") from None
        config = cls(**values)
        config._check_types()
        return config


def _conforms(value, kind: type, depth: int) -> bool:
    if depth:
        return type(value) is tuple and all(_conforms(v, kind, depth - 1) for v in value)
    return type(value) is kind or kind is Fraction and type(value) is int


def _from_json(value, kind: type, depth: int):
    # shapes only: JSON lists as tuples and "p/q" strings as Fractions
    if depth and type(value) is list:
        return tuple(_from_json(v, kind, depth - 1) for v in value)
    return _rational(value) if kind is Fraction and type(value) is str else value


def _to_json(value, kind: type, depth: int):
    if value is None:
        return None
    if depth:
        return [_to_json(v, kind, depth - 1) for v in value]
    return str(value) if kind is Fraction else value


def y_tuples(arity: int, pool) -> list[tuple[Fraction, ...]]:
    """Deterministic y-argument tuples: rotations of the value pool."""
    pool = [Fraction(y) for y in pool]
    if arity == 0 or not pool:
        return [()]
    return [
        tuple(pool[(i + j) % len(pool)] for j in range(arity))
        for i in range(len(pool))
    ]


def _characters_for(d: int, allow_imprimitive: bool, labels=None) -> list[DirichletChar]:
    if labels is None:
        return enumerate_characters(d) if allow_imprimitive else primitive_characters(d)
    by_label = {chi.label: chi for chi in enumerate_characters(d)}
    missing = [l for l in labels if l not in by_label]
    if missing:
        raise ValueError(f"no character with label {missing[0]} mod {d}")
    return [by_label[l] for l in labels]


def build_instances(config: SweepConfig) -> list[TheoremInstance]:
    """Expand a sweep configuration into a deterministic instance grid."""
    config.validate()
    instances = []
    for tid in config.theorems:
        arity = theorem_y_arity(tid)
        if config.ys is None:
            tuples = y_tuples(arity, config.ys_pool)
        else:
            tuples = [(config.ys + (Fraction(0),) * arity)[:arity]]
        for d in config.moduli:
            for chi in _characters_for(d, config.allow_imprimitive, config.char_labels):
                for w in config.weights:
                    for ys in tuples:
                        for n in range(config.n_max + 1):
                            instances.append(TheoremInstance(tid, chi, n, w, ys))
    return instances


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
#
# A report is written record by record.  Each record is rendered once to its
# final text: in json, an object indented for its place in the document, so
# that the whole is json.dumps(document, indent=2, sort_keys=True) + "\n"
# byte for byte; in csv, one row; in text, its lines.  A sweep's records are
# rendered by sweep_verify in the process that verified them, so only their
# text and verdict flags reach the writer.

_TOOL = {"name": "bernsym", "version": __version__}


def _any_length(fn):
    """fn writes computed values: let str() give ints of any length while it runs.

    Python caps int-to-str conversion at 4300 digits by default, a guard for
    outside input; argv and config files are still parsed under that cap.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before Python 3.10.7
        return fn

    @functools.wraps(fn)
    def at_any_length(*args):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args)
        finally:
            sys.set_int_max_str_digits(saved)

    return at_any_length


# the columns of a sweep record, in the order of its csv header
_SWEEP_FIELDS = (
    "theorem", "modulus", "char", "char_order", "conductor", "n", "weights", "ys",
    "values", "all_equal", "first_mismatch", "extras",
)
# a json sweep record as _json writes it two levels deep: its keys sorted,
# each filled in with the json text of its column, given in key order
_SWEEP_JSON = "{" + ",".join(f'\n      "{k}": %s' for k in sorted(_SWEEP_FIELDS)) + "\n    }"


def _sweep_list(texts: list) -> str:
    # json texts as a list in a sweep record, _json(..., 3) of the values
    return "[\n        " + ",\n        ".join(texts) + "\n      ]" if texts else "[]"


def _json(value, level: int = 0) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it `level` deep.

    It writes every json report but the records of sweep and verify, which
    _render_sweep_record fills into _SWEEP_JSON.
    """
    if type(value) is str:
        return _quote(value)
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return int.__repr__(value)
    if not value:
        return "{}" if type(value) is dict else "[]"
    inner = level + 1
    if type(value) is dict:
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        opening, closing = "{", "}"
    else:
        items = [_json(v, inner) for v in value]
        opening, closing = "[", "]"
    indent = "\n" + "  " * inner
    return f"{opening}{indent}{(',' + indent).join(items)}\n{'  ' * level}{closing}"


def _csv_row(values) -> str:
    # lists and objects are written as compact JSON cells
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v for v in values
    )
    return out.getvalue()


def _render_record(fmt: str, rec: dict, text) -> str:
    if fmt == "json":
        return _json(rec, 2)  # two levels deep, in the document's record list
    if fmt == "csv":
        return _csv_row(rec.values())
    return text(rec)


def _write_report(fmt, command, config, fields, texts, summary, head="", tail="") -> None:
    """Write a report from its records, each rendered by _render_record as fmt.

    csv has a header row and no summary; text has head before the records
    and tail after them.
    """
    write = sys.stdout.write
    if fmt == "json":
        # the top-level keys in sorted order: command, config, records, summary, tool
        write(f'{{\n  "command": {_json(command, 1)},\n  "config": {_json(config, 1)},\n'
              '  "records": [')
        empty = True
        for text in texts:
            write("\n    " if empty else ",\n    ")
            write(text)
            empty = False
        write("]" if empty else "\n  ]")
        write(f',\n  "summary": {_json(summary, 1)},\n  "tool": {_json(_TOOL, 1)}\n}}\n')
    elif fmt == "csv":
        empty = True
        for text in texts:
            if empty:
                write(_csv_row(fields))
                empty = False
            write(text)
    else:
        write(head)
        for text in texts:
            write(text)
        write(tail)


def _emit(fmt, command, config, records, summary, text, head="") -> None:
    # a report whose records are in hand as dicts
    texts = [_render_record(fmt, rec, text) for rec in records]
    fields = list(records[0]) if records else []
    _write_report(fmt, command, config, fields, texts, summary, head)


def _sweep_text(rec: dict) -> str:
    w = ",".join(str(x) for x in rec["weights"])
    ys = ",".join(rec["ys"]) if rec["ys"] else "-"
    status = "PASS" if rec["all_equal"] else "FAIL"
    lines = (
        f"{rec['theorem']} d={rec['modulus']} chi={rec['char']} "
        f"n={rec['n']} w=({w}) ys=({ys}) {status}\n"
    )
    mm = rec["first_mismatch"]
    if mm is not None:
        lines += (
            f"  mismatch: expr[{mm['left_index']}] = {mm['left']}  !=  "
            f"expr[{mm['right_index']}] = {mm['right']}\n"
        )
    return lines


@_any_length
def _render_sweep_record(fmt: str, report: VerificationReport) -> str:
    """One sweep record rendered as fmt, in the process that verified it.

    In json the record is _SWEEP_JSON filled in: the columns of fixed shape
    are written here, and first_mismatch and extras by _json.  Its text
    equals _json of the record's dict, which csv and text still build.  It
    lifts the digit cap itself, since a pool worker need not inherit the
    caller's setting.
    """
    inst, chi = report.instance, report.instance.chi
    if report.all_equal:  # equal values have equal text: one, repeated
        values = [str(report.values[0])] * len(report.values)
    else:
        values = [str(v) for v in report.values]
    mismatch = None
    if report.first_mismatch is not None:
        i, j = report.first_mismatch
        mismatch = {"left_index": i, "right_index": j, "left": values[i], "right": values[j]}
    if fmt == "json":
        if report.all_equal:
            quoted = [_quote(values[0])] * len(values)
        else:
            quoted = [_quote(v) for v in values]
        # all_equal, char, char_order, conductor, extras, first_mismatch,
        # modulus, n, theorem, values, weights, ys
        return _SWEEP_JSON % (
            "true" if report.all_equal else "false", str(chi.label), str(chi.order),
            str(chi.conductor), _json(report.extras, 3), _json(mismatch, 3), str(chi.modulus),
            str(inst.n), _quote(inst.theorem), _sweep_list(quoted),
            _sweep_list([str(w) for w in inst.weights]),
            _sweep_list([_quote(str(y)) for y in inst.ys]),
        )
    rec = dict(zip(_SWEEP_FIELDS, (
        inst.theorem, chi.modulus, chi.label, chi.order, chi.conductor, inst.n,
        list(inst.weights), [str(y) for y in inst.ys], values, report.all_equal,
        mismatch, report.extras,
    )))
    return _render_record(fmt, rec, _sweep_text)


def _summarize(reports: list[VerificationReport]) -> dict:
    # counted from each report's verdict flags
    failures = sum(1 for r in reports if not r.all_equal)
    summary = {"instances": len(reports), "failures": failures}
    probes = [r for r in reports if r.extras.get("printed_line5_applies")]
    if probes:
        matched = sum(1 for r in probes if r.extras.get("printed_line5_matches"))
        summary["t3_printed_line5"] = {
            "applicable": len(probes),
            "matched": matched,
            "mismatched": len(probes) - matched,
        }
    collapses = [r for r in reports if "collapsed_variants_equal" in r.extras]
    if collapses:
        summary["collapsed_variants_ok"] = all(
            r.extras["collapsed_variants_equal"] for r in collapses
        )
    return summary


def _summary_text(summary: dict) -> str:
    lines = [f"checked {summary['instances']} instances: {summary['failures']} failures"]
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_chars(args) -> int:
    records = [
        {
            "modulus": chi.modulus,
            "label": chi.label,
            "order": chi.order,
            "conductor": chi.conductor,
            "primitive": chi.primitive,
            "values": [str(v) for v in chi.values],
        }
        for chi in _characters_for(args.modulus, not args.primitive_only)
    ]

    def text(rec):
        flag = "primitive" if rec["primitive"] else f"induced from {rec['conductor']}"
        values = ", ".join(rec["values"])
        return (
            f"  label {rec['label']}: order {rec['order']}, conductor "
            f"{rec['conductor']} ({flag}); values [{values}]\n"
        )

    _emit(
        args.format,
        "chars",
        {"modulus": args.modulus, "primitive_only": args.primitive_only},
        records,
        {"characters": len(records)},
        text,
        head=f"{len(records)} characters mod {args.modulus}\n",
    )
    return 0


@_any_length
def cmd_compute(args) -> int:
    (chi,) = _characters_for(args.modulus, True, (args.char,))
    if args.kind == "bernoulli-number":
        value = gen_bernoulli_number(chi, args.n)
        params = {"n": args.n}
    elif args.kind == "bernoulli-poly":
        x = args.x if args.x is not None else Fraction(0)
        value = gen_bernoulli_poly(chi, args.n, x)
        params = {"n": args.n, "x": str(x)}
    else:  # power-sum
        if args.k is None:
            raise ValueError("power-sum requires -k (the exponent)")
        value = power_sum(chi, args.k, args.n)
        params = {"k": args.k, "n": args.n}
    record = {
        "kind": args.kind,
        "modulus": args.modulus,
        "char": args.char,
        "params": params,
        "value": str(value),
        "rational": str(value.as_rational()) if value.is_rational() else None,
    }

    def text(rec):
        return f"{rec['kind']} d={rec['modulus']} chi={rec['char']} {rec['params']}: {rec['value']}\n"

    _emit(args.format, "compute", params | {"kind": args.kind}, [record], {}, text)
    return 0


@_any_length
def cmd_lambda(args) -> int:
    (chi,) = _characters_for(args.modulus, True, (args.char,))
    ys_needed = LambdaSpec.y_arity(args.family, args.index)
    ys = list(args.ys or ())
    ys += [Fraction(0)] * (ys_needed - len(ys))
    spec = LambdaSpec(args.family, args.index, args.weights, tuple(ys))
    records = []
    routes = []
    if args.route in ("closed", "both"):
        routes.append(lambda_series(spec, chi, args.order))
    if args.route in ("integrals", "both"):
        routes.append(lambda_series_from_integrals(spec, chi, args.order))
    # both routes are built over Q(zeta_{chi.order}); they agree at n
    # exactly when row n of their difference, the power-basis numerators
    # of its t^n coefficient, is zero.  Only the first route is converted
    diff = routes[0] - routes[1] if len(routes) == 2 else None
    for n in range(args.order + 1):
        rec = {"n": n, "egf_coeff": str(routes[0].egf_coeff(n))}
        if diff is not None:
            rec["routes_agree"] = not any(diff.rows[n])
        records.append(rec)
    summary = {"order": args.order}
    if len(routes) == 2:
        summary["routes_agree"] = all(r["routes_agree"] for r in records)
    config = {
        "family": args.family,
        "index": args.index,
        "modulus": args.modulus,
        "char": args.char,
        "weights": list(args.weights),
        "ys": [str(y) for y in ys],
        "order": args.order,
        "route": args.route,
    }

    def text(rec):
        suffix = ""
        if "routes_agree" in rec and not rec["routes_agree"]:
            suffix = "  [ROUTE MISMATCH]"
        return f"  n={rec['n']}: {rec['egf_coeff']}{suffix}\n"

    head = (
        f"{args.family}^{args.index} d={args.modulus} chi={args.char} "
        f"w={tuple(args.weights)} ys={tuple(str(y) for y in ys)}\n"
    )
    _emit(args.format, "lambda", config, records, summary, text, head)
    if "routes_agree" in summary and not summary["routes_agree"]:
        return 1
    return 0


def _run_verification(command: str, config: SweepConfig, jobs: int, perturb: bool, fmt: str) -> int:
    instances = build_instances(config)
    if not instances:
        raise ValueError("the grid has no instances, so there is nothing to verify")
    render = functools.partial(_render_sweep_record, fmt)
    reports = sweep_verify(instances, jobs=jobs, perturb=perturb, render=render)
    summary = _summarize(reports)
    _write_report(
        fmt, command, config.to_dict(), _SWEEP_FIELDS, (r.text for r in reports), summary,
        tail=_summary_text(summary),
    )
    return 0 if summary["failures"] == 0 else 1


def cmd_verify(args) -> int:
    config = SweepConfig(
        moduli=(args.modulus,),
        theorems=args.theorem,
        n_max=args.n_max,
        weights=(args.weights,),
        ys_pool=(),
        allow_imprimitive=args.allow_imprimitive,
        char_labels=(args.char,) if args.char is not None else None,
        ys=args.ys or (),
    )
    return _run_verification("verify", config, args.jobs, args.perturb, args.format)


def cmd_sweep(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{args.config}: JSON nested too deeply") from None
        if isinstance(data, dict) and isinstance(data.get("config"), dict):
            data = data["config"]  # accept a full report document
        config = SweepConfig.from_dict(data)
    else:
        config = SweepConfig()
    for field in ("moduli", "theorems", "n_max", "weights"):
        if (value := getattr(args, field)) is not None:
            setattr(config, field, value)
    if args.ys is not None:
        config.ys_pool = args.ys
        config.ys = None
    if args.allow_imprimitive:
        config.allow_imprimitive = True
    return _run_verification("sweep", config, args.jobs, args.perturb, args.format)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernsym",
        description=(
            "Exact verification of three-weight symmetry identities for "
            "generalized Bernoulli polynomials and power sums."
        ),
    )
    parser.add_argument("--version", action="version", version=f"bernsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default: text)",
        )

    def add_run_options(p):
        # the options that verify and sweep share, ahead of --format
        p.add_argument("--allow-imprimitive", action="store_true")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="most worker processes to use (default 1); "
                            "capped at the CPUs this process may use")
        p.add_argument("--perturb", action="store_true",
                       help="sensitivity hook: raise route weight exponents and expect failures")
        add_format(p)

    p = sub.add_parser("chars", help="list the Dirichlet characters mod d")
    p.add_argument("--modulus", "-d", type=_positive_int, required=True)
    p.add_argument("--primitive-only", action="store_true",
                   help="list only primitive characters")
    add_format(p)
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("compute", help="compute one exact value")
    p.add_argument("kind", choices=("bernoulli-number", "bernoulli-poly", "power-sum"))
    p.add_argument("--modulus", "-d", type=_positive_int, required=True)
    p.add_argument("--char", type=int, default=0, help="character label (default 0)")
    p.add_argument("-n", "--n", type=_nonneg_int, required=True,
                   help="degree, or upper summation limit for power-sum")
    p.add_argument("-k", "--k", type=_nonneg_int, default=None,
                   help="power-sum exponent")
    p.add_argument("--x", type=_fraction, default=None,
                   help="rational argument p/q for bernoulli-poly (default 0)")
    add_format(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("lambda", help="dump egf coefficients of a quotient series")
    p.add_argument("--family", choices=("L23", "L13", "L12"), required=True)
    p.add_argument("--index", type=_nonneg_int, required=True)
    p.add_argument("--modulus", "-d", type=_positive_int, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--weights", type=_weights, default=(1, 1, 1),
                   help="w1,w2,w3 (default 1,1,1)")
    p.add_argument("--ys", type=_fraction_list, default=None,
                   help="comma-separated y arguments; missing slots default to 0")
    p.add_argument("--order", "-N", type=_nonneg_int, default=10,
                   help="truncation order (default 10)")
    p.add_argument("--route", choices=("closed", "integrals", "both"), default="both",
                   help="series construction route (default: both, cross-checked)")
    add_format(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("verify", help="verify theorems for one explicit instance family")
    p.add_argument("--theorem", type=_theorem_list, required=True,
                   help="comma-separated subset of " + ",".join(THEOREM_IDS))
    p.add_argument("--modulus", "-d", type=_positive_int, required=True)
    p.add_argument("--char", type=int, default=None,
                   help="character label (default: all primitive characters)")
    p.add_argument("--n-max", type=_nonneg_int, default=5)
    p.add_argument("--weights", type=_weights, default=(1, 2, 3))
    p.add_argument("--ys", type=_fraction_list, default=None,
                   help="per-slot y arguments; missing slots default to 0")
    add_run_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify theorems over a parameter grid")
    p.add_argument("--config", default=None,
                   help="JSON config file (or a previous report; its config is reused)")
    p.add_argument("--moduli", type=_positive_int_list, default=None,
                   help="comma-separated moduli (default 1,3,4,5,7,8)")
    p.add_argument("--theorems", "--theorem", type=_theorem_list, default=None,
                   help="comma-separated subset (default: all)")
    p.add_argument("--n-max", type=_nonneg_int, default=None)
    p.add_argument("--weights", type=_weight_list, default=None,
                   help='semicolon-separated tuples, e.g. "1,1,1;1,2,3"')
    p.add_argument("--ys", type=_fraction_list, default=None,
                   help="y-value pool from which per-theorem tuples are drawn")
    add_run_options(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    # argparse reads a token such as -1/2 as an option string.  No bernsym
    # option starts with "-" and a digit, so such a token is the value of
    # the option before it, passed on as --opt=-1/2.
    out: list[str] = []
    for token in argv:
        after_option = out and out[-1].startswith("-") and "=" not in out[-1]
        if after_option and re.match(r"-[0-9]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main parses with one parser per process: parsing leaves the parser
    # unchanged, and a parser built per call is garbage full of reference
    # cycles.  build_parser still returns a fresh parser to any caller.
    return build_parser()


def _pool_errors() -> tuple:
    # read only when an exception reaches main: a broken pool is an error
    # too, and only a sweep that started a pool has loaded its module
    pool = sys.modules.get("concurrent.futures.process")
    return (pool.BrokenProcessPool,) if pool else ()


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except (ValueError, OSError, *_pool_errors()) as exc:
        parser.exit(2, f"bernsym: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
