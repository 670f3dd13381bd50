"""The exact-output checks of one repetition.

A sweep's records must all be equal, its collapsed variants too, its
summary must match its records and its exit status, and the values of
the trivial character must match the independent oracle.  A lambda
call must exit 0 with both routes agreeing on every coefficient, and
for L23 index 0 on the trivial character match the oracle as well.
Checks across repetitions (sha256, probe counts) are made by run.py.
"""

import json

import oracle


def check_sweep(code, out, expected):
    """Failed instances of one sweep, and its T3 printed-line-5 probe counts.

    An instance fails when its expressions differ, when a collapsed
    variant differs, or when the oracle disagrees with a value of the
    trivial character.  A sweep whose exit status or summary does not
    match its records fails every instance.
    """
    try:
        doc = json.loads(out)
        records, summary = doc["records"], doc["summary"]
    except (ValueError, KeyError, TypeError):
        return expected, None
    bad = set()
    for i, rec in enumerate(records):
        if not rec["all_equal"] or rec["extras"].get("collapsed_variants_equal") is False:
            bad.add(i)
        elif rec["modulus"] == 1 and rec["theorem"] == "T1":
            value = oracle.l23_index0(rec["n"], rec["weights"], rec["ys"])
            if rec["values"][0] != str(value):
                bad.add(i)
    consistent = (
        len(records) == expected
        and summary.get("instances") == expected
        and summary.get("failures") == sum(1 for r in records if not r["all_equal"])
        and summary.get("collapsed_variants_ok") is (not any(
            r["extras"].get("collapsed_variants_equal") is False for r in records
        ))
        and code == (0 if summary.get("failures") == 0 else 1)
    )
    failed = len(bad) if consistent else expected
    return failed, summary.get("t3_printed_line5")


def check_lambda(code, out, pair, order) -> bool:
    """Whether one dual-route lambda call is exactly right."""
    if code != 0:
        return False
    try:
        doc = json.loads(out)
        records, summary = doc["records"], doc["summary"]
    except (ValueError, KeyError, TypeError):
        return False
    if summary.get("routes_agree") is not True or len(records) != order + 1:
        return False
    if any(rec.get("routes_agree") is not True for rec in records):
        return False
    if pair["family"] == "L23" and pair["index"] == 0 and pair["modulus"] == 1:
        for rec in records:
            if rec["egf_coeff"] != str(oracle.l23_index0(rec["n"], pair["weights"], pair["ys"])):
                return False
    return True
