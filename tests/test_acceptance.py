"""Acceptance gate: every criterion runs at its stated scope, exactly.

All checks are exact (zero tolerance).  Each test prints one
"ACCEPTANCE <name>: PASS|FAIL" line; run with -s to see them live.
The heavyweight theorem grid is computed once in a module fixture.
Set BERNSYM_TEST_JOBS to parallelize the grid across processes.
"""

import os
from fractions import Fraction

import pytest

import oracles
from bernsym.bernoulli import (
    gen_bernoulli_number,
    gen_bernoulli_poly,
    power_sum,
)
from bernsym.characters import enumerate_characters, primitive_characters
from bernsym.cli import SweepConfig, build_instances, y_tuples
from bernsym.cyclotomic import CycloElement
from bernsym.identities import (
    EXPANSION_LABELS,
    THEOREM_IDS,
    LambdaSpec,
    TheoremInstance,
    expansion_sum,
    lambda_series,
    lambda_series_from_integrals,
    sweep_verify,
    theorem_y_arity,
    verify_theorem,
)

F = Fraction

GRID_MODULI = (1, 3, 4, 5, 7, 8)
GRID_WEIGHTS = ((1, 1, 1), (1, 2, 3), (2, 3, 5), (3, 4, 7))
Y_POOL = (F(0), F(1, 2), F(2, 3))
N_MAX = 10
ORDER = 12
JOBS = int(os.environ.get("BERNSYM_TEST_JOBS", "1"))

ALL_SPECS = tuple(
    [("L23", i) for i in range(4)] + [("L13", i) for i in range(4)] + [("L12", 0), ("L12", 1)]
)
PERMS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


def _criterion(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def _grid_characters():
    chars = []
    for d in GRID_MODULI:
        chars.extend(primitive_characters(d))
    return chars


def _ys_for(family, index):
    arity = LambdaSpec.y_arity(family, index)
    return tuple((F(1, 2), F(2, 3), F(0))[:arity])


def _permute(w, perm):
    return tuple(w[p - 1] for p in perm)


@pytest.fixture(scope="module")
def theorem_reports():
    reports = {}
    for tid in THEOREM_IDS:
        config = SweepConfig(
            moduli=GRID_MODULI,
            theorems=(tid,),
            n_max=N_MAX,
            weights=GRID_WEIGHTS,
            ys_pool=Y_POOL,
        )
        reports[tid] = sweep_verify(build_instances(config), jobs=JOBS)
    return reports


def test_theorem_suite(theorem_reports):
    failures = []
    total = 0
    for tid, reports in theorem_reports.items():
        total += len(reports)
        failures.extend(r for r in reports if not r.all_equal)
        # sampling requirement: at least 3 y tuples per theorem with y slots
        if theorem_y_arity(tid) > 0:
            assert len(y_tuples(theorem_y_arity(tid), Y_POOL)) >= 3
    print(f"theorem grid: {total} instances")
    _criterion("theorem-suite-T1-T8", not failures)


def test_section2_section3_consistency():
    ok = True
    for chi in _grid_characters():
        for w in GRID_WEIGHTS:
            series_cache = {}
            for label in EXPANSION_LABELS:
                family = "L23" if label.startswith("L23") else "L12"
                index = int(label.split(".")[1][0])
                ys = _ys_for(family, index)
                key = (family, index)
                if key not in series_cache:
                    spec = LambdaSpec(family, index, w, ys)
                    series_cache[key] = (
                        lambda_series(spec, chi, N_MAX + 4),
                        lambda_series_from_integrals(spec, chi, N_MAX + 4),
                    )
                closed, integrals = series_cache[key]
                # slack coefficients above n_max stay cross-checked between routes
                if not (closed == integrals):
                    ok = False
                for n in range(N_MAX + 1):
                    if not (
                        closed.egf_coeff(n) == expansion_sum(label, n, chi, w, ys)
                    ):
                        ok = False
    _criterion("section2-section3-consistency", ok)


def test_permutation_invariance():
    ok = True
    for chi in _grid_characters():
        for w in GRID_WEIGHTS:
            for family, index in ALL_SPECS:
                ys = _ys_for(family, index)
                base = lambda_series(LambdaSpec(family, index, w, ys), chi, ORDER)
                for perm in PERMS[1:]:
                    permuted = lambda_series(
                        LambdaSpec(family, index, _permute(w, perm), ys), chi, ORDER
                    )
                    if not (permuted == base):
                        ok = False
    _criterion("permutation-invariance", ok)


def test_dual_route_equality():
    ok = True
    for chi in _grid_characters():
        for w in GRID_WEIGHTS:
            for family, index in ALL_SPECS:
                ys = _ys_for(family, index)
                spec = LambdaSpec(family, index, w, ys)
                if not (
                    lambda_series(spec, chi, ORDER)
                    == lambda_series_from_integrals(spec, chi, ORDER)
                ):
                    ok = False
    _criterion("dual-route-equality", ok)


def test_bernoulli_oracle():
    # the ordinary B_n are the modulus-1 character's
    trivial = enumerate_characters(1)[0]

    def ordinary_bernoulli(n):
        return gen_bernoulli_number(trivial, n)

    ok = ordinary_bernoulli(1) == F(-1, 2) and ordinary_bernoulli(4) == F(-1, 30)
    table = oracles.bernoulli_recurrence(16)
    for n in range(13):
        if ordinary_bernoulli(n) != table[n]:
            ok = False
    for d in range(1, 13):
        for chi in primitive_characters(d):
            for n in range(17):
                if not (
                    gen_bernoulli_number(chi, n)
                    == oracles.gen_bernoulli_number(chi, n, table)
                ):
                    ok = False
    _criterion("bernoulli-oracle", ok)


def test_power_sum_identity():
    ok = True
    for d in range(1, 9):
        for chi in enumerate_characters(d):
            for w in range(1, 5):
                series = oracles.power_sum_series(chi, w, 12)
                for k in range(13):
                    if not (series.egf_coeff(k) == power_sum(chi, k, w * d - 1)):
                        ok = False
    chi4 = enumerate_characters(4)[1]
    if not (power_sum(chi4, 2, 7) == -32):
        ok = False
    _criterion("power-sum-identity", ok)


def test_known_value_spot_checks():
    chi4 = enumerate_characters(4)[1]
    trivial = enumerate_characters(1)[0]
    ok = (
        gen_bernoulli_number(chi4, 1) == F(-1, 2)
        and gen_bernoulli_number(chi4, 2) == 0
        and gen_bernoulli_number(chi4, 3) == F(3, 2)
    )
    rep = verify_theorem(TheoremInstance("T8", trivial, 1, (1, 2, 3), ()))
    if not (rep.all_equal and rep.values[0] == F(5, 2)):
        ok = False
    _criterion("known-value-spot-checks", ok)


def test_shift_difference_law():
    ok = True
    xs = (F(0), F(1, 2), F(2, 3))
    for d in range(1, 9):
        for chi in enumerate_characters(d):
            for w in range(1, 4):
                for n in range(1, 11):
                    for x in xs:
                        lhs = gen_bernoulli_poly(chi, n, x + w * d) - gen_bernoulli_poly(chi, n, x)
                        rhs = CycloElement.zero(chi.order)
                        for a in range(w * d):
                            v = chi.values[a % chi.modulus]
                            if v != 0:
                                rhs = rhs + v.scale((x + a) ** (n - 1))
                        if not (lhs == rhs.scale(n)):
                            ok = False
    _criterion("shift-difference-law", ok)


def test_theorem3_typo_probe(theorem_reports):
    reports = theorem_reports["T3"]
    orbit_ok = all(r.all_equal for r in reports)
    probes = [r for r in reports if r.extras.get("printed_line5_applies")]
    matched = sum(1 for r in probes if r.extras.get("printed_line5_matches"))
    mismatched = len(probes) - matched
    assert probes, "no instance with w2 != w3 probed the printed variant"
    if mismatched:
        verdict = (
            f"FAILS symmetry on {mismatched} of {len(probes)} applicable instances"
        )
    else:
        verdict = f"passes on all {len(probes)} applicable instances"
    print(
        "FINDING: orbit-rule T3 passes on the full grid; the printed fifth-line "
        f"variant (shift ratio w1/w2 inside the w3 block) {verdict}."
    )
    _criterion("theorem3-typo-probe", orbit_ok)


def test_mutation_sensitivity():
    trivial = enumerate_characters(1)[0]
    ok = True
    for tid in THEOREM_IDS:
        ys = tuple((F(1, 2), F(2, 3), F(0))[: theorem_y_arity(tid)])
        broke = False
        for n in range(5):
            rep = verify_theorem(
                TheoremInstance(tid, trivial, n, (1, 2, 3), ys), perturb=True
            )
            if not rep.all_equal:
                broke = True
                break
        if not broke:
            print(f"perturbed {tid} never failed")
            ok = False
    _criterion("mutation-sensitivity", ok)
