import dataclasses
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import comb

import oracles
import pytest

from bernsym import bernoulli, cli, identities
from bernsym.bernoulli import clear_caches, gen_bernoulli_poly
from bernsym.characters import _galois_orbits, enumerate_characters, primitive_characters
from bernsym.cyclotomic import CycloElement, _conjugate
from bernsym.identities import (
    EXPANSION_LABELS,
    THEOREM_IDS,
    LambdaSpec,
    TheoremInstance,
    expansion_sum,
    lambda_series,
    lambda_series_from_integrals,
    sweep_verify,
    theorem_expressions,
    theorem_y_arity,
    verify_theorem,
)
from bernsym.series import TruncatedSeries, exp_series

F = Fraction
CHI4 = enumerate_characters(4)[1]
CHI3 = enumerate_characters(3)[1]
TRIVIAL = enumerate_characters(1)[0]
CHI12_IMPRIMITIVE = enumerate_characters(12)[1]  # induced from mod 3
CHI11_ORDER10 = enumerate_characters(11)[1]  # phi = 4
CHI17_ORDER16 = enumerate_characters(17)[1]  # phi = 8
CHI29_ORDER28 = enumerate_characters(29)[1]  # phi = 12

ALL_SPECS = [("L23", i) for i in range(4)] + [("L13", i) for i in range(4)] + [
    ("L12", 0),
    ("L12", 1),
]

PERMS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


def _permute(w, perm):
    return tuple(w[p - 1] for p in perm)


def _ys_for(family, index, pool=(F(0), F(1, 2))):
    arity = LambdaSpec.y_arity(family, index)
    return tuple(pool[j % len(pool)] for j in range(arity))


# one truncation-order rule for every series builder: a negative order, a
# bool, a float or a string raises ValueError
@pytest.mark.parametrize(
    "build",
    [exp_series, lambda_series, lambda_series_from_integrals],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("order", [-1, True, 2.0, "3"], ids=repr)
def test_series_builders_reject_a_bad_order(build, order):
    if build is exp_series:
        args = (1,)
    else:
        args = (LambdaSpec("L23", 1, (1, 2, 3), (F(1, 2), F(0))), enumerate_characters(5)[1])
    with pytest.raises(ValueError, match="truncation order"):
        build(*args, order)


def test_lambda_spec_validation():
    with pytest.raises(ValueError):
        LambdaSpec("L99", 0, (1, 2, 3), ())
    with pytest.raises(ValueError):
        LambdaSpec("L23", 4, (1, 2, 3), ())
    with pytest.raises(ValueError):
        LambdaSpec("L23", 0, (1, 2), (F(0), F(0), F(0)))
    with pytest.raises(ValueError):
        LambdaSpec("L23", 0, (0, 2, 3), (F(0), F(0), F(0)))
    with pytest.raises(ValueError):
        LambdaSpec("L23", 1, (1, 2, 3), (F(0), F(0), F(0)))  # arity is 2
    with pytest.raises(ValueError):
        LambdaSpec("L12", 1, (1, 2, 3), (F(0),))  # arity is 0
    for weights in ((1.9, 2, 3), (1, F(2), 3), (1, 2, "3"), (1, False, 3)):
        with pytest.raises(ValueError, match="weights must be three positive integers"):
            LambdaSpec("L23", 3, weights, ())


def test_lambda_l12_1_unit_weights_is_constant_one():
    spec = LambdaSpec("L12", 1, (1, 1, 1), ())
    series = lambda_series(spec, TRIVIAL, 8)
    assert series == TruncatedSeries.one(8)


def test_dual_route_examples():
    spec = LambdaSpec("L23", 1, (1, 2, 3), (F(0), F(1, 2)))
    assert lambda_series(spec, CHI4, 10) == lambda_series_from_integrals(spec, CHI4, 10)

    spec = LambdaSpec("L12", 0, (2, 3, 5), (F(1, 2),))
    assert lambda_series(spec, CHI3, 10) == lambda_series_from_integrals(spec, CHI3, 10)


def test_permutation_invariance_order_12():
    for d in (1, 3, 4, 5):
        chi = primitive_characters(d)[0]
        for family, index in ALL_SPECS:
            ys = _ys_for(family, index)
            base = lambda_series(LambdaSpec(family, index, (1, 2, 3), ys), chi, 12)
            for perm in PERMS[1:]:
                permuted = lambda_series(
                    LambdaSpec(family, index, _permute((1, 2, 3), perm), ys), chi, 12
                )
                assert permuted == base, (d, family, index, perm)


def test_dual_route_equality_all_specs():
    for d in (1, 4):
        chi = primitive_characters(d)[0]
        for family, index in ALL_SPECS:
            ys = _ys_for(family, index)
            spec = LambdaSpec(family, index, (1, 2, 3), ys)
            assert lambda_series(spec, chi, 10) == lambda_series_from_integrals(
                spec, chi, 10
            ), (d, family, index)


def test_l13_reduces_to_l23_under_pair_substitution():
    # replacing the weights by their complementary pairs in the pair-scaled
    # family rescales t by w1*w2*w3 in the single-scaled family
    w = (1, 2, 3)
    big = w[0] * w[1] * w[2]
    pair_w = (w[1] * w[2], w[0] * w[2], w[0] * w[1])
    for index in range(4):
        ys = _ys_for("L13", index)
        left = lambda_series(LambdaSpec("L23", index, pair_w, ys), CHI4, 8)
        right = lambda_series(LambdaSpec("L13", index, w, ys), CHI4, 8)
        for k in range(9):
            assert left.coeff(k) == right.coeff(k).scale(Fraction(big) ** k)


def _ys_for_label(label):
    route = identities._ROUTES[label]
    return _ys_for(route.family, route.index, pool=(F(1, 2), F(2, 3), F(0)))


def test_expansion_sum_matches_series():
    cases = [
        (chi, label, (1, 2, 3), _ys_for_label(label))
        for chi in (TRIVIAL, CHI3, CHI4)
        for label in EXPANSION_LABELS
    ]
    # the folded routes on a character that vanishes at residues coprime
    # to its conductor, with w2 == w3 and a negative y
    assert CHI12_IMPRIMITIVE.conductor < CHI12_IMPRIMITIVE.modulus
    ys_folded = {"L23.1b": (F(-1, 2), F(2, 3)), "L23.2b": (F(-1, 2),), "L23.2c": (F(-1, 2),)}
    cases += [
        (CHI12_IMPRIMITIVE, label, (2, 2, 3), ys) for label, ys in ys_folded.items()
    ]
    for chi, label, weights, ys in cases:
        route = identities._ROUTES[label]
        spec = LambdaSpec(route.family, route.index, weights, ys)
        series = lambda_series(spec, chi, 10)
        for n in range(11):
            assert series.egf_coeff(n) == expansion_sum(
                label, n, chi, weights, ys
            ), (chi.modulus, label, weights, n)


def test_expansion_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        expansion_sum("nope", 2, CHI4, (1, 2, 3), (F(0),))
    with pytest.raises(ValueError):
        expansion_sum("L23.0", 2, CHI4, (1, 2, 3), (F(0),))  # arity is 3
    # a degree is an int: a bool or a float would be verified as its value
    for n in (-1, True, 1.0, F(1), "1"):
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            expansion_sum("L12.1", n, CHI4, (1, 2, 3), ())
    for weights in ((1, 2.5, 3), (1.0, 2, 3), ("2", 2, 3), (True, 2, 3)):
        with pytest.raises(ValueError, match="weights must be three positive integers"):
            expansion_sum("L12.1", 2, CHI4, weights, ())
    for ys in ((0.5,), (True,)):
        with pytest.raises(ValueError, match="y-arguments must be ints or Fractions"):
            expansion_sum("L23.2a", 2, CHI4, (1, 2, 3), ys)


def test_expansion_spot_value():
    # route through three power sums at unit modulus: n=1, w=(1,2,3) gives 5/2
    assert expansion_sum("L12.1", 1, TRIVIAL, (1, 2, 3), ()) == F(5, 2)


def test_multi_route_agreement():
    # the alternative expansions of one quotient agree term by term; unlike
    # a sweep, this also catches a defect that is symmetric in the weights
    chi11 = enumerate_characters(11)[1]  # order 10, phi = 4
    cases = [
        (CHI4, (2, 3, 1), (F(1, 2), F(1, 3))),
        (CHI12_IMPRIMITIVE, (2, 2, 3), (F(-1, 2), F(2, 3))),
        (chi11, (2, 3, 5), (F(1, 2), F(-2, 3))),
        (TRIVIAL, (2, 2, 3), (F(-1, 2), F(2, 3))),  # residue 0 is the only unit
        (enumerate_characters(2)[0], (2, 3, 5), (F(-3, 4), F(1, 2))),
    ]
    for chi, weights, ys2 in cases:
        ys1 = ys2[:1]
        for n in range(7):
            assert expansion_sum("L23.1a", n, chi, weights, ys2) == expansion_sum(
                "L23.1b", n, chi, weights, ys2
            ), (chi.modulus, n)
            a = expansion_sum("L23.2a", n, chi, weights, ys1)
            b = expansion_sum("L23.2b", n, chi, weights, ys1)
            c = expansion_sum("L23.2c", n, chi, weights, ys1)
            assert a == b == c, (chi.modulus, n)


def test_fully_symmetric_route_is_permutation_invariant():
    # the triple-power-sum expansion absorbs every weight permutation
    for n in range(7):
        base = expansion_sum("L23.3", n, CHI4, (1, 2, 3), ())
        for perm in PERMS[1:]:
            assert expansion_sum("L23.3", n, CHI4, _permute((1, 2, 3), perm), ()) == base


def test_theorem_instance_validation():
    with pytest.raises(ValueError):
        TheoremInstance("T9", CHI4, 1, (1, 2, 3), ())
    for n in (-1, True, False, 1.0, F(1), "1"):
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            TheoremInstance("T7", CHI4, n, (1, 2, 3), (F(0),))
    with pytest.raises(ValueError):
        TheoremInstance("T1", CHI4, 1, (1, 2, 3), (F(0),))  # arity 3
    with pytest.raises(ValueError):
        TheoremInstance("T8", CHI4, 1, (0, 2, 3), ())
    for weights in ((1, 2.5, 3), (1, 2, F(3)), ("1", 2, 3), (1, 2, True)):
        with pytest.raises(ValueError, match="weights must be three positive integers"):
            TheoremInstance("T7", CHI4, 2, weights, (F(1, 2),))
    for ys in ((0.1,), (True,)):
        with pytest.raises(ValueError, match="y-arguments must be ints or Fractions"):
            TheoremInstance("T7", CHI4, 1, (1, 2, 3), ys)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_theorem_table_permutations(theorem):
    # a repeated or misplaced permutation silently weakens a theorem,
    # because every quotient is weight-symmetric and so cannot fail it
    spec = identities._THEOREMS[theorem]
    for perm in spec.perms + spec.collapsed:
        assert sorted(perm) == [1, 2, 3], perm
    assert len(set(spec.perms)) == len(spec.perms)
    assert len(set(spec.collapsed)) == len(spec.collapsed)
    assert not set(spec.perms) & set(spec.collapsed)
    assert len(spec.collapsed_into) == len(spec.collapsed)
    assert all(0 <= t < len(spec.perms) for t in spec.collapsed_into)


def test_route_table_shape():
    # each route reads every variable once, by its own slot or absorbed
    # into one fold, and only y-arguments its quotient has; a misplaced
    # index can be symmetric in the weights, and then no sweep fails
    assert EXPANSION_LABELS == tuple(identities._ROUTES) == (
        "L23.0", "L23.1a", "L23.1b", "L23.2a", "L23.2b", "L23.2c", "L23.3",
        "L12.0", "L12.1",
    )
    assert identities._RUN_ROUTES.keys() - identities._ROUTES.keys() == {"T3.line5"}
    for label, route in identities._RUN_ROUTES.items():
        arity = LambdaSpec.y_arity(route.family, route.index)
        read, absorbed = [], []
        for slot in route.slots:
            if slot is None:
                continue
            read.append(slot[1])
            if slot[0] in ("B", "F"):
                assert 0 <= slot[2] < arity, label
            if slot[0] == "F":
                absorbed += [c for c, _ in slot[3]]
        assert sorted(read + absorbed) == [0, 1, 2], label
        assert sorted(absorbed) == [j for j, s in enumerate(route.slots) if s is None], label
        assert route.bump and set(route.bump) <= {0, 1, 2}, label


def test_theorem_expressions_match_checked_routes():
    # theorem_expressions evaluates each permutation without re-checking
    # it; it must equal expansion_sum, the checked entry, at every
    # permutation, and each side is computed from empty memo tables
    chars = (enumerate_characters(5)[1], CHI11_ORDER10)
    cases = [
        (tid, chi, n, w, perturb)
        for tid in THEOREM_IDS
        for chi in chars
        for n in range(5)
        for w in ((1, 2, 3), (2, 2, 3))
        for perturb in (False, True)
    ]
    pool = (F(-1, 2), F(2, 3), F(0))

    def ys_of(tid):
        return pool[: theorem_y_arity(tid)]

    clear_caches()
    expected = []
    for tid, chi, n, w, perturb in cases:
        spec = identities._THEOREMS[tid]
        expected.append([
            expansion_sum(spec.label, n, chi, _permute(w, perm), ys_of(tid), perturb)
            for perm in spec.perms
        ])
    clear_caches()
    for (tid, chi, n, w, perturb), want in zip(cases, expected):
        inst = TheoremInstance(tid, chi, n, w, ys_of(tid))
        assert theorem_expressions(inst, perturb) == want, (tid, chi.key(), n, w, perturb)


def test_theorem_y_arities():
    assert [theorem_y_arity(t) for t in THEOREM_IDS] == [3, 2, 2, 1, 1, 1, 1, 0]


def test_t8_hand_value():
    inst = TheoremInstance("T8", TRIVIAL, 1, (1, 2, 3), ())
    values = theorem_expressions(inst)
    assert len(values) == 2
    assert values[0] == F(5, 2) and values[1] == F(5, 2)


def test_equal_weights_trivially_pass():
    for tid in THEOREM_IDS:
        ys = tuple([F(1, 2), F(2, 3), F(0)][: theorem_y_arity(tid)])
        rep = verify_theorem(TheoremInstance(tid, CHI4, 5, (1, 1, 1), ys))
        assert rep.all_equal


def test_t1_expressions_match_series_under_permutations():
    ys = (F(1, 2), F(1, 3), F(1, 4))
    inst = TheoremInstance("T1", CHI4, 3, (1, 2, 3), ys)
    values = theorem_expressions(inst)
    display_perms = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
    assert len(values) == 6
    for value, perm in zip(values, display_perms):
        spec = LambdaSpec("L23", 0, _permute((1, 2, 3), perm), ys)
        assert value == lambda_series(spec, CHI4, 5).egf_coeff(3)
    assert all(v == values[0] for v in values)


def test_verify_theorem_examples():
    for n in range(7):
        rep = verify_theorem(
            TheoremInstance("T7", CHI3, n, (2, 3, 5), (F(1, 2),))
        )
        assert rep.all_equal
    rep = verify_theorem(TheoremInstance("T6", CHI4, 4, (1, 2, 3), (F(0),)))
    assert rep.all_equal
    assert len(rep.values) == 3


def test_collapsed_variants_checked():
    rep4 = verify_theorem(TheoremInstance("T4", CHI4, 4, (1, 2, 3), (F(1, 2),)))
    assert rep4.extras["collapsed_variants_equal"] is True
    rep8 = verify_theorem(TheoremInstance("T8", CHI4, 4, (1, 2, 3), ()))
    assert rep8.extras["collapsed_variants_equal"] is True


def test_t3_printed_variant_probe():
    rep = verify_theorem(
        TheoremInstance("T3", CHI4, 4, (1, 2, 3), (F(1, 2), F(1, 3)))
    )
    assert rep.all_equal
    assert rep.extras["printed_line5_applies"] is True
    assert rep.extras["printed_line5_matches"] is False
    # at low degree the off-pattern ratio does not yet show
    rep_low = verify_theorem(
        TheoremInstance("T3", CHI4, 2, (1, 2, 3), (F(1, 2), F(1, 3)))
    )
    assert rep_low.extras["printed_line5_matches"] is True
    # equal second and third weights make the printed form coincide
    rep_eq = verify_theorem(
        TheoremInstance("T3", CHI4, 4, (2, 3, 3), (F(1, 2), F(1, 3)))
    )
    assert rep_eq.extras["printed_line5_applies"] is False


def test_perturbation_reports_mismatch_detail():
    inst = TheoremInstance("T2", TRIVIAL, 2, (1, 2, 3), (F(1, 2), F(2, 3)))
    rep = verify_theorem(inst, perturb=True)
    assert not rep.all_equal
    assert rep.first_mismatch is not None
    i, j = rep.first_mismatch
    assert not (rep.values[i] == rep.values[j])


def test_sweep_verify_empty_and_order():
    assert sweep_verify([]) == []
    instances = [
        TheoremInstance("T8", TRIVIAL, n, (1, 2, 3), ()) for n in range(5)
    ]
    reports = sweep_verify(instances)
    assert [r.instance.n for r in reports] == list(range(5))
    assert all(r.all_equal for r in reports)


def test_sweep_verify_parallel_matches_serial():
    instances = [
        TheoremInstance("T7", CHI3, n, (1, 2, 3), (F(1, 2),)) for n in range(4)
    ]
    serial = sweep_verify(instances, jobs=1)
    parallel = sweep_verify(instances, jobs=2)
    assert [r.all_equal for r in serial] == [r.all_equal for r in parallel]
    assert [str(v) for r in serial for v in r.values] == [
        str(v) for r in parallel for v in r.values
    ]


def test_sweep_verify_caps_workers_at_run_count(monkeypatch):
    # an in-process stand-in for the pool: records the requested worker
    # count and maps serially, so no process is started; whole degree runs
    # are dealt, so two runs take two workers and one run none
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 64)  # the cap is the runs'
    instances = [
        TheoremInstance("T7", CHI3, n, w, (F(1, 2),))
        for w in ((1, 2, 3), (2, 3, 5))
        for n in range(2)
    ]
    reports = sweep_verify(instances, jobs=64)
    assert requested == [2]
    assert [r.instance for r in sweep_verify(instances[:2], jobs=64)] == instances[:2]
    assert requested == [2]
    serial = [verify_theorem(inst) for inst in instances]
    assert [r.instance for r in reports] == instances
    assert [r.all_equal for r in reports] == [r.all_equal for r in serial]
    assert [str(v) for r in reports for v in r.values] == [
        str(v) for r in serial for v in r.values
    ]


def test_sweep_verify_builds_each_fold_once(monkeypatch):
    # a sweep verifies each degree run from its top n down, so every fold
    # is built once, at its top index, and the Bernoulli numbers of the
    # character are filled once
    builds = {"moments": 0, "series": 0}

    def counted(name, fn):
        def wrapper(*args):
            builds[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        bernoulli, "_fold_moments", counted("moments", bernoulli._fold_moments)
    )
    monkeypatch.setattr(
        bernoulli,
        "gen_bernoulli_series",
        counted("series", bernoulli.gen_bernoulli_series),
    )
    chi = enumerate_characters(7)[1]  # order 6
    instances = [
        TheoremInstance(theorem, chi, n, w, ys)
        for theorem, ys in (("T3", (F(1, 3), F(-1, 2))), ("T5", (F(1, 2),)), ("T6", (F(2, 3),)))
        for w in ((1, 2, 3), (2, 2, 3))
        for n in range(7)
    ]
    clear_caches()
    reports = sweep_verify(instances)
    assert all(r.all_equal for r in reports)
    keys = bernoulli._fold_table.cache_info().currsize
    assert keys > 0
    assert builds == {"moments": keys, "series": 1}


class _SerialPool:
    # an in-process stand-in for the pool that maps serially, so no
    # process is started
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def test_sweep_verify_returns_reports_in_input_order(monkeypatch):
    # two degree runs interleaved, one descending in n and one shuffled,
    # and one instance repeated; the input is also given as a generator
    down = [TheoremInstance("T7", CHI3, n, (1, 2, 3), (F(1, 2),)) for n in (4, 3, 2, 1, 0)]
    mixed = [
        TheoremInstance("T3", CHI4, n, (2, 1, 3), (F(1, 3), F(0))) for n in (2, 0, 4, 1, 3)
    ]
    instances = [inst for pair in zip(down, mixed) for inst in pair] + [mixed[0]]
    expected = [verify_theorem(inst) for inst in instances]
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    for jobs in (1, 2):
        for given in (instances, (inst for inst in instances)):
            reports = sweep_verify(given, jobs=jobs)
            assert [r.instance for r in reports] == instances
            assert [r.all_equal for r in reports] == [r.all_equal for r in expected]
            assert [r.extras for r in reports] == [r.extras for r in expected]
            assert [r.values for r in reports] == [r.values for r in expected]


def test_sweep_verify_spawned_pool_matches_serial(monkeypatch):
    # spawned workers (the start method of macOS and Windows) import bernsym
    # afresh and unpickle each character as the one they enumerate; the
    # reports must carry the serial values and the parent's characters
    spawn = multiprocessing.get_context("spawn")
    pool = functools.partial(ProcessPoolExecutor, mp_context=spawn)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
    chars = (enumerate_characters(5)[1], CHI11_ORDER10)
    instances = [
        TheoremInstance(theorem, chi, n, (1, 2, 3), ys)
        for theorem, ys in (("T1", (F(1, 2), F(2, 3), F(-1, 3))), ("T6", (F(1, 2),)))
        for chi in chars
        for n in range(4)
    ]
    serial = sweep_verify(instances, jobs=1)
    parallel = sweep_verify(instances, jobs=2)
    assert all(r.instance.chi is inst.chi for r, inst in zip(parallel, instances))
    assert [r.all_equal for r in parallel] == [r.all_equal for r in serial]
    assert [str(v) for r in parallel for v in r.values] == [
        str(v) for r in serial for v in r.values
    ]


def test_imprimitive_characters_recorded():
    imp = next(c for c in enumerate_characters(8) if c.conductor == 4)
    instances = [
        TheoremInstance(tid, imp, 3, (2, 3, 5), tuple([F(1, 2)] * theorem_y_arity(tid)))
        for tid in ("T4", "T7", "T8")
    ]
    reports = sweep_verify(instances)
    assert len(reports) == 3
    for rep in reports:
        assert isinstance(rep.all_equal, bool)
        # the derivations only use periodicity, so these hold empirically
        assert rep.all_equal


def _folded_route_by_terms(label, n, chi, w, ys, ratio=None):
    # The folded route's sum as printed, with every fold summed term by
    # term through oracles.fold_direct; ratio replaces the w2/w3 of the
    # L23.1b fold step (the printed T3 line 5 reads w2/w1 there).
    w1, w2, w3 = w
    d = chi.modulus
    if label == "L23.2c":
        shifts = [(F(w1, w2), w2 * d), (F(w1, w3), w3 * d)]
        value = oracles.fold_direct(chi, n, w1 * ys[0], shifts)
        return value.scale(F(w2 * w3) ** (n - 1))
    total = CycloElement.zero(chi.order)
    for k in range(n + 1):
        if label == "L23.2b":
            shifts = [(F(w1, w2), w2 * d)]
            a = oracles.fold_direct(chi, k, w1 * ys[0], shifts)
            b = oracles.power_sum_direct(chi, n - k, w3 * d - 1)
            c = F(w1 ** (n - k + 1) * w2**n * w3**k)
        else:
            shifts = [(F(w2, w3) if ratio is None else ratio, w3 * d)]
            a = gen_bernoulli_poly(chi, k, w1 * ys[0])
            b = oracles.fold_direct(chi, n - k, w2 * ys[1], shifts)
            c = F(w1 ** (n - k + 1) * w2 ** (k + 1) * w3**n)
        total = total + (a * b).scale(comb(n, k) * c / (w1 * w2 * w3))
    return total


@pytest.mark.parametrize(
    "chi",
    [TRIVIAL, CHI12_IMPRIMITIVE, CHI11_ORDER10],
    ids=["mod1", "mod12-imprimitive", "mod11-order10"],
)
def test_folded_routes_match_term_by_term_folds(chi):
    # the folded routes and the printed T3 line 5 against their folds
    # summed one Bernoulli value per absorbed tuple; with chi mod 1 and
    # y = 0 the argument of the all-zero tuple is 0, so 0^0 = 1 is used
    # the routes are read from runs of n = 0..8 built in one pass each, the
    # printed line from its run at the top degree
    for w in ((1, 2, 3), (2, 2, 3)):
        for y in (F(0), F(-1, 2)):
            ys = (F(1, 3), y)
            line5 = identities._RUN_ROUTES["T3.line5"]
            printed = identities._evaluate_run(line5, 8, chi, w, ys, 0)
            for n in range(9):
                for label in ("L23.1b", "L23.2b", "L23.2c"):
                    route_ys = ys if label == "L23.1b" else (y,)
                    expected = _folded_route_by_terms(label, n, chi, w, route_ys)
                    value = identities._evaluate_run(
                        identities._ROUTES[label], 8, chi, w, route_ys, 0
                    )[n]
                    assert value == expected, (label, n, w, y)
                ratio = F(w[1], w[0])
                expected = _folded_route_by_terms("L23.1b", n, chi, w, ys, ratio)
                assert printed[n] == expected, ("printed line 5", n, w, y)


# -- degree runs ---------------------------------------------------------------

@pytest.mark.parametrize(
    "chi",
    [TRIVIAL, CHI12_IMPRIMITIVE, CHI11_ORDER10, CHI17_ORDER16, CHI29_ORDER28],
    ids=["mod1", "mod12-imprimitive", "mod11-order10", "mod17-order16", "mod29-order28"],
)
def test_evaluate_run_matches_per_degree_reference(chi):
    # each route's run of n = 0..10, built in one pass with the powers of
    # the top degree, against the route summed at each degree on its own;
    # a shorter run is the same prefix
    for label, route in identities._RUN_ROUTES.items():
        arity = LambdaSpec.y_arity(route.family, route.index)
        ys = (F(-1, 2), F(0), F(2, 3))[:arity]
        for w in ((1, 1, 1), (2, 2, 3), (2, 3, 5)):
            for bump in (0, 1):
                run = identities._evaluate_run(route, 10, chi, w, ys, bump)
                expected = [oracles.route_at_degree(route, n, chi, w, ys, bump) for n in range(11)]
                assert run == expected, (label, w, bump)
                assert identities._evaluate_run(route, 3, chi, w, ys, bump) == run[:4]


def _counted_runs(monkeypatch):
    # the (route, N, weights) of every run build, in turn
    builds = []
    evaluate_run = identities._evaluate_run

    def counted(route, N, chi, weights, ys, bump):
        builds.append((route, N, weights))
        return evaluate_run(route, N, chi, weights, ys, bump)

    monkeypatch.setattr(identities, "_evaluate_run", counted)
    return builds


@pytest.mark.parametrize("perturb", [False, True])
def test_sweep_builds_each_run_once(monkeypatch, perturb):
    # a sweep of one degree run per theorem and weight triple builds each
    # route once per distinct permuted weight triple, at the run's top
    # degree: once in all at (1,1,1), where every permutation is the same
    # call; the printed T3 line is a run of its own wherever it applies
    builds = _counted_runs(monkeypatch)
    ys = (F(1, 2), F(-2, 3), F(0))
    for w in ((1, 1, 1), (2, 2, 3), (2, 3, 5)):
        instances = [
            TheoremInstance(tid, CHI4, n, w, ys[: theorem_y_arity(tid)])
            for tid in THEOREM_IDS
            for n in range(5)
        ]
        clear_caches()
        del builds[:]
        sweep_verify(instances, perturb=perturb)
        expected = []
        for tid in THEOREM_IDS:
            spec = identities._THEOREMS[tid]
            route = identities._ROUTES[spec.label]
            distinct = dict.fromkeys(_permute(w, p) for p in spec.perms + spec.collapsed)
            expected += [(route, 4, pw) for pw in distinct]
            if tid == "T3" and not perturb and w[1] != w[2]:
                expected.append((identities._RUN_ROUTES["T3.line5"], 4, (w[1], w[0], w[2])))
        assert builds == expected, w
        if w == (1, 1, 1):
            assert len(builds) == len(THEOREM_IDS)


def test_ascending_expansion_sum_builds_runs_geometrically(monkeypatch):
    # asked for n = 0, 1, ..., 15 in turn, a route's run is rebuilt at
    # max(n, 2 * its length), O(log n) times, and each value is the
    # route's sum at its own degree
    builds = _counted_runs(monkeypatch)
    route, w, ys = identities._ROUTES["L23.1a"], (2, 3, 5), (F(1, 2), F(-2, 3))
    clear_caches()
    for n in range(16):
        value = expansion_sum("L23.1a", n, CHI4, w, ys)
        assert value == oracles.route_at_degree(route, n, CHI4, w, ys, 0), n
    assert [N for _, N, _ in builds] == [0, 2, 6, 14, 30]


def test_expansion_sum_reads_runs_past_their_eviction():
    # three run keys asked for in turn, so the run table, bounded at the two
    # entries one degree run reads, has evicted each before it is asked
    # again: every lookup is a miss, and every value is the route's sum at
    # its own degree
    keys = [
        ("L23.0", CHI4, (2, 3, 5), (F(1, 2), F(-2, 3), F(0)), False),
        ("L23.2b", CHI11_ORDER10, (2, 2, 3), (F(1, 3),), True),
        ("L12.1", CHI4, (1, 2, 3), (), False),
    ]
    assert bernoulli._run_table.cache_info().maxsize < len(keys)
    clear_caches()
    for n in range(5):
        for label, chi, w, ys, perturb in keys:
            misses = bernoulli._run_table.cache_info().misses
            value = expansion_sum(label, n, chi, w, ys, perturb=perturb)
            assert bernoulli._run_table.cache_info().misses == misses + 1
            route = identities._ROUTES[label]
            assert value == oracles.route_at_degree(route, n, chi, w, ys, int(perturb)), (label, n)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("perturb", [False, True])
def test_sweep_keeps_route_runs_within_the_table_bound(monkeypatch, perturb, jobs):
    # at every run build the run table holds no more than its bound, the two
    # entries of one degree run (its theorem's route and, for T3, the printed
    # fifth line, which applies at both triples here unless perturbed); the
    # bound loses no hit, so no run is built twice, in one process or
    # through the pool's path, and the reports equal verify_theorem's
    ys = (F(1, 2), F(-2, 3), F(0))
    instances = [
        TheoremInstance(tid, chi, n, w, ys[: theorem_y_arity(tid)])
        for tid in THEOREM_IDS
        for chi in (CHI4, CHI11_ORDER10)
        for w in ((2, 3, 5), (2, 2, 3))
        for n in range(4)
    ]
    expected = [verify_theorem(inst, perturb=perturb) for inst in instances]
    builds, sizes = [], []
    evaluate_run = identities._evaluate_run

    def measured(route, N, chi, weights, ys, bump):
        builds.append((route, chi, weights, ys))
        sizes.append(bernoulli._run_table.cache_info().currsize)
        return evaluate_run(route, N, chi, weights, ys, bump)

    monkeypatch.setattr(identities, "_evaluate_run", measured)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    clear_caches()
    reports = sweep_verify(instances, jobs=jobs, perturb=perturb)
    assert max(sizes) == bernoulli._run_table.cache_info().maxsize == 2
    assert len(builds) == len(set(builds))
    assert [_flags(r) for r in reports] == [_flags(r) for r in expected]
    assert [r.values for r in reports] == [r.values for r in expected]


# -- Galois orbits -------------------------------------------------------------

GALOIS_YS = (F(-1, 2), F(2, 3), F(1, 3))


def _flags(report):
    return report.all_equal, report.first_mismatch, report.extras


def _verified_instances(monkeypatch):
    # the instances that sweep_verify hands to verify_theorem, in turn
    verified = []

    def counted(instance, perturb=False):
        verified.append(instance)
        return verify_theorem(instance, perturb=perturb)

    monkeypatch.setattr(identities, "verify_theorem", counted)
    return verified


@pytest.mark.parametrize("d", [5, 7, 11, 13, 17])
def test_derived_reports_equal_direct_evaluation(monkeypatch, d):
    # every non-representative character's direct report holds the sigma_k
    # images of its representative's values and the same flags, and the
    # record sweep_verify renders for it, without verifying it, is the one
    # rendered from its direct report
    render = functools.partial(cli._render_sweep_record, "json")
    chars = enumerate_characters(d)
    orbits = _galois_orbits(chars)
    instances = [
        TheoremInstance(t, chi, n, (1, 2, 3), GALOIS_YS[: theorem_y_arity(t)])
        for t in THEOREM_IDS
        for chi in chars
        for n in range(4)
    ]
    direct = [verify_theorem(inst) for inst in instances]
    by_key = {(i.theorem, i.chi, i.n): r for i, r in zip(instances, direct)}
    derived = 0
    for inst, report in zip(instances, direct):
        rep, k = orbits[inst.chi]
        if rep is not inst.chi:
            derived += 1
            source = by_key[inst.theorem, rep, inst.n]
            assert report.values == [_conjugate(v, k) for v in source.values]
            assert _flags(report) == _flags(source)
    assert derived == 8 * 4 * sum(1 for chi in chars if orbits[chi][0] is not chi) > 0
    verified = _verified_instances(monkeypatch)
    for order in (slice(None), slice(None, None, -1)):  # also conjugates first
        verified.clear()
        swept = sweep_verify(instances[order], render=render)
        assert len(verified) == len(instances) - derived
        assert all(orbits[inst.chi][0] is inst.chi for inst in verified)
        for report, full in zip(swept, direct[order]):
            assert report.text == render(full)
            assert _flags(report) == _flags(full)


@pytest.mark.parametrize(
    "render", [None, functools.partial(cli._render_sweep_record, "json")], ids=["values", "json"]
)
def test_failing_representatives_keep_per_value_images(render):
    # perturbed, a representative's values differ, so each derived report
    # holds the sigma_k image of every value in turn, not one image
    # repeated, and its record is the one rendered from its direct report
    instances = [
        TheoremInstance(t, chi, n, (2, 3, 5), GALOIS_YS[: theorem_y_arity(t)])
        for d in (5, 7, 11, 13)
        for t in THEOREM_IDS
        for chi in enumerate_characters(d)
        for n in (3, 4)  # below n = 3 these perturbed reports pass
    ]
    orbits = _galois_orbits([inst.chi for inst in instances])
    swept = sweep_verify(instances, perturb=True, render=render)
    failing = 0
    for inst, report in zip(instances, swept):
        rep, k = orbits[inst.chi]
        if rep is inst.chi:
            continue
        source = verify_theorem(dataclasses.replace(inst, chi=rep), perturb=True)
        if render is None:
            assert report.values == [_conjugate(v, k) for v in source.values]
        else:
            assert report.text == render(verify_theorem(inst, perturb=True))
        assert _flags(report) == _flags(source)
        failing += not report.all_equal
    assert failing > 0


def test_conjugate_without_its_representative_is_verified_directly(monkeypatch):
    # mod 5 char 3 is the sigma_3 conjugate of char 1; a grid without char 1,
    # or a cell (theorem, n, weights, ys) without it, verifies char 3 itself
    config = cli.SweepConfig(moduli=(5,), n_max=2, weights=((1, 2, 3),), char_labels=(3,))
    alone = cli.build_instances(config)
    chi, psi = enumerate_characters(5)[1], enumerate_characters(5)[3]
    t7 = [TheoremInstance("T7", c, n, (1, 2, 3), (F(1, 2),)) for c in (chi, psi) for n in range(3)]
    t8 = [TheoremInstance("T8", psi, n, (1, 2, 3), ()) for n in range(3)]
    verified = _verified_instances(monkeypatch)
    for instances, expected in ((alone, alone), (t7 + t8, t7[:3] + t8)):
        verified.clear()
        reports = sweep_verify(instances)
        assert sorted(verified, key=instances.index) == expected
        assert [r.values for r in reports] == [verify_theorem(i).values for i in instances]


def test_tampered_conjugate_is_not_placed_in_the_orbit(monkeypatch):
    # a copy of mod 5 char 3 with its value at 2 negated is no sigma_k image
    # of char 1's table, so it forms an orbit of its own and is verified
    chi, psi = enumerate_characters(5)[1], enumerate_characters(5)[3]
    values = list(psi.values)
    values[2] = -values[2]
    bad = dataclasses.replace(psi, values=tuple(values))
    assert _galois_orbits([chi, psi, bad]) == {chi: (chi, 1), psi: (chi, 3), bad: (bad, 1)}
    instances = [TheoremInstance("T7", c, 2, (1, 2, 3), (F(1, 2),)) for c in (chi, psi, bad)]
    verified = _verified_instances(monkeypatch)
    reports = sweep_verify(instances)
    assert [inst.chi for inst in verified] == [chi, bad]
    assert reports[2].values == verify_theorem(instances[2]).values
    assert reports[2].values != reports[1].values


def test_pool_verifies_a_copy_of_a_character_and_not_its_key():
    # a tampered copy of mod 5 char 3 crosses to the workers with its own
    # table, so the pool verifies the copy, as a serial run does
    psi = enumerate_characters(5)[3]
    values = list(psi.values)
    values[2] = -values[2]
    bad = dataclasses.replace(psi, values=tuple(values))
    instances = [TheoremInstance("T7", bad, n, (1, 2, 3), (F(1, 2),)) for n in range(3)]
    serial = sweep_verify(instances, jobs=1)
    parallel = sweep_verify(instances, jobs=2)
    assert str(serial[2].values[0]) == "[792/125, 1078/375] @ zeta(4)"
    for s, p in zip(serial, parallel):
        assert p.instance.chi.values == bad.values
        assert (p.values, p.all_equal, p.first_mismatch, p.extras) == (
            s.values, s.all_equal, s.first_mismatch, s.extras
        )


def test_pool_reports_hold_the_callers_instances():
    # a copy of mod 5 char 3 crosses to the workers with its table and comes
    # back as another copy; each report still holds the caller's instance
    psi = dataclasses.replace(enumerate_characters(5)[3])
    instances = [TheoremInstance("T7", psi, n, (1, 2, 3), (F(1, 2),)) for n in range(4)]
    for jobs in (1, 2):
        reports = sweep_verify(instances, jobs=jobs)
        assert all(r.instance is inst for r, inst in zip(reports, instances)), jobs


# -- dealing the pool ----------------------------------------------------------


def _recording_pool(monkeypatch, cpus=8):
    # an in-process stand-in for the pool that maps serially, so no process
    # is started, and records each worker count it is asked for and each
    # part it is dealt, with the reports verified from that part; the
    # process may use cpus CPUs, whatever the machine has
    dealt = {"workers": [], "parts": []}
    monkeypatch.setattr(identities, "_usable_cpus", lambda: cpus)

    class RecordingPool(_SerialPool):
        def __init__(self, max_workers):
            dealt["workers"].append(max_workers)

        def map(self, fn, iterable):
            done = []
            for part in iterable:
                done.append(fn(part))
                dealt["parts"].append((part, done[-1]))
            return done

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return dealt


def test_pool_is_dealt_one_character_per_part(monkeypatch):
    # several Galois orbits mod 5 and 7: each part holds the degree runs of
    # one representative character, no character is in two parts, and every
    # conjugate's report is made in its representative's part
    instances = [
        TheoremInstance(t, chi, n, w, GALOIS_YS[: theorem_y_arity(t)])
        for t in ("T3", "T5", "T6")
        for chi in enumerate_characters(5)[1:] + enumerate_characters(7)[1:]
        for w in ((1, 2, 3), (2, 2, 3))
        for n in range(3)
    ]
    orbits = _galois_orbits([inst.chi for inst in instances])
    representatives = {rep for rep, _ in orbits.values()}
    assert len(representatives) == 5
    dealt = _recording_pool(monkeypatch)
    reports = sweep_verify(instances, jobs=2)
    assert dealt["workers"] == [2]
    chars = [{task[0].chi for task in part} for part, _ in dealt["parts"]]
    assert all(len(c) == 1 for c in chars)
    assert len(chars) == len(representatives) == len(set().union(*chars))
    assert set().union(*chars) == representatives
    made_in = {}  # the representative of the part that made each report
    for (_, done), (chi,) in zip(dealt["parts"], chars):
        for task_reports in done:
            made_in.update((id(r), chi) for r in task_reports)
    for inst, report in zip(instances, reports):
        assert made_in[id(report)] is orbits[inst.chi][0]
    expected = [verify_theorem(inst) for inst in instances]
    assert [_flags(r) for r in reports] == [_flags(r) for r in expected]
    assert [r.values for r in reports] == [r.values for r in expected]


@pytest.mark.parametrize("jobs", [2, 8])
def test_pool_with_fewer_characters_than_workers_is_dealt_runs(monkeypatch, jobs):
    # one character and three degree runs: each run is a part of its own,
    # dealt to min(jobs, parts) workers, so the pool still runs in parallel
    instances = [
        TheoremInstance(t, CHI4, n, (2, 3, 5), GALOIS_YS[: theorem_y_arity(t)])
        for t in ("T1", "T4", "T7")
        for n in range(3)
    ]
    dealt = _recording_pool(monkeypatch)
    reports = sweep_verify(instances, jobs=jobs)
    assert dealt["workers"] == [min(jobs, 3)]
    parts = [part for part, _ in dealt["parts"]]
    assert [[(task[0].theorem, task[0].n) for task in part] for part in parts] == [
        [(t, 2), (t, 1), (t, 0)] for t in ("T1", "T4", "T7")
    ]
    assert [r.values for r in reports] == [verify_theorem(inst).values for inst in instances]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_pool_is_capped_at_the_usable_cpus(monkeypatch, cpus):
    # --jobs 64 on a process that may use cpus CPUs: the cap comes before
    # the parts are chosen, so five verified characters are dealt one per
    # part once the cap is at most five, and one CPU verifies serially
    instances = [
        TheoremInstance(t, chi, n, (1, 2, 3), GALOIS_YS[: theorem_y_arity(t)])
        for t in ("T3", "T7")
        for chi in enumerate_characters(5)[1:] + enumerate_characters(7)[1:]
        for n in range(2)
    ]
    dealt = _recording_pool(monkeypatch, cpus)
    reports = sweep_verify(instances, jobs=64)
    if cpus == 1:
        assert dealt == {"workers": [], "parts": []}
    else:
        assert dealt["workers"] == [cpus]
        chars = [{task[0].chi for task in part} for part, _ in dealt["parts"]]
        assert [len(c) for c in chars] == [1] * 5
    expected = [verify_theorem(inst) for inst in instances]
    assert [_flags(r) for r in reports] == [_flags(r) for r in expected]
    assert [r.values for r in reports] == [r.values for r in expected]


def test_usable_cpus_reads_the_affinity_mask_or_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert identities._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert identities._usable_cpus() == 16
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
    assert identities._usable_cpus() == 1


def _leaf_misses(report):
    # a render callable: the process that made the report, and the entries
    # its fold and Bernoulli-number tables have built so far
    folds, numbers = bernoulli._fold_table.cache_info(), bernoulli._number_table.cache_info()
    return os.getpid(), folds.misses, numbers.misses


def _leaf_builds(instances, jobs):
    # the fold and number-table entries built by a sweep from empty tables,
    # summed over the processes that made its reports, with the count of
    # those processes
    clear_caches()
    last = {}
    for report in sweep_verify(instances, jobs=jobs, render=_leaf_misses):
        pid, folds, numbers = report.text
        last[pid] = max(last.get(pid, (0, 0)), (folds, numbers))
    assert (os.getpid() in last) == (jobs <= 1)
    return tuple(map(sum, zip(*last.values()))), len(last)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_pool_builds_each_leaf_in_one_worker(monkeypatch):
    # forked workers start from the parent's (emptied) tables; dealt one
    # character per part, the two workers together build each fold and each
    # Bernoulli-number table once, as one process does: on the benchmark's
    # grid shape, 630 folds and 10 number tables
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor",
        functools.partial(ProcessPoolExecutor, mp_context=fork),
    )
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 2)  # two workers on any machine
    bench_grid = cli.SweepConfig(moduli=(1, 3, 4, 5, 7, 8), n_max=1, weights=((1, 2, 3), (2, 3, 5)))
    folded = cli.SweepConfig(moduli=(5, 7), theorems=("T3", "T5", "T6"), n_max=4)
    for config, builds in ((bench_grid, (630, 10)), (folded, (510, 5))):
        instances = cli.build_instances(config)
        assert _leaf_builds(instances, 1) == (builds, 1)
        assert _leaf_builds(instances, 2)[0] == builds
    # a copy of mod 5 char 3, not the enumerated object of its key, beside a
    # second character: its runs cross to a worker in one part, as one
    # object, so its Bernoulli numbers are built once
    psi = dataclasses.replace(enumerate_characters(5)[3])
    instances = [
        TheoremInstance("T7", chi, n, (1, 2, 3), (y,))
        for chi in (psi, CHI4)
        for y in (F(1, 2), F(-1, 3))
        for n in range(8)
    ]
    serial = _leaf_builds(instances, 1)
    assert serial[0][1] == 2
    assert _leaf_builds(instances, 2)[0] == serial[0]
