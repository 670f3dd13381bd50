from fractions import Fraction

import pytest

from bernsym import identities
from bernsym.characters import enumerate_characters, primitive_characters
from bernsym.identities import (
    EXPANSION_LABELS,
    THEOREM_IDS,
    LambdaSpec,
    TheoremInstance,
    expansion_sum,
    lambda_series,
    lambda_series_from_integrals,
    multinomial,
    spec_for_label,
    sweep_verify,
    theorem_expressions,
    theorem_y_arity,
    verify_theorem,
)
from bernsym.series import TruncatedSeries

F = Fraction
CHI4 = enumerate_characters(4)[1]
CHI3 = enumerate_characters(3)[1]
TRIVIAL = enumerate_characters(1)[0]

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


def test_multinomial():
    assert multinomial(0, 0, 0, 0) == 1
    assert multinomial(3, 1, 1, 1) == 6
    assert multinomial(6, 2, 2, 2) == 90
    with pytest.raises(ValueError):
        multinomial(4, 1, 1, 1)
    with pytest.raises(ValueError):
        multinomial(2, 3, -1, 0)


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
    family_index = {
        "L23.0": ("L23", 0),
        "L23.1a": ("L23", 1),
        "L23.1b": ("L23", 1),
        "L23.2a": ("L23", 2),
        "L23.2b": ("L23", 2),
        "L23.2c": ("L23", 2),
        "L23.3": ("L23", 3),
        "L12.0": ("L12", 0),
        "L12.1": ("L12", 1),
    }[label]
    return _ys_for(*family_index, pool=(F(1, 2), F(2, 3), F(0)))


def test_expansion_sum_matches_series():
    for chi in (TRIVIAL, CHI3, CHI4):
        for label in EXPANSION_LABELS:
            ys = _ys_for_label(label)
            spec = spec_for_label(label, (1, 2, 3), ys)
            series = lambda_series(spec, chi, 10)
            for n in range(11):
                assert series.egf_coeff(n) == expansion_sum(
                    label, n, chi, (1, 2, 3), ys
                ), (chi.modulus, label, n)


def test_expansion_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        expansion_sum("nope", 2, CHI4, (1, 2, 3), (F(0),))
    with pytest.raises(ValueError):
        expansion_sum("L23.0", 2, CHI4, (1, 2, 3), (F(0),))  # arity is 3
    with pytest.raises(ValueError):
        expansion_sum("L12.1", -1, CHI4, (1, 2, 3), ())


def test_expansion_spot_value():
    # route through three power sums at unit modulus: n=1, w=(1,2,3) gives 5/2
    assert expansion_sum("L12.1", 1, TRIVIAL, (1, 2, 3), ()) == F(5, 2)


def test_multi_route_agreement():
    # the alternative expansions of one quotient agree term by term
    ys2 = (F(1, 2), F(1, 3))
    for n in range(7):
        assert expansion_sum("L23.1a", n, CHI4, (2, 3, 1), ys2) == expansion_sum(
            "L23.1b", n, CHI4, (2, 3, 1), ys2
        )
    ys1 = (F(1, 2),)
    for n in range(7):
        a = expansion_sum("L23.2a", n, CHI4, (2, 3, 1), ys1)
        b = expansion_sum("L23.2b", n, CHI4, (2, 3, 1), ys1)
        c = expansion_sum("L23.2c", n, CHI4, (2, 3, 1), ys1)
        assert a == b == c


def test_fully_symmetric_route_is_permutation_invariant():
    # the triple-power-sum expansion absorbs every weight permutation
    for n in range(7):
        base = expansion_sum("L23.3", n, CHI4, (1, 2, 3), ())
        for perm in PERMS[1:]:
            assert expansion_sum("L23.3", n, CHI4, _permute((1, 2, 3), perm), ()) == base


def test_theorem_instance_validation():
    with pytest.raises(ValueError):
        TheoremInstance("T9", CHI4, 1, (1, 2, 3), ())
    with pytest.raises(ValueError):
        TheoremInstance("T1", CHI4, -1, (1, 2, 3), (F(0), F(0), F(0)))
    with pytest.raises(ValueError):
        TheoremInstance("T1", CHI4, 1, (1, 2, 3), (F(0),))  # arity 3
    with pytest.raises(ValueError):
        TheoremInstance("T8", CHI4, 1, (0, 2, 3), ())


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


def test_sweep_verify_caps_workers_at_instance_count(monkeypatch):
    # an in-process stand-in for the pool: records the requested worker
    # count and maps serially, so no process is started
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

    monkeypatch.setattr(identities, "ProcessPoolExecutor", SerialPool)
    instances = [
        TheoremInstance("T7", CHI3, n, (1, 2, 3), (F(1, 2),)) for n in range(2)
    ]
    reports = sweep_verify(instances, jobs=64)
    assert requested == [2]
    serial = [verify_theorem(inst) for inst in instances]
    assert [r.instance for r in reports] == instances
    assert [r.all_equal for r in reports] == [r.all_equal for r in serial]
    assert [str(v) for r in reports for v in r.values] == [
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
