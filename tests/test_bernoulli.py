import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import bernsym
import oracles
from bernsym import bernoulli
from bernsym.bernoulli import (
    _CACHE_LIMIT,
    _char_integral,
    _char_product,
    _closed_denominator,
    _closed_factor,
    _fold,
    _fold_table,
    _number_table,
    _plain_integral_inverse,
    _power_table,
    _run_table,
    _shifted_kernel,
    _t_over_exp_minus_one,
    char_exp_sum,
    clear_caches,
    gen_bernoulli_number,
    gen_bernoulli_poly,
    gen_bernoulli_series,
    power_sum,
)
from bernsym.characters import enumerate_characters, primitive_characters
from bernsym.cyclotomic import CycloElement, zeta
from bernsym.identities import (
    LambdaSpec,
    TheoremInstance,
    expansion_sum,
    lambda_series,
    lambda_series_from_integrals,
    verify_theorem,
)
from bernsym.series import TruncatedSeries, _exp_minus_one_over_t, exp_series


def chi4():
    return enumerate_characters(4)[1]


def trivial():
    return enumerate_characters(1)[0]


# The ordinary B_n and B_n(x) are the modulus-1 character's.


def test_ordinary_bernoulli_values():
    chi = trivial()
    assert gen_bernoulli_number(chi, 0) == 1
    assert gen_bernoulli_number(chi, 1) == Fraction(-1, 2)
    assert gen_bernoulli_number(chi, 4) == Fraction(-1, 30)
    oracle = oracles.bernoulli_recurrence(12)
    for n in range(13):
        assert gen_bernoulli_number(chi, n) == oracle[n]


def test_ordinary_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        gen_bernoulli_number(trivial(), -1)


def test_ordinary_bernoulli_poly():
    chi = trivial()
    assert gen_bernoulli_poly(chi, 2, Fraction(1, 2)) == Fraction(-1, 12)
    table = oracles.bernoulli_recurrence(8)
    for n in range(9):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 4)):
            assert gen_bernoulli_poly(chi, n, x) == oracles.bernoulli_poly(n, x, table)


def test_gen_bernoulli_number_trivial_matches_ordinary():
    chi = trivial()
    oracle = oracles.bernoulli_recurrence(12)
    for n in range(13):
        value = gen_bernoulli_number(chi, n)
        assert value.as_rational() == oracle[n]


def test_gen_bernoulli_number_vanishes_at_zero_for_nontrivial():
    for d in range(2, 13):
        for chi in enumerate_characters(d):
            if chi.order != 1:
                assert gen_bernoulli_number(chi, 0) == 0


def test_gen_bernoulli_chi4_values():
    chi = chi4()
    assert gen_bernoulli_number(chi, 1) == Fraction(-1, 2)
    assert gen_bernoulli_number(chi, 2) == 0
    assert gen_bernoulli_number(chi, 3) == Fraction(3, 2)


def test_gen_bernoulli_number_against_formula_oracle():
    table = oracles.bernoulli_recurrence(12)
    for d in range(1, 13):
        for chi in primitive_characters(d):
            for n in range(11):
                assert gen_bernoulli_number(chi, n) == oracles.gen_bernoulli_number(
                    chi, n, table
                )


def test_gen_bernoulli_poly_at_zero_is_number():
    chi = chi4()
    for n in range(8):
        assert gen_bernoulli_poly(chi, n, 0) == gen_bernoulli_number(chi, n)


def test_gen_bernoulli_poly_examples():
    assert gen_bernoulli_poly(trivial(), 2, Fraction(1, 2)) == Fraction(-1, 12)
    assert gen_bernoulli_poly(chi4(), 1, Fraction(1, 3)) == Fraction(-1, 2)


def test_gen_bernoulli_poly_matches_fraction_binomial_sum():
    # the integer evaluation over one common denominator against the
    # Fraction sum term by term, at negative x and large denominators
    xs = [
        Fraction(-7, 3), Fraction(-1), Fraction(-5, 2), Fraction(-1, 10**9 + 7),
        Fraction(123456789, 987654321), Fraction(1, 2**40), Fraction(-(3**30), 7**11),
    ]
    chars = [chi for d in (1, 3, 4, 5, 7, 8, 12) for chi in enumerate_characters(d)]
    chars += [enumerate_characters(17)[1], enumerate_characters(29)[1]]  # phi = 8 and 12
    for chi in chars:
        numbers = [gen_bernoulli_number(chi, k).coeffs for k in range(9)]
        for n in range(9):
            for x in xs:
                want = oracles.bernoulli_poly_binomial(numbers, n, x)
                assert gen_bernoulli_poly(chi, n, x).coeffs == tuple(want)


def test_gen_bernoulli_poly_binomial_matches_series_route():
    # independent route: egf coefficient of e^(x t) times the number series
    rng = random.Random(31337)
    pool = []
    for d in (1, 3, 4, 5, 8, 12):
        pool.extend(enumerate_characters(d))
    for _ in range(50):
        chi = rng.choice(pool)
        n = rng.randint(0, 10)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        series = exp_series(x, n + 2) * gen_bernoulli_series(chi, n + 2)
        assert gen_bernoulli_poly(chi, n, x) == series.egf_coeff(n)


def test_shift_difference_law():
    # B_{n,chi}(x + w d) - B_{n,chi}(x) = n * sum_{a<wd} chi(a) (x+a)^(n-1)
    xs = (Fraction(0), Fraction(1, 2), Fraction(2, 3))
    for d in range(1, 9):
        for chi in enumerate_characters(d):
            for w in range(1, 4):
                for n in range(1, 11):
                    for x in xs:
                        lhs = gen_bernoulli_poly(chi, n, x + w * d) - gen_bernoulli_poly(
                            chi, n, x
                        )
                        rhs = CycloElement.zero(chi.order)
                        for a in range(w * d):
                            v = chi.values[a % chi.modulus]
                            if v != 0:
                                rhs = rhs + v.scale((x + a) ** (n - 1))
                        assert lhs == rhs.scale(n)


def test_power_sum_examples():
    assert power_sum(trivial(), 1, 3) == 6
    for n in range(6):
        assert power_sum(trivial(), 0, n) == n + 1  # 0^0 = 1 convention
    assert power_sum(chi4(), 2, 7) == -32


def test_power_sum_rejects_negative():
    with pytest.raises(ValueError):
        power_sum(trivial(), -1, 3)
    with pytest.raises(ValueError):
        power_sum(trivial(), 1, -3)


def test_power_sum_matches_direct_oracle():
    for d in (1, 3, 4, 5, 8, 11, 12):
        for chi in enumerate_characters(d):
            for k in range(7):
                for n in (0, 1, 5, 2 * d, 4 * d - 1):
                    assert power_sum(chi, k, n) == oracles.power_sum_direct(chi, k, n)


def test_power_sum_series_examples():
    power_sum_series = oracles.power_sum_series
    assert power_sum_series(trivial(), 1, 5).egf_coeff(0) == 1
    for k in range(1, 6):
        assert power_sum_series(trivial(), 1, 5).egf_coeff(k) == 0
    assert power_sum_series(chi4(), 2, 4).egf_coeff(2) == -32
    # full-period orthogonality for nontrivial characters
    for d in (3, 4, 5):
        for chi in enumerate_characters(d):
            if chi.order != 1:
                for w in (1, 2, 3):
                    assert power_sum_series(chi, w, 3).egf_coeff(0) == 0


def test_power_sum_series_matches_direct_sums():
    for d in range(1, 9):
        for chi in enumerate_characters(d):
            for w in range(1, 5):
                series = oracles.power_sum_series(chi, w, 12)
                for k in range(13):
                    assert series.egf_coeff(k) == power_sum(chi, k, w * d - 1)


def test_char_exp_sum_is_finite_geometric():
    chi = chi4()
    v1, v3 = (TruncatedSeries.from_coeffs(6, [chi.values[a]]) for a in (1, 3))
    for scale in (1, Fraction(-2, 3)):
        s = char_exp_sum(chi, scale, 6)
        explicit = exp_series(scale, 6) * v1 + exp_series(3 * scale, 6) * v3
        assert s == explicit


def _leaves_and_lambda():
    chi = enumerate_characters(5)[1]  # order 4, phi = 2
    spec = LambdaSpec("L23", 1, (2, 3, 5), (Fraction(1, 2), Fraction(-2, 3)))
    return (
        gen_bernoulli_number(chi, 9),
        char_exp_sum(chi, Fraction(-2, 3), 8),
        _t_over_exp_minus_one(7, 8),
        lambda_series(spec, chi, 8),
        gen_bernoulli_poly(chi, 7, Fraction(-2, 3)),
        power_sum(chi, 5, 13),
    )


def test_caches_are_transparent():
    before = _leaves_and_lambda()
    clear_caches()
    after = _leaves_and_lambda()
    assert before == after
    assert after[1] is not before[1] and after[2] is not before[2]  # rebuilt
    assert after[4] is not before[4] and after[5] is not before[5]
    assert _t_over_exp_minus_one(7, 8) == _exp_minus_one_over_t(7, 8).invert()


def _geometric_sum(chi, scale, order):
    # sum_a chi(a) e^(a*scale*t), one exponential per unit residue a
    terms = [
        exp_series(a * Fraction(scale), order)
        * TruncatedSeries.from_coeffs(order, [chi.values[a]], chi.order)
        for a in chi.units
    ]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def test_char_exp_sum_is_keyed_by_its_exact_arguments():
    chi = enumerate_characters(5)[1]
    clear_caches()
    two = char_exp_sum(chi, 2, 6)
    assert char_exp_sum(chi, Fraction(2), 6) is two
    plus = char_exp_sum(chi, Fraction(2, 3), 6)
    minus = char_exp_sum(chi, Fraction(-2, 3), 6)
    longer = char_exp_sum(chi, Fraction(2, 3), 8)
    assert char_exp_sum.cache_info().currsize == 4
    assert plus != minus
    assert longer.order == 8
    for scale, order, value in (
        (2, 6, two),
        (Fraction(2, 3), 6, plus),
        (Fraction(-2, 3), 6, minus),
        (Fraction(2, 3), 8, longer),
    ):
        assert value == _geometric_sum(chi, scale, order)
        assert char_exp_sum(chi, scale, order) is value


def test_char_integral_is_keyed_by_its_exact_arguments():
    chi = enumerate_characters(5)[1]
    clear_caches()
    third = _char_integral(chi, 2, Fraction(1, 3), 6)
    assert _char_integral(chi, Fraction(2), Fraction(1, 3), 6) is third
    unshifted = _char_integral(chi, 2, 0, 6)
    assert _char_integral(chi, 2, Fraction(0), 6) is unshifted
    wider = _char_integral(chi, 3, Fraction(1, 3), 6)
    longer = _char_integral(chi, 2, Fraction(1, 3), 8)
    assert _char_integral.cache_info().currsize == 4
    assert len({id(s) for s in (third, unshifted, wider, longer)}) == 4
    for scale, shift, order, value in (
        (2, Fraction(1, 3), 6, third),
        (2, 0, 6, unshifted),
        (3, Fraction(1, 3), 6, wider),
        (2, Fraction(1, 3), 8, longer),
    ):
        # scale e^(scale shift t) t/(e^(5 scale t) - 1) sum_a chi(a) e^(a scale t)
        kernel = _exp_minus_one_over_t(5 * scale, order).invert()
        closed = exp_series(scale * shift, order) * kernel * _geometric_sum(chi, scale, order)
        assert value == closed.scale(scale)
        assert _char_integral(chi, scale, shift, order) is value


def test_series_tables_answer_a_fraction_scale_from_empty_tables():
    # an integral scale given as a Fraction builds, from empty tables, the
    # series the int builds, so the answer does not depend on what the
    # tables already hold
    chi = enumerate_characters(5)[1]
    F = Fraction
    calls = (  # (table, its arguments with int scales, the same with Fractions)
        (_t_over_exp_minus_one, (10, 6), (F(10), 6)),
        (_shifted_kernel, (10, F(2, 3), 6), (F(10), F(2, 3), 6)),
        (_char_integral, (chi, 2, F(1, 3), 6), (chi, F(2), F(1, 3), 6)),
        (_closed_denominator, ((30, 15, 10), 6), ((F(30), F(15), F(10)), 6)),
        (_closed_factor, ((10,), (), 0, F(1), 4), ((F(10),), (), 0, F(1), 4)),
        (_closed_factor, ((30, 15, 10), (30,), 2, 4, 6), ((30, 15, 10), (F(30),), 2, 4, 6)),
        (_plain_integral_inverse, (10, 2, 6), (F(10), 2, 6)),
    )
    for table, ints, fractions in calls:
        clear_caches()
        value = table(*fractions)
        clear_caches()
        assert value == table(*ints), table.__name__


# the memo tables of each lambda route; the character sums are the one
# leaf that both routes read
CLOSED_ROUTE_TABLES = (_closed_factor, _closed_denominator, _char_product)
INTEGRAL_ROUTE_TABLES = (
    _t_over_exp_minus_one, _shifted_kernel, _char_integral, _plain_integral_inverse,
)


def _all_specs(weights=(2, 3, 5)):
    ys = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))
    return [
        LambdaSpec(family, index, weights, ys[: LambdaSpec.y_arity(family, index)])
        for family, top in (("L23", 3), ("L13", 3), ("L12", 1))
        for index in range(top + 1)
    ]


def test_char_integral_table_is_read_by_the_integral_route_only():
    # each route of lambda reads no table of the other, so no series built
    # by one route is read by the other, at any spec or character
    chars = primitive_characters(7)[:2]
    specs = _all_specs()
    clear_caches()
    closed = [lambda_series(spec, chi, 8) for chi in chars for spec in specs]
    assert [t.cache_info().currsize for t in INTEGRAL_ROUTE_TABLES] == [0] * 4
    assert all(t.cache_info().currsize > 0 for t in CLOSED_ROUTE_TABLES)
    clear_caches()
    integrals = [lambda_series_from_integrals(spec, chi, 8) for chi in chars for spec in specs]
    assert [t.cache_info().currsize for t in CLOSED_ROUTE_TABLES] == [0] * 3
    assert all(t.cache_info().currsize > 0 for t in INTEGRAL_ROUTE_TABLES)
    info = _char_integral.cache_info()
    assert info.currsize == info.misses > 0 and info.hits > 0
    assert closed == integrals
    clear_caches()
    assert [t.cache_info().currsize for t in CLOSED_ROUTE_TABLES + INTEGRAL_ROUTE_TABLES] == [0] * 7


def test_closed_route_factors_are_keyed_by_their_exact_arguments():
    chi = enumerate_characters(5)[1]
    clear_caches()
    # d = 5 at weights (1, 2, 3): denominators at d * pairs, one numerator at d * big
    den, num = (30, 15, 10), (30,)
    factor = _closed_factor(den, num, 2, 4, 6)
    assert _closed_factor(den, num, Fraction(2), Fraction(4), 6) is factor
    unshifted = _closed_factor(den, num, 0, 4, 6)
    assert _closed_factor(den, num, Fraction(0), 4, 6) is unshifted
    longer = _closed_factor(den, num, 2, 4, 8)
    assert _closed_factor.cache_info().currsize == 3
    assert _closed_denominator(den, 6) is _closed_denominator((30, 15, 10), 6)
    assert _closed_denominator(den, 8).order == 8
    assert _closed_denominator.cache_info().currsize == 2  # one per order
    for shift, order, value in ((2, 6, factor), (0, 6, unshifted), (2, 8, longer)):
        # each inverse taken on its own, not of the product
        want = exp_series(shift, order) * _exp_minus_one_over_t(30, order)
        for c in den:
            want = want * _exp_minus_one_over_t(c, order).invert()
        assert value == want.scale(4)
        assert _closed_factor(den, num, shift, 4, order) is value
    product = _char_product(chi, (6, 3, 2), 6)
    assert _char_product(chi, (Fraction(6), 3, 2), 6) is product
    other = _char_product(enumerate_characters(5)[3], (6, 3, 2), 6)
    longer = _char_product(chi, (6, 3, 2), 8)
    assert _char_product.cache_info().currsize == 3
    assert other != product and longer.order == 8
    sums = [_geometric_sum(chi, s, 6) for s in (6, 3, 2)]
    assert product == sums[0] * sums[1] * sums[2]


def test_integral_route_factors_are_keyed_by_their_exact_arguments():
    clear_caches()
    kernel = _shifted_kernel(10, Fraction(2, 3), 6)
    assert _shifted_kernel(Fraction(10), Fraction(2, 3), 6) is kernel
    plain = _shifted_kernel(10, 0, 6)
    assert _shifted_kernel(10, Fraction(0), 6) is plain
    assert plain is _t_over_exp_minus_one(10, 6)  # no second copy of the unshifted kernel
    longer = _shifted_kernel(10, Fraction(2, 3), 8)
    assert _shifted_kernel.cache_info().currsize == 3
    third = Fraction(2, 3)
    for shift, order, value in ((third, 6, kernel), (0, 6, plain), (third, 8, longer)):
        assert value == _exp_minus_one_over_t(10, order).invert() * exp_series(shift, order)
    square = _plain_integral_inverse(10, 2, 6)
    assert _plain_integral_inverse(Fraction(10), 2, 6) is square
    single = _plain_integral_inverse(10, 1, 6)
    longer = _plain_integral_inverse(10, 2, 8)
    assert _plain_integral_inverse.cache_info().currsize == 3
    for power, order, value in ((2, 6, square), (1, 6, single), (2, 8, longer)):
        # (e^(10 t) - 1)/(10 t) to the power
        base = _exp_minus_one_over_t(10, order).scale(Fraction(1, 10))
        want = base
        for _ in range(power - 1):
            want = want * base
        assert value == want


def test_l13_and_l23_factors_at_equal_scales_never_collide():
    # L13 at the pair weights (15, 10, 6) of (2, 3, 5) has the denominator
    # and the character sums of L23 at (2, 3, 5), but another shift or
    # prefactor at every index: each spec keeps a factor of its own
    chi = primitive_characters(7)[0]
    clear_caches()
    for l23, l13 in zip(_all_specs()[:4], _all_specs((15, 10, 6))[4:8]):
        assert l23.family == "L23" and l13.family == "L13" and l13.ys == l23.ys
        for spec in (l23, l13):
            assert lambda_series(spec, chi, 8) == lambda_series_from_integrals(spec, chi, 8)
        assert lambda_series(l23, chi, 8) != lambda_series(l13, chi, 8)
    assert _closed_factor.cache_info().currsize == 8
    assert _closed_denominator.cache_info().currsize == 1
    assert _char_product.cache_info().currsize == 1
    # equal keys mean equal series: at ys/30 the index-0 L13 spec has the
    # shift and the prefactor of L23, and so reads its factor
    ys = _all_specs()[0].ys
    reduced = LambdaSpec("L13", 0, (15, 10, 6), tuple(y / 30 for y in ys))
    hits = _closed_factor.cache_info().hits
    assert lambda_series(reduced, chi, 8) == lambda_series(_all_specs()[0], chi, 8)
    assert _closed_factor.cache_info().hits == hits + 2
    assert _closed_factor.cache_info().currsize == 8


def test_every_memo_table_is_registered():
    # clear_caches reaches a table only through _CACHES, so every lru_cache
    # of bernoulli.py is registered there, and so bounded (see
    # test_memo_tables_are_bounded_and_cleared)
    def memo_tables(module):
        return {
            name: value
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear")
            and getattr(value, "__module__", None) == module.__name__
        }

    assert set(memo_tables(bernoulli).values()) == set(bernoulli._CACHES)
    # the other modules hold pure caches only, each a function of its one
    # argument that no test or long-lived process needs to empty:
    # characters._characters is the registry of character objects, one per
    # character and process, by whose identity every table above is keyed
    others = {
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(bernsym.__path__)
        if info.name != "bernoulli"
        for name in memo_tables(importlib.import_module(f"bernsym.{info.name}"))
    }
    assert others == {
        "characters._characters", "cli._parser", "cyclotomic.cyclotomic_polynomial",
        "cyclotomic.euler_phi",
    }


def test_memo_tables_are_bounded_and_cleared():
    chi = chi4()
    clear_caches()  # so that every table below takes a miss
    gen_bernoulli_poly(chi, 3, Fraction(1, 3))
    power_sum(chi, 2, 7)
    char_exp_sum(chi, 1, 6)
    _fold(chi, 2, Fraction(1, 2), ((3, 3),), 2)
    expansion_sum("L23.0", 2, chi, (1, 2, 3), (0, 0, 0))
    spec = LambdaSpec("L23", 1, (1, 2, 3), (Fraction(1, 2), 0))
    lambda_series(spec, chi, 6)
    lambda_series_from_integrals(spec, chi, 6)
    tables = (
        _number_table,
        _power_table,
        char_exp_sum,
        _t_over_exp_minus_one,
        _fold_table,
        _closed_factor,
        _closed_denominator,
        _char_product,
        _shifted_kernel,
        _char_integral,
        _plain_integral_inverse,
        _run_table,
    )
    assert set(bernoulli._CACHES) == {
        _number_table, _power_table, bernoulli._char_exp_sum, _t_over_exp_minus_one,
        _fold_table, _closed_factor, _closed_denominator, _char_product, _shifted_kernel,
        _char_integral, _plain_integral_inverse, _run_table,
    }
    for table in tables:
        info = table.cache_info()
        # the run table keeps the two entries that one degree run reads
        assert info.maxsize == (2 if table is _run_table else _CACHE_LIMIT)
        assert info.currsize > 0
    clear_caches()
    assert [table.cache_info().currsize for table in tables] == [0] * len(tables)


def _exp_series(chi, c, order):
    # exp_series takes no character; the rows below pass one to each builder
    return exp_series(c, order)


def _no_char(fn):
    # a constructor or method that takes no character, named for its row
    def call(chi, *args):
        return fn(*args)

    call.__name__ = fn.__qualname__
    return call


# a float or a bool would be computed in place of the intended value, and
# a string would be parsed; each raises instead, in the builders and in the
# element and series constructors alike
@pytest.mark.parametrize(
    "fn, args",
    [
        (gen_bernoulli_poly, (2, 0.1)),
        (gen_bernoulli_poly, (2, True)),
        (gen_bernoulli_poly, (2, "1/2")),
        (gen_bernoulli_poly, (True, Fraction(1, 2))),
        (gen_bernoulli_poly, (2.0, Fraction(1, 2))),
        (gen_bernoulli_number, (True,)),
        (gen_bernoulli_number, (2.0,)),
        (power_sum, (True, 7)),
        (power_sum, (2, True)),
        (power_sum, (2.0, 7)),
        (char_exp_sum, (0.1, 2)),
        (char_exp_sum, (True, 3)),
        (char_exp_sum, ("1/2", 3)),
        (char_exp_sum, (1, 3.0)),
        (_exp_series, (0.1, 2)),
        (_exp_series, (True, 2)),
        (_exp_series, ("1/2", 2)),
        (_exp_series, (1, 2.0)),
        (_exp_series, (zeta(4), 2)),
        (_no_char(CycloElement.from_rational), (0.1,)),
        (_no_char(CycloElement.from_rational), (True,)),
        (_no_char(CycloElement.from_coeffs), (4, [0.1, True])),
        (_no_char(CycloElement.from_coeffs), (4, [1, True])),
        (_no_char(zeta(4).scale), (0.1,)),
        (_no_char(zeta(4).scale), (True,)),
        (_no_char(TruncatedSeries.from_coeffs), (2, [0.1])),
        (_no_char(TruncatedSeries.from_coeffs), (2, [True])),
        (_no_char(TruncatedSeries.one(2).scale), (True,)),
        (_no_char(TruncatedSeries.one(2).scale), (0.1,)),
        (gen_bernoulli_series, (2.0,)),
        (gen_bernoulli_series, (True,)),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__,
)
def test_non_integer_arguments_are_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(chi4(), *args)


# a fold per character kind: trivial (y = 0 gives the argument 0, so
# 0^0 = 1 is used), imprimitive, and order 10 with phi = 4; data as
# (w, y, ((w_c, w_e), ...)), none (a Bernoulli value), one and two
# absorbed variables
_FOLD_CHARS = [
    enumerate_characters(1)[0],
    enumerate_characters(12)[1],
    enumerate_characters(11)[1],
]
_FOLDS = [
    (2, Fraction(0), ((3, 3),)),
    (3, Fraction(-1, 2), ((2, 1),)),
    (1, Fraction(2, 3), ((2, 2), (3, 3))),
    (3, Fraction(-1, 2), ()),
    (2, Fraction(0), ()),
]


@pytest.mark.parametrize("chi", _FOLD_CHARS, ids=["mod1", "mod12-imprimitive", "mod11-order10"])
def test_fold_grown_on_demand_equals_cold_fold(chi):
    for w, y, over in _FOLDS:
        clear_caches()
        cold = list(_fold(chi, w, y, over, 8))
        clear_caches()
        low = _fold(chi, w, y, over, 2)
        assert len(low) == 3
        kept = list(low)
        grown = _fold(chi, w, y, over, 8)
        assert grown is low  # one entry, grown in place
        assert grown[:3] == kept and all(a is b for a, b in zip(grown, kept))
        assert grown == cold
        assert _fold(chi, w, y, over, 5) is grown and len(grown) == 9
        assert _fold_table.cache_info().currsize == 1


def test_t3_and_t5_share_fold_entries():
    # T3's L23.1b folds (w_2 y_2, ratio w_2/w_3, a < w_3 d) and T5's
    # L23.2b folds (w_1 y_1, ratio w_1/w_2, a < w_2 d) are one family: over
    # all six permutations each reads the same (w_a, y, (w_c, w_c)) keys
    chi = enumerate_characters(5)[1]
    y1, y2 = Fraction(1, 3), Fraction(-1, 2)
    clear_caches()
    verify_theorem(TheoremInstance("T3", chi, 4, (1, 2, 5), (y1, y2)))
    before = _fold_table.cache_info()
    assert before.currsize > 0
    report = verify_theorem(TheoremInstance("T5", chi, 4, (1, 2, 5), (y2,)))
    after = _fold_table.cache_info()
    assert report.all_equal
    assert after.misses == before.misses and after.currsize == before.currsize
    assert after.hits == before.hits + 6


def test_bernoulli_slots_share_gen_bernoulli_poly_entries():
    # a route's B slot reads _fold_table at w_a*y in lowest terms, the key that
    # gen_bernoulli_poly uses; here every w_a*y is an integer
    chi = enumerate_characters(5)[1]
    w, ys = (2, 3, 4), (Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4))
    clear_caches()
    expansion_sum("L23.0", 3, chi, w, ys)
    before = _fold_table.cache_info()
    assert before.currsize == 3
    for a, y in zip(w, ys):
        for i in range(4):
            gen_bernoulli_poly(chi, i, a * y)
    after = _fold_table.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 12


def test_leaves_asked_for_in_ascending_n_grow_geometrically(monkeypatch):
    # each leaf entry grows to max(n, 2 * len(entry)), so a caller that
    # ascends in n rebuilds it a logarithmic number of times, and every
    # value equals a cold build at its index
    builds = {"_fold_moments": 0, "_moments": 0, "gen_bernoulli_series": 0,
              "linear_combination": 0, "_binomial_sums": 0}

    def counted(name):
        fn = getattr(bernoulli, name)

        def wrapper(*args):
            result = fn(*args)
            # the kernel counts each sum it returns, one per index
            builds[name] += len(result) if name == "_binomial_sums" else 1
            return result

        monkeypatch.setattr(bernoulli, name, wrapper)

    for name in builds:
        counted(name)
    chi, x, top = enumerate_characters(11)[1], Fraction(1, 3), 30
    leaves = [
        ("gen_bernoulli_series", lambda n: gen_bernoulli_number(chi, n)),
        ("_moments", lambda k: power_sum(chi, k, 20)),
        ("_fold_moments", lambda n: gen_bernoulli_poly(chi, n, x)),
    ]
    for name, leaf in leaves:
        clear_caches()
        if name == "_fold_moments":
            gen_bernoulli_number(chi, top)  # count the fold's own work only
        builds.update(dict.fromkeys(builds, 0))
        ascending = [leaf(n) for n in range(top + 1)]
        assert builds[name] <= 6
        if name == "_fold_moments":
            # the moments' sums and the expansion's
            assert builds["linear_combination"] + builds["_binomial_sums"] <= 90
        for n, value in enumerate(ascending):
            clear_caches()
            assert leaf(n) == value
