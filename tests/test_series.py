import operator
import random
from fractions import Fraction

import pytest

from bernsym.cyclotomic import CycloElement, zeta
from bernsym.series import TruncatedSeries, _exp_minus_one_over_t, exp_series
from oracles import bernoulli_recurrence, cauchy_product


def test_exp_series_examples():
    assert exp_series(0, 5) == TruncatedSeries.one(5)
    e = exp_series(1, 3)
    assert [c.as_rational() for c in e.coeffs] == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    ez = exp_series(zeta(4), 2)
    assert ez.coeff(0) == 1
    assert ez.coeff(1) == zeta(4)
    assert ez.coeff(2) == Fraction(-1, 2)


def test_exp_series_homomorphism_example():
    a, b = 2, 3
    lhs = exp_series(a, 8) * exp_series(b, 8)
    rhs = exp_series(a + b, 8)
    assert lhs == rhs
    # independent brute-force product
    brute = cauchy_product(
        [c.as_rational() for c in exp_series(a, 8).coeffs],
        [c.as_rational() for c in exp_series(b, 8).coeffs],
        8,
    )
    assert [c.as_rational() for c in rhs.coeffs] == brute


def test_exp_series_homomorphism_random():
    rng = random.Random(9)
    for _ in range(20):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert exp_series(a, 12) * exp_series(b, 12) == exp_series(a + b, 12)


def test_additive_inverse_and_identity():
    s = exp_series(Fraction(3, 2), 6)
    assert (s + (-s)) == TruncatedSeries.zero(6)
    assert TruncatedSeries.one(6) * s == s


def _random_series(order, m, rng):
    coeffs = [
        CycloElement.from_coeffs(
            m, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        )
        for _ in range(order + 1)
    ]
    return TruncatedSeries(order, m, tuple(coeffs))


def test_ring_laws_order_12():
    rng = random.Random(1234)
    for _ in range(5):
        a = _random_series(12, 4, rng)
        b = _random_series(12, 4, rng)
        c = _random_series(12, 4, rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invert_geometric():
    s = TruncatedSeries.from_coeffs(3, [1, 1])  # 1 + t
    assert [c.as_rational() for c in s.invert().coeffs] == [1, -1, 1, -1]


def test_invert_gives_bernoulli_numbers():
    # t/(e^t - 1) inverted from (e^t - 1)/t; egf coefficients are B_n
    order = 12
    base = (exp_series(1, order + 1) - TruncatedSeries.one(order + 1)).shift_down(1)
    series = base.invert()
    oracle = bernoulli_recurrence(order)
    for n in range(order + 1):
        assert series.egf_coeff(n).as_rational() == oracle[n]
    assert series.egf_coeff(1).as_rational() == Fraction(-1, 2)
    assert series.egf_coeff(2).as_rational() == Fraction(1, 6)


def test_invert_round_trip():
    s = (exp_series(3, 11) - TruncatedSeries.one(11)).shift_down(1)
    inv = s.invert()
    assert inv.invert() == s
    assert s * inv == TruncatedSeries.one(10)


def test_invert_rejects_zero_constant():
    s = TruncatedSeries.from_coeffs(4, [0, 1])
    with pytest.raises(ValueError):
        s.invert()


def test_invert_rejects_cyclotomic_constant():
    s = TruncatedSeries.from_coeffs(4, [zeta(4), 1], field_order=4)
    with pytest.raises(ValueError):
        s.invert()


def test_shift_down():
    s = TruncatedSeries.from_coeffs(3, [0, 1, 1])  # t + t^2
    shifted = s.shift_down(1)
    assert [c.as_rational() for c in shifted.coeffs] == [1, 1, 0]

    d = 4
    g = exp_series(d, 6) - TruncatedSeries.one(6)
    assert g.shift_down(1).coeff(0) == d
    assert _exp_minus_one_over_t(d, 5) == g.shift_down(1)

    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs(3, [1, 1]).shift_down(1)


def test_shift_down_round_trip():
    rng = random.Random(55)
    s = _random_series(9, 3, rng)
    t3 = TruncatedSeries.from_coeffs(9, [0, 0, 0, 1])
    assert (t3 * s).shift_down(3) == s.truncate(6)


def test_egf_coeff():
    assert exp_series(3, 6).egf_coeff(4) == 81
    assert TruncatedSeries.zero(5).egf_coeff(3) == 0
    with pytest.raises(ValueError):
        exp_series(1, 3).egf_coeff(4)


def test_mixed_field_orders_lift():
    a = exp_series(1, 5)  # order 1 coefficients
    b = exp_series(zeta(4), 5)
    prod = a * b
    assert prod.field_order == 4
    one_plus = zeta(4) + 1
    assert prod == exp_series(one_plus, 5)


def test_scalar_arithmetic():
    s = exp_series(2, 4)
    one = TruncatedSeries.one(4)
    assert s.scale(3).coeff(0) == 3
    assert (s - one).coeff(0) == 0
    assert (one - s).coeff(1) == -2
    assert s.scale(Fraction(1, 2)).coeff(0) == Fraction(1, 2)


def test_operands_must_be_series_of_one_truncation_order():
    a, b = exp_series(1, 5), exp_series(1, 6)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="truncation order"):
            op(a, b)
        with pytest.raises(ValueError, match="truncation order"):
            op(b, a)
        for scalar in (1, Fraction(1, 2), zeta(4)):
            with pytest.raises(TypeError):
                op(a, scalar)
            with pytest.raises(TypeError):
                op(scalar, a)
