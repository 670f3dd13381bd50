import operator
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from bernsym.cyclotomic import (
    CycloElement,
    _conjugate,
    cyclotomic_polynomial,
    euler_phi,
    linear_combination,
    zeta,
)
import oracles
from oracles import poly_mul_int

# classical table, frozen independently of the recursive-division route
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomial_known_values():
    for m, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_polynomial_degree_is_phi():
    for m in range(1, 31):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_cyclotomic_product_recovers_x_pow_m_minus_1():
    for m in range(1, 25):
        prod = [1]
        for e in range(1, m + 1):
            if m % e == 0:
                prod = poly_mul_int(prod, list(cyclotomic_polynomial(e)))
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_zeta_basic_values():
    assert zeta(4, 2) == -1
    for m in range(1, 13):
        assert zeta(m, m) == 1
        assert zeta(m, 0) == 1
    assert zeta(6, 1) + zeta(6, 5) == 1


def test_zeta_rejects_zero_order():
    with pytest.raises(ValueError):
        zeta(0, 1)


def test_zeta_multiplicativity():
    for m in range(1, 13):
        for k in range(m):
            for j in range(m):
                assert zeta(m, k) * zeta(m, j) == zeta(m, k + j)


def test_geometric_sums():
    assert zeta(1, 0) == 1
    for m in range(2, 13):
        total = CycloElement.zero(m)
        for k in range(m):
            total = total + zeta(m, k)
        assert total == 0


def test_scalar_operations():
    z3 = zeta(3)
    assert z3.scale(Fraction(2, 3)) + z3.scale(Fraction(1, 3)) == z3
    assert 2 * z3 - z3 == z3
    assert zeta(4) * zeta(4) == -1


def test_operators_take_no_bool_or_float():
    # a bool is not taken as 0 or 1, nor a float as its binary value
    for other in (True, False, 0.5):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(zeta(4), other)
            with pytest.raises(TypeError):
                op(other, zeta(4))


def test_equality_takes_no_bool_or_float():
    # == follows the operators' type rule: a bool or a float is not a
    # rational, so the comparison is left to the other side and is False
    one, zero = CycloElement.one(), CycloElement.zero(4)
    for element, other in ((one, True), (zero, False), (one, 1.0), (zero, 0.0)):
        assert element.__eq__(other) is NotImplemented
        assert not element == other and element != other
        assert not other == element and other != element
    assert one == 1 and one == Fraction(1) and zero == 0 and zero == Fraction(0)


def _random_element(m, rng):
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(euler_phi(m))
    ]
    return CycloElement.from_coeffs(m, coeffs)


def test_ring_laws_on_random_elements():
    rng = random.Random(20240817)
    for m in (3, 4, 5, 6, 8, 12):
        for _ in range(8):
            a = _random_element(m, rng)
            b = _random_element(m, rng)
            c = _random_element(m, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta(3) * zeta(4)
    with pytest.raises(ValueError):
        zeta(3) + zeta(4)


def test_lift_examples():
    one2 = CycloElement.one(2)
    assert one2.lift(4) == CycloElement.one(4)
    assert zeta(2).lift(4) == -1
    assert zeta(3).lift(6) == zeta(6, 2)


def test_lift_rejects_non_divisible_target():
    with pytest.raises(ValueError):
        zeta(4).lift(6)


def test_lift_is_ring_homomorphism():
    rng = random.Random(424242)
    for m, m2 in ((2, 4), (3, 6), (4, 12), (6, 12), (1, 5), (5, 10)):
        for _ in range(6):
            a = _random_element(m, rng)
            b = _random_element(m, rng)
            assert (a * b).lift(m2) == a.lift(m2) * b.lift(m2)
            assert (a + b).lift(m2) == a.lift(m2) + b.lift(m2)


def test_conjugate_is_a_field_automorphism():
    # sigma_k: zeta -> zeta^k for k prime to m, up to m = 24 (phi = 8 at
    # 15, 16, 20 and 24): a ring map that fixes Q, sends zeta^j to zeta^(jk)
    # and composes as sigma_k o sigma_l = sigma_(kl)
    rng = random.Random(171719)
    for m in range(1, 25):
        units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
        a, b = _random_element(m, rng), _random_element(m, rng)
        for k in units:
            assert _conjugate(a * b, k) == _conjugate(a, k) * _conjugate(b, k)
            assert _conjugate(a + b, k) == _conjugate(a, k) + _conjugate(b, k)
            assert _conjugate(CycloElement.from_rational(Fraction(-7, 3), m), k) == Fraction(-7, 3)
            assert all(_conjugate(zeta(m, j), k) == zeta(m, j * k) for j in range(m))
            for l in units:
                assert _conjugate(_conjugate(a, k), l) == _conjugate(a, k * l % m or m)


def test_lift_preserves_rationals():
    q = Fraction(-7, 3)
    elem = CycloElement.from_rational(q, 3)
    lifted = elem.lift(12)
    assert lifted.is_rational()
    assert lifted.as_rational() == q


def test_cross_order_equality():
    # equality lifts both sides to the lcm order
    assert zeta(4, 2) == zeta(2, 1)
    assert CycloElement.one(3) == CycloElement.one(4)
    assert not (zeta(3) == zeta(4))


def test_rendering():
    assert str(zeta(4, 2)) == "-1"
    assert str(CycloElement.from_rational(Fraction(5, 2), 4)) == "5/2"
    assert str(zeta(4)) == "[0, 1] @ zeta(4)"


def test_non_rational_rejects_as_rational():
    with pytest.raises(ValueError):
        zeta(4).as_rational()


def _random_vector(m, rng):
    # zeros, small rationals and a few large numerators and denominators
    out = []
    for _ in range(euler_phi(m)):
        kind = rng.random()
        if kind < 0.3:
            out.append(Fraction(0))
        elif kind < 0.85:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        else:
            out.append(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)))
    return out


def _assert_normalized(x, m):
    assert x.order == m
    assert len(x.nums) == euler_phi(m)
    assert all(type(v) is int for v in x.nums) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


@pytest.mark.parametrize("m", range(1, 31))
def test_integer_layout_matches_fraction_reference(m):
    rng = random.Random(7000 + m)
    zero = [Fraction(0)] * euler_phi(m)
    one = CycloElement.one(m)
    # zeta_m^k against x^k reduced by long division
    cases = [
        (zeta(m, k), oracles.vec_reduce([Fraction(0)] * k + [Fraction(1)], m))
        for k in range(2 * m)
    ]
    for trial in range(6):
        va, vb = _random_vector(m, rng), _random_vector(m, rng)
        if trial == 0:
            vb = zero
        if trial == 1:
            va = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))] + zero[1:]
        a, b = CycloElement.from_coeffs(m, va), CycloElement.from_coeffs(m, vb)
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 15))
        weights = [rng.randint(-20, 20) for _ in range(3)]
        den = rng.randint(2, 30)
        vab = oracles.vec_mul(va, vb, m)
        fraction_sum = zero
        for c, v in zip(weights, (va, vb, vab)):
            fraction_sum = oracles.vec_add(fraction_sum, oracles.vec_scale(v, Fraction(c, den)))
        # product terms over mixed denominators, with a zero factor on
        # either side and a zero weight
        vaq = oracles.vec_scale(va, q)
        factors = [(a, va), (b, vb), (a.scale(q), vaq), (CycloElement.zero(m), zero)]
        products = [(rng.randint(-20, 20), x, y) for x in factors for y in factors]
        products[5] = (0,) + products[5][1:]
        product_sum = zero
        for c, (_, vx), (_, vy) in products:
            product = oracles.vec_scale(oracles.vec_mul(vx, vy, m), Fraction(c, den))
            product_sum = oracles.vec_add(product_sum, product)
        product_terms = [(c, x, y) for c, (x, _), (y, _) in products]
        for bad in ([(1, a, CycloElement.one(2 * m))], [(1, zeta(2 * m), a)]):
            with pytest.raises(ValueError):
                linear_combination(m, bad)
        cases += [
            (linear_combination(m, [(c, x, one) for c, x in zip(weights, (a, b, a * b))], den),
             fraction_sum),
            (linear_combination(m, [(1, a, one), (-1, a, one)]), zero),
            (linear_combination(m, product_terms, den), product_sum),
            (linear_combination(m, [], den), zero),
            (a, va),
            (a + b, oracles.vec_add(va, vb)),
            (a - b, oracles.vec_sub(va, vb)),
            (b - a, oracles.vec_sub(vb, va)),
            (a - a, zero),
            (-a, oracles.vec_scale(va, -1)),
            (a * b, vab),
            (a * a, oracles.vec_mul(va, va, m)),
            (a.scale(q), oracles.vec_scale(va, q)),
            (a.scale(3), oracles.vec_scale(va, 3)),
            (a * q, oracles.vec_scale(va, q)),
            (a + q, oracles.vec_add(va, [q] + zero[1:])),
        ]
        for m2 in (2 * m, 3 * m):
            cases.append((a.lift(m2), oracles.vec_lift(va, m, m2)))
    for got, want in cases:
        _assert_normalized(got, got.order)
        assert got.coeffs == tuple(want)
        assert str(got) == oracles.vec_str(want, got.order)
        assert got == CycloElement.from_coeffs(got.order, want)


def test_constructors_are_normalized():
    for m in range(1, 31):
        for k in range(m):
            _assert_normalized(zeta(m, k), m)
        for value in (0, 1, -3, Fraction(6, 4), Fraction(-5, 10**9)):
            _assert_normalized(CycloElement.from_rational(value, m), m)
        _assert_normalized(CycloElement.zero(m), m)
        _assert_normalized(CycloElement.from_coeffs(m, [Fraction(2, 4)] * euler_phi(m)), m)
