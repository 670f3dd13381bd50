import random
from fractions import Fraction
from math import lcm

import pytest

from bernsym.cyclotomic import (
    CycloElement,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)
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
        assert total.is_zero()


def test_scalar_operations():
    z3 = zeta(3)
    assert z3.scale(Fraction(2, 3)) + z3.scale(Fraction(1, 3)) == z3
    assert 2 * z3 - z3 == z3
    assert zeta(4) * zeta(4) == -1
    assert (zeta(4) ** 2) == -1


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
