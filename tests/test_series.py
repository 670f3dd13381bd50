import operator
import random
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm

import pytest

import oracles
from bernsym.cyclotomic import CycloElement, euler_phi, zeta
from bernsym.series import TruncatedSeries, _exp_minus_one_over_t, exp_series
from oracles import (
    bernoulli_recurrence,
    cauchy_product,
    vec_add,
    vec_lift,
    vec_mul,
    vec_scale,
    vec_sub,
)


def test_exp_series_examples():
    assert exp_series(0, 5) == TruncatedSeries.one(5)
    e = exp_series(1, 3)
    assert [c.as_rational() for c in e.coeffs] == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    # exp_series and char_exp_sum share one builder: the egf coefficients
    # of exp(c t) are c^k in closed form
    c = Fraction(-2, 3)
    assert [exp_series(c, 8).egf_coeff(k) for k in range(9)] == [c**k for k in range(9)]


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
    return TruncatedSeries.from_coeffs(order, coeffs, m)


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
    base = _exp_minus_one_over_t(1, order)
    series = base.invert()
    oracle = bernoulli_recurrence(order)
    for n in range(order + 1):
        assert series.egf_coeff(n).as_rational() == oracle[n]
    assert series.egf_coeff(1).as_rational() == Fraction(-1, 2)
    assert series.egf_coeff(2).as_rational() == Fraction(1, 6)


def test_invert_round_trip():
    s = _exp_minus_one_over_t(3, 10)
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


def test_exp_minus_one_over_t_matches_closed_form():
    # (e^(c t) - 1)/t has egf coefficients c^(k+1)/(k+1), and its ordinary
    # coefficient of t^k is that of t^(k+1) in exp(c t) - 1
    for c in (1, 4, -3):
        s = _exp_minus_one_over_t(c, 5)
        assert [s.egf_coeff(k) for k in range(6)] == [
            Fraction(c ** (k + 1), k + 1) for k in range(6)
        ]
        g = exp_series(c, 6) - TruncatedSeries.one(6)
        assert s.coeffs == g.coeffs[1:]


def test_egf_coeff():
    assert exp_series(3, 6).egf_coeff(4) == 81
    assert TruncatedSeries.zero(5).egf_coeff(3) == 0
    with pytest.raises(ValueError):
        exp_series(1, 3).egf_coeff(4)


def test_operations_across_two_fields_raise():
    # each operation works in one field; from_coeffs is the one conversion
    rational = exp_series(1, 5)
    quartic = TruncatedSeries.from_coeffs(5, [zeta(4), 1], 4)
    cubic = TruncatedSeries.from_coeffs(5, [zeta(3), 1], 3)
    pairs = [
        (operator.mul, quartic, cubic),
        (operator.mul, cubic, quartic),
        (operator.mul, TruncatedSeries.one(5, 2), cubic),
        (operator.mul, quartic, TruncatedSeries.from_coeffs(5, [zeta(4)], 8)),
        (operator.add, rational, quartic),
        (operator.sub, quartic, rational),
        (operator.add, quartic, cubic),
        (operator.eq, rational, quartic),
        (operator.eq, quartic, TruncatedSeries.from_coeffs(5, quartic.coeffs, 8)),
    ]
    for op, a, b in pairs:
        with pytest.raises(ValueError, match=f"field order mismatch: {a.field_order} vs "):
            op(a, b)
    # the exception: a rational factor whose field order divides the other's
    # (e^t (zeta_4 + t) has coefficients zeta_4/k! + 1/(k-1)!)
    want = [zeta(4).scale(Fraction(1, factorial(k))) for k in range(6)]
    want = [x + (Fraction(1, factorial(k - 1)) if k else 0) for k, x in enumerate(want)]
    for prod in (rational * quartic, quartic * rational):
        assert prod.field_order == 4
        assert list(prod.coeffs) == want


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


# -- the integer-row layout against a Fraction-vector reference ------------
# A reference series is a list of order + 1 power-basis vectors of
# Fractions; products go through oracles.cauchy_product on _Vec, whose
# product is oracles.vec_mul (long division by Phi_m).


class _Vec:
    def __init__(self, v, m):
        self.v, self.m = v, m

    def __add__(self, other):
        return _Vec(vec_add(self.v, other.v), self.m)

    def __mul__(self, other):
        return _Vec(vec_mul(self.v, other.v, self.m), self.m)


def _ref_mul(a, b, m):
    order = len(a) - 1
    return [x.v for x in cauchy_product([_Vec(v, m) for v in a], [_Vec(v, m) for v in b], order)]


def _ref_invert(a, m):
    # b_0 = 1/a_0, b_k = -(1/a_0) sum_{j>=1} a_j b_{k-j}, in Fractions
    inv0 = 1 / a[0][0]
    out = [vec_scale([Fraction(1)] + [Fraction(0)] * (len(a[0]) - 1), inv0)]
    for k in range(1, len(a)):
        acc = [Fraction(0)] * len(a[0])
        for j in range(1, k + 1):
            acc = vec_add(acc, vec_mul(a[j], out[k - j], m))
        out.append(vec_scale(acc, -inv0))
    return out


def _ref_series(rng, order, m, rational_head=False):
    # Fraction vectors with 12-digit numerators, some zero rows and zero entries
    phi = euler_phi(m)
    rows = []
    for k in range(order + 1):
        if k and rng.random() < 0.25:
            rows.append([Fraction(0)] * phi)
            continue
        row = [
            Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**4))
            if rng.random() < 0.8 else Fraction(0)
            for _ in range(phi)
        ]
        rows.append(row)
    if rational_head:
        rows[0] = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**4))]
        rows[0] += [Fraction(0)] * (phi - 1)
    return rows


def _build(rows, m):
    coeffs = [CycloElement.from_coeffs(m, r) for r in rows]
    return TruncatedSeries.from_coeffs(len(rows) - 1, coeffs, m)


def _vectors(s):
    # the stored rows over the stored denominator, with the layout invariant
    phi = euler_phi(s.field_order)
    assert len(s.rows) == s.order + 1
    assert all(type(row) is tuple and len(row) == phi for row in s.rows)
    assert s.den > 0
    assert gcd(s.den, *chain.from_iterable(s.rows)) == 1
    if not any(chain.from_iterable(s.rows)):
        assert s.den == 1
    return [[Fraction(x, s.den) for x in row] for row in s.rows]


def test_integer_layout_matches_fraction_reference():
    rng = random.Random(2024)
    for m in range(1, 31):
        # every order 0..12 over the fields with phi(m) <= 12; short series above
        order = (m - 1) % 13 if euler_phi(m) <= 12 else m % 4
        m2 = (1, 2, 3, 4)[m % 4]
        if euler_phi(lcm(m, m2)) > max(12, euler_phi(m)):
            m2 = 2  # a second field order for Q
        l = lcm(m, m2)
        ra, rb = _ref_series(rng, order, m), _ref_series(rng, order, m)
        rc = _ref_series(rng, order, m, rational_head=True)
        rp = _ref_series(rng, order, m2)
        a, b, c, p = _build(ra, m), _build(rb, m), _build(rc, m), _build(rp, m2)
        q = Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        zero_row = [Fraction(0)] * euler_phi(m)
        cases = [
            (a, ra),
            (a + b, [vec_add(x, y) for x, y in zip(ra, rb)]),
            (a - b, [vec_sub(x, y) for x, y in zip(ra, rb)]),
            (a - a, [zero_row] * (order + 1)),
            (-a, [vec_scale(x, -1) for x in ra]),
            (a * b, _ref_mul(ra, rb, m)),
            (a.scale(q), [vec_scale(x, q) for x in ra]),
            (a.scale(0), [zero_row] * (order + 1)),
            (c.invert(), _ref_invert(rc, m)),
        ]
        # across fields (m2 != m here) only a product with a rational
        # factor whose field order divides the other's is defined
        if (euler_phi(m2) == 1 and m % m2 == 0) or (euler_phi(m) == 1 and m2 % m == 0):
            la = [vec_lift(v, m, l) for v in ra]
            lp = [vec_lift(v, m2, l) for v in rp]
            cases.append((a * p, _ref_mul(la, lp, l)))
        else:
            with pytest.raises(ValueError, match="field order mismatch"):
                a * p
        for got, want in cases:
            assert _vectors(got) == want, (m, order)
        # equality: canonical rows within one field
        assert a == _build(ra, m) and (a == b) == (ra == rb)
        assert (a == a + b) == (not any(map(any, rb)))
        assert (a == a.scale(Fraction(1, 7))) == (not any(map(any, ra)))  # other den
        assert c * c.invert() == TruncatedSeries.one(order, m)
        for op, x, y in (
            (operator.add, a, p),
            (operator.sub, p, a),
            (operator.eq, a, p),
            (operator.eq, a, TruncatedSeries.from_coeffs(order, a.coeffs, 2 * m)),
        ):
            with pytest.raises(ValueError, match="field order mismatch"):
                op(x, y)


# -- a rational factor multiplied in unlifted --------------------------------


def _rational_series(rng, order, m):
    # rows of length 1 over field order m (1 or 2), with zero rows and
    # negative entries
    values = [
        0 if k % 3 == 1 else Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**3))
        for k in range(order + 1)
    ]
    return TruncatedSeries.from_coeffs(order, values, m)


def test_rational_factor_product_equals_the_lifted_product():
    # a rational factor (rows of length 1, field order 1 or 2) on either
    # side; when one field order divides the other, the product equals the
    # product of both factors lifted to the larger field, and otherwise (2
    # against 3, 5, 7, 11) it raises
    rng = random.Random(22)
    for m in (1, 2, 3, 4, 5, 7, 8, 11, 16):
        for m_rational in (1, 2):
            l = lcm(m, m_rational)
            for order in (0, 3, 12, 40):
                r = _rational_series(rng, order, m_rational)
                c = _build(_ref_series(rng, order, m), m)
                for a, b in ((r, c), (c, r)):
                    if l not in (m, m_rational):
                        with pytest.raises(ValueError, match="field order mismatch"):
                            a * b
                        continue
                    want = oracles.lifted_product(a, b)
                    got = a * b
                    assert (got.field_order, got.rows, got.den) == (
                        want.field_order, want.rows, want.den
                    ), (m, m_rational, order)
                    assert _vectors(got) == _vectors(want)
