"""sympy as an independent oracle for cyclotomic and Bernoulli polynomials.

sympy is a test-only dependency; these tests skip without it.
"""

from fractions import Fraction

import pytest

from bernsym.bernoulli import ordinary_bernoulli_poly
from bernsym.cyclotomic import cyclotomic_polynomial

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def test_cyclotomic_polynomials_match_sympy():
    for m in range(1, 201):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(m)) == [int(c) for c in expected], m


def test_ordinary_bernoulli_polynomials_match_sympy():
    # the polynomials agree under both B_1 conventions: only the number
    # sympy.bernoulli(1) is +1/2, and the polynomial B_1(x) = x - 1/2 is not
    points = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]
    for n in range(17):
        for q in points:
            expected = sympy.bernoulli(n, sympy.Rational(q.numerator, q.denominator))
            assert ordinary_bernoulli_poly(n, q) == Fraction(str(expected)), (n, q)
