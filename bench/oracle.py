"""Independent oracle for the trivial character mod 1.

For d = 1 the generalized Bernoulli polynomials are the ordinary ones
(B_1 = -1/2), and both the T1 expression at weights (w1, w2, w3) and
the egf coefficients of the L23 index-0 quotient equal

    sum_{k+l+m=n} n!/(k! l! m!) w1^(l+m) w2^(k+m) w3^(k+l)
                  B_k(w1 y1) B_l(w2 y2) B_m(w3 y3).

This module computes that sum with its own Bernoulli numbers, so the
benchmark can check exact values without trusting the program.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def bernoulli_poly(n: int, x: Fraction, b: list[Fraction]) -> Fraction:
    return sum(comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


def l23_index0(n: int, weights, ys) -> Fraction:
    w1, w2, w3 = weights
    y1, y2, y3 = (Fraction(y) for y in ys)
    b = bernoulli_numbers(n)
    bk = [bernoulli_poly(k, w1 * y1, b) for k in range(n + 1)]
    bl = [bernoulli_poly(k, w2 * y2, b) for k in range(n + 1)]
    bm = [bernoulli_poly(k, w3 * y3, b) for k in range(n + 1)]
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(n - k + 1):
            m = n - k - l
            coeff = comb(n, k) * comb(n - k, l)
            total += (
                coeff * Fraction(w1) ** (l + m) * Fraction(w2) ** (k + m) * Fraction(w3) ** (k + l)
                * bk[k] * bl[l] * bm[m]
            )
    return total
