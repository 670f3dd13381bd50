"""Independent oracles used by the tests.

Everything here is computed from first principles (recurrences, brute
sums, schoolbook polynomial arithmetic) without touching the library's
series machinery, so agreement between the two is a real check.  Three
exceptions: fold_direct takes its values from gen_bernoulli_poly (which
tests/test_bernoulli.py checks against the oracles here) and checks only
the order in which the folded routes sum them; lifted_product multiplies
two series with the library's _dot after lifting both to one field, the
reference for the product that multiplies a rational factor in unlifted; and
power_sum_series builds the power sums' closed-form generating function
from the library's series leaves, a route the library's power sums,
read from moments, do not take.
"""

from fractions import Fraction
from itertools import product
from math import comb, lcm

from bernsym.bernoulli import _t_over_exp_minus_one, char_exp_sum, gen_bernoulli_poly
from bernsym.cyclotomic import CycloElement, _dot, cyclotomic_polynomial
from bernsym.series import _check_orders, _exp_minus_one_over_t, _series


def bernoulli_recurrence(n_max):
    """B_0..B_n_max from sum_{k=0}^{n} C(n+1,k) B_k = 0 (B_1 = -1/2)."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = Fraction(0)
        for k in range(m):
            s += comb(m + 1, k) * table[k]
        table.append(-s / (m + 1))
    return table


def bernoulli_poly(n, x, table=None):
    """Ordinary Bernoulli polynomial via the recurrence table."""
    x = Fraction(x)
    if table is None:
        table = bernoulli_recurrence(n)
    acc = Fraction(0)
    for k in range(n + 1):
        acc += comb(n, k) * table[k] * x ** (n - k)
    return acc


def gen_bernoulli_number(chi, n, table=None):
    """B_{n,chi} via d^(n-1) * sum_a chi(a) B_n(a/d)."""
    d = chi.modulus
    if table is None:
        table = bernoulli_recurrence(n)
    acc = CycloElement.zero(chi.order)
    for a in range(d):
        v = chi.values[a]
        if v != 0:
            acc = acc + v.scale(bernoulli_poly(n, Fraction(a, d), table))
    return acc.scale(Fraction(d) ** (n - 1))


def power_sum_direct(chi, k, n):
    """S_k(n, chi) summed term by term, 0^0 = 1."""
    acc = CycloElement.zero(chi.order)
    for a in range(n + 1):
        v = chi.values[a % chi.modulus]
        if v != 0:
            acc = acc + v.scale(a**k)
    return acc


def power_sum_series(chi, w, order):
    """Series whose egf coefficient at k is S_k(w*d - 1, chi).

    Built from the closed form
    (e^(w d t) - 1)/(e^(d t) - 1) * sum_{a<d} chi(a) e^(a t).
    """
    d = chi.modulus
    quotient = _exp_minus_one_over_t(w * d, order) * _t_over_exp_minus_one(d, order)
    return quotient * char_exp_sum(chi, 1, order)


def cauchy_product(a_coeffs, b_coeffs, order):
    """Schoolbook truncated product of ordinary coefficient lists."""
    out = []
    for n in range(order + 1):
        s = None
        for i in range(n + 1):
            term = a_coeffs[i] * b_coeffs[n - i]
            s = term if s is None else s + term
        out.append(s)
    return out


def lifted_product(a, b):
    """The series product a * b with both factors lifted to Q(zeta_lcm) first.

    Each row is lifted by vec_lift (long division by Phi_m) and each
    coefficient is one _dot over the lifted rows, reduced modulo Phi_m, so
    the result is the canonical series that the library's product, which
    lifts nothing, gives wherever one field order divides the other.
    """
    _check_orders(a, b)
    m = lcm(a.field_order, b.field_order)
    x, y = (
        [[int(v) for v in vec_lift(row, s.field_order, m)] for row in s.rows] for s in (a, b)
    )
    rows = [_dot(m, x[: k + 1], y[k::-1]) for k in range(a.order + 1)]
    return _series(a.order, m, rows, a.den * b.den)


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# -- Fraction-vector reference for Q(zeta_m) ------------------------------
# Elements are lists of phi(m) Fractions in the power basis; products and
# lifts are reduced by long division by Phi_m, not by power tables.


def vec_reduce(poly, m):
    """Remainder of a Fraction polynomial (ascending) modulo Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for e in range(len(poly) - 1, deg - 1, -1):
        c = poly[e]
        if c:
            for i, p in enumerate(phi):
                poly[e - deg + i] -= c * p
    return [Fraction(c) for c in poly[:deg]]


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_scale(a, q):
    return [x * q for x in a]


def vec_mul(a, b, m):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return vec_reduce(conv, m)


def vec_lift(a, m, m2):
    """Image under zeta_m -> zeta_m2^(m2/m)."""
    ratio = m2 // m
    poly = [Fraction(0)] * ((len(a) - 1) * ratio + 1)
    for i, x in enumerate(a):
        poly[i * ratio] = x
    return vec_reduce(poly, m2)


def vec_str(a, m):
    """The report rendering: "p/q" for a rational, else the tagged vector."""
    if not any(a[1:]):
        return str(a[0])
    return "[" + ", ".join(str(x) for x in a) + f"] @ zeta({m})"


def bernoulli_poly_binomial(numbers, n, x):
    """sum_j C(n,j) B_{n-j} x^j with each B_k a Fraction vector, term by term."""
    x = Fraction(x)
    acc = [Fraction(0)] * len(numbers[0])
    for j in range(n + 1):
        term = vec_scale(numbers[n - j], comb(n, j) * x**j)
        acc = vec_add(acc, term)
    return acc


def fold_direct(chi, i, x, shifts):
    """A character fold at Bernoulli index i, summed term by term.

    The sum of chi(prod a_c) B_{i,chi}(x + sum r_c a_c) over every tuple
    with 0 <= a_c < n_c, one (r_c, n_c) pair in shifts per absorbed
    variable; each value comes from gen_bernoulli_poly at its own
    argument, and the residues where chi vanishes are skipped.
    """
    d = chi.modulus
    acc = CycloElement.zero(chi.order)
    for tup in product(*[range(count) for _, count in shifts]):
        m = 1
        for a in tup:
            m *= a
        v = chi.values[m % d]
        if v == 0:
            continue
        arg = Fraction(x) + sum(r * a for (r, _), a in zip(shifts, tup))
        acc = acc + v * gen_bernoulli_poly(chi, i, arg)
    return acc
