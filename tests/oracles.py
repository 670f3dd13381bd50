"""Independent oracles used by the tests.

Everything here is computed from first principles (recurrences, brute
sums, schoolbook polynomial arithmetic) without touching the library's
series machinery, so agreement between the two is a real check.  Three
exceptions: fold_direct takes its values from gen_bernoulli_poly (which
tests/test_bernoulli.py checks against the oracles here) and checks only
the order in which the folded routes sum them; lifted_product multiplies
two series with the library's _dot, one call per coefficient, after
lifting both to one field.  It is the reference for the library's
product, which multiplies a rational factor in unlifted and splits it
into scalars in one _convolve call; it keeps the per-coefficient _dot so
that it shares no code with that kernel.  And power_sum_series builds
the power sums' closed-form generating function from the library's
series leaves, a route the library's power sums, read from moments, do
not take.  And route_at_degree, the per-degree evaluator of the route
table that the library's one-pass run evaluator replaced, reads the
library's leaves; it sums them over n in its own integer arithmetic,
poly_mul_int and one vec_reduce, not through the library's binomial-sum
kernel.  Last, induced_bernoulli_number, induced_bernoulli_poly and
induced_power_sum take the primitive character behind an imprimitive one
from the library's enumeration and conductor; a wrong conductor or table
finds no such character.
"""

from fractions import Fraction
from itertools import product
from math import comb, lcm

from bernsym.bernoulli import (
    _fold,
    _power_sums,
    _t_over_exp_minus_one,
    char_exp_sum,
    gen_bernoulli_poly,
)
from bernsym.characters import enumerate_characters
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


def _int_rows(values):
    # the numerator rows of elements over their common denominator, and that
    # denominator
    den = lcm(*(x.den for x in values))
    return [[v * (den // x.den) for v in x.nums] for x in values], den


def _weighted_products(terms):
    # sum c * poly_mul_int(x, y) over (c, x, y), an integer polynomial with
    # no reduction modulo Phi_m
    acc = []
    for c, x, y in terms:
        prod = poly_mul_int(x, y)
        acc += [0] * (len(prod) - len(acc))
        for i, t in enumerate(prod):
            acc[i] += c * t
    return acc


def route_at_degree(route, n, chi, weights, ys, bump):
    """One row of identities._ROUTES at degree n alone, with n's own powers.

    Slot j contributes w_j^(e_j + [slot is B or F]) with e_j = n - i_j in
    family L23 and i_j in L12, raised by bump in the route's bump column;
    each power is kept times its own weight, the inner sum over the last
    two slots is rebuilt at every degree, and the sum is divided by
    w1 w2 w3 once.  The products are integer polynomials over one common
    denominator, reduced modulo Phi_m by one vec_reduce at the end.
    """
    complementary = route.family == "L23"
    scale, free = 1, []
    degrees = range(n + 1)
    for j, slot in enumerate(route.slots):
        w = weights[j]
        e = bump if j in route.bump else 0
        if slot is None:
            scale *= w ** ((n if complementary else 0) + e)
            continue
        if slot[0] == "S":
            values = _power_sums(chi, weights[slot[1]] * chi.modulus - 1, n)
        else:
            e += 1
            pairs = tuple((weights[c], weights[f]) for c, f in slot[3])
            values = _fold(chi, weights[slot[1]], ys[slot[2]], pairs, n)
        powers = [w ** ((n - i if complementary else i) + e) for i in degrees]
        free.append((powers, values[: n + 1]))
    den = weights[0] * weights[1] * weights[2]
    p, v = free[0]
    if len(free) == 1:
        return v[n].scale(Fraction(scale * p[n], den))
    v, dv = _int_rows(v)
    q, u = free[1]
    u, du = _int_rows(u)
    if len(free) == 3:
        r, s = free[2]
        s, ds = _int_rows(s)
        inner = [
            _weighted_products((comb(m, l) * q[l] * r[m - l], u[l], s[m - l]) for l in range(m + 1))
            for m in degrees
        ]
        q, u, du = [1] * (n + 1), inner, du * ds
    acc = _weighted_products((scale * comb(n, k) * p[k] * q[n - k], v[k], u[n - k]) for k in degrees)
    coeffs = vec_reduce([Fraction(t, dv * du * den) for t in acc], chi.order)
    return CycloElement.from_coeffs(chi.order, coeffs)


def inducing_character(chi):
    """The primitive character mod chi.conductor that agrees with chi on chi's units."""
    f = chi.conductor
    for prim in enumerate_characters(f):
        if prim.primitive and all(chi.values[a] == prim.values[a % f] for a in chi.units):
            return prim
    raise ValueError(f"no primitive character mod {f} induces {chi!r}")


def _dropped_primes(chi, prim):
    # the primes that divide chi's modulus but not prim's, the conductor
    return [
        p
        for p in range(2, chi.modulus + 1)
        if all(p % q for q in range(2, p)) and chi.modulus % p == 0 and prim.modulus % p
    ]


def _divisors_with_mobius(primes):
    # (e, mu(e)) for every divisor e of the product of the given primes
    out = [(1, 1)]
    for p in primes:
        out += [(e * p, -mu) for e, mu in out]
    return out


def induced_bernoulli_number(chi, n):
    """B_{n,chi} from the primitive character chi_f that induces chi.

    B_{n,chi} = B_{n,chi_f} prod_p (1 - chi_f(p) p^(n-1)), p over the primes
    that divide the modulus but not the conductor f (Washington, Introduction
    to Cyclotomic Fields, ch. 4); B_{n,chi_f} is gen_bernoulli_number above.
    """
    prim = inducing_character(chi)
    value = gen_bernoulli_number(prim, n)
    for p in _dropped_primes(chi, prim):
        value = value - value * prim.values[p % prim.modulus].scale(Fraction(p) ** (n - 1))
    return value


def induced_bernoulli_poly(chi, n, x):
    """B_{n,chi}(x) from the primitive character chi_f that induces chi.

    B_{n,chi}(x) = sum over e | P of mu(e) chi_f(e) e^(n-1) B_{n,chi_f}(x/e),
    P the product of the primes that divide the modulus but not f; each
    B_{n,chi_f}(y) is the binomial sum of gen_bernoulli_number above times
    the powers of y.
    """
    prim = inducing_character(chi)
    numbers = [gen_bernoulli_number(prim, k) for k in range(n + 1)]
    acc = CycloElement.zero(prim.order)
    for e, mu in _divisors_with_mobius(_dropped_primes(chi, prim)):
        y = Fraction(x) / e
        for k in range(n + 1):
            c = mu * comb(n, k) * Fraction(e) ** (n - 1) * y ** (n - k)
            acc = acc + (prim.values[e % prim.modulus] * numbers[k]).scale(c)
    return acc


def induced_power_sum(chi, k, m):
    """S_k(m, chi) from the primitive character chi_f that induces chi.

    S_k(m, chi) = sum over e | P of mu(e) chi_f(e) e^k S_k(floor(m/e), chi_f),
    P as in induced_bernoulli_poly, each S_k summed by power_sum_direct.
    """
    prim = inducing_character(chi)
    acc = CycloElement.zero(prim.order)
    for e, mu in _divisors_with_mobius(_dropped_primes(chi, prim)):
        term = prim.values[e % prim.modulus] * power_sum_direct(prim, k, m // e)
        acc = acc + term.scale(mu * e**k)
    return acc
