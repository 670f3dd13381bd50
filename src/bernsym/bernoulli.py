"""Bernoulli numbers and polynomials attached to Dirichlet characters.

The generating series for the numbers B_{n,chi} attached to a character
chi mod d is

    t/(e^(d t) - 1) * sum_{a=0}^{d-1} chi(a) e^(a t),

and e^(x t) times the same series generates the polynomials B_{n,chi}(x).
The modulus-1 character, enumerate_characters(1)[0], gives the ordinary
B_n and B_n(x) of t/(e^t - 1), with B_1 = -1/2.
The numbers are extracted exactly from a truncated series.  Every other
value is read from power moments.  One kernel, _expand, applies the
binomial expansion

    B_{n,chi}(x) = sum_k C(n,k) B_{k,chi} x^(n-k)

to the moments M_j = sum chi(r) P^j of a list of arguments P/D, each with
a residue r: the one argument x of a polynomial value, or every argument
of a character fold, the coefficient that the folded routes of
identities.py sum,

    sum over a_c < w_c d of chi(prod a_c) B_{i,chi}(w y + sum (w/w_e) a_c),

with one pair (w_c, w_e) per absorbed variable.  So a Bernoulli value is
a fold with no absorbed variable (the series product remains available
to tests as an independent construction).  Generalized power sums

    S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k,  with 0^0 = 1,

are the same moments, M_k, of the integers a <= n, each at its residue
a mod d, and one function, _moments, builds every list of moments.

Every series that a lambda route of identities.py reads is built once
per process, like the numbers, the folds and the power sums.  A quotient
of p-adic integrals is a rational factor in t, fixed by d, the weights
and the y-shifts, times the character sums sum_a chi(a) e^(a s t), so a
route built again at another character of the same modulus builds only
its character products.  The character sums are the one leaf that both
routes read; every other table serves one route:

* the closed route: _closed_denominator, the inverted product of its
  denominators; _closed_factor, the whole rational factor; and
  _char_product, the product of its character sums;
* the integral route: _t_over_exp_minus_one, the kernel t/(e^(c t) - 1),
  which the Bernoulli numbers read too; _shifted_kernel, the kernel times
  e^(s t); _char_integral, the factor of one variable; and
  _plain_integral_inverse, the power of an inverted plain integral.

So no series built by one lambda route is read by the other.

All functions are pure given the memo tables below; workers in a
process pool each hold their own tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .characters import DirichletChar
from .cyclotomic import CycloElement, linear_combination
from .series import (
    TruncatedSeries,
    _check_order,
    _exp_minus_one_over_t,
    _exp_sum,
    _product,
    exp_series,
)

__all__ = [
    "gen_bernoulli_series",
    "gen_bernoulli_number",
    "gen_bernoulli_poly",
    "power_sum",
    "char_exp_sum",
    "clear_caches",
]

# Memo tables: each is an lru_cache keyed by its exact arguments, a
# character by the object itself (one per key in each process, see
# characters.py).  The leaves read by index, _number_table (B_{k,chi} per
# character), _power_table (S_k(m, chi) per range) and _fold_table (per
# fold, a Bernoulli value included), hold one list of values by index
# each, grown on demand by _grow, so a caller that ascends in n rebuilds
# an entry O(log n) times.  identities.sweep_verify asks each leaf for its
# top index first, so a sweep builds it once, at exactly that index.
# _run_table holds the routes of identities.py, one entry per (route, chi,
# weights, ys, bump) mapping each permuted weight triple to its list of
# values by degree, grown by the same rule; it is filled by identities.py,
# which this module does not import.  _char_exp_sum and the tables of
# the lambda routes (see the module docstring) hold one series each, and
# _one the unit of one field.  Each table evicts its least recently used
# entries above its size, two for _run_table (see there) and this limit
# for every other, which keeps long sweeps and long-lived processes at a
# flat memory profile.  Every table is registered in _CACHES, at the end
# of this module, so that clear_caches reaches it.
_CACHE_LIMIT = 200_000


def _grow(entry: list, n: int, build) -> list:
    # The one growth rule of the lists by index: asked for an index n past
    # its end, build(start, top) gives the values at indices start =
    # len(entry) up to top, n or twice the length if that is more, and
    # they are appended.  Returns the entry, read, never changed, by the
    # caller.
    if len(entry) <= n:
        start = len(entry)
        entry.extend(build(start, max(n, 2 * start)))
    return entry


@lru_cache(maxsize=_CACHE_LIMIT)
def _one(order: int) -> CycloElement:
    # the unit of Q(zeta_order), the second factor of every weighted sum
    # below and of the fold moments; built once per field order
    return CycloElement.one(order)


def char_exp_sum(chi: DirichletChar, scale, order: int) -> TruncatedSeries:
    """The finite character sum sum_{a=0}^{d-1} chi(a) e^(a*scale*t).

    scale is an int or a Fraction (not a bool or a float); the sum is
    built once per (chi, scale, order) and process.
    """
    if type(scale) is not int and type(scale) is not Fraction:
        raise ValueError("scale must be an int or a Fraction")
    _check_order(order)
    return _char_exp_sum(chi, scale, order)


@lru_cache(maxsize=_CACHE_LIMIT)
def _char_exp_sum(chi: DirichletChar, scale, order: int) -> TruncatedSeries:
    terms = [(a, chi.values[a]) for a in chi.units]
    return _exp_sum(chi.order, terms, scale, order)


# the table's counters, under the public name that the README gives
char_exp_sum.cache_info = _char_exp_sum.cache_info


@lru_cache(maxsize=_CACHE_LIMIT)
def _t_over_exp_minus_one(c: int, order: int) -> TruncatedSeries:
    # t/(e^(c t) - 1), truncated at t^order, for an integer c != 0
    return _exp_minus_one_over_t(c, order).invert()


# The factors of the two lambda routes of identities.py: each table below
# is read by one route only (the module docstring lists them).


@lru_cache(maxsize=_CACHE_LIMIT)
def _closed_factor(den_scales, num_scales, shift, prefactor, order: int) -> TruncatedSeries:
    # The closed route's rational factor, its scales already times d:
    # prefactor * e^(shift t) * prod over num_scales of (e^(c t) - 1)/t,
    # divided by the product over den_scales of (e^(c t) - 1)/t; exp(0 t)
    # = 1 is left out
    num = [exp_series(shift, order)] if shift else []
    num += [_exp_minus_one_over_t(c, order) for c in num_scales]
    return _product(num + [_closed_denominator(den_scales, order)]).scale(prefactor)


@lru_cache(maxsize=_CACHE_LIMIT)
def _closed_denominator(den_scales, order: int) -> TruncatedSeries:
    # the closed route's divisor: the product over den_scales of
    # (e^(c t) - 1)/t, inverted as one series; it depends on d and the
    # weights only, so every spec of a family at one modulus reads it
    den = _product([_exp_minus_one_over_t(c, order) for c in den_scales])
    return den.invert()


@lru_cache(maxsize=_CACHE_LIMIT)
def _char_product(chi: DirichletChar, scales, order: int) -> TruncatedSeries:
    # the closed route's character factor: the character sums at scales
    return _product([char_exp_sum(chi, s, order) for s in scales])


@lru_cache(maxsize=_CACHE_LIMIT)
def _shifted_kernel(c: int, shift, order: int) -> TruncatedSeries:
    # the integral route's rational factor of one variable,
    # t/(e^(c t) - 1) * e^(shift t)
    result = _t_over_exp_minus_one(c, order)
    if shift:
        result = result * exp_series(shift, order)
    return result


@lru_cache(maxsize=_CACHE_LIMIT)
def _char_integral(chi: DirichletChar, scale: int, shift, order: int) -> TruncatedSeries:
    # The factor of one variable of the integral route, the closed form of
    # the character-weighted p-adic integral:
    # scale * e^(scale*shift*t) * t/(e^(d*scale*t) - 1) * charsum(scale),
    # its rational part read from _shifted_kernel
    kernel = _shifted_kernel(chi.modulus * scale, scale * shift, order)
    return (kernel * char_exp_sum(chi, scale, order)).scale(scale)


@lru_cache(maxsize=_CACHE_LIMIT)
def _plain_integral_inverse(c: int, power: int, order: int) -> TruncatedSeries:
    # The integral route's divisor: the plain exponential integral
    # c t/(e^(c t) - 1), inverted, to the given power
    inverse = _t_over_exp_minus_one(c, order).scale(c).invert()
    return _product([inverse] * power)


def gen_bernoulli_series(chi: DirichletChar, order: int) -> TruncatedSeries:
    """Series whose egf coefficients are B_{0,chi} .. B_{order,chi}."""
    _check_order(order)
    return _t_over_exp_minus_one(chi.modulus, order) * char_exp_sum(chi, 1, order)


@lru_cache(maxsize=_CACHE_LIMIT)
def _number_table(chi: DirichletChar) -> list[CycloElement]:
    # the entry of one character: B_{0,chi}, B_{1,chi}, ..., filled by _gen_numbers
    return []


def _gen_numbers(chi: DirichletChar, n: int) -> list[CycloElement]:
    # B_{k,chi} at every k <= n, read from the series when the entry is short
    def build(start, top):
        series = gen_bernoulli_series(chi, top)
        return [series.egf_coeff(k) for k in range(start, top + 1)]

    return _grow(_number_table(chi), n, build)


def gen_bernoulli_number(chi: DirichletChar, n: int) -> CycloElement:
    """Generalized Bernoulli number B_{n,chi}, memoized per character."""
    if type(n) is not int or n < 0:
        raise ValueError("Bernoulli index must be a nonnegative int")
    return _gen_numbers(chi, n)[n]


def gen_bernoulli_poly(chi: DirichletChar, n: int, x) -> CycloElement:
    """Generalized Bernoulli polynomial B_{n,chi}(x) at exact rational x.

    Served through the binomial expansion over cached B_{k,chi}; x is an
    int or a Fraction (not a bool or a float) and otherwise unrestricted.
    With x = p/q the sum is taken in integers over the common denominator
    lcm(den B_{k,chi}) * q^n.
    """
    if type(n) is not int or n < 0:
        raise ValueError("Bernoulli index must be a nonnegative int")
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError("x must be an int or a Fraction")
    return _fold(chi, 1, x, (), n)[n]


def power_sum(chi: DirichletChar, k: int, n: int) -> CycloElement:
    """Generalized power sum S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k.

    Uses the convention 0^0 = 1, so for k = 0 the a = 0 term contributes
    chi(0) (nonzero only for the modulus-1 character).
    """
    if type(k) is not int or type(n) is not int or k < 0 or n < 0:
        raise ValueError("power sum requires ints k >= 0 and n >= 0")
    return _power_sums(chi, n, k)[k]


@lru_cache(maxsize=_CACHE_LIMIT)
def _power_table(chi: DirichletChar, m: int) -> list[CycloElement]:
    # the entry of one range: S_0(m, chi), S_1(m, chi), ..., filled by _power_sums
    return []


def _power_sums(chi: DirichletChar, m: int, n: int) -> list[CycloElement]:
    # S_i(m, chi) at every index i <= n: the moments of the integers a <= m
    # in a unit residue
    def build(start, top):
        heads = [(a, r) for r in chi.units for a in range(r, m + 1, chi.modulus)]
        return _moments(chi, heads, top)[start:]

    return _grow(_power_table(chi, m), n, build)


@lru_cache(maxsize=_CACHE_LIMIT)
def _fold_table(chi: DirichletChar, w: int, p: int, q: int, over) -> list[CycloElement]:
    # the entry of one fold at y = p/q: its values at indices 0, 1, ...,
    # filled by _fold; keyed by ints, since a Fraction key would cost its
    # Python-level hash and equality on every lookup
    return []


def _fold(chi: DirichletChar, w: int, y, over, n: int) -> list[CycloElement]:
    # The fold sum over a_c < w_c * d of chi(prod a_c) B_{i,chi}(w*y +
    # sum (w/w_e)*a_c), one pair (w_c, w_e) in over for each absorbed
    # variable, at every index i <= n; the list is the table's entry, so it
    # may run past n.  With no absorbed variable the fold is the value
    # B_{i,chi}(w*y), kept under w*y in lowest terms as (1, p, q), the key
    # gen_bernoulli_poly uses.
    p, q = y.numerator, y.denominator
    if not over:
        p *= w
        g = gcd(p, q)
        w, p, q = 1, p // g, q // g

    def build(start, top):
        numbers = _gen_numbers(chi, top)
        D, moments = _fold_moments(chi, w, Fraction(p, q), over, top)
        return [_expand(chi, numbers, i, D, moments) for i in range(start, top + 1)]

    return _grow(_fold_table(chi, w, p, q, over), n, build)


def _expand(chi: DirichletChar, numbers, i: int, D: int, moments) -> CycloElement:
    # the sum over j <= i of C(i,j) D^(i-j) B_{i-j,chi} M_j over D^i: the
    # binomial expansion of B_{i,chi} summed over the arguments P/D whose
    # power moments are M_0, M_1, ...
    terms = [(comb(i, j) * D ** (i - j), numbers[i - j], moments[j]) for j in range(i + 1)]
    return linear_combination(chi.order, terms, D**i)


def _fold_moments(chi: DirichletChar, w: int, y, over, n: int):
    # The fold as (D, [M_0, ..., M_n]), the arguments of _expand: P/D, not
    # reduced, is the Bernoulli argument w*y + sum (w/w_e)*a_c of each tuple
    # over one denominator, and only tuples of units a_c < w_c * d are
    # visited, since chi of the product vanishes otherwise.  The first head
    # takes residue 1 % d, so that a fold with no absorbed variable also
    # works at d = 1.
    d = chi.modulus
    D = lcm(y.denominator, *[w_e for _, w_e in over])
    heads = [(w * y.numerator * (D // y.denominator), 1 % d)]
    for w_c, w_e in over:
        step = w * (D // w_e)
        units = [t + u for t in range(0, w_c * d, d) for u in chi.units]
        heads = [(p + step * u, r * u % d) for p, r in heads for u in units]
    return D, _moments(chi, heads, n)


def _moments(chi: DirichletChar, heads, n: int) -> list[CycloElement]:
    # M_0, ..., M_n with M_j the sum of chi(r) P^j over the (P, r) pairs in
    # heads, 0^0 = 1.  The integer power sums of P are collected per
    # residue r, so each M_j takes chi(r) once per residue.
    by_residue: dict[int, list[int]] = {}
    for p, r in heads:
        by_residue.setdefault(r, []).append(p)
    sums = []
    for r, ps in by_residue.items():
        row, powers = [len(ps)], ps
        for j in range(1, n + 1):
            if j > 1:
                powers = [u * v for u, v in zip(powers, ps)]
            row.append(sum(powers))
        sums.append((chi.values[r], row))
    one = _one(chi.order)
    return [
        linear_combination(chi.order, [(row[j], v, one) for v, row in sums])
        for j in range(n + 1)
    ]


@lru_cache(maxsize=2)
def _run_table(label: str, chi: DirichletChar, weights, ys, bump: int) -> dict:
    # the runs of one route at one instance: {permuted weights: [its value at
    # n = 0, 1, ...]}, filled by identities._run_values; one lookup serves
    # every weight permutation of the instance.  One degree run of a sweep
    # reads two entries at most, its theorem's route and, for T3, the
    # printed fifth line, and no other degree run reads them, so the table
    # keeps those two and drops each when a later degree run needs room
    return {}


# held here, so that clear_caches reaches them through a rebound name
_CACHES = (
    _one,
    _number_table,
    _power_table,
    _fold_table,
    _run_table,
    _char_exp_sum,
    _t_over_exp_minus_one,
    _closed_factor,
    _closed_denominator,
    _char_product,
    _shifted_kernel,
    _char_integral,
    _plain_integral_inverse,
)


def clear_caches():
    """Reset all memo tables (mainly for tests and long-lived processes)."""
    for cache in _CACHES:
        cache.cache_clear()
