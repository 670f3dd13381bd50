"""Bernoulli numbers and polynomials attached to Dirichlet characters.

The generating series for the numbers B_{n,chi} attached to a character
chi mod d is

    t/(e^(d t) - 1) * sum_{a=0}^{d-1} chi(a) e^(a t),

and e^(x t) times the same series generates the polynomials B_{n,chi}(x).
The modulus-1 character, enumerate_characters(1)[0], gives the ordinary
B_n and B_n(x) of t/(e^t - 1), with B_1 = -1/2.
The numbers are extracted exactly from a truncated series.  Every other
Bernoulli value comes from one kernel, _expand, which applies the
binomial expansion

    B_{n,chi}(x) = sum_k C(n,k) B_{k,chi} x^(n-k)

to a list of power moments: the powers of one argument x for a
polynomial value, or the moments of a whole sum of arguments for a
character fold (the series product remains available to tests as an
independent construction).  A character fold, the coefficient that the
folded routes of identities.py sum,

    sum over a_c < w_c d of chi(prod a_c) B_{i,chi}(w y + sum (w/w_e) a_c),

with one pair (w_c, w_e) per absorbed variable, is a leaf like
B_{i,chi}(x): its values by index are built once per process.
Generalized power sums

    S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k,  with 0^0 = 1,

are summed directly, grouped by residue class mod d.

The two leaves of every series built here and in identities.py, the
character sum sum_a chi(a) e^(a s t) and the kernel t/(e^(c t) - 1), are
built once per process, like the polynomial values, the folds and the
power sums.  No series built from them, a product, a quotient or an
inverse, is kept: each caller builds its own.

All functions are pure given the memo tables below; workers in a
process pool each hold their own tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .characters import DirichletChar
from .cyclotomic import CycloElement, linear_combination
from .series import TruncatedSeries, _exp_minus_one_over_t, _exp_sum

__all__ = [
    "gen_bernoulli_series",
    "gen_bernoulli_number",
    "gen_bernoulli_poly",
    "power_sum",
    "power_sum_series",
    "char_exp_sum",
    "clear_caches",
]

_SLACK = 4  # series are built this far beyond the requested degree

# Memo tables: _GEN_NUMBERS holds B_{0,chi} .. B_{N,chi} per character,
# grown on demand; _poly, _power, _char_exp_sum and _t_over_exp_minus_one
# are lru_cache tables keyed by their exact arguments, a character by the
# object itself (one per key in each process, see characters.py), and
# _fold_table is one whose entries are lists of a fold's values by index.
# identities.sweep_verify asks each fold for its top index first, so a
# sweep builds it once; callers that ascend in n (expansion_sum, the tests)
# still grow it on demand: asked for a higher index, _fold rebuilds the
# fold's moments from its integer data and appends only the new indices.  Each
# evicts its least recently used entries above this size, which keeps long
# sweeps and long-lived processes at a flat memory profile.
_CACHE_LIMIT = 200_000
_GEN_NUMBERS: dict[DirichletChar, list[CycloElement]] = {}


@lru_cache(maxsize=None)
def _one(order: int) -> CycloElement:
    # the unit of Q(zeta_order), the second factor of every weighted sum
    # below and of the fold moments; built once per field order
    return CycloElement.one(order)


def _check_order(order) -> None:
    if type(order) is not int or order < 0:
        raise ValueError("truncation order must be a nonnegative int")


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


def gen_bernoulli_series(chi: DirichletChar, order: int) -> TruncatedSeries:
    """Series whose egf coefficients are B_{0,chi} .. B_{order,chi}."""
    _check_order(order)
    return _t_over_exp_minus_one(chi.modulus, order) * char_exp_sum(chi, 1, order)


def _gen_numbers(chi: DirichletChar, n: int) -> list[CycloElement]:
    table = _GEN_NUMBERS.get(chi)
    if table is None or n >= len(table):
        top = n + _SLACK
        series = gen_bernoulli_series(chi, top)
        table = [series.egf_coeff(k) for k in range(top + 1)]
        _GEN_NUMBERS[chi] = table
    return table


def _expand(chi: DirichletChar, i: int, D: int, moments):
    # the sum over j <= i of C(i,j) D^(i-j) B_{i-j,chi} c_j x_j over D^i,
    # with moments[j] = (c_j, x_j): the binomial expansion of B_{i,chi} at
    # one argument x = p/q (D = q, c_j = p^j, x_j = 1) or summed over a
    # character fold's arguments P/D (c_j = 1, x_j = M_j)
    numbers = _gen_numbers(chi, i)
    terms = [
        (comb(i, j) * D ** (i - j) * c, numbers[i - j], x)
        for j, (c, x) in zip(range(i + 1), moments)
    ]
    return linear_combination(chi.order, terms, D**i)


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
    if type(x) is int:
        p, q = x, 1
    elif type(x) is Fraction:
        p, q = x.numerator, x.denominator
    else:
        raise ValueError("x must be an int or a Fraction")
    if p == 0:
        return gen_bernoulli_number(chi, n)
    return _poly(chi, n, p, q)


@lru_cache(maxsize=_CACHE_LIMIT)
def _poly(chi: DirichletChar, n: int, p: int, q: int) -> CycloElement:
    # B_{n,chi}(p/q) for p != 0: moment j is p^j times the unit
    one = _one(chi.order)
    return _expand(chi, n, q, [(p**j, one) for j in range(n + 1)])


def power_sum(chi: DirichletChar, k: int, n: int) -> CycloElement:
    """Generalized power sum S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k.

    Uses the convention 0^0 = 1, so for k = 0 the a = 0 term contributes
    chi(0) (nonzero only for the modulus-1 character).
    """
    if type(k) is not int or type(n) is not int or k < 0 or n < 0:
        raise ValueError("power sum requires ints k >= 0 and n >= 0")
    return _power(chi, k, n)


@lru_cache(maxsize=_CACHE_LIMIT)
def _fold_table(chi: DirichletChar, w: int, y, over) -> list[CycloElement]:
    # the entry of one fold: its values at indices 0, 1, ..., filled by _fold
    return []


def _fold(chi: DirichletChar, w: int, y, over, n: int) -> list[CycloElement]:
    # The fold sum over a_c < w_c * d of chi(prod a_c) B_{i,chi}(w*y +
    # sum (w/w_e)*a_c), one pair (w_c, w_e) in over for each absorbed
    # variable, at every index i <= n; the list is the table's entry, so it
    # may run past n and is read, never changed, by the caller.
    values = _fold_table(chi, w, y, over)
    if len(values) <= n:
        D, moments = _fold_moments(chi, w, y, over, n)
        values.extend(_expand(chi, i, D, moments) for i in range(len(values), n + 1))
    return values


def _fold_moments(chi: DirichletChar, w: int, y, over, n: int):
    # The fold as (D, [(1, M_0), ..., (1, M_n)]), the arguments of _expand:
    # M_j is the sum of chi(prod a_c) P^j over the tuples of units
    # a_c < w_c * d, where P/D, not reduced, is the Bernoulli argument
    # w*y + sum (w/w_e)*a_c over one denominator.  Only units are visited,
    # since chi of the product vanishes otherwise, and the integer power
    # sums of P are collected per residue r of the product, so each M_j
    # takes chi(r) once per residue.
    d = chi.modulus
    D = lcm(y.denominator, *[w_e for _, w_e in over])
    heads = [(w * y.numerator * (D // y.denominator), 1)]
    for w_c, w_e in over:
        step = w * (D // w_e)
        units = [t + u for t in range(0, w_c * d, d) for u in chi.units]
        heads = [(p + step * u, r * u % d) for p, r in heads for u in units]
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
    moments = [
        (1, linear_combination(chi.order, [(row[j], v, one) for v, row in sums]))
        for j in range(n + 1)
    ]
    return D, moments


@lru_cache(maxsize=_CACHE_LIMIT)
def _power(chi: DirichletChar, k: int, n: int) -> CycloElement:
    d = chi.modulus
    one = _one(chi.order)
    terms = [
        (sum(a**k for a in range(res, n + 1, d)), chi.values[res], one)
        for res in chi.units
    ]
    return linear_combination(chi.order, terms)


def power_sum_series(chi: DirichletChar, w: int, order: int) -> TruncatedSeries:
    """Series whose egf coefficient at k is S_k(w*d - 1, chi).

    Built from the closed form
    (e^(w d t) - 1)/(e^(d t) - 1) * sum_{a<d} chi(a) e^(a t).
    """
    if type(w) is not int or w < 1:
        raise ValueError("w must be a positive integer")
    _check_order(order)
    d = chi.modulus
    quotient = _exp_minus_one_over_t(w * d, order) * _t_over_exp_minus_one(d, order)
    return quotient * char_exp_sum(chi, 1, order)


# held here, so that clear_caches reaches them through a rebound name
_CACHES = (_poly, _power, _fold_table, _char_exp_sum, _t_over_exp_minus_one)


def clear_caches():
    """Reset all memo tables (mainly for tests and long-lived processes)."""
    _GEN_NUMBERS.clear()
    for cache in _CACHES:
        cache.cache_clear()
