"""Bernoulli numbers and polynomials attached to Dirichlet characters.

The generating series for the numbers B_{n,chi} attached to a character
chi mod d is

    t/(e^(d t) - 1) * sum_{a=0}^{d-1} chi(a) e^(a t),

and e^(x t) times the same series generates the polynomials B_{n,chi}(x).
The modulus-1 character, enumerate_characters(1)[0], gives the ordinary
B_n and B_n(x) of t/(e^t - 1), with B_1 = -1/2.
Values are extracted exactly from truncated series; the polynomial values
are then served through the binomial expansion

    B_{n,chi}(x) = sum_k C(n,k) B_{k,chi} x^(n-k),

which is the fast cached route (the series product remains available to
tests as an independent construction).  The character folds of
identities.py apply the same expansion to a whole sum of arguments at
once: they take the numbers from _gen_numbers and never a polynomial
value.  Generalized power sums

    S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k,  with 0^0 = 1,

are summed directly, grouped by residue class mod d.

The two leaves of every series built here and in identities.py, the
character sum sum_a chi(a) e^(a s t) and the kernel t/(e^(c t) - 1), are
built once per process: _CHAR_SUMS keys the sums by (chi key, scale,
order) and _KERNELS the kernels by (c, order).  No series built from
them, a product, a quotient or an inverse, is kept: each caller builds
its own.

All functions are pure given the shared memo tables below; workers in a
process pool each hold their own tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

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

# _POLY, _CHAR_SUMS and _KERNELS are dropped wholesale above this size;
# they refill fast and the bound keeps long verification sweeps and
# long-lived processes at a flat memory profile.
_CACHE_LIMIT = 200_000


# Memo tables: the generalized numbers per character key, B_{n,chi}(p/q)
# keyed by the ints (modulus, label, n, p, q) and S_k(n, chi) keyed by
# (chi key, k, n).  Only gen_bernoulli_poly fills _POLY: the folds read
# the numbers alone.  The series leaves: char_exp_sum keyed by (chi key,
# scale, order) as passed, and t/(e^(c t) - 1) keyed by (c, order).
_GEN_NUMBERS: dict[tuple[int, int], list[CycloElement]] = {}
_POLY: dict[tuple, CycloElement] = {}
_POWER: dict[tuple, CycloElement] = {}
_CHAR_SUMS: dict[tuple, TruncatedSeries] = {}
_KERNELS: dict[tuple[int, int], TruncatedSeries] = {}


@lru_cache(maxsize=None)
def _one(order: int) -> CycloElement:
    # the unit of Q(zeta_order), the second factor of every weighted sum
    # below and of the fold moments in identities.py; built once per
    # field order
    return CycloElement.one(order)


def clear_caches():
    """Reset all memo tables (mainly for tests and long-lived processes)."""
    for table in (_GEN_NUMBERS, _POLY, _POWER, _CHAR_SUMS, _KERNELS):
        table.clear()


def _remember(table: dict, key, value):
    # store value under key, first dropping the whole table at the limit
    if len(table) > _CACHE_LIMIT:
        table.clear()
    table[key] = value
    return value


def char_exp_sum(chi: DirichletChar, scale, order: int) -> TruncatedSeries:
    """The finite character sum sum_{a=0}^{d-1} chi(a) e^(a*scale*t)."""
    key = (chi.key(), scale, order)
    cached = _CHAR_SUMS.get(key)
    if cached is not None:
        return cached
    terms = [(a, chi.values[a]) for a in chi.units]
    return _remember(_CHAR_SUMS, key, _exp_sum(chi.order, terms, scale, order))


def _t_over_exp_minus_one(c: int, order: int) -> TruncatedSeries:
    # t/(e^(c t) - 1), truncated at t^order, for an integer c != 0
    key = (c, order)
    cached = _KERNELS.get(key)
    if cached is not None:
        return cached
    return _remember(_KERNELS, key, _exp_minus_one_over_t(c, order).invert())


def gen_bernoulli_series(chi: DirichletChar, order: int) -> TruncatedSeries:
    """Series whose egf coefficients are B_{0,chi} .. B_{order,chi}."""
    return _t_over_exp_minus_one(chi.modulus, order) * char_exp_sum(chi, 1, order)


def _gen_numbers(chi: DirichletChar, n: int) -> list[CycloElement]:
    key = chi.key()
    table = _GEN_NUMBERS.get(key)
    if table is None or n >= len(table):
        top = n + _SLACK
        series = gen_bernoulli_series(chi, top)
        table = [series.egf_coeff(k) for k in range(top + 1)]
        _GEN_NUMBERS[key] = table
    return table


def gen_bernoulli_number(chi: DirichletChar, n: int) -> CycloElement:
    """Generalized Bernoulli number B_{n,chi}, memoized per character."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _gen_numbers(chi, n)[n]


def gen_bernoulli_poly(chi: DirichletChar, n: int, x) -> CycloElement:
    """Generalized Bernoulli polynomial B_{n,chi}(x) at exact rational x.

    Served through the binomial expansion over cached B_{k,chi}; x is
    unrestricted (weight ratios from the symmetry identities produce
    arbitrary rational arguments).  With x = p/q the sum is taken in
    integers over the common denominator lcm(den B_{k,chi}) * q^n.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if type(x) is not Fraction:
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p == 0:
        return gen_bernoulli_number(chi, n)
    key = (chi.modulus, chi.label, n, p, q)
    cached = _POLY.get(key)
    if cached is not None:
        return cached
    numbers = _gen_numbers(chi, n)
    one = _one(chi.order)
    # term j is C(n,j) p^j q^(n-j) B_{n-j,chi}, over q^n
    terms = []
    pj, qj = 1, q**n
    for j in range(n + 1):
        terms.append((comb(n, j) * pj * qj, numbers[n - j], one))
        pj *= p
        qj //= q
    value = linear_combination(chi.order, terms, q**n)
    return _remember(_POLY, key, value)


def power_sum(chi: DirichletChar, k: int, n: int) -> CycloElement:
    """Generalized power sum S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k.

    Uses the convention 0^0 = 1, so for k = 0 the a = 0 term contributes
    chi(0) (nonzero only for the modulus-1 character).
    """
    if k < 0 or n < 0:
        raise ValueError("power sum requires k >= 0 and n >= 0")
    key = (chi.key(), k, n)
    cached = _POWER.get(key)
    if cached is not None:
        return cached
    d = chi.modulus
    one = _one(chi.order)
    terms = [
        (sum(a**k for a in range(res, n + 1, d)), chi.values[res], one)
        for res in chi.units
    ]
    value = linear_combination(chi.order, terms)
    _POWER[key] = value
    return value


def power_sum_series(chi: DirichletChar, w: int, order: int) -> TruncatedSeries:
    """Series whose egf coefficient at k is S_k(w*d - 1, chi).

    Built from the closed form
    (e^(w d t) - 1)/(e^(d t) - 1) * sum_{a<d} chi(a) e^(a t).
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    d = chi.modulus
    quotient = _exp_minus_one_over_t(w * d, order) * _t_over_exp_minus_one(d, order)
    return quotient * char_exp_sum(chi, 1, order)
