"""Bernoulli numbers and polynomials attached to Dirichlet characters.

The generating series for the numbers B_{n,chi} attached to a character
chi mod d is

    t/(e^(d t) - 1) * sum_{a=0}^{d-1} chi(a) e^(a t),

and e^(x t) times the same series generates the polynomials B_{n,chi}(x).
Values are extracted exactly from truncated series; the polynomial values
are then served through the binomial expansion

    B_{n,chi}(x) = sum_k C(n,k) B_{k,chi} x^(n-k),

which is the fast cached route (the series product remains available to
tests as an independent construction).  Generalized power sums

    S_k(n, chi) = sum_{a=0}^{n} chi(a) a^k,  with 0^0 = 1,

are summed directly, grouped by residue class mod d.

All functions are pure given the shared memo tables below; workers in a
process pool each hold their own tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .characters import DirichletChar
from .cyclotomic import CycloElement
from .series import TruncatedSeries, _exp_minus_one_over_t

__all__ = [
    "ordinary_bernoulli",
    "ordinary_bernoulli_poly",
    "gen_bernoulli_series",
    "gen_bernoulli_number",
    "gen_bernoulli_poly",
    "power_sum",
    "power_sum_series",
    "char_exp_sum",
    "clear_caches",
]

_SLACK = 4  # series are built this far beyond the requested degree

# Result tables above this size are dropped wholesale; they refill fast
# and the bound keeps long verification sweeps at a flat memory profile.
_POLY_CACHE_LIMIT = 200_000


# Memo tables: the ordinary numbers B_0.., the generalized numbers per
# character key, and B_{n,chi}(x) and S_k(n, chi) keyed by (chi key, ...).
_ORDINARY: list[Fraction] = []
_GEN_NUMBERS: dict[tuple[int, int], list[CycloElement]] = {}
_POLY: dict[tuple, CycloElement] = {}
_POWER: dict[tuple, CycloElement] = {}


def clear_caches():
    """Reset all memo tables (mainly for tests and long-lived processes)."""
    for table in (_ORDINARY, _GEN_NUMBERS, _POLY, _POWER):
        table.clear()


def char_exp_sum(chi: DirichletChar, scale, order: int) -> TruncatedSeries:
    """The finite character sum sum_{a=0}^{d-1} chi(a) e^(a*scale*t)."""
    d = chi.modulus
    scale = Fraction(scale)
    coeffs = []
    kfact = 1
    for k in range(order + 1):
        if k > 1:
            kfact *= k
        acc = CycloElement.zero(chi.order)
        for a in range(d):
            v = chi.values[a]
            if not v.is_zero():
                acc = acc + v.scale(a**k)
        coeffs.append(acc.scale(scale**k / kfact))
    return TruncatedSeries(order, chi.order, tuple(coeffs))


def gen_bernoulli_series(chi: DirichletChar, order: int) -> TruncatedSeries:
    """Series whose egf coefficients are B_{0,chi} .. B_{order,chi}."""
    base = _exp_minus_one_over_t(chi.modulus, order).invert()
    return base * char_exp_sum(chi, 1, order)


def ordinary_bernoulli(n: int) -> Fraction:
    """Ordinary Bernoulli number B_n (B_1 = -1/2), from t/(e^t - 1)."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n >= len(_ORDINARY):
        top = n + _SLACK
        series = _exp_minus_one_over_t(1, top).invert()
        _ORDINARY[:] = [series.egf_coeff(k).as_rational() for k in range(top + 1)]
    return _ORDINARY[n]


def ordinary_bernoulli_poly(n: int, x) -> Fraction:
    """Ordinary Bernoulli polynomial B_n(x) at an exact rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    xp = Fraction(1)
    for j in range(n + 1):
        b = ordinary_bernoulli(n - j)
        if b:
            acc += comb(n, j) * b * xp
        xp *= x
    return acc


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
    arbitrary rational arguments).
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    x = Fraction(x)
    if x == 0:
        return gen_bernoulli_number(chi, n)
    key = (chi.key(), n, x)
    cached = _POLY.get(key)
    if cached is not None:
        return cached
    numbers = _gen_numbers(chi, n)
    acc = CycloElement.zero(chi.order)
    xp = Fraction(1)
    for j in range(n + 1):
        b = numbers[n - j]
        if not b.is_zero():
            acc = acc + b.scale(comb(n, j) * xp)
        xp *= x
    if len(_POLY) > _POLY_CACHE_LIMIT:
        _POLY.clear()
    _POLY[key] = acc
    return acc


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
    acc = CycloElement.zero(chi.order)
    for res in range(d):
        v = chi.values[res]
        if v.is_zero():
            continue
        total = 0
        for a in range(res, n + 1, d):
            total += a**k
        if total:
            acc = acc + v.scale(total)
    _POWER[key] = acc
    return acc


def power_sum_series(chi: DirichletChar, w: int, order: int) -> TruncatedSeries:
    """Series whose egf coefficient at k is S_k(w*d - 1, chi).

    Built from the closed form
    (e^(w d t) - 1)/(e^(d t) - 1) * sum_{a<d} chi(a) e^(a t).
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    d = chi.modulus
    quotient = _exp_minus_one_over_t(w * d, order) * _exp_minus_one_over_t(d, order).invert()
    return quotient * char_exp_sum(chi, 1, order)
