"""Truncated formal power series in t over cyclotomic coefficients.

Coefficients are stored for t^0..t^N as ordinary (non-factorial) values;
exponential-generating-function coefficients are recovered through
egf_coeff, which multiplies by n!.  Cauchy products dominate the
workload, and the ordinary convention keeps them plain convolutions.

A series over Q(zeta_m) is stored flat, in the layout CycloElement uses
for one element: rows holds N + 1 rows of phi(m) integer numerators (the
power-basis coordinates of the coefficients of t^0..t^N) over one
positive denominator den for the whole series, with gcd(den, every
entry) == 1.  So the zero series is zero rows over 1, and equal series
over one field have equal rows and den.  Every operation works on
integers and ends with one gcd for the whole result.  Rows are
multiplied only through cyclotomic.py's row kernels: a product is one
_convolve call, an inverse one _inverse call (a fraction-free
recurrence), and an exponential sum one _dot per coefficient.  coeff,
egf_coeff and coeffs hand back normalized CycloElements, each reduced
once.

Sums, differences, products and == take two series of the same
truncation order; a different order raises ValueError, and a rational
scalar (an int or a Fraction) goes through scale.  Each operation works
in one coefficient field, as CycloElement's ring operations do, with one
exception: a rational factor of a product (rows of length 1) whose field
order divides the other's scales the other's coordinates.  Any other pair
of field orders raises ValueError; from_coeffs, with its field_order, is
the one conversion into a larger field.  All operations are pure and the
values immutable, so series can be shared freely across workers.
"""

from __future__ import annotations

from itertools import chain
from math import factorial, gcd, lcm

from .cyclotomic import (
    CycloElement,
    _common_rows,
    _convolve,
    _dot,
    _inverse,
    _rational,
    _reduced,
    euler_phi,
)

__all__ = ["TruncatedSeries", "exp_series"]


class TruncatedSeries:
    """Truncated series: rows of integer numerators over one denominator.

    The constructor stores its arguments as given; build series through
    the class methods, exp_series or arithmetic, which keep den > 0 and
    gcd(den, every entry) == 1.
    """

    __slots__ = ("order", "field_order", "rows", "den")

    def __init__(
        self, order: int, field_order: int, rows: tuple[tuple[int, ...], ...], den: int = 1
    ):
        if len(rows) != order + 1:
            raise ValueError("coefficient count must be order + 1")
        self.order = order
        self.field_order = field_order
        self.rows = rows
        self.den = den

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int, field_order: int = 1) -> TruncatedSeries:
        return cls(order, field_order, ((0,) * euler_phi(field_order),) * (order + 1))

    @classmethod
    def one(cls, order: int, field_order: int = 1) -> TruncatedSeries:
        zero = (0,) * euler_phi(field_order)
        return cls(order, field_order, ((1,) + zero[1:],) + (zero,) * order)

    @classmethod
    def from_coeffs(cls, order: int, coeffs, field_order: int | None = None) -> TruncatedSeries:
        vals = [c if isinstance(c, CycloElement) else CycloElement.from_rational(c) for c in coeffs]
        if len(vals) > order + 1:
            raise ValueError("more coefficients than truncation order allows")
        m = field_order
        if m is None:
            m = lcm(*(v.order for v in vals))
        rows, den = _common_rows([v.lift(m) for v in vals])
        rows.extend([(0,) * euler_phi(m)] * (order + 1 - len(rows)))
        return _series(order, m, rows, den)

    # -- coefficients --------------------------------------------------------

    def coeff(self, n: int) -> CycloElement:
        """Ordinary coefficient of t^n."""
        return _reduced(self.field_order, self._row(n), self.den)

    def egf_coeff(self, n: int) -> CycloElement:
        """n! times the ordinary coefficient of t^n."""
        f = factorial(n)
        return _reduced(self.field_order, [f * x for x in self._row(n)], self.den)

    def _row(self, n: int) -> tuple[int, ...]:
        # the numerators of the coefficient of t^n, over den
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.rows[n]

    @property
    def coeffs(self) -> tuple[CycloElement, ...]:
        """The ordinary coefficients of t^0..t^order."""
        return tuple(self.coeff(n) for n in range(self.order + 1))

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, sign: int):
        # self + sign * other over the common denominator lcm(den, other.den)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _check_orders(self, other)
        m = _one_field(self, other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        rows = [[x * fa + y * fb for x, y in zip(u, v)] for u, v in zip(self.rows, other.rows)]
        return _series(self.order, m, rows, da * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        rows = tuple(tuple(-x for x in row) for row in self.rows)
        return TruncatedSeries(self.order, self.field_order, rows, self.den)

    def scale(self, q) -> TruncatedSeries:
        """Multiply every coefficient by a rational scalar, an int or a Fraction."""
        q = _rational(q)
        p = q.numerator
        rows = [[p * x for x in row] for row in self.rows]
        return _series(self.order, self.field_order, rows, self.den * q.denominator)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _check_orders(self, other)
        # a factor with rows of length 1 over a field order that divides the
        # other's is rational: it goes first, and _convolve scales the other's
        # coordinates with it; any other pair of factors shares one field
        a, b = (other, self) if _scales(other, self) else (self, other)
        if not _scales(a, b):
            _one_field(a, b)
        m, n = b.field_order, self.order
        return _series(n, m, _convolve(m, a.rows, b.rows), self.den * other.den)

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order.

        The constant term must be a nonzero rational; every series this
        library inverts (shifted exponential denominators) satisfies that,
        and it keeps the recurrence free of cyclotomic division.
        """
        rows, m, n = self.rows, self.field_order, self.order
        head = rows[0]
        if any(head[1:]):
            raise ValueError("inversion requires a rational constant term")
        a0 = head[0]
        if a0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        # With coefficients A_j / D, the fraction-free recurrence's C_k give
        # the inverse's coefficients D C_k / a0^(k+1), all over a0^(n+1).
        cs = _inverse(m, rows)
        den = a0 ** (n + 1)
        sign = -1 if den < 0 else 1
        out = [[sign * self.den * a0 ** (n - k) * x for x in c] for k, c in enumerate(cs)]
        return _series(n, m, out, sign * den)

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _one_field(self, other)
        # the forms are canonical within one field
        return self.order == other.order and self.den == other.den and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(self.coeff(n)) for n in range(min(4, self.order + 1)))
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def _series(order: int, m: int, rows, den: int) -> TruncatedSeries:
    # Divide out the one common factor of den (> 0) and every entry; zero
    # rows end over gcd(den, 0, ...) / den = 1.
    g = gcd(den, *chain.from_iterable(rows))
    if g != 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return TruncatedSeries(order, m, tuple(map(tuple, rows)), den)


def _product(series_list) -> TruncatedSeries:
    # the product of a nonempty list of series, taken left to right
    result = series_list[0]
    for s in series_list[1:]:
        result = result * s
    return result


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"truncation order mismatch: {a.order} vs {b.order}")


def _one_field(a: TruncatedSeries, b: TruncatedSeries) -> int:
    # the one coefficient field order of an operation on a and b
    if a.field_order != b.field_order:
        raise ValueError(f"field order mismatch: {a.field_order} vs {b.field_order}")
    return a.field_order


def _scales(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    # whether a is rational, rows of length 1, in a field order dividing
    # b's, so that a * b lies in b's field
    return len(a.rows[0]) == 1 and b.field_order % a.field_order == 0


def _factorial_weights(e: int, order: int) -> list[int]:
    # e^(order-k) order!/k! for k = 0..order: the factors that put x^k/k!
    # over the common denominator e^order order!, which is weights[0]
    weights = [1] * (order + 1)
    for k in range(order, 0, -1):
        weights[k - 1] = weights[k] * e * k
    return weights


def _check_order(order) -> None:
    # the one rule for the truncation order of every series builder
    if type(order) is not int or order < 0:
        raise ValueError("truncation order must be a nonnegative int")


def exp_series(c, order: int) -> TruncatedSeries:
    """exp(c*t) truncated at t^order; c is an int or a Fraction (not a bool or a float)."""
    _check_order(order)
    return _exp_sum(1, [(1, CycloElement.one())], _rational(c), order)


def _exp_sum(m: int, terms, scale, order: int) -> TruncatedSeries:
    # sum x * e^(a*scale*t) over pairs (int a, x in Q(zeta_m)), truncated
    # at t^order; callers pass only nonzero x.  With scale = p/q the
    # coefficient of t^k is sum (a p)^k x / (q^k k!), taken over
    # q^order order! lcm(x.den)
    p, q = scale.numerator, scale.denominator
    bases = [a * p for a, _ in terms]
    nums, common = _common_rows([x for _, x in terms])
    weights = _factorial_weights(q, order)
    rows = []
    powers = [1] * len(bases)  # (a p)^k, with 0^0 = 1
    for w in weights:  # the rational scalars w (a p)^k, one per term
        rows.append(_dot(m, [(w * x,) for x in powers], nums))
        powers = [x * a for x, a in zip(powers, bases)]
    return _series(order, m, rows, weights[0] * common)


def _exp_minus_one_over_t(c: int, order: int) -> TruncatedSeries:
    # (e^(c t) - 1)/t, an invertible series with constant term c: the
    # coefficient of t^k is c^(k+1)/(k+1)!, taken over (order+1)!
    weights = _factorial_weights(1, order + 1)
    rows = [(c**k * weights[k],) for k in range(1, order + 2)]
    return _series(order, 1, rows, weights[0])
