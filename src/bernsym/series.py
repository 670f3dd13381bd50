"""Truncated formal power series in t over cyclotomic coefficients.

Coefficients are stored for t^0..t^N as ordinary (non-factorial) values;
exponential-generating-function coefficients are recovered through
egf_coeff, which multiplies by n!.  Cauchy products dominate the
workload, and the ordinary convention keeps them plain convolutions.

Operands with different coefficient fields are lifted to Q(zeta_l) with
l the lcm of the two orders; products and sums truncate to the smaller
of the two truncation orders.  All operations are pure and the values
immutable, so series can be shared freely across workers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .cyclotomic import CycloElement

__all__ = ["TruncatedSeries", "exp_series"]


class TruncatedSeries:
    __slots__ = ("order", "field_order", "coeffs")

    def __init__(self, order: int, field_order: int, coeffs: tuple[CycloElement, ...]):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must be order + 1")
        self.order = order
        self.field_order = field_order
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int, field_order: int = 1) -> TruncatedSeries:
        z = CycloElement.zero(field_order)
        return cls(order, field_order, (z,) * (order + 1))

    @classmethod
    def one(cls, order: int, field_order: int = 1) -> TruncatedSeries:
        return cls.from_coeffs(order, [CycloElement.one(field_order)], field_order)

    @classmethod
    def from_coeffs(cls, order: int, coeffs, field_order: int | None = None) -> TruncatedSeries:
        vals = [c if isinstance(c, CycloElement) else CycloElement.from_rational(c) for c in coeffs]
        m = field_order
        if m is None:
            m = lcm(*(v.order for v in vals)) if vals else 1
        vals = [v.lift(m) for v in vals]
        z = CycloElement.zero(m)
        vals.extend([z] * (order + 1 - len(vals)))
        if len(vals) > order + 1:
            raise ValueError("more coefficients than truncation order allows")
        return cls(order, m, tuple(vals))

    # -- helpers -----------------------------------------------------------

    def in_field(self, m: int) -> TruncatedSeries:
        if m == self.field_order:
            return self
        return TruncatedSeries(self.order, m, tuple(c.lift(m) for c in self.coeffs))

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.field_order, self.coeffs[: order + 1])

    def _align(self, other: TruncatedSeries):
        m = lcm(self.field_order, other.field_order)
        n = min(self.order, other.order)
        return self.in_field(m).truncate(n), other.in_field(m).truncate(n)

    def coeff(self, n: int) -> CycloElement:
        """Ordinary coefficient of t^n."""
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coeff(self, n: int) -> CycloElement:
        """n! times the ordinary coefficient of t^n."""
        return self.coeff(n).scale(factorial(n))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _scalar_series(other, self.order)
            if other is None:
                return NotImplemented
        a, b = self._align(other)
        return TruncatedSeries(
            a.order, a.field_order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _scalar_series(other, self.order)
            if other is None:
                return NotImplemented
        a, b = self._align(other)
        return TruncatedSeries(
            a.order, a.field_order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        )

    def __rsub__(self, other):
        scal = _scalar_series(other, self.order)
        if scal is None:
            return NotImplemented
        return scal - self

    def __neg__(self):
        return TruncatedSeries(self.order, self.field_order, tuple(-c for c in self.coeffs))

    def scale(self, q) -> TruncatedSeries:
        """Multiply every coefficient by a rational scalar."""
        q = Fraction(q)
        return TruncatedSeries(
            self.order, self.field_order, tuple(c.scale(q) for c in self.coeffs)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, CycloElement):
            m = lcm(self.field_order, other.order)
            lifted = other.lift(m)
            return TruncatedSeries(
                self.order, m, tuple(c.lift(m) * lifted for c in self.coeffs)
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._align(other)
        n = a.order
        zero = CycloElement.zero(a.field_order)
        out = [zero] * (n + 1)
        for i, x in enumerate(a.coeffs):
            if x.is_zero():
                continue
            for j in range(n + 1 - i):
                y = b.coeffs[j]
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return TruncatedSeries(n, a.field_order, tuple(out))

    __rmul__ = __mul__

    def pow(self, e: int) -> TruncatedSeries:
        if e < 0:
            raise ValueError("negative series powers are not supported")
        result = TruncatedSeries.one(self.order, self.field_order)
        for _ in range(e):
            result = result * self
        return result

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order.

        The constant term must be a nonzero rational; every series this
        library inverts (shifted exponential denominators) satisfies that,
        and it keeps the recurrence free of cyclotomic division.
        """
        c0 = self.coeffs[0]
        if not c0.is_rational():
            raise ValueError("inversion requires a rational constant term")
        a0 = c0.as_rational()
        if a0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        inv0 = Fraction(1) / a0
        n = self.order
        out = [CycloElement.zero(self.field_order)] * (n + 1)
        out[0] = CycloElement.from_rational(inv0, self.field_order)
        for k in range(1, n + 1):
            acc = CycloElement.zero(self.field_order)
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if not aj.is_zero():
                    acc = acc + aj * out[k - j]
            out[k] = acc.scale(-inv0)
        return TruncatedSeries(n, self.field_order, tuple(out))

    def shift_down(self, j: int) -> TruncatedSeries:
        """Exact division by t^j; the low j coefficients must vanish."""
        if j < 0 or j > self.order:
            raise ValueError(f"invalid shift {j} for order {self.order}")
        if any(not c.is_zero() for c in self.coeffs[:j]):
            raise ValueError(f"series is not divisible by t^{j}")
        return TruncatedSeries(self.order - j, self.field_order, self.coeffs[j:])

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        m = lcm(self.field_order, other.field_order)
        return all(
            x.lift(m) == y.lift(m) for x, y in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(4, self.order + 1)])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def _scalar_series(value, order: int) -> TruncatedSeries | None:
    if isinstance(value, (int, Fraction)):
        return TruncatedSeries.from_coeffs(order, [Fraction(value)], 1)
    if isinstance(value, CycloElement):
        return TruncatedSeries.from_coeffs(order, [value], value.order)
    return None


def exp_series(c, order: int) -> TruncatedSeries:
    """exp(c*t) truncated at t^order, for rational or cyclotomic c."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if not isinstance(c, CycloElement):
        c = CycloElement.from_rational(c)
    coeffs = [CycloElement.one(c.order)]
    for k in range(1, order + 1):
        coeffs.append((coeffs[-1] * c).scale(Fraction(1, k)))
    return TruncatedSeries(order, c.order, tuple(coeffs))


def _exp_minus_one_over_t(c, order: int) -> TruncatedSeries:
    # (e^(c t) - 1)/t, an invertible series with constant term c.
    return (exp_series(c, order + 1) - 1).shift_down(1)
