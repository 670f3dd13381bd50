"""Truncated formal power series in t over cyclotomic coefficients.

Coefficients are stored for t^0..t^N as ordinary (non-factorial) values;
exponential-generating-function coefficients are recovered through
egf_coeff, which multiplies by n!.  Cauchy products dominate the
workload, and the ordinary convention keeps them plain convolutions.

Sums and products take two series of the same truncation order; a
different order raises ValueError, and a rational scalar goes through
scale.  Operands with different coefficient fields are lifted to
Q(zeta_l) with l the lcm of the two orders.  All operations are pure and
the values immutable, so series can be shared freely across workers.
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

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.field_order, self.coeffs[: order + 1])

    def _align(self, other: TruncatedSeries):
        # (field order, coefficients of self, coefficients of other), both
        # in the lcm field; the truncation orders must agree
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")
        m = lcm(self.field_order, other.field_order)
        return m, _lifted(self, m), _lifted(other, m)

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
            return NotImplemented
        m, a, b = self._align(other)
        return TruncatedSeries(self.order, m, tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        m, a, b = self._align(other)
        return TruncatedSeries(self.order, m, tuple(x - y for x, y in zip(a, b)))

    def __neg__(self):
        return TruncatedSeries(self.order, self.field_order, tuple(-c for c in self.coeffs))

    def scale(self, q) -> TruncatedSeries:
        """Multiply every coefficient by a rational scalar."""
        q = Fraction(q)
        return TruncatedSeries(
            self.order, self.field_order, tuple(c.scale(q) for c in self.coeffs)
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        m, a, b = self._align(other)
        n = self.order
        out = [CycloElement.zero(m)] * (n + 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j in range(n + 1 - i):
                y = b[j]
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return TruncatedSeries(n, m, tuple(out))

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
        out = [CycloElement.from_rational(inv0, self.field_order)]
        for k in range(1, n + 1):
            acc = CycloElement.zero(self.field_order)
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if not aj.is_zero():
                    acc = acc + aj * out[k - j]
            out.append(acc.scale(-inv0))
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
        # CycloElement equality lifts across field orders
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(4, self.order + 1)])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def _lifted(s: TruncatedSeries, m: int) -> tuple[CycloElement, ...]:
    if m == s.field_order:
        return s.coeffs
    return tuple(c.lift(m) for c in s.coeffs)


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


def _exp_minus_one_over_t(c: int, order: int) -> TruncatedSeries:
    # (e^(c t) - 1)/t, an invertible series with constant term c
    coeffs = (Fraction(c ** (k + 1), factorial(k + 1)) for k in range(order + 1))
    return TruncatedSeries(order, 1, tuple(map(CycloElement.from_rational, coeffs)))
