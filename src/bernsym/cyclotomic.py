"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored as canonical residues modulo the m-th cyclotomic
polynomial Phi_m, i.e. as vectors of phi(m) rationals in the power basis
1, zeta, ..., zeta^(phi(m)-1).  Equality of field elements is then plain
coefficient equality, which is what every exact identity check needs.

All values are immutable after construction and safe to share across
threads or processes.  The Phi_m and power-reduction tables are memoized;
recomputation is idempotent, so concurrent first use is harmless.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

__all__ = [
    "CycloElement",
    "euler_phi",
    "cyclotomic_polynomial",
    "zeta",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(m: int) -> int:
    """Euler totient, by trial-division factorization (small arguments)."""
    if m < 1:
        raise ValueError(f"totient undefined for m={m}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials with monic divisor.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + dd]
        out[i] = q
        if q:
            for j, y in enumerate(den):
                num[i + j] -= q * y
    if any(num[:dd]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial Phi_m, of degree phi(m).

    Returned as its integer coefficients in ascending degree, so the
    degree is len(poly) - 1 and the last coefficient is 1.

    Computed by exact division: Phi_m = (x^m - 1) / prod of Phi_e over
    proper divisors e of m.  All-integer arithmetic, memoized.
    """
    if m < 1:
        raise ValueError(f"cyclotomic polynomial undefined for m={m}")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for e in range(1, m):
        if m % e == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(e)))
    return tuple(_poly_div_exact(num, den))


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    # rows[e] is the power-basis vector of zeta_m^e for e up to
    # max(2*phi(m)-2, m-1): enough for any product of two reduced
    # elements and for constructing zeta_m^k directly.
    poly = cyclotomic_polynomial(m)
    deg = len(poly) - 1
    limit = max(2 * deg - 2, m - 1)
    top = [-c for c in poly[:deg]]  # x^deg reduced mod Phi_m
    rows: list[list[int]] = []
    for e in range(limit + 1):
        if e < deg:
            row = [0] * deg
            row[e] = 1
        else:
            prev = rows[e - 1]
            carry = prev[deg - 1]
            row = [0] + prev[: deg - 1]
            if carry:
                row = [r + carry * t for r, t in zip(row, top)]
        rows.append(row)
    return tuple(tuple(r) for r in rows)


class CycloElement:
    """Exact element of Q(zeta_m) in canonical power-basis form.

    Ring operations require both operands to have the same order; use
    lift to move into a larger field first.  Equality compares
    across orders by lifting both sides to the lcm order, and compares
    against ints and Fractions directly.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> CycloElement:
        return cls(order, (_ZERO,) * euler_phi(order))

    @classmethod
    def one(cls, order: int = 1) -> CycloElement:
        return cls.from_rational(_ONE, order)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> CycloElement:
        q = Fraction(value)
        rest = (_ZERO,) * (euler_phi(order) - 1)
        return cls(order, (q,) + rest)

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> CycloElement:
        vals = [Fraction(c) for c in coeffs]
        deg = euler_phi(order)
        if len(vals) > deg:
            raise ValueError(f"expected at most {deg} coefficients for order {order}")
        vals.extend([_ZERO] * (deg - len(vals)))
        return cls(order, tuple(vals))

    # -- predicates and conversions --------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        # The power basis contains 1, so rationals are exactly the
        # constant vectors.
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}; lift first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_rational(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CycloElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CycloElement(
            self.order, tuple(a - b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        return CycloElement(self.order, tuple(-a for a in self.coeffs))

    def scale(self, q) -> CycloElement:
        """Multiply by a rational scalar (no convolution needed)."""
        q = Fraction(q)
        if q == 1:
            return self
        return CycloElement(self.order, tuple(a * q for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = len(self.coeffs)
        conv = [_ZERO] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(rhs.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:n])
        rows = _power_rows(self.order)
        for e in range(n, 2 * n - 1):
            c = conv[e]
            if c:
                row = rows[e]
                for i in range(n):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloElement(self.order, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not supported")
        result = CycloElement.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloElement):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        common = lcm(self.order, other.order)
        return self.lift(common).coeffs == other.lift(common).coeffs

    __hash__ = None  # equality lifts across orders; no consistent hash

    # -- order changes ------------------------------------------------------

    def lift(self, m2: int) -> CycloElement:
        """Image under zeta_m -> zeta_m2^(m2/m); requires order | m2."""
        m = self.order
        if m2 == m:
            return self
        if m2 < 1 or m2 % m != 0:
            raise ValueError(f"target order {m2} is not a multiple of {m}")
        ratio = m2 // m
        deg2 = euler_phi(m2)
        rows = _power_rows(m2)
        out = [_ZERO] * deg2
        for i, c in enumerate(self.coeffs):
            if c:
                row = rows[(i * ratio) % m2]
                for j in range(deg2):
                    if row[j]:
                        out[j] += c * row[j]
        return CycloElement(m2, tuple(out))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        # Canonical rendering used by reports: bare "p/q" for rational
        # values, coordinate vector tagged with the root order otherwise.
        if self.is_rational():
            return str(self.coeffs[0])
        body = ", ".join(str(c) for c in self.coeffs)
        return f"[{body}] @ zeta({self.order})"

    def __repr__(self):
        return f"CycloElement(order={self.order}, coeffs={self.coeffs!r})"


def zeta(m: int, k: int = 1) -> CycloElement:
    """The root of unity zeta_m^k, reduced mod Phi_m."""
    if m < 1:
        raise ValueError(f"invalid order m={m}")
    row = _power_rows(m)[k % m]
    return CycloElement(m, tuple(Fraction(r) for r in row))
