"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored as canonical residues modulo the m-th cyclotomic
polynomial Phi_m in the power basis 1, zeta, ..., zeta^(phi(m)-1): a
tuple of phi(m) integer numerators over one positive integer
denominator, reduced so that the denominator and the numerators have no
common factor (the layout of FLINT's fmpq_poly).  Every ring operation
works on integers and ends with one gcd, and equality of field elements
is plain equality of numerators and denominator, which is what every
exact identity check needs.  Rationals appear only at the boundaries:
the constructors from rationals, as_rational, coeffs and rendering.

All values are immutable after construction and safe to share across
threads or processes.  The Phi_m table is memoized; recomputation is
idempotent, so concurrent first use is harmless.  Only this module
multiplies, lifts, conjugates and reduces integer rows of Z[zeta_m]:
_dot sums products of rows, _convolve gives the rows of a whole
truncated series product and _inverse those of a series inverse (both
split rational rows into scalars once), and _spread_row serves both lift
and sigma_k: zeta -> zeta^k.  series.py stores a whole truncated series
in the same layout, integer rows over one denominator, but multiplies
its rows only through these kernels, lifts no row, and takes the rows of
elements from _common_rows.  No other module reads the integer layout:
sums of integer-weighted products go through linear_combination, and
the binomial sums of folds and routes through _binomial_sums.  A
rational argument is an int or a Fraction; a bool or a float raises
ValueError, or TypeError in operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import mul

__all__ = [
    "CycloElement",
    "euler_phi",
    "cyclotomic_polynomial",
    "linear_combination",
    "zeta",
]


def _factorize(n: int) -> list[tuple[int, int]]:
    # the (prime, exponent) pairs of n >= 1, by trial division (small n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler totient, the product of (p - 1) p^(e-1) over m = prod p^e."""
    if m < 1:
        raise ValueError(f"totient undefined for m={m}")
    return prod((p - 1) * p ** (e - 1) for p, e in _factorize(m))


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


def _remainder(poly: list[int], m: int) -> list[int]:
    # Remainder of an integer polynomial (ascending, reduced in place)
    # modulo the monic Phi_m, from the top degree down: the phi(m)
    # power-basis numerators.
    phi = cyclotomic_polynomial(m)
    n = len(phi) - 1
    for e in range(len(poly) - 1, n - 1, -1):
        c = poly[e]
        if c:
            for i in range(n):
                if phi[i]:
                    poly[e - n + i] -= c * phi[i]
    return poly[:n] + [0] * (n - len(poly))


def _dot(m: int, xs, ys) -> list[int]:
    # sum of xs[i] * ys[i] over rows of Z[zeta_m], reduced modulo Phi_m
    # once, after the whole sum; phi(m) is the length of the rows of ys.
    # Rows of xs of length 1 are rationals, whose image in Q(zeta_m) is
    # (x, 0, ..., 0): they scale ys, one integer dot product per
    # coordinate, with nothing to lift or reduce
    pairs = zip(xs, ys)
    phi = len(ys[0])
    if phi == 1:  # the field is Q
        return [sum([x * y for (x,), (y,) in pairs])]
    if len(xs[0]) == 1:
        scalars = [x for x, in xs]
        return [sum(map(mul, scalars, col)) for col in zip(*ys)]
    if phi == 2:  # zeta^2 = -p0 - p1 zeta with Phi_m = p0 + p1 x + x^2
        p0, p1, _ = cyclotomic_polynomial(m)
        c0 = c1 = c2 = 0
        for (x0, x1), (y0, y1) in pairs:
            c0 += x0 * y0
            c1 += x0 * y1 + x1 * y0
            c2 += x1 * y1
        return [c0 - c2 * p0, c1 - c2 * p1]
    conv = [0] * (2 * phi - 1)
    for x, y in pairs:
        for s, u in enumerate(x):
            if u:
                for t, v in enumerate(y):
                    conv[s + t] += u * v
    return _remainder(conv, m)


def _convolve(m: int, xs, ys) -> list[list[int]]:
    # the rows k = 0..n of the truncated Cauchy product of the row
    # sequences xs and ys of Z[zeta_m], both of length n + 1: row k is
    # sum_{j <= k} xs[j] ys[k-j].  Rational xs (rows of length 1) are
    # split into scalars and ys into columns once, so each coordinate is
    # one integer dot product; any other xs takes one _dot per row
    if len(xs[0]) == 1:
        scalars = [x for x, in xs]
        cols = list(zip(*ys))
        return [[sum(map(mul, scalars, col[k::-1])) for col in cols] for k in range(len(xs))]
    return [_dot(m, xs[: k + 1], ys[k::-1]) for k in range(len(xs))]


def _inverse(m: int, rows) -> list[list[int]]:
    # the fraction-free inverse recurrence for rows A_0..A_n of Z[zeta_m]
    # with a rational A_0 = (a0, 0, ..., 0), a0 != 0: C_0 = 1 and
    # C_k = -sum_{j >= 1} A_j a0^(j-1) C_{k-j}, so that the inverse of
    # sum A_j t^j is sum C_k t^k / a0^(k+1).  Rational rows run on
    # scalars; any others take one _dot per row
    head = rows[0]
    a0 = head[0]
    scaled = [[a0 ** (j - 1) * x for x in row] for j, row in enumerate(rows[1:], 1)]
    if len(head) == 1:
        scalars = [x for x, in scaled]
        cs = [1]
        for _ in scalars:
            cs.append(-sum(map(mul, scalars, reversed(cs))))
        return [[c] for c in cs]
    cs = [[1] + [0] * (len(head) - 1)]
    for k in range(1, len(rows)):
        cs.append([-x for x in _dot(m, scaled[:k], cs[::-1])])
    return cs


def _spread_row(row, step: int, m: int) -> list[int]:
    # the numerators of sum row[i] zeta_m^(i*step): spread, fold the
    # exponents mod m, then reduce modulo Phi_m.  step = m/m1 lifts a row
    # of Z[zeta_m1] into Z[zeta_m]; step = k prime to m is sigma_k
    spread = [0] * ((len(row) - 1) * step + 1)
    spread[::step] = row
    if len(spread) > m:  # zeta_m^m = 1
        spread = [sum(spread[j::m]) for j in range(m)]
    return _remainder(spread, m)


def _conjugate(x: CycloElement, k: int) -> CycloElement:
    # sigma_k(x) under zeta_m -> zeta_m^k, for k prime to m = x.order: a
    # field automorphism, so it maps every rational expression in values
    # to the same expression in their images
    m = x.order
    return _reduced(m, _spread_row(x.nums, k, m), x.den)


def _common_rows(values) -> tuple[list[list[int]], int]:
    # the numerator rows of elements of one field over their common
    # denominator lcm(x.den), and that denominator
    den = lcm(*(x.den for x in values))
    return [[v * (den // x.den) for v in x.nums] for x in values], den


def _reduced(order: int, nums, den: int) -> CycloElement:
    # Divide out the one common factor of den and the numerators; a zero
    # vector ends with denominator gcd(den, 0, ...) / den = 1.
    g = gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return CycloElement(order, tuple(nums), den)


def _order_mismatch(m1: int, m2: int) -> ValueError:
    return ValueError(f"order mismatch: {m1} vs {m2}; lift first")


def _rational(value) -> Fraction:
    # the type rule for a rational argument: an int or a Fraction, never a
    # bool (an int subclass) or a float, whose binary value would be taken
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError(f"expected an int or a Fraction, got {value!r}")
    return Fraction(value)


def _ratio_str(num: int, den: int) -> str:
    # num/den in lowest terms, written as str(Fraction(num, den)) would
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


class CycloElement:
    """Exact element of Q(zeta_m) in canonical power-basis form.

    nums holds phi(m) integer numerators over the positive denominator
    den, with gcd(den, *nums) == 1 (zero is (0, ...)/1); the constructor
    stores its arguments as given, so build elements through the class
    methods, zeta or arithmetic.  coeffs is the same vector as Fractions.

    Ring operations require both operands to have the same order; use
    lift to move into a larger field first.  Equality compares
    across orders by lifting both sides to the lcm order, and compares
    against ints and Fractions directly.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1):
        self.order = order
        self.nums = nums
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> CycloElement:
        return cls(order, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int = 1) -> CycloElement:
        return cls.from_rational(1, order)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> CycloElement:
        q = _rational(value)
        rest = (0,) * (euler_phi(order) - 1)
        return cls(order, (q.numerator,) + rest, q.denominator)

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> CycloElement:
        vals = [_rational(c) for c in coeffs]
        deg = euler_phi(order)
        if len(vals) > deg:
            raise ValueError(f"expected at most {deg} coefficients for order {order}")
        den = lcm(*(v.denominator for v in vals)) if vals else 1
        nums = [v.numerator * (den // v.denominator) for v in vals]
        nums.extend([0] * (deg - len(vals)))
        return _reduced(order, nums, den)

    # -- predicates and conversions --------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def is_rational(self) -> bool:
        # The power basis contains 1, so rationals are exactly the
        # constant vectors.
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        # the other operand in this field; NotImplemented for anything else,
        # a bool or a float included
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise _order_mismatch(self.order, other.order)
            return other
        if type(other) is int or type(other) is Fraction:
            return CycloElement.from_rational(other, self.order)
        return NotImplemented

    def _combine(self, other, sign: int) -> CycloElement:
        # self + sign * other over the common denominator of both
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return rhs
        da, db = self.den, rhs.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        nums = [x * fa + y * fb for x, y in zip(self.nums, rhs.nums)]
        return _reduced(self.order, nums, da * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return CycloElement(self.order, tuple(-a for a in self.nums), self.den)

    def scale(self, q) -> CycloElement:
        """Multiply by a rational scalar, an int or a Fraction (no convolution needed)."""
        if type(q) is int:
            p, d = q, 1
        else:
            q = _rational(q)
            p, d = q.numerator, q.denominator
        if p == d:
            return self
        return _reduced(self.order, [x * p for x in self.nums], self.den * d)

    def __mul__(self, other):
        if not isinstance(other, CycloElement):
            if type(other) is int or type(other) is Fraction:
                return self.scale(other)
            return NotImplemented
        if other.order != self.order:
            raise _order_mismatch(self.order, other.order)
        nums = _dot(self.order, (self.nums,), (other.nums,))
        return _reduced(self.order, nums, self.den * other.den)

    __rmul__ = __mul__

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycloElement):
            if type(other) is int or type(other) is Fraction:
                # both sides are in lowest terms; a bool or a float is no
                # rational here, as in _coerce
                q = Fraction(other)
                return (
                    self.is_rational()
                    and self.nums[0] == q.numerator
                    and self.den == q.denominator
                )
            return NotImplemented
        if self.order == other.order:
            return self.den == other.den and self.nums == other.nums
        common = lcm(self.order, other.order)
        lhs, rhs = self.lift(common), other.lift(common)
        return lhs.den == rhs.den and lhs.nums == rhs.nums

    __hash__ = None  # equality lifts across orders; no consistent hash

    # -- order changes ------------------------------------------------------

    def lift(self, m2: int) -> CycloElement:
        """Image under zeta_m -> zeta_m2^(m2/m); requires order | m2."""
        m = self.order
        if m2 == m:
            return self
        if m2 < 1 or m2 % m != 0:
            raise ValueError(f"target order {m2} is not a multiple of {m}")
        return _reduced(m2, _spread_row(self.nums, m2 // m, m2), self.den)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        # Canonical rendering used by reports: bare "p/q" for rational
        # values, coordinate vector tagged with the root order otherwise.
        den = self.den
        if self.is_rational():
            return _ratio_str(self.nums[0], den)
        body = ", ".join(_ratio_str(x, den) for x in self.nums)
        return f"[{body}] @ zeta({self.order})"

    def __repr__(self):
        return f"CycloElement(order={self.order}, nums={self.nums!r}, den={self.den!r})"


def zeta(m: int, k: int = 1) -> CycloElement:
    """The root of unity zeta_m^k, reduced mod Phi_m."""
    if m < 1:
        raise ValueError(f"invalid order m={m}")
    return CycloElement(m, tuple(_remainder([0] * (k % m) + [1], m)))


def linear_combination(order: int, terms, den: int = 1) -> CycloElement:
    """sum c * x * y / den over a sequence of triples (int c, x, y in Q(zeta_order)).

    Summed in integers over the common denominator lcm(x.den * y.den) * den,
    reduced modulo Phi_order once and normalized by one gcd at the end.
    """
    common = lcm(*(x.den * y.den for _, x, y in terms))
    xs, ys = [], []
    for c, x, y in terms:
        if x.order != order or y.order != order:
            raise _order_mismatch(order, y.order if x.order == order else x.order)
        if c:
            s = c * (common // (x.den * y.den))
            xs.append([s * v for v in x.nums])
            ys.append(y.nums)
    if not xs:
        return CycloElement.zero(order)
    return _reduced(order, _dot(order, xs, ys), common * den)


def _binomial_sums(order: int, p, v, q, u, dens, start: int = 0) -> list[CycloElement]:
    # sum_k C(n,k) p[k] q[n-k] v[k] u[n-k] / dens[n], with int weights p, q
    # and values v, u, for n = start .. len(dens) - 1, one linear_combination
    # per n: the coefficients of a product of exponential generating functions
    sums = []
    for n in range(start, len(dens)):
        terms = [(comb(n, k) * p[k] * q[n - k], v[k], u[n - k]) for k in range(n + 1)]
        sums.append(linear_combination(order, terms, dens[n]))
    return sums
