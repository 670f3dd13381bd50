"""Dirichlet characters mod d with exact cyclotomic values.

A character mod d is determined by its values on generators of the unit
group (Z/dZ)*.  Enumeration assigns to generator g_i of order n_i the
value zeta_{n_i}^{c_i} and ranges over all exponent vectors (c_i) in
lexicographic order, which fixes a stable integer label for every
character.  Values are stored in Q(zeta_r) where r is the character's own
(minimal) order, so coefficient vectors stay as small as possible.

Characters are immutable after enumeration; value tables are safe for
concurrent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm

from .cyclotomic import CycloElement, euler_phi, zeta

__all__ = [
    "UnitGroupStructure",
    "DirichletChar",
    "unit_group_structure",
    "enumerate_characters",
    "primitive_characters",
    "conductor",
    "char_value",
]


def _factorize(n: int) -> list[tuple[int, int]]:
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


def _multiplicative_order(a: int, m: int) -> int:
    x = a % m
    order = 1
    while x != 1 % m:
        x = x * a % m
        order += 1
        if order > m:
            raise ArithmeticError(f"{a} is not a unit mod {m}")
    return order


def _primitive_root(q: int) -> int:
    # Smallest primitive root mod an odd prime power q; brute-force order
    # check is plenty for the moduli this library targets.
    target = euler_phi(q)
    for g in range(2, q):
        if gcd(g, q) == 1 and _multiplicative_order(g, q) == target:
            return g
    raise ArithmeticError(f"no primitive root mod {q}")


@dataclass(frozen=True)
class UnitGroupStructure:
    """Direct-product decomposition of (Z/dZ)* with a discrete-log table."""

    modulus: int
    generators: tuple[tuple[int, int], ...]  # (residue, order) pairs
    dlog: dict[int, tuple[int, ...]] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.dlog)


def unit_group_structure(d: int) -> UnitGroupStructure:
    """CRT decomposition of (Z/dZ)* into cyclic factors.

    Odd prime powers contribute one cyclic factor generated by a primitive
    root; 2 contributes nothing, 4 contributes C2 generated by 3, and 2^k
    for k >= 3 contributes C2 x C_{2^(k-2)} generated by -1 and 5.  Each
    generator is lifted by CRT to a residue mod d that is 1 modulo the
    complementary factor.
    """
    if d < 1:
        raise ValueError(f"invalid modulus d={d}")
    local: list[tuple[int, int, int]] = []  # (q, generator mod q, order)
    for p, e in _factorize(d):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            local.append((q, q - 1, 2))
            if e >= 3:
                local.append((q, 5, 2 ** (e - 2)))
        else:
            local.append((q, _primitive_root(q), euler_phi(q)))
    generators = []
    for q, g, order in local:
        rest = d // q
        if rest == 1:
            lifted = g % d
        else:
            # x = g mod q, x = 1 mod rest
            inv = pow(rest, -1, q)
            lifted = (1 + rest * ((g - 1) * inv % q)) % d
        generators.append((lifted, order))
    dlog: dict[int, tuple[int, ...]] = {}
    orders = [o for _, o in generators]
    for exps in itertools.product(*(range(o) for o in orders)):
        r = 1 % d
        for (g, _), e in zip(generators, exps):
            r = r * pow(g, e, d) % d
        dlog[r] = exps
    if len(dlog) != euler_phi(d):
        raise ArithmeticError(f"unit group decomposition failed for d={d}")
    return UnitGroupStructure(d, tuple(generators), dlog)


@dataclass(frozen=True, eq=False)
class DirichletChar:
    """Character mod d with value table over Q(zeta_order).

    values[a] is chi(a) for a in [0, d), zero whenever gcd(a, d) > 1.
    For d = 1 the unique character is identically 1, including at a = 0.
    label is the character's stable index within enumerate_characters(d).
    """

    modulus: int
    label: int
    order: int
    conductor: int
    primitive: bool
    values: tuple[CycloElement, ...]

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def key(self) -> tuple[int, int]:
        """Stable identity used by caches: (modulus, label)."""
        return (self.modulus, self.label)

    def __repr__(self):
        return (
            f"DirichletChar(d={self.modulus}, label={self.label}, "
            f"order={self.order}, conductor={self.conductor})"
        )


def _conductor_from_values(d: int, values) -> int:
    # Smallest divisor f of d with chi(a) = 1 for every unit a = 1 mod f.
    for f in range(1, d + 1):
        if d % f != 0:
            continue
        ok = True
        for a in range(d):
            if gcd(a, d) == 1 and a % f == 1 % f and not (values[a] == 1):
                ok = False
                break
        if ok:
            return f
    raise ArithmeticError("conductor search failed")


def enumerate_characters(d: int) -> list[DirichletChar]:
    """All phi(d) characters mod d, in lexicographic exponent-vector order."""
    if d < 1:
        raise ValueError(f"invalid modulus d={d}")
    if d == 1:
        return [
            DirichletChar(
                modulus=1,
                label=0,
                order=1,
                conductor=1,
                primitive=True,
                values=(CycloElement.one(1),),
            )
        ]
    group = unit_group_structure(d)
    orders = [o for _, o in group.generators]
    big = lcm(*orders) if orders else 1
    chars = []
    for label, cs in enumerate(itertools.product(*(range(o) for o in orders))):
        # chi(g_i) = zeta_{n_i}^{c_i}; on a unit u with dlog vector (e_i)
        # the value is zeta_big^E with E = sum c_i e_i (big/n_i).
        r = 1
        for c, n in zip(cs, orders):
            r = lcm(r, n // gcd(n, c))
        step = big // r  # every exponent E is a multiple of this
        values = [CycloElement.zero(r) for _ in range(d)]
        for u, exps in group.dlog.items():
            e_big = sum(c * e * (big // n) for c, e, n in zip(cs, exps, orders)) % big
            if e_big % step != 0:
                raise ArithmeticError("character value outside Q(zeta_r)")
            values[u] = zeta(r, e_big // step)
        f = _conductor_from_values(d, values)
        chars.append(
            DirichletChar(
                modulus=d,
                label=label,
                order=r,
                conductor=f,
                primitive=(f == d),
                values=tuple(values),
            )
        )
    return chars


def primitive_characters(d: int) -> list[DirichletChar]:
    return [chi for chi in enumerate_characters(d) if chi.primitive]


def conductor(chi: DirichletChar) -> int:
    """Smallest f | d from which chi is induced (recomputed from values)."""
    return _conductor_from_values(chi.modulus, chi.values)


def char_value(chi: DirichletChar, a: int) -> CycloElement:
    """Periodic extension chi(a mod d), defined for any integer a."""
    return chi.values[a % chi.modulus]
