"""Dirichlet characters mod d with exact cyclotomic values.

A character mod d is determined by its values on generators of the unit
group (Z/dZ)*.  Enumeration assigns to generator g_i of order n_i the
value zeta_{n_i}^{c_i} and ranges over all exponent vectors (c_i) in
lexicographic order, which fixes a stable integer label for every
character.  Values are stored in Q(zeta_r) where r is the character's own
(minimal) order, so coefficient vectors stay as small as possible.

Characters are immutable after enumeration; value tables are safe for
concurrent reads.  Each modulus is enumerated once per process: the
characters are kept as a tuple and every call hands out a fresh list.
An enumerated character pickles as its key (modulus, label), so every
process, pool workers included, holds one object per character; any
other DirichletChar pickles with its value table.

Galois orbits.  For k prime to the order r of chi, sigma_k: zeta_r ->
zeta_r^k is an automorphism of Q(zeta_r), and sigma_k o chi is again a
character mod d, of the same order and conductor: chi's Galois conjugate.
_galois_orbits groups the characters of a sweep by that relation, found
by exact comparison only: psi joins chi's orbit when, for some such k,
the sigma_k image of chi's value table equals psi's own table value for
value.  A character whose table is no exact image of another's, a defect
in enumeration included, stays in an orbit of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import CycloElement, _conjugate, _factorize, euler_phi, zeta

__all__ = [
    "UnitGroupStructure",
    "DirichletChar",
    "unit_group_structure",
    "enumerate_characters",
    "primitive_characters",
]


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
    units is the increasing tuple of the a in [0, d) with chi(a) != 0:
    the units mod d, and (0,) for d = 1.
    label is the character's stable index within enumerate_characters(d).
    """

    modulus: int
    label: int
    order: int
    conductor: int
    primitive: bool
    values: tuple[CycloElement, ...]
    units: tuple[int, ...]

    def key(self) -> tuple[int, int]:
        """Stable identity across processes: (modulus, label)."""
        return (self.modulus, self.label)

    def __reduce__(self):
        # The enumerated character of a key is unpickled as the character of
        # that key enumerated in the receiving process, which the memo tables
        # of bernoulli.py are keyed by.  Any other character, a
        # dataclasses.replace copy say, travels with its own value table.
        chars = _characters(self.modulus) if self.modulus >= 1 else ()
        if 0 <= self.label < len(chars) and chars[self.label] is self:
            return (_enumerated, self.key())
        return (DirichletChar, tuple(getattr(self, f.name) for f in fields(self)))

    def __repr__(self):
        return (
            f"DirichletChar(d={self.modulus}, label={self.label}, "
            f"order={self.order}, conductor={self.conductor})"
        )


def _conductor_from_values(d: int, units, values) -> int:
    # Smallest divisor f of d with chi(a) = 1 for every unit a = 1 mod f.
    for f in range(1, d + 1):
        if d % f == 0 and all(values[a] == 1 for a in units if a % f == 1 % f):
            return f
    raise ArithmeticError("conductor search failed")


def enumerate_characters(d: int) -> list[DirichletChar]:
    """All phi(d) characters mod d, in lexicographic exponent-vector order."""
    if d < 1:
        raise ValueError(f"invalid modulus d={d}")
    return list(_characters(d))


@lru_cache(maxsize=None)
def _characters(d: int) -> tuple[DirichletChar, ...]:
    # the characters of one modulus d >= 1, built on its first use; for
    # d = 1 the unit group is trivial and its one residue is 0 = 1 mod 1
    group = unit_group_structure(d)
    orders = [o for _, o in group.generators]
    big = lcm(*orders) if orders else 1
    units = tuple(sorted(group.dlog))
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
        f = _conductor_from_values(d, units, values)
        chars.append(
            DirichletChar(
                modulus=d,
                label=label,
                order=r,
                conductor=f,
                primitive=(f == d),
                values=tuple(values),
                units=units,
            )
        )
    return tuple(chars)


def _enumerated(d: int, label: int) -> DirichletChar:
    # the character of key (d, label) built in this process
    return _characters(d)[label]


def primitive_characters(d: int) -> list[DirichletChar]:
    return [chi for chi in enumerate_characters(d) if chi.primitive]


def _galois_orbits(chars) -> dict[DirichletChar, tuple[DirichletChar, int]]:
    # Each character of chars mapped to (rep, k) with psi.values the sigma_k
    # image of rep.values, value for value: rep is the member of its orbit
    # with the smallest (modulus, label) among chars, and maps to (rep, 1).
    out: dict[DirichletChar, tuple[DirichletChar, int]] = {}
    for chi in sorted(chars, key=lambda c: (c.modulus, c.label)):
        if chi in out:
            continue
        out[chi] = (chi, 1)
        r = chi.order
        images = [
            (k, tuple(_conjugate(v, k) for v in chi.values))
            for k in range(1, r + 1)
            if gcd(k, r) == 1
        ]
        for psi in chars:
            if psi not in out and psi.modulus == chi.modulus and psi.order == r:
                k = next((k for k, image in images if image == psi.values), None)
                if k is not None:
                    out[psi] = (chi, k)
    return out
