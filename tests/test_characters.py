import dataclasses
import pickle
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from bernsym.characters import (
    enumerate_characters,
    primitive_characters,
    unit_group_structure,
)
from bernsym.cyclotomic import CycloElement, euler_phi, zeta
from bernsym.identities import TheoremInstance


def test_unit_group_examples():
    g1 = unit_group_structure(1)
    assert g1.generators == ()
    assert g1.order == 1

    g5 = unit_group_structure(5)
    assert len(g5.generators) == 1
    assert g5.generators[0] == (2, 4)

    g8 = unit_group_structure(8)
    assert sorted(o for _, o in g8.generators) == [2, 2]
    assert sorted(g for g, _ in g8.generators) == [5, 7]


def test_unit_group_rejects_zero():
    with pytest.raises(ValueError):
        unit_group_structure(0)


def test_unit_group_dlog_is_bijective():
    for d in range(1, 25):
        g = unit_group_structure(d)
        assert g.order == euler_phi(d)
        units = {a for a in range(d) if gcd(a, d) == 1} or {0}
        assert set(g.dlog) == units


def test_character_counts():
    for d in range(1, 25):
        assert len(enumerate_characters(d)) == euler_phi(d)


def test_modulus_one_character():
    (chi,) = enumerate_characters(1)
    assert chi.values[0] == 1
    assert chi.conductor == 1
    assert chi.primitive
    assert chi.values[12345 % 1] == 1


def test_mod4_character_table():
    chars = enumerate_characters(4)
    assert [str(v) for v in chars[0].values] == ["0", "1", "0", "1"]
    assert [str(v) for v in chars[1].values] == ["0", "1", "0", "-1"]
    assert chars[1].conductor == 4
    assert chars[1].primitive


def test_mod5_characters():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    quadratic = [chi for chi in chars if chi.order == 2]
    assert len(quadratic) == 1
    chi = quadratic[0]
    squares = {a * a % 5 for a in range(1, 5)}
    for a in range(1, 5):
        expected = 1 if a in squares else -1
        assert chi.values[a] == expected


def test_mod8_conductors():
    chars = enumerate_characters(8)
    assert sorted(chi.conductor for chi in chars) == [1, 4, 8, 8]
    assert len(primitive_characters(8)) == 2
    induced = next(c for c in chars if c.conductor == 4)
    assert induced.values[3] == -1 and induced.values[5] == 1 and induced.values[7] == -1


def test_conductor_examples():
    for d in (1, 2, 3, 6, 8, 12):
        trivial = enumerate_characters(d)[0]
        assert trivial.order == 1
        assert trivial.conductor == 1


def test_multiplicativity():
    rng = random.Random(7)
    for d in range(1, 25):
        units = [a for a in range(d) if gcd(a, d) == 1] or [0]
        for chi in enumerate_characters(d):
            if d <= 12:
                pairs = [(a, b) for a in units for b in units]
            else:
                pairs = [(rng.choice(units), rng.choice(units)) for _ in range(40)]
            for a, b in pairs:
                assert chi.values[a] * chi.values[b] == chi.values[a * b % d]


def test_values_at_one_and_order():
    for d in range(1, 25):
        for chi in enumerate_characters(d):
            assert chi.values[1 % d] == 1
            assert chi.units == tuple(a for a in range(d) if chi.values[a] != 0)
            for a in range(d):
                v = chi.values[a]
                if v != 0:
                    assert prod([v] * chi.order) == 1


def test_orthogonality():
    for d in range(1, 25):
        for chi in enumerate_characters(d):
            total = CycloElement.zero(chi.order)
            for v in chi.values:
                total = total + v
            if chi.order == 1:
                assert total == euler_phi(d)
            else:
                assert total == 0


def test_value_tables_distinct():
    for d in range(1, 25):
        tables = set()
        for chi in enumerate_characters(d):
            rendered = tuple(str(v) for v in chi.values)
            assert rendered not in tables
            tables.add(rendered)


def test_conductor_divides_and_induction():
    for d in range(1, 25):
        units = [a for a in range(d) if gcd(a, d) == 1] or [0]
        for chi in enumerate_characters(d):
            f = chi.conductor
            assert d % f == 0
            assert chi.primitive == (f == d)
            # some character mod f must reproduce chi on the units of d
            matches = [
                base
                for base in enumerate_characters(f)
                if all(base.values[a % f] == chi.values[a] for a in units)
            ]
            assert len(matches) == 1


def test_periodic_extension():
    chi4 = enumerate_characters(4)[1]
    assert chi4.values[7 % 4] == -1
    assert chi4.values[-1 % 4] == -1
    assert chi4.values[4 % 4] == 0
    assert chi4.values[(10**9 + 1) % 4] == chi4.values[1]


def test_character_order_is_minimal():
    for d in range(1, 25):
        for chi in enumerate_characters(d):
            r = chi.order
            for s in range(1, r):
                if r % s:
                    continue
                all_one = all(
                    v == 0 or prod([v] * s) == 1 for v in chi.values
                )
                assert not (all_one and s < r)


def test_labels_are_stable():
    first = [(c.label, tuple(str(v) for v in c.values)) for c in enumerate_characters(12)]
    second = [(c.label, tuple(str(v) for v in c.values)) for c in enumerate_characters(12)]
    assert first == second
    assert [c.label for c in enumerate_characters(12)] == [0, 1, 2, 3]


@pytest.mark.parametrize("listing, d", [(enumerate_characters, 12), (primitive_characters, 5)])
def test_returned_lists_are_fresh(listing, d):
    # each modulus is enumerated once; every call hands out its own list
    first = listing(d)
    expected = list(first)
    first.reverse()
    first.append(None)
    assert listing(d) == expected


def test_characters_pickle_by_reference():
    # unpickling hands back the enumerated character itself, the key of
    # the Bernoulli memo tables, also inside a pickled instance
    for d in range(1, 25):
        for chi in enumerate_characters(d):
            assert pickle.loads(pickle.dumps(chi)) is chi
    chi = enumerate_characters(11)[1]
    instance = TheoremInstance("T6", chi, 3, (1, 2, 3), (Fraction(1, 2),))
    assert pickle.loads(pickle.dumps(instance)).chi is chi


def test_other_characters_pickle_with_their_table():
    # a copy of an enumerated character is not the object of its key, so it
    # travels with its own value table, tampered or not
    psi = enumerate_characters(5)[3]
    values = list(psi.values)
    values[2] = -values[2]
    for copy in (dataclasses.replace(psi, values=tuple(values)), dataclasses.replace(psi)):
        back = pickle.loads(pickle.dumps(copy))
        assert back is not psi and back is not copy
        assert dataclasses.astuple(back) == dataclasses.astuple(copy)
