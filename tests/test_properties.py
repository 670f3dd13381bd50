"""Property tests: T1..T8 hold on random instances beyond the fixed grid.

Weights up to 6, y-arguments with denominators up to 4, every character
(imprimitive ones included) of each modulus up to 12, and degrees up to
6.  Also, each imprimitive character of modulus up to 30, at a random
degree up to 7, has the Bernoulli number of the primitive character that
induces it times the Euler factors of the primes it drops, and its
Bernoulli polynomial at a random x and power sum over a random range are
the Mobius sums over those primes of the primitive character's.
hypothesis is a test-only dependency; these tests skip without it.
The runs are derandomized and keep no example database, so they are
deterministic and write nothing to the working tree.
"""

import functools
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from bernsym.bernoulli import gen_bernoulli_number, gen_bernoulli_poly, power_sum
from bernsym.characters import enumerate_characters
from bernsym.identities import (
    THEOREM_IDS,
    TheoremInstance,
    theorem_y_arity,
    verify_theorem,
)
from oracles import induced_bernoulli_number, induced_bernoulli_poly, induced_power_sum

hypothesis = pytest.importorskip("hypothesis")
import hypothesis.configuration
from hypothesis import strategies as st

# While pytest collects, hypothesis caches the literals it reads from the
# code under test in its home directory, ./.hypothesis unless redirected.
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    hypothesis.configuration.set_hypothesis_home_dir(
        Path(tempfile.gettempdir()) / "bernsym-hypothesis"
    )

rationals = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def characters(draw):
    chars = enumerate_characters(draw(st.integers(1, 12)))
    return chars[draw(st.integers(0, len(chars) - 1))]


@pytest.mark.parametrize("theorem", THEOREM_IDS)
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_theorem_holds_on_random_instances(theorem, data):
    weights = data.draw(st.tuples(*[st.integers(1, 6)] * 3), label="weights")
    ys = data.draw(st.tuples(*[rationals] * theorem_y_arity(theorem)), label="ys")
    instance = TheoremInstance(
        theorem,
        data.draw(characters(), label="chi"),
        data.draw(st.integers(0, 6), label="n"),
        weights,
        ys,
    )
    report = verify_theorem(instance)
    assert report.all_equal, report.first_mismatch
    assert report.extras.get("collapsed_variants_equal", True)


@functools.cache
def _imprimitive_characters():
    return [chi for d in range(1, 31) for chi in enumerate_characters(d) if not chi.primitive]


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_imprimitive_bernoulli_number_is_the_primitive_one_with_euler_factors(data):
    # every imprimitive character of modulus <= 30, each at its own random n
    for chi in _imprimitive_characters():
        n = data.draw(st.integers(0, 7), label=f"n mod {chi.modulus} label {chi.label}")
        assert gen_bernoulli_number(chi, n) == induced_bernoulli_number(chi, n), (chi, n)


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_imprimitive_bernoulli_poly_is_the_mobius_sum_of_the_primitive_one(data):
    # every imprimitive character of modulus <= 30, each at its own random n and x
    for chi in _imprimitive_characters():
        key = f"mod {chi.modulus} label {chi.label}"
        n = data.draw(st.integers(0, 7), label=f"n {key}")
        x = data.draw(rationals, label=f"x {key}")
        assert gen_bernoulli_poly(chi, n, x) == induced_bernoulli_poly(chi, n, x), (chi, n, x)


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_imprimitive_power_sum_is_the_mobius_sum_of_the_primitive_one(data):
    # every imprimitive character of modulus <= 30, each at its own random k and m
    for chi in _imprimitive_characters():
        key = f"mod {chi.modulus} label {chi.label}"
        k = data.draw(st.integers(0, 5), label=f"k {key}")
        m = data.draw(st.integers(0, 100), label=f"m {key}")
        assert power_sum(chi, k, m) == induced_power_sum(chi, k, m), (chi, k, m)
