"""Property tests: T1..T8 hold on random instances beyond the fixed grid.

Weights up to 6, y-arguments with denominators up to 4, every character
(imprimitive ones included) of each modulus up to 12, and degrees up to
6.  hypothesis is a test-only dependency; these tests skip without it.
The runs are derandomized and keep no example database, so they are
deterministic and write nothing to the working tree.
"""

import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from bernsym.characters import enumerate_characters
from bernsym.identities import (
    THEOREM_IDS,
    TheoremInstance,
    theorem_y_arity,
    verify_theorem,
)

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
