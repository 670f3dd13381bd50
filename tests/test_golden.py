"""Byte-identity of reports: pinned sha256 digests of fixed CLI runs.

A change to the arithmetic layout must not move a single byte of any
report.  These digests were taken from the reference implementation;
a mismatch means the rendered values, their order or the report layout
changed.
"""

import hashlib

import pytest

from bernsym import cli
from bernsym.bernoulli import clear_caches
from bernsym.characters import primitive_characters

IMPRIMITIVE_SWEEP = [
    "sweep", "--format", "json", "--moduli", "1,3,4,5,8",
    "--allow-imprimitive", "--n-max", "2",
]

# The three folded routes (T3, T5, T6) on imprimitive characters mod 9
# and 12, with a negative and a zero y and the repeated weight w2 == w3.
FOLDED_SWEEP = [
    "sweep", "--format", "json", "--moduli", "9,12", "--allow-imprimitive",
    "--theorems", "T3,T5,T6", "--n-max", "3", "--weights", "1,2,3;2,2,3",
    "--ys=-1/2,0,2/3",
]

# The folded routes at the high degrees, on the order-10 characters mod 11
# (phi = 4, the general reduction path of the cyclotomic kernel).
FOLDED_SWEEP_HIGH = [
    "sweep", "--format", "json", "--moduli", "11", "--theorems", "T3,T5,T6",
    "--n-max", "6", "--weights", "1,2,3;2,2,3", "--ys=-1/2,0,2/3",
]

# Every theorem on the order-10 characters mod 11 (phi = 4): the B and S
# slots of T1, T2, T4, T7 and T8 beyond the degree-2 fields.
ALL_THEOREMS_PHI4 = ["sweep", "--format", "json", "--moduli", "11", "--n-max", "4"]

# Every theorem on the characters mod 17 (orders up to 16, phi = 8) and
# mod 19 (orders up to 18, phi = 6), cut to n <= 2 and one weight triple.
ALL_THEOREMS_PHI8 = [
    "sweep", "--format", "json", "--moduli", "17,19", "--n-max", "2", "--weights", "1,2,3",
]

# Every theorem on the largest fields CI sweeps in full, cut to n <= 2 and one
# weight triple: mod 23 (orders up to 22, phi = 10) and mod 29 (orders up to
# 28, phi = 12), then mod 25 (order 20, phi = 8) and mod 27 (order 18, phi = 6).
ALL_THEOREMS_PHI12 = [
    "sweep", "--format", "json", "--moduli", "23,29", "--n-max", "2", "--weights", "1,2,3",
]
ALL_THEOREMS_PRIME_POWERS = [
    "sweep", "--format", "json", "--moduli", "25,27", "--n-max", "2", "--weights", "1,2,3",
]

# Repeated and permuted weights mod 5 and 11: (1,1,1) makes every weight
# permutation of a route the same call, (2,2,3) and its two rotations make
# pairs of permutations equal, and each rotation is a degree run of its own.
REPEATED_WEIGHTS = [
    "sweep", "--format", "json", "--moduli", "5,11",
    "--weights", "1,1,1;2,2,3;2,3,2;3,2,2", "--n-max", "4",
]

# Every theorem on one character, mod 7 char 1 (order 6, phi = 2), through
# verify: one representative character, so a pool of two deals each degree
# run as a part of its own.
VERIFY_ONE_CHARACTER = [
    "verify", "--theorem", "T1,T2,T3,T4,T5,T6,T7,T8", "--modulus", "7", "--char", "1",
    "--n-max", "6", "--ys", "1/2,-1/3,2/3", "--format", "json",
]
VERIFY_ONE_CHARACTER_DIGEST = "d3ad9d7144a5ef0e1a74c8ac3318cf2273bc3cbcc18c6920595d4a8fdf7373d7"

GOLDEN = {
    "sweep-imprimitive": (
        IMPRIMITIVE_SWEEP,
        0,
        "50767d3a002fd0c474e5af84f22d6f78de0dff1554f35da28651e36596b691ab",
    ),
    "sweep-imprimitive-perturb": (
        IMPRIMITIVE_SWEEP + ["--perturb"],
        1,
        "30debca9aebe7f93aaaad137fdcfddeb4196f6c7ebf9d194d95251088f44ed74",
    ),
    "sweep-folded": (
        FOLDED_SWEEP,
        0,
        "958eda9cf20fcdda87777b4f1fb13e563e099d59e18d58725b2ccbcf2a5153c9",
    ),
    "sweep-folded-perturb": (
        FOLDED_SWEEP + ["--perturb"],
        1,
        "3559579fc905b4fe95dd7efbb3b165b1ed0b48f0f67b35afb8147777b8d8edde",
    ),
    # the same perturbed sweep in the other two formats; the last --format wins
    "sweep-folded-perturb-csv": (
        FOLDED_SWEEP + ["--perturb", "--format", "csv"],
        1,
        "8eb24d7450770c27fa5570010688bcb04f694d534c8123a751de5e92272319c2",
    ),
    "sweep-folded-perturb-text": (
        FOLDED_SWEEP + ["--perturb", "--format", "text"],
        1,
        "bfca68494c58d44518c10145154024e911de9dae21f4dc3aca84bd3c19e549cb",
    ),
    "sweep-imprimitive-csv": (
        IMPRIMITIVE_SWEEP + ["--format", "csv"],
        0,
        "b7c2c40b2fcb08f7149588ba3749aedbbab5b83cea9e481c8357f9f47a3f265d",
    ),
    "sweep-folded-high": (
        FOLDED_SWEEP_HIGH,
        0,
        "cbea4e6b62923cdba414e7d20fe2b9fede1f8b1833a34e77f94efc8dea610c92",
    ),
    "sweep-all-theorems-phi4": (
        ALL_THEOREMS_PHI4,
        0,
        "f5326c29f6303aef8f6f9f52b95e638aa1025ee3a2f03480d7cfd384057542b2",
    ),
    "sweep-all-theorems-phi8": (
        ALL_THEOREMS_PHI8,
        0,
        "16c7d4e452fd345a36f75eea80fc0ca7a89c70a60507c2aded09b011aecd035b",
    ),
    "sweep-all-theorems-phi12": (
        ALL_THEOREMS_PHI12,
        0,
        "48f180078f29b08b5fec675ee6a74ecbde6a194393154503bacc0d5bf938a499",
    ),
    "sweep-all-theorems-prime-powers": (
        ALL_THEOREMS_PRIME_POWERS,
        0,
        "693e0353ada52fe5cfbfdb65c66fc7a481ad9e71c7c3a0dcb6bb489405d25148",
    ),
    "sweep-repeated-weights": (
        REPEATED_WEIGHTS,
        0,
        "ab3439180515a9f24d33008b782417d76cb2768281f1737d807b7041d9baf001",
    ),
    "sweep-repeated-weights-perturb": (
        REPEATED_WEIGHTS + ["--perturb"],
        1,
        "5d45d24a216b676b9c908677a304e1c3f7396237946d4fd4ed7044e65cedd149",
    ),
    "verify-one-character-jobs1": (
        VERIFY_ONE_CHARACTER + ["--jobs", "1"], 0, VERIFY_ONE_CHARACTER_DIGEST
    ),
    "verify-one-character-jobs2": (
        VERIFY_ONE_CHARACTER + ["--jobs", "2"], 0, VERIFY_ONE_CHARACTER_DIGEST
    ),
    # the README lambda example
    "lambda-readme": (
        ["lambda", "--family", "L23", "--index", "2", "--modulus", "5",
         "--char", "1", "--weights", "1,2,3", "--ys", "1/2", "--order", "8",
         "--format", "json"],
        0,
        "e389450187762d1cba25522b6e1aa3134baddc8084a85b20a54f007220eaa914",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_bytes_are_pinned(capsys, name):
    argv, expected_code, digest = GOLDEN[name]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_folded_high_report_is_the_same_cold_and_warm(capsys):
    # once from empty memo tables, then with the values the first run left
    argv, expected_code, digest = GOLDEN["sweep-folded-high"]
    clear_caches()
    for _ in range(2):
        assert cli.main(argv) == expected_code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Both routes of every quotient spec at order 12: mod 5 char 1 has order 4
# (phi = 2) and mod 11 char 1 has order 10 (phi = 4, the general reduction
# path of the series products).
LAMBDA_SPECS = [("L23", i) for i in range(4)] + [("L13", i) for i in range(4)] + [
    ("L12", i) for i in range(2)
]
LAMBDA_YS = ("1/2", "-2/3", "3/4")
LAMBDA_DIGEST = "f3b59800023de662313c34be5a9a9b5d709c9f7958cee07c3d633d2edfc0e993"


def _lambda_digest(capsys, chars=((5, 1), (11, 1))) -> str:
    out = []
    for modulus, label in chars:
        for family, index in LAMBDA_SPECS:
            argv = [
                "lambda", "--family", family, "--index", str(index),
                "--modulus", str(modulus), "--char", str(label), "--weights", "2,3,5",
                "--order", "12", "--route", "both", "--format", "json",
            ]
            arity = (1 if family == "L12" else 3) - index
            if arity:
                argv += ["--ys", ",".join(LAMBDA_YS[:arity])]
            assert cli.main(argv) == 0
            out.append(capsys.readouterr().out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def test_lambda_series_bytes_are_pinned(capsys):
    # the twenty calls from empty memo tables, then again with the series
    # leaves (character sums and kernels) that the first pass left behind
    clear_caches()
    assert _lambda_digest(capsys) == LAMBDA_DIGEST
    assert _lambda_digest(capsys) == LAMBDA_DIGEST


# The same twenty calls in the rational coefficient fields: the trivial
# character (mod 1) and mod 8 char 1 (order 2, field order 2, phi = 1),
# where every factor of the series products has rows of length 1.
RATIONAL_LAMBDA_CHARS = ((1, 0), (8, 1))
RATIONAL_LAMBDA_DIGEST = "15f05e119f9ff0e894bdd0ac5599d78f1be2d1a4132006044fe5fc1a245a8d3a"


def test_rational_field_lambda_series_bytes_are_pinned(capsys):
    # cold, then warm, as for the cyclotomic fields above
    clear_caches()
    assert _lambda_digest(capsys, RATIONAL_LAMBDA_CHARS) == RATIONAL_LAMBDA_DIGEST
    assert _lambda_digest(capsys, RATIONAL_LAMBDA_CHARS) == RATIONAL_LAMBDA_DIGEST


# The same twenty calls past phi = 4: mod 17 char 1 has order 16 (phi = 8)
# and mod 29 char 1 has order 28 (phi = 12), the widest rows the series
# products and both routes' comparison see.
WIDE_LAMBDA_CHARS = ((17, 1), (29, 1))
WIDE_LAMBDA_DIGEST = "b0e9f87b61add90ca756ece58c51b27c27198934ccf7be49c31ed1d15183e1f0"


def test_wide_field_lambda_series_bytes_are_pinned(capsys):
    # cold, then warm, as for the fields above
    clear_caches()
    assert _lambda_digest(capsys, WIDE_LAMBDA_CHARS) == WIDE_LAMBDA_DIGEST
    assert _lambda_digest(capsys, WIDE_LAMBDA_CHARS) == WIDE_LAMBDA_DIGEST


# The same ten specs at every primitive character mod 5 (three, of orders
# 4, 2 and 4) and mod 7 (five, of orders 6, 3, 2, 3 and 6), so that one
# process builds each spec at several characters that share a modulus,
# weights and ys, and differ in their character sums only.
CROSS_LAMBDA_CHARS = tuple((d, chi.label) for d in (5, 7) for chi in primitive_characters(d))
CROSS_LAMBDA_DIGEST = "e162dc71ce8e229a6c3d8a104ca8df51d24bd8cc89a19384dad52e28cbf671e9"


def test_cross_character_lambda_series_bytes_are_pinned(capsys):
    # cold, then warm, as for the fields above
    assert CROSS_LAMBDA_CHARS == ((5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5))
    clear_caches()
    assert _lambda_digest(capsys, CROSS_LAMBDA_CHARS) == CROSS_LAMBDA_DIGEST
    assert _lambda_digest(capsys, CROSS_LAMBDA_CHARS) == CROSS_LAMBDA_DIGEST
