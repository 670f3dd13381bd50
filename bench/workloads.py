"""Seeded inputs of the benchmark workloads.

Every workload is a closed loop: one generating process starts a fresh
interpreter per repetition and waits for it before starting the next.
The program sees only the argv lists built here.

Seed 0 gives the acceptance grid's own weight triples (1,2,3), (2,3,5)
and y pool (0, 1/2, 2/3).  Any other seed permutes each weight triple
and draws the two nonzero y values with denominators 2 and 3, in a
shuffled pool.  The work of a sweep is set by the weight multisets (the
folded routes loop over a < w*d) and by the presence of y = 0 (which
takes the Bernoulli-number fast path), so every seed keeps both: runs on
different seeds do the same amount of work on different exact values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

MODULI = (1, 3, 4, 5, 7, 8)
THEOREMS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
# the nine closed-sum expansion routes, one per quotient family, index and route
EXPANSION_LABELS = (
    "L23.0", "L23.1a", "L23.1b", "L23.2a", "L23.2b", "L23.2c", "L23.3", "L12.0", "L12.1",
)
# y-argument arity of each theorem, from the identity statements; a
# theorem with arity > 0 gets one y tuple per rotation of the pool
THEOREM_Y_ARITY = {"T1": 3, "T2": 2, "T3": 2, "T4": 1, "T5": 1, "T6": 1, "T7": 1, "T8": 0}
BASE_WEIGHTS = ((1, 2, 3), (2, 3, 5))
BASE_YS = (Fraction(0), Fraction(1, 2), Fraction(2, 3))
GRID_N_MAX = 1
SERIES_ORDER = 12
SERIES_SPECS = tuple(
    [("L23", i) for i in range(4)] + [("L13", i) for i in range(4)] + [("L12", 0), ("L12", 1)]
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid" (one sweep per repetition) or "series" (one lambda call per pair)
    jobs: int
    parts: int = 1  # an untraced repetition runs every parts-th operation


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_serial", "grid", 1),
        Workload("grid_jobs2", "grid", 2),
        Workload("series_dual_route", "series", 1, parts=2),
    )
}


@dataclass(frozen=True)
class Inputs:
    weights: tuple[tuple[int, int, int], ...]
    ys: tuple[Fraction, ...]


def draw_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(BASE_WEIGHTS, BASE_YS)
    rng = random.Random(seed)
    weights = tuple(tuple(rng.sample(w, 3)) for w in BASE_WEIGHTS)
    ys = [Fraction(0), Fraction(rng.choice((1, 3, 5)), 2), Fraction(rng.choice((1, 2, 4, 5)), 3)]
    rng.shuffle(ys)
    return Inputs(weights, tuple(ys))


def _weights_arg(w) -> str:
    return ",".join(str(x) for x in w)


def sweep_argv(inputs: Inputs, jobs: int, n_max: int, perturb: bool = False) -> list[str]:
    argv = [
        "sweep", "--format", "json", "--jobs", str(jobs),
        "--moduli", ",".join(str(d) for d in MODULI),
        "--theorems", ",".join(THEOREMS),
        "--n-max", str(n_max),
        "--weights", ";".join(_weights_arg(w) for w in inputs.weights),
        "--ys", ",".join(str(y) for y in inputs.ys),
    ]
    if perturb:
        argv.append("--perturb")
    return argv


def series_ys(inputs: Inputs) -> tuple[Fraction, ...]:
    # Nonzero values first, so that the one- and two-argument specs carry
    # a nonzero shift on every seed and the amount of work stays fixed.
    return tuple(y for y in inputs.ys if y) + tuple(y for y in inputs.ys if not y)


def y_arity(family: str, index: int) -> int:
    if family in ("L23", "L13"):
        return 3 - index
    return 1 if index == 0 else 0


def lambda_pairs(inputs: Inputs, chars: dict[int, list[int]], order: int) -> list[dict]:
    """One dual-route lambda call per (spec, primitive character, weights)."""
    ys = series_ys(inputs)
    pairs = []
    for family, index in SERIES_SPECS:
        arity = y_arity(family, index)
        for d in MODULI:
            for label in chars[d]:
                for w in inputs.weights:
                    argv = [
                        "lambda", "--family", family, "--index", str(index),
                        "--modulus", str(d), "--char", str(label),
                        "--weights", _weights_arg(w),
                        "--order", str(order), "--route", "both", "--format", "json",
                    ]
                    if arity:
                        argv += ["--ys", ",".join(str(y) for y in ys[:arity])]
                    pairs.append({
                        "family": family, "index": index, "modulus": d, "char": label,
                        "weights": list(w), "ys": [str(y) for y in ys[:arity]],
                        "argv": argv,
                    })
    return pairs


# -- expected operation counts, from number theory alone ----------------------


def _phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def primitive_count(d: int) -> int:
    """Number of primitive Dirichlet characters mod d (Mobius inversion of phi)."""
    return sum(_mobius(d // f) * _phi(f) for f in range(1, d + 1) if d % f == 0)


def expected_ops(workload: Workload, n_max: int) -> int:
    chars = sum(primitive_count(d) for d in MODULI)
    if workload.kind == "series":
        return len(SERIES_SPECS) * chars * len(BASE_WEIGHTS)
    tuples = sum(len(BASE_YS) if THEOREM_Y_ARITY[t] else 1 for t in THEOREMS)
    return tuples * chars * len(BASE_WEIGHTS) * (n_max + 1)
