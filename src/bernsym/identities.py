"""Symmetry identities in three weights for generalized Bernoulli polynomials.

Three families of quotient generating functions, each symmetric under all
permutations of positive integer weights (w1, w2, w3), are built here as
truncated series over Q(zeta_r):

* family L23 (index i = 0..3): the three character variables carry the
  complementary weight pairs w2*w3, w1*w3, w1*w2, and i of the three
  factors are divided by the plain exponential integral at d*w1*w2*w3,

      (w1 w2 w3)^(2-i) t^(3-i) e^(w1 w2 w3 (y_1+..+y_{3-i}) t)
          * (e^(d w1 w2 w3 t) - 1)^i
      / [(e^(d w2 w3 t)-1)(e^(d w1 w3 t)-1)(e^(d w1 w2 t)-1)]
      * prod of the three character sums at scales w2 w3, w1 w3, w1 w2;

* family L13 (index i = 0..3): same shape with the variables carrying the
  single weights w1, w2, w3 (prefactor power 1-i, character sums at the
  single weights).  Substituting pair weights for single weights turns an
  L13 series into the matching L23 series with t rescaled by w1*w2*w3,
  so this family yields no further identities and is kept for that
  reduction property;

* family L12 (index 0): single weights with the common shift
  (w2 w3 + w1 w3 + w1 w2) y; (index 1): the pair-weight denominators
  divided by the single-weight ones, with no exponential shift.

Expanding a family coefficient-wise in different ways produces finite
closed sums over Bernoulli polynomial values B_{n,chi}(x) and power sums
S_k(n, chi); each way is available under a label such as "L23.2b"
(family L23, index 2, expansion route b).  Because the series are weight
symmetric, the routes evaluated at permuted weights must agree exactly;
the theorem table T1..T8 records which routes give 6, 3 or 2 distinct
expressions, and verify_theorem checks the resulting equalities at exact
rational/cyclotomic precision.

Each route is one row of the table _ROUTES: its family and index, one
slot per variable, and the slots that the perturb hook raises.  A slot
is a Bernoulli value, a power sum, a character fold that absorbs one or
two other variables, or absorbed.  One evaluator, _evaluate_run, sums
every row at every degree n <= N in one pass: over i1 + i2 + i3 = n,
with the coefficient multinomial(n; i1, i2, i3) = n!/(i1! i2! i3!) =
C(n, i1) C(n - i1, i2), slot j contributes its value times
w_{j+1}^(e_j + [slot is B or F]), e_j = N - i_j in family L23 and i_j in
L12.  In L23 the exponent N - i_j is the degree-n exponent n - i_j plus
N - n, so the inner sum over the last two slots is the same at every
degree, and the sum at degree n is one linear_combination over
(w1 w2 w3)^(N - n + 1): the product of w_j^(N - n) over the three
slots, absorbed ones included, times the w1 w2 w3 that keeps an exponent
of -1 integral.  A run of N + 1 degrees thus costs 2(N + 1) linear
combinations, where summing each degree on its own costs
(N + 1)(N + 4)/2.

Every slot reads one leaf of bernoulli.py, a list of values by index: a
fold's values, a Bernoulli value being a fold that absorbs no variable,
or the power sums S_i(w_a d - 1, chi).  A leaf depends only on the
character, w_a, y and the (w_c, w_e) pairs, not on the degree, the
theorem or the weight permutation that reaches it, so it is built once
per process, not once per route call.  A fold is built as its power
moments: with the Bernoulli argument of each tuple of absorbed a_c
(drawn from the unit residues that the character carries) written as an
integer P over one denominator D, M_j is the sum of chi(prod a_c) P^j
for j = 0..n.  At index i the fold is then the binomial sum over j of
C(i,j) M_j D^(i-j) B_{i-j,chi} over D^i: the same monomials as one
B_{i,chi} value per tuple, summed in another order, with no Bernoulli
value looked up per tuple.  This sum and each level of _evaluate_run
are binomial sums, taken by one kernel, cyclotomic._binomial_sums.  The
runs are memoized as well, in bernoulli._run_table: one entry per (route
label, chi, weights, ys, bump), mapping each permuted weight triple to
its values by degree, so an instance makes one lookup for all its
permutations, and equal permuted weights (all six at (1,1,1), pairs at
(2,2,3)) share one run.  Unlike the leaves, a run is read by one degree
run of a sweep only, and a degree run reads two entries at most, so the
table keeps two.  Two expressions share a value only when route,
character, permuted weights, ys and bump are all equal: no route reads
another route's values, and the printed fifth line of T3 keeps its runs
under a label of its own.

Verification of distinct instances is embarrassingly parallel: every
evaluation is pure given the per-process Bernoulli memo tables.
sweep_verify verifies each degree run, the instances that share
(theorem, chi, weights, ys), from its highest n down, so each route run
and each leaf is built once, at its top index, and the lower degrees
read a prefix of its entry.  One function verifies each part, a degree
run or, in a pool with enough characters, one verified character's
runs, so that each leaf, keyed by its character, is built in one
worker.  The reports come back in input order for any worker count.

sweep_verify also verifies one character per Galois orbit.  Every value
above is built from chi's values by rational operations, so for k prime
to the order of chi the automorphism sigma_k: zeta -> zeta^k maps each
value at chi to the value at the conjugate character sigma_k o chi
(B_{n,chi^sigma} = sigma(B_{n,chi}), Washington, GTM 83, ch. 4), and
keeps both equality and inequality, so every verdict is the same.
Among the instances that differ only in their character, those whose
characters form one orbit (characters._galois_orbits, by exact
comparison of value tables) are verified once, at the smallest label
present; each conjugate's report holds the sigma_k images of those
values and the same verdict flags, equal to its direct evaluation.  The
values of a passing report are equal, so they have one image, taken once
and repeated, and one text when rendered.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import (
    _char_integral,
    _char_product,
    _closed_factor,
    _fold,
    _grow,
    _plain_integral_inverse,
    _power_sums,
    _run_table,
)
from .characters import DirichletChar, _galois_orbits
from .cyclotomic import CycloElement, _binomial_sums, _conjugate
from .series import TruncatedSeries, _check_order, _product

__all__ = [
    "LambdaSpec",
    "TheoremInstance",
    "VerificationReport",
    "THEOREM_IDS",
    "EXPANSION_LABELS",
    "lambda_series",
    "lambda_series_from_integrals",
    "expansion_sum",
    "theorem_y_arity",
    "theorem_expressions",
    "verify_theorem",
    "sweep_verify",
]


def _checked_args(weights, ys, arity: int, name: str):
    """Weights as three positive ints and ys as arity rationals; else ValueError.

    A weight must be an int and a y an int or a Fraction (not a bool or a
    float, whose binary expansion would be verified in place of the
    intended value).
    """
    w = tuple(weights)
    if len(w) != 3 or any(type(x) is not int or x < 1 for x in w):
        raise ValueError("weights must be three positive integers")
    ys = tuple(ys)
    if any(type(y) is not int and type(y) is not Fraction for y in ys):
        raise ValueError("y-arguments must be ints or Fractions")
    if len(ys) != arity:
        raise ValueError(f"{name} takes {arity} y-arguments, got {len(ys)}")
    return w, ys


# ---------------------------------------------------------------------------
# quotient generating functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSpec:
    """Which quotient family/index to build, with weights and y-arguments.

    y-argument arity: families L23 and L13 take 3 - index arguments,
    L12 index 0 takes one, L12 index 1 takes none.
    """

    family: str
    index: int
    weights: tuple[int, int, int]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        arity = self.y_arity(self.family, self.index)
        w, ys = _checked_args(
            self.weights, self.ys, arity, f"{self.family} index {self.index}"
        )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ys", ys)

    @staticmethod
    def y_arity(family: str, index: int) -> int:
        """Number of y-arguments; an unknown family or index raises ValueError."""
        if family in ("L23", "L13"):
            top = 3
        elif family == "L12":
            top = 1
        else:
            raise ValueError(f"unknown family {family!r}")
        if not 0 <= index <= top:
            raise ValueError(f"index {index} out of range for {family}")
        return top - index


def lambda_series(spec: LambdaSpec, chi: DirichletChar, order: int) -> TruncatedSeries:
    """Truncated series of the quotient's explicit closed form.

    Every factor e^(c t) - 1 is divided by t before use, so the t-power
    cancellation between numerator and denominator (three factors each,
    counting the explicit t^(3-i) of families L23 and L13) is structural,
    never left to a division that could silently drop terms.
    """
    _check_order(order)
    d = chi.modulus
    w1, w2, w3 = spec.weights
    big = w1 * w2 * w3
    singles, pairs = (w1, w2, w3), (w2 * w3, w1 * w3, w1 * w2)
    i = spec.index
    # per family: the scales of the denominators and character sums, the
    # scales of the numerator factors e^(c t) - 1, the exponential shift
    # and the power of w1 w2 w3 in front
    if spec.family == "L12":
        scales = singles
        num_scales = pairs if i else ()
        shift = 0 if i else sum(pairs) * spec.ys[0]
        pref_power = -1 if i else 1
    else:
        scales = pairs if spec.family == "L23" else singles
        num_scales = (big,) * i
        shift = big * sum(spec.ys, Fraction(0))
        pref_power = (2 if spec.family == "L23" else 1) - i
    # the character-free factor, then the character sums; each is built
    # once per process, so a spec built again at another character of the
    # same modulus takes only its character sums
    factor = _closed_factor(
        tuple(d * s for s in scales),
        tuple(d * c for c in num_scales),
        shift,
        Fraction(big) ** pref_power,
        order,
    )
    return factor * _char_product(chi, scales, order)


def lambda_series_from_integrals(
    spec: LambdaSpec, chi: DirichletChar, order: int
) -> TruncatedSeries:
    """Same quotient, built as a product of per-variable integral factors.

    Independent construction route: each integration variable contributes
    its own closed-form factor and the denominators divide as inverted
    series, instead of assembling one global closed form.  Must agree
    with lambda_series coefficient-for-coefficient.
    """
    _check_order(order)
    d = chi.modulus
    w1, w2, w3 = spec.weights
    big = w1 * w2 * w3
    pairs = (w2 * w3, w1 * w3, w1 * w2)
    singles = (w1, w2, w3)
    i = spec.index
    ys = spec.ys
    if spec.family in ("L23", "L13"):
        scales = pairs if spec.family == "L23" else singles
        # the y_j shift belongs to variable j: scale_j * shift_j = big * y_j
        factors = []
        for j, s in enumerate(scales):
            shift = Fraction(big, s) * ys[j] if j < 3 - i else Fraction(0)
            factors.append(_char_integral(chi, s, shift, order))
        result = _product(factors)
        if i:
            result = result * _plain_integral_inverse(d * big, i, order)
            result = result.scale(d**i)
        return result
    if i == 0:
        shifts = (w2 * ys[0], w3 * ys[0], w1 * ys[0])
        return _product(
            [_char_integral(chi, w, s, order) for w, s in zip(singles, shifts)]
        )
    factors = [_char_integral(chi, w, 0, order) for w in singles]
    factors += [_plain_integral_inverse(d * p, 1, order) for p in pairs]
    return _product(factors).scale(d**3)


# ---------------------------------------------------------------------------
# coefficient expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Route:
    family: str
    index: int
    slots: tuple  # one per variable j = 0, 1, 2, in the forms listed below
    bump: tuple[int, ...]  # the slots whose weight exponent perturb raises


# The slots of each route (the module docstring gives the summation rule),
# with index i_j in slot j:
#   ("B", a, y, ())    B_{i_j,chi}(w_a * y_y), a fold with no absorbed variable
#   ("S", a)           S_{i_j}(w_a * d - 1)
#   ("F", a, y, over)  a fold: the sum of chi(prod a_c) B_{i_j,chi}(w_a * y_y
#                      + sum (w_a / w_e) a_c) over a_c < w_c * d, one pair
#                      (c, e) in over for each absorbed variable c
#   None               absorbed by a fold: index 0, value 1
_ROUTES = {
    "L23.0": _Route("L23", 0, (("B", 0, 0, ()), ("B", 1, 1, ()), ("B", 2, 2, ())), (0,)),
    "L23.1a": _Route("L23", 1, (("B", 0, 0, ()), ("B", 1, 1, ()), ("S", 2)), (0,)),
    "L23.1b": _Route("L23", 1, (("B", 0, 0, ()), ("F", 1, 1, ((2, 2),)), None), (2,)),
    "L23.2a": _Route("L23", 2, (("B", 0, 0, ()), ("S", 1), ("S", 2)), (0,)),
    "L23.2b": _Route("L23", 2, (("F", 0, 0, ((1, 1),)), None, ("S", 2)), (1,)),
    "L23.2c": _Route("L23", 2, (("F", 0, 0, ((1, 1), (2, 2))), None, None), (1, 2)),
    "L23.3": _Route("L23", 3, (("S", 0), ("S", 1), ("S", 2)), (0,)),
    "L12.0": _Route("L12", 0, (("B", 1, 0, ()), ("B", 2, 0, ()), ("B", 0, 0, ())), (0,)),
    "L12.1": _Route("L12", 1, (("S", 1), ("S", 2), ("S", 0)), (0,)),
}

EXPANSION_LABELS = tuple(_ROUTES)

# The route of each run label: the routes above, and the fifth displayed
# expression of T3 as printed, route L23.1b with the fold's shift ratio
# w_2/w_1 in place of the orbit-consistent w_2/w_3.
_RUN_ROUTES = {
    **_ROUTES,
    "T3.line5": _Route("L23", 1, (("B", 0, 0, ()), ("F", 1, 1, ((2, 0),)), None), (2,)),
}


def _label_arity(label: str) -> int:
    # number of y-arguments of a route label; an unknown label raises
    if label not in _ROUTES:
        raise ValueError(f"unknown expansion label {label!r}")
    route = _ROUTES[label]
    return LambdaSpec.y_arity(route.family, route.index)


def _evaluate_run(
    route: _Route, N: int, chi: DirichletChar, weights, ys, bump: int
) -> list[CycloElement]:
    # The route's sums at every degree n <= N, in one pass, with the powers
    # of degree N (the module docstring gives the rescaling).  Weight
    # exponents are >= -1, so each power is kept times its own weight (an
    # integer) and every sum is divided by w1 w2 w3 once more; absorbed
    # slots scale every term.
    complementary = route.family == "L23"
    scale, free = 1, []
    degrees = range(N + 1)
    for j, slot in enumerate(route.slots):
        w = weights[j]
        e = bump if j in route.bump else 0
        if slot is None:
            scale *= w ** ((N if complementary else 0) + e)
            continue
        if slot[0] == "S":
            values = _power_sums(chi, weights[slot[1]] * chi.modulus - 1, N)
        else:
            e += 1
            pairs = tuple((weights[c], weights[f]) for c, f in slot[3])
            values = _fold(chi, weights[slot[1]], ys[slot[2]], pairs, N)
        powers = [w ** ((N - i if complementary else i) + e) for i in degrees]
        free.append((powers, values))
    order, big = chi.order, weights[0] * weights[1] * weights[2]
    dens = [big ** ((N - n if complementary else 0) + 1) for n in degrees]
    q, u = free.pop()
    q = [scale * x for x in q]  # the sums are bilinear: the scale is taken once
    if not free:  # a fold that absorbs both other variables
        return [u[n].scale(Fraction(q[n], dens[n])) for n in degrees]
    ones = [1] * (N + 1)
    while free:
        # each slot summed with the sum of the slots after it, once for
        # every degree; the first slot takes the denominators
        p, v = free.pop()
        u = _binomial_sums(order, p, v, q, u, ones if free else dens)
        q = ones
    return u


def _run_values(
    label: str, n: int, chi: DirichletChar, weights, ys, bump: int, perms
) -> list[CycloElement]:
    # The value at degree n of the route of a run label at each weight
    # permutation in turn, read from the runs that bernoulli._run_table
    # keeps under label, with one lookup for all of them.  A run is keyed by
    # its permuted weights, so equal ones share it, and grows by the rule of
    # the leaves, bernoulli._grow.
    route, runs = _RUN_ROUTES[label], _run_table(label, chi, weights, ys, bump)

    def build(start, top):  # the run at the permuted weights w of the loop below
        return _evaluate_run(route, top, chi, w, ys, bump)[start:]

    values = []
    for a, b, c in perms:
        w = (weights[a - 1], weights[b - 1], weights[c - 1])
        values.append(_grow(runs.setdefault(w, []), n, build)[n])
    return values


def expansion_sum(
    label: str,
    n: int,
    chi: DirichletChar,
    weights,
    ys,
    perturb: bool = False,
) -> CycloElement:
    """Exact value of one closed-sum expansion route at degree n.

    The nine routes expand the quotient families into finite sums of
    multinomial-weighted products of B_{k,chi}(x) values and power sums,
    exactly as the series coefficients factor; negative weight exponents
    (k + l - 1 with k = l = 0 and similar) are exact rationals.

    perturb adds one to the exponent of each weight in the route's bump
    column of _ROUTES (w1 in the six unfolded routes, w3 in L23.1b, w2 in
    L23.2b, w2 and w3 in L23.2c) and exists only as a sensitivity hook
    for mutation tests: a perturbed route must break at least one
    symmetry instance, guarding against vacuously green checks.
    """
    arity = _label_arity(label)
    if type(n) is not int or n < 0:
        raise ValueError("degree must be a nonnegative int")
    weights, ys = _checked_args(weights, ys, arity, f"label {label}")
    bump = 1 if perturb else 0
    return _run_values(label, n, chi, weights, ys, bump, ((1, 2, 3),))[0]


# ---------------------------------------------------------------------------
# theorem orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TheoremDef:
    label: str
    perms: tuple[tuple[int, int, int], ...]
    # permuted variants that collapse onto a displayed expression by an
    # index renaming of the summation variables, and which one each equals
    collapsed: tuple[tuple[int, int, int], ...] = ()
    collapsed_into: tuple[int, ...] = ()


# Display order of the expressions follows the identity statements: each
# theorem lists the base route evaluated at these weight substitutions
# (i, j, k) meaning (w1, w2, w3) -> (w_i, w_j, w_k).
_THEOREMS: dict[str, _TheoremDef] = {
    "T1": _TheoremDef(
        "L23.0",
        ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)),
    ),
    "T2": _TheoremDef(
        "L23.1a",
        ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2)),
    ),
    "T3": _TheoremDef(
        "L23.1b",
        ((3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3)),
    ),
    "T4": _TheoremDef(
        "L23.2a",
        ((1, 2, 3), (2, 3, 1), (3, 1, 2)),
        collapsed=((1, 3, 2), (2, 1, 3), (3, 2, 1)),
        collapsed_into=(0, 1, 2),
    ),
    "T5": _TheoremDef(
        "L23.2b",
        ((2, 1, 3), (3, 1, 2), (1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1)),
    ),
    "T6": _TheoremDef("L23.2c", ((3, 1, 2), (1, 2, 3), (2, 3, 1))),
    "T7": _TheoremDef("L12.0", ((3, 1, 2), (2, 1, 3))),
    "T8": _TheoremDef(
        "L12.1",
        ((3, 1, 2), (2, 1, 3)),
        collapsed=((1, 2, 3), (2, 3, 1), (1, 3, 2), (3, 2, 1)),
        collapsed_into=(0, 0, 1, 1),
    ),
}

THEOREM_IDS = tuple(_THEOREMS)


def theorem_y_arity(theorem: str) -> int:
    return _label_arity(_THEOREMS[theorem].label)


@dataclass(frozen=True)
class TheoremInstance:
    """One concrete check: a theorem at fixed character, degree, weights, ys."""

    theorem: str
    chi: DirichletChar
    n: int
    weights: tuple[int, int, int]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        if self.theorem not in _THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if type(self.n) is not int or self.n < 0:
            raise ValueError("degree must be a nonnegative int")
        w, ys = _checked_args(
            self.weights, self.ys, theorem_y_arity(self.theorem), self.theorem
        )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ys", ys)


@dataclass
class VerificationReport:
    """Exact expression values for one instance plus the equality verdict.

    A report that sweep_verify has rendered holds its record as text and
    keeps only the verdict flags (all_equal, first_mismatch, extras): its
    instance and values are None, since the caller holds the instances.
    """

    instance: TheoremInstance | None
    values: list[CycloElement] | None
    all_equal: bool
    first_mismatch: tuple[int, int] | None
    extras: dict
    text: str | None = None


def theorem_expressions(
    instance: TheoremInstance, perturb: bool = False
) -> list[CycloElement]:
    """The theorem's expressions in display order, each evaluated exactly."""
    spec = _THEOREMS[instance.theorem]
    return _run_values(
        spec.label, instance.n, instance.chi, instance.weights, instance.ys,
        1 if perturb else 0, spec.perms,
    )


def verify_theorem(instance: TheoremInstance, perturb: bool = False) -> VerificationReport:
    """Evaluate all expressions of one instance and report exact equality.

    Also confirms the orbit collapses: the permuted variants that a
    summation-index renaming folds onto a displayed expression (three for
    T4, four for T8) are evaluated and compared, and for T3 the printed
    fifth-line variant with the off-pattern shift ratio is probed whenever
    w2 != w3.  Inequality is reported, never raised.
    """
    spec = _THEOREMS[instance.theorem]
    # the displayed expressions, then the collapsed variants, in one lookup;
    # the instance has checked its weights, ys and arity once for all of them
    values = _run_values(
        spec.label, instance.n, instance.chi, instance.weights, instance.ys,
        1 if perturb else 0, spec.perms + spec.collapsed,
    )
    values, collapsed_vals = values[: len(spec.perms)], values[len(spec.perms) :]
    all_equal = True
    first_mismatch = None
    for idx in range(1, len(values)):
        if not (values[idx] == values[0]):
            all_equal = False
            first_mismatch = (0, idx)
            break
    extras: dict = {}
    if spec.collapsed:
        extras["collapsed_variants_equal"] = all(
            v == values[t] for v, t in zip(collapsed_vals, spec.collapsed_into)
        )
    if instance.theorem == "T3" and not perturb:
        _, w2, w3 = w = instance.weights
        applies = w2 != w3
        extras["printed_line5_applies"] = applies
        if applies:
            # The printed fifth expression at the weights of its display
            # position, (w2, w1, w3), where its shift ratio reads w1/w2
            # instead of w1/w3.  Evaluated verbatim, under a run label of
            # its own, so the discrepancy can be reported empirically
            # instead of guessed at.
            (printed,) = _run_values(
                "T3.line5", instance.n, instance.chi, w, instance.ys, 0, ((2, 1, 3),)
            )
            extras["printed_line5_matches"] = bool(printed == values[4])
    return VerificationReport(
        instance=instance,
        values=values,
        all_equal=all_equal,
        first_mismatch=first_mismatch,
        extras=extras,
    )


def _verify_star(args):
    # one task: the representative instance, verified, and the reports of
    # its conjugates (instance, k), whose values are the sigma_k images
    instance, conjugates, perturb, render = args
    report = verify_theorem(instance, perturb=perturb)
    values = report.values

    def images(k):
        if report.all_equal:  # equal values have equal images: one, repeated
            return [_conjugate(values[0], k)] * len(values)
        return [_conjugate(v, k) for v in values]

    reports = [report] + [
        VerificationReport(
            conjugate,
            images(k),
            report.all_equal,
            report.first_mismatch,
            dict(report.extras),
        )
        for conjugate, k in conjugates
    ]
    if render is not None:
        # only the rendered records and the flags travel back from a worker
        for r in reports:
            r.text = render(r)
            r.instance = r.values = None
    return reports


def _orbit_groups(instances) -> dict[int, list[tuple[int, int]]]:
    # {head: [(conjugate, k)]} over instance indices: the instances that
    # share (theorem, n, weights, ys), grouped by the Galois orbits of their
    # characters; each head's character is its orbit's representative
    cells: dict = {}
    for i, inst in enumerate(instances):
        cells.setdefault((inst.theorem, inst.n, inst.weights, inst.ys), []).append(i)
    orbits: dict = {}  # one orbit map per distinct tuple of characters
    groups: dict = {}
    for cell in cells.values():
        chars = tuple(dict.fromkeys(instances[i].chi for i in cell))
        if chars not in orbits:
            orbits[chars] = _galois_orbits(chars)
        orbit, head = orbits[chars], {}
        for i in cell:
            chi = instances[i].chi
            if orbit[chi][0] is chi and chi not in head:
                head[chi] = i
                groups[i] = []
        for i in cell:
            rep, k = orbit[instances[i].chi]
            if head[rep] != i:
                groups[head[rep]].append((i, k))
    return groups


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform says
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_verify(
    instances, jobs: int = 1, perturb: bool = False, render=None
) -> list[VerificationReport]:
    """Verify a finite grid of instances; reports come back in input order.

    The instances are verified degree run by degree run, each run from its
    highest n down.  A degree run is the instances that share (theorem,
    chi, weights, ys); the runs keep the order in which they first appear.
    The run's route sums and their folds are then asked for their top
    index first, so each is built once, and every lower degree reads a
    prefix of its memo entry.  Every value is exact, so the order changes
    no report.  No other degree run reads its route sums, so the memo
    keeps no more of them than one degree run reads; the folds and other
    leaves stay, since other degree runs read them.

    Only one character per Galois orbit is verified.  The instances that
    share (theorem, n, weights, ys) are grouped by the orbits of their
    characters, and verify_theorem runs once per group, on the member
    whose character has the smallest label.  The report of each other
    member psi = sigma_k o chi is derived: its values are the sigma_k
    images of the verified values, and its all_equal, first_mismatch and
    extras are copied.  Since sigma_k is a field automorphism and every
    value is rational in the character's values, this is what direct
    evaluation gives.  A character joins an orbit only when its value
    table is the exact sigma_k image of the representative's, so any
    mismatched character, and any whose representative is absent from
    its group, is verified directly.

    jobs is an upper bound, first capped at the CPUs this process may use,
    and at 1 where the platform cannot fork.  A part is one degree run, or,
    with jobs > 1 and at least jobs verified characters, the degree runs of
    one verified character, in order.  The parts are verified in turn, or,
    with jobs > 1 and several parts, by at most one forked worker per part,
    each dealt its next part when it sends back the reports of its last.
    A worker inherits the parts, so only a part's index is sent to it and
    only its pickled reports come back.  The memo tables key a leaf by its
    character, so each leaf is built in one worker when the parts are
    characters, and may be built in each worker when they are degree runs;
    then the workers still share the work.  An exception raised in a worker
    is raised again here, and a worker that dies raises ChildProcessError.

    render, if given, is a callable from a report to its text.  It is
    applied where the report was made, in the worker with jobs > 1,
    derived reports included, and each report then keeps that text and
    its verdict flags only.  Without render, each report holds the
    caller's own instance object, with jobs > 1 too.
    """
    instances = list(instances)
    groups = _orbit_groups(instances)
    jobs = min(jobs, _usable_cpus()) if hasattr(os, "fork") else 1
    by_chi = 1 < jobs <= len({instances[k].chi for k in groups})
    runs: dict = {}  # the degree runs of the group heads, in input order
    for k in sorted(groups):
        inst = instances[k]
        runs.setdefault((inst.theorem, inst.chi, inst.weights, inst.ys), []).append(k)
    parts: dict = {}  # one degree run per part, or one verified character's runs
    for key, run in runs.items():
        run.sort(key=lambda i: -instances[i].n)
        parts.setdefault(key[1] if by_chi else key, []).extend(run)
    parts = list(parts.values())

    def verify(p):
        # the tasks of one part, in turn: each degree run from its highest n down
        return [
            _verify_star(
                (instances[k], [(instances[c], step) for c, step in groups[k]], perturb, render)
            )
            for k in parts[p]
        ]

    if jobs <= 1 or len(parts) <= 1:
        done = map(verify, range(len(parts)))
    else:
        from . import _pool  # loaded only where a pool starts

        done = _pool.run(verify, len(parts), jobs)
    reports = [None] * len(instances)
    for part, part_reports in zip(parts, done):
        for k, task_reports in zip(part, part_reports):
            for i, report in zip([k] + [c for c, _ in groups[k]], task_reports):
                if report.instance is not None:
                    # the caller's own object, not the copy a worker unpickled
                    report.instance = instances[i]
                reports[i] = report
    return reports
