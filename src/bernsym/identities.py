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

Every route returns one linear_combination, an integer-weighted sum of
products over one denominator; a weight power w^e with e >= -1 enters as
w^(e+1) in the term's weight and w in the denominator.  The per-term
loops of the folded routes (L23.1b, L23.2b, L23.2c) visit only the a
(and b) with chi(a) != 0, and form each Bernoulli argument as an integer
numerator over the route's common denominator, reduced by one gcd to the
pair (p, q) under which the value is looked up; no Fraction per term.

Verification of distinct instances is embarrassingly parallel: every
evaluation is pure given the per-process Bernoulli memo tables, and
sweep_verify preserves grid order for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .bernoulli import _bernoulli_at, char_exp_sum, gen_bernoulli_poly, power_sum
from .characters import DirichletChar, char_value
from .cyclotomic import CycloElement, linear_combination
from .series import TruncatedSeries, _exp_minus_one_over_t, exp_series

__all__ = [
    "LambdaSpec",
    "TheoremInstance",
    "VerificationReport",
    "THEOREM_IDS",
    "EXPANSION_LABELS",
    "multinomial",
    "lambda_series",
    "lambda_series_from_integrals",
    "spec_for_label",
    "expansion_sum",
    "theorem_y_arity",
    "theorem_expressions",
    "verify_theorem",
    "sweep_verify",
]


def multinomial(n: int, k: int, l: int, m: int) -> int:
    """Trinomial coefficient n!/(k! l! m!) with k + l + m = n."""
    if min(k, l, m) < 0 or k + l + m != n:
        raise ValueError(f"invalid multinomial index ({n}; {k}, {l}, {m})")
    return comb(n, k) * comb(n - k, l)


def _checked_args(weights, ys, arity: int, name: str):
    """Weights as three positive ints and ys as arity rationals; else ValueError.

    A weight must be an int (not a bool); ints and Fractions among the ys
    are kept as they are, anything else is converted by Fraction.
    """
    w = tuple(weights)
    if len(w) != 3 or any(type(x) is not int or x < 1 for x in w):
        raise ValueError("weights must be three positive integers")
    ys = tuple(y if type(y) in (int, Fraction) else Fraction(y) for y in ys)
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


def _product(series_list):
    result = series_list[0]
    for s in series_list[1:]:
        result = result * s
    return result


def lambda_series(spec: LambdaSpec, chi: DirichletChar, order: int) -> TruncatedSeries:
    """Truncated series of the quotient's explicit closed form.

    Every factor e^(c t) - 1 is divided by t before use, so the t-power
    cancellation between numerator and denominator (three factors each,
    counting the explicit t^(3-i) of families L23 and L13) is structural,
    never left to a division that could silently drop terms.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
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
    num = _product(
        [exp_series(shift, order)]
        + [_exp_minus_one_over_t(d * c, order) for c in num_scales]
    )
    den = _product([_exp_minus_one_over_t(d * s, order) for s in scales])
    result = num * den.invert()
    result = _product([result] + [char_exp_sum(chi, s, order) for s in scales])
    return result.scale(Fraction(big) ** pref_power)


def _char_integral(chi: DirichletChar, scale: int, shift, order: int) -> TruncatedSeries:
    # Closed form of the character-weighted exponential integral:
    # scale * e^(scale*shift*t) * t/(e^(d*scale*t) - 1) * charsum(scale).
    d = chi.modulus
    result = _exp_minus_one_over_t(d * scale, order).invert()
    result = result * char_exp_sum(chi, scale, order)
    shift = Fraction(shift)
    if shift:
        result = result * exp_series(scale * shift, order)
    return result.scale(scale)


def _plain_integral(c: int, order: int) -> TruncatedSeries:
    # Closed form of the plain exponential integral: c*t/(e^(c*t) - 1).
    return _exp_minus_one_over_t(c, order).invert().scale(c)


def lambda_series_from_integrals(
    spec: LambdaSpec, chi: DirichletChar, order: int
) -> TruncatedSeries:
    """Same quotient, built as a product of per-variable integral factors.

    Independent construction route: each integration variable contributes
    its own closed-form factor and the denominators divide as inverted
    series, instead of assembling one global closed form.  Must agree
    with lambda_series coefficient-for-coefficient.
    """
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
            result = result * _plain_integral(d * big, order).invert().pow(i)
            result = result.scale(d**i)
        return result
    if i == 0:
        shifts = (w2 * ys[0], w3 * ys[0], w1 * ys[0])
        return _product(
            [_char_integral(chi, w, s, order) for w, s in zip(singles, shifts)]
        )
    factors = [_char_integral(chi, w, 0, order) for w in singles]
    factors += [_plain_integral(d * p, order).invert() for p in pairs]
    return _product(factors).scale(d**3)


# ---------------------------------------------------------------------------
# coefficient expansions
# ---------------------------------------------------------------------------

_LABEL_FAMILY = {
    "L23.0": ("L23", 0),
    "L23.1a": ("L23", 1),
    "L23.1b": ("L23", 1),
    "L23.2a": ("L23", 2),
    "L23.2b": ("L23", 2),
    "L23.2c": ("L23", 2),
    "L23.3": ("L23", 3),
    "L12.0": ("L12", 0),
    "L12.1": ("L12", 1),
}

EXPANSION_LABELS = tuple(_LABEL_FAMILY)


def _label_arity(label: str) -> int:
    # number of y-arguments of a route label; an unknown label raises
    if label not in _LABEL_FAMILY:
        raise ValueError(f"unknown expansion label {label!r}")
    return LambdaSpec.y_arity(*_LABEL_FAMILY[label])


def spec_for_label(label: str, weights, ys) -> LambdaSpec:
    """LambdaSpec whose series has the labeled expansion as egf coefficients."""
    _label_arity(label)  # rejects an unknown label
    family, index = _LABEL_FAMILY[label]
    return LambdaSpec(family, index, tuple(weights), tuple(ys))


# Slots of the unfolded routes, one (argument weight, y index) pair each:
# slot j reads B_{i,chi}(w_a * y) or, with no y index, S_i(w_a * d - 1).  The
# power of slot j is carried by its own weight w_{j+1}, with exponent n - i
# in family L23 and i in family L12, one lower for a power-sum slot.
_TRIPLE_SLOTS = {
    "L23.0": ((0, 0), (1, 1), (2, 2)),
    "L23.1a": ((0, 0), (1, 1), (2, None)),
    "L23.2a": ((0, 0), (1, None), (2, None)),
    "L23.3": ((0, None), (1, None), (2, None)),
    "L12.0": ((1, 0), (2, 0), (0, 0)),
    "L12.1": ((1, None), (2, None), (0, None)),
}


def _triple_sum(
    label: str, n: int, chi: DirichletChar, weights, ys, bump: int
) -> CycloElement:
    # sum over k + l + m = n of multinomial(n; k, l, m) times the three
    # weight powers and slot values; bump raises w1's exponent.  Exponents
    # are >= -1, so each power is kept times its own weight (an integer)
    # and the sum is divided by w1 w2 w3 once at the end.
    complementary = _LABEL_FAMILY[label][0] == "L23"
    d = chi.modulus
    values, powers = [], []
    for j, (a, y) in enumerate(_TRIPLE_SLOTS[label]):
        w = weights[a]
        if y is None:
            values.append([power_sum(chi, i, w * d - 1) for i in range(n + 1)])
        else:
            x = w * ys[y]
            values.append([gen_bernoulli_poly(chi, i, x) for i in range(n + 1)])
        offset = (0 if y is None else 1) + (bump if j == 0 else 0)
        base = weights[j]
        powers.append(
            [base ** ((n - i if complementary else i) + offset) for i in range(n + 1)]
        )
    (v1, v2, v3), (p1, p2, p3) = values, powers
    terms = []
    for k in range(n + 1):
        j = n - k  # l + m = j, and multinomial(n; k, l, m) = C(n, k) C(j, l)
        rest = [(comb(j, l) * p2[l] * p3[j - l], v2[l], v3[j - l]) for l in range(j + 1)]
        terms.append((comb(n, k) * p1[k], v1[k], linear_combination(chi.order, rest)))
    return linear_combination(chi.order, terms, weights[0] * weights[1] * weights[2])


def _over(x, D: int) -> int:
    # numerator of the rational x written over D (a multiple of its denominator)
    return x.numerator * (D // x.denominator)


def _units(chi: DirichletChar, count: int) -> list[tuple[int, CycloElement]]:
    # (a, chi(a)) for the a < count with chi(a) != 0, in increasing order;
    # count is a multiple of the modulus d, so the unit residues mod d are
    # found once and repeated in each block of d
    d = chi.modulus
    residues = [(a, v) for a, v in enumerate(chi.values) if not v.is_zero()]
    return [(t + a, v) for t in range(0, count, d) for a, v in residues]


def _char_shift_sum(chi: DirichletChar, k: int, x, r, count: int) -> CycloElement:
    # sum_{a < count} chi(a) B_{k,chi}(x + r*a): a quotient absorbed into a
    # character sum that shifts the Bernoulli argument; each argument is
    # an integer numerator over the common denominator D, reduced by one gcd
    D = lcm(x.denominator, r.denominator)
    base, step = _over(x, D), _over(r, D)
    terms = []
    for a, ca in _units(chi, count):
        p = base + step * a
        g = gcd(p, D)
        terms.append((1, ca, _bernoulli_at(chi, k, p // g, D // g)))
    return linear_combination(chi.order, terms)


def _folded_pair(n: int, chi: DirichletChar, weights, ys, r, bump: int) -> CycloElement:
    # route L23.1b at shift ratio r (w2/w3 on the symmetric orbit): the third
    # variable's quotient is folded into a character sum over a < w3*d
    # shifting the second argument
    w1, w2, w3 = weights
    y1, y2 = ys
    x1, x2 = w1 * y1, w2 * y2
    terms = []
    for k in range(n + 1):
        inner = _char_shift_sum(chi, n - k, x2, r, w3 * chi.modulus)
        weight = comb(n, k) * w1 ** (n - k) * w2**k * w3 ** (n + bump)
        terms.append((weight, gen_bernoulli_poly(chi, k, x1), inner))
    return linear_combination(chi.order, terms, w3)


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

    perturb adds one to a single weight exponent and exists only as a
    sensitivity hook for mutation tests: a perturbed route must break at
    least one symmetry instance, guarding against vacuously green checks.
    """
    arity = _label_arity(label)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    (w1, w2, w3), ys = _checked_args(weights, ys, arity, f"label {label}")
    bump = 1 if perturb else 0
    if label in _TRIPLE_SLOTS:
        return _triple_sum(label, n, chi, (w1, w2, w3), ys, bump)
    if label == "L23.1b":
        return _folded_pair(n, chi, (w1, w2, w3), ys, Fraction(w2, w3), bump)

    d = chi.modulus
    (y1,) = ys
    if label == "L23.2b":
        x, r = w1 * y1, Fraction(w1, w2)
        terms = []
        for k in range(n + 1):
            inner = _char_shift_sum(chi, k, x, r, w2 * d)
            weight = comb(n, k) * w1 ** (n - k) * w3**k * w2 ** (n + bump)
            terms.append((weight, inner, power_sum(chi, n - k, w3 * d - 1)))
        return linear_combination(chi.order, terms, w2 * w3)

    # L23.2c: the argument w1*y1 + (w1/w2)*a + (w1/w3)*b over one
    # denominator, for unit a and b only (chi(a*b) vanishes otherwise)
    x, r2, r3 = w1 * y1, Fraction(w1, w2), Fraction(w1, w3)
    D = lcm(x.denominator, r2.denominator, r3.denominator)
    base, step2, step3 = _over(x, D), _over(r2, D), _over(r3, D)
    weight = (w2 * w3) ** (n + bump)
    bs = [b for b, _ in _units(chi, w3 * d)]
    terms = []
    for a, _ in _units(chi, w2 * d):
        pa = base + step2 * a
        for b in bs:
            p = pa + step3 * b
            g = gcd(p, D)
            value = _bernoulli_at(chi, n, p // g, D // g)
            terms.append((weight, char_value(chi, a * b), value))
    return linear_combination(chi.order, terms, w2 * w3)


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
        if self.n < 0:
            raise ValueError("degree must be nonnegative")
        w, ys = _checked_args(
            self.weights, self.ys, theorem_y_arity(self.theorem), self.theorem
        )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ys", ys)


@dataclass
class VerificationReport:
    """Exact expression values for one instance plus the equality verdict."""

    instance: TheoremInstance
    values: list[CycloElement]
    all_equal: bool
    first_mismatch: tuple[int, int] | None
    extras: dict


def _route_values(instance: TheoremInstance, perms, perturb: bool) -> list[CycloElement]:
    # the theorem's route evaluated at each weight permutation in turn
    label = _THEOREMS[instance.theorem].label
    w = instance.weights
    return [
        expansion_sum(
            label,
            instance.n,
            instance.chi,
            tuple(w[p - 1] for p in perm),
            instance.ys,
            perturb=perturb,
        )
        for perm in perms
    ]


def theorem_expressions(
    instance: TheoremInstance, perturb: bool = False
) -> list[CycloElement]:
    """The theorem's expressions in display order, each evaluated exactly."""
    return _route_values(instance, _THEOREMS[instance.theorem].perms, perturb)


def _t3_printed_line5(instance: TheoremInstance) -> CycloElement:
    # The fifth displayed expression of the six-expression folded-route
    # identity, with the inner shift ratio written w1/w2 instead of the
    # orbit-consistent w1/w3.  Evaluated verbatim so the discrepancy can
    # be reported empirically instead of guessed at.
    w1, w2, w3 = instance.weights
    return _folded_pair(
        instance.n, instance.chi, (w2, w1, w3), instance.ys, Fraction(w1, w2), 0
    )


def verify_theorem(instance: TheoremInstance, perturb: bool = False) -> VerificationReport:
    """Evaluate all expressions of one instance and report exact equality.

    Also confirms the orbit collapses: the permuted variants that a
    summation-index renaming folds onto a displayed expression (three for
    T4, four for T8) are evaluated and compared, and for T3 the printed
    fifth-line variant with the off-pattern shift ratio is probed whenever
    w2 != w3.  Inequality is reported, never raised.
    """
    values = theorem_expressions(instance, perturb=perturb)
    all_equal = True
    first_mismatch = None
    for idx in range(1, len(values)):
        if not (values[idx] == values[0]):
            all_equal = False
            first_mismatch = (0, idx)
            break
    extras: dict = {}
    spec = _THEOREMS[instance.theorem]
    if spec.collapsed:
        collapsed_vals = _route_values(instance, spec.collapsed, perturb)
        extras["collapsed_variants_equal"] = all(
            v == values[t] for v, t in zip(collapsed_vals, spec.collapsed_into)
        )
    if instance.theorem == "T3" and not perturb:
        w1, w2, w3 = instance.weights
        applies = w2 != w3
        extras["printed_line5_applies"] = applies
        if applies:
            printed = _t3_printed_line5(instance)
            extras["printed_line5_matches"] = bool(printed == values[4])
    return VerificationReport(
        instance=instance,
        values=values,
        all_equal=all_equal,
        first_mismatch=first_mismatch,
        extras=extras,
    )


def _verify_star(args):
    instance, perturb = args
    return verify_theorem(instance, perturb=perturb)


def sweep_verify(
    instances, jobs: int = 1, perturb: bool = False
) -> list[VerificationReport]:
    """Verify a finite grid of instances, preserving input order.

    With jobs > 1 the instances are checked in a process pool of at most
    one worker per instance; each worker warms its own memo tables.
    Report order matches instance order for any worker count.
    """
    instances = list(instances)
    if not instances:
        return []
    if jobs <= 1 or len(instances) == 1:
        return [verify_theorem(inst, perturb=perturb) for inst in instances]
    jobs = min(jobs, len(instances))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(instances) // (jobs * 4))
        return list(
            pool.map(
                _verify_star,
                [(inst, perturb) for inst in instances],
                chunksize=chunk,
            )
        )
