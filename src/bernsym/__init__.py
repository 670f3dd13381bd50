"""Exact-arithmetic toolkit for symmetry identities of generalized
Bernoulli polynomials and generalized power sums.

Everything is computed over Q or over cyclotomic fields Q(zeta_m) with
arbitrary-precision rationals; no floating point appears anywhere.

The package root exports the names of the documented library example;
everything else is imported from its module, bernsym.<module>.
"""

__version__ = "0.1.0"

from .bernoulli import gen_bernoulli_poly, power_sum
from .characters import enumerate_characters
from .identities import TheoremInstance, verify_theorem

__all__ = [
    "__version__",
    "enumerate_characters",
    "gen_bernoulli_poly",
    "power_sum",
    "TheoremInstance",
    "verify_theorem",
]
