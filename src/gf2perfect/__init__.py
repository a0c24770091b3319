"""Exact arithmetic and divisor-sum searches for binary polynomials.

The package is organized in layers: gf2poly holds the carry-less ring
arithmetic, factorize the irreducibility and factoring machinery,
sigma the multiplicative divisor sum together with its slot-term
exponent bookkeeping, catalog the fixed prime and fixed-point tables
with their classification helpers, and search the staged sieve plus
the exploratory sweeps.  The cli module exposes all of it as the
gf2perfect command.

Each layer lists its public names in its own __all__, and the
package re-exports them.  Importing the package loads every layer but
search and cli; a module __getattr__ imports search the first time one
of its names is read.  The result records are NamedTuples, so each one
also equals the plain tuple of its fields.
"""

from . import catalog, factorize, gf2poly
from .catalog import *
from .factorize import *
from .gf2poly import *
from .sigma import *

# Under another name: the star import above rebinds sigma to the function.
from .sigma import __all__ as _sigma_all

__version__ = "0.1.0"

# search's public names, kept here: a list in search would load it to
# be read.  __getattr__ imports search when one is first asked for.
_SEARCH_NAMES = [
    "ConjectureScan",
    "IdentityReport",
    "ReciprocalReport",
    "SigmaTable",
    "StageResult",
    "conjecture_scan",
    "explore_reciprocal",
    "run_search",
    "sigma_factor_tables",
    "verify_split_identities",
]

__all__ = sorted(
    gf2poly.__all__ + factorize.__all__ + _sigma_all + catalog.__all__ + _SEARCH_NAMES
)


def __getattr__(name):
    if name in _SEARCH_NAMES:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
