"""Exact arithmetic and divisor-sum searches for binary polynomials.

The package is organized in layers: gf2poly holds the carry-less ring
arithmetic, factorize the irreducibility and factoring machinery,
sigma the multiplicative divisor sum together with its closed-form
exponent bookkeeping, catalog the fixed prime and fixed-point tables
with their classification helpers, and search the staged sieve plus
the exploratory sweeps.  The cli module exposes all of it as the
gf2perfect command.

Importing the package loads every layer but search and cli; a module
__getattr__ imports search the first time one of its names in __all__
is read.  The result records are NamedTuples, so each one also equals
the plain tuple of its fields.
"""

from .catalog import (
    CatalogEntry,
    CatalogError,
    Classification,
    Representation,
    by_name,
    catalog_constants,
    chain_length,
    classify,
    family_degree_sum,
    is_admissible,
    mersenne,
    mersenne_family,
    name_of,
    perfect_family,
    prime_family,
    representation,
    two_mersenne,
    two_mersenne_family,
)
from .factorize import (
    FactorMap,
    factor_full,
    factor_over_family,
    is_irreducible,
    is_squarefree,
)
from .gf2poly import (
    ONE,
    X,
    X1,
    Poly,
    PolyParseError,
    bar,
    derivative,
    gcd,
    is_even,
    is_odd,
    star,
    val_x,
    val_x1,
)
from .sigma import (
    ExponentTuple,
    SigmaExponents,
    assemble,
    is_indecomposable_perfect,
    is_perfect,
    sigma,
    sigma_exponents,
    sigma_of_factor_map,
    sigma_prime_power,
    trivial_perfect,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "Classification",
    "ConjectureScan",
    "ExponentTuple",
    "FactorMap",
    "IdentityReport",
    "ONE",
    "Poly",
    "PolyParseError",
    "ReciprocalReport",
    "Representation",
    "SigmaExponents",
    "SigmaTable",
    "StageResult",
    "X",
    "X1",
    "assemble",
    "bar",
    "by_name",
    "catalog_constants",
    "chain_length",
    "classify",
    "conjecture_scan",
    "derivative",
    "explore_reciprocal",
    "factor_full",
    "factor_over_family",
    "family_degree_sum",
    "gcd",
    "is_admissible",
    "is_even",
    "is_indecomposable_perfect",
    "is_irreducible",
    "is_odd",
    "is_perfect",
    "is_squarefree",
    "mersenne",
    "mersenne_family",
    "name_of",
    "perfect_family",
    "prime_family",
    "representation",
    "run_search",
    "sigma",
    "sigma_exponents",
    "sigma_factor_tables",
    "sigma_of_factor_map",
    "sigma_prime_power",
    "star",
    "trivial_perfect",
    "two_mersenne",
    "two_mersenne_family",
    "val_x",
    "val_x1",
    "verify_split_identities",
]


def __getattr__(name):
    # The public names not bound above are search's, imported on first use.
    if name in __all__:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
