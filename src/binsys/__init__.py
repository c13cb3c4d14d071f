"""Finite binary systems as Cayley tables.

The package models a finite set with one binary operation as a square
table over indices ``0..n-1``, composes such tables with an associative
product, splits them into canonical factor pairs, classifies them as
prime/composite/normal with respect to each factorization, checks the
axiom systems of the classical logic algebras, and translates between
tables and (di)graphs.  :mod:`binsys.enumeration` sweeps every table of
a small order to confirm the registered structural claims.

Each public name is declared once.  The eagerly imported modules list
theirs in their own ``__all__``, re-exported here by star import.  The
axiom names (:mod:`binsys.axioms`) and the claim verifier's names
(:mod:`binsys.enumeration`) are listed in ``_LAZY`` and exported lazily:
the owning module is imported on first access, so a command that needs
neither never loads them.
"""

from . import core, errors, factorization, fileformat, graphs, semigroup
from .core import *
from .errors import *
from .factorization import *
from .fileformat import *
from .graphs import *
from .semigroup import *

__version__ = "0.1.0"

# module -> the names it exports through the package, imported on first use
_LAZY = {
    "axioms": ("ALGEBRA_CLASSES", "AXIOMS", "algebra_classes", "axiom_holds", "axiom_vector"),
    "enumeration": (
        "CLAIMS", "REGISTRY", "CensusReport", "Claim", "ClaimReport",
        "all_groupoids", "census", "random_groupoids", "table_count", "verify_claims",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    module = _OWNER.get(name)
    if module is None and name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f"{__name__}.{module or name}")
    return loaded if module is None else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_OWNER})


__all__ = list(_OWNER)
__all__ += core.__all__
__all__ += errors.__all__
__all__ += factorization.__all__
__all__ += fileformat.__all__
__all__ += graphs.__all__
__all__ += semigroup.__all__
