"""Finite binary systems as Cayley tables.

The package models a finite set with one binary operation as a square
table over indices ``0..n-1``, composes such tables with an associative
product, splits them into canonical factor pairs, classifies them as
prime/composite/normal with respect to each factorization, checks the
axiom systems of the classical logic algebras, and translates between
tables and (di)graphs.  :mod:`binsys.enumeration` sweeps every table of
a small order to confirm the registered structural claims.

The axiom names (:mod:`binsys.axioms`) and the claim verifier's names
(:mod:`binsys.enumeration`) are exported lazily: the owning module is
imported on first access, so a command that needs neither never loads
them.
"""

from .core import (
    PREDICATES,
    DiagonalProfile,
    Groupoid,
    diagonal_profile,
    groupoid,
    has_orientation,
    has_twisted_orientation,
    is_abelian,
    is_bi_diagonal,
    is_idempotent,
    is_locally_zero,
    is_semi_neutral,
    is_strong,
    left_zero,
    predicate_vector,
    right_zero,
    semi_neutral_groupoid,
)
from .errors import (
    BadLabels,
    BadShape,
    BadZero,
    BinsysError,
    ClosureViolation,
    InternalError,
    MissingZero,
    NotOP,
    OrderMismatch,
    OrderTooLarge,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .factorization import (
    METHODS,
    ClassificationReport,
    FactorPair,
    UniquenessReport,
    au_holds,
    binary_equivalent,
    classify,
    factorize,
    is_partially_prime,
    jo_holds,
    oj_holds,
    orient_factor,
    signature_factor,
    similar_factor,
    skew_factor,
    ua_holds,
    uniqueness_search,
)
from .fileformat import (
    digraph_to_dot,
    graph_to_dot,
    parse_dot,
    parse_groupoid,
    serialize_groupoid,
)
from .graphs import Digraph, SimpleGraph, all_graphs, from_graph, to_digraph, to_graph
from .semigroup import commutes, find_inverse, in_center, is_identity, product

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


__all__ = [
    "ALGEBRA_CLASSES",
    "AXIOMS",
    "CLAIMS",
    "METHODS",
    "PREDICATES",
    "REGISTRY",
    "BadLabels",
    "BadShape",
    "BadZero",
    "BinsysError",
    "CensusReport",
    "Claim",
    "ClaimReport",
    "ClassificationReport",
    "ClosureViolation",
    "Digraph",
    "DiagonalProfile",
    "FactorPair",
    "Groupoid",
    "InternalError",
    "MissingZero",
    "NotOP",
    "OrderMismatch",
    "OrderTooLarge",
    "ParseError",
    "PreconditionError",
    "SimpleGraph",
    "UniquenessReport",
    "ValidationError",
    "algebra_classes",
    "all_graphs",
    "all_groupoids",
    "au_holds",
    "axiom_holds",
    "axiom_vector",
    "binary_equivalent",
    "census",
    "classify",
    "commutes",
    "diagonal_profile",
    "digraph_to_dot",
    "factorize",
    "find_inverse",
    "from_graph",
    "graph_to_dot",
    "groupoid",
    "has_orientation",
    "has_twisted_orientation",
    "in_center",
    "is_abelian",
    "is_bi_diagonal",
    "is_idempotent",
    "is_identity",
    "is_locally_zero",
    "is_partially_prime",
    "is_semi_neutral",
    "is_strong",
    "jo_holds",
    "left_zero",
    "oj_holds",
    "orient_factor",
    "parse_dot",
    "parse_groupoid",
    "predicate_vector",
    "product",
    "random_groupoids",
    "right_zero",
    "semi_neutral_groupoid",
    "serialize_groupoid",
    "signature_factor",
    "similar_factor",
    "skew_factor",
    "table_count",
    "to_digraph",
    "to_graph",
    "ua_holds",
    "uniqueness_search",
    "verify_claims",
]
