"""Factoring a table into structured left/right cofactors.

Two families of factorizations are supported, each in both orders:

* signature/similar ("ua"/"au"): the signature factor keeps the target's
  off-diagonal cells over an idempotent diagonal; the similar factor keeps
  the target's diagonal over a left-projection body.
* orient/skew ("oj"/"jo"): the orient factor is the left projection with
  its anti-diagonal replaced by column indices (it depends only on the
  order); the skew factor transposes the target's anti-diagonal cells.

``_PAIRS`` is the one method table: it maps each method to its (left,
right) factor derivations on raw tables, and ``_FAMILIES`` pairs each
method with its reverse.  ``METHODS``, the holds checks, ``classify`` and
the uniqueness count all read it.

For each method the derived pair is cheap to compute, and
``uniqueness_search`` counts *all* in-shape factorizations of a target by
exploiting that the composite's cells depend on the candidate cells one
symmetric pair at a time.

``FactorPair``, ``ClassificationReport`` and ``UniquenessReport`` are
named tuples.
"""

from __future__ import annotations

__all__ = [
    "METHODS", "ClassificationReport", "FactorPair", "UniquenessReport", "au_holds",
    "binary_equivalent", "classify", "factorize", "is_partially_prime", "jo_holds", "oj_holds",
    "orient_factor", "signature_factor", "similar_factor", "skew_factor", "ua_holds",
    "uniqueness_search",
]

import itertools
import math
from collections import namedtuple

from .core import Groupoid, Table, _left_zero_table, _semi_neutral_table, predicate_vector
from .errors import InternalError
from .semigroup import _cellwise, _compose, _is_identity, _pair_map, _same_order, product

# uniqueness_search reports exact counts but materializes at most this
# many solution pairs before sorting (see UniquenessReport.truncated).
MATERIALIZE_LIMIT = 4096


# --- the four derived factors, on raw tables, each as its cell rule ---

@_cellwise
def _signature(n, x, y):
    return x if x == y else f"t{x}_{y}"


# it reads one cell per row: a subscript costs less than unpacking the row
@_cellwise
def _similar(n, x, y):
    return f"t[{x}][{x}]" if x == y else x


# it reads no cell: its display is a constant, and every call returns one object
@_cellwise
def _orient(n, x, y):
    return y if x + y == n - 1 else x


@_cellwise
def _skew(n, x, y):
    return f"t{y}_{x}" if x + y == n - 1 else f"t{x}_{y}"


def _orient_table(order: int) -> Table:
    return _orient(_left_zero_table(order))


# --- the four derived factors ---

def signature_factor(g: Groupoid) -> Groupoid:
    """Idempotent diagonal, target's cells elsewhere."""
    return Groupoid(_signature(g.table), labels=g.labels, zero=g.zero)


def similar_factor(g: Groupoid) -> Groupoid:
    """Target's diagonal, left projection elsewhere."""
    return Groupoid(_similar(g.table), labels=g.labels, zero=g.zero)


def orient_factor(g: Groupoid) -> Groupoid:
    """Left projection with the anti-diagonal replaced by column indices.

    Depends only on the order of g.
    """
    return Groupoid(_orient_table(g.order), labels=g.labels, zero=g.zero)


def skew_factor(g: Groupoid) -> Groupoid:
    """Target with its anti-diagonal cells transposed (an involution)."""
    return Groupoid(_skew(g.table), labels=g.labels, zero=g.zero)


# --- method registry ---

# each method's (left, right) derivations; a family is a method and its reverse
_PAIRS = {
    "ua": (_signature, _similar),
    "au": (_similar, _signature),
    "oj": (_orient, _skew),
    "jo": (_skew, _orient),
}
_FAMILIES = {"u": ("ua", "au"), "j": ("oj", "jo")}
METHODS = tuple(_PAIRS)


def _method(name: str) -> str:
    if not isinstance(name, str) or name not in _PAIRS:
        raise ValueError(f"unknown method {name!r}; expected one of {sorted(METHODS)}")
    return name


class FactorPair(namedtuple("FactorPair", "method left right composed reproduces")):
    __slots__ = ()


def factorize(g: Groupoid, method="ua") -> FactorPair:
    """Derive the method's canonical factor pair and compose it back."""
    method = _method(method)
    lt, rt = (Groupoid(derive(g.table), labels=g.labels, zero=g.zero) for derive in _PAIRS[method])
    comp = product(lt, rt)
    return FactorPair(method, lt, rt, comp, comp == g)


def _holds(t: Table, method: str) -> bool:
    """Does the method's derived pair compose back to t?"""
    left, right = _PAIRS[method]
    return _compose(left(t), right(t)) == t


def ua_holds(g: Groupoid) -> bool:
    return _holds(g.table, "ua")


def au_holds(g: Groupoid) -> bool:
    return _holds(g.table, "au")


def oj_holds(g: Groupoid) -> bool:
    return _holds(g.table, "oj")


def jo_holds(g: Groupoid) -> bool:
    return _holds(g.table, "jo")


# --- classification ---

class ClassificationReport(namedtuple("ClassificationReport", (
    "order predicates signature_prime similar_prime orient_prime skew_prime"
    " ua_holds au_holds oj_holds jo_holds ua_composite au_composite oj_composite jo_composite"
    " u_composite j_composite u_normal j_normal semi_normal semi_composite"
))):
    """Primeness/compositeness flags for one table.

    The semi_* fields need a distinguished zero on the target (the derived
    factors inherit it) and are None when it is absent.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def classify(g: Groupoid) -> ClassificationReport:
    """Evaluate every predicate and factorization flag for one table.

    Each factor is derived once; the flags follow ``_PAIRS`` and ``_FAMILIES``."""
    t = g.table
    ident = _left_zero_table(g.order)
    factor = {_signature: _signature(t), _similar: _similar(t),
              _orient: _orient(t), _skew: _skew(t)}
    holds, composite = {}, {}
    for m, (left, right) in _PAIRS.items():
        lt, rt = factor[left], factor[right]
        holds[m] = h = _compose(lt, rt) == t
        composite[m] = h and lt != ident and rt != ident
    # the derived factors inherit g's zero
    semi = None if g.zero is None else _semi_neutral_table(g.order, g.zero)
    semi_n = semi_c = None if semi is None else False
    normal, joint = {}, {}
    for family, (m, r) in _FAMILIES.items():
        normal[family] = n = holds[m] and holds[r]
        joint[family] = c = composite[m] and composite[r]
        if semi is not None:
            # "exactly one factor is semi-neutral", on whichever side pairs up
            left, right = _PAIRS[m]
            one = (factor[left] == semi) != (factor[right] == semi)
            semi_n = semi_n or (n and one)
            semi_c = semi_c or (c and one)
    return ClassificationReport(
        g.order, predicate_vector(g), *[table == ident for table in factor.values()],
        *holds.values(), *composite.values(), *joint.values(), *normal.values(), semi_n, semi_c,
    )


def is_partially_prime(g: Groupoid, h: Groupoid, side: str = "left") -> bool:
    """Does g reproduce itself against the non-identity cofactor h?

    side "left" tests h ⋄ g = g, side "right" tests g ⋄ h = g.  The
    identity never counts as h: it reproduces every table.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    _same_order(g, h)
    return _partially_prime(g.table, h.table, side)


def _partially_prime(t: Table, h: Table, side: str = "left") -> bool:
    """``is_partially_prime`` on raw tables of one order."""
    if _is_identity(h):
        return False
    return (_compose(h, t) if side == "left" else _compose(t, h)) == t


# --- uniqueness of in-shape factorizations ---

class UniquenessReport(namedtuple(
    "UniquenessReport", "method derived solution_count solutions other_solutions truncated"
)):
    __slots__ = ()


# The ua and jo solutions keep the derived right factor and vary the left
# factor on symmetric cell pairs; each choice function lists, per free
# pair (x, y), the (left(x,y), left(y,x)) values that reproduce t there.

def _ua_choices(t):
    n = len(t)
    found = []
    for x in range(n):
        for y in range(x + 1, n):
            vxy, vyx = t[x][y], t[y][x]
            if vxy != vyx:
                choices = [(vxy, vyx)]
            else:
                # both composite cells read the right factor's diagonal
                choices = [(a, a) for a in range(n) if t[a][a] == vxy]
            found.append(((x, y), choices))
    return found


def _jo_choices(t):
    n, o = len(t), _orient(t)
    # cells off the anti-diagonal are pinned to the target, so the
    # composite is already determined there; where it disagrees, that
    # pinned pair has no choice and the count is 0
    for x in range(n):
        for y in range(n):
            if x == y or x + y == n - 1:
                continue
            if o[t[x][y]][t[y][x]] != t[x][y]:
                return [((x, y), [])]
    # on an anti-diagonal pair exactly one (a, b) composes to (p, q): the
    # orient table swaps a pair summing to n - 1 and keeps any other
    found = []
    for i in range(n // 2):
        j = n - 1 - i
        p, q = t[i][j], t[j][i]
        found.append(((i, j), [(q, p) if p + q == n - 1 else (p, q)]))
    return found


# au and oj, with no entry here: every free cell is forced, so the derived
# pair is the single in-shape solution; its correctness is a library invariant.
_CHOICES = {"ua": _ua_choices, "jo": _jo_choices}


def _solution_count(t: Table, method: str) -> int:
    """How many in-shape factor pairs of the method compose to t."""
    if method not in _CHOICES:
        if not _holds(t, method):
            raise InternalError(
                f"forced {method} factorization failed to reproduce the target"
            )
        return 1
    return math.prod(len(choices) for _, choices in _CHOICES[method](t))


def _left_solutions(t, left, method):
    """The left factors of the first MATERIALIZE_LIMIT solutions: ``left``
    (the derived one) with each combination of pair choices written in."""
    if method not in _CHOICES:
        return [left]
    found = _CHOICES[method](t)
    table = [list(row) for row in left]
    lefts = []
    combos = itertools.product(*(choices for _, choices in found))
    for combo in itertools.islice(combos, MATERIALIZE_LIMIT):
        for ((x, y), _), (p, q) in zip(found, combo):
            table[x][y], table[y][x] = p, q
        lefts.append(tuple(map(tuple, table)))
    return lefts


def uniqueness_search(g: Groupoid, method="ua") -> UniquenessReport:
    """Count every in-shape factor pair whose composite is exactly g.

    The count is analytic, one cell pair at a time, and exact at any
    order.  When more than MATERIALIZE_LIMIT solutions exist only the
    count is exact and the listing is truncated.
    """
    method = _method(method)
    derived = factorize(g, method)
    count = _solution_count(g.table, method)
    lefts = _left_solutions(g.table, derived.left.table, method) if count else []
    sols = sorted((lt, derived.right.table) for lt in lefts)
    truncated = count > len(sols)
    pairs = tuple(
        (Groupoid(lt, labels=g.labels, zero=g.zero),
         Groupoid(rt, labels=g.labels, zero=g.zero))
        for lt, rt in sols
    )
    derived_tables = (derived.left.table, derived.right.table)
    others = tuple(p for p in pairs if (p[0].table, p[1].table) != derived_tables)
    if derived.reproduces and derived_tables not in sols and not truncated:
        raise InternalError(f"derived {method} pair missing from solution set")
    return UniquenessReport(
        method=method,
        derived=derived,
        solution_count=count,
        solutions=pairs,
        other_solutions=others,
        truncated=truncated,
    )


def binary_equivalent(a: Groupoid, b: Groupoid):
    """A table w with w ⋄ a = b and w ⋄ b = a, or None; any order.

    w is built through the pair maps: the equations read
    φ_a[φ_w[i]] = φ_b[i] and φ_b[φ_w[i]] = φ_a[i] cell by cell, and φ_w is
    chosen independently on each swap orbit {(x, y), (y, x)}, a diagonal
    cell going to a diagonal cell.  Taking the smallest choice in each
    orbit gives the lexicographically first such w among all tables.  As
    with ``product``, w keeps labels (and likewise zero) only when a and b
    agree on them.
    """
    _same_order(a, b)
    n = a.order
    pa, pb = _pair_map(a), _pair_map(b)
    # (φ_a[j], φ_b[j]) -> smallest such j, over all cells and over the diagonal
    first, first_diagonal = {}, {}
    for j in range(n * n):
        first.setdefault((pa[j], pb[j]), j)
    for j in range(0, n * n, n + 1):
        first_diagonal.setdefault((pa[j], pb[j]), j)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            i = x * n + y
            j = (first_diagonal if x == y else first).get((pb[i], pa[i]))
            if j is None:
                return None
            table[x][y], table[y][x] = divmod(j, n)
    return Groupoid(
        tuple(map(tuple, table)),
        labels=a.labels if a.labels == b.labels else None,
        zero=a.zero if a.zero == b.zero else None,
    )
