"""The composition that makes the set of order-n tables a monoid.

For tables g and h of the same order, the composite applies h to the two
cross readings of g:

    (g ⋄ h)(x, y) = h(g(x, y), g(y, x))

The left projection table (x∘y = x) is a two-sided identity for ⋄.  Read
through its pair map φ_g (see ``_pair_map``), a table is a self-map of the
n*n cells that commutes with the swap (x, y) -> (y, x), and
φ_{g⋄h} = φ_h ∘ φ_g: the monoid is anti-isomorphic to the maps of a set
with n fixed points (the diagonal) and C(n, 2) free swap orbits.  Its
center is therefore known in closed form: for n >= 2 exactly the two
projection tables (the identity and the swap), and the single table at
n = 1 (``_is_central``).  The classical claim that the locally-zero tables
are exactly the central ones does not hold from order 3 up (see
``in_center``).

One compiler, ``_cellwise``, builds ⋄ (``_compose``) and the four derived
factors of ``factorization`` on raw tables (tuples of tuple rows), each
from its cell rule: the source of cell (x, y) at order n, an element or an
expression over the operands that reads a cell of the first operand t as a
local ``t{x}_{y}`` or by subscript, ``u[t{x}_{y}][t{y}_{x}]`` for ⋄.  At
each order a map is one function, ``<rule>_<n>``, compiled once per
process at O(n²) cost (the first ``classify`` at an order compiles all
five: about 1 ms at order 3, 3 ms at 8, 11 ms at 16, 0.17 s at 64).  If
its rule reads locals, it first unpacks each row of t into them, so that
it reads every cell of t once; then it returns one tuple display of the
n*n cells.  A ⋄ cell costs two subscripts, a cell of the signature or skew
factor none; the similar factor subscripts its n diagonal cells, and the
orient factor's display is a constant.  ``verify_claims`` compiles every
map at its order (``_compile_maps``) before it forks.  ``product`` wraps
⋄'s result in a validated Groupoid; ``commutes``, the factorization flags
and the claim verifier compare its raw tables directly and build no
Groupoid for intermediate results; ``is_identity`` compares with the
cached left projection table.
"""

from __future__ import annotations

from functools import cache

from .core import Groupoid, Table, _left_zero_table, _right_zero_table
from .errors import OrderMismatch

# every map's per-order compiler, so that a run can compile them all before it forks
_COMPILERS = []


def _cellwise(cell):
    """The raw-table map ``f(t, u=None)`` whose cell (x, y) at order n has the
    source ``cell(n, x, y)``.  The source reads cell (a, b) of the first
    operand t as ``t[a][b]`` or as the local ``t{a}_{b}``, the only ``_`` it
    may hold; a map that reads locals first unpacks every row of t into
    them.  The first call at an order compiles the map, as the function
    ``<rule>_<n>`` in the file ``<<rule>_<n>>``."""

    @cache
    def compiled(n: int):
        # every row ends in a comma, so order 1 gives ((v,),) and not (v,)
        display = "".join(
            "(" + "".join(f"{cell(n, x, y)}, " for y in range(n)) + "), "
            for x in range(n)
        )
        rows = range(n) if "_" in display else ()
        head = [", ".join(f"t{a}_{b}" for b in range(n)) + f", = t[{a}]" for a in rows]
        name = f"{cell.__name__}_{n}"
        source = "\n    ".join([f"def {name}(t, u):", *head, f"return ({display})"])
        eval(compile(source, f"<{name}>", "exec"), namespace := {})
        return namespace[name]

    _COMPILERS.append(compiled)
    mapped = lambda t, u=None: compiled(len(t))(t, u)
    mapped.at = compiled  # the map compiled for an order, called without dispatch
    return mapped


def _compile_maps(n: int) -> None:
    """Compile every map at order n, so that forked workers inherit them."""
    for compiled in _COMPILERS:
        compiled(n)


# the table of t ⋄ u from the tables of t and u (same order)
@_cellwise
def _compose(n, x, y):
    return f"u[t{x}_{y}][t{y}_{x}]"


def _same_order(g: Groupoid, h: Groupoid) -> None:
    if g.order != h.order:
        raise OrderMismatch(f"orders {g.order} and {h.order} differ")


def product(g: Groupoid, h: Groupoid) -> Groupoid:
    """Compose two tables of the same order.

    Labels (and likewise zero) carry over only when both operands agree
    on them; otherwise the result has none.
    """
    _same_order(g, h)
    labels = g.labels if g.labels == h.labels else None
    zero = g.zero if g.zero == h.zero else None
    return Groupoid(_compose(g.table, h.table), labels=labels, zero=zero)


def commutes(g: Groupoid, h: Groupoid) -> bool:
    _same_order(g, h)
    return _compose(g.table, h.table) == _compose(h.table, g.table)


def _is_identity(t: Table) -> bool:
    return t == _left_zero_table(len(t))


def is_identity(g: Groupoid) -> bool:
    return _is_identity(g.table)


def _is_central(t: Table) -> bool:
    """Is t one of the two projection tables (at order 1 they coincide)?"""
    n = len(t)
    return t in (_left_zero_table(n), _right_zero_table(n))


def in_center(g: Groupoid) -> bool:
    """Does g commute with every table of its order?  Exact at any order.

    g is central exactly when it is one of the two projection tables.
    Commuting with the constant tables forces g(x, x) = x, and commuting
    with the tables that carry one swap orbit onto another (every other
    cell sent to one element) forces g to act on every orbit alike, as
    the identity or as the swap.

    The classical characterization, ``is_locally_zero``, disagrees from
    order 3 up: a locally-zero table with one left-zero pair and one
    right-zero pair fails to commute with everything.  The verification
    registry tracks the gap as the expected-fail claim "center-agreement".
    """
    return _is_central(g.table)


def _pair_map(g: Groupoid) -> list[int]:
    """g as a map on cells: φ_g[x*n+y] = g(x, y)*n + g(y, x).

    A cell of g ⋄ h reads only the symmetric pair of cells at (x, y) and
    (y, x), so φ_{g⋄h} = φ_h ∘ φ_g and the identity's map is the identity.
    The order-n tables correspond one to one to the maps of n*n cells that
    commute with the swap (x, y) -> (y, x).
    """
    n, t = g.order, g.table
    return [t[x][y] * n + t[y][x] for x in range(n) for y in range(n)]


def find_inverse(g: Groupoid) -> Groupoid | None:
    """The table h with g ⋄ h = h ⋄ g = identity, or None; any order.

    g is invertible exactly when its pair map φ_g is a permutation of the
    cells, and then h is read off φ_g⁻¹ in closed form:
    h(x, y) = φ_g⁻¹[x*n+y] // n.  (A locally-zero g squares to the
    identity, so φ_g is an involution and h = g.)  The inverse keeps g's
    labels and zero.
    """
    n = g.order
    phi = _pair_map(g)
    if len(set(phi)) != n * n:
        return None
    inverse = [0] * (n * n)
    for cell, image in enumerate(phi):
        inverse[image] = cell
    return Groupoid(
        tuple(tuple(inverse[x * n + y] // n for y in range(n)) for x in range(n)),
        labels=g.labels, zero=g.zero,
    )
