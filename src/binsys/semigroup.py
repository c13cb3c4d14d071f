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

``_cellwise`` builds ⋄ (``_compose``) and the four derived factors of
``factorization`` on raw tables (tuples of tuple rows) through
``core._compiled``, each from its declaration in the flags' template
language: a diagonal template and the two cells of a swap orbit, ⋄'s
being ``u[{a}][{b}]`` at (x, y) and ``u[{b}][{a}]`` at (y, x).  At each
order a map is one function, ``<name>_<n>``, compiled once per process
at O(n²) cost (the first ``classify`` at an order compiles all five:
about 1 ms at order 3, 3 ms at 8, 11 ms at 16, 0.17 s at 64).  If it
reads t's cells as locals, it first unpacks each row of t into them, so
that it reads every cell of t once; then it returns one tuple display of
the n*n cells.  A ⋄ cell costs two subscripts, a cell of the signature
or skew factor none; the similar factor subscripts its n diagonal cells,
and the orient factor's display is a constant.  ``product`` wraps ⋄'s
result in a validated Groupoid; ``commutes``, the factorization flags
and the claim verifier compare its raw tables directly and build no
Groupoid for intermediate results; ``is_identity`` compares with the
cached left projection table.
"""

from __future__ import annotations

__all__ = ["commutes", "find_inverse", "in_center", "is_identity", "product"]

from functools import cache

from .core import Groupoid, Table, _compiled, _fill, _left_zero_table, _right_zero_table
from .errors import OrderMismatch


def _cellwise(name: str, diagonal: str, orbit: tuple, anti=None):
    """The raw-table map ``name``, ``f(t, u=None)``, declared as a ``_flag``
    is: cell (x, x) is ``diagonal``, and on each orbit x < y cells (x, y)
    and (y, x) are ``orbit``, or ``anti`` where x + y = n - 1.  A map whose
    orbit reads ``{a}`` or ``{b}`` reads t's cells as locals ``t{p}_{q}``,
    unpacking the rows into them; any other subscripts them.  The first
    call at an order compiles ``.at(n)``, the function ``<name>_<n>``."""
    cell = "t{}_{}" if any(v in "".join(orbit) for v in ("{a}", "{b}")) else "t[{}][{}]"

    def source(n, x, y):
        pair = anti if anti and x + y == n - 1 else orbit
        return _fill(diagonal if x == y else pair[x > y], min(x, y), max(x, y), cell)

    @cache
    def at(n: int):
        # every row ends in a comma, so order 1 gives ((v,),) and not (v,)
        display = "".join(
            "(" + "".join(f"{source(n, x, y)}, " for y in range(n)) + "), "
            for x in range(n)
        )
        rows = range(n) if "_" in display else ()
        head = [", ".join(f"t{a}_{b}" for b in range(n)) + f", = t[{a}]" for a in rows]
        return _compiled(f"{name}_{n}", "t, u", head, f"({display})")

    mapped = lambda t, u=None: at(len(t))(t, u)
    mapped.__name__, mapped.at = name, at  # .at(n) is called without dispatch
    mapped.diagonal, mapped.orbit, mapped.anti = diagonal, orbit, anti
    return mapped


# the table of t ⋄ u from the tables of t and u (same order)
_compose = _cellwise("_compose", "u[{d}][{d}]", ("u[{a}][{b}]", "u[{b}][{a}]"))


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
