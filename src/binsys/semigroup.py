"""The composition that makes the set of order-n tables a monoid.

For tables g and h of the same order, the composite applies h to the two
cross readings of g:

    (g ⋄ h)(x, y) = h(g(x, y), g(y, x))

The left projection table (x∘y = x) is a two-sided identity for ⋄, and
both projection tables commute with everything.  The classical claim that
the locally-zero tables are exactly the central ones does not hold: at
orders <= 3 only the two projections survive the exhaustive scan for
elements commuting with everything (see ``in_center``).

One kernel computes ⋄: ``_compose`` works on raw tables (tuples of tuple
rows) and reads row x of g against column x of g, so cell (x, y) is
``h[g[x][y]][g[y][x]]``.  ``product`` wraps it in a validated Groupoid;
``commutes``, the factorization flags and the claim verifier compare its
raw tables directly and build no Groupoid for intermediate results;
``is_identity`` compares with the cached left projection table.
"""

from __future__ import annotations

from .core import Groupoid, Table, _left_zero_table, is_locally_zero, left_zero
from .errors import OrderMismatch


def _compose(gt: Table, ht: Table) -> Table:
    """The table of g ⋄ h from the tables of g and h (same order)."""
    return tuple(
        tuple([ht[a][b] for a, b in zip(row, col)])
        for row, col in zip(gt, zip(*gt))
    )


def _same_order(g: Groupoid, h: Groupoid) -> None:
    if g.order != h.order:
        raise OrderMismatch(f"orders {g.order} and {h.order} differ")


def identity(order: int) -> Groupoid:
    """The ⋄-identity of the given order (the left projection table)."""
    return left_zero(order)


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


def in_center(g: Groupoid, method: str = "fast") -> bool:
    """Does g commute with every table of its order?

    "fast" decides via the locally-zero predicate, the classical
    characterization of the commuting tables; "exhaustive" actually scans
    all tables of the same order (``all_groupoids`` refuses orders above
    EXHAUSTIVE_ORDER_LIMIT).  The two disagree from order 3 up: a locally
    zero table with one left-zero pair and one right-zero pair fails to
    commute with everything, so the exhaustive scan admits only the two
    projections.  The verification registry tracks the gap as the
    expected-fail claim "center-agreement".
    """
    if method == "fast":
        return is_locally_zero(g)
    if method != "exhaustive":
        raise ValueError(f"method must be 'fast' or 'exhaustive', not {method!r}")
    from .enumeration import all_groupoids

    return all(commutes(g, h) for h in all_groupoids(g.order))


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

    Locally-zero tables square to the identity, so they are their own
    inverses.  Otherwise g is invertible exactly when its pair map φ_g is
    a permutation of the cells, and then h is read off φ_g⁻¹ in closed
    form: h(x, y) = φ_g⁻¹[x*n+y] // n.  The inverse keeps g's labels and
    zero.
    """
    if is_locally_zero(g):
        return g
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
