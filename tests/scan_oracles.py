"""Slow reference searches over every table of an order (order <= 3).

These are the table scans that ``find_inverse`` and ``binary_equivalent``
once ran; the tests keep them as oracles for the closed forms.  Both scan
``all_groupoids`` in its ascending row-major order, so each returns the
lexicographically first table that satisfies its equations.
"""

from binsys import all_groupoids, identity, product


def scan_inverse(g):
    """The first table h with g ⋄ h = h ⋄ g = identity, or None."""
    ident = identity(g.order)
    for h in all_groupoids(g.order):
        if product(g, h) == ident and product(h, g) == ident:
            return h
    return None


def scan_equivalent(a, b):
    """The first table w with w ⋄ a = b and w ⋄ b = a, or None."""
    for w in all_groupoids(a.order):
        if product(w, a) == b and product(w, b) == a:
            return w
    return None
