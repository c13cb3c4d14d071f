"""Slow reference paths that the library once ran, kept as oracles.

``scan_inverse`` and ``scan_equivalent`` are the table scans (order <= 3)
behind ``find_inverse`` and ``binary_equivalent`` before their closed
forms.  Both scan ``all_groupoids`` in its ascending row-major order, so
each returns the lexicographically first table that satisfies its
equations.  ``randrange_tables`` is the cell-by-cell generator behind
``random_groupoids`` before it drew its cells in blocks.  ``sweep_census``
is ``census`` before its counts were taken by swap-orbit decomposition:
it classifies every table of the order (order <= 3).
"""

import random

from binsys import all_groupoids, classify, identity, product
from binsys.enumeration import CENSUS_KEYS


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


def randrange_tables(order, count, seed=None):
    """``count`` raw tables, each cell one ``rng.randrange(order)``, row-major."""
    rng = random.Random(seed)
    n = order
    for _ in range(count):
        yield tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


def sweep_census(order):
    """The census counts of an order, by classifying each of its tables."""
    counts = dict.fromkeys(CENSUS_KEYS, 0)
    for g in all_groupoids(order):
        report = classify(g)
        # the first keys name predicates, the rest report fields
        flags = {**report.predicates, **vars(report)}
        for key in CENSUS_KEYS:
            counts[key] += flags[key]
    return counts
