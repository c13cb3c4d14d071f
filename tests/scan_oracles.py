"""Slow reference paths that the library once ran, kept as oracles.

``scan_inverse`` and ``scan_equivalent`` are the table scans (order <= 3)
behind ``find_inverse`` and ``binary_equivalent`` before their closed
forms.  Both scan ``all_groupoids`` in its ascending row-major order, so
each returns the lexicographically first table that satisfies its
equations.  ``scan_center`` is ``in_center`` before its closed form: it
tests g against every table of its order.  ``scan_factor_pairs`` is the
exhaustive shape search that ``uniqueness_search(..., exhaustive=True)``
ran: it fills both factor frames of a method every way and keeps the
pairs that compose to the target.  ``randrange_tables`` is the
cell-by-cell generator behind ``random_groupoids`` before it drew its
cells in blocks.  ``sweep_census`` is ``census`` before its counts were
taken by swap-orbit decomposition: it classifies every table of the order
(order <= 3).  ``census_per_pair`` is the decomposition before its pairs
were grouped into two classes: a product over every pair x < y.
"""

import itertools
import math
import random

from binsys import OrderTooLarge, all_groupoids, classify, commutes, left_zero, product
from binsys.enumeration import CENSUS_KEYS, _census_terms, _pair_atoms
from binsys.errors import EXHAUSTIVE_ORDER_LIMIT
from binsys.factorization import _orient_table
from binsys.semigroup import _compose


def scan_inverse(g):
    """The first table h with g ⋄ h = h ⋄ g = identity, or None."""
    ident = left_zero(g.order)
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


def scan_center(g):
    """Does g commute with every table of its order?"""
    return all(commutes(g, h) for h in all_groupoids(g.order))


# The shape frames of the four factors: lists of rows, None in a free
# cell.  Each frame is built from the target g.

def _signature_frame(g):
    # identity diagonal fixed, off-diagonal free
    n = g.order
    return [[x if x == y else None for y in range(n)] for x in range(n)]


def _similar_frame(g):
    # diagonal free, off-diagonal pinned to left projection
    n = g.order
    return [[x if x != y else None for y in range(n)] for x in range(n)]


def _orient_frame(g):
    # fully pinned: this factor family is a single table per order
    return [list(row) for row in _orient_table(g.order)]


def _skew_frame(g):
    # anti-diagonal free, all other cells pinned to the target
    n = g.order
    frame = [list(row) for row in g.table]
    for i in range(n):
        frame[i][n - 1 - i] = None
    return frame


# method -> (left frame, right frame)
FRAMES = {
    "ua": (_signature_frame, _similar_frame),
    "au": (_similar_frame, _signature_frame),
    "oj": (_orient_frame, _skew_frame),
    "jo": (_skew_frame, _orient_frame),
}


def frame_fills(frame, n):
    """Every table that fills the frame's free cells, as raw tables."""
    free = [(x, y) for x, row in enumerate(frame) for y, v in enumerate(row) if v is None]
    table = [list(row) for row in frame]
    for combo in itertools.product(range(n), repeat=len(free)):
        for (x, y), v in zip(free, combo):
            table[x][y] = v
        yield tuple(map(tuple, table))


def scan_factor_pairs(g, method):
    """Every in-shape (left, right) raw table pair that composes to g,
    sorted (order <= EXHAUSTIVE_ORDER_LIMIT)."""
    if g.order > EXHAUSTIVE_ORDER_LIMIT:
        raise OrderTooLarge(
            f"exhaustive shape search supports order <= {EXHAUSTIVE_ORDER_LIMIT}"
        )
    n = g.order
    lframe, rframe = (frame(g) for frame in FRAMES[method])
    rights = list(frame_fills(rframe, n))
    return sorted(
        (lt, rt)
        for lt in frame_fills(lframe, n)
        for rt in rights
        if _compose(lt, rt) == g.table
    )


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


def census_per_pair(order):
    """The census counts of an order, as a product over every pair x < y
    of its per-pair count of value pairs, for each diagonal fixed-point
    count k."""
    n = order
    pairs = list(itertools.combinations(range(n), 2))
    terms = _census_terms(n)
    counts = dict.fromkeys(CENSUS_KEYS, 0)
    for k in range(n + 1):
        diagonals = math.comb(n, k) * (n - 1) ** (n - k)
        atoms = [[_pair_atoms(n, x, y, a, b, range(k)) for a in range(n) for b in range(n)]
                 for x, y in pairs]
        for key in CENSUS_KEYS:
            counts[key] += sum(
                sign * diagonals * math.prod(sum(v & mask == mask for v in p) for p in atoms)
                for sign, ks, mask in terms[key] if k in ks
            )
    return counts
