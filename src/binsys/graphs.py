"""Moving between tables and (di)graphs on the same vertex set.

An edge {x, y} stands for a pair where each element wins its own row
(t[x][y] = x and t[y][x] = y); a non-edge is encoded the opposite way.
Tables built from graphs are always locally zero, and on that class the
two translations are mutually inverse.

``SimpleGraph`` and ``Digraph`` are named tuples whose constructors, and
so ``_make`` and ``_replace``, check and normalize the vertex pairs.
"""

from __future__ import annotations

__all__ = ["Digraph", "SimpleGraph", "all_graphs", "from_graph", "to_digraph", "to_graph"]

from collections import namedtuple
from itertools import combinations
from operator import index

from .core import Groupoid, Table, _positive, has_orientation
from .errors import BadShape, NotOP


def _vertex_pairs(order, pairs, noun) -> set:
    """The pairs as (x, y) tuples of distinct vertex indices below order;
    anything else raises BadShape naming the bad ``noun`` ("edge"/"arc")."""
    out = set()
    for p in pairs:
        try:
            x, y = map(index, p)
        except (TypeError, ValueError):
            raise BadShape(f"{noun} {p!r} is not a pair of vertex indices") from None
        if x == y:
            raise BadShape(f"loop at vertex {x}")
        if not (0 <= x < order and 0 <= y < order):
            raise BadShape(f"{noun} {p} outside 0..{order - 1}")
        out.add((x, y))
    return out


class SimpleGraph(namedtuple("SimpleGraph", "order edges")):
    """Undirected loopless graph; edges stored as sorted index pairs."""

    __slots__ = ()

    def __new__(cls, order: int, edges):
        order = _positive(order, error=BadShape)
        edges = _vertex_pairs(order, edges, "edge")
        return super().__new__(cls, order, frozenset((min(e), max(e)) for e in edges))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Digraph(namedtuple("Digraph", "order arcs")):
    """Directed loopless graph; arcs are ordered index pairs."""

    __slots__ = ()

    def __new__(cls, order: int, arcs):
        order = _positive(order, error=BadShape)
        return super().__new__(cls, order, frozenset(_vertex_pairs(order, arcs, "arc")))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def to_graph(g: Groupoid) -> SimpleGraph:
    """Edge {x,y} wherever the pair restricts to the left projection."""
    t = g.table
    n = g.order
    edges = {
        (x, y)
        for x, y in combinations(range(n), 2)
        if t[x][y] == x and t[y][x] == y
    }
    return SimpleGraph(n, frozenset(edges))


def _graph_table(n: int, edges) -> Table:
    """The raw table of ``from_graph`` for the given edge pairs."""
    table = [list(range(n)) for _ in range(n)]
    for x, y in edges:
        table[x][y] = x
        table[y][x] = y
    return tuple(map(tuple, table))


def from_graph(graph: SimpleGraph) -> Groupoid:
    """The locally-zero table encoding a graph (idempotent diagonal,
    edges as left-projection pairs, non-edges as right-projection pairs)."""
    return Groupoid(_graph_table(graph.order, graph.edges))


def to_digraph(g: Groupoid) -> Digraph:
    """Arc (x, y) wherever the left operand wins; needs every product to
    land on an operand."""
    if not has_orientation(g):
        raise NotOP("digraph translation needs x∘y ∈ {x, y} everywhere")
    t = g.table
    n = g.order
    arcs = {
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and t[x][y] == x
    }
    return Digraph(n, frozenset(arcs))


def all_graphs(order: int):
    """Every simple graph on the given vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(order), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        yield SimpleGraph(order, edges)
