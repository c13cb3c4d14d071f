import re

import pytest

import tables
from binsys import (
    BadShape,
    Digraph,
    NotOP,
    SimpleGraph,
    all_graphs,
    from_graph,
    groupoid,
    is_locally_zero,
    left_zero,
    right_zero,
    to_digraph,
    to_graph,
)


class TestSimpleGraph:
    def test_edge_normalization(self):
        g = SimpleGraph(3, [(2, 0), (1, 0)])
        assert g.edges == frozenset({(0, 1), (0, 2)})

    def test_duplicate_edges_collapse(self):
        g = SimpleGraph(3, [(0, 1), (1, 0)])
        assert g.edges == frozenset({(0, 1)})

    def test_loop_rejected(self):
        with pytest.raises(BadShape):
            SimpleGraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(BadShape):
            SimpleGraph(3, [(0, 3)])

    @pytest.mark.parametrize("kind", [SimpleGraph, Digraph])
    @pytest.mark.parametrize("order", [0, -1, 2.5, "3"])
    def test_bad_order_rejected(self, kind, order):
        match = "must be >= 1" if isinstance(order, int) else "must be an integer"
        with pytest.raises(BadShape, match=f"order {match}"):
            kind(order, frozenset())

    @pytest.mark.parametrize("kind,noun", [(SimpleGraph, "edge"), (Digraph, "arc")])
    @pytest.mark.parametrize("pair", [(0.5, 1), (0, "1"), (0, 1, 2), (1,), 1])
    def test_bad_pair_rejected(self, kind, noun, pair):
        # named in a BadShape, never a bare TypeError or ValueError
        with pytest.raises(BadShape, match=re.escape(f"{noun} {pair!r} is not a pair")):
            kind(3, frozenset({pair}))

    @pytest.mark.parametrize("kind", [SimpleGraph, Digraph])
    def test_bool_order_and_vertices_become_ints(self, kind):
        one = kind(True, frozenset())
        assert type(one.order) is int and one.order == 1
        g = kind(2, frozenset({(True, False)}))
        pairs = g.edges if kind is SimpleGraph else g.arcs
        assert pairs == {(0, 1) if kind is SimpleGraph else (1, 0)}
        assert all(type(v) is int for p in pairs for v in p)

    def test_digraph_keeps_direction(self):
        d = Digraph(3, [(2, 0), (0, 2)])
        assert set(d.arcs) == {(2, 0), (0, 2)}


class TestToGraph:
    def test_star_table(self):
        assert sorted(to_graph(groupoid(tables.STAR4)).edges) == tables.STAR4_EDGES

    def test_loc6_family(self):
        assert sorted(to_graph(groupoid(tables.LOC6)).edges) == tables.LOC6_EDGES
        full = {(i, j) for i in range(6) for j in range(i + 1, 6)}
        expected_o = sorted(full - set(tables.LOC6_O_NONEDGES))
        assert sorted(to_graph(groupoid(tables.LOC6_O)).edges) == expected_o
        assert sorted(to_graph(groupoid(tables.LOC6_J)).edges) == tables.LOC6_J_EDGES

    def test_left_zero_gives_complete_graph(self):
        g = to_graph(left_zero(4))
        assert len(g.edges) == 6

    def test_right_zero_gives_edgeless_graph(self):
        assert not to_graph(right_zero(4)).edges

    def test_total_on_arbitrary_tables(self):
        # defined even off the locally-zero tables
        g = to_graph(groupoid(tables.D5))
        assert g.order == 5


class TestFromGraph:
    def test_star(self):
        g = from_graph(SimpleGraph(4, tables.STAR4_EDGES))
        assert [list(r) for r in g.table] == tables.STAR4

    def test_always_locally_zero(self):
        for graph in all_graphs(4):
            assert is_locally_zero(from_graph(graph))

    def test_round_trip_small(self):
        for n in (1, 2, 3, 4):
            for graph in all_graphs(n):
                assert to_graph(from_graph(graph)) == graph

    def test_edgeless_gives_right_zero_pairs(self):
        g = from_graph(SimpleGraph(3, []))
        assert g == right_zero(3)

    def test_complete_gives_left_zero(self):
        g = from_graph(SimpleGraph(3, [(0, 1), (0, 2), (1, 2)]))
        assert g == left_zero(3)


class TestAllGraphs:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)])
    def test_counts(self, n, count):
        assert len(list(all_graphs(n))) == count

    def test_distinct(self):
        graphs = list(all_graphs(4))
        assert len(set(graphs)) == len(graphs)


class TestToDigraph:
    def test_requires_orientation(self):
        with pytest.raises(NotOP):
            to_digraph(groupoid(tables.BCK3))

    def test_top3_arcs(self):
        d = to_digraph(groupoid(tables.TOP3))
        assert sorted(d.arcs) == [(1, 0), (2, 0)]

    def test_left_zero_full_tournament_both_ways(self):
        d = to_digraph(left_zero(3))
        assert len(d.arcs) == 6

    def test_right_zero_no_arcs(self):
        assert not to_digraph(right_zero(3)).arcs

    def test_twisted_tables_yield_antisymmetric_arcs(self):
        # x∘y = x and y∘x = y never coexist with x∘y = x ⇒ y∘x = x,
        # so no arc appears in both directions
        d = to_digraph(groupoid(tables.TOP3))
        arcs = set(d.arcs)
        assert not any((y, x) in arcs for (x, y) in arcs)
