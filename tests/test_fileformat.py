import pytest

import tables
from binsys import (
    ParseError,
    SimpleGraph,
    Digraph,
    digraph_to_dot,
    graph_to_dot,
    groupoid,
    parse_dot,
    parse_groupoid,
    serialize_groupoid,
)


class TestParseGroupoid:
    def test_labeled_with_zero(self, data_dir):
        g = parse_groupoid((data_dir / "bck3.gpd").read_text())
        assert [list(r) for r in g.table] == tables.BCK3
        assert g.zero == 0
        assert g.labels == ("0", "1", "2")

    def test_letter_labels(self, data_dir):
        g = parse_groupoid((data_dir / "star4.gpd").read_text())
        assert [list(r) for r in g.table] == tables.STAR4
        assert g.labels == ("a", "b", "c", "d")
        assert g.zero is None

    def test_comments_stripped_anywhere(self):
        text = (
            "# heading\n"
            "elements: a b  # trailing\n"
            "table:\n"
            "a b # row comment\n"
            "a b\n"
        )
        g = parse_groupoid(text)
        assert g(0, 1) == 1

    def test_zero_line(self):
        g = parse_groupoid("elements: p q\nzero: q\ntable:\np q\np q\n")
        assert g.zero == 1

    @pytest.mark.parametrize(
        "text",
        [
            "table:\n0\n",                                   # no elements
            "elements: a b\n",                               # no table
            "elements: a b\ntable:\na b\n",                  # short table
            "elements: a b\ntable:\na b\na b\na b\n",        # long table
            "elements: a b\ntable:\na c\nb a\n",             # undeclared name
            "elements: a a\ntable:\na a\na a\n",             # duplicate element
            "elements: a b\nzero: c\ntable:\na b\na b\n",    # unknown zero
            "elements: a b\nzero: a\nzero: b\ntable:\na b\na b\n",
            "elements: a b\ntable:\na\nb a\n",               # ragged row
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_groupoid(text)


class TestSerialize:
    def test_round_trip_labeled(self):
        g = groupoid(tables.BCK3, labels=["x", "y", "z"], zero="x")
        again = parse_groupoid(serialize_groupoid(g))
        assert again == g
        assert again.labels == g.labels
        assert again.zero == g.zero

    def test_round_trip_unlabeled(self):
        g = groupoid(tables.D5)
        again = parse_groupoid(serialize_groupoid(g))
        assert again == g
        assert again.labels == ("0", "1", "2", "3", "4")

    def test_exact_output(self):
        g = groupoid([[0, 0], [1, 1]], labels=["e", "n"], zero="e")
        assert serialize_groupoid(g) == (
            "elements: e n\nzero: e\ntable:\ne e\nn n\n"
        )


class TestDotOutput:
    def test_graph_with_isolated_vertex(self):
        out = graph_to_dot(SimpleGraph(3, [(0, 1)]), labels=("a", "b", "c"))
        assert out == "graph {\n  a;\n  b;\n  c;\n  a -- b;\n}\n"

    def test_quoting(self):
        out = graph_to_dot(SimpleGraph(2, [(0, 1)]), labels=("n-1", "ok"))
        assert '"n-1"' in out

    def test_digraph(self):
        out = digraph_to_dot(Digraph(2, [(1, 0)]), labels=("a", "b"))
        assert "b -> a;" in out
        assert out.startswith("digraph {")


class TestParseDot:
    def test_basic(self, data_dir):
        graph, names = parse_dot((data_dir / "star.dot").read_text())
        assert names == ("a", "b", "c", "d")
        assert sorted(graph.edges) == [(0, 1), (1, 2), (1, 3)]

    def test_chained_edges(self):
        graph, names = parse_dot("graph { a -- b -- c; }")
        assert sorted(graph.edges) == [(0, 1), (1, 2)]

    def test_standalone_nodes(self):
        graph, names = parse_dot("graph { a; b; }")
        assert not graph.edges
        assert names == ("a", "b")

    def test_named_and_strict(self):
        graph, _ = parse_dot("strict graph stars { a -- b; }")
        assert graph.edges == frozenset({(0, 1)})
        # a quoted keyword is a graph name, as in Graphviz
        assert parse_dot('graph "node" { a; }') == (SimpleGraph(1, []), ("a",))

    def test_quoted_names(self):
        _, names = parse_dot('graph { "n 1" -- b; }')
        assert names == ("n 1", "b")

    def test_comment_styles(self):
        text = "// one\ngraph {\n# two\n a -- b; /* three */ }\n"
        graph, _ = parse_dot(text)
        assert graph.edges == frozenset({(0, 1)})

    def test_round_trip(self):
        g = SimpleGraph(4, tables.STAR4_EDGES)
        again, names = parse_dot(graph_to_dot(g, labels=("a", "b", "c", "d")))
        assert again == g
        assert names == ("a", "b", "c", "d")

    def test_comment_markers_in_quoted_names(self):
        # comments are skipped between tokens, never inside a quoted name
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        labels = ("a//b", "c#1", "/*d", "e*/")
        again, names = parse_dot(graph_to_dot(g, labels=labels))
        assert again == g
        assert names == labels
        graph, names = parse_dot('graph { "x#1" -- y; } // done\n# end\n/* end */\n')
        assert graph.edges == frozenset({(0, 1)})
        assert names == ("x#1", "y")

    @pytest.mark.parametrize(
        "text, edges, names",
        [
            ("graph { a--b; }", [(0, 1)], ("a", "b")),
            ("graph { 1--2--3 }", [(0, 1), (1, 2)], ("1", "2", "3")),
            ("graph { x-1--y }", [(0, 1)], ("x-1", "y")),
        ],
    )
    def test_unspaced_edges(self, text, edges, names):
        # an edge operator ends a bare ID, as in DOT
        graph, got = parse_dot(text)
        assert sorted(graph.edges) == edges
        assert got == names

    def test_unspaced_directed_edge(self):
        with pytest.raises(ParseError, match="directed edge"):
            parse_dot("graph { a->b }")

    def test_edge_operators_in_quoted_names(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        labels = ("a--b", "c->d", "e")
        again, names = parse_dot(graph_to_dot(g, labels=labels))
        assert again == g
        assert names == labels

    def test_punctuation_as_quoted_names(self):
        # a quoted ID is a name even when it spells an operator or a brace
        g = SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)])
        labels = ("--", "->", "{", "}", ";", ",", "=")
        again, names = parse_dot(graph_to_dot(g, labels=labels))
        assert again == g
        assert names == labels

    def test_keywords_are_quoted(self):
        # Graphviz reads node, edge, graph, digraph, subgraph and strict as
        # keywords in any letter case unless they are quoted
        g = SimpleGraph(2, [(0, 1)])
        out = graph_to_dot(g, labels=("node", "Edge"))
        assert out == 'graph {\n  "node";\n  "Edge";\n  "node" -- "Edge";\n}\n'
        assert parse_dot(out) == (g, ("node", "Edge"))
        out = digraph_to_dot(Digraph(5, [(0, 4)]),
                             labels=("GRAPH", "digraph", "Subgraph", "strict", "nodes"))
        assert out.splitlines()[1:] == [
            '  "GRAPH";', '  "digraph";', '  "Subgraph";', '  "strict";', "  nodes;",
            '  "GRAPH" -> nodes;', "}",
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "graph { a /* open -- b; }",    # unclosed comment
            "digraph { a -- b; }",          # wrong graph kind
            "graph { a -- a; }",            # loop
            "graph { a -- ; }",             # dangling operator
            "graph { a [color=red]; }",     # attributes unsupported
            "graph { a -- b; } trailing",   # content after the block
            "graph a -- b;",                # missing braces
            '"graph" { a; }',               # a quoted keyword is a name
            "graph { node; }",              # a bare keyword is no vertex name
            "graph { Edge -- x }",          # in any letter case
            "graph node { a; }",            # nor a graph name
            "graph Edge { a; }",
            "strict graph STRICT { a; }",
            "graph ; { a; }",               # punctuation is no name
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_dot(text)
