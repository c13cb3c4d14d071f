"""Text formats: the groupoid file and a small DOT subset.

Groupoid file: '#' comments, an ``elements:`` line naming the elements in
index order, an optional ``zero:`` line, then ``table:`` followed by n
rows of n element names (row = left operand):

    # an order-2 example
    elements: a b
    zero: a
    table:
    a a
    b a

The DOT subset covers plain undirected/directed graphs with standalone
node statements and edge statements, no attributes: vertices keep their
order of first appearance.
"""

from __future__ import annotations

import re

from .core import Groupoid
from .errors import ParseError
from .graphs import Digraph, SimpleGraph


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_groupoid(text: str) -> Groupoid:
    """Read a groupoid file; labels and zero are preserved."""
    lines = [_strip_comment(raw).strip() for raw in text.splitlines()]
    lines = [ln for ln in lines if ln]
    labels = None
    zero_label = None
    rows = []
    in_table = False
    for ln in lines:
        if in_table:
            rows.append(ln.split())
            continue
        key, _, rest = ln.partition(":")
        key = key.strip().lower()
        if key == "elements":
            if labels is not None:
                raise ParseError("duplicate elements: line")
            labels = tuple(rest.split())
        elif key == "zero":
            if zero_label is not None:
                raise ParseError("duplicate zero: line")
            zero_label = rest.strip()
            if not zero_label:
                raise ParseError("empty zero: line")
        elif key == "table":
            if rest.strip():
                raise ParseError("table: line takes no inline value")
            in_table = True
        else:
            raise ParseError(f"unexpected line {ln!r}")
    if labels is None:
        raise ParseError("missing elements: line")
    if not in_table:
        raise ParseError("missing table: section")
    index = {name: i for i, name in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError("duplicate element names")
    if len(rows) != len(labels):
        raise ParseError(f"expected {len(labels)} table rows, found {len(rows)}")
    table = []
    for rownum, row in enumerate(rows):
        if len(row) != len(labels):
            raise ParseError(
                f"table row {rownum + 1} has {len(row)} entries, expected {len(labels)}"
            )
        try:
            table.append(tuple(index[name] for name in row))
        except KeyError as exc:
            raise ParseError(
                f"table row {rownum + 1} uses undeclared element {exc.args[0]!r}"
            ) from None
    zero = None
    if zero_label is not None:
        if zero_label not in index:
            raise ParseError(f"zero {zero_label!r} is not a declared element")
        zero = index[zero_label]
    return Groupoid(tuple(table), labels=labels, zero=zero)


def serialize_groupoid(g: Groupoid) -> str:
    """Inverse of parse_groupoid (indices name unlabeled elements)."""
    names = [g.label_of(i) for i in range(g.order)]
    out = ["elements: " + " ".join(names)]
    if g.zero is not None:
        out.append("zero: " + names[g.zero])
    out.append("table:")
    for row in g.table:
        out.append(" ".join(names[v] for v in row))
    return "\n".join(out) + "\n"


# --- DOT subset ---

_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$|[0-9]+$")
# Graphviz reads these, in any letter case, as keywords unless quoted
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_name(name: str) -> str:
    if _BARE_ID.match(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(keyword: str, op: str, order: int, pairs, labels) -> str:
    names = list(labels) if labels else [str(i) for i in range(order)]
    out = [keyword + " {"]
    for name in names:
        out.append(f"  {_dot_name(name)};")
    for x, y in sorted(pairs):
        out.append(f"  {_dot_name(names[x])} {op} {_dot_name(names[y])};")
    out.append("}")
    return "\n".join(out) + "\n"


def graph_to_dot(graph: SimpleGraph, labels=None) -> str:
    return _to_dot("graph", "--", graph.order, graph.edges, labels)


def digraph_to_dot(digraph: Digraph, labels=None) -> str:
    return _to_dot("digraph", "->", digraph.order, digraph.arcs, labels)


# whitespace and //, # and /* */ comments, skipped between tokens (never
# inside a quoted ID); then a token, or the end of the text.  A bare ID
# stops before an edge operator, so that a--b is an edge.  A quoted ID keeps
# its quotes, so that "--" or "}" is never read as punctuation.
_DOT_TOKEN = re.compile(
    r'(?:\s|//[^\n]*|#[^\n]*|/\*(?s:.*?)\*/)*'
    r'(?:(--|->|[{};,=])|("(?:[^"\\]|\\.)*")|((?:(?!//|/\*|--|->)[^\s{};,=\[\]"#])+)|(\[)|\Z)'
)


def _dot_tokens(text: str):
    pos = 0
    while True:
        m = _DOT_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad DOT syntax near {text[pos:pos + 20]!r}")
        if m.group(4):
            raise ParseError("DOT attributes are not supported")
        if m.lastindex is None:
            return
        yield m.group(m.lastindex)
        pos = m.end()


def parse_dot(text: str):
    """Read an undirected DOT graph.

    Returns (SimpleGraph, vertex names in first-appearance order).
    """
    tokens = list(_dot_tokens(text))
    pos = 0
    if pos < len(tokens) and tokens[pos].lower() == "strict":
        pos += 1
    if pos >= len(tokens) or tokens[pos].lower() != "graph":
        if pos < len(tokens) and tokens[pos].lower() == "digraph":
            raise ParseError("expected an undirected graph, found digraph")
        raise ParseError("expected 'graph' keyword")
    pos += 1
    if pos < len(tokens) and tokens[pos] != "{":
        pos += 1  # optional graph name
    if pos >= len(tokens) or tokens[pos] != "{":
        raise ParseError("expected '{'")
    pos += 1
    names: list[str] = []
    index: dict[str, int] = {}

    def vertex(name: str) -> int:
        if name in ("{", "}", ";", ",", "--", "->", "=") or name.lower() in _DOT_KEYWORDS:
            raise ParseError(f"expected a vertex name, found {name!r}")
        if name[0] == '"':
            name = re.sub(r'\\(.)', r'\1', name[1:-1])
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    edges = set()
    while pos < len(tokens) and tokens[pos] != "}":
        if tokens[pos] == ";":
            pos += 1
            continue
        chain = [vertex(tokens[pos])]
        pos += 1
        while pos < len(tokens) and tokens[pos] in ("--", "->"):
            if tokens[pos] == "->":
                raise ParseError("directed edge in an undirected graph")
            pos += 1
            if pos >= len(tokens):
                raise ParseError("dangling edge operator")
            chain.append(vertex(tokens[pos]))
            pos += 1
        for a, b in zip(chain, chain[1:]):
            if a == b:
                raise ParseError(f"loop at vertex {names[a]!r}")
            edges.add((min(a, b), max(a, b)))
    if pos >= len(tokens):
        raise ParseError("missing closing '}'")
    if pos != len(tokens) - 1:
        raise ParseError("trailing content after '}'")
    if not names:
        raise ParseError("graph has no vertices")
    return SimpleGraph(len(names), frozenset(edges)), tuple(names)
