"""Finite binary systems as square Cayley tables.

A groupoid here is a set {0, .., n-1} with one total binary operation,
stored row-major: ``table[x][y]`` is x∘y (row = left operand).  Element
labels and a distinguished "zero" element are presentation metadata: two
groupoids are equal exactly when their tables are equal, regardless of
labels or zero.

``Groupoid`` is a plain class with fixed fields, and every report record
of the package is a named tuple: no module imports ``dataclasses``, which
would load ``inspect`` at every command's start.

The package's one compiler, ``_compiled``, lives here, with ``_fill``, the
one template language in which ``_flag`` declares the structural flags and
``semigroup._cellwise`` the maps.
"""

from __future__ import annotations

__all__ = [
    "PREDICATES", "DiagonalProfile", "Groupoid", "diagonal_profile", "groupoid",
    "has_orientation", "has_twisted_orientation", "is_abelian", "is_bi_diagonal",
    "is_idempotent", "is_locally_zero", "is_semi_neutral", "is_strong", "left_zero",
    "predicate_vector", "right_zero", "semi_neutral_groupoid",
]

from collections import namedtuple
from functools import cache
from itertools import chain, combinations
from operator import index as as_index

from .errors import BadLabels, BadShape, BadZero, ClosureViolation, MissingZero, PreconditionError

Table = tuple[tuple[int, ...], ...]


def _freeze_table(rows) -> Table:
    rows = tuple(map(tuple, rows))
    table = tuple(tuple(map(int, row)) for row in rows)
    if rows != table:
        # int() reads "1" and 1.0 exactly but truncates 1.7: name a lossy cell
        for x, (row, frozen) in enumerate(zip(rows, table)):
            for y, (v, i) in enumerate(zip(row, frozen)):
                if i != v and not isinstance(v, str):
                    raise ClosureViolation(f"cell ({x},{y}) holds {v!r}, not an integer")
    return table


def _zero_index(zero, order: int) -> int:
    """``zero`` as an element index of an order-n table, else BadZero."""
    try:
        if 0 <= as_index(zero) < order:
            return as_index(zero)
    except TypeError:
        pass
    raise BadZero(f"zero={zero} is not an element index")


def _positive(value, what="order", least=1, error=PreconditionError) -> int:
    """An order or a count as an int >= least, else ``error``."""
    try:
        count = as_index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if count < least:
        raise error(f"{what} must be >= {least}, got {count}")
    return count


def _is_frozen(table) -> bool:
    """Already a tuple of tuple rows of exact ints, as _freeze_table makes."""
    return (
        type(table) is tuple
        and set(map(type, table)) <= {tuple}
        and set(map(type, chain.from_iterable(table))) <= {int}
    )


@cache
def _elements(order: int) -> frozenset:
    return frozenset(range(order))


class Groupoid:
    """An order-n magma: validated n×n table over 0..n-1.

    ``labels`` (optional) names the elements in index order; ``zero``
    (optional) is the index of a distinguished element used by the
    logic-algebra axioms.  Neither participates in equality or hashing.
    Instances are immutable: assigning or deleting a field raises
    AttributeError.
    """

    def __init__(self, table: Table, labels: tuple[str, ...] | None = None,
                 zero: int | None = None):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "zero", zero)
        self.__post_init__()

    def __post_init__(self):
        """Validate and normalize the fields; ``__init__`` calls it last."""
        table = self.table
        if not _is_frozen(table):
            table = _freeze_table(table)
            object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise BadShape("empty table")
        if set(map(len, table)) != {n}:
            raise BadShape(f"table is not {n}x{n}")
        if not set(chain.from_iterable(table)) <= _elements(n):
            # name the first bad cell in row-major order
            for x, row in enumerate(table):
                for y, v in enumerate(row):
                    if not 0 <= v < n:
                        raise ClosureViolation(
                            f"cell ({x},{y}) holds {v}, outside 0..{n - 1}"
                        )
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != n:
                raise BadLabels(f"{len(labels)} labels for {n} elements")
            if len(set(labels)) != n:
                raise BadLabels("duplicate labels")
            # '#' starts a comment in the groupoid file
            if any((not s) or s.split() != [s] or "#" in s for s in labels):
                raise BadLabels("labels must be non-empty, without whitespace or '#'")
        if self.zero is not None:
            object.__setattr__(self, "zero", _zero_index(self.zero, n))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash((self.table,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def order(self) -> int:
        return len(self.table)

    def __call__(self, x: int, y: int) -> int:
        return self.table[x][y]

    def label_of(self, index: int) -> str:
        """The display name for an element (its index as text if unlabeled)."""
        if self.labels is not None:
            return self.labels[index]
        return str(index)

    def with_metadata(self, labels=None, zero=None) -> "Groupoid":
        """Same table, different presentation metadata."""
        return Groupoid(self.table, labels=labels, zero=zero)

    def __repr__(self):
        rows = ",".join("".join(str(v) for v in row) for row in self.table)
        extra = ""
        if self.labels is not None:
            extra += f", labels={'|'.join(self.labels)}"
        if self.zero is not None:
            extra += f", zero={self.zero}"
        return f"Groupoid({rows}{extra})"


def groupoid(rows, labels=None, zero=None) -> Groupoid:
    """Build a groupoid from any nested iterable of ints.

    ``zero`` may be an element index or (when labels are given) a label.
    """
    table = _freeze_table(rows)
    if labels is not None:
        labels = tuple(str(s) for s in labels)
    if isinstance(zero, str):
        if labels is None or zero not in labels:
            raise BadZero(f"zero label {zero!r} is not an element label")
        zero = labels.index(zero)
    return Groupoid(table, labels=labels, zero=zero)


@cache
def _left_zero_table(order: int) -> Table:
    return tuple((x,) * order for x in range(order))


def left_zero(order: int, labels=None, zero=None) -> Groupoid:
    """The table with x∘y = x everywhere."""
    order = _positive(order, error=BadShape)
    return Groupoid(_left_zero_table(order), labels=labels, zero=zero)


def _right_zero_table(order: int) -> Table:
    return (tuple(range(order)),) * order


def right_zero(order: int, labels=None, zero=None) -> Groupoid:
    """The table with x∘y = y everywhere."""
    order = _positive(order, error=BadShape)
    return Groupoid(_right_zero_table(order), labels=labels, zero=zero)


@cache
def _semi_neutral_table(order: int, zero: int) -> Table:
    return tuple(
        tuple(zero if x == y else x for y in range(order))
        for x in range(order)
    )


def semi_neutral_groupoid(order: int, zero: int = 0, labels=None) -> Groupoid:
    """The unique semi-neutral table for a given zero: x∘x = zero, x∘y = x."""
    order = _positive(order, error=BadShape)
    zero = _zero_index(zero, order)
    return Groupoid(_semi_neutral_table(order, zero), labels=labels, zero=zero)


# --- diagonals ---

class DiagonalProfile(namedtuple("DiagonalProfile", "main anti reverse skew")):
    """The four reading orders of a table's two diagonals.

    main   : (x,x) cells, top-left to bottom-right
    anti   : (x, n-1-x) cells, top-right row order
    reverse: main diagonal read backwards
    skew   : anti diagonal read backwards
    """

    __slots__ = ()


def diagonal_profile(g: Groupoid) -> DiagonalProfile:
    n = g.order
    main = tuple(g.table[x][x] for x in range(n))
    anti = tuple(g.table[x][n - 1 - x] for x in range(n))
    return DiagonalProfile(main=main, anti=anti, reverse=main[::-1], skew=anti[::-1])


# --- the one compiler and template language, and the predicates built with them ---

def _compiled(name: str, params: str, head: list, value: str):
    """``def <name>(<params>)`` that runs the lines ``head`` and returns
    ``value``, compiled from the file ``<<name>>`` into globals that name
    this module, so that its ``__module__`` is ``binsys.core``."""
    source = "\n    ".join([f"def {name}({params}):", *head, f"return {value}"])
    eval(compile(source, f"<{name}>", "exec"), namespace := {"__name__": __name__})
    return namespace[name]


def _fill(template: str, x, y=None, cell="r{}[{}]") -> str:
    """``template`` on the swap orbit x < y: ``{x}``, ``{y}`` are the elements and
    ``{d}`` = x∘x, ``{a}`` = x∘y, ``{b}`` = y∘x the cells, read as ``cell`` gives."""
    return template.format(x=x, y=y, d=cell.format(x, x), a=cell.format(x, y), b=cell.format(y, x))


def _flag(name: str, diagonal="", orbit="", anti=False):
    """The raw-table predicate ``name``: ``diagonal`` holds at each element
    x and ``orbit`` on each swap orbit x < y (with ``anti`` only where
    x + y = n - 1), ``_fill`` templates whose ``{x}``, ``{y}`` parenthesize
    any ``or``; the census reads them off the flag.  The first call at an
    order runs the loop form ``.loop()``; the second compiles ``.at(n)``,
    named ``<name>_<n>``, which unpacks the rows once and returns one
    short-circuit ``and`` chain of the templates."""

    @cache
    def loop():
        each = "for x, rx in enumerate(t)"
        pairs = f"{each} for y, ry in enumerate(t) if x < y" + " == len(t) - 1 - x" * anti
        tests = [f"all({_fill(diagonal, 'x')} {each})"] if diagonal else []
        tests += [f"all({_fill(orbit, 'x', 'y')} {pairs})"] if orbit else []
        # a template may read row 0 by name
        return _compiled(name, "t", ["r0 = t[0]"], " and ".join(tests) or "True")

    @cache
    def at(n):
        pairs = ((x, n - 1 - x) for x in range(n // 2)) if anti else combinations(range(n), 2)
        tests = [_fill(diagonal, x) for x in range(n) if diagonal]
        tests += [_fill(orbit, x, y) for x, y in pairs if orbit]
        rows = "".join(f"r{x}, " for x in range(n))
        return _compiled(f"{name}_{n}", "t", [f"{rows}= t"], " and ".join(tests) or "True")

    def first(t):
        forms[len(t)] = second
        return loop()(t)

    def second(t):
        forms[len(t)] = form = at(len(t))
        return form(t)

    forms = {}  # order -> what the next call at that order runs
    flag = lambda t: forms.get(len(t), first)(t)
    flag.__name__, flag.loop, flag.at = name, loop, at
    flag.diagonal, flag.orbit, flag.anti = diagonal, orbit, anti
    return flag


# the public predicates below, and so PREDICATES and predicate_vector, call these
_idempotent = _flag("_idempotent", diagonal="{d} == {x}")
_strong = _flag("_strong", orbit="{a} != {b}")
_orientation = _flag("_orientation", diagonal="{d} == {x}",
                     orbit="{a} in ({x}, {y}) and {b} in ({x}, {y})")
# oriented, and strong: each pair x < y is one of the two projection tables
_locally_zero = _flag("_locally_zero", diagonal="{d} == {x}",
                      orbit="{a} in ({x}, {y}) and {b} in ({x}, {y}) and {a} != {b}")
_twisted_orientation = _flag("_twisted_orientation",
                             orbit="({a} != {x} or {b} == {x}) and ({b} != {y} or {a} == {y})")
_bi_diagonal = _flag("_bi_diagonal", orbit="{a} == {b}", anti=True)
_abelian = _flag("_abelian", orbit="{a} == {b}")


def is_idempotent(g: Groupoid) -> bool:
    """x∘x = x for every element."""
    return _idempotent(g.table)


def is_strong(g: Groupoid) -> bool:
    """Distinct elements never commute: x ≠ y implies x∘y ≠ y∘x."""
    return _strong(g.table)


def is_locally_zero(g: Groupoid) -> bool:
    """Every element is idempotent and every 2-element restriction is a
    projection table (one of the two orders)."""
    return _locally_zero(g.table)


def has_orientation(g: Groupoid) -> bool:
    """Every product lands on one of its operands (and so x∘x = x)."""
    return _orientation(g.table)


def has_twisted_orientation(g: Groupoid) -> bool:
    """Whenever the left operand wins one way it also wins the other:
    x∘y = x implies y∘x = x."""
    return _twisted_orientation(g.table)


def is_bi_diagonal(g: Groupoid) -> bool:
    """The anti-diagonal cells are symmetric: t[i][j] = t[j][i] when
    i + j = n - 1."""
    return _bi_diagonal(g.table)


def is_abelian(g: Groupoid) -> bool:
    return _abelian(g.table)


def is_semi_neutral(g: Groupoid) -> bool:
    """Diagonal pinned to the distinguished element, left projection
    elsewhere: x∘x = 0 and x∘y = x for x ≠ y.  Needs a zero."""
    if g.zero is None:
        raise MissingZero("semi-neutral is defined relative to a zero element")
    return g.table == _semi_neutral_table(g.order, g.zero)


PREDICATES = {
    "idempotent": is_idempotent,
    "strong": is_strong,
    "locally_zero": is_locally_zero,
    "orientation": has_orientation,
    "twisted_orientation": has_twisted_orientation,
    "bi_diagonal": is_bi_diagonal,
    "abelian": is_abelian,
    "semi_neutral": is_semi_neutral,
}


def predicate_vector(g: Groupoid) -> dict:
    """All predicates at once; semi_neutral is None when no zero is set."""
    return {
        name: None if name == "semi_neutral" and g.zero is None else fn(g)
        for name, fn in PREDICATES.items()
    }
