"""Finite binary systems as square Cayley tables.

A groupoid here is a set {0, .., n-1} with one total binary operation,
stored row-major: ``table[x][y]`` is x∘y (row = left operand).  Element
labels and a distinguished "zero" element are presentation metadata: two
groupoids are equal exactly when their tables are equal, regardless of
labels or zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import eq, index as as_index

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


@dataclass(frozen=True)
class Groupoid:
    """An order-n magma: validated n×n table over 0..n-1.

    ``labels`` (optional) names the elements in index order; ``zero``
    (optional) is the index of a distinguished element used by the
    logic-algebra axioms.  Neither participates in equality or hashing.
    """

    table: Table
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    zero: int | None = field(default=None, compare=False)

    def __post_init__(self):
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

@dataclass(frozen=True)
class DiagonalProfile:
    """The four reading orders of a table's two diagonals.

    main   : (x,x) cells, top-left to bottom-right
    anti   : (x, n-1-x) cells, top-right row order
    reverse: main diagonal read backwards
    skew   : anti diagonal read backwards
    """

    main: tuple[int, ...]
    anti: tuple[int, ...]
    reverse: tuple[int, ...]
    skew: tuple[int, ...]


def diagonal_profile(g: Groupoid) -> DiagonalProfile:
    n = g.order
    main = tuple(g.table[x][x] for x in range(n))
    anti = tuple(g.table[x][n - 1 - x] for x in range(n))
    return DiagonalProfile(main=main, anti=anti, reverse=main[::-1], skew=anti[::-1])


# --- predicates ---
#
# Each structural predicate is computed once, on the raw table; the public
# functions, and so PREDICATES and predicate_vector, read g.table and call it.

def _idempotent(t: Table) -> bool:
    return all(row[x] == x for x, row in enumerate(t))


def _strong(t: Table) -> bool:
    # only the n diagonal cells may equal their transposed cell
    return sum(map(eq, chain.from_iterable(t), chain.from_iterable(zip(*t)))) == len(t)


def _orientation(t: Table) -> bool:
    return all(v == x or v == y for x, row in enumerate(t) for y, v in enumerate(row))


def _locally_zero(t: Table) -> bool:
    # an idempotent diagonal, and each pair x < y is a projection table
    n = len(t)
    return _idempotent(t) and all(
        (t[x][y], t[y][x]) in ((x, y), (y, x)) for x in range(n) for y in range(x + 1, n)
    )


def _twisted_orientation(t: Table) -> bool:
    n = len(t)
    return not any(t[x][y] == x and t[y][x] != x for x in range(n) for y in range(n))


def _bi_diagonal(t: Table) -> bool:
    n = len(t)
    return all(t[i][n - 1 - i] == t[n - 1 - i][i] for i in range(n // 2))


def _abelian(t: Table) -> bool:
    return t == tuple(zip(*t))


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
