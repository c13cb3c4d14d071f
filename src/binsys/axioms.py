"""Equational axioms from the BCK/BCI family, checked by brute force.

Every axiom is a universally quantified identity (or implication) over the
groupoid's elements, most of them referencing a distinguished element 0.
An ``Axiom`` holds it as data, ``law(t, z, *elements)`` at one tuple of
``arity`` elements; ``Axiom.check`` is the one quantifier over all tuples.
``axiom_vector`` evaluates all of them; ``algebra_classes`` names the
standard axiom bundles a table satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product as tuples, starmap

from .core import Groupoid, _strong, is_semi_neutral
from .errors import MissingZero


@dataclass(frozen=True)
class Axiom:
    name: str
    needs_zero: bool
    description: str
    arity: int
    law: callable

    def check(self, t, n, z) -> bool:
        """Whether the law holds at every ``arity``-tuple of the n elements
        of raw table t, with z the zero (None where the law needs none)."""
        return all(starmap(partial(self.law, t, z), tuples(range(n), repeat=self.arity)))


# In the descriptions 0 is the distinguished element and ∘ the table; in
# each law t is the table, z the zero, and w stands for the description's z.
AXIOMS = {ax.name: ax for ax in (
    Axiom("B1", True, "x∘x = 0", 1, lambda t, z, x: t[x][x] == z),
    Axiom("B2", True, "x∘0 = x", 1, lambda t, z, x: t[x][z] == x),
    Axiom("B", True, "(x∘y)∘z = x∘(z∘(0∘y))", 3,
          lambda t, z, x, y, w: t[t[x][y]][w] == t[x][t[w][t[z][y]]]),
    Axiom("BG", True, "(x∘y)∘(0∘y) = x", 2, lambda t, z, x, y: t[t[x][y]][t[z][y]] == x),
    Axiom("BM", False, "(z∘x)∘(z∘y) = y∘x", 3,
          lambda t, z, x, y, w: t[t[w][x]][t[w][y]] == t[y][x]),
    Axiom("BH", True, "x∘y = 0 and y∘x = 0 imply x = y", 2,
          lambda t, z, x, y: x == y or t[x][y] != z or t[y][x] != z),
    Axiom("BF", True, "0∘(x∘y) = y∘x", 2, lambda t, z, x, y: t[z][t[x][y]] == t[y][x]),
    Axiom("BN", True, "(x∘y)∘z = (0∘z)∘(y∘x)", 3,
          lambda t, z, x, y, w: t[t[x][y]][w] == t[t[z][w]][t[y][x]]),
    Axiom("BO", True, "x∘(y∘z) = (x∘y)∘(0∘z)", 3,
          lambda t, z, x, y, w: t[x][t[y][w]] == t[t[x][y]][t[z][w]]),
    Axiom("BP1", False, "x∘(x∘y) = y", 2, lambda t, z, x, y: t[x][t[x][y]] == y),
    Axiom("BP2", False, "(x∘z)∘(y∘z) = x∘y", 3,
          lambda t, z, x, y, w: t[t[x][w]][t[y][w]] == t[x][y]),
    Axiom("Q", False, "(x∘y)∘z = (x∘z)∘y", 3, lambda t, z, x, y, w: t[t[x][y]][w] == t[t[x][w]][y]),
    Axiom("CO", False, "(x∘y)∘z = x∘(y∘z)", 3,
          lambda t, z, x, y, w: t[t[x][y]][w] == t[x][t[y][w]]),
    Axiom("BZ", True, "((x∘z)∘(y∘z))∘(x∘y) = 0", 3,
          lambda t, z, x, y, w: t[t[t[x][w]][t[y][w]]][t[x][y]] == z),
    Axiom("K", True, "0∘x = 0", 1, lambda t, z, x: t[z][x] == z),
    Axiom("I", True, "((x∘y)∘(x∘z))∘(z∘y) = 0", 3,
          lambda t, z, x, y, w: t[t[t[x][y]][t[x][w]]][t[w][y]] == z),
    Axiom("BI", False, "x∘(y∘x) = x", 2, lambda t, z, x, y: t[x][t[y][x]] == x),
    # a whole-table test: its one case is the empty tuple
    Axiom("STRONG", False, "x ≠ y implies x∘y ≠ y∘x", 0, lambda t, z: _strong(t)),
)}


def axiom_holds(g: Groupoid, name: str) -> bool:
    try:
        ax = AXIOMS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown axiom {name!r}") from None
    if ax.needs_zero and g.zero is None:
        raise MissingZero(f"axiom {name} references the zero element")
    return ax.check(g.table, g.order, g.zero)


def axiom_vector(g: Groupoid) -> dict:
    """All axioms at once.  Requires a distinguished zero."""
    if g.zero is None:
        raise MissingZero("axiom vector requires a zero element")
    return {name: ax.check(g.table, g.order, g.zero) for name, ax in AXIOMS.items()}


# Named bundles of axioms.  Each entry lists the axiom names that must all
# hold; "semi-neutral-B1" also needs the semi-neutral table (algebra_classes).
ALGEBRA_CLASSES = {
    "B": ("B1", "B2", "B"),
    "BG": ("B1", "B2", "BG"),
    "BCI": ("B2", "I", "BH"),
    "BCK": ("B2", "I", "BH", "K"),
    "d": ("B1", "K", "BH"),
    "strong-d": ("B1", "K", "BH", "STRONG"),
    "BH": ("B1", "B2", "BH"),
    "BI": ("B1", "BI"),
    "Q": ("B1", "B2", "Q"),
    "strong-B1": ("B1", "STRONG"),
    "semi-neutral-B1": ("B1",),
}


def algebra_classes(g: Groupoid) -> list[str]:
    """Names of the axiom bundles g satisfies, in registry order."""
    if g.zero is None:
        raise MissingZero("algebra classes reference the zero element")
    vec = axiom_vector(g)
    out = []
    for name, needed in ALGEBRA_CLASSES.items():
        if not all(vec[ax] for ax in needed):
            continue
        if name == "semi-neutral-B1" and not is_semi_neutral(g):
            continue
        out.append(name)
    return out
