"""Equational axioms from the BCK/BCI family, checked by brute force.

Every axiom is a universally quantified identity (or implication) over the
groupoid's elements, most of them referencing a distinguished element 0.
``axiom_vector`` evaluates all of them; ``algebra_classes`` names the
standard axiom bundles a table satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as tuples

from .core import Groupoid, _strong, is_semi_neutral
from .errors import MissingZero


@dataclass(frozen=True)
class Axiom:
    name: str
    needs_zero: bool
    description: str
    check: callable


def _ax_b1(t, n, z):
    return all(t[x][x] == z for x in range(n))


def _ax_b2(t, n, z):
    return all(t[x][z] == x for x in range(n))


def _ax_b(t, n, z):
    return all(
        t[t[x][y]][w] == t[x][t[w][t[z][y]]]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_bg(t, n, z):
    return all(t[t[x][y]][t[z][y]] == x for x, y in tuples(range(n), repeat=2))


def _ax_bm(t, n, z):
    return all(
        t[t[w][x]][t[w][y]] == t[y][x]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_bh(t, n, z):
    return all(
        x == y
        for x, y in tuples(range(n), repeat=2)
        if t[x][y] == z and t[y][x] == z
    )


def _ax_bf(t, n, z):
    return all(t[z][t[x][y]] == t[y][x] for x, y in tuples(range(n), repeat=2))


def _ax_bn(t, n, z):
    return all(
        t[t[x][y]][w] == t[t[z][w]][t[y][x]]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_bo(t, n, z):
    return all(
        t[x][t[y][w]] == t[t[x][y]][t[z][w]]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_bp1(t, n, z):
    return all(t[x][t[x][y]] == y for x, y in tuples(range(n), repeat=2))


def _ax_bp2(t, n, z):
    return all(
        t[t[x][w]][t[y][w]] == t[x][y]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_q(t, n, z):
    return all(
        t[t[x][y]][w] == t[t[x][w]][y]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_co(t, n, z):
    return all(
        t[t[x][y]][w] == t[x][t[y][w]]
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_bz(t, n, z):
    return all(
        t[t[t[x][w]][t[y][w]]][t[x][y]] == z
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_k(t, n, z):
    return all(t[z][x] == z for x in range(n))


def _ax_i(t, n, z):
    return all(
        t[t[t[x][y]][t[x][w]]][t[w][y]] == z
        for x, y, w in tuples(range(n), repeat=3)
    )


def _ax_bi(t, n, z):
    return all(t[x][t[y][x]] == x for x, y in tuples(range(n), repeat=2))


# In the formulas below 0 is the distinguished element and ∘ the table.
AXIOMS = {
    "B1": Axiom("B1", True, "x∘x = 0", _ax_b1),
    "B2": Axiom("B2", True, "x∘0 = x", _ax_b2),
    "B": Axiom("B", True, "(x∘y)∘z = x∘(z∘(0∘y))", _ax_b),
    "BG": Axiom("BG", True, "(x∘y)∘(0∘y) = x", _ax_bg),
    "BM": Axiom("BM", False, "(z∘x)∘(z∘y) = y∘x", _ax_bm),
    "BH": Axiom("BH", True, "x∘y = 0 and y∘x = 0 imply x = y", _ax_bh),
    "BF": Axiom("BF", True, "0∘(x∘y) = y∘x", _ax_bf),
    "BN": Axiom("BN", True, "(x∘y)∘z = (0∘z)∘(y∘x)", _ax_bn),
    "BO": Axiom("BO", True, "x∘(y∘z) = (x∘y)∘(0∘z)", _ax_bo),
    "BP1": Axiom("BP1", False, "x∘(x∘y) = y", _ax_bp1),
    "BP2": Axiom("BP2", False, "(x∘z)∘(y∘z) = x∘y", _ax_bp2),
    "Q": Axiom("Q", False, "(x∘y)∘z = (x∘z)∘y", _ax_q),
    "CO": Axiom("CO", False, "(x∘y)∘z = x∘(y∘z)", _ax_co),
    "BZ": Axiom("BZ", True, "((x∘z)∘(y∘z))∘(x∘y) = 0", _ax_bz),
    "K": Axiom("K", True, "0∘x = 0", _ax_k),
    "I": Axiom("I", True, "((x∘y)∘(x∘z))∘(z∘y) = 0", _ax_i),
    "BI": Axiom("BI", False, "x∘(y∘x) = x", _ax_bi),
    "STRONG": Axiom("STRONG", False, "x ≠ y implies x∘y ≠ y∘x", lambda t, n, z: _strong(t)),
}


def axiom_holds(g: Groupoid, name: str) -> bool:
    try:
        ax = AXIOMS[name]
    except KeyError:
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
