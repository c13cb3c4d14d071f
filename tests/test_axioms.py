import hashlib
import inspect
import json

import pytest

import tables
from binsys import (
    ALGEBRA_CLASSES,
    AXIOMS,
    MissingZero,
    algebra_classes,
    all_groupoids,
    axiom_holds,
    axiom_vector,
    groupoid,
    left_zero,
    random_groupoids,
)


def test_registry_size_and_order():
    assert list(AXIOMS) == [
        "B1", "B2", "B", "BG", "BM", "BH", "BF", "BN", "BO",
        "BP1", "BP2", "Q", "CO", "BZ", "K", "I", "BI", "STRONG",
    ]


def test_bundles_name_axioms_and_laws_take_their_arity():
    assert {ax for needed in ALGEBRA_CLASSES.values() for ax in needed} <= set(AXIOMS)
    for name, ax in AXIOMS.items():
        assert ax.name == name
        assert len(inspect.signature(ax.law).parameters) == ax.arity + 2


def test_vectors_and_classes_digest():
    # pins every law and bundle on tables at orders 1-6, with every zero
    groupoids = [*all_groupoids(1), *all_groupoids(2)]
    for n in range(3, 7):
        groupoids += random_groupoids(n, 300, seed=n)
    rows = [
        [axiom_vector(h), algebra_classes(h)]
        for g in groupoids for h in (g.with_metadata(zero=z) for z in range(g.order))
    ]
    assert len(rows) == 1 + 2 * 16 + 300 * (3 + 4 + 5 + 6)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == tables.AXIOM_DIGEST


def test_algebra_class_names():
    assert set(ALGEBRA_CLASSES) == {
        "B", "BG", "BCI", "BCK", "d", "strong-d", "BH", "BI", "Q",
        "strong-B1", "semi-neutral-B1",
    }


@pytest.mark.parametrize(
    "table,zero,expected",
    [
        (tables.BCI4, 0, tables.AXIOMS_BCI4),
        (tables.D5, 0, tables.AXIOMS_D5),
        (tables.BCK3, 0, tables.AXIOMS_BCK3),
        (tables.Q3, 0, tables.AXIOMS_Q3),
    ],
    ids=["bci4", "d5", "bck3", "q3"],
)
def test_frozen_vectors(table, zero, expected):
    assert axiom_vector(groupoid(table, zero=zero)) == expected


@pytest.mark.parametrize(
    "table,zero,expected",
    [
        (tables.BCI4, 0, tables.CLASSES_BCI4),
        (tables.D5, 0, tables.CLASSES_D5),
        (tables.BCK3, 0, tables.CLASSES_BCK3),
        (tables.Q3, 0, tables.CLASSES_Q3),
    ],
    ids=["bci4", "d5", "bck3", "q3"],
)
def test_frozen_classes(table, zero, expected):
    assert algebra_classes(groupoid(table, zero=zero)) == expected


def test_bci_but_not_bck():
    classes = algebra_classes(groupoid(tables.BCI4, zero=0))
    assert "BCI" in classes and "BCK" not in classes


def test_strong_d_but_not_bck():
    classes = algebra_classes(groupoid(tables.D5, zero=0))
    assert "strong-d" in classes and "BCK" not in classes
    # the missing ingredient is the I axiom
    assert not axiom_holds(groupoid(tables.D5, zero=0), "I")


def test_bck3_is_bi():
    assert "BI" in algebra_classes(groupoid(tables.BCK3, zero=0))


def test_zero_free_axioms_work_without_zero():
    g = groupoid(tables.Q3)
    assert axiom_holds(g, "STRONG")
    assert axiom_holds(g, "Q")
    assert not axiom_holds(g, "CO")
    assert axiom_holds(g, "BM")


def test_zero_axioms_require_zero():
    g = groupoid(tables.Q3)
    with pytest.raises(MissingZero):
        axiom_holds(g, "B1")
    with pytest.raises(MissingZero):
        axiom_vector(g)
    with pytest.raises(MissingZero):
        algebra_classes(g)


def test_unknown_axiom():
    with pytest.raises(ValueError):
        axiom_holds(groupoid(tables.Q3, zero=0), "BB")


@pytest.mark.parametrize("name", [["B1"], {"B1"}, {"B1": 0}], ids=["list", "set", "dict"])
def test_unhashable_axiom_name(name):
    with pytest.raises(ValueError, match="unknown axiom"):
        axiom_holds(groupoid(tables.Q3, zero=0), name)


def test_left_zero_axioms():
    # x∘y = x satisfies x∘0 = x and 0∘x = 0, but x∘x = x breaks B1
    g = left_zero(3).with_metadata(zero=0)
    assert axiom_holds(g, "B2")
    assert axiom_holds(g, "K")
    assert not axiom_holds(g, "B1")


def test_zero_placement_matters():
    g0 = groupoid(tables.BCK3, zero=0)
    g1 = groupoid(tables.BCK3, zero=1)
    assert axiom_holds(g0, "B1")
    assert not axiom_holds(g1, "B1")


def test_trivial_algebra_satisfies_everything():
    g = groupoid([[0]], zero=0)
    vec = axiom_vector(g)
    assert all(vec.values())
    assert algebra_classes(g) == list(ALGEBRA_CLASSES)
