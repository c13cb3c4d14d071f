"""The raw-table ⋄ kernel and the flags computed on it, against the slow
Groupoid paths kept in ``reference_kernel``; and Groupoid validation
against the cell-by-cell checks it replaced."""

import random

import pytest

from binsys import (
    Groupoid,
    all_groupoids,
    au_holds,
    classify,
    commutes,
    is_identity,
    jo_holds,
    oj_holds,
    right_zero,
    ua_holds,
)
from binsys.semigroup import _compose
from reference_kernel import (
    ref_classify_by_zero,
    ref_commutes,
    ref_compose,
    ref_is_identity,
    ref_validate,
)


class TestComposeMatchesReference:
    @pytest.mark.parametrize("order", [1, 2])
    def test_every_pair(self, order):
        pool = [g.table for g in all_groupoids(order)]
        for gt in pool:
            for ht in pool:
                assert _compose(gt, ht) == ref_compose(gt, ht)

    def test_order_three_sample(self):
        rng = random.Random(4)
        pool = [g.table for g in all_groupoids(3)]
        for _ in range(2000):
            gt, ht = rng.choice(pool), rng.choice(pool)
            assert _compose(gt, ht) == ref_compose(gt, ht)


class TestFlagsMatchReference:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_table(self, order):
        pool = list(all_groupoids(order))
        rz = right_zero(order)
        for g, partner in zip(pool, reversed(pool)):
            expected = ref_classify_by_zero(g)
            holds = {
                "ua_holds": ua_holds(g),
                "au_holds": au_holds(g),
                "oj_holds": oj_holds(g),
                "jo_holds": jo_holds(g),
            }
            assert holds == {k: expected[None][k] for k in holds}
            assert is_identity(g) == ref_is_identity(g)
            for h in (partner, rz):
                assert commutes(g, h) == ref_commutes(g, h)
            for zero in (None, *range(order)):
                variant = g.with_metadata(zero=zero)
                assert classify(variant).to_dict() == expected[zero]


class IntLike(int):
    pass


class Row(tuple):
    pass


BAD_TABLES = {
    "empty-list": [],
    "empty-tuple": (),
    "empty-row": ((),),
    "ragged-list": [[0, 1], [0]],
    "ragged-tuple": ((0, 1), (0,)),
    "non-square": ((0, 1, 0), (1, 0, 1)),
    "negative": ((0, -1), (1, 0)),
    "negative-list": [[0, -1], [1, 0]],
    "out-of-range": ((0, 2), (1, 0)),
    "out-of-range-late": ((0, 1), (1, 5)),
    "out-of-range-float": [[0, 2.0], [1, 0]],
    "ragged-non-numeric-list": [[0, "x"], [0]],
    "ragged-non-numeric-tuple": ((0, "x"), (0,)),
    "ragged-none": ((0, None), (0,)),
}

GOOD_TABLES = {
    "tuples": ((0, 1), (1, 0)),
    "list-rows": [[0, 1], [1, 0]],
    "bool-cells": ((True, False), (False, True)),
    "float-one": ((0, 1.0), (1, 0)),
    "numeric-strings": (("0", "1"), ("1", "0")),
    "int-subclass": ((IntLike(1), 0), (0, 1)),
    "tuple-subclass-row": (Row((0, 1)), (1, 0)),
}


class TestValidationMatchesReference:
    @pytest.mark.parametrize("rows", BAD_TABLES.values(), ids=BAD_TABLES.keys())
    def test_bad_input_raises_as_before(self, rows):
        expected = ref_validate(rows)
        with pytest.raises(Exception) as info:
            Groupoid(rows)
        assert (type(info.value), str(info.value)) == expected

    @pytest.mark.parametrize("rows", GOOD_TABLES.values(), ids=GOOD_TABLES.keys())
    def test_input_normalized_as_before(self, rows):
        expected = ref_validate(rows)
        g = Groupoid(rows)
        assert type(g.table) is tuple
        assert all(type(row) is tuple for row in g.table)
        assert all(type(v) is int for row in g.table for v in row)
        assert g.table == expected
        assert repr(g.table) == repr(expected)
        assert repr(g) == repr(Groupoid(expected))
