"""The compiled raw-table maps (⋄ and the four derived factors), the
compiled structural flags in both their forms, and the flags and
predicates computed on them, against the slow Groupoid paths kept in
``reference_kernel``; and Groupoid validation against the cell-by-cell
checks it replaced."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from binsys import (
    PREDICATES,
    Groupoid,
    all_groupoids,
    au_holds,
    axiom_holds,
    classify,
    commutes,
    is_identity,
    jo_holds,
    oj_holds,
    predicate_vector,
    right_zero,
    ua_holds,
)
from binsys import core, enumeration
from binsys.factorization import _orient, _signature, _similar, _skew
from binsys.semigroup import _compose
from reference_kernel import (
    REF_PREDICATES,
    ref_b1_diagonal,
    ref_classify_by_zero,
    ref_commutes,
    ref_compose,
    ref_is_identity,
    ref_is_strong,
    ref_no_op_cells,
    ref_orient,
    ref_predicate_vector,
    ref_signature,
    ref_similar,
    ref_skew,
    ref_validate,
)

# predicate name -> the raw-table implementation in core
RAW_PREDICATES = {
    "idempotent": core._idempotent,
    "strong": core._strong,
    "locally_zero": core._locally_zero,
    "orientation": core._orientation,
    "twisted_orientation": core._twisted_orientation,
    "bi_diagonal": core._bi_diagonal,
    "abelian": core._abelian,
}


# each one-operand map -> its reference on Groupoids
DERIVATIONS = ((_signature, ref_signature), (_similar, ref_similar),
               (_orient, ref_orient), (_skew, ref_skew))


def assert_maps_match(gt, ht):
    """⋄ and the four derived factors return what ``Groupoid`` takes without
    copying (tuple rows of exact ints) and agree with their references."""
    composed = _compose(gt, ht)
    assert core._is_frozen(composed)
    assert composed == ref_compose(gt, ht)
    g = Groupoid(gt)
    for derive, ref in DERIVATIONS:
        derived = derive(gt)
        assert core._is_frozen(derived), ref.__name__
        assert derived == ref(g).table, ref.__name__


# every flag the one compiler builds -> its loop oracle on Groupoids: the
# seven structural predicates of core and the two hypotheses of the zero
# and proof claims in enumeration
FLAGS = {
    **{RAW_PREDICATES[name]: ref for name, ref in REF_PREDICATES.items()},
    enumeration._b1_diagonal: ref_b1_diagonal,
    enumeration._no_op_cells: ref_no_op_cells,
}


@st.composite
def structured_tables(draw, orders):
    """Each cell is its row operand, its column operand or any element, so
    oriented, strong and locally-zero tables are drawn often; a constant
    diagonal, a mirrored upper triangle and cells moved off their operands
    reach the constant-diagonal, abelian, bi-diagonal and no-operand-cell
    tables."""
    n = draw(orders)
    rows = [[draw(st.sampled_from((x, y)) | st.integers(0, n - 1)) for y in range(n)]
            for x in range(n)]
    diagonal = draw(st.none() | st.integers(0, n - 1))
    if diagonal is not None:
        for x in range(n):
            rows[x][x] = diagonal
    if draw(st.booleans()):
        rows = [[rows[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
    if draw(st.booleans()):
        rows = [[min({0, 1, 2} - {x, y}) if v in (x, y) else v for y, v in enumerate(row)]
                for x, row in enumerate(rows)]
    return Groupoid(rows)


def assert_predicates_match(g):
    """Raw, public and vector predicates of g (and of g with each zero)
    against the loop oracles; the vector's key order included.  Each flag
    gives the oracle's bool through its loop form, its straight-line form
    and its dispatch."""
    t, n = g.table, g.order
    for flag, ref in FLAGS.items():
        expected = ref(g)
        assert (flag.loop()(t), flag.at(n)(t), flag(t)) == (expected,) * 3, flag.__name__
        assert type(flag.loop()(t)) is type(flag.at(n)(t)) is bool, flag.__name__
    expected = {name: ref(g) for name, ref in REF_PREDICATES.items()}
    assert {name: raw(g.table) for name, raw in RAW_PREDICATES.items()} == expected
    assert axiom_holds(g, "STRONG") == ref_is_strong(g)
    for zero in (None, *range(g.order)):
        variant = g.with_metadata(zero=zero)
        assert {name: PREDICATES[name](variant) for name in expected} == expected
        vector = predicate_vector(variant)
        assert list(vector.items()) == list(ref_predicate_vector(variant).items())


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


class TestGeneratedKernel:
    """Each map runs the display compiled for its order: one compile per
    order, the tuple-of-tuples shape down to order 1, and the references
    above the orders the other tests reach."""

    def test_order_one_shape(self):
        composed = _compose(((0,),), ((0,),))
        assert composed == ((0,),)
        assert type(composed) is tuple and type(composed[0]) is tuple

    @pytest.mark.parametrize("order", [1, 3, 9])
    def test_compiled_once_per_order(self, order, monkeypatch):
        compiles = []

        def counting_eval(source, *namespace):
            compiles.append(source)
            return eval(source, *namespace)

        monkeypatch.setattr(core, "eval", counting_eval, raising=False)
        t = core._left_zero_table(order)
        maps = [_compose] + [derive for derive, _ in DERIVATIONS]
        first = [derive(t, t) for derive in maps]
        compiled = len(compiles)
        again = [derive(t, t) for derive in maps]
        assert len(compiles) == compiled <= len(maps)
        assert again == first
        assert again[maps.index(_orient)] is first[maps.index(_orient)]

    @pytest.mark.parametrize("order", [1, 3, 16])
    def test_each_map_has_its_own_name(self, order):
        # a profile keys a function by file, line and name: each compiled
        # map is its own function <rule>_<order> in its own file
        t = core._left_zero_table(order)
        maps = [_compose] + [derive for derive, _ in DERIVATIONS]
        codes = [derive.at(order).__code__ for derive in maps]
        assert [code.co_name for code in codes] == [
            f"{name}_{order}" for name in ("_compose", "_signature", "_similar", "_orient", "_skew")
        ]
        assert len({code.co_filename for code in codes}) == len(maps)
        assert [derive(t, t) for derive in maps] == [derive.at(order)(t, t) for derive in maps]

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_cells_read_once(self, order):
        # ⋄, the signature and the skew factor unpack every row of t into
        # locals and read each cell from there; the similar factor
        # subscripts its diagonal and the orient factor reads nothing
        cells = {f"t{a}_{b}" for a in range(order) for b in range(order)}
        for derive in (_compose, _signature, _skew):
            # at order 1 the signature factor's one cell is its diagonal
            read = set() if (derive, order) == (_signature, 1) else cells
            assert set(derive.at(order).__code__.co_varnames) == {"t", "u"} | read
        for derive in (_similar, _orient):
            assert derive.at(order).__code__.co_varnames == ("t", "u")

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.data())
    def test_orders_nine_to_sixteen(self, data):
        n = data.draw(st.integers(9, 16))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        gt, ht = (
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            for _ in range(2)
        )
        assert_maps_match(gt, ht)


class TestKernelsFrozen:
    """The compiled maps return what ``Groupoid`` takes without copying
    (tuple rows of exact ints) and agree with the reference paths at
    orders 1-8."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_orders_one_to_eight(self, data):
        n = data.draw(st.integers(1, 8))
        cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
        gt, ht = (
            tuple(tuple(flat[x * n:(x + 1) * n]) for x in range(n))
            for flat in (data.draw(cells), data.draw(cells))
        )
        assert_maps_match(gt, ht)


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


class TestPredicatesMatchReference:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_table(self, order):
        for g in all_groupoids(order):
            assert_predicates_match(g)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(structured_tables(st.integers(4, 8)))
    def test_larger_orders(self, g):
        assert_predicates_match(g)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(structured_tables(st.just(17)))
    def test_order_seventeen(self, g):
        assert_predicates_match(g)

    def test_every_predicate_is_covered(self):
        assert [*RAW_PREDICATES, "semi_neutral"] == list(PREDICATES)
        assert list(REF_PREDICATES) == list(RAW_PREDICATES)
        assert len({flag.__name__ for flag in FLAGS}) == 9


class TestFlagForms:
    """Every flag runs its loop form on the first call at an order and its
    straight-line form, compiled by the second, from then on."""

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_each_form_has_its_own_name(self, order):
        for flag in FLAGS:
            loop, straight = flag.loop(), flag.at(order)
            assert loop.__code__.co_name == flag.__name__
            assert straight.__code__.co_name == f"{flag.__name__}_{order}"
            assert loop.__module__ == straight.__module__ == "binsys.core"

    def test_straight_line_form_compiles_on_reuse(self, monkeypatch):
        compiled = []

        def counting_eval(code, namespace):
            compiled.append(code.co_filename)
            return eval(code, namespace)

        monkeypatch.setattr(core, "eval", counting_eval, raising=False)
        flag = core._flag("_probe", diagonal="r{x}[{x}] == {x}")
        t = core._left_zero_table(4)
        assert flag(t) and compiled == ["<_probe>"]
        assert flag(t) and compiled == ["<_probe>", "<_probe_4>"]
        assert flag(t) and flag(core._left_zero_table(5))
        assert compiled == ["<_probe>", "<_probe_4>"]
        assert not flag(core._semi_neutral_table(4, 0))

    def test_one_classify_compiles_no_straight_line_flag(self):
        # a one-shot caller reads each flag once at its order: it runs the
        # loop forms and compiles no O(n²) chain (the maps still compile)
        script = """
import binsys.core as core
compiled = []
def counting(code, namespace):
    compiled.append(code.co_filename)
    return eval(code, namespace)
core.eval = counting
from binsys import classify, groupoid
classify(groupoid([[(3 * x + y) % 8 for y in range(8)] for x in range(8)], zero=0))
print(" ".join(compiled))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        compiled = proc.stdout.split()
        loops = {f"<{raw.__name__}>" for raw in RAW_PREDICATES.values()}
        straight = {f"<{raw.__name__}_8>" for raw in RAW_PREDICATES.values()}
        assert loops <= set(compiled)
        assert not straight & set(compiled)
        assert "<_compose_8>" in compiled


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
