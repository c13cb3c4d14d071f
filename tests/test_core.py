from fractions import Fraction

import pytest

import tables
from binsys import (
    BadLabels,
    BadShape,
    BadZero,
    ClosureViolation,
    Groupoid,
    MissingZero,
    PREDICATES,
    diagonal_profile,
    groupoid,
    is_abelian,
    is_bi_diagonal,
    is_idempotent,
    is_locally_zero,
    is_semi_neutral,
    is_strong,
    has_orientation,
    has_twisted_orientation,
    left_zero,
    predicate_vector,
    right_zero,
    semi_neutral_groupoid,
)


class TestConstruction:
    def test_basic(self):
        g = groupoid([[0, 1], [1, 0]])
        assert g.order == 2
        assert g(0, 1) == 1
        assert g(1, 1) == 0

    def test_empty_table(self):
        with pytest.raises(BadShape):
            groupoid([])

    def test_ragged_rows(self):
        with pytest.raises(BadShape):
            groupoid([[0, 1], [0]])

    def test_non_square(self):
        with pytest.raises(BadShape):
            groupoid([[0, 1, 0], [1, 0, 1]])

    def test_cell_out_of_range(self):
        with pytest.raises(ClosureViolation):
            groupoid([[0, 2], [1, 0]])

    def test_negative_cell(self):
        with pytest.raises(ClosureViolation):
            groupoid([[0, -1], [1, 0]])

    def test_duplicate_labels(self):
        with pytest.raises(BadLabels):
            groupoid([[0, 0], [1, 1]], labels=["a", "a"])

    def test_label_count_mismatch(self):
        with pytest.raises(BadLabels):
            groupoid([[0, 0], [1, 1]], labels=["a", "b", "c"])

    def test_whitespace_label(self):
        with pytest.raises(BadLabels):
            groupoid([[0, 0], [1, 1]], labels=["a", "b c"])

    @pytest.mark.parametrize("label", ["a#1", "#", "b#"])
    def test_comment_marker_label(self, label):
        # '#' would start a comment in the groupoid file
        with pytest.raises(BadLabels):
            groupoid([[0, 1], [1, 0]], labels=[label, "c"])

    def test_zero_out_of_range(self):
        with pytest.raises(BadZero):
            groupoid([[0, 0], [1, 1]], zero=2)

    def test_zero_by_label(self):
        g = groupoid([[0, 0], [1, 1]], labels=["e", "z"], zero="z")
        assert g.zero == 1

    def test_zero_by_unknown_label(self):
        with pytest.raises(BadZero):
            groupoid([[0, 0], [1, 1]], labels=["e", "z"], zero="q")

    @pytest.mark.parametrize("rows, cell", [
        ([[0, 1.7], [1, 0]], "cell (0,1) holds 1.7"),
        (((0, 1), (Fraction(1, 2), 0)), "cell (1,0) holds Fraction(1, 2)"),
        # the exact 1.0 and "1" are read as before; the lossy 0.5 is named
        ([[0, 1.0], [0.5, "1"]], "cell (1,0) holds 0.5"),
    ])
    def test_lossy_cell(self, rows, cell):
        for build in (Groupoid, groupoid):
            with pytest.raises(ClosureViolation) as info:
                build(rows)
            assert str(info.value) == f"{cell}, not an integer"

    @pytest.mark.parametrize("zero", [1.5, 1.0, "1", (1,)])
    def test_zero_not_an_index(self, zero):
        with pytest.raises(BadZero, match="is not an element index"):
            Groupoid(((0, 1), (1, 0)), zero=zero)

    def test_bool_zero_becomes_int(self):
        g = Groupoid(((0, 1), (1, 0)), zero=True)
        assert type(g.zero) is int and g.zero == 1
        assert repr(g) == "Groupoid(01,10, zero=1)"

    @pytest.mark.parametrize("zero", [5, -1, 1.5, None])
    def test_semi_neutral_bad_zero(self, zero):
        with pytest.raises(BadZero):
            semi_neutral_groupoid(3, zero=zero)


class TestEquality:
    def test_labels_do_not_matter(self):
        a = groupoid([[0, 0], [1, 1]], labels=["a", "b"])
        b = groupoid([[0, 0], [1, 1]])
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_does_not_matter(self):
        assert groupoid([[0, 0], [1, 1]], zero=0) == groupoid([[0, 0], [1, 1]], zero=1)

    def test_tables_do_matter(self):
        assert groupoid([[0, 0], [1, 1]]) != groupoid([[0, 1], [1, 1]])

    def test_usable_in_sets(self):
        seen = {left_zero(2), right_zero(2), left_zero(2)}
        assert len(seen) == 2


class TestMetadata:
    def test_label_of(self):
        g = groupoid([[0, 0], [1, 1]], labels=["e", "z"])
        assert g.label_of(1) == "z"

    def test_label_of_unlabeled(self):
        assert groupoid([[0, 0], [1, 1]]).label_of(1) == "1"

    def test_with_metadata(self):
        g = groupoid([[0, 0], [1, 1]]).with_metadata(labels=("p", "q"), zero=1)
        assert g.labels == ("p", "q")
        assert g.zero == 1
        assert g.label_of(g.zero) == "q"


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_left_zero(self, n):
        g = left_zero(n)
        assert all(g(x, y) == x for x in range(n) for y in range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_right_zero(self, n):
        g = right_zero(n)
        assert all(g(x, y) == y for x in range(n) for y in range(n))

    @pytest.mark.parametrize("builder", [left_zero, right_zero, semi_neutral_groupoid])
    @pytest.mark.parametrize("order", [0, -1, 2.5, "3", None])
    def test_bad_order(self, builder, order):
        # a BadShape naming the order, never a bare TypeError
        match = "must be >= 1" if isinstance(order, int) else "must be an integer"
        with pytest.raises(BadShape, match=f"order {match}"):
            builder(order)

    @pytest.mark.parametrize("builder", [left_zero, right_zero, semi_neutral_groupoid])
    def test_bool_order_is_one(self, builder):
        assert builder(True).table == ((0,),)

    def test_semi_neutral_builder(self):
        g = semi_neutral_groupoid(3)
        assert [list(r) for r in g.table] == tables.BCK3
        assert g.zero == 0
        assert is_semi_neutral(g)

    def test_semi_neutral_builder_nonzero_base(self):
        g = semi_neutral_groupoid(3, zero=1)
        assert g(0, 0) == 1 and g(2, 2) == 1 and g(0, 2) == 0
        assert is_semi_neutral(g)


class TestDiagonals:
    def test_profile(self):
        prof = diagonal_profile(groupoid(tables.DIAG4))
        assert prof.main == (0, 1, 2, 3)
        assert prof.anti == (3, 1, 2, 0)
        assert prof.reverse == (3, 2, 1, 0)
        assert prof.skew == (0, 2, 1, 3)

    def test_profile_order_one(self):
        prof = diagonal_profile(groupoid([[0]]))
        assert prof.main == prof.anti == prof.reverse == prof.skew == (0,)


class TestPredicates:
    def test_idempotent(self):
        assert is_idempotent(groupoid(tables.LOC3))
        assert not is_idempotent(groupoid(tables.D5))

    def test_strong(self):
        assert is_strong(groupoid(tables.BCK3))
        assert is_strong(right_zero(4))
        assert not is_strong(groupoid(tables.RAND5))  # 0∘4 = 4∘0 = 1

    def test_locally_zero(self):
        assert is_locally_zero(groupoid(tables.LOC3))
        assert is_locally_zero(groupoid(tables.LOC6))
        assert is_locally_zero(groupoid(tables.STAR4))
        assert not is_locally_zero(groupoid(tables.BCK3))

    def test_projections_are_locally_zero(self):
        assert is_locally_zero(left_zero(4))
        assert is_locally_zero(right_zero(4))

    def test_orientation(self):
        assert has_orientation(groupoid(tables.TOP3))
        assert has_orientation(groupoid(tables.OP4))
        assert not has_orientation(groupoid(tables.BCK3))

    def test_twisted_orientation(self):
        assert has_twisted_orientation(groupoid(tables.TOP3))
        # right-zero never satisfies x∘y = x off the diagonal, so the
        # implication holds vacuously
        assert has_twisted_orientation(right_zero(3))

    def test_bi_diagonal(self):
        assert is_bi_diagonal(groupoid(tables.GROUP4))
        assert not is_bi_diagonal(groupoid(tables.DIAG4))

    def test_abelian(self):
        assert is_abelian(groupoid(tables.CYC3))
        assert not is_abelian(right_zero(2))

    def test_semi_neutral(self):
        assert is_semi_neutral(groupoid(tables.BCK3, zero=0))
        assert not is_semi_neutral(groupoid(tables.Q3, zero=0))

    def test_semi_neutral_needs_zero(self):
        with pytest.raises(MissingZero):
            is_semi_neutral(groupoid(tables.BCK3))

    def test_registry_contents(self):
        assert set(PREDICATES) == {
            "idempotent", "strong", "locally_zero", "orientation",
            "twisted_orientation", "bi_diagonal", "abelian", "semi_neutral",
        }

    def test_check_predicate(self):
        assert PREDICATES["orientation"](groupoid(tables.TOP3))
        assert "associative" not in PREDICATES

    def test_predicate_vector_without_zero(self):
        vec = predicate_vector(groupoid(tables.LOC3))
        assert vec["locally_zero"] is True
        assert vec["semi_neutral"] is None

    def test_predicate_vector_with_zero(self):
        vec = predicate_vector(groupoid(tables.BCK3, zero=0))
        assert vec["semi_neutral"] is True
