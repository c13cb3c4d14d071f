import math
import random

import pytest

import tables
from scan_oracles import scan_center, scan_inverse
from binsys import (
    OrderMismatch,
    OrderTooLarge,
    all_groupoids,
    commutes,
    find_inverse,
    groupoid,
    in_center,
    is_identity,
    is_locally_zero,
    left_zero,
    product,
    right_zero,
)


def test_product_formula():
    # (g ⋄ h)(x, y) = h(g(x, y), g(y, x)), spot-checked by hand
    g = groupoid([[0, 0, 0], [1, 1, 2], [2, 1, 2]])
    h = groupoid([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    gh = product(g, h)
    assert gh(1, 2) == h(g(1, 2), g(2, 1)) == 1
    assert product(h, g)(1, 2) == g(h(1, 2), h(2, 1)) == 0


def test_identity_is_left_zero():
    assert is_identity(left_zero(4))
    assert not is_identity(right_zero(4))


@pytest.mark.parametrize(
    "table", [tables.D5, tables.RAND5, tables.BCK3, tables.CYC3, tables.OP4]
)
def test_identity_laws(table):
    g = groupoid(table)
    e = left_zero(g.order)
    assert product(e, g) == g
    assert product(g, e) == g


def test_right_zero_squares_to_identity():
    rz = right_zero(3)
    assert product(rz, rz) == left_zero(3)


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        product(left_zero(2), left_zero(3))
    with pytest.raises(OrderMismatch):
        commutes(left_zero(2), left_zero(3))


class TestMetadataPropagation:
    def test_kept_when_both_agree(self):
        a = groupoid(tables.BCK3, labels=["p", "q", "r"], zero="p")
        b = groupoid(tables.LOC3, labels=["p", "q", "r"], zero="p")
        out = product(a, b)
        assert out.labels == ("p", "q", "r")
        assert out.zero == 0

    def test_dropped_on_disagreement(self):
        a = groupoid(tables.BCK3, labels=["p", "q", "r"])
        b = groupoid(tables.LOC3, labels=["x", "y", "z"])
        out = product(a, b)
        assert out.labels is None

    def test_dropped_when_one_side_unset(self):
        a = groupoid(tables.BCK3, zero=0)
        b = groupoid(tables.LOC3)
        assert product(a, b).zero is None


class TestCommutes:
    def test_projections_commute_with_everything(self):
        for g in all_groupoids(2):
            assert commutes(g, left_zero(2))
            assert commutes(g, right_zero(2))

    def test_self_commutes(self):
        g = groupoid(tables.D5)
        assert commutes(g, g)

    def test_known_noncommuting_pair(self):
        u = groupoid(tables.CYC3_U)
        a = groupoid(tables.CYC3_A)
        assert not commutes(u, a)


class TestCenter:
    """``in_center`` (exact, closed form) against ``is_locally_zero``, the
    classical characterization of the central tables that its former
    "fast" mode ran."""

    def test_fast_accepts_locally_zero(self):
        for rows in (tables.LOC3, tables.LOC6):
            g = groupoid(rows)
            assert is_locally_zero(g)
            # neither is a projection, so neither is central
            assert not in_center(g)

    def test_fast_rejects_non_locally_zero(self):
        g = groupoid(tables.D5)
        assert not is_locally_zero(g)
        assert not in_center(g)

    def test_exhaustive_rejects_constant(self):
        const0 = groupoid([[0, 0], [0, 0]])
        assert not scan_center(const0)
        assert not in_center(const0)

    def test_modes_agree_at_order_two(self):
        for g in all_groupoids(2):
            assert is_locally_zero(g) == in_center(g) == scan_center(g)

    def test_modes_diverge_at_order_three(self):
        # A locally-zero table mixing a right-zero pair with left-zero
        # pairs is not central: the classical characterization admits it,
        # the exact test and the scan report the truth.
        g = groupoid(tables.MIXED3)
        assert is_locally_zero(g)
        assert not in_center(g)
        assert not scan_center(g)
        w = groupoid(tables.MIXED3_WITNESS)
        assert product(g, w) != product(w, g)

    def test_exhaustive_order_cap(self):
        # the scan stops at the enumeration cap; the closed form does not
        with pytest.raises(OrderTooLarge):
            scan_center(left_zero(4))
        assert in_center(left_zero(4))

    def test_unknown_method(self):
        # in_center has one, exact, answer and takes no method
        for method in ("fast", "exact", "exhaustive"):
            with pytest.raises(TypeError):
                in_center(left_zero(2), method)
            with pytest.raises(TypeError):
                in_center(left_zero(2), method=method)


class TestExactCenter:
    """The closed form against the commuting scan it replaced."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_scan_on_every_table(self, order):
        central = [g for g in all_groupoids(order) if in_center(g)]
        assert central == [g for g in all_groupoids(order) if scan_center(g)]
        # the two projections, which coincide at order 1
        assert central == sorted({left_zero(order), right_zero(order)}, key=lambda g: g.table)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_projections_at_any_order(self, order):
        assert in_center(left_zero(order))
        assert in_center(right_zero(order))
        # a constant table is central only as the single table of order 1
        assert in_center(groupoid([[0] * order] * order)) == (order == 1)

    def test_labels_and_zero_ignored(self):
        g = right_zero(3).with_metadata(labels="abc", zero=1)
        assert in_center(g)


class TestFindInverse:
    def test_locally_zero_is_self_inverse(self):
        g = groupoid(tables.LOC3)
        assert find_inverse(g) == g
        big = groupoid(tables.LOC6)
        assert find_inverse(big) == big

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_locally_zero_table_is_its_own_inverse(self, order):
        # such a table squares to the identity, so its pair map is an
        # involution and the closed form gives back the table, with its
        # labels and zero
        found = 0
        for g in all_groupoids(order):
            if is_locally_zero(g):
                g = g.with_metadata(labels="abc"[:order], zero=order - 1)
                inv = find_inverse(g)
                assert (inv.table, inv.labels, inv.zero) == (g.table, g.labels, g.zero)
                found += 1
        # one left- or right-zero choice per pair of elements
        assert found == 2 ** math.comb(order, 2)

    def test_projections(self):
        assert find_inverse(left_zero(3)) == left_zero(3)
        assert find_inverse(right_zero(3)) == right_zero(3)

    def test_constant_has_no_inverse(self):
        assert find_inverse(groupoid([[0, 0], [0, 0]])) is None

    def test_self_inverse_without_local_zero(self):
        g = groupoid([[1, 0], [1, 0]])
        inv = find_inverse(g)
        assert inv == g
        assert product(g, inv) == left_zero(2) == product(inv, g)

    def test_order_four(self):
        # GROUP4 is commutative, so every g ⋄ h is commutative too and
        # cannot be the (non-commutative) identity: no inverse exists.
        g = groupoid(tables.GROUP4)
        assert g.table == tuple(zip(*g.table))
        assert find_inverse(g) is None
        op = groupoid(tables.OP4)
        inv = find_inverse(op)
        assert product(op, inv) == left_zero(4) == product(inv, op)

    def test_order_four_without_local_zero(self):
        # a 4-cycle on the diagonal over a left-projection body
        g = groupoid([[1, 0, 0, 0], [1, 2, 1, 1], [2, 2, 3, 2], [3, 3, 3, 0]])
        inv = find_inverse(g)
        assert inv.table == (
            (3, 0, 0, 0), (1, 0, 1, 1), (2, 2, 1, 2), (3, 3, 3, 2)
        )
        assert product(g, inv) == left_zero(4) == product(inv, g)

    def test_computed_inverse_keeps_labels_and_zero(self):
        g = groupoid([[1, 0, 0], [1, 2, 1], [2, 2, 0]], labels="abc", zero="a")
        assert not is_locally_zero(g)
        inv = find_inverse(g)
        assert inv.table == ((2, 0, 0), (1, 0, 1), (2, 2, 1))
        assert (inv.labels, inv.zero) == (("a", "b", "c"), 0)

    def test_returned_inverse_is_two_sided(self):
        for g in all_groupoids(2):
            inv = find_inverse(g)
            if inv is not None:
                assert product(g, inv) == left_zero(2)
                assert product(inv, g) == left_zero(2)


class TestFindInverseMatchesScan:
    """The closed form against the table scan it replaced."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_every_table(self, order):
        for g in all_groupoids(order):
            assert find_inverse(g) == scan_inverse(g)

    def test_order_three_invertibles(self):
        # 3! diagonal permutations x 3! off-diagonal pair permutations
        # x 2^3 orientations of the pairs
        e = left_zero(3)
        found = 0
        for g in all_groupoids(3):
            inv = find_inverse(g)
            if inv is not None:
                found += 1
                assert product(g, inv) == e == product(inv, g)
        assert found == 288

    def test_order_three_sampled_non_invertibles(self):
        rng = random.Random(20)
        pool = [g for g in all_groupoids(3) if find_inverse(g) is None]
        for g in rng.sample(pool, 8):
            assert scan_inverse(g) is None
