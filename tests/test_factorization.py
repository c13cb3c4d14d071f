import dataclasses
import random
from collections import Counter

import pytest

import tables
from scan_oracles import FRAMES, frame_fills, scan_equivalent, scan_factor_pairs
from binsys import factorization
from binsys.enumeration import _unique
from binsys.factorization import MATERIALIZE_LIMIT, _solution_count
from binsys.semigroup import _compose
from binsys import (
    METHODS,
    ClassificationReport,
    InternalError,
    OrderMismatch,
    OrderTooLarge,
    all_groupoids,
    binary_equivalent,
    classify,
    factorize,
    groupoid,
    is_partially_prime,
    left_zero,
    orient_factor,
    product,
    right_zero,
    signature_factor,
    similar_factor,
    skew_factor,
    uniqueness_search,
)

def rows(g):
    return [list(row) for row in g.table]


class TestDiagonalFactors:
    """Signature keeps the off-diagonal, similar keeps the diagonal."""

    @pytest.mark.parametrize(
        "table,expected_u,expected_a",
        [
            (tables.D5, tables.D5_U, tables.D5_A),
            (tables.BCI4, tables.BCI4_U, tables.BCI4_A),
            (tables.RAND5, tables.RAND5_U, tables.RAND5_A),
            (tables.CYC3, tables.CYC3_U, tables.CYC3_A),
            (tables.Q3, tables.Q3_U, tables.Q3_A),
        ],
    )
    def test_golden_tables(self, table, expected_u, expected_a):
        g = groupoid(table)
        assert rows(signature_factor(g)) == expected_u
        assert rows(similar_factor(g)) == expected_a

    def test_bck3_factors(self):
        g = groupoid(tables.BCK3)
        assert signature_factor(g) == left_zero(3)
        assert similar_factor(g) == g

    def test_right_zero_factors(self):
        g = right_zero(3)
        assert signature_factor(g) == g
        assert similar_factor(g) == left_zero(3)

    def test_metadata_inherited(self):
        g = groupoid(tables.BCK3, labels=["p", "q", "r"], zero="p")
        for factor in (signature_factor(g), similar_factor(g)):
            assert factor.labels == ("p", "q", "r")
            assert factor.zero == 0


class TestAntiDiagonalFactors:
    @pytest.mark.parametrize(
        "table,expected_o,expected_j",
        [
            (tables.BCK3, tables.BCK3_O, tables.BCK3_J),
            (tables.OP4, tables.OP4_O, tables.OP4_J),
            (tables.LOC6, tables.LOC6_O, tables.LOC6_J),
            (tables.STAR4, tables.STAR4_O, tables.STAR4_J),
        ],
    )
    def test_golden_tables(self, table, expected_o, expected_j):
        g = groupoid(table)
        assert rows(orient_factor(g)) == expected_o
        assert rows(skew_factor(g)) == expected_j

    def test_orient_depends_only_on_order(self):
        assert orient_factor(groupoid(tables.BCK3)).table == tuple(
            tuple(r) for r in tables.RZ3_O
        )
        assert rows(orient_factor(groupoid(tables.GROUP4))) == tables.GROUP4_O

    def test_orient_at_order_two_is_right_zero(self):
        assert orient_factor(left_zero(2)) == right_zero(2)

    def test_right_zero_skew(self):
        assert rows(skew_factor(right_zero(3))) == tables.RZ3_J

    def test_group_equals_its_skew(self):
        g = groupoid(tables.GROUP4)
        assert skew_factor(g) == g

    def test_skew_is_an_involution(self):
        for table in (tables.D5, tables.OP4, tables.LOC6, tables.RAND5):
            g = groupoid(table)
            assert skew_factor(skew_factor(g)) == g

    def test_skew_of_orient_is_identity(self):
        for n in (2, 3, 4, 6):
            assert skew_factor(orient_factor(left_zero(n))) == left_zero(n)


class TestFactorize:
    def test_method_registry(self):
        assert set(METHODS) == {"ua", "au", "oj", "jo"}

    def test_methods_follow_the_method_table(self):
        # METHODS derives the Groupoid twins of the raw pairs in _PAIRS,
        # and the report has a flag per method and per family, in the
        # order classify fills them from the two tables
        pairs, families = factorization._PAIRS, factorization._FAMILIES
        assert set(pairs) == set(METHODS)
        assert sorted(m for methods in families.values() for m in methods) == sorted(pairs)
        samples = [groupoid(t) for t in (tables.BCK3, tables.OP4, tables.LOC6, tables.RAND5)]
        for method, (left, right) in pairs.items():
            m = METHODS[method]
            for g in [*all_groupoids(2), *samples]:
                assert m.derive_left(g).table == left(g.table), (method, g)
                assert m.derive_right(g).table == right(g.table), (method, g)
        names = [f.name for f in dataclasses.fields(ClassificationReport)]
        assert names[6:18] == (
            [f"{m}_holds" for m in pairs] + [f"{m}_composite" for m in pairs]
            + [f"{f}_composite" for f in families] + [f"{f}_normal" for f in families]
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            factorize(groupoid(tables.D5), "xy")

    @pytest.mark.parametrize("call", [factorize, uniqueness_search])
    @pytest.mark.parametrize("method", [["ua"], {"ua"}], ids=["list", "set"])
    def test_unhashable_method(self, call, method):
        with pytest.raises(ValueError, match="unknown method"):
            call(groupoid(tables.D5), method)

    def test_d5_reproduces_both_ways(self):
        g = groupoid(tables.D5)
        ua = factorize(g, "ua")
        au = factorize(g, "au")
        assert ua.reproduces and au.reproduces
        assert ua.composed == g and au.composed == g
        assert rows(ua.left) == tables.D5_U and rows(ua.right) == tables.D5_A
        assert rows(au.left) == tables.D5_A and rows(au.right) == tables.D5_U

    def test_rand5_ua_fails(self):
        pair = factorize(groupoid(tables.RAND5), "ua")
        assert not pair.reproduces
        assert rows(pair.composed) == tables.RAND5_UA

    def test_cyc3(self):
        g = groupoid(tables.CYC3)
        assert factorize(g, "au").reproduces
        ua = factorize(g, "ua")
        assert not ua.reproduces
        assert rows(ua.composed) == tables.CYC3_UA

    def test_bci4_au_only(self):
        g = groupoid(tables.BCI4)
        assert not factorize(g, "ua").reproduces
        assert factorize(g, "au").reproduces

    def test_oj_reproduces_everywhere(self):
        for table in (tables.BCK3, tables.OP4, tables.LOC6, tables.STAR4,
                      tables.RAND5, tables.D5):
            g = groupoid(table)
            pair = factorize(g, "oj")
            assert pair.reproduces
            assert product(pair.left, pair.right) == g

    def test_op4_jo(self):
        pair = factorize(groupoid(tables.OP4), "jo")
        assert pair.reproduces


class TestClassify:
    def test_bck3_verdicts(self):
        rep = classify(groupoid(tables.BCK3, zero=0))
        assert rep.signature_prime
        assert rep.u_normal
        assert rep.semi_normal
        assert rep.predicates["semi_neutral"]
        assert rep.oj_composite

    def test_cyc3_verdicts(self):
        rep = classify(groupoid(tables.CYC3))
        assert rep.au_composite
        assert not rep.u_normal
        assert not rep.ua_holds

    def test_d5_u_composite(self):
        rep = classify(groupoid(tables.D5))
        assert rep.u_composite
        assert rep.u_normal

    def test_q3_semi_composite(self):
        rep = classify(groupoid(tables.Q3, zero=0))
        assert rep.semi_composite
        assert rep.u_composite

    def test_right_zero_similar_prime(self):
        rep = classify(right_zero(3))
        assert rep.similar_prime
        assert not rep.signature_prime
        assert rep.j_composite

    def test_right_zero_order_two_is_skew_prime(self):
        # the skew factor degenerates to the identity here, so the
        # orient/skew pair cannot witness compositeness
        rep = classify(right_zero(2))
        assert rep.skew_prime
        assert not rep.j_composite
        assert rep.j_normal

    def test_op4_j_normal(self):
        rep = classify(groupoid(tables.OP4))
        assert rep.j_normal
        assert rep.jo_composite

    def test_semi_flags_need_zero(self):
        rep = classify(groupoid(tables.BCK3))
        assert rep.semi_normal is None
        assert rep.semi_composite is None
        assert rep.predicates["semi_neutral"] is None

    def test_to_dict_roundtrip(self):
        rep = classify(groupoid(tables.BCK3, zero=0))
        d = rep.to_dict()
        assert d["order"] == 3
        assert d["u_normal"] is True
        assert d["predicates"]["strong"] is True


class TestPartiallyPrime:
    def test_group4_left_witness(self):
        g = groupoid(tables.GROUP4)
        o = groupoid(tables.GROUP4_O)
        assert is_partially_prime(g, o, side="left")

    def test_identity_never_counts(self):
        g = groupoid(tables.BCK3)
        assert not is_partially_prime(g, left_zero(3), side="left")

    def test_right_side(self):
        # composing with right-zero on the right transposes the table, so
        # only an abelian table can be reproduced that way
        assert not is_partially_prime(groupoid(tables.BCK3), right_zero(3), side="right")
        assert is_partially_prime(groupoid(tables.CYC3), right_zero(3), side="right")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            is_partially_prime(left_zero(2), left_zero(2), side="middle")

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            is_partially_prime(left_zero(2), left_zero(3), side="left")


class TestUniqueness:
    def test_strong_tables_unique_for_ua(self):
        for table in (tables.D5, tables.Q3, tables.BCK3):
            rep = uniqueness_search(groupoid(table), "ua")
            assert rep.solution_count == 1
            assert rep.derived.reproduces
            assert rep.other_solutions == ()

    def test_constant_table_has_two_ua_solutions(self):
        rep = uniqueness_search(groupoid([[0, 0], [0, 0]]), "ua")
        assert rep.solution_count == 2
        assert rep.derived.reproduces
        assert len(rep.other_solutions) == 1
        other_left, other_right = rep.other_solutions[0]
        assert rows(other_left) == [[0, 1], [1, 1]]
        assert product(other_left, other_right) == groupoid([[0, 0], [0, 0]])

    def test_au_always_forced(self):
        for table in (tables.D5, tables.RAND5, tables.CYC3):
            rep = uniqueness_search(groupoid(table), "au")
            assert rep.solution_count == 1

    def test_oj_always_forced(self):
        for table in (tables.BCK3, tables.RAND5, tables.LOC6):
            rep = uniqueness_search(groupoid(table), "oj")
            assert rep.solution_count == 1

    def test_jo_on_orientation_tables(self):
        rep = uniqueness_search(groupoid(tables.OP4), "jo")
        assert rep.solution_count == 1
        assert rep.derived.reproduces

    def test_jo_without_orientation_can_still_solve(self):
        rep = uniqueness_search(groupoid(tables.BCK3), "jo")
        assert rep.solution_count == 1

    def test_jo_on_abelian_tables(self):
        # an abelian table equals its own skew factor, so the derived
        # pair reproduces it
        rep = uniqueness_search(groupoid(tables.CYC3), "jo")
        assert rep.solution_count == 1
        assert rep.derived.reproduces

    def test_jo_zero_solutions(self):
        # g(0,1) = 0 but g(1,0) = 2 forces the pinned right factor to
        # produce 2 where the target holds 0, so no left factor exists
        g = groupoid([[0, 0, 0], [2, 0, 0], [0, 0, 0]])
        rep = uniqueness_search(g, "jo")
        assert rep.solution_count == 0
        assert not rep.derived.reproduces
        assert scan_factor_pairs(g, "jo") == []

    def test_factored_matches_exhaustive_at_order_two(self):
        for g in all_groupoids(2):
            for method in METHODS:
                fast = uniqueness_search(g, method)
                assert not fast.truncated
                slow = scan_factor_pairs(g, method)
                assert fast.solution_count == len(slow)
                assert [(lt.table, rt.table) for lt, rt in fast.solutions] == slow

    def test_exhaustive_order_cap(self):
        with pytest.raises(OrderTooLarge):
            scan_factor_pairs(groupoid(tables.OP4), "jo")

    def test_exhaustive_keyword_removed(self):
        with pytest.raises(TypeError):
            uniqueness_search(groupoid(tables.CYC3), "jo", exhaustive=True)

    def test_solutions_are_sorted(self):
        rep = uniqueness_search(groupoid([[0, 0], [0, 0]]), "ua")
        seen = [(left.table, right.table) for left, right in rep.solutions]
        assert seen == sorted(seen)
        assert not rep.truncated


def exhaustive_counts(order, method):
    """``len(scan_factor_pairs(g, method))`` for every table g of the
    order, from one sweep per distinct frame pair."""
    composites = {}
    counts = {}
    for g in all_groupoids(order):
        frames = tuple(frame(g) for frame in FRAMES[method])
        key = repr(frames)
        if key not in composites:
            lefts, rights = (list(frame_fills(f, order)) for f in frames)
            composites[key] = Counter(_compose(lt, rt) for lt in lefts for rt in rights)
        counts[g.table] = composites[key][g.table]
    return counts


class TestSolutionCount:
    """The raw-table count behind uniqueness_search and the claims."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_table(self, order):
        for method in METHODS:
            slow = exhaustive_counts(order, method)
            unique = _unique(method)
            for g in all_groupoids(order):
                rep = uniqueness_search(g, method)
                count = _solution_count(g.table, method)
                assert count == rep.solution_count == slow[g.table], (g, method)
                assert unique(g.table, None) == (count == 1 and rep.derived.reproduces)
                if order < 3:
                    assert len(scan_factor_pairs(g, method)) == slow[g.table]

    def test_truncated_listing(self):
        g = groupoid([[0] * 5] * 5)
        rep = uniqueness_search(g, "ua")
        # every symmetric pair may take any of the 5 diagonal values
        assert rep.solution_count == _solution_count(g.table, "ua") == 5**10
        assert rep.truncated and len(rep.solutions) == MATERIALIZE_LIMIT
        assert all(product(lt, rt) == g for lt, rt in rep.solutions)
        assert all(rt == rep.derived.right for _, rt in rep.solutions)

    def test_forced_failure_is_an_invariant_breach(self, monkeypatch):
        # a pair of identity maps composes the right projection table into
        # the left one, so the forced oj pair no longer reproduces it
        monkeypatch.setitem(factorization._PAIRS, "oj", (lambda t: t, lambda t: t))
        message = "forced oj factorization failed to reproduce the target"
        with pytest.raises(InternalError, match=message):
            _solution_count(right_zero(2).table, "oj")
        with pytest.raises(InternalError, match=message):
            uniqueness_search(right_zero(2), "oj")


class TestBinaryEquivalent:
    def test_skew_pairs_share_a_witness(self):
        g = groupoid(tables.LOC6)
        j = groupoid(tables.LOC6_J)
        o = groupoid(tables.LOC6_O)
        # the orient factor swaps the table with its skew factor
        assert binary_equivalent(g, j, witness=o)

    def test_built_witness_metadata_follows_product(self):
        a = right_zero(3, labels="pqr", zero=0)
        w = binary_equivalent(a, right_zero(3, labels="pqr", zero=0))
        assert (w.labels, w.zero) == (("p", "q", "r"), 0)
        w = binary_equivalent(a, right_zero(3, labels="pqr", zero=1))
        assert (w.labels, w.zero) == (("p", "q", "r"), None)
        w = binary_equivalent(a, right_zero(3, labels="xyz", zero=0))
        assert (w.labels, w.zero) == (None, 0)

    def test_bad_witness_falls_back_to_search(self):
        a = right_zero(2)
        assert binary_equivalent(a, a, witness=groupoid([[0, 0], [0, 0]]))

    def test_reflexive_via_identity(self):
        assert binary_equivalent(right_zero(3), right_zero(3))

    def test_no_witness(self):
        assert not binary_equivalent(left_zero(2), groupoid([[0, 0], [0, 0]]))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            binary_equivalent(left_zero(2), left_zero(3))

    def test_order_four(self):
        # GROUP4 is commutative, so every w ⋄ GROUP4 is commutative and
        # cannot equal the non-commutative OP4: no witness exists.
        a, b = groupoid(tables.GROUP4), groupoid(tables.OP4)
        assert a.table == tuple(zip(*a.table))
        assert b.table != tuple(zip(*b.table))
        assert binary_equivalent(a, b) is None
        for x in (a, b):
            w = binary_equivalent(x, x)
            assert product(w, x) == x

    def test_search_finds_a_witness_at_order_six(self):
        g = groupoid(tables.LOC6)
        j = groupoid(tables.LOC6_J)
        w = binary_equivalent(g, j)
        assert product(w, g) == j and product(w, j) == g

    def test_witness_is_checked_at_any_order(self):
        g = groupoid(tables.LOC6)
        j = groupoid(tables.LOC6_J)
        o = groupoid(tables.LOC6_O)
        assert binary_equivalent(g, j, witness=o) is o


class TestBinaryEquivalentMatchesScan:
    """The per-orbit construction against the lexicographic table scan."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_every_pair(self, order):
        tables_ = list(all_groupoids(order))
        for a in tables_:
            for b in tables_:
                assert binary_equivalent(a, b) == scan_equivalent(a, b)

    def test_sampled_order_three_pairs(self):
        # half (a, a); a quarter (a, w ⋄ a) for a self-inverse w, which
        # has w as one witness; a quarter unrelated pairs
        rng = random.Random(3)
        pool = list(all_groupoids(3))
        involutions = [w for w in pool if product(w, w) == left_zero(3)]
        pairs = []
        for _ in range(5):
            a = rng.choice(pool)
            pairs += [(a, a), (a, product(rng.choice(involutions), a))]
            a = rng.choice(pool)
            pairs += [(a, a), (a, rng.choice(pool))]
        for a, b in pairs:
            assert binary_equivalent(a, b) == scan_equivalent(a, b)
