"""The record types' contract: equality, hashing, immutability, pickling
and ``repr``.

``Groupoid`` and ``Claim`` are plain classes; the reports, ``Axiom`` and
the graph types are named tuples.  Each expected ``repr`` below was
recorded when the types were still dataclasses, so a test fails if one
of them changes its printed form.
"""

import pickle

import pytest

from binsys import (
    BadShape,
    Digraph,
    Groupoid,
    SimpleGraph,
    classify,
    diagonal_profile,
    factorize,
    groupoid,
    uniqueness_search,
)
from binsys.axioms import Axiom
from binsys.enumeration import Claim, ClaimReport, census

LABELED = groupoid([[0, 1], [0, 1]], labels=["a", "b"], zero=1)


class TestGroupoid:
    def test_equality_and_hash_read_the_table_only(self):
        bare = Groupoid(LABELED.table)
        assert bare == LABELED and not bare != LABELED
        assert hash(bare) == hash(LABELED) == hash((LABELED.table,))
        assert LABELED != Groupoid(((0, 0), (1, 1)), labels=("a", "b"), zero=1)
        # a table is not a Groupoid, in either order
        assert LABELED != LABELED.table and LABELED.table != LABELED
        assert LABELED.__eq__(LABELED.table) is NotImplemented
        assert len({bare, LABELED, Groupoid([[0, 1], [0, 1]])}) == 1

    @pytest.mark.parametrize("field", ["table", "labels", "zero", "other"])
    def test_fields_cannot_change(self, field):
        g = groupoid([[0, 1], [0, 1]], labels=["a", "b"], zero=1)
        with pytest.raises(AttributeError):
            setattr(g, field, None)
        with pytest.raises(AttributeError):
            delattr(g, field)
        assert (g.table, g.labels, g.zero) == (((0, 1), (0, 1)), ("a", "b"), 1)

    def test_pickle_keeps_metadata(self):
        again = pickle.loads(pickle.dumps(LABELED))
        assert type(again) is Groupoid
        assert (again.table, again.labels, again.zero) == (LABELED.table, ("a", "b"), 1)
        assert repr(again) == repr(LABELED)


class TestGraphs:
    # tests/test_graphs.py covers the positional form in full
    def test_keywords_normalize_and_check(self):
        assert SimpleGraph(order=3, edges=[(2, 0), (0, 2)]).edges == frozenset({(0, 2)})
        assert Digraph(order=True, arcs=[]) == (1, frozenset())
        with pytest.raises(BadShape):
            SimpleGraph(order=2, edges=[(1, 1)])
        with pytest.raises(BadShape):
            Digraph(order=0, arcs=[])

    def test_pickle_round_trip(self):
        for graph in (SimpleGraph(3, [(2, 0)]), Digraph(3, [(2, 0)])):
            again = pickle.loads(pickle.dumps(graph))
            assert type(again) is type(graph) and again == graph

    def test_tuple_protocol(self):
        graph = SimpleGraph(2, [(1, 0)])
        assert graph == (2, frozenset({(0, 1)}))
        assert graph._fields == ("order", "edges")
        assert graph._asdict() == {"order": 2, "edges": frozenset({(0, 1)})}


def test_reports_are_immutable_tuples():
    report = classify(LABELED)
    assert report.to_dict() == report._asdict()
    assert list(report.to_dict())[:3] == ["order", "predicates", "signature_prime"]
    with pytest.raises(AttributeError):
        report.order = 3
    profile = diagonal_profile(LABELED)
    assert profile == ((0, 1), (1, 0), (1, 0), (0, 1))
    assert hash(profile) == hash(tuple(profile))


def test_claim_report_pickles_with_counterexamples():
    report = ClaimReport("c", "s", 2, "exhaustive", 3, False, "pass", (LABELED,), "n")
    again = pickle.loads(pickle.dumps(report))
    assert again == report and again.counterexamples[0].labels == ("a", "b")
    assert again.to_dict()["counterexamples"] == [{"table": [[0, 1], [0, 1]], "zero": 1}]
    assert ClaimReport("c", "s", 2, "exhaustive", 3, True, "pass", ()).note is None


def test_claim_fields_are_instance_entries():
    claim = Claim("x", "s", "pass", len)
    assert vars(claim) == {"id": "x", "statement": "s", "expected": "pass", "runner": len}


REPRS = [
    (lambda: LABELED, "Groupoid(01,01, labels=a|b, zero=1)"),
    (lambda: diagonal_profile(LABELED),
     "DiagonalProfile(main=(0, 1), anti=(1, 0), reverse=(1, 0), skew=(0, 1))"),
    (lambda: factorize(LABELED),
     "FactorPair(method='ua', left=Groupoid(01,01, labels=a|b, zero=1), "
     "right=Groupoid(00,11, labels=a|b, zero=1), "
     "composed=Groupoid(01,01, labels=a|b, zero=1), reproduces=True)"),
    (lambda: classify(LABELED),
     "ClassificationReport(order=2, predicates={'idempotent': True, 'strong': True, "
     "'locally_zero': True, 'orientation': True, 'twisted_orientation': True, "
     "'bi_diagonal': False, 'abelian': False, 'semi_neutral': False}, "
     "signature_prime=False, similar_prime=True, orient_prime=False, skew_prime=True, "
     "ua_holds=True, au_holds=True, oj_holds=True, jo_holds=True, ua_composite=False, "
     "au_composite=False, oj_composite=False, jo_composite=False, u_composite=False, "
     "j_composite=False, u_normal=True, j_normal=True, semi_normal=False, "
     "semi_composite=False)"),
    (lambda: uniqueness_search(groupoid([[0, 0], [1, 1]]), "ua"),
     "UniquenessReport(method='ua', derived=FactorPair(method='ua', left=Groupoid(00,11), "
     "right=Groupoid(00,11), composed=Groupoid(00,11), reproduces=True), solution_count=1, "
     "solutions=((Groupoid(00,11), Groupoid(00,11)),), other_solutions=(), truncated=False)"),
    (lambda: Axiom("K", True, "0∘x = 0", 1, len),
     "Axiom(name='K', needs_zero=True, description='0∘x = 0', arity=1, "
     "law=<built-in function len>)"),
    (lambda: census(1),
     "CensusReport(order=1, total=1, counts={'idempotent': 1, 'strong': 1, "
     "'locally_zero': 1, 'orientation': 1, 'twisted_orientation': 1, 'bi_diagonal': 1, "
     "'abelian': 1, 'signature_prime': 1, 'similar_prime': 1, 'orient_prime': 1, "
     "'skew_prime': 1, 'ua_holds': 1, 'au_holds': 1, 'oj_holds': 1, 'jo_holds': 1, "
     "'ua_composite': 0, 'au_composite': 0, 'oj_composite': 0, 'jo_composite': 0, "
     "'u_composite': 0, 'j_composite': 0, 'u_normal': 1, 'j_normal': 1})"),
    (lambda: ClaimReport("c", "s", 2, "exhaustive", 3, False, "pass", (LABELED,), "n"),
     "ClaimReport(claim='c', statement='s', order=2, mode='exhaustive', checked=3, "
     "passed=False, expected='pass', counterexamples=(Groupoid(01,01, labels=a|b, zero=1),), "
     "note='n')"),
    (lambda: Claim("x", "s", "pass", len),
     "Claim(id='x', statement='s', expected='pass', runner=<built-in function len>)"),
    (lambda: SimpleGraph(1, frozenset()), "SimpleGraph(order=1, edges=frozenset())"),
    (lambda: Digraph(3, [(2, 0), (0, 1)]),
     "Digraph(order=3, arcs=frozenset({(0, 1), (2, 0)}))"),
]


@pytest.mark.parametrize("build, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_unchanged(build, text):
    assert repr(build()) == text
