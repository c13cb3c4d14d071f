"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and a session finalizer repeats the table on the real stdout so the
verdicts survive output capture.
"""

import sys
import time

import pytest

import tables
from binsys import (
    algebra_classes,
    all_graphs,
    all_groupoids,
    census,
    classify,
    factorize,
    from_graph,
    groupoid,
    is_partially_prime,
    is_strong,
    left_zero,
    orient_factor,
    product,
    random_groupoids,
    right_zero,
    signature_factor,
    similar_factor,
    skew_factor,
    to_graph,
    uniqueness_search,
    verify_claims,
)
from binsys.factorization import au_holds, oj_holds, ua_holds

RESULTS = []


def record(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number}: {verdict} - {name}{suffix}"
    RESULTS.append(line)
    print(line)
    assert passed, line


def rows(g):
    return [list(r) for r in g.table]


def test_criterion_1_golden_factor_tables():
    t0 = time.time()
    checks = []

    bci4 = groupoid(tables.BCI4)
    checks.append(rows(signature_factor(bci4)) == tables.BCI4_U)
    checks.append(rows(similar_factor(bci4)) == tables.BCI4_A)

    rand5 = groupoid(tables.RAND5)
    checks.append(rows(signature_factor(rand5)) == tables.RAND5_U)
    checks.append(rows(similar_factor(rand5)) == tables.RAND5_A)
    pair = factorize(rand5, "ua")
    checks.append(not pair.reproduces)
    checks.append(rows(pair.composed) == tables.RAND5_UA)

    d5 = groupoid(tables.D5)
    checks.append(rows(signature_factor(d5)) == tables.D5_U)
    checks.append(rows(similar_factor(d5)) == tables.D5_A)
    checks.append(factorize(d5, "ua").composed == d5)
    checks.append(factorize(d5, "au").composed == d5)

    cyc3 = groupoid(tables.CYC3)
    checks.append(rows(signature_factor(cyc3)) == tables.CYC3_U)
    checks.append(rows(similar_factor(cyc3)) == tables.CYC3_A)
    checks.append(factorize(cyc3, "au").composed == cyc3)
    checks.append(rows(factorize(cyc3, "ua").composed) == tables.CYC3_UA)

    rz3 = right_zero(3)
    checks.append(signature_factor(rz3) == rz3)
    checks.append(similar_factor(rz3) == left_zero(3))
    checks.append(rows(skew_factor(rz3)) == tables.RZ3_J)
    checks.append(factorize(rz3, "oj").composed == rz3)

    op4 = groupoid(tables.OP4)
    checks.append(rows(orient_factor(op4)) == tables.OP4_O)
    checks.append(rows(skew_factor(op4)) == tables.OP4_J)
    checks.append(factorize(op4, "oj").composed == op4)

    loc6 = groupoid(tables.LOC6)
    checks.append(rows(orient_factor(loc6)) == tables.LOC6_O)
    checks.append(rows(skew_factor(loc6)) == tables.LOC6_J)
    checks.append(skew_factor(groupoid(tables.LOC6_O)) == left_zero(6))
    checks.append(skew_factor(groupoid(tables.LOC6_J)) == loc6)
    checks.append(product(groupoid(tables.LOC6_O), loc6) == groupoid(tables.LOC6_J))

    group4 = groupoid(tables.GROUP4)
    checks.append(rows(orient_factor(group4)) == tables.GROUP4_O)
    checks.append(skew_factor(group4) == group4)

    bck3 = groupoid(tables.BCK3)
    checks.append(signature_factor(bck3) == left_zero(3))
    checks.append(similar_factor(bck3) == bck3)
    checks.append(rows(orient_factor(bck3)) == tables.BCK3_O)
    checks.append(rows(skew_factor(bck3)) == tables.BCK3_J)
    checks.append(factorize(bck3, "oj").composed == bck3)

    q3 = groupoid(tables.Q3)
    checks.append(rows(signature_factor(q3)) == tables.Q3_U)
    checks.append(rows(similar_factor(q3)) == tables.Q3_A)
    checks.append(factorize(q3, "ua").composed == q3)

    elapsed = time.time() - t0
    record(
        1,
        "golden factor tables and products",
        all(checks) and elapsed < 1.0,
        f"{len(checks)} table checks in {elapsed:.2f}s",
    )


def test_criterion_2_classification_verdicts():
    t0 = time.time()
    checks = []

    bi3 = classify(groupoid(tables.BCK3, zero=0))
    checks.append(bi3.signature_prime)
    checks.append(bi3.u_normal)
    checks.append(bi3.predicates["semi_neutral"])
    checks.append(bi3.oj_composite)

    cyc3 = classify(groupoid(tables.CYC3))
    checks.append(cyc3.au_composite)
    checks.append(not cyc3.u_normal)

    d5 = classify(groupoid(tables.D5))
    checks.append(d5.u_composite)

    q3 = classify(groupoid(tables.Q3, zero=0))
    checks.append(q3.semi_composite)

    group4 = groupoid(tables.GROUP4)
    checks.append(
        is_partially_prime(group4, orient_factor(group4), side="left")
    )

    elapsed = time.time() - t0
    record(
        2,
        "classification verdicts",
        all(checks) and elapsed < 1.0,
        f"{len(checks)} verdicts in {elapsed:.2f}s",
    )


def test_criterion_3_axiom_suite():
    t0 = time.time()
    bci4 = algebra_classes(groupoid(tables.BCI4, zero=0))
    d5 = algebra_classes(groupoid(tables.D5, zero=0))
    bck3 = algebra_classes(groupoid(tables.BCK3, zero=0))
    ok = (
        "BCI" in bci4 and "BCK" not in bci4
        and "strong-d" in d5 and "BCK" not in d5
        and "BI" in bck3
    )
    elapsed = time.time() - t0
    record(3, "axiom suite verdicts", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_4_exhaustive_theorem_oracle():
    t0 = time.time()
    total_checked = 0
    bad = []
    for order in (1, 2, 3):
        for rep in verify_claims(order):
            total_checked += rep.checked
            if rep.expected == "pass" and not rep.passed:
                bad.append((order, rep.claim))
    elapsed = time.time() - t0
    record(
        4,
        "exhaustive theorem oracle at orders 1-3",
        not bad and elapsed < 120.0,
        f"{total_checked} claim evaluations in {elapsed:.1f}s; unexpected failures: {bad or 'none'}",
    )


def test_criterion_5_uniqueness_oracle():
    t0 = time.time()
    ok = True
    ua_exceptions = 0
    for order in (1, 2, 3):
        for g in all_groupoids(order):
            oj = uniqueness_search(g, "oj")
            ok = ok and oj.solution_count == 1 and oj.derived.reproduces
            if is_strong(g):
                ua = uniqueness_search(g, "ua")
                ok = ok and ua.solution_count == 1 and ua.derived.reproduces
            elif ua_holds(g) and uniqueness_search(g, "ua").solution_count != 1:
                ua_exceptions += 1
    elapsed = time.time() - t0
    # The diagonal-substitution family is only pinned down by strongness:
    # 2,159 non-strong tables reproduce under it without being unique.
    record(
        5,
        "factorization uniqueness oracle",
        ok and ua_exceptions == 2159 and elapsed < 300.0,
        f"oj unique everywhere, ua unique on strong, "
        f"{ua_exceptions} non-strong multi-solution tables in {elapsed:.1f}s",
    )


def test_criterion_6_census_regression():
    rep2 = census(2)
    rep3 = census(3)
    ok = (
        rep2.counts["strong"] == 8
        and rep2.counts["locally_zero"] == 2
        and rep2.counts["orientation"] == 4
        and rep2.counts["au_holds"] == 16
        and rep2.counts["oj_holds"] == 16
        and rep2.total == 16
        and rep3.total == 19683
        and rep3.counts["au_holds"] == 19683
        and rep3.counts["oj_holds"] == 19683
        and rep2.counts == tables.CENSUS2
        and rep3.counts == tables.CENSUS3
    )
    record(6, "census regression", ok, "orders 2 and 3")


def test_criterion_7_discrepancy_reports():
    reports = {r.claim: r for r in verify_claims(2)}

    stmt = reports["prop-3.2.10-statement"]
    stmt_tables = {ce.table for ce in stmt.counterexamples}
    stmt_ok = (
        not stmt.passed
        and len(stmt.counterexamples) == 3
        and ((1, 0), (1, 0)) in stmt_tables
    )

    magma = reports["prop-5.9-magma"]
    magma_ok = (
        not magma.passed
        and magma.counterexamples[0] == groupoid([[0, 0], [0, 0]])
    )

    proof_ok = all(
        reports[cid].passed
        for cid in ("prop-3.2.10-proof", "prop-5.9-group")
    )
    order3 = {
        r.claim: r
        for r in verify_claims(
            3, claims=["prop-3.2.10-proof", "prop-5.9-group"]
        )
    }
    proof_ok = proof_ok and all(r.passed for r in order3.values())

    record(
        7,
        "known-false statements refuted, proof readings pass",
        stmt_ok and magma_ok and proof_ok,
        "3 + 4 counterexamples at order 2",
    )


def test_criterion_8_graph_bridge():
    t0 = time.time()
    count = 0
    ok = True
    for n in range(1, 6):
        for graph in all_graphs(n):
            count += 1
            ok = ok and to_graph(from_graph(graph)) == graph
    star = groupoid(tables.STAR4)
    ok = ok and sorted(to_graph(star).edges) == tables.STAR4_EDGES
    ok = ok and rows(from_graph(to_graph(star))) == tables.STAR4
    ok = ok and len(to_graph(left_zero(5)).edges) == 10
    ok = ok and not to_graph(right_zero(5)).edges
    elapsed = time.time() - t0
    record(
        8,
        "graph bridge round-trip",
        ok and count == 1099 and elapsed < 1.0,
        f"{count} graphs in {elapsed:.2f}s",
    )


def test_criterion_9_sampled_property_check():
    t0 = time.time()
    ok = True
    for order in (4, 5):
        for g in random_groupoids(order, 100_000, seed=0):
            if not (au_holds(g) and oj_holds(g)):
                ok = False
                break
    strong_hits = sum(
        1 for g in random_groupoids(3, 100_000, seed=0) if is_strong(g)
    )
    fraction = strong_hits / 100_000
    exact = 5832 / 19683
    drift = abs(fraction - exact)
    elapsed = time.time() - t0
    record(
        9,
        "sampled factorization identities and strong fraction",
        ok and drift < 0.02 and elapsed < 60.0,
        f"10^5 samples at orders 4+5 all reproduce; strong fraction "
        f"{fraction:.4f} vs {exact:.4f} in {elapsed:.1f}s",
    )


@pytest.fixture(scope="session", autouse=True)
def _summary_banner():
    yield
    if RESULTS:
        lines = ["", "=" * 64, "ACCEPTANCE SUMMARY", "=" * 64]
        lines.extend(RESULTS)
        lines.append("=" * 64)
        print("\n".join(lines), file=sys.__stdout__)
