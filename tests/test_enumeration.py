import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

import tables
from scan_oracles import census_per_pair, randrange_tables, sweep_census
from binsys import core, enumeration, semigroup
from binsys import (
    CLAIMS,
    Claim,
    Groupoid,
    InternalError,
    OrderTooLarge,
    PreconditionError,
    REGISTRY,
    all_groupoids,
    census,
    groupoid,
    random_groupoids,
    table_count,
    verify_claims,
)


def fan_outs(caplog) -> list[str]:
    """The fan-out's "N claims on W processes" DEBUG records, untimed."""
    return [r.getMessage().split(" in ")[0] for r in caplog.records
            if " processes in " in r.getMessage()]


class TestAllGroupoids:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 16), (3, 19683)])
    def test_counts(self, n, count):
        assert table_count(n) == count
        assert len(list(all_groupoids(n))) == count

    def test_lexicographic_order(self):
        tables2 = [g.table for g in all_groupoids(2)]
        assert tables2[0] == ((0, 0), (0, 0))
        assert tables2[1] == ((0, 0), (0, 1))
        assert tables2[-1] == ((1, 1), (1, 1))
        assert tables2 == sorted(tables2)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            list(all_groupoids(4))

    @pytest.mark.parametrize("order", [0, -1, 2.5, 2.0, "2"])
    def test_order_below_one(self, order):
        # a non-integer is refused, not truncated, and named
        with pytest.raises(PreconditionError) as exc:
            all_groupoids(order)
        assert repr(order) in str(exc.value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_regroup_the_flat_product(self, n):
        # ascending row-major: the flat cell tuples cut into rows
        flat = itertools.product(range(n), repeat=n * n)
        expected = tuple(tuple(f[i * n:(i + 1) * n] for i in range(n)) for f in flat)
        got = enumeration._all_tables(n)
        assert got == expected
        if n == 3:
            # the 19,683 tables share the 27 row tuples
            assert len({id(row) for t in got for row in t}) == 27

    def test_cache_returns_fresh_iterators(self):
        first = list(all_groupoids(2))
        second = list(all_groupoids(2))
        assert first == second


class TestRandomGroupoids:
    @pytest.mark.parametrize("order", [0, -1, 2.5, 2.0])
    def test_order_below_one(self, order):
        with pytest.raises(PreconditionError) as exc:
            next(random_groupoids(order, 1, 0))
        assert repr(order) in str(exc.value)

    @pytest.mark.parametrize("count", [-1, -5, 2.5, 2.0, "3", None])
    def test_bad_count(self, count):
        # a count below 0 or not an integer is refused and named at the
        # call, before anything is drawn
        with pytest.raises(PreconditionError) as exc:
            random_groupoids(2, count, 0)
        assert repr(count) in str(exc.value)
        assert str(exc.value).startswith("count must be")

    def test_deterministic(self):
        a = list(random_groupoids(4, 10, seed=5))
        b = list(random_groupoids(4, 10, seed=5))
        assert a == b

    def test_seed_matters(self):
        a = list(random_groupoids(4, 10, seed=5))
        b = list(random_groupoids(4, 10, seed=6))
        assert a != b

    def test_cells_in_range(self):
        for g in random_groupoids(5, 20, seed=0):
            assert g.order == 5


class TestRandomTablesMatchRandrange:
    """Cells are drawn a block of RNG words at a time; the tables must be
    the ones that ``randrange`` gives cell by cell."""

    @staticmethod
    def first_block_tables(order, seed):
        # how many whole tables the first block of words holds
        rng = random.Random(seed)
        return len(next(enumeration._randbelow_blocks(rng, order))) // (order * order)

    @pytest.mark.parametrize("seed", [0, 7, "3:assoc1"])
    @pytest.mark.parametrize("order", range(1, 10))
    def test_across_block_boundaries(self, order, seed):
        block = self.first_block_tables(order, seed)
        for count in (-1, 0, 1, block - 1, block, block + 1, 3 * block + 2):
            expected = list(randrange_tables(order, count, seed))
            assert list(enumeration._random_tables(order, count, seed)) == expected
            if count >= 0:  # random_groupoids refuses a negative count
                assert [g.table for g in random_groupoids(order, count, seed)] == expected

    @pytest.mark.parametrize("seed", [1, "x"])
    def test_order_above_a_byte(self, seed):
        # one order-256 table takes many blocks; half the words are rejected
        expected = list(randrange_tables(256, 1, seed))
        assert list(enumeration._random_tables(256, 1, seed)) == expected

    # 128/129 and 255/256 sit on either side of a bit-length step and of
    # the cut between the byte path and the randrange path
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 128, 129, 255, 256, 19683, 2**31, 2**32 - 1])
    def test_values_below_any_bound(self, n):
        rng = random.Random(n)
        expected = [rng.randrange(n) for _ in range(10_000)]
        values = itertools.chain.from_iterable(
            enumeration._randbelow_blocks(random.Random(n), n)
        )
        assert list(itertools.islice(values, 10_000)) == expected

    @pytest.mark.parametrize("order", [2, 6, 255])
    def test_tables_are_frozen(self, order):
        # the byte path yields ints, so Groupoid keeps a drawn table as it is
        for t in enumeration._random_tables(order, 3, seed=order):
            assert core._is_frozen(t)
            assert Groupoid(t).table is t

    def test_lazy(self):
        first = next(enumeration._random_tables(3, 10**12, seed=0))
        assert first == next(randrange_tables(3, 1, seed=0))


class TestCensus:
    def test_order_two_frozen(self):
        rep = census(2)
        assert rep.total == 16
        assert rep.counts == tables.CENSUS2

    def test_order_three_frozen(self):
        rep = census(3)
        assert rep.total == 19683
        assert rep.counts == tables.CENSUS3

    def test_order_one(self):
        rep = census(1)
        assert rep.total == 1
        assert rep.counts["locally_zero"] == 1
        assert rep.counts["u_composite"] == 0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_sweep(self, order):
        counts = census(order).counts
        assert list(counts) == list(enumeration.CENSUS_KEYS)
        assert counts == sweep_census(order)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_keys_are_the_terms(self, order):
        assert tuple(enumeration._census_terms(order)) == enumeration.CENSUS_KEYS

    def test_order_four_exact(self):
        rep = census(4)
        assert rep.total == 4_294_967_296
        assert rep.counts["strong"] == 764_411_904
        assert rep.counts["abelian"] == 1_048_576
        assert rep.counts["locally_zero"] == 64
        assert rep.counts["ua_holds"] == 1_323_219_736

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_forms(self, n):
        rep = census(n)
        pairs = math.comb(n, 2)
        assert all(type(c) is int for c in rep.counts.values())
        assert rep.total == table_count(n)
        assert rep.counts["strong"] == n**n * (n * (n - 1)) ** pairs
        assert rep.counts["abelian"] == n ** (n * (n + 1) // 2)
        # a diagonal with k fixed points leaves n(n-1) + k ua values per pair
        assert rep.counts["ua_holds"] == sum(
            math.comb(n, k) * (n - 1) ** (n - k) * (n * (n - 1) + k) ** pairs
            for k in range(n + 1)
        )
        assert rep.counts["au_holds"] == rep.counts["oj_holds"] == rep.total

    @pytest.mark.parametrize("order", [0, -1, 2.5, 3.0])
    def test_order_below_one(self, order):
        with pytest.raises(PreconditionError) as exc:
            census(order)
        assert repr(order) in str(exc.value)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pair_classes_match_per_pair_product(self, n):
        assert census(n).counts == census_per_pair(n)

    def test_worker_count_does_not_change_results(self):
        assert census(2, workers=3).counts == tables.CENSUS2

    def test_forced_parallel_census(self):
        # census takes workers= because the perfbench exhaustive-o3 workload
        # passes it (perfbench/workloads.py); it has no effect
        assert census(3, workers=2).counts == tables.CENSUS3

    def test_debug_log(self, caplog):
        caplog.set_level(logging.DEBUG, logger="binsys")
        census(3)
        messages = [r.getMessage() for r in caplog.records if r.name == "binsys"]
        assert len(messages) == 1
        assert messages[0].startswith("order-3 census in ")
        assert messages[0].endswith(" s")

    def test_no_log_by_default(self, caplog):
        census(3)
        assert not [r for r in caplog.records if r.name == "binsys"]


class TestThreadsEnv:
    def test_invalid_env_value(self, monkeypatch):
        monkeypatch.setenv("BINSYS_THREADS", "many")
        with pytest.raises(PreconditionError):
            verify_claims(2)

    def test_zero_env_value(self, monkeypatch):
        monkeypatch.setenv("BINSYS_THREADS", "0")
        with pytest.raises(PreconditionError):
            verify_claims(2)

    def test_env_respected(self, monkeypatch, caplog):
        monkeypatch.setenv("BINSYS_THREADS", "2")
        text = json.dumps([r.to_dict() for r in verify_claims(2)])
        assert hashlib.sha256(text.encode()).hexdigest() == tables.VERIFY_DIGESTS[2]
        caplog.set_level(logging.DEBUG, logger="binsys")
        forked = [r.to_dict() for r in verify_claims(4, sample=100, seed=4)]
        assert fan_outs(caplog) == ([f"{len(CLAIMS)} claims on 2 processes"]
                                    if enumeration._fork_context() else [])
        assert forked == [r.to_dict() for r in verify_claims(4, sample=100, seed=4, workers=1)]


class TestWithoutFork:
    """Where multiprocessing has no ``fork`` start method, every job runs
    in-process with the same results."""

    @pytest.fixture
    def probes(self, monkeypatch):
        seen = []

        def no_fork(method):
            seen.append(method)
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        return seen

    def test_census(self, probes):
        # the census forks nothing, so it does not probe
        assert census(3, workers=2).counts == tables.CENSUS3
        assert probes == []

    def test_verify_claims(self, probes):
        forked = [r.to_dict() for r in verify_claims(4, sample=100, seed=2, workers=2)]
        assert probes == ["fork"]
        assert forked == [r.to_dict() for r in verify_claims(4, sample=100, seed=2, workers=1)]

    def test_no_claims(self, probes):
        # no claim to run: in-process, and the fan-out is never reached
        assert verify_claims(4, sample=100, seed=2, claims=[], workers=2) == []


@pytest.mark.skipif(enumeration._fork_context() is None, reason="needs fork")
class TestFanOutFailures:
    """A claim that raises, or a worker that ends without sending, fails the
    run at once and leaves no process or thread behind."""

    IDS = ["fan-out-failure"] * 4

    @pytest.fixture
    def claim(self, monkeypatch):
        """Install a claim whose runner is ``run(in_parent)``; four copies
        of it on two processes, so that the child takes at least one."""
        parent = os.getpid()

        def install(run):
            monkeypatch.setitem(REGISTRY, self.IDS[0], Claim(
                self.IDS[0], "", "pass", lambda ctx: run(os.getpid() == parent)))

        return install

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a run that waits for a result that never comes fails here instead of hanging
        def expire(signum, frame):
            raise TimeoutError("verify_claims did not return")

        threads = threading.active_count()
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def run(self):
        return verify_claims(4, sample=600, seed=1, claims=self.IDS, workers=2)

    @staticmethod
    def in_child(fail):
        """A runner that sleeps in the parent and calls ``fail`` in a child."""
        def run(in_parent):
            if in_parent:
                time.sleep(0.2)
                return 0, [], None
            return fail()

        return run

    def test_claim_raises_in_a_child(self, claim):
        claim(self.in_child(lambda: 1 // 0))
        with pytest.raises(ZeroDivisionError):
            self.run()

    def test_claim_raises_everywhere(self, claim):
        claim(lambda in_parent: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            self.run()

    def test_child_exits_without_sending(self, claim):
        claim(self.in_child(lambda: os._exit(7)))
        start = time.perf_counter()
        with pytest.raises(InternalError, match="exited with code 7"):
            self.run()
        assert time.perf_counter() - start < 10


class TestRegistry:
    def test_ids_unique_and_indexed(self):
        assert len({c.id for c in CLAIMS}) == len(CLAIMS) == 40
        assert all(REGISTRY[c.id] is c for c in CLAIMS)

    def test_expected_fail_claims(self):
        failers = {c.id for c in CLAIMS if c.expected == "fail"}
        assert failers == {
            "prop-3.2.10-statement",
            "prop-5.9-magma",
            "center-agreement",
        }


class TestVerifyClaims:
    def test_order_one_all_pass(self):
        for rep in verify_claims(1):
            assert rep.passed, rep.claim

    def test_order_two_failures_are_expected(self):
        reports = {r.claim: r for r in verify_claims(2)}
        failing = {cid for cid, r in reports.items() if not r.passed}
        assert failing == {"prop-3.2.10-statement", "prop-5.9-magma"}

    def test_known_counterexamples_at_order_two(self):
        reports = {r.claim: r for r in verify_claims(2)}
        stmt = reports["prop-3.2.10-statement"]
        assert len(stmt.counterexamples) == 3
        found = {ce.table for ce in stmt.counterexamples}
        assert ((1, 0), (1, 0)) in found
        magma = reports["prop-5.9-magma"]
        assert magma.counterexamples[0].table == ((0, 0), (0, 0))

    def test_subset_run_in_given_order(self):
        reports = verify_claims(
            2, claims=["thm-4.1.2-oj-universal", "thm-2.4-identity"]
        )
        assert [r.claim for r in reports] == [
            "thm-4.1.2-oj-universal", "thm-2.4-identity",
        ]
        assert all(r.passed for r in reports)

    def test_unknown_claim_id(self):
        with pytest.raises(ValueError):
            verify_claims(2, claims=["thm-0.0-missing"])

    @pytest.mark.parametrize("claim", [["x"], {"thm-2.4-identity"}, 7], ids=["list", "set", "int"])
    def test_unhashable_or_non_string_claim_id(self, claim):
        with pytest.raises(ValueError, match="unknown claim ids"):
            verify_claims(1, claims=[claim])

    @pytest.mark.parametrize("claims", ["center-agreement", "x", ""])
    def test_bare_string_is_not_a_claim_list(self, claims):
        # a string is a sequence of one-character ids; name it whole instead
        with pytest.raises(ValueError) as info:
            verify_claims(2, claims=claims)
        message = str(info.value)
        assert repr(claims) in message
        assert "sequence of claim ids" in message
        assert "unknown claim ids" not in message

    def test_exhaustive_order_cap(self):
        with pytest.raises(OrderTooLarge):
            verify_claims(4)

    @pytest.mark.parametrize("order", [0, -1, 2.5, 4.0])
    @pytest.mark.parametrize("sample", [None, 5])
    def test_order_below_one(self, order, sample):
        with pytest.raises(PreconditionError) as exc:
            verify_claims(order, sample=sample)
        assert repr(order) in str(exc.value)

    def test_sampled_mode(self):
        reports = verify_claims(4, sample=200, seed=3)
        assert all(r.mode == "sampled" for r in reports)
        by_id = {r.claim: r for r in reports}
        assert by_id["thm-3.2.3-au-universal"].passed
        assert by_id["thm-3.2.3-au-universal"].checked == 200

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_reports_frozen(self, order):
        # exhaustive at orders 2 and 3; seeded samples above
        sample, seed = (None, None) if order <= 3 else (200, 1)
        reports = verify_claims(order, sample=sample, seed=seed)
        text = json.dumps([r.to_dict() for r in reports])
        assert hashlib.sha256(text.encode()).hexdigest() == tables.VERIFY_DIGESTS[order]

    def test_sampled_mode_deterministic(self):
        a = [r.to_dict() for r in verify_claims(4, sample=50, seed=1)]
        b = [r.to_dict() for r in verify_claims(4, sample=50, seed=1)]
        assert a == b

    def test_bad_sample_count(self):
        with pytest.raises(PreconditionError):
            verify_claims(4, sample=0)

    @pytest.mark.parametrize("workers", [0, -1, 2.5, "2"])
    def test_bad_worker_count(self, workers):
        # refused and named before any claim runs, as a bad sample count is
        with pytest.raises(PreconditionError) as exc:
            verify_claims(2, workers=workers)
        assert repr(workers) in str(exc.value)
        assert str(exc.value).startswith("worker count must be")

    @pytest.mark.parametrize("sample", [2.7, 3.0, "3"])
    def test_non_integer_sample_count(self, sample):
        # a non-integer count is refused and named, never truncated
        with pytest.raises(PreconditionError) as exc:
            verify_claims(4, sample=sample)
        assert repr(sample) in str(exc.value)

    def test_min_order_notes(self):
        reports = {r.claim: r for r in verify_claims(1)}
        rz = reports["thm-4.3.3-right-zero-j-composite"]
        assert rz.checked == 0
        assert rz.note is not None
        semi = reports["cor-5.5-strong-b1-semi-normal"]
        assert semi.checked == 0

    def test_right_zero_claim_skips_order_two(self):
        reports = {r.claim: r for r in verify_claims(2)}
        assert reports["thm-4.3.3-right-zero-j-composite"].checked == 0

    def test_report_dict_shape(self):
        rep = verify_claims(2, claims=["thm-2.4-identity"])[0]
        d = rep.to_dict()
        assert list(d) == [
            "claim", "statement", "order", "mode", "checked", "passed",
            "expected", "counterexamples", "note",
        ]
        assert d["claim"] == "thm-2.4-identity"
        assert d["passed"] is True
        assert d["order"] == 2
        assert d["mode"] == "exhaustive"
        assert d["checked"] == 16
        assert d["counterexamples"] == []

    def test_workers_do_not_change_reports(self, caplog):
        # 100 tables x 40 claims is heavy enough for the fan-out
        caplog.set_level(logging.DEBUG, logger="binsys")
        forked = [r.to_dict() for r in verify_claims(4, sample=100, seed=4, workers=2)]
        assert fan_outs(caplog) == ([f"{len(CLAIMS)} claims on 2 processes"]
                                    if enumeration._fork_context() else [])
        assert forked == [r.to_dict() for r in verify_claims(4, sample=100, seed=4, workers=1)]

    def test_workers_do_not_change_exhaustive_reports(self, caplog):
        # all 19,683 order-3 tables x 3 claims fork too; center-agreement
        # fails at order 3, so its counterexample Groupoids cross the pipe
        ids = ["thm-2.4-identity", "prop-2.5-right-zero-strong", "center-agreement"]
        caplog.set_level(logging.DEBUG, logger="binsys")
        forked = verify_claims(3, claims=ids, workers=2)
        assert fan_outs(caplog) == (["3 claims on 2 processes"]
                                    if enumeration._fork_context() else [])
        assert [r.claim for r in forked] == ids
        assert len(forked[2].counterexamples) == enumeration.MAX_COUNTEREXAMPLES
        in_process = verify_claims(3, claims=ids, workers=1)
        assert [r.to_dict() for r in forked] == [r.to_dict() for r in in_process]

    def test_no_claims(self, caplog):
        caplog.set_level(logging.DEBUG, logger="binsys")
        assert verify_claims(3, claims=[], workers=2) == []
        assert fan_outs(caplog) == []

    @pytest.mark.skipif(enumeration._fork_context() is None, reason="needs fork")
    def test_shared_counter_with_more_workers_than_cores(self, monkeypatch, tmp_path, caplog):
        # four claim-running processes share one next-claim counter: a lost
        # or doubled update would skip or repeat a claim
        runs = tmp_path / "runs"
        run_claim = enumeration._run_claim

        def logged(claim, ctx):
            with open(runs, "a") as f:
                f.write(f"{claim.id}\n")
            return run_claim(claim, ctx)

        monkeypatch.setattr(enumeration, "_run_claim", logged)
        monkeypatch.setenv("BINSYS_THREADS", "4")
        caplog.set_level(logging.DEBUG, logger="binsys")
        forked = [r.to_dict() for r in verify_claims(4, sample=300, seed=5)]
        assert sorted(runs.read_text().split()) == sorted(c.id for c in CLAIMS)
        assert fan_outs(caplog) == [f"{len(CLAIMS)} claims on 4 processes"]
        monkeypatch.delenv("BINSYS_THREADS")
        assert forked == [r.to_dict() for r in verify_claims(4, sample=300, seed=5, workers=1)]

    def test_counterexample_carries_its_zero(self):
        # the zero-under-test domain draws each constant-diagonal table once,
        # with its diagonal value as the zero; hypothesis and conclusion see
        # that (t, z), and a failing pair is built as a Groupoid with its zero
        seen = []

        def hypothesis(t, z):
            seen.append((t, z))
            return True

        claim = enumeration._universal(
            "zero-one-fails", "", lambda t, z: z != 1, hypothesis, cases=enumeration._zeroed,
        )
        ctx = enumeration.ClaimContext(3, "exhaustive", samples=enumeration._all_tables(3))
        checked, cexs, _ = claim.runner(ctx)
        pool = [g.table for g in all_groupoids(3)]
        constant = [t for t in pool if len({t[x][x] for x in range(3)}) == 1]
        assert len(constant) == 3 * 3 ** 6
        assert seen == [(t, t[0][0]) for t in constant]
        assert all(type(t) is tuple for t, _ in seen)
        assert checked == len(constant)
        assert all(isinstance(c, Groupoid) for c in cexs)
        assert [(c.table, c.zero) for c in cexs] == [
            (t, 1) for t in constant if t[0][0] == 1
        ][:enumeration.MAX_COUNTEREXAMPLES]

    def test_tally_records_the_first_failures(self):
        # the one count-and-record loop: every case counted, the first
        # MAX_COUNTEREXAMPLES failing cases kept, flattened or zeroed
        cap = enumeration.MAX_COUNTEREXAMPLES
        pool = [g.table for g in all_groupoids(2)]
        pairs = [(a, b) for a in pool for b in pool]
        checked, cexs = enumeration._tally(pairs, lambda a, b: a == b)
        failing = [(a, b) for a, b in pairs if a != b][:cap]
        assert checked == len(pairs)
        assert [c.table for c in cexs] == [t for pair in failing for t in pair]
        checked, cexs = enumeration._tally(
            ((t, 1) for t in pool), lambda t, z: t[0][0] == z, zeroed=True,
        )
        assert checked == len(pool)
        assert [(c.table, c.zero) for c in cexs] == [
            (t, 1) for t in pool if t[0][0] != 1
        ][:cap]
        assert enumeration._tally(iter(()), lambda: False) == (0, [])

    def test_groupoid_constructions_bounded(self, monkeypatch):
        # The main sample, claims, predicates, side domains and the
        # uniqueness count read raw tables; a Groupoid is built only for a
        # classify call and a recorded counterexample.  Measured: 13,072
        # constructions when every claim wrapped its derived factors,
        # composites and zeroed copies in a Groupoid; 3,491 with raw-table
        # claims; 201 with raw side domains and uniqueness counts (the
        # main sample was still Groupoids); 19 with a raw main sample and
        # the (t, z) claim contract.
        calls = 0
        validate = Groupoid.__post_init__

        def counting(self):
            nonlocal calls
            calls += 1
            validate(self)

        monkeypatch.setattr(Groupoid, "__post_init__", counting)
        verify_claims(5, sample=200, seed=1, workers=1)
        assert 0 < calls <= 19

    def test_debug_log(self, caplog):
        caplog.set_level(logging.DEBUG, logger="binsys")
        verify_claims(2, claims=["thm-2.4-identity", "prop-5.9-magma"])
        verify_claims(4, sample=20, seed=1, claims=["thm-2.4-associative"], workers=1)
        messages = [r.getMessage() for r in caplog.records if r.name == "binsys"]
        assert len(messages) == 5
        assert messages[0].startswith("order-2 table cache ready in ")
        assert messages[1].startswith("claim thm-2.4-identity: 16 checked in ")
        # the 8 symmetric order-2 tables
        assert messages[2].startswith("claim prop-5.9-magma: 8 checked in ")
        assert messages[3].startswith("drew 20 order-4 tables in ")
        assert messages[4].startswith("claim thm-2.4-associative: 20 checked in ")
        assert all(m.endswith(" s") for m in messages)

    def test_no_log_by_default(self, caplog):
        verify_claims(2, claims=["thm-2.4-identity"])
        assert not [r for r in caplog.records if r.name == "binsys"]


def test_logging_left_unloaded():
    # no handler can show a record before logging is imported, so the
    # census and the verifier skip their DEBUG lines rather than load it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from binsys import census, verify_claims; "
         "census(3); verify_claims(1); print('logging' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestAssociativeClaim:
    @pytest.fixture
    def wrong_compose(self, monkeypatch):
        # the claim checks whichever ⋄ the verifier binds, through the map
        # compiled for the order: one wrong cell, (0, 1) read as
        # h(g(0, 1), g(0, 1)), must fail it
        @semigroup._cellwise
        def wrong(n, x, y):
            return "u[t0_1][t0_1]" if (x, y) == (0, 1) else f"u[t{x}_{y}][t{y}_{x}]"

        monkeypatch.setattr(enumeration, "_compose", wrong)

    @pytest.mark.parametrize("order, checked", [(2, 4096), (3, 100_000)])
    def test_wrong_cell_fails(self, order, checked, wrong_compose):
        rep = verify_claims(order, claims=["thm-2.4-associative"], workers=1)[0]
        assert (rep.checked, rep.passed) == (checked, False)
        assert rep.counterexamples

    @pytest.mark.parametrize("order", [4, 5, 6])
    def test_wrong_cell_fails_sampled(self, order, wrong_compose):
        # a sampled run picks its triples from the sample it drew
        rep = verify_claims(order, sample=50, seed=1, claims=["thm-2.4-associative"],
                            workers=1)[0]
        assert (rep.checked, rep.passed) == (50, False)
        assert len(rep.counterexamples) == 3 * enumeration.MAX_COUNTEREXAMPLES


class TestSideDomains:
    """The seeded side domains of a sampled run, which the claims over them
    (all passing at these orders) never expose in a report."""

    @staticmethod
    def draws(order, seed):
        samples = tuple(enumeration._random_tables(order, 50, seed))
        ctx = enumeration.ClaimContext(order, "sampled", seed=seed, samples=samples)
        return list(ctx.op_tables()), list(ctx.locally_zero_tables())

    @pytest.mark.parametrize("order", [4, 5, 6])
    def test_seeded_draws(self, order):
        op, lz = self.draws(order, 1)
        assert len(op) == len(lz) == 50
        assert all(map(core._orientation, op))
        assert all(map(core._locally_zero, lz))
        assert self.draws(order, 1) == (op, lz)
        other_op, other_lz = self.draws(order, 2)
        assert other_op != op and other_lz != lz
        digests = tuple(hashlib.sha256(repr(d).encode()).hexdigest() for d in (op, lz))
        assert digests == tables.SIDE_DIGESTS[order]

    @pytest.mark.parametrize("mode, order", [("exhaustive", 3), ("sampled", 5)])
    def test_locally_zero_tables_drawn_once(self, mode, order, monkeypatch):
        # cor-2.7 and prop-2.8 both read the locally-zero tables: the
        # context draws them on the first read and keeps them
        samples = tuple(enumeration._random_tables(order, 50, 1))
        ctx = enumeration.ClaimContext(order, mode, seed=1, samples=samples)
        salts = []
        rng = ctx.rng
        monkeypatch.setattr(ctx, "rng", lambda salt: salts.append(salt) or rng(salt))
        first = ctx.locally_zero_tables()
        assert ctx.locally_zero_tables() is first
        assert salts == ([] if mode == "exhaustive" else ["graphs"])
        assert len(first) == (2 ** 3 if mode == "exhaustive" else 50)


class TestCenterAgreementClaim:
    def test_passes_below_order_three(self):
        reports = {r.claim: r for r in verify_claims(2)}
        assert reports["center-agreement"].passed

    def test_fails_at_order_three(self):
        rep = verify_claims(3, claims=["center-agreement"])[0]
        assert not rep.passed
        assert rep.expected == "fail"
        mixed = groupoid(tables.MIXED3)
        assert any(ce == mixed for ce in rep.counterexamples)

    def test_runs_no_product(self, monkeypatch):
        # centrality is decided in closed form; a commuting scan would
        # call the ⋄ kernel up to 2 * 19,683 times per table
        calls = 0
        compose = semigroup._compose

        def counting(gt, ht):
            nonlocal calls
            calls += 1
            return compose(gt, ht)

        monkeypatch.setattr(semigroup, "_compose", counting)
        monkeypatch.setattr(enumeration, "_compose", counting)
        rep = verify_claims(3, claims=["center-agreement"], workers=1)[0]
        assert rep.checked == 19683
        assert calls == 0

    def test_sampled_orders_keep_their_report(self):
        rep = verify_claims(5, sample=10, seed=1, claims=["center-agreement"])[0]
        assert (rep.checked, rep.counterexamples) == (0, ())
        assert rep.note == "exhaustive center scan is defined only up to order 3"
        assert rep.statement == (
            "the fast centrality test agrees with the exhaustive commuting scan"
        )
