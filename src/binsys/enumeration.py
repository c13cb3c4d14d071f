"""Table streams, the census of an order, and claim sweeps.

Three entry points:

* ``all_groupoids`` / ``random_groupoids`` — the table streams, in row-major
  lexicographic order (respectively i.i.d. uniform cells from a seed,
  exactly those of ``randrange`` cell by cell, drawn in blocks).
* ``census`` — exact predicate and classification counts over all tables
  of an order, at any order.  It counts the flags' own declarations: each
  is a condition on the diagonal and on each swap orbit {(x, y), (y, x)},
  so a count is a sum over the diagonals' fixed-point counts of products
  over the pairs, two powers (anti-diagonal pairs and the rest).
* ``verify_claims`` — run a registry of general statements about tables
  against every table of an order (or a seeded sample at larger orders)
  and report counterexamples.  Claims that are expected to fail stay in
  the registry on purpose: their reports document *where* the general
  statement breaks.

Claims read raw tables, and one loop (``_tally``) runs them all: it
counts the cases a claim draws and records the first few that fail.  The
main domain, ``ClaimContext.samples``, is every table of the order or a
seeded sample.  Exhaustive runs check a claim of ``_INVARIANT`` once per
relabeling class, and one of ``_REVERSAL`` once per class {t, t^ρ} of the
reversal ρ: x ↦ n - 1 - x.  A per-table claim (``_universal``) draws
``(t, z)`` cases, a raw table and the zero under test, from
``cases(ctx)``; its hypothesis and conclusion take that pair and compare
derived factors and composites as tuples from the raw-table kernels.  The
claims about a zero (``_zeroed``) draw each table with a constant diagonal
once, that value as its zero: each of their hypotheses implies x∘x = 0,
so no other zero can meet it.  The side domains of ``ClaimContext``
(locally-zero and operand-valued tables), the associativity triples and
the uniqueness counts are raw as well.  A Groupoid is built only for a
recorded counterexample, or where a claim calls ``classify``.

When the job is large and the platform can fork, ``verify_claims`` runs
its claims on W processes: itself and W - 1 forked children, each taking
the next claim from a shared counter until none remain (``_fan_out``).
``BINSYS_THREADS`` (else the CPU count) sets W, and results are identical
for any W because the reports are merged in registry order.
``verify_claims`` logs its phase timings, and ``census`` its elapsed
time, to the ``binsys`` logger at DEBUG.

``CensusReport`` and ``ClaimReport`` are named tuples; a ``Claim`` is a
plain class, its fields entries of its instance dict.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import sys
import time
from collections import Counter, namedtuple

from .core import (
    Groupoid,
    _abelian,
    _bi_diagonal,
    _compiled,
    _flag,
    _idempotent,
    _left_zero_table,
    _locally_zero,
    _orientation,
    _positive,
    _right_zero_table,
    _semi_neutral_table,
    _strong,
    _twisted_orientation,
)
from .axioms import AXIOMS
from .errors import EXHAUSTIVE_ORDER_LIMIT, InternalError, OrderTooLarge, PreconditionError
from .factorization import (
    _CHOICES,
    _holds,
    _orient_table,
    _partially_prime,
    _signature,
    _similar,
    _skew,
    _solution_count,
    classify,
)
from .graphs import _graph_table, all_graphs
from .semigroup import _compose, _is_central, _is_identity

MAX_COUNTEREXAMPLES = 5

# 32-bit RNG words per block of _randbelow_blocks (for n >= 256, randrange values)
_BLOCK_WORDS = 4096

# how many instances a secondary (pair/graph) domain draws at most
_SIDE_CAP = 2048


def table_count(order: int) -> int:
    return order ** (order * order)


def _debug(message: str, *args) -> None:
    # Until something has imported logging, no handler or level can be set
    # that would show the record, so skip it rather than load logging
    # (and traceback, string, ...) for nothing.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("binsys").debug(message, *args)


@functools.cache
def _all_tables(order: int) -> tuple:
    """Every raw table of the order (at most EXHAUSTIVE_ORDER_LIMIT),
    ascending by row-major flattened cells; the tables share their rows."""
    rows = tuple(itertools.product(range(order), repeat=order))
    return tuple(itertools.product(rows, repeat=order))


def _groups(n) -> tuple:
    """The groups of the two marks at order n: Sₙ, and {identity, x ↦ n - 1 - x}."""
    identity = tuple(range(n))
    return tuple(itertools.permutations(identity)), (identity, identity[::-1])


@functools.cache
def _classes(n: int, group: tuple) -> dict:
    """{least table: size} of each class {t^σ : σ in group}, ascending, keyed by
    _all_tables's tuples.  A table not yet seen is the least of its class: it
    marks each σ-image seen by index, in base n a sum of σ(v) at (σx, σy)."""
    tables, seen, classes = _all_tables(n), bytearray(table_count(n)), {}
    weights = [[[s[v] * n ** (n * n - 1 - s[x] * n - s[y]) for v in range(n)]
                for x in range(n) for y in range(n)] for s in group]
    for i, t in enumerate(tables):
        if not seen[i]:
            cells = [v for row in t for v in row]
            images = {sum(map(list.__getitem__, w, cells)) for w in weights}
            for j in images:
                seen[j] = 1
            classes[t] = len(images)
    return classes


def _relabelings(t, *zeros, group):
    """``(t^σ, *σ(zeros))`` for each σ of the group, t^σ(σx, σy) = σ(t(x, y))."""
    for s in group:
        inverse = sorted(range(len(t)), key=s.__getitem__)
        yield (tuple(tuple(s[t[x][y]] for y in inverse) for x in inverse),
               *(z if z is None else s[z] for z in zeros))


def all_groupoids(order: int):
    """Every table of the order, ascending by row-major flattened cells;
    each Groupoid is built as it is drawn, from the cached raw tables."""
    order = _positive(order)
    if order > EXHAUSTIVE_ORDER_LIMIT:
        raise OrderTooLarge(
            f"exhaustive enumeration supports order <= {EXHAUSTIVE_ORDER_LIMIT}"
        )
    return map(Groupoid, _all_tables(order))


def _randbelow_blocks(rng: random.Random, n: int):
    """The values of successive ``rng.randrange(n)`` calls, in blocks.

    CPython's ``randrange(n)``, for n < 2**32, takes one 32-bit word per
    try, keeps its top ``n.bit_length()`` bits and tries again while that
    is >= n.  For n < 256 each block holds what one ``getrandbits`` call of
    _BLOCK_WORDS words gives; that call returns the words with the first
    one in the lowest bits, so in its little-endian bytes every fourth
    byte, from the fourth on, is the top byte of a word.  The kept bits
    lie in that byte: one ``bytes.translate`` shifts each top byte and
    deletes the tries >= n, and the block is those bytes.  Larger n, which
    only tables of order >= 256 take and no claim sweep draws, call
    ``randrange`` itself, _BLOCK_WORDS times a block.
    """
    if n >= 256:
        while True:
            yield [rng.randrange(n) for _ in range(_BLOCK_WORDS)]
    size = 4 * _BLOCK_WORDS
    shift = 8 - n.bit_length()
    values = bytes(b >> shift for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= n)
    while True:
        yield rng.getrandbits(8 * size).to_bytes(size, "little")[3::4].translate(
            values, rejected)


def _random_tables(order: int, count: int, seed=None):
    """``count`` raw tables whose cells, row-major, are successive
    ``random.Random(seed).randrange(order)`` values."""
    cells = itertools.chain.from_iterable(_randbelow_blocks(random.Random(seed), order))
    rows = zip(*[cells] * order)
    return itertools.islice(zip(*[rows] * order), max(count, 0))


def random_groupoids(order: int, count: int, seed=None):
    """``count`` i.i.d. uniform tables; cells drawn row-major, each the
    next ``random.Random(seed).randrange(order)`` value.  The arguments
    are checked at the call; each Groupoid is built as it is drawn."""
    order = _positive(order)
    count = _positive(count, "count", least=0)
    return map(Groupoid, _random_tables(order, count, seed))


def _fork_context():
    """The ``fork`` multiprocessing context, or None where there is none."""
    # imported here, so that only a verify_claims run that may fork loads it
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _resolve_workers(workers, weight):
    """How many processes run claims, the caller included: explicit arg,
    else BINSYS_THREADS, else CPU count.

    Small jobs (low weight), and every job where processes cannot be
    forked, run in-process.
    """
    if workers is None:
        env = os.environ.get("BINSYS_THREADS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise PreconditionError(
                    f"BINSYS_THREADS must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    workers = _positive(workers, "worker count")
    if weight < 2048 or _fork_context() is None:
        return 1
    return workers


# --- census ---

class CensusReport(namedtuple("CensusReport", "order total counts")):
    __slots__ = ()


# Every census flag is a condition on the diagonal and one on each swap orbit
# {(x, y), (y, x)}, x < y, over its values (a, b) = (t[x][y], t[y][x]).  The
# atoms are those orbit templates of _CENSUS_FLAGS, then four factor atoms in
# the same language; _pair_atoms(n, x, y, a, b, fixed) sets bit i where atom i holds.
_CENSUS_FLAGS = (_idempotent, _strong, _locally_zero, _orientation,
                 _twisted_orientation, _bi_diagonal, _abelian)
_ATOMS = (
    *(f"not anti or ({flag.orbit})" if flag.anti else flag.orbit or "True"
      for flag in _CENSUS_FLAGS),
    # SIGP, the pair as in the left projection: the signature factor's cells
    "{a} == {x} and {b} == {y}",
    # SKWP, the skew factor's cells as in the left projection
    "({b} == {x} and {a} == {y}) if anti else ({a} == {x} and {b} == {y})",
    # UA, signature ⋄ similar reproduces the pair; fixed holds the v with t[v][v] = v
    "{a} != {b} or {a} in fixed",
    # JO, skew ⋄ orient reproduces the pair: a = b, or a + b = n - 1 exactly on the anti-diagonal
    "{a} == {b} or ({a} + {b} == n - 1) == anti",
)
_SIGP, _SKWP, _UA, _JO = (1 << i for i in range(len(_CENSUS_FLAGS), len(_ATOMS)))
_pair_atoms = _compiled("_pair_atoms", "n, x, y, a, b, fixed", ["anti = x + y == n - 1"],
                        " | ".join(f"{1 << i} * ({atom.format(x='x', y='y', a='a', b='b')})"
                                   for i, atom in enumerate(_ATOMS)))


def _census_terms(n) -> dict:
    """Each census key as a signed sum of terms (sign, ks, atoms): the
    number of tables whose diagonal fixes exactly k elements for some k in
    ks, and on each of whose pairs every atom in the mask holds.

    A counted flag is its own atom, at every k with no diagonal condition
    and at k = n with idempotence, as similar-prime is.  au and oj reproduce
    every table; the orient table is the identity only at order 1.  A
    negated prime takes one subtracted term.
    """
    every, idem, other = range(n + 1), (n,), range(n)
    ks = {"": every, _idempotent.diagonal: idem}
    terms = {flag.__name__[1:]: [(1, ks[flag.diagonal], 1 << i)]
             for i, flag in enumerate(_CENSUS_FLAGS)}
    terms.update({
        "signature_prime": [(1, every, _SIGP)],
        "similar_prime": [(1, idem, 0)],
        "orient_prime": [(1, every, 0)] if n == 1 else [],
        "skew_prime": [(1, idem, _SKWP)],
        "ua_holds": [(1, every, _UA)],
        "au_holds": [(1, every, 0)],
        "oj_holds": [(1, every, 0)],
        "jo_holds": [(1, every, _JO)],
        "ua_composite": [(1, other, _UA), (-1, other, _UA | _SIGP)],
        "au_composite": [(1, other, 0), (-1, other, _SIGP)],
        "oj_composite": [(1, every, 0), (-1, idem, _SKWP)] if n > 1 else [],
        "jo_composite": [(1, every, _JO), (-1, idem, _JO | _SKWP)] if n > 1 else [],
    })
    # au and oj always hold
    terms["u_composite"] = terms["ua_composite"]
    terms["j_composite"] = terms["jo_composite"]
    terms["u_normal"] = terms["ua_holds"]
    terms["j_normal"] = terms["jo_holds"]
    return terms


# the census keys in report order; _census_terms lists the same keys at every order
CENSUS_KEYS = tuple(_census_terms(1))


def census(order: int, workers=None) -> CensusReport:
    """Count each ``classify`` flag in CENSUS_KEYS over all tables of the order.

    Exact at any order, without enumerating the tables: for each k, the
    C(n,k)·(n-1)^(n-k) diagonals that fix exactly k elements are counted
    at once, and the tables over them that satisfy a term are a product
    over pairs of that term's per-pair count.  That count depends only on
    whether the pair is on the anti-diagonal: (0, n-1) stands for the
    n // 2 such pairs and (0, 1) for the rest.  ``workers`` is accepted for
    compatibility and has no effect.
    """
    n = order = _positive(order)
    start = time.perf_counter()
    terms = _census_terms(n)
    counts = dict.fromkeys(CENSUS_KEYS, 0)
    # each class's atoms on its n² value pairs, none fixed yet, and their count by value
    classes = []
    for x, y, size in ((0, n - 1, n // 2), (0, 1, math.comb(n, 2) - n // 2)):
        atoms = [_pair_atoms(n, x, y, a, b, ()) for a in range(n) for b in range(n)]
        classes.append((atoms, Counter(atoms), size))
    for k in range(n + 1):
        # UA, the only atom that reads the fixed points, holds on (v, v) when v
        # is fixed; the counts do not depend on which k are, so fix 0..k-1
        if k:
            for atoms, held, _ in classes:
                v = atoms[(k - 1) * (n + 1)]
                held[v] -= 1
                held[v | _UA] += 1
        diagonals = math.comb(n, k) * (n - 1) ** (n - k)
        count = functools.cache(lambda mask: math.prod(  # once per mask: keys share terms
            sum(c for v, c in held.items() if v & mask == mask) ** size
            for _, held, size in classes))
        for key in CENSUS_KEYS:
            counts[key] += diagonals * sum(sign * count(mask)
                                           for sign, ks, mask in terms[key] if k in ks)
    _debug("order-%d census in %.3f s", order, time.perf_counter() - start)
    return CensusReport(order, table_count(order), counts)


# --- claim registry ---

class Claim:
    """A registered statement; ``runner(ctx)`` returns its ClaimReport."""

    def __init__(self, id: str, statement: str, expected: str, runner):
        self.id = id
        self.statement = statement
        self.expected = expected  # "pass", or "fail" for statements kept as documented breaks
        self.runner = runner

    def __repr__(self):
        return (f"Claim(id={self.id!r}, statement={self.statement!r}, "
                f"expected={self.expected!r}, runner={self.runner!r})")


class ClaimReport(namedtuple(
    "ClaimReport",
    "claim statement order mode checked passed expected counterexamples note",
    defaults=(None,),
)):
    __slots__ = ()

    def to_dict(self) -> dict:
        out = self._asdict()
        out["counterexamples"] = [
            {"table": [list(r) for r in g.table], "zero": g.zero}
            for g in self.counterexamples
        ]
        return out


class ClaimContext:
    """What a claim runner may draw on: the order, the main domain of raw
    tables (``samples``, filtered by ``where``) and per-claim seeded RNGs."""

    def __init__(self, order, mode, seed=None, samples=None, classes=None, group=None, sizes=None):
        self.order = order
        self.mode = mode  # "exhaustive" | "sampled"
        self.seed = seed
        self.samples = samples
        # per group, a context of the least tables of its _classes, each counted as its class
        self.by_class = {g: ClaimContext(order, mode, seed, tuple(c), group=g, sizes=c)
                         for g, c in (classes or {}).items()}
        self.group = group
        self.sizes = sizes
        self.evaluated = 0  # the cases _tally has run
        self._pools = {}

    def where(self, test):
        """The main-domain tables that pass ``test``, filtered once per process."""
        if test not in self._pools:
            self._pools[test] = tuple(filter(test, self.samples))
        return self._pools[test]

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def side_count(self):
        """How many instances sampled secondary (pair/graph) domains draw."""
        return min(len(self.samples), _SIDE_CAP)

    # The side domains below yield raw tables.

    def locally_zero_tables(self):
        """All of them when exhaustive (one per graph), else a seeded
        sample; drawn once per context and kept in ``_pools``, as ``where``
        keeps its filtered pools."""
        if "graphs" not in self._pools:
            n = self.order
            if self.mode == "exhaustive":
                edge_sets = (graph.edges for graph in all_graphs(n))
            else:
                rng = self.rng("graphs")
                pairs = list(itertools.combinations(range(n), 2))
                edge_sets = ([p for p in pairs if rng.random() < 0.5]
                             for _ in range(self.side_count()))
            self._pools["graphs"] = tuple(_graph_table(n, edges) for edges in edge_sets)
        return self._pools["graphs"]

    def op_tables(self):
        """Tables where every product lands on an operand."""
        if self.mode == "exhaustive":
            yield from self.where(_orientation)
            return
        rng = self.rng("op")
        elements = range(self.order)
        for _ in range(self.side_count()):
            yield tuple(tuple(y if x != y and rng.random() < 0.5 else x for y in elements)
                        for x in elements)


def _tally(cases, holds, zeroed=False, ctx=None):
    """The loop behind every claim runner: ``(checked, counterexamples)``.

    Every case is counted, and the first MAX_COUNTEREXAMPLES on which
    ``holds(*case)`` is false are recorded.  A case is a tuple of raw
    tables, recorded as one Groupoid each (a pair or a triple is listed
    flattened), or with ``zeroed`` a ``(t, z)`` pair, recorded as
    ``Groupoid(t, zero=z)``.  The cases run are added to ``ctx.evaluated``.
    With ``ctx.sizes``, a case is the least of its class under ``ctx.group``
    and counts as the class; every member of a failing class must fail, so
    the least members of the first such classes are the first failing cases.
    """
    sizes = ctx and ctx.sizes
    counted = []  # with sizes, the class size of each case drawn
    cases = (counted.append(sizes[case[0]]) or case for case in cases) if sizes else cases
    evaluated = 0
    failed = []
    for evaluated, case in enumerate(cases, 1):
        if not holds(*case) and len(failed) < MAX_COUNTEREXAMPLES:
            failed.append(case)
    checked = sum(counted) if sizes else evaluated
    if sizes and failed:
        failed = sorted({m for case in failed for m in _relabelings(*case, group=ctx.group)})
        evaluated += len(failed)
        if any(holds(*member) for member in failed):
            raise InternalError("a claim marked for its group holds on a renamed failure")
        del failed[MAX_COUNTEREXAMPLES:]
    if ctx is not None:
        ctx.evaluated += evaluated
    if zeroed:
        return checked, [Groupoid(t, zero=z) for t, z in failed]
    return checked, [Groupoid(t) for case in failed for t in case]


# per-table claim domains: each yields (t, z) cases

def _tables(ctx):
    """Every table of the main domain, with no zero under test."""
    return ((t, None) for t in ctx.samples)


def _where(test):
    """The domain of the main-domain tables that pass ``test``."""
    return lambda ctx: ((t, None) for t in ctx.where(test))


# the diagonal is constant: x∘x = 0 with 0 = t[0][0]
_b1_diagonal = _flag("_b1_diagonal", diagonal="{d} == r0[0]")


def _zeroed(ctx):
    """Every table of the main domain whose diagonal is constant, once, with
    that value as the zero under test."""
    return ((t, t[0][0]) for t in ctx.where(_b1_diagonal))


def _one(table):
    """The domain of one raw table per order, ``table(order)``."""
    return lambda ctx: [(table(ctx.order), None)]


def _universal(cid, statement, conclusion, hypothesis=None, cases=_tables,
               min_order=1, expected="pass"):
    """A claim checked on each case ``(t, z)`` of ``cases(ctx)``.

    ``hypothesis`` and ``conclusion`` take ``(t, z)``: the raw table as
    drawn and the zero under test, None unless the domain sets one.  The
    cases that meet the hypothesis go through ``_tally``, which records a
    counterexample as ``Groupoid(t, zero=z)``.
    """

    def run(ctx):
        if ctx.order < min_order:
            return 0, [], f"not checked below order {min_order}"
        domain = ((t, z) for t, z in cases(ctx) if hypothesis is None or hypothesis(t, z))
        return *_tally(domain, conclusion, zeroed=True, ctx=ctx), None

    return Claim(cid, statement, expected, run)


def _closed(cid, statement, tables, predicate):
    """A claim that the composite of two raw tables drawn from
    ``tables(ctx)`` satisfies ``predicate`` (on the raw composite table):
    every ordered pair when exhaustive, else the first half of the drawn
    pool against the second."""

    def run(ctx):
        pool = list(tables(ctx))
        if ctx.mode == "exhaustive":
            pairs = itertools.product(pool, repeat=2)
        else:
            half = len(pool) // 2
            pairs = zip(pool[:half], pool[half:])
        checked, cexs = _tally(pairs, lambda a, b: predicate(_compose(a, b)), ctx=ctx)
        note = "counterexamples listed as flattened pairs" if cexs else None
        return checked, cexs, note

    return Claim(cid, statement, "pass", run)


# helpers shared by several claims

def _classify(t, z):
    """``classify`` of the table with the zero under test."""
    return classify(Groupoid(t, zero=z))


def _unique(method):
    """The method's derived pair reproduces t and is its only in-shape pair."""
    # a forced method's count is 1 only when its derived pair reproduces t
    forced = method not in _CHOICES
    return lambda t, z: _solution_count(t, method) == 1 and (forced or _holds(t, method))


def _is_abelian_group(t):
    # the cheap symmetry test first: most tables fail it
    if not _abelian(t):
        return False
    n = len(t)
    # on an abelian table a left identity is two-sided
    e = next((c for c in range(n) if all(t[c][x] == x for x in range(n))), None)
    if e is None:
        return False
    if any(all(t[x][y] != e for y in range(n)) for x in range(n)):
        return False
    return AXIOMS["CO"].check(t, n, None)


# no idempotent element and no product equal to an operand
_no_op_cells = _flag("_no_op_cells", diagonal="{d} != {x}",
                     orbit="{a} not in ({x}, {y}) and {b} not in ({x}, {y})")


# custom runners

def _run_associative(ctx):
    if ctx.mode == "exhaustive" and ctx.order <= 2:
        triples = itertools.product(ctx.samples, repeat=3)
        note = None
    else:
        # a passing report records only the count and this note, so any
        # seeded draw of the triples from the main domain will do
        if ctx.mode == "sampled":
            trials, note = ctx.side_count(), "random triples"
        else:
            trials = 100_000
            note = f"{trials} random triples (full triple space is too large)"
        # overlapping windows of one draw: each triple's g⋄h is the next one's f⋄g
        picks = ctx.rng("assoc").choices(ctx.samples, k=trials + 2)
        triples = zip(picks, picks[1:], picks[2:])
    compose = _compose.at(ctx.order)
    lg = lh = gh = None  # the previous triple's g, h and g⋄h

    def holds(f, g, h):
        nonlocal lg, lh, gh
        fg = gh if lg is f and lh is g else compose(f, g)
        lg, lh, gh = g, h, compose(g, h)
        return compose(fg, h) == compose(f, gh)
    checked, cexs = _tally(triples, holds, ctx=ctx)
    if cexs:
        note = ((note + "; ") if note else "") + "counterexamples listed as flattened triples"
    return checked, cexs, note


def _run_center_agreement(ctx):
    # _is_central is closed-form at any order; above the cap the claim
    # still reports what the scan it replaced did (nothing checked, this
    # note), so that sampled reports stay as they were.
    if ctx.order > EXHAUSTIVE_ORDER_LIMIT:
        return 0, [], (
            f"exhaustive center scan is defined only up to order {EXHAUSTIVE_ORDER_LIMIT}"
        )
    return *_tally(zip(ctx.samples), lambda t: _locally_zero(t) == _is_central(t), ctx=ctx), None


CLAIMS = [
    _universal(
        "thm-2.4-identity",
        "the left projection table is a two-sided identity for the composition",
        lambda t, z: _compose(e := _left_zero_table(len(t)), t) == t == _compose(t, e),
    ),
    Claim(
        "thm-2.4-associative",
        "the composition is associative",
        "pass", _run_associative,
    ),
    _universal(
        "prop-2.5-right-zero-strong",
        "the right projection table is strong",
        lambda t, z: _strong(t), cases=_one(_right_zero_table),
    ),
    _universal(
        "prop-2.6-projections-central",
        "both projection tables commute with every table",
        lambda t, z: all(_compose(t, p) == _compose(p, t)
                         for p in (_left_zero_table(len(t)), _right_zero_table(len(t)))),
    ),
    _closed(
        "cor-2.7-center-closed",
        "the composite of two locally-zero tables is locally zero",
        ClaimContext.locally_zero_tables, _locally_zero,
    ),
    _universal(
        "prop-2.8-center-self-inverse",
        "every locally-zero table squares to the identity",
        lambda t, z: _is_identity(_compose(t, t)),
        cases=lambda ctx: ((t, None) for t in ctx.locally_zero_tables()),
    ),
    # The classical claim that the locally-zero tables are exactly the
    # commute-with-everything tables breaks at order 3: a table with one
    # left-zero pair and one right-zero pair is locally zero but not
    # central.  Only the two projections are central (_is_central); the
    # statement still names the scan that first showed it.
    Claim(
        "center-agreement",
        "the fast centrality test agrees with the exhaustive commuting scan",
        "fail", _run_center_agreement,
    ),
    _universal(
        "thm-3.1.3-strong-ua",
        "signature times similar reproduces every strong table",
        lambda t, z: _holds(t, "ua"), cases=_where(_strong),
    ),
    _universal(
        "cor-3.1.4-ua-unique",
        "a strong table has exactly one signature-shape/similar-shape factorization",
        _unique("ua"), cases=_where(_strong),
    ),
    _universal(
        "thm-3.2.3-au-universal",
        "similar times signature reproduces every table",
        lambda t, z: _holds(t, "au"),
    ),
    _universal(
        "cor-3.2.4-au-unique",
        "every table has exactly one similar-shape/signature-shape factorization",
        _unique("au"),
    ),
    _universal(
        "cor-3.2.5-strong-u-normal",
        "strong tables factor both ways through signature and similar",
        lambda t, z: _holds(t, "ua") and _holds(t, "au"), cases=_where(_strong),
    ),
    _universal(
        "prop-3.2-similar-factor-strong",
        "the similar factor of any table is strong",
        lambda t, z: _strong(_similar(t)),
    ),
    _universal(
        "prop-3.2.7-prime-implies-u-normal",
        "a table whose signature or similar factor is trivial factors both ways",
        lambda t, z: _holds(t, "ua") and _holds(t, "au"),
        hypothesis=lambda t, z: _is_identity(_signature(t)) or _is_identity(_similar(t)),
    ),
    _universal(
        "prop-3.2.8-right-zero-similar-prime",
        "the right projection table has a trivial similar factor",
        lambda t, z: _is_identity(_similar(t)) and _holds(t, "ua"),
        cases=_one(_right_zero_table),
    ),
    _universal(
        "prop-3.2.10-statement",
        "a strong table that is not locally zero is u-composite",
        lambda t, z: _classify(t, z).u_composite,
        hypothesis=lambda t, z: not _locally_zero(t), cases=_where(_strong),
        expected="fail",
    ),
    _universal(
        "prop-3.2.10-proof",
        "a strong table with no idempotent cell and no operand-valued product is u-composite",
        lambda t, z: _classify(t, z).u_composite,
        hypothesis=lambda t, z: _no_op_cells(t), cases=_where(_strong),
    ),
    _universal(
        "thm-3.3.1-factor-primes",
        "the similar factor of a signature factor is trivial, and vice versa",
        lambda t, z: _is_identity(_similar(_signature(t)))
        and _is_identity(_signature(_similar(t))),
    ),
    _universal(
        "cor-3.3.2-ua-refactor",
        "re-deriving both factors and composing again still reproduces the table (signature first)",
        lambda t, z: _compose(_signature(_signature(t)), _similar(_similar(t))) == t,
        hypothesis=lambda t, z: _holds(t, "ua"),
    ),
    _universal(
        "cor-3.3.3-au-refactor",
        "re-deriving both factors and composing again still reproduces the table (similar first)",
        lambda t, z: _compose(_similar(_similar(t)), _signature(_signature(t))) == t,
    ),
    _universal(
        "cor-3.3.4-strong-refactor",
        "for strong tables the re-derived factors compose back in both orders",
        lambda t, z: _compose(sig := _signature(_signature(t)), sim := _similar(_similar(t))) == t
        and _compose(sim, sig) == t,
        cases=_where(_strong),
    ),
    _universal(
        "thm-4.1.2-oj-universal",
        "orient times skew reproduces every table",
        lambda t, z: _holds(t, "oj"),
    ),
    _universal(
        "cor-4.1.3-oj-unique",
        "every table has exactly one orient/skew–shape factorization",
        _unique("oj"),
    ),
    _universal(
        "thm-4.2.3-op-jo",
        "skew times orient reproduces every operand-valued table",
        lambda t, z: _holds(t, "jo"), cases=_where(_orientation),
    ),
    _universal(
        "cor-4.2.4-jo-unique",
        "an operand-valued table has exactly one skew-shape/orient factorization",
        _unique("jo"), cases=_where(_orientation),
    ),
    _universal(
        "prop-4.2.5-op-j-normal",
        "operand-valued tables factor both ways through orient and skew",
        lambda t, z: _holds(t, "oj") and _holds(t, "jo"), cases=_where(_orientation),
    ),
    _closed(
        "op-product-closed",
        "the composite of two operand-valued tables is operand-valued",
        ClaimContext.op_tables, _orientation,
    ),
    _universal(
        "prop-4.4-orient-locally-zero",
        "the orient factor is locally zero",
        lambda t, z: _locally_zero(t), cases=_one(_orient_table),
    ),
    _universal(
        "cor-4.5-orient-unit",
        "the orient factor squares to the identity",
        lambda t, z: _is_identity(_compose(t, t)), cases=_one(_orient_table),
    ),
    _universal(
        "thm-4.3.1-orient-skew",
        "the skew factor of the orient factor is trivial, and orient composed "
        "with the table gives its skew factor",
        lambda t, z: _is_identity(_skew(o := _orient_table(len(t)))) and _compose(o, t) == _skew(t),
    ),
    _universal(
        "thm-4.3.3-right-zero-j-composite",
        "the right projection table is composite through orient and skew both ways",
        lambda t, z: _classify(t, z).j_composite, cases=_one(_right_zero_table),
        min_order=3,  # at order 2 its skew factor is the identity
    ),
    _universal(
        "prop-4.3.5-bi-diagonal-partial",
        "a non-trivial table with a symmetric anti-diagonal reproduces itself "
        "against its orient factor on the left",
        lambda t, z: _partially_prime(t, _orient_table(len(t))),
        hypothesis=lambda t, z: _bi_diagonal(t) and not _is_identity(t),
    ),
    _universal(
        "prop-5.1-semi-neutral-prime-composite",
        "a non-trivial semi-neutral table has a trivial signature factor and "
        "is composite through orient and skew",
        lambda t, z: (r := _classify(t, z)).signature_prime and r.oj_composite,
        hypothesis=lambda t, z: t == _semi_neutral_table(len(t), z) and not _is_identity(t),
        cases=_zeroed,
    ),
    _universal(
        "cor-5.2-semi-neutral-semi-normal",
        "a non-trivial semi-neutral table is semi-normal",
        lambda t, z: _classify(t, z).semi_normal,
        hypothesis=lambda t, z: t == _semi_neutral_table(len(t), z) and not _is_identity(t),
        cases=_zeroed,
    ),
    _universal(
        "prop-5.3-semi-neutral-product",
        "the composite of the semi-neutral table with itself is semi-neutral",
        lambda t, z: _compose(t, t) == t,
        cases=lambda ctx: ((_semi_neutral_table(ctx.order, z), z) for z in range(ctx.order)),
    ),
    _universal(
        "prop-5.4-b1-similar-semi-neutral",
        "when the diagonal is constantly zero the similar factor is semi-neutral",
        lambda t, z: _similar(t) == _semi_neutral_table(len(t), z),
        cases=_zeroed,
    ),
    _universal(
        "cor-5.5-strong-b1-semi-normal",
        "a strong table with constantly-zero diagonal is semi-normal",
        lambda t, z: _classify(t, z).semi_normal,
        hypothesis=lambda t, z: _strong(t),
        cases=_zeroed,
        min_order=2,  # at order 1 both derived factors are semi-neutral
    ),
    _universal(
        "cor-5.6-strong-b1-semi-composite",
        "a strong, constantly-zero-diagonal table that is not itself "
        "semi-neutral is semi-composite",
        lambda t, z: _classify(t, z).semi_composite,
        hypothesis=lambda t, z: _strong(t) and t != _semi_neutral_table(len(t), z),
        cases=_zeroed,
    ),
    _universal(
        "prop-5.9-magma",
        "no symmetric table of order at least 2 factors both ways through "
        "signature and similar",
        lambda t, z: not (_holds(t, "ua") and _holds(t, "au")),
        hypothesis=lambda t, z: _abelian(t),
        min_order=2,
        expected="fail",
    ),
    _universal(
        "prop-5.9-group",
        "no abelian group table of order at least 2 factors both ways through "
        "signature and similar",
        lambda t, z: not (_holds(t, "ua") and _holds(t, "au")),
        hypothesis=lambda t, z: _is_abelian_group(t),
        min_order=2,
    ),
]

REGISTRY = {c.id: c for c in CLAIMS}

# The claims that hold of (t, z) exactly when they hold of (t^σ, σ(z)) for each σ of a group,
# checked once per class of ``_classes`` under it when exhaustive.  Those of _INVARIANT hold
# under all of Sₙ: none reads the orient or skew factor or bi-diagonal.  Those of _REVERSAL
# read them, and these commute only with the reversal x ↦ n - 1 - x: their group is {id, ρ}.
_INVARIANT = frozenset("""thm-2.4-identity prop-2.6-projections-central center-agreement
    thm-3.1.3-strong-ua cor-3.1.4-ua-unique thm-3.2.3-au-universal cor-3.2.4-au-unique
    cor-3.2.5-strong-u-normal prop-3.2-similar-factor-strong prop-3.2.7-prime-implies-u-normal
    prop-3.2.10-statement prop-3.2.10-proof thm-3.3.1-factor-primes cor-3.3.2-ua-refactor
    cor-3.3.3-au-refactor cor-3.3.4-strong-refactor prop-5.1-semi-neutral-prime-composite
    cor-5.2-semi-neutral-semi-normal prop-5.4-b1-similar-semi-neutral
    cor-5.5-strong-b1-semi-normal cor-5.6-strong-b1-semi-composite prop-5.9-magma
    prop-5.9-group""".split())
_REVERSAL = frozenset("""thm-4.1.2-oj-universal cor-4.1.3-oj-unique thm-4.2.3-op-jo
    cor-4.2.4-jo-unique prop-4.2.5-op-j-normal thm-4.3.1-orient-skew
    prop-4.3.5-bi-diagonal-partial""".split())


def _run_claim(claim, ctx):
    """``(report, cases evaluated, seconds)``, a marked claim on its group's ``ctx.by_class``."""
    start = time.perf_counter()
    if ctx.by_class:  # exhaustive, so Sₙ is small
        every, reversal = _groups(ctx.order)
        group = every if claim.id in _INVARIANT else reversal if claim.id in _REVERSAL else None
        ctx = ctx.by_class.get(group, ctx)
    evaluated = ctx.evaluated
    checked, cexs, note = claim.runner(ctx)
    report = ClaimReport(claim.id, claim.statement, ctx.order, ctx.mode, checked,
                         not cexs, claim.expected, tuple(cexs), note)
    return report, ctx.evaluated - evaluated, time.perf_counter() - start


def _fan_out(run, count, workers):
    """``run(i)`` for each i < ``count`` on ``workers`` processes, this one
    and ``workers - 1`` forked children: the results in index order.

    Each process takes the next index from a shared counter until none
    remain; a child, which inherits ``run`` through the fork, sends back its
    ``(index, result)`` list, or the exception it hit, through its own pipe.
    """
    fork = _fork_context()
    counter = fork.Value("i", 0)

    def take():
        taken = []
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= count:
                return taken
            taken.append((i, run(i)))

    def child(conn):
        try:
            conn.send(take())
        except Exception as exc:
            conn.send(exc)
            raise  # multiprocessing prints the child's traceback as it exits

    children = []
    try:
        for _ in range(workers - 1):
            reader, writer = fork.Pipe(duplex=False)
            proc = fork.Process(target=child, args=(writer,))
            proc.start()
            # the child holds the only writer left, so its exit ends the pipe
            writer.close()
            children.append((proc, reader))
        done = take()
        for proc, reader in children:
            try:
                got = reader.recv()
            except EOFError:
                proc.join()
                raise InternalError(
                    f"a claim worker exited with code {proc.exitcode} "
                    "before it sent its results"
                ) from None
            finally:
                reader.close()
            if isinstance(got, Exception):
                raise got
            done += got
        for proc, _ in children:
            proc.join()
    finally:
        for proc, _ in children:
            if proc.is_alive():
                proc.terminate()
            proc.join()
    results = dict(done)
    return [results[i] for i in range(count)]


def verify_claims(order: int, sample=None, seed=None, claims=None, workers=None):
    """Run registered claims exhaustively (order <= EXHAUSTIVE_ORDER_LIMIT)
    or on a seeded sample.

    Returns one ClaimReport per claim, in registry order — or, when
    ``claims`` lists specific ids, only those, in the given order.  Two or
    more claims on two or more processes run on ``_fan_out``, others
    in-process.  The ``binsys`` logger gets, at DEBUG, the time taken to
    build or draw the tables, the fan-out's counts and time, and each
    claim's checked count and time.
    """
    order = _positive(order)
    if claims is None:
        selected = list(CLAIMS)
    elif isinstance(claims, str):
        raise ValueError(f"claims takes a sequence of claim ids, not the string {claims!r}")
    else:
        unknown = [c for c in claims if not isinstance(c, str) or c not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown claim ids: {unknown}")
        selected = [REGISTRY[c] for c in claims]
    if sample is None:
        if order > EXHAUSTIVE_ORDER_LIMIT:
            raise OrderTooLarge(
                f"exhaustive verification supports order <= "
                f"{EXHAUSTIVE_ORDER_LIMIT}; pass a sample count instead"
            )
        mode = "exhaustive"
        start = time.perf_counter()
        samples = _all_tables(order)  # the caches are built before any fork
        _debug("order-%d table cache ready in %.3f s", order, time.perf_counter() - start)
        start = time.perf_counter()
        classes = {g: _classes(order, g) for g in _groups(order)}
        _debug("order-%d classes: %d relabeling, %d reversal in %.3f s", order,
               *(len(classes[g]) for g in _groups(order)), time.perf_counter() - start)
    else:
        sample = _positive(sample, "sample count")
        mode = "sampled"
        seed = 0 if seed is None else seed
        start = time.perf_counter()
        samples, classes = tuple(_random_tables(order, sample, seed)), None
        _debug("drew %d order-%d tables in %.3f s", sample, order, time.perf_counter() - start)
    ctx = ClaimContext(order, mode, seed=seed, samples=samples, classes=classes)
    weight = len(samples) * len(selected)
    workers = min(_resolve_workers(workers, weight), len(selected))
    if workers <= 1:
        raw = [_run_claim(c, ctx) for c in selected]
    else:
        start = time.perf_counter()
        raw = _fan_out(lambda i: _run_claim(selected[i], ctx), len(selected), workers)
        _debug("%d claims on %d processes in %.3f s",
               len(selected), workers, time.perf_counter() - start)
    for report, evaluated, elapsed in raw:
        _debug("claim %s: %d checked in %d evaluations in %.3f s",
               report.claim, report.checked, evaluated, elapsed)
    return [report for report, _, _ in raw]
