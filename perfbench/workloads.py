"""Seeded inputs, operations and the golden gate for the three workloads.

Every output the benchmark checks has a golden digest in goldens.json,
recorded by record_goldens.py at the commit that introduced the
benchmark.  So that every input has a golden, the run seed picks inputs
from pools that are themselves generated from fixed seeds: the sample
sizes and seeds of sampled-o56, and the table files and request mix of
cli-requests.  exhaustive-o3 has no seeded input: it is every table.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens.json"
CLI_ENTRY = HERE / "cli_entry.py"

# ClaimReport.to_dict() keys when the goldens were recorded.  The gate
# compares these only, so a later field (an elapsed time, say) does not
# count as a changed output.
REPORT_KEYS = (
    "claim", "statement", "order", "mode", "checked", "passed",
    "expected", "counterexamples", "note",
)
REQUEST_TIMEOUT_S = 60


def import_binsys():
    """Import binsys from this checkout's src/, never from elsewhere."""
    if not (SRC / "binsys" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no binsys package under {SRC}")
    sys.path.insert(0, str(SRC))
    import binsys

    if Path(binsys.__file__).resolve().parent != (SRC / "binsys").resolve():
        raise SystemExit(f"perfbench: imported binsys from {binsys.__file__}")
    return binsys


def child_env() -> dict:
    """Environment for child interpreters: binsys from this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd, timeout, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion; kill it and raise after ``timeout`` s.

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which would blur the timings; this waits blocking instead.
    """
    with subprocess.Popen(cmd, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    if timer.finished.is_set() and proc.returncode < 0:
        raise subprocess.TimeoutExpired(cmd, timeout)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# --- machine speed ---

REF_SIZE = 100_000
# Nominal time of one reference, by its width in processes.  It only
# sets the scale of the rescaled times: about the reference's time on an
# idle 2-vCPU cloud VM.
REF_NOMINAL_S = {1: 0.007, 2: 0.010}


def spin(n: int) -> int:
    """Arithmetic in a pure-Python loop: the speed reference and the
    parallelism probe's task.

    It allocates nothing, so its time does not depend on how big the
    heap is when the garbage collector runs.
    """
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def spin_in_processes(count: int, n: int) -> float:
    """Seconds for ``count`` forked processes, each running spin(n), to end.

    Plain forked processes, each joined: a pool or a spawn context would
    start multiprocessing's resource tracker, which outlives this process.
    """
    procs = [get_context("fork").Process(target=spin, args=(n,)) for _ in range(count)]
    t0 = time.perf_counter()
    try:
        for proc in procs:
            proc.start()
    finally:
        for proc in procs:
            if proc.pid is not None:
                proc.join()
    return time.perf_counter() - t0


class SpeedRef:
    """Rescales wall times to the speed of a reference loop.

    The speed of a shared machine drifts: on a 2-vCPU cloud VM the median
    time of a fixed pure-Python loop over 35-second windows moved by up
    to 30%, with stretches of a minute running 50% slower.  So a
    reference loop is timed after every call, and each call's wall time
    is multiplied by REF_NOMINAL_S over the median of the reference
    times taken within WINDOW_S seconds of it.  One loop's time varies
    by 10-25%, so a reference time is the median of ``loops`` loops, and
    the median over the window does the rest.

    With ``width=1`` the loop runs in this process; this tracks
    short-lived child interpreters (set-up probes, CLI requests): over
    ten seeds it cut the run-to-run spread of cli-requests' p50 from
    9.8% to 7.0%.  With ``width=2`` the reference is two forked
    processes running the loop at once, which tracks how many cores are
    free, as the library's two-worker pool feels it.  On sampled-o56's
    two-second verify calls, over six seeds, it cut the spread of p50
    from 15% to 9% and of the slowest pass from 15% to 7%.  Neither
    width tracked exhaustive-o3's long calls over a large cached heap,
    where rescaling widened the spread, so those are recorded with
    ``loops=0`` and reported unscaled.
    """

    WINDOW_S = 10.0

    def __init__(self, loops: int = 3, width: int = 1):
        self.loops = loops
        self.width = width
        self.samples = []  # (time taken, reference seconds)
        self.calls = []  # (start, unscaled seconds)
        self._sample()

    def _sample(self):
        if not self.loops:
            return
        times = []
        for _ in range(self.loops):
            t0 = time.perf_counter()
            if self.width == 1:
                spin(REF_SIZE)
                times.append(time.perf_counter() - t0)
            else:
                times.append(spin_in_processes(self.width, REF_SIZE))
        self.samples.append((t0, statistics.median(times)))

    def record(self, start: float, elapsed: float):
        """Note a call's unscaled seconds, then time the reference."""
        self.calls.append((start, elapsed))
        self._sample()

    def rescaled(self) -> list[float]:
        """Every recorded call's seconds at nominal speed, in order."""
        if not self.loops:
            return [elapsed for _, elapsed in self.calls]
        out = []
        for start, elapsed in self.calls:
            mid = start + elapsed / 2
            reach = elapsed / 2 + self.WINDOW_S
            refs = [ref for t, ref in self.samples if abs(t - mid) <= reach]
            out.append(elapsed * REF_NOMINAL_S[self.width] / statistics.median(refs))
        return out


# --- the golden gate ---

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode()


def verify_digest(reports) -> str:
    return _digest(_json_bytes(
        [{k: d[k] for k in REPORT_KEYS} for d in (r.to_dict() for r in reports)]
    ))


def census_digest(report) -> str:
    return _digest(_json_bytes(
        {"order": report.order, "total": report.total, "counts": report.counts}
    ))


def cli_digest(result) -> str:
    code, stdout = result
    return _digest(b"%d\n" % code + stdout)


class Gate:
    """Times operations and compares each output with its golden digest.

    With ``record=True`` it stores the digests instead of comparing.  With
    a ``SpeedRef`` in ``speed``, every call is also noted there.
    """

    def __init__(self, goldens: dict, record: bool = False):
        self.goldens = goldens
        self.record = record
        self.speed = None
        self.attempted = 0
        self.failed = 0

    def run(self, key, op, digest) -> float:
        """Run ``op()`` and check ``digest(result)``; return op's seconds."""
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            result = op()
            elapsed = time.perf_counter() - t0
            got = digest(result)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        if self.speed is not None:
            self.speed.record(t0, elapsed)
        if error is not None:
            self._fail(key, error)
        elif self.record:
            self.goldens[key] = got
        elif key not in self.goldens:
            self._fail(key, "no golden for this input")
        elif got != self.goldens[key]:
            self._fail(key, "output differs from the golden")
        return elapsed

    def _fail(self, key, why):
        self.failed += 1
        print(f"# FAIL {key}: {why}", file=sys.stderr)


def load_goldens(path=GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- exhaustive-o3 ---

class Exhaustive:
    """verify_claims(n) and census(n) for every order n up to 3."""

    name = "exhaustive-o3"
    min_ops = 1
    trace_ops = 1
    ref_loops = 0  # reported unscaled: see SpeedRef
    ref_width = 1

    def __init__(self, binsys, seed, tiny=False):
        self.binsys = binsys
        self.orders = (1, 2) if tiny else (1, 2, 3)

    def setup(self):
        for n in self.orders:
            self.binsys.all_groupoids(n)

    def ops(self):
        while True:
            yield None

    def run(self, op, gate, workers=None, tracer=None) -> dict:
        b = self.binsys
        verify_s = census_s = 0.0
        for n in self.orders:
            verify_s += gate.run(
                f"exhaustive/verify/{n}",
                lambda: b.verify_claims(n, workers=workers), verify_digest,
            )
        for n in self.orders:
            census_s += gate.run(
                f"exhaustive/census/{n}",
                lambda: b.census(n, workers=workers), census_digest,
            )
        return {"verify_s": verify_s, "census_s": census_s}

    def close(self):
        pass


# --- sampled-o56 ---

def sampled_pool(tiny=False):
    """(order, sample size, seed) pairs, one per verify call, two per pass.

    Sizes vary a little around a fixed base so that a pass costs about the
    same on every run seed.
    """
    rng = random.Random("perfbench-sampled-tiny" if tiny else "perfbench-sampled")
    lo, hi, passes = (8, 16, 2) if tiny else (950, 1050, 24)
    return [
        ((5, rng.randint(lo, hi), rng.randrange(10**6)),
         (6, rng.randint(lo, hi), rng.randrange(10**6)))
        for _ in range(passes)
    ]


class Sampled:
    """verify_claims at orders 5 and 6 on seeded samples."""

    name = "sampled-o56"
    min_ops = 1
    trace_ops = 1
    ref_loops = 3
    ref_width = 2  # as wide as the library's pool: see SpeedRef

    def __init__(self, binsys, seed, tiny=False):
        self.binsys = binsys
        self.pool = sampled_pool(tiny)
        random.Random(seed).shuffle(self.pool)

    def setup(self):
        pass

    def ops(self):
        while True:
            yield from self.pool

    def run(self, op, gate, workers=None, tracer=None) -> dict:
        verify_s = 0.0
        for order, size, seed in op:
            verify_s += gate.run(
                f"sampled/verify/{order}/{size}/{seed}",
                lambda: self.binsys.verify_claims(
                    order, sample=size, seed=seed, workers=workers),
                verify_digest,
            )
        return {"verify_s": verify_s}

    def close(self):
        pass


# --- cli-requests ---

LABELS = "abcdefgh"
DERIVE_METHODS = ("ua", "au", "oj", "jo")
# A block is one request of each fast kind, one more fast request and one
# inverse: p50 lands among the fast requests, p95 in the middle of the
# inverse ones.
BLOCK_SIZE = 10


def _gpd(table, zero) -> str:
    n = len(table)
    lines = ["elements: " + " ".join(LABELS[:n]), f"zero: {LABELS[zero]}", "table:"]
    lines += [" ".join(LABELS[v] for v in row) for row in table]
    return "\n".join(lines) + "\n"


def cli_pool():
    """File name -> .gpd text, fast requests by kind, and inverse requests.

    Orders 2-8, six tables each: four uniform, two locally zero (so
    ``graph to-dot`` is lossless on some).  The inverse files are order-3
    tables that are not locally zero, so each request scans the order.
    """
    rng = random.Random("perfbench-cli")
    files = {}
    fast = {}
    for n in range(2, 9):
        names = []
        for i in range(6):
            if i < 4:
                table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            else:
                table = [[x if rng.random() < 0.5 else y for y in range(n)] for x in range(n)]
                for x in range(n):
                    for y in range(x + 1, n):
                        table[y][x] = y if table[x][y] == x else x
            name = f"t{n}_{i}.gpd"
            files[name] = _gpd(table, rng.randrange(n))
            names.append(name)
        for i, name in enumerate(names):
            partner = names[(i + 1) % len(names)]
            requests = {"classify": ("classify", name), "axioms": ("axioms", name),
                        "graph": ("graph", "to-dot", name),
                        "product": ("product", name, partner)}
            requests.update({f"derive {m}": ("derive", "--method", m, name)
                             for m in DERIVE_METHODS})
            for kind, request in requests.items():
                fast.setdefault(kind, []).append(request)
    inverse = []
    while len(inverse) < 8:
        table = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        locally_zero = all(table[x][x] == x for x in range(3)) and all(
            (table[x][y], table[y][x]) in ((x, y), (y, x))
            for x in range(3) for y in range(x + 1, 3))
        if not locally_zero:
            name = f"inv3_{len(inverse)}.gpd"
            files[name] = _gpd(table, 0)
            inverse.append(("inverse", name))
    return files, fast, inverse


def write_files(files: dict, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


class CliRequests:
    """A closed loop of one client: each request a fresh ``python -m binsys``."""

    name = "cli-requests"
    min_ops = 200  # ten samples beyond p95
    trace_ops = 30
    ref_loops = 3
    ref_width = 1

    def __init__(self, binsys, seed, tiny=False):
        self.files, self.fast, self.inverse = cli_pool()
        self.rng = random.Random(seed)
        self.blocks = 1 if tiny else None
        self.dir = WORK / f"cli-{os.getpid()}"
        self.env = child_env()
        self.import_s = []  # per traced request: seconds to import binsys.cli
        if tiny:
            self.min_ops = self.trace_ops = BLOCK_SIZE

    def setup(self):
        write_files(self.files, self.dir)

    def ops(self):
        blocks = 0
        while self.blocks is None or blocks < self.blocks:
            kinds = list(self.fast.values())
            block = [self.rng.choice(requests) for requests in kinds]
            block.append(self.rng.choice(self.rng.choice(kinds)))
            block.append(self.rng.choice(self.inverse))
            self.rng.shuffle(block)
            yield from block
            blocks += 1

    def request(self, args, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "binsys", *args]
            env = self.env
        else:
            trace_out = self.dir / f"trace-{os.getpid()}.json"
            cmd = [sys.executable, str(CLI_ENTRY), *args]
            env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_out))
        proc = run_child(cmd, REQUEST_TIMEOUT_S, cwd=self.dir, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if tracer is not None:
            data = json.loads(trace_out.read_text(encoding="utf-8"))
            trace_out.unlink()
            tracer.merge(data)
            self.import_s.append(data["import_s"])
        return proc.returncode, proc.stdout

    def run(self, op, gate, workers=None, tracer=None) -> dict:
        key = "cli/" + " ".join(op)
        return {"request_s": gate.run(key, lambda: self.request(op, tracer), cli_digest)}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (Exhaustive, Sampled, CliRequests)}

