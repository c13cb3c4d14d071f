"""Outside-in layer tracing for binsys.

The traced run rebinds, at run time, every reference binsys holds to the
public functions named in ``LAYERS`` (module attributes, registry dicts,
dataclass fields and closure cells), plus ``Groupoid.__post_init__`` and
each claim runner.  Nothing under ``src/`` is edited.  Each wrapped call
is a span; the tracer keeps only aggregates: the call count, the
inclusive time and the self time (the span's duration minus the time
covered by its child spans).
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# layer -> (function, the end-to-end metric and workload it should move).
# "core.Groupoid" is construction plus validation (``__post_init__``).
LAYERS = {
    "core": (
        ("Groupoid", "latency on exhaustive-o3 and sampled-o56; setup_s on exhaustive-o3"),
        ("is_strong", "latency on exhaustive-o3 (verify and census)"),
        ("is_locally_zero", "latency on exhaustive-o3 (verify and census)"),
        ("has_orientation", "latency on exhaustive-o3 (verify and census)"),
        ("is_semi_neutral", "latency on exhaustive-o3 (verify)"),
    ),
    "semigroup": (
        ("product", "latency on exhaustive-o3 (verify, census) and sampled-o56"),
        ("is_identity", "latency on exhaustive-o3 (verify and census)"),
        ("commutes", "latency on exhaustive-o3 (verify) only"),
        ("in_center", "latency on exhaustive-o3 (verify) only"),
        ("find_inverse", "latency_p95_ms on cli-requests"),
    ),
    "factorization": (
        ("signature_factor", "latency on exhaustive-o3 (verify, census) and sampled-o56"),
        ("similar_factor", "latency on exhaustive-o3 (verify, census) and sampled-o56"),
        ("orient_factor", "latency on exhaustive-o3 (verify, census) and sampled-o56"),
        ("skew_factor", "latency on exhaustive-o3 (verify, census) and sampled-o56"),
        ("factorize", "latency on exhaustive-o3 and sampled-o56 (verify)"),
        ("classify", "latency_p50_ms on cli-requests"),
        ("uniqueness_search", "latency on exhaustive-o3 and sampled-o56 (verify)"),
    ),
    "axioms": (
        ("axiom_holds", "latency_p50_ms on cli-requests; little work elsewhere"),
        ("axiom_vector", "latency_p50_ms on cli-requests"),
    ),
    "graphs": (
        ("from_graph", "latency on exhaustive-o3 (locally-zero domains)"),
        ("all_graphs", "latency on exhaustive-o3 (locally-zero domains)"),
    ),
    "fileformat": (
        ("parse_groupoid", "latency_p50_ms on cli-requests"),
        ("serialize_groupoid", "latency_p50_ms on cli-requests"),
    ),
    "enumeration": (
        ("all_groupoids", "setup_s and peak_rss_mb on exhaustive-o3; latency_p95_ms on cli-requests"),
        ("census", "latency on exhaustive-o3 (census)"),
    ),
}

# The claim registry at the commit the goldens were recorded; each runner
# is a span "enumeration.claim.<id>" that should move latency on
# exhaustive-o3 and sampled-o56.
CLAIM_IDS = (
    "thm-2.4-identity", "thm-2.4-associative", "prop-2.5-right-zero-strong",
    "prop-2.6-projections-central", "cor-2.7-center-closed",
    "prop-2.8-center-self-inverse", "center-agreement", "thm-3.1.3-strong-ua",
    "cor-3.1.4-ua-unique", "thm-3.2.3-au-universal", "cor-3.2.4-au-unique",
    "cor-3.2.5-strong-u-normal", "prop-3.2-similar-factor-strong",
    "prop-3.2.7-prime-implies-u-normal", "prop-3.2.8-right-zero-similar-prime",
    "prop-3.2.10-statement", "prop-3.2.10-proof", "thm-3.3.1-factor-primes",
    "cor-3.3.2-ua-refactor", "cor-3.3.3-au-refactor", "cor-3.3.4-strong-refactor",
    "thm-4.1.2-oj-universal", "cor-4.1.3-oj-unique", "thm-4.2.3-op-jo",
    "cor-4.2.4-jo-unique", "prop-4.2.5-op-j-normal", "op-product-closed",
    "prop-4.4-orient-locally-zero", "cor-4.5-orient-unit",
    "thm-4.3.1-orient-skew", "thm-4.3.3-right-zero-j-composite",
    "prop-4.3.5-bi-diagonal-partial", "prop-5.1-semi-neutral-prime-composite",
    "cor-5.2-semi-neutral-semi-normal", "prop-5.3-semi-neutral-product",
    "prop-5.4-b1-similar-semi-neutral", "cor-5.5-strong-b1-semi-normal",
    "cor-5.6-strong-b1-semi-composite", "prop-5.9-magma", "prop-5.9-group",
)

# CLI subcommands the cli-requests workload issues; each gets a
# "cli.main.<command>" span (latency_p50_ms, and p95 for inverse).
CLI_COMMANDS = ("classify", "axioms", "derive", "product", "graph", "inverse")


def span_names() -> list[str]:
    """Every function span, in report order (claims and CLI excluded)."""
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn, _ in fns]


class Tracer:
    """Aggregated spans: calls, inclusive seconds and self seconds by name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []  # time covered by child spans, one entry per open span

    def _close(self, name, t0):
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        self.total_s[name] += dur
        self.self_s[name] += dur - child

    def wrap(self, fn, name):
        calls, stack, close, clock = self.calls, self._stack, self._close, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens on each resumption, not at the call.
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, t0)
                    yield value

            return traced_gen

        def traced(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, t0)

        return traced

    @contextmanager
    def span(self, name):
        self.calls[name] += 1
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def merge(self, data: dict):
        """Add the aggregates another process dumped with ``dump``."""
        for key in ("calls", "total_s", "self_s"):
            mine = getattr(self, key)
            for name, value in data[key].items():
                mine[name] += value

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }


def _binsys_modules():
    return [m for name, m in sys.modules.items()
            if name == "binsys" or name.startswith("binsys.")]


def _slots(modules, groupoid_cls):
    """Every (container, key, value) through which binsys reaches a value.

    Walks module dicts, the dicts and lists they hold, the fields of
    binsys dataclass instances (claims, factorization methods) and the
    closure cells of binsys functions.  Tables are skipped.
    """
    out = []
    seen = set()
    stack = [vars(m) for m in modules]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            for key, value in obj.items():
                out.append((obj, key, value))
                stack.append(value)
        elif isinstance(obj, list):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            if not obj.__module__.startswith("binsys"):
                continue
            for cell in obj.__closure__ or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                out.append((cell, None, value))
                stack.append(value)
        elif (type(obj).__module__.startswith("binsys")
              and not isinstance(obj, (type, groupoid_cls))
              and hasattr(obj, "__dict__")):
            stack.append(vars(obj))
    return out


def install(tracer: Tracer):
    """Wrap every layer function, Groupoid construction and each claim.

    binsys must already be imported.  Returns a callable that restores
    the originals.
    """
    import binsys.enumeration as enumeration
    from binsys.core import Groupoid

    originals = {}
    for layer, fns in LAYERS.items():
        module = sys.modules[f"binsys.{layer}"]
        for fn, _ in fns:
            if fn != "Groupoid":
                originals[id(getattr(module, fn))] = f"{layer}.{fn}"
    wrappers = {}
    undo = []
    for container, key, value in _slots(_binsys_modules(), Groupoid):
        name = originals.get(id(value))
        if name is None:
            continue
        if name not in wrappers:
            wrappers[name] = tracer.wrap(value, name)
        if key is None:
            container.cell_contents = wrappers[name]
            undo.append((container, None, value))
        else:
            container[key] = wrappers[name]
            undo.append((container, key, value))

    post_init = Groupoid.__post_init__
    Groupoid.__post_init__ = tracer.wrap(post_init, "core.Groupoid")
    runners = [(claim, claim.runner) for claim in enumeration.CLAIMS]
    for claim, runner in runners:
        vars(claim)["runner"] = tracer.wrap(runner, f"enumeration.claim.{claim.id}")

    def restore():
        for container, key, value in reversed(undo):
            if key is None:
                container.cell_contents = value
            else:
                container[key] = value
        Groupoid.__post_init__ = post_init
        for claim, runner in runners:
            vars(claim)["runner"] = runner

    return restore
