"""Static checks over the package source and its exports.

Every module under ``src/binsys`` (bar ``__init__.py``, which only
re-exports) must use each name it imports, and the package calls ``eval``
once, in its one map compiler.  Every function and claim the traced
benchmark run (``perfbench/layers.py``) wraps must still exist, and the
calls the benchmark workloads make must still bind.
The package exports the names it imports eagerly plus those of its lazy
table, each the very object its module defines.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys

import pytest

import binsys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "binsys"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "enumeration.py", "factorization.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    source = "from .core import Groupoid, left_zero\nimport os\n\ndef f(g: Groupoid):\n    return g\n"
    assert unused_imports(source) == ["left_zero", "os"]


def eval_calls() -> list[str]:
    """``module:line`` of each call to ``eval`` in the package source."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "eval"
    ]


def test_one_compiler():
    # semigroup._cellwise compiles ⋄ and every derived factor; a second
    # source generator would be a second kernel to keep in step
    calls = eval_calls()
    assert len(calls) == 1 and calls[0].startswith("semigroup.py:"), calls


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    missing = [
        f"{layer}.{name}"
        for layer, names in _perfbench_module("layers").LAYERS.items()
        for name, _ in names
        if not callable(getattr(importlib.import_module(f"binsys.{layer}"), name, None))
    ]
    assert missing == []


def test_benchmark_call_sites_bind():
    # perfbench/workloads.py calls census(n, workers=...) and
    # verify_claims(order, sample=..., seed=..., workers=...); perfbench/run.py
    # records _resolve_workers(None, 1 << 30) as the default worker count
    from binsys.enumeration import _resolve_workers

    inspect.signature(binsys.census).bind(3, workers=1)
    inspect.signature(binsys.verify_claims).bind(5, sample=10, seed=1, workers=1)
    assert type(_resolve_workers(None, 1 << 30)) is int


def test_groupoid_validation_hook_exists():
    from binsys.core import Groupoid

    assert callable(Groupoid.__dict__.get("__post_init__"))


def test_traced_claims_match_registry():
    # each claim is a span "enumeration.claim.<id>"; a registry change that
    # drops, renames or reorders a claim would silently lose or shift one
    from binsys.enumeration import REGISTRY

    assert _perfbench_module("layers").CLAIM_IDS == tuple(REGISTRY)


def test_claim_runners_are_instance_fields():
    # the traced run rebinds vars(claim)["runner"]; a runner that became a
    # method would escape the span without failing anything else
    from binsys.enumeration import CLAIMS

    assert all(callable(vars(c).get("runner")) for c in CLAIMS)


def test_traced_sampled_run_records_calls():
    # perfbench/selftest.py fails a workload whose traced run records no
    # call at all; a sampled verify that never reaches a wrapped function
    # or a Groupoid construction would pass every other test
    layers, workloads = _perfbench_module("layers"), _perfbench_module("workloads")
    work = workloads.Sampled(binsys, 7, tiny=True)
    gate = workloads.Gate(workloads.load_goldens())
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        work.run(next(work.ops()), gate, workers=1, tracer=tracer)
    finally:
        restore()
    assert gate.failed == 0
    assert any(tracer.calls[name] for name in layers.span_names())


def eager_exports() -> dict[str, str]:
    """Name -> module for each name ``__init__.py`` imports at load time."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        a.asname or a.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    }


def test_lazy_names_exist():
    missing = [
        f"{module}.{name}"
        for module, names in binsys._LAZY.items()
        for name in names
        if not hasattr(importlib.import_module(f"binsys.{module}"), name)
    ]
    assert missing == []


def test_all_is_eager_plus_lazy():
    eager, lazy = eager_exports(), binsys._OWNER
    assert not eager.keys() & lazy.keys()
    assert len(set(binsys.__all__)) == len(binsys.__all__)
    assert set(binsys.__all__) == eager.keys() | lazy.keys()


def test_exports_are_their_modules_objects():
    owners = dict(eager_exports(), **binsys._OWNER)
    wrong = [
        name for name in binsys.__all__
        if getattr(binsys, name) is not getattr(
            importlib.import_module(f"binsys.{owners[name]}"), name)
    ]
    assert wrong == []


def test_lazy_modules_load_on_first_use():
    script = """
import sys, binsys
assert not {"binsys.axioms", "binsys.enumeration"} & set(sys.modules)
assert set(binsys.__all__) <= set(dir(binsys))
assert binsys.axioms is sys.modules["binsys.axioms"]
assert "binsys.enumeration" not in sys.modules
assert binsys.REGISTRY is sys.modules["binsys.enumeration"].REGISTRY
assert binsys.enumeration is sys.modules["binsys.enumeration"]
try:
    binsys.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("binsys.no_such_name resolved")
namespace = {}
exec("from binsys import *", namespace)
assert set(binsys.__all__) <= set(namespace)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
