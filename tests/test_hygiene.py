"""Static checks over the package source.

Every module under ``src/binsys`` (bar ``__init__.py``, which only
re-exports) must use each name it imports, and every function and claim
the traced benchmark run (``perfbench/layers.py``) wraps must still exist.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

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


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    missing = [
        f"{layer}.{name}"
        for layer, names in _perfbench_layers().LAYERS.items()
        for name, _ in names
        if not callable(getattr(importlib.import_module(f"binsys.{layer}"), name, None))
    ]
    assert missing == []


def test_groupoid_validation_hook_exists():
    from binsys.core import Groupoid

    assert callable(Groupoid.__dict__.get("__post_init__"))


def test_traced_claims_match_registry():
    # each claim is a span "enumeration.claim.<id>"; a registry change that
    # drops, renames or reorders a claim would silently lose or shift one
    from binsys.enumeration import REGISTRY

    assert _perfbench_layers().CLAIM_IDS == tuple(REGISTRY)
