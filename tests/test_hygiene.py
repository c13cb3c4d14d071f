"""Static checks over the package source and its exports.

Every module under ``src/binsys`` (bar ``__init__.py``, which only
re-exports) must use each name it imports, and the package calls ``eval``
once, in its one compiler.  Every function and claim the traced
benchmark run (``perfbench/layers.py``) wraps must still exist, every
function its walk reaches must name its module, and the calls the
benchmark workloads make must still bind.
The package exports the names its eager modules list in their
``__all__`` plus those of its lazy table, each declared once and each
the very object its module defines, and importing it loads neither
``dataclasses`` nor ``inspect``.
The README's Python API example runs as written.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys
import types

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
    # core._compiled builds ⋄, every derived factor and every structural
    # flag; a second source-to-function step would be a second kernel to
    # keep in step
    calls = eval_calls()
    assert len(calls) == 1 and calls[0].startswith("core.py:"), calls


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


def test_traced_walk_meets_named_functions():
    # layers._slots reads __module__ of every binsys function it reaches,
    # the compiled forms of the flags among them; a function compiled
    # into globals without __name__ has __module__ None and crashes the
    # walk.  Each flag is called twice at two orders first, so that the
    # walk meets its straight-line forms whatever ran before.
    from binsys import core, enumeration

    layers = _perfbench_module("layers")
    flags = [core._idempotent, core._strong, core._orientation, core._locally_zero,
             core._twisted_orientation, core._bi_diagonal, core._abelian,
             enumeration._b1_diagonal, enumeration._no_op_cells]
    for n in (3, 5):
        t = core._left_zero_table(n)
        for flag in flags:
            flag(t), flag(t)
    reached = [value for _, _, value in layers._slots(layers._binsys_modules(), core.Groupoid)
               if isinstance(value, types.FunctionType)]
    assert [f for f in reached if not isinstance(f.__module__, str)] == []
    assert all(flag.at(n) in reached for flag in flags for n in (3, 5))


def eager_exports() -> dict[str, str]:
    """Name -> module for each name ``__init__.py`` star-imports at load
    time, read from the module's ``__all__``."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for name in importlib.import_module(f"binsys.{node.module}").__all__
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


# the package's 78 public names; a name dropped from, or added to, a
# module's __all__ or _LAZY shows here
PUBLIC_NAMES = frozenset("""
    ALGEBRA_CLASSES AXIOMS CLAIMS METHODS PREDICATES REGISTRY BadLabels BadShape BadZero
    BinsysError CensusReport Claim ClaimReport ClassificationReport ClosureViolation Digraph
    DiagonalProfile FactorPair Groupoid InternalError MissingZero NotOP OrderMismatch
    OrderTooLarge ParseError PreconditionError SimpleGraph UniquenessReport ValidationError
    algebra_classes all_graphs all_groupoids au_holds axiom_holds axiom_vector
    binary_equivalent census classify commutes diagonal_profile digraph_to_dot factorize
    find_inverse from_graph graph_to_dot groupoid has_orientation has_twisted_orientation
    in_center is_abelian is_bi_diagonal is_idempotent is_identity is_locally_zero
    is_partially_prime is_semi_neutral is_strong jo_holds left_zero oj_holds orient_factor
    parse_dot parse_groupoid predicate_vector product random_groupoids right_zero
    semi_neutral_groupoid serialize_groupoid signature_factor similar_factor skew_factor
    table_count to_digraph to_graph ua_holds uniqueness_search verify_claims
""".split())


def declared_names() -> list[str]:
    """Every name in a literal ``__all__`` under ``src/binsys`` or in
    ``_LAZY``, with repeats."""
    names = [name for names in binsys._LAZY.values() for name in names]
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = [ast.unparse(t) for t in getattr(node, "targets", ())]
            if targets == ["__all__"]:
                names += ast.literal_eval(node.value)
    return names


def test_each_public_name_declared_once():
    declared = declared_names()
    assert len(declared) == len(set(declared)) == len(PUBLIC_NAMES) == 78
    assert sorted(declared) == sorted(binsys.__all__) == sorted(PUBLIC_NAMES)


def test_init_lists_no_names_of_its_own():
    # the only literal list of names in __init__.py is _LAZY, whose modules
    # it must not import; the eager names come from their modules' __all__
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    literals = sorted(
        tuple(ast.literal_eval(node)) for node in ast.walk(tree)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)) and node.elts
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
    )
    assert literals == sorted(binsys._LAZY.values())


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


def test_import_floor_leaves_dataclasses_unloaded():
    # dataclasses loads inspect, and the two were about 40% of the time
    # `import binsys.cli` takes; the record types are named tuples and
    # plain classes instead
    script = (
        "import sys, binsys.cli; import binsys, binsys.axioms, binsys.enumeration; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_example_runs():
    # the README's "Python API" block runs as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
