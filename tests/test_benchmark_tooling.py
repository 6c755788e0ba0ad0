"""The benchmark's tracer and workloads name package functions that must exist.

Both files look functions up by name at run time, so a renamed or removed
function would only show when the benchmark runs with ``--trace 1``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "indtopo"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for module, function, _ in _load("tracer").TRACED:
        target = importlib.import_module(f"indtopo.{module}")
        assert callable(getattr(target, function, None)), f"indtopo.{module}.{function}"


def test_workload_checkers_resolve():
    verify = importlib.import_module("indtopo.verify")
    for kind, name in _load("workloads")._CHECKERS.items():
        assert callable(getattr(verify, name, None)), f"{kind}: indtopo.verify.{name}"


def test_tracer_counters_accept_real_results():
    """Each counter reads what its traced function returns on a tiny input, so a
    changed return type fails here and not only under ``--trace 1``."""
    from indtopo import graphs as gr
    from indtopo.complexes import independence_complex
    from indtopo.homology import boundary_matrix, gf2_columns
    from indtopo.morse import element_matching

    G = gr.cycle(5)
    K = independence_complex(G)
    matching = element_matching(K, K.vertices)
    columns = gf2_columns(boundary_matrix(K, 1))
    calls = {
        "independence_complex": ((G,), {}),
        "faces_in_window": ((G, 0, 1), {}),
        "boundary_matrix": ((K, 1), {}),
        "gf2_rank": ((columns,), {}),
        "betti_reduced": ((K,), {"coefficients": "int"}),
        "element_matching": ((K, K.vertices), {}),
        "verify_acyclic": ((matching, K), {}),
        "reduce": ((G,), {}),
    }
    counted = set()
    for module, function, counter in _load("tracer").TRACED:
        if counter is None:
            continue
        args, kwargs = calls[function]
        fn = getattr(importlib.import_module(f"indtopo.{module}"), function)
        counts = counter(args, kwargs, fn(*args, **kwargs))
        assert counts and all(isinstance(v, (int, float)) for v in counts.values()), function
        counted.add(function)
    assert counted == set(calls)


def test_certify_workload_batch_passes():
    """Every op of the certify batch (seed 7) checks out against indtopo, so the
    workload's certificates are exercised on each test run."""
    import indtopo

    ops = _load("workloads").WORKLOADS["certify"](indtopo, 7)
    assert ops
    failures = {op.label: fault for op in ops if (fault := op.run()) is not None}
    assert failures == {}


def test_package_modules_use_every_import():
    """Each module of the package, the re-exporting __init__ aside, uses
    every name it imports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"
