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


def _workload_failures(name):
    import indtopo

    ops = _load("workloads").WORKLOADS[name](indtopo, 7)
    assert ops
    return {op.label: fault for op in ops if (fault := op.run()) is not None}


def test_certify_workload_batch_passes():
    """Every op of the certify batch (seed 7) checks out against indtopo, so the
    workload's certificates are exercised on each test run."""
    assert _workload_failures("certify") == {}


def test_table1_workload_batch_passes():
    """The table1 batch (seed 7): mod-2 windows and integer rows of K2xK3xKn."""
    assert _workload_failures("table1") == {}


def test_integer_workload_batch_passes():
    """The integer batch (seed 7): full-range Z homology of the products."""
    assert _workload_failures("integer") == {}


def test_verify_mix_workload_batch_passes():
    """The verify_mix batch (seed 7): the nine small gating suites and reduce()
    on their family graphs."""
    assert _workload_failures("verify_mix") == {}


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


def test_one_face_guard_per_route():
    """In complexes, only the f-polynomial count (its nested recursion
    included) and from_facets charge the face budget: every route to Ind(G)
    counts before it builds, and the enumerator charges nothing."""
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    charging = {top.name for top in tree.body
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_check_budget"}
    assert charging == {"_face_polynomial", "from_facets"}


def test_one_betti_entry_for_ind_g():
    """In homology, only graph_betti walks Ind(G): betti_window and every
    other route reach the walk through it."""
    tree = ast.parse((PACKAGE / "homology.py").read_text())
    callers = {top.name for top in tree.body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_classified_skeleton"}
    assert callers == {"graph_betti"}


def test_reduce_is_one_loop_without_recursion():
    """homotopy.reduce defines no nested function or lambda and never calls
    itself: its pieces wait on an explicit stack."""
    tree = ast.parse((PACKAGE / "homotopy.py").read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "reduce"]
    inner = list(ast.walk(fn))[1:]
    assert not [n for n in inner
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert not [n for n in inner if isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "reduce"]


def test_package_all_lists_each_import_once():
    """indtopo.__all__ names each name __init__ imports, and __version__,
    once and nothing else."""
    import indtopo

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(indtopo.__all__)) == len(indtopo.__all__)
    assert sorted(indtopo.__all__) == sorted([*imported, "__version__"])
