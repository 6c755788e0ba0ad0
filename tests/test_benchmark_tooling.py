"""The benchmark's tracer and workloads name package functions that must exist.

Both files look functions up by name at run time, so a renamed or removed
function would only show when the benchmark runs with ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
