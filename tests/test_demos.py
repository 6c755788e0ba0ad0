"""The demo scripts and the README quick start run against the source tree."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import indtopo

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ["01_graph_families.py", "02_independence_complexes.py",
         "03_morse_matching.py", "04_homology_and_snf.py",
         "05_reductions_and_predictions.py", "06_reference_table.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    # the first python block runs as written; a line "expr  # literal" must
    # evaluate to that literal
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        comment = block.splitlines()[node.end_lineno - 1].partition("#")[2].strip()
        if comment:
            assert value == ast.literal_eval(comment), source
            checked += 1
    assert checked >= 5


# spans like `Ind(K_2 x K_3 x K_n)` are mathematics, not package names
README_MATH = {"Ind"}


def test_readme_names_resolve():
    """Every package name the README cites inline, as `module.name` or as a
    call `name(...)`, exists on indtopo or on that module."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    modules = {p.stem for p in (ROOT / "src" / "indtopo").glob("*.py")} - {"__init__"}
    checked = []
    for span in re.findall(r"`([^`\n]+)`", text):
        dotted, called = re.match(r"(\w+)\.(\w+)", span), re.match(r"(\w+)\(", span)
        if dotted and dotted[1] in {"indtopo", *modules}:
            owner = indtopo if dotted[1] == "indtopo" else importlib.import_module(
                f"indtopo.{dotted[1]}")
            name = dotted[2]
        elif called and called[1] not in README_MATH:
            owner, name = indtopo, called[1]
        else:
            continue
        assert hasattr(owner, name), f"README cites `{span}`; {owner.__name__} has no {name}"
        checked.append(span)
    assert len(checked) >= 10, checked
