"""Every function the benchmark wraps by name still exists in foldloc.

benchmarks/run.py wraps foldloc functions named "module.attr": the traced
spans in SPANS, and harness.detect_trace for its finiteness check. A name
that no longer resolves is reported, not fatal, so its per-layer metric
would quietly read 0, or the finiteness check would quietly stop checking.
The names are read from the file's syntax tree; nothing under benchmarks/
is imported.
"""
import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def _wrapped_targets() -> list[str]:
    """SPANS keys plus the literal target of every rebind(package, target, ...)."""
    spans, rebound = [], []
    for node in ast.walk(ast.parse(RUN_PY.read_text())):
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            spans = [ast.literal_eval(k) for k in node.value.keys]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "rebind" and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            rebound.append(node.args[1].value)
    return spans + rebound


TARGETS = _wrapped_targets()


def test_targets_found_in_benchmark():
    assert "detect._stage1_candidates" in TARGETS
    assert "harness.detect_trace" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_benchmark_target_resolves_to_callable(target):
    mod_name, attr = target.split(".")
    module = importlib.import_module(f"foldloc.{mod_name}")
    assert callable(getattr(module, attr, None)), f"foldloc.{target}"
