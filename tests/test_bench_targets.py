"""Every name the benchmark takes from foldloc still exists in foldloc.

benchmarks/run.py wraps foldloc functions named "module.attr": the traced
spans in SPANS, and harness.detect_trace for its finiteness check. A name
that no longer resolves is reported, not fatal, so its per-layer metric
would quietly read 0, or the finiteness check would quietly stop checking.
benchmarks/workloads.py and run.py also import names from foldloc, use
attributes of its harness and traceio modules and of its Scenarios, and
pass keywords to its classes and functions; a rename there would fail
the benchmark, not tier-1. All names are read from the files' syntax trees; nothing under
benchmarks/ is imported.
"""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
RUN_PY = BENCH / "run.py"
BENCH_FILES = (BENCH / "workloads.py", RUN_PY)


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


def _bench_uses():
    """(imports, module attributes, keywords) the benchmark files use.

    imports are "module:name" for every `from foldloc[.module] import name`;
    attributes are "module.attr" for every `harness.attr` or
    `traceio.attr`, and "Scenario.attr" for every `sc.attr` or `x.sc.attr`
    (the benchmark names its Scenarios sc); keywords are
    "module:name(keyword)" for every keyword passed to an imported name or
    a harness/traceio attribute.
    """
    imports, attrs, keywords = set(), set(), set()
    for path in BENCH_FILES:
        tree = ast.parse(path.read_text())
        origin = {}          # local name -> "module:name"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "foldloc":
                for a in node.names:
                    imports.add(f"{node.module}:{a.name}")
                    origin[a.asname or a.name] = f"{node.module}:{a.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in ("harness", "traceio"):
                attrs.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Attribute) and \
                    (isinstance(node.value, ast.Name) and node.value.id == "sc" or
                     isinstance(node.value, ast.Attribute) and node.value.attr == "sc"):
                attrs.add(f"Scenario.{node.attr}")
            elif isinstance(node, ast.Call) and node.keywords:
                f = node.func
                if isinstance(f, ast.Name) and f.id in origin:
                    callee = origin[f.id]
                elif isinstance(f, ast.Attribute) and \
                        isinstance(f.value, ast.Name) and \
                        f.value.id in ("harness", "traceio"):
                    callee = f"foldloc.{f.value.id}:{f.attr}"
                else:
                    continue
                keywords.update(f"{callee}({k.arg})" for k in node.keywords
                                if k.arg is not None)
    return sorted(imports), sorted(attrs), sorted(keywords)


TARGETS = _wrapped_targets()
IMPORTS, ATTRS, KEYWORDS = _bench_uses()


def _resolve(spec: str):
    module, _, name = spec.partition(":")
    return getattr(importlib.import_module(module), name, None)


def test_targets_found_in_benchmark():
    assert "detect._stage1_candidates" in TARGETS
    assert "harness.detect_trace" in TARGETS
    assert "foldloc.scenario:scenario_cell_db" in IMPORTS
    assert "harness.cmd_localize" in ATTRS
    assert "foldloc.scenario:Scenario(rng_seed)" in KEYWORDS
    assert "Scenario.correlation_mode" in ATTRS


@pytest.mark.parametrize("target", TARGETS)
def test_benchmark_target_resolves_to_callable(target):
    mod_name, attr = target.split(".")
    module = importlib.import_module(f"foldloc.{mod_name}")
    assert callable(getattr(module, attr, None)), f"foldloc.{target}"


@pytest.mark.parametrize("spec", IMPORTS)
def test_benchmark_import_resolves(spec):
    module, _, name = spec.partition(":")
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or \
        importlib.util.find_spec(f"{module}.{name}") is not None, spec


@pytest.mark.parametrize("attr", ATTRS)
def test_benchmark_module_attribute_resolves(attr):
    owner, name = attr.split(".")
    if owner == "Scenario":
        from foldloc.scenario import Scenario
        assert name in {f.name for f in dataclasses.fields(Scenario)}, attr
    else:
        assert hasattr(importlib.import_module(f"foldloc.{owner}"), name), attr


@pytest.mark.parametrize("spec", KEYWORDS)
def test_benchmark_keyword_accepted(spec):
    callee, _, kw = spec[:-1].partition("(")
    params = inspect.signature(_resolve(callee)).parameters
    assert kw in params or any(p.kind is p.VAR_KEYWORD
                               for p in params.values()), spec
