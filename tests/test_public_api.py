"""Every name foldloc exports is read in src/ or benchmarks/, outside its own
definition and the package's import of it; what only tests call belongs in
tests/oracles.py. Every private module-level name of the package is read in
src/ outside its own definition. The package's one parallel work, the synthesis
of a fix's cells, is reached one way. The sources are parsed, not
imported."""
import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foldloc"
EXPORTS = sorted(alias.asname or alias.name
                 for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
# bare names and attributes read; a definition or an import reads none
READ = {node.id if isinstance(node, ast.Name) else node.attr
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
        if path != PACKAGE / "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_read_outside_tests(name):
    assert name in READ, f"foldloc.{name} has no reader in src/ or benchmarks/"


def _defined(node):
    """Names a module-level statement defines as a function, class or
    assigned constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(PACKAGE.glob("*.py"))}
TREES = list(MODULES.values())
# (name, defining statement) of every private, not dunder, module-level name
PRIVATE = sorted(((name, node) for tree in TREES for node in tree.body
                  for name in _defined(node)
                  if name.startswith("_") and not name.endswith("__")),
                 key=lambda d: d[0])
# name -> the nodes of src/ that read it, as a bare name or an attribute
LOADS = defaultdict(list)
for node in (node for tree in TREES for node in ast.walk(tree)):
    if isinstance(node, (ast.Name, ast.Attribute)) \
            and isinstance(node.ctx, ast.Load):
        LOADS[node.id if isinstance(node, ast.Name) else node.attr].append(node)
# id of every node of src/ -> (module, name of its module-level statement,
# None for one that names nothing)
OWNER = {id(node): (module, getattr(top, "name", None))
         for module, tree in MODULES.items() for top in tree.body
         for node in ast.walk(top)}


@pytest.mark.parametrize("name,definition", PRIVATE, ids=[n for n, _ in PRIVATE])
def test_private_name_is_read_in_src(name, definition):
    inside = set(map(id, ast.walk(definition)))
    assert any(id(node) not in inside for node in LOADS[name]), \
        f"{name} has no reader in src/ outside its definition"


def test_no_call_asks_for_worker_threads():
    """No layer splits itself across threads: no call passes workers=,
    as scipy.fft's transforms would take it."""
    calls = [(module, node.lineno) for module, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and any(k.arg == "workers" for k in node.keywords)]
    assert not calls


def test_only_overlap_reads_the_helper_threads():
    assert {OWNER[id(n)] for n in LOADS["_helpers"]} == {("lte", "_overlap")}


def test_only_a_fix_synthesis_overlaps():
    """The syntheses of a fix's cells are the only jobs _overlap is given."""
    assert {OWNER[id(n)] for n in LOADS["_overlap"]} == {("harness", "_synth")}
