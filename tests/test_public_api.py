"""Every name foldloc exports is read in src/ or benchmarks/, outside its own
definition and the package's import of it; what only tests call belongs in
tests/oracles.py. Every private module-level name of the package is read in
src/ outside its own definition. The package's threads work one queue: a
fix's cells, and the pieces of a large cell's passes; each is reached one
way. The sources are parsed, not imported."""
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
    """Threads work one queue: a fix's cells, and the pieces of a large
    cell's passes. No call asks for threads of its own by passing
    workers=, as scipy.fft's transforms would take it."""
    calls = [(module, node.lineno) for module, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and any(k.arg == "workers" for k in node.keywords)]
    assert not calls


def test_only_overlap_reads_the_helper_threads():
    assert {OWNER[id(n)] for n in LOADS["_helpers"]} == {("lte", "_overlap")}


def test_only_overlap_and_split_run_work():
    """Every job and every piece of a split pass completes through _run's
    Future."""
    assert {OWNER[id(n)] for n in LOADS["_run"]} == \
        {("lte", "_overlap"), ("lte", "_split")}


def test_lte_builds_one_condition():
    """The _Queue's is the only threading.Condition lte constructs: jobs and
    pieces wait on their Futures, not on conditions of their own."""
    calls = [node for node in ast.walk(MODULES["lte"])
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "Condition"]
    assert [OWNER[id(node)] for node in calls] == [("lte", "_Queue")]


def test_only_a_fix_synthesis_overlaps():
    """The syntheses of a fix's cells are the only jobs _overlap is given."""
    assert {OWNER[id(n)] for n in LOADS["_overlap"]} == {("harness", "_synth")}


def test_only_the_delay_splits_its_passes():
    assert {OWNER[id(n)] for n in LOADS["_split"]} == \
        {("harness", "_delay_stacked")}


# module-level public functions of the package
PUBLIC = {node.name for tree in TREES for node in tree.body
          if isinstance(node, ast.FunctionDef)
          and not node.name.startswith("_")}
# numpy calls that run a BLAS product, which may wake BLAS threads
BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def test_pieces_call_no_public_function_and_no_blas():
    """The pieces of _delay_stacked's passes, its nested functions and
    lambdas, may run on a helper thread: they call no public function of
    the package, which a tracer with one span stack would see off the
    calling thread, and no BLAS product, which _blas_on_caller keeps on
    the thread that asks for it; einsum is not asked to optimize, which
    would hand its product to BLAS."""
    delay = next(node for node in MODULES["harness"].body
                 if getattr(node, "name", None) == "_delay_stacked")
    pieces = [node for node in ast.walk(delay) if node is not delay and
              isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert pieces
    for node in (node for piece in pieces for node in ast.walk(piece)):
        assert not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.MatMult))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            assert name not in PUBLIC | BLAS, name
            assert all(k.arg != "optimize" for k in node.keywords)
        if isinstance(node, ast.Attribute):
            assert node.attr not in BLAS, node.attr
