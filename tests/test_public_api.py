"""Every name foldloc exports is read in src/ or benchmarks/, outside its own
definition and the package's import of it; what only tests call belongs in
tests/oracles.py. The sources are parsed, not imported."""
import ast
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
