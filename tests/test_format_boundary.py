"""Module boundaries checked on the source: the JSON form of results lives
in one module (`cli` alone imports json, and no module spells a `to_json`
or `from_json` of its own), no package module or script imports a name it
does not use, and the test oracles, which the benchmark loads too, import
only the standard library and the package."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "factorlengths"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_package_found():
    assert "cli.py" in {path.name for path in MODULES}


def _imports(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_json_stays_in_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name != "cli.py":
        assert "json" not in _imports(tree)
    defined = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not defined & {"to_json", "from_json"}


def _unused_imports(tree: ast.AST) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path",
    [path for path in MODULES if path.name != "__init__.py"] + SCRIPTS,
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_oracles_import_only_stdlib_and_package():
    """perfbench/checks.py loads tests/oracles.py in every benchmark run, so a
    test-only dependency imported there would change what the benchmark runs."""
    imported = _imports(ast.parse(ORACLES.read_text(encoding="utf-8")))
    assert "factorlengths" in imported
    assert imported - sys.stdlib_module_names - {"factorlengths"} == set()
