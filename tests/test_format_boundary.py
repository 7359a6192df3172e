"""The JSON form of results lives in one module: `cli` alone imports json,
and no module spells a `to_json` or `from_json` of its own."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "factorlengths"
MODULES = sorted(PACKAGE.glob("*.py"))


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
