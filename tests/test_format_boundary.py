"""Module boundaries checked on the source: the JSON form of results lives
in one module (`cli` alone imports json, and no module spells a `to_json`
or `from_json` of its own), no package module catches NotInSemigroup (it
asks `contains` instead), no package module, script or test file imports
a name it does not use, every public function or method of the package has
a caller in the package or the scripts (or is exported in `__all__`) apart
from two names the benchmark calls, the test oracles, which the
benchmark loads too, import only the standard library and `QuadNumber`,
a fresh import of the package loads neither `dataclasses` nor `inspect`,
only `semigroup` checks for three generators, and a semigroup's delta is
an instance value set when it is made."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from factorlengths.semigroup import Semigroup, make_semigroup

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "factorlengths"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
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
    [path for path in MODULES if path.name != "__init__.py"] + SCRIPTS + TESTS,
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_membership_is_asked_not_caught(path):
    """One membership primitive: package code asks `contains` before it
    counts, and no module catches NotInSemigroup to learn membership."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    caught = {
        node.id if isinstance(node, ast.Name) else node.attr
        for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler) and handler.type
        for node in ast.walk(handler.type) if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert "NotInSemigroup" not in caught


def test_oracles_import_only_stdlib_and_package():
    """perfbench/checks.py loads tests/oracles.py in every benchmark run, so a
    test-only dependency imported there would change what the benchmark runs.
    From the package the oracles take only the QuadNumber value type: an
    oracle that reused package code would agree with the code it checks."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = _imports(tree)
    assert imported - sys.stdlib_module_names - {"factorlengths"} == set()
    from_package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            from_package.update(a.name for a in node.names if a.name.split(".")[0] == "factorlengths")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "factorlengths":
            from_package.update(a.name for a in node.names)
    assert from_package == {"QuadNumber"}


def _checks_k_not_three(tree: ast.AST) -> bool:
    """Whether tree spells `<expr>.k != 3`."""
    return any(
        isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
        and node.left.attr == "k" and isinstance(node.ops[0], ast.NotEq)
        and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 3
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_three_generator_check_lives_in_semigroup(path):
    """`semigroup.require_three` is the one k = 3 check; the counting
    kernel's `S.k == 3` dispatch chooses a route and checks nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _checks_k_not_three(tree) == (path.name == "semigroup.py")


def test_delta_is_an_instance_value():
    """Set once when the semigroup is made: no descriptor on the class
    computes or caches it on a later read."""
    S = make_semigroup([6, 9, 20])
    assert vars(S)["delta"] == 1 and not hasattr(Semigroup, "delta")


# Public API that only the benchmark reaches.  Test-only helpers live in
# tests/oracles.py or in their test module instead.
NO_PACKAGE_CALLER = {
    "envelope_report": "the exact_model benchmark workload calls it directly",
    "LengthMultiset.entries": "perfbench/tracing.py reads it to count emitted lengths",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, def node) of the public module-level functions and
    public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST, inside: tuple[str, ...] = ()):
    """Names and attribute names used in node, skipping each one inside a
    definition of that same name, so recursion is not a caller."""
    if isinstance(node, ast.FunctionDef):
        inside = (*inside, node.name)
    if isinstance(node, ast.Name) and node.id not in inside:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_every_public_function_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES + SCRIPTS}
    used = set()
    for tree in trees.values():
        used.update(_references(tree))
    init = trees[PACKAGE / "__init__.py"]
    exported = next(
        ast.literal_eval(node.value) for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    uncalled = sorted(
        name
        for path in MODULES
        for name, node in _public_definitions(trees[path])
        if node.name not in used and name not in exported
    )
    assert uncalled == sorted(NO_PACKAGE_CALLER)


def test_import_loads_no_dataclasses_or_inspect():
    """Records are NamedTuples: `dataclasses`, the `inspect` it pulls in and
    the record definitions cost about a fifth of a one-shot command's CPU."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import factorlengths, factorlengths.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
