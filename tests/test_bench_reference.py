"""Benchmark candidate queries against their reference stdout digests.

perfbench/reference.json maps each benchmark query to [exit code, SHA-256
of stdout].  The benchmark checks these digests on every run; this module
checks the command-line ones in the suite, so a change of output shows up
here first.  perfbench/workloads.py is loaded by file path and nothing
under perfbench/ is written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from factorlengths.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every candidate of these commands, and invariants below INVARIANTS_N_MAX;
# larger invariants queries take most of the benchmark's time.
COMMANDS = {"sweep", "asymptotics", "model", "construct", "egyptian"}
INVARIANTS_N_MAX = 200_000


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _selected(argv: tuple[str, ...]) -> bool:
    if argv[0] == "invariants":
        return int(argv[argv.index("-n") + 1]) < INVARIANTS_N_MAX
    return argv[0] in COMMANDS


def _queries() -> dict[str, tuple[str, ...]]:
    workloads = _load_workloads()
    return {
        workloads.query_key(query): query[1]
        for name in workloads.WORKLOADS
        for query in workloads.all_candidates(name)
        if query[0] == "cli" and _selected(query[1])
    }


QUERIES = _queries()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def test_selection_covers_every_command():
    assert {argv[0] for argv in QUERIES.values()} == COMMANDS | {"invariants"}
    assert len(QUERIES) == 213


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_reference_digest(capsys, key):
    code = main(list(QUERIES[key]))
    out = capsys.readouterr().out
    assert [code, hashlib.sha256(out.encode("utf-8")).hexdigest()] == REFERENCE[key]
