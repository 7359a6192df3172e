"""Benchmark candidate queries against their reference stdout digests.

perfbench/reference.json maps each benchmark query to [exit code, SHA-256
of stdout].  The benchmark checks these digests on every run; this module
checks the command-line ones and the direct envelope_report calls in the
suite, so a change of output shows up here first.  perfbench/run.py, with
the workloads module it imports, is loaded by file path, so an envelope
report is rendered by the benchmark's own envelope_text; nothing under
perfbench/ is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from factorlengths.asymptotics import envelope_report
from factorlengths.cli import main
from factorlengths.semigroup import parse_semigroup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every candidate of these commands, and invariants below INVARIANTS_N_MAX;
# larger invariants queries take most of the benchmark's time.
COMMANDS = {"sweep", "asymptotics", "model", "construct", "egyptian"}
INVARIANTS_N_MAX = 2_000_000


def _load_run():
    # run.py puts perfbench/ on sys.path to import its siblings; undo that
    # once it is loaded
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


RUN = _load_run()


def _selected(query: tuple) -> bool:
    if query[0] == "envelope":
        return True
    argv = query[1]
    if argv[0] == "invariants":
        return int(argv[argv.index("-n") + 1]) < INVARIANTS_N_MAX
    return argv[0] in COMMANDS


def _queries() -> dict[str, tuple]:
    workloads = RUN.workloads
    return {
        workloads.query_key(query): query
        for name in workloads.WORKLOADS
        for query in workloads.all_candidates(name)
        if _selected(query)
    }


QUERIES = _queries()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def test_selection_covers_every_command():
    kinds = {query[1][0] if query[0] == "cli" else query[0] for query in QUERIES.values()}
    assert kinds == COMMANDS | {"invariants", "envelope"}
    assert len(QUERIES) == 368
    assert sum(query[0] == "envelope" for query in QUERIES.values()) == 11


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_reference_digest(capsys, key):
    query = QUERIES[key]
    if query[0] == "cli":
        code = main(list(query[1]))
        out = capsys.readouterr().out
    else:
        _, gens, k = query
        code, out = 0, RUN.envelope_text(envelope_report(parse_semigroup(gens), k))
    assert [code, hashlib.sha256(out.encode("utf-8")).hexdigest()] == REFERENCE[key]
