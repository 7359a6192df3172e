"""The benchmark's span tracer still wraps, runs and restores the package.

perfbench/tracing.py replaces every public function of the package with a
wrapper that records a span, and its hooks read `SweepResult.rows`,
`LengthMultiset.entries` and `.total` and the positional arguments of
`length_multiset(S, n)`.  A package change that breaks one of them makes
every traced benchmark run raise where the untraced one passes.  This module
runs a few queries untraced and traced, so such a break fails here first.
perfbench/tracing.py is loaded by file path and is not written.
"""

import importlib
import importlib.util
import inspect
import io
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter_ns

from factorlengths import asymptotics, cli, semigroup

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

CLI_QUERIES = [
    ("invariants", "-s", "6,9,20", "-n", "1000"),
    ("sweep", "-s", "3,5,7", "--points", "500,1"),
    ("model", "-s", "3,5,7", "-k", "1"),
    ("verify", "structure", "-s", "6,9,20"),
    ("histo4", "--csv", "-s", "4,5,6,7", "-n", "60"),
]


def _queries():
    """One call per query.  Package functions are looked up through module
    attributes when a query runs, so the tracer's wrappers are reached."""
    calls = [lambda argv=argv: cli.main(list(argv)) for argv in CLI_QUERIES]
    calls.append(lambda: asymptotics.envelope_report(semigroup.make_semigroup([3, 5, 7]), 1))
    return calls


def _run(tracer=None) -> list[tuple[object, str]]:
    """(exit code or returned report, stdout) of each query."""
    results = []
    for query_id, call in enumerate(_queries()):
        if tracer is not None:
            tracer.query_id = query_id
        out = io.StringIO()
        start = perf_counter_ns()
        with redirect_stdout(out):
            value = call()
        if tracer is not None:
            tracer.record_query(perf_counter_ns() - start)
        results.append((value, out.getvalue()))
    return results


def _bindings() -> dict[tuple[str, ...], object]:
    """Every function bound in a package module, and every attribute of the
    package's classes, keyed by where it is bound."""
    modules = [importlib.import_module(tracing.PACKAGE)] + [
        importlib.import_module(f"{tracing.PACKAGE}.{layer}") for layer in tracing.LAYERS
    ]
    found = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                found[mod.__name__, attr] = value
            elif inspect.isclass(value) and value.__module__.startswith(tracing.PACKAGE):
                for member, raw in vars(value).items():
                    found[mod.__name__, attr, member] = raw
    return found


def test_traced_queries_match_untraced_and_bindings_are_restored():
    before = _bindings()
    untraced = _run()
    assert [value for value, _ in untraced[:-1]] == [0] * len(CLI_QUERIES)
    with tracing.Tracer() as tracer:
        wrapped = _bindings()
        traced = _run(tracer)
    after = _bindings()

    assert traced == untraced
    # the wrappers were in place, down to the from-import bindings
    key = ("factorlengths.experiments", "length_multiset")
    assert wrapped[key] is not before[key]
    assert tracer.counters["factorization.factorizations_counted"] > 0
    assert tracer.counters["experiments.elements_checked"] > 0
    metrics, check = tracer.summary(1)
    assert check["queries"] == len(traced) and metrics["experiments.calls"] > 0
    # restore put back every original object under every name
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
