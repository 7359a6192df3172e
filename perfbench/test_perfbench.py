"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import importlib
import inspect
import json

import pytest

import checks
import run
import tracing
import workloads

PACKAGE = run.load_package()
REFERENCE = run.load_reference()
ORACLES = checks.load_oracles(run.ROOT)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: 0.1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_fully_referenced(name):
    first = workloads.generate(name, 11)
    assert first == workloads.generate(name, 11)
    assert first != workloads.generate(name, 12)
    assert len(first) == len(workloads.slots(name))
    missing = [q for q in workloads.all_candidates(name) if workloads.query_key(q) not in REFERENCE]
    assert missing == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracle_sample_is_deterministic(name):
    def argvs(seed):
        return [argv for argv, _ in checks.oracle_checks(name, seed, ORACLES)]

    assert argvs(3) == argvs(3)
    assert argvs(3)


def _bindings():
    """Every attribute of the package modules and of their classes."""
    mods = [importlib.import_module(tracing.PACKAGE)]
    mods += [importlib.import_module(f"{tracing.PACKAGE}.{layer}") for layer in tracing.LAYERS]
    out = {}
    for mod in mods:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if inspect.isclass(value):
                for member, raw in vars(value).items():
                    out[(mod.__name__, attr, member)] = raw
    return out


SMALL_QUERIES = [
    ("cli", ("invariants", "-s", "6,9,20", "-n", "132")),
    ("cli", ("histogram", "--include-zeros", "-s", "3,5,7", "-n", "630")),
    ("cli", ("verify", "mode", "-s", "3,5,7", "--n-max", "60")),
    ("cli", ("sweep", "-s", "3,5,7", "--points", "100,1000")),
    ("cli", ("asymptotics", "-s", "48,49,50")),
    ("cli", ("histo4", "--csv", "-s", "4,5,6,7", "-n", "60")),
    ("cli", ("construct", "sqrtd", "2", "5")),
    ("cli", ("egyptian", "8/11", "--terms", "4")),
    ("envelope", "3,5,7", 1),
]


def test_tracer_restores_every_binding_and_keeps_output():
    before = _bindings()
    calls = [run.prepare(q, PACKAGE) for q in SMALL_QUERIES]
    plain = [run.execute(*c)[2:] for c in calls]

    tracer = tracing.Tracer()
    with tracer:
        assert PACKAGE.cli.main is not before[("factorlengths.cli", "main")]
        traced = []
        for qid, c in enumerate(calls):
            tracer.query_id = qid
            elapsed, _, code, out = run.execute(*c)
            tracer.record_query(elapsed)
            traced.append((code, out))

    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    metrics, check = tracer.summary(passes=1)
    assert check["queries"] == len(SMALL_QUERIES)
    assert check["queries_uncovered_past_tolerance"] == 0
    assert check["spans_outside_recorded_queries"] == 0
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["experiments.elements_checked"] > 0
    assert metrics["asymptotics.upper_envelope.calls"] > 0


def _synthetic_tracer(query_ns: int) -> tracing.Tracer:
    """One query of four spans whose root lasts 100 us, measured as query_ns."""
    tracer = tracing.Tracer()
    tracer.names.append("cli.main")
    us = 1000
    for start, end, parent in [(0, 100 * us, -1), (10 * us, 40 * us, 0), (50 * us, 60 * us, 0), (12 * us, 20 * us, 1)]:
        tracer.name.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.query.append(0)
    tracer.query_id = 0
    tracer.record_query(query_ns)
    return tracer


def test_self_times_are_duration_minus_children():
    tracer = _synthetic_tracer(100_000)
    assert list(tracer.self_times()) == [60_000, 22_000, 10_000, 8_000]
    assert tracer.summary(passes=1)[1]["queries_uncovered_past_tolerance"] == 0


def test_time_outside_every_span_fails_the_self_time_check():
    check = _synthetic_tracer(100_000 + tracing.UNCOVERED_MAX_NS + 1).summary(passes=1)[1]
    assert check["queries_uncovered_past_tolerance"] == 1
    assert check["worst_query_uncovered_frac"] > 0.3


def test_scale_uses_the_calibrations_near_each_sample():
    ms = run.CALIBRATION_REF_NS
    calibrations = [(0.0, 2 * ms), (0.3, 2 * ms), (5.0, 4 * ms)]
    assert run.scale([(0.01, 0.29, 8_000_000), (4.9, 4.95, 8_000_000)], calibrations) == [4_000_000, 2_000_000]


def test_tail_is_always_p95_by_nearest_rank():
    assert run.tail_percentile(list(range(1, 201))) == (190, 10)
    assert run.tail_percentile(list(range(1, 1001))) == (950, 50)
    assert run.tail_percentile(list(range(1, 101))) == (95, 5)


def test_run_is_correct_against_the_reference(quick_setup):
    result = run.run_workload("exact_model", 1, 0, False, REFERENCE, PACKAGE, ORACLES)
    assert result["correct"] and result["failed"] == 0 and result["fail_frac"] == 0
    assert result["units"] == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_reference_digest_makes_fail_frac_nonzero(quick_setup):
    key = workloads.query_key(workloads.generate("exact_model", 1)[0])
    corrupted = dict(REFERENCE)
    corrupted[key] = [0, "0" * 64]
    result = run.run_workload("exact_model", 1, 0, False, corrupted, PACKAGE, ORACLES)
    assert not result["correct"]
    assert result["failed"] == 1 and result["fail_frac"] > 0
    assert result["failures"][0]["query"] == key


def test_traced_run_reports_every_layer_metric():
    result = run.run_workload("exact_model", 1, 0, True, REFERENCE, PACKAGE, ORACLES)
    assert result["correct"]
    assert result["trace_check"]["queries_uncovered_past_tolerance"] == 0
    assert result["units"] == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["asymptotics.upper_envelope.calls"] > 0
    assert result["metrics"]["constructions.calls"] > 0
