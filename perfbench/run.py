#!/usr/bin/env python3
"""factorlengths benchmark: closed-loop CLI workloads with exact output checks.

One run measures one workload in this interpreter: a single client sends the
next query only after the previous one returns.  Queries call
``factorlengths.cli.main(argv)`` in-process with stdout captured (or
``asymptotics.envelope_report``, which no command reaches).  The run repeats
whole passes over the seed's query list until ``--seconds`` have elapsed.
Queries and set-up launches are timed in CPU time and scaled by a fixed
calibration loop timed next to each of them, so that the speed of the shared
machine at that moment cancels out; see perfbench/README.md.

    python3 perfbench/run.py --workload large_n_stats --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1           # every workload, one table
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --make-reference         # re-take reference digests

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  A fuller result
file goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import load_oracles, oracle_checks  # noqa: E402
from tracing import Tracer  # noqa: E402

# query_tail_ms is always p95, so that two runs compare the same quantity; a
# run of either workload collects 200 samples or more (10 beyond p95) unless
# the code gets about twice as slow.  The samples beyond are recorded.
TAIL_PERCENTILE = 95
TAIL_MIN_BEYOND = 10
END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# The machine this was tuned on (2 vCPUs shared with other tenants) runs
# CPU-bound code at two speeds about 1.5x apart, switching every few seconds
# to minutes.  Every timing is multiplied by CALIBRATION_REF_NS / (mean CPU
# time of the calibration loops near it): the figure the machine would give
# if the loop took exactly 1 ms.  The loop's parts were chosen because they slow down in
# the slow state by about as much as the package's queries do (1.5-1.6x);
# pure integer arithmetic or Fraction sums slow down by 1.8x.
CALIBRATION_LOOPS = 3000
CALIBRATION_REF_NS = 1_000_000
# A query is scaled by the calibrations within this many seconds of it, not
# only the two at its ends: the state can switch during a long query, and the
# surrounding half second is the better guess of its state meanwhile.
CALIBRATION_WINDOW_S = 0.25
IMPORT_PACKAGE = "import sys; sys.path.insert(0, {src!r}); import factorlengths, factorlengths.cli"


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_package():
    """Import factorlengths from this checkout's src/ (never an installed copy)."""
    if not (SRC / "factorlengths" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'factorlengths'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise BenchError(f"no brute-force oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path.insert(0, str(SRC))
    import factorlengths
    import factorlengths.asymptotics
    import factorlengths.cli
    import factorlengths.semigroup

    if Path(factorlengths.__file__).resolve().parent != SRC / "factorlengths":
        raise BenchError(f"imported factorlengths from {factorlengths.__file__}, not {SRC}")
    return factorlengths


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"no reference digests at {REFERENCE}")
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# -- one query ----------------------------------------------------------------


def envelope_text(report) -> str:
    return json.dumps({
        "k": report.k,
        "pointwise_ok": report.pointwise_ok,
        "max_pointwise_gap": str(report.max_pointwise_gap),
        "max_step_gap": str(report.max_step_gap),
    }) + "\n"


def prepare(query: tuple, package):
    """(call, render): call runs the query in the timed region and render
    turns its return value into (exit code, extra stdout) afterwards.
    Semigroups of direct library calls are built here, outside the timed
    region, so that each traced query has exactly one root span.  Module
    attributes are looked up inside call, so a tracer's wrappers are reached."""
    if query[0] == "cli":
        argv = list(query[1])
        cli = package.cli
        return (lambda: cli.main(argv)), (lambda code: (code, ""))
    _, gens, k = query
    S = package.semigroup.make_semigroup(int(g) for g in gens.split(","))
    asymptotics = package.asymptotics
    return (lambda: asymptotics.envelope_report(S, k)), (lambda report: (0, envelope_text(report)))


def cpu_ns() -> int:
    """CPU time of this process and of every child process it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def _calibration_work() -> None:
    """A fixed stand-in for the package's work, written with the standard
    library only: dict updates keyed by integer arithmetic, then an argparse
    command line and a JSON document of Fractions, as cli.main builds them."""
    table: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        table[i * 7 % 10007] = table.get(i % 1009, 0) + i
    parser = argparse.ArgumentParser(prog="calibrate")
    commands = parser.add_subparsers(dest="command")
    for name in ("alpha", "beta", "gamma", "delta"):
        command = commands.add_parser(name, help=name)
        command.add_argument("-s", "--semigroup", required=True)
        command.add_argument("-n", type=int, default=0)
        command.add_argument("--flag", action="store_true")
    args = parser.parse_args(["beta", "-s", "3,5,7", "-n", "12"])
    json.dumps({"args": vars(args), "values": [str(Fraction(i, 7)) for i in range(30)]}, indent=2)


def calibrate() -> int:
    """CPU ns of the calibration work.  It runs once untimed first: right
    after a large query, the first run pays up to 30% more for memory the
    query handed back.  The garbage collector is paused, so that a
    collection of the package's garbage never lands inside the timed run."""
    collecting = gc.isenabled()
    gc.disable()
    _calibration_work()
    t0 = process_time_ns()
    _calibration_work()
    elapsed = process_time_ns() - t0
    if collecting:
        gc.enable()
    return elapsed


def scale(samples: list[tuple], calibrations: list[tuple[float, int]]) -> list[float]:
    """Each (start, end, CPU ns) sample's CPU time multiplied by
    CALIBRATION_REF_NS / the mean calibration time from ``calibrations``
    ((start, ns), in time order) within CALIBRATION_WINDOW_S of the sample."""
    times = [t for t, _ in calibrations]
    scaled = []
    for start, end, cpu in samples:
        near = calibrations[bisect_left(times, start - CALIBRATION_WINDOW_S):
                            bisect_right(times, end + CALIBRATION_WINDOW_S)]
        scaled.append(cpu * CALIBRATION_REF_NS / statistics.fmean(k for _, k in near))
    return scaled


def execute(call, render) -> tuple[int, int, object, str]:
    """(wall ns, CPU ns, exit code, stdout) of one query."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        c0 = cpu_ns()
        t0 = perf_counter_ns()
        try:
            value = call()
        except SystemExit as exc:
            value = exc
        except Exception as exc:  # a failed query is counted, not fatal
            value = exc
        elapsed = perf_counter_ns() - t0
        cpu = cpu_ns() - c0
    if isinstance(value, SystemExit):
        code, extra = (value.code if isinstance(value.code, int) else 2), ""
    elif isinstance(value, Exception):
        code, extra = f"raised {type(value).__name__}: {value}", ""
    else:
        code, extra = render(value)
    return elapsed, cpu, code, out.getvalue() + extra


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- a run --------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """(value, samples beyond it) of the TAIL_PERCENTILE, by nearest rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure_setup() -> float:
    """CPU seconds of a fresh interpreter that imports factorlengths and
    factorlengths.cli and exits."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", IMPORT_PACKAGE.format(src=str(SRC))],
                   check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository
    (git would otherwise answer for a repository around it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict, package, oracles) -> dict:
    """Measure one workload; returns the full result record."""
    queries = workloads.generate(name, seed)
    keys = [workloads.query_key(q) for q in queries]
    calls = [prepare(q, package) for q in queries]
    is_cli = [q[0] == "cli" for q in queries]
    failures: list[dict] = []
    attempted = 0

    for argv, predicate in oracle_checks(name, seed, oracles):
        attempted += 1
        _, _, code, out = execute(lambda: package.cli.main(argv), lambda code: (code, ""))
        try:
            ok = code == 0 and predicate(out)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            failures.append({"query": " ".join(argv), "why": f"oracle mismatch (exit {code})"})

    tracer = Tracer() if trace else None
    passes: list[dict] = []
    latencies: list[float] = []     # scaled CPU ns per untraced query
    raw_cpu: list[int] = []
    calibration: list[int] = []
    setup: list[float] = []
    raw_setup: list[float] = []
    bytes_out = 0
    query_id = 0
    if not trace:
        measure_setup()  # untimed: writes the bytecode cache
    gc.collect()
    loop_wall = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        samples: list[tuple[float, float, int]] = []
        calibrations = [(perf_counter(), calibrate())]
        t_pass = perf_counter()
        with tracer if traced else nullcontext():
            for key, (call, render), cli_query in zip(keys, calls, is_cli):
                if traced:
                    tracer.query_id = query_id
                query_id += 1
                start = perf_counter()
                elapsed, cpu, code, out = execute(call, render)
                samples.append((start, start + elapsed / 1e9, cpu))
                calibrations.append((perf_counter(), calibrate()))
                if traced:
                    tracer.record_query(elapsed)
                attempted += 1
                if traced and cli_query:
                    bytes_out += len(out.encode("utf-8"))
                expected = reference.get(key)
                if expected is None:
                    failures.append({"query": key, "why": "no reference digest"})
                elif [code, digest(out)] != expected:
                    failures.append({"query": key, "why": f"exit {code} or output digest differs from reference"})
        loop_wall += perf_counter() - t_pass
        costs = scale(samples, calibrations)
        passes.append({"traced": traced, "scaled_cpu_s": sum(costs) / 1e9,
                       "cpu_s": sum(s[2] for s in samples) / 1e9,
                       "wall_s": sum(end - start for start, end, _ in samples)})
        if not traced:
            latencies += costs
            raw_cpu += [s[2] for s in samples]
            calibration += [k for _, k in calibrations]
        if not trace:
            # one launch after every pass, spread over the run like the queries
            before = (perf_counter(), calibrate())
            start = perf_counter()
            raw_setup.append(measure_setup())
            launch = (start, perf_counter(), raw_setup[-1])
            setup += scale([launch], [before, (perf_counter(), calibrate())])
        if loop_wall >= seconds and (not trace or len(passes) >= 2):
            break

    if trace:
        traced_passes = [p["scaled_cpu_s"] for p in passes if p["traced"]]
        plain_passes = [p["scaled_cpu_s"] for p in passes if not p["traced"]]
        metrics, check = tracer.summary(len(traced_passes))
        metrics["cli.bytes_out"] = bytes_out / len(traced_passes)
        metrics["trace.overhead_frac"] = statistics.median(traced_passes) / statistics.median(plain_passes) - 1
        if check["spans_outside_recorded_queries"] or check["queries_uncovered_past_tolerance"]:
            failures.append({"query": "*", "why": "layer self times do not sum to the measured query durations"})

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds_requested": seconds,
        "loop_wall_s": loop_wall,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "queries_per_pass": len(queries),
        "passes": len(passes),
        "pass_query_seconds": passes,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    if not trace:
        untraced_s = sum(latencies) / 1e9
        tail_ns, beyond = tail_percentile(latencies)
        if beyond < TAIL_MIN_BEYOND:
            print(f"warning: only {beyond} samples beyond p{TAIL_PERCENTILE}", file=sys.stderr)
        result["setup_launches"] = len(setup)
        result["setup_s_samples"] = setup
        result["setup_cpu_s_unscaled"] = raw_setup
        result["calibration_ms"] = {"median": statistics.median(calibration) / 1e6,
                                    "min": min(calibration) / 1e6, "max": max(calibration) / 1e6}
        result["unscaled"] = {
            "queries_per_cpu_s": len(raw_cpu) / (sum(raw_cpu) / 1e9),
            "query_p50_cpu_ms": statistics.median(raw_cpu) / 1e6,
            "queries_per_wall_s": sum(not p["traced"] for p in passes) * len(queries)
            / sum(p["wall_s"] for p in passes if not p["traced"]),
        }
        result["query_samples"] = len(latencies)
        result["query_tail_percentile"] = TAIL_PERCENTILE
        result["query_tail_samples_beyond"] = beyond
        result["metrics"] = {
            "queries_per_s": len(latencies) / untraced_s,
            "query_p50_ms": statistics.median(latencies) / 1e6,
            "query_tail_ms": tail_ns / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        result["units"] = dict(END_TO_END_UNITS)
    else:
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{name}-seed{seed}.csv.gz"
        tracer.write_spans(spans_path)
        result["trace_check"] = check
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["metrics"] = metrics
        result["units"] = {k: per_layer_unit(k) for k in metrics}
    result["correct"] = not failures
    return result


def per_layer_unit(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s/pass"
    if metric.endswith("bytes_out"):
        return "B/pass"
    if metric.endswith(("_yield", "_frac", "_per_element")):
        return "ratio"
    return "count/pass"


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
    })


def print_table(results: dict[str, dict], file=sys.stdout) -> None:
    for name, res in results.items():
        extra = ""
        if "query_tail_percentile" in res:
            extra = (f"  tail=p{res['query_tail_percentile']:g} of {res['query_samples']} samples"
                     f" ({res['query_tail_samples_beyond']} beyond)")
        print(f"[{name}] seed={res['seed']} passes={res['passes']}x{res['queries_per_pass']}"
              f" attempted={res['attempted']} failed={res['failed']}"
              f" fail_frac={res['fail_frac']:.4g}{extra}", file=file)
        for metric, value in res["metrics"].items():
            print(f"  {metric:<40} {value:>14.6g} {res['units'][metric]}", file=file)


# -- modes --------------------------------------------------------------------


def make_reference(package) -> int:
    """Digest every candidate query of every workload at this commit."""
    reference = {}
    for name in workloads.WORKLOADS:
        for query in workloads.all_candidates(name):
            key = workloads.query_key(query)
            if key in reference:
                continue
            elapsed, _, code, out = execute(*prepare(query, package))
            if code != 0:
                print(f"error: {key} exited {code}", file=sys.stderr)
                return 1
            reference[key] = [code, digest(out)]
            print(f"{elapsed / 1e6:9.1f} ms  {key}", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key])}" for key in sorted(reference)]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(reference)} digests to {REFERENCE.relative_to(ROOT)}", file=sys.stderr)
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own interpreter and print one table."""
    RESULTS.mkdir(exist_ok=True)
    results, correct = {}, True
    for name in workloads.WORKLOADS:
        out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(out.read_text(encoding="utf-8"))
        correct &= results[name]["correct"]
    combined = RESULTS / f"all-seed{seed}-trace{trace}.json"
    combined.write_text(json.dumps({"results": results}, indent=1) + "\n", encoding="utf-8")
    print_table(results)
    print(f"results: {combined.relative_to(ROOT)}")
    return 0 if correct else 1


def _load_results(path: str) -> dict[str, dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "results" in data:
        return data["results"]
    return {data["workload"]: data}


def compare(old_path: str, new_path: str) -> int:
    """Per-workload, per-metric deltas of two result files, judged against
    the bounds in BENCHMARK.json.  Exit 1 when a metric worsens past its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = _load_results(old_path), _load_results(new_path)
    regressions = 0
    print(f"{'workload':<16} {'metric':<40} {'old':>12} {'new':>12} {'change':>9}  verdict")
    for name in [w for w in old if w in new]:
        for metric in sorted(set(old[name]["metrics"]) & set(new[name]["metrics"])):
            a, b = old[name]["metrics"][metric], new[name]["metrics"][metric]
            change = (b - a) / a if a else float("inf") if b else 0.0
            verdict = ""
            if metric in bounds:
                spec_m = bounds[metric]
                worse = change if spec_m["better"] == "lower" else -change
                if worse > spec_m["bound"]:
                    verdict, regressions = f"WORSE than bound {spec_m['bound']:g}", regressions + 1
                else:
                    verdict = f"within bound {spec_m['bound']:g}"
            print(f"{name:<16} {metric:<40} {a:>12.6g} {b:>12.6g} {change:>+8.1%}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: perfbench/results/<workload>-seed<n>-trace<t>.json)")
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    parser.add_argument("--make-reference", action="store_true",
                        help="re-take the reference digests of every candidate query")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        package = load_package()
        if args.make_reference:
            return make_reference(package)
        if args.all:
            return run_all(args.seed, args.seconds, args.trace)
        if not args.workload:
            parser.error("one of --workload, --all, --compare or --make-reference is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              load_reference(), package, load_oracles(ROOT))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_table({args.workload: result})
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
