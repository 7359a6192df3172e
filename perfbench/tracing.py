"""Span tracing of the factorlengths layers from outside the package.

``Tracer.install`` replaces every public function and every method written
in a public class of each package module with a wrapper that records one
span.  A function is replaced under every name that binds it, in every
package module: ``from .factorization import length_multiset`` gives
``invariants``, ``experiments`` and ``asymptotics`` their own binding, and
each caller must reach the wrapper for spans to nest.  ``restore`` puts the
originals back.

Spans live in memory as parallel integer arrays (name, start, end, parent,
query) and are written out once, after the run.  A layer's self time is its
span's duration minus the time its child spans cover.  The caller records
each query's measured duration with ``record_query``; ``summary`` checks
that the query's self times add up to it, so time spent outside every layer
span shows as an uncovered share.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "semigroup", "factorization", "invariants",
          "asymptotics", "exactnum", "experiments", "constructions")
PACKAGE = "factorlengths"
# LengthMultiset's accessors run once per length: a span there costs more
# than the work, so their time stays in the caller's span.
UNTRACED_CLASSES = {"factorization.LengthMultiset"}
# A query's measured time that its spans' self times may leave uncovered:
# the wrapper's entry and exit around the root span, a few microseconds.
UNCOVERED_MAX_FRAC = 0.02
UNCOVERED_MAX_NS = 50_000


def _candidate_lengths(S, n: int) -> int:
    """floor(n/n1) - ceil(n/nk) + 1: the lengths the per-length kernel scans."""
    if n < 0:
        return 0
    return max(0, n // S.gens[0] - -(-n // S.gens[-1]) + 1)


class Tracer:
    """Records nested spans of the package's layers for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.query = array("l")
        self.query_id = -1
        self.query_ns: dict[int, int] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._experiments_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        before = after = None
        in_experiments = name.startswith("experiments.")
        counters = self.counters
        if name == "factorization.length_multiset":
            def before(args):
                counters["factorization.candidate_lengths"] += _candidate_lengths(*args[:2])
                if self._experiments_depth:
                    counters["experiments.multisets"] += 1

            def after(args, result):
                counters["factorization.lengths_emitted"] += len(result.entries)
                counters["factorization.factorizations_counted"] += result.total
        elif name == "experiments.convergence_sweep":
            def after(args, result):
                counters["experiments.elements_checked"] += len(result.rows)

        name_col, start_col, end_col = self.name, self.start, self.end
        parent_col, query_col, stack = self.parent, self.query, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            query_col.append(self.query_id)
            end_col.append(0)
            stack.append(idx)
            if in_experiments:
                self._experiments_depth += 1
            start_col.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter_ns()
                stack.pop()
                if in_experiments:
                    self._experiments_depth -= 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public callable under every binding in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        functions: dict = {}
        for mod in layers:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    functions[value] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and f"{layer}.{attr}" not in UNTRACED_CLASSES:
                    self._install_methods(value, f"{layer}.{attr}", mod.__file__)
        # from-imports bind the same function object under other modules' names
        for mod in [importlib.import_module(PACKAGE), *layers]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in functions:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, functions[value])

    def _install_methods(self, cls, prefix: str, source: str) -> None:
        """Wrap the methods written in cls's module (not generated ones)."""
        for member, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if (inspect.isfunction(fn) and fn.__code__.co_filename == source
                    and (not member.startswith("_") or member.endswith("__"))):
                wrapped = self._wrap(fn, f"{prefix}.{member}")
                self._patches.append((cls, member, raw))
                setattr(cls, member, wrapped if fn is raw else type(raw)(wrapped))

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def record_query(self, elapsed_ns: int) -> None:
        """The measured duration of the current query, spans and gaps alike."""
        self.query_ns[self.query_id] = elapsed_ns

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the duration of its direct children."""
        covered = array("q", bytes(8 * len(self.name)))
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(parent)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return array("q", (end[i] - start[i] - covered[i] for i in range(len(parent))))

    def summary(self, passes: int) -> tuple[dict, dict]:
        """(per-layer metrics per pass, how much of each recorded query's
        duration the layers' self times leave uncovered)."""
        self_ns = self.self_times()
        layer_of = [n.split(".", 1)[0] for n in self.names]
        calls: Counter = Counter()
        self_by_layer: Counter = Counter()
        name_calls: Counter = Counter()
        self_sum: Counter = Counter()
        for i, nid in enumerate(self.name):
            layer = layer_of[nid]
            calls[layer] += 1
            name_calls[nid] += 1
            self_by_layer[layer] += self_ns[i]
            self_sum[self.query[i]] += self_ns[i]
        uncovered = {q: ns - self_sum[q] for q, ns in self.query_ns.items()}
        worst = max(self.query_ns, key=lambda q: abs(uncovered[q]) / self.query_ns[q], default=None)
        past = [q for q, ns in self.query_ns.items()
                if abs(uncovered[q]) > max(UNCOVERED_MAX_FRAC * ns, UNCOVERED_MAX_NS)]
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer] / passes
            metrics[f"{layer}.self_s"] = self_by_layer[layer] / 1e9 / passes
        c = self.counters
        for key in ("factorization.candidate_lengths", "factorization.lengths_emitted",
                    "factorization.factorizations_counted", "experiments.elements_checked"):
            metrics[key] = c[key] / passes
        cand = c["factorization.candidate_lengths"]
        metrics["factorization.length_yield"] = c["factorization.lengths_emitted"] / cand if cand else 0.0
        checked = c["experiments.elements_checked"]
        metrics["experiments.multisets_per_element"] = c["experiments.multisets"] / checked if checked else 0.0
        envelope = self._name_ids.get("asymptotics.upper_envelope")
        metrics["asymptotics.upper_envelope.calls"] = (name_calls[envelope] if envelope is not None else 0) / passes
        total_ns = sum(self.query_ns.values())
        check = {
            "queries": len(self.query_ns),
            "spans": len(self.name),
            "spans_outside_recorded_queries": sum(n for q, n in Counter(self.query).items()
                                                  if q not in self.query_ns),
            "traced_query_s": total_ns / 1e9,
            "queries_uncovered_past_tolerance": len(past),
            "uncovered_frac": sum(uncovered.values()) / total_ns if total_ns else 0.0,
            "worst_query_uncovered_frac": uncovered[worst] / self.query_ns[worst] if worst is not None else 0.0,
        }
        return metrics, check

    def write_spans(self, path) -> None:
        """Write every span as 'name,start_ns,end_ns,parent,query' (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# names: " + " ".join(self.names) + "\n")
            fh.write("name,start_ns,end_ns,parent,query\n")
            for i in range(len(self.name)):
                fh.write(f"{self.name[i]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.query[i]}\n")
