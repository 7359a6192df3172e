"""Untimed rechecks of small-n queries against the brute-force oracles.

The reference digests only prove that outputs did not change.  These checks
prove that they are right: each workload runs a seeded sample of small
queries through the same command line and compares the output with
``tests/oracles.py``, which shares no code with the package.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from workloads import SEMIGROUPS, WIDE

EGYPTIAN_ALL3 = ("5/6", "2/3", "7/8", "3/4", "4/5", "11/12", "13/15", "5/7", "6/7", "1/2")


def load_oracles(root: Path):
    """Import tests/oracles.py of the checkout as a module."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("factorlengths_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gens(text: str) -> tuple[int, ...]:
    return tuple(int(g) for g in text.split(","))


def _stats(counter: Counter, n: int) -> dict:
    """The invariants report, computed from a brute-force length counter."""
    lengths = sorted(counter.elements())
    total = len(lengths)
    freq = max(counter.values())
    return {
        "n": n,
        "min": lengths[0],
        "max": lengths[-1],
        "mean": str(Fraction(sum(lengths), total)),
        "median": str(Fraction(lengths[(total - 1) // 2] + lengths[total // 2], 2)),
        "mode_lengths": sorted(ell for ell, m in counter.items() if m == freq),
        "mode_freq": freq,
        "num_factorizations": total,
    }


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


class _Sampler:
    def __init__(self, oracles, rng: random.Random):
        self.oracles, self.rng = oracles, rng

    def member(self, gens: tuple[int, ...], lo: int, hi: int) -> tuple[int, Counter]:
        """A random element of the semigroup in [lo, hi] and its lengths."""
        while True:
            n = self.rng.randint(lo, hi)
            counter = self.oracles.brute_length_counter(gens, n)
            if counter:
                return n, counter


def _large_n_stats(s: _Sampler):
    for g in SEMIGROUPS:
        n, counter = s.member(_gens(g), 300, 1500)
        yield (["invariants", "-s", g, "-n", str(n)],
               lambda out, c=counter, n=n: json.loads(out) == _stats(c, n))
    for g in WIDE:
        n, counter = s.member(_gens(g), 200, 800)
        st = _stats(counter, n)
        expected = [[str(n), str(Fraction(st["mean"]) / n), str(Fraction(st["median"]) / n)]]
        yield (["sweep", "-s", g, "--points", str(n)],
               lambda out, e=expected: [row[:3] for row in _csv_rows(out)] == e)


def _exact_model(s: _Sampler):
    for target in s.rng.sample(EGYPTIAN_ALL3, 4):
        expected = sorted(s.oracles.brute_three_unit_fractions(Fraction(target)))
        yield (["egyptian", target, "--all-3"],
               lambda out, e=expected: sorted(map(tuple, json.loads(out)["three_term_solutions"])) == e)
    for g in ("3,5,7", "5,8,13"):
        n, counter = s.member(_gens(g), 300, 1500)
        yield (["invariants", "-s", g, "-n", str(n)],
               lambda out, c=counter, n=n: json.loads(out) == _stats(c, n))


_CHECKS = {
    "large_n_stats": _large_n_stats,
    "exact_model": _exact_model,
}


def oracle_checks(workload: str, seed: int, oracles) -> list[tuple[list[str], object]]:
    """Seeded (argv, predicate on stdout) pairs for one workload."""
    rng = random.Random(f"oracle:{workload}:{seed}")
    return list(_CHECKS[workload](_Sampler(oracles, rng)))
