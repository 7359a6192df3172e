"""Seeded query lists for the benchmark workloads.

Every workload is a fixed list of *slots*.  Each slot owns a small pool of
candidate queries that is the same for every seed; the seed picks one
candidate per slot and shuffles the order.  Pools keep the cost of a pass
nearly independent of the seed (candidates in one pool differ by a few
percent of work) while the seed still changes every input it can, and they
make a reference digest taken once per candidate cover every seed.

A query is a tuple: ``("cli", argv)`` runs ``factorlengths.cli.main(argv)``;
``("envelope", gens, k)`` calls ``asymptotics.envelope_report`` directly,
because no command line reaches it.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("large_n_stats", "exact_model")

# Three-generator semigroups with wide generator spread plus one narrow one.
WIDE = ("3,5,7", "6,9,20", "7,16,25", "12,15,20", "5,8,13")
NARROW = "48,49,50"
SEMIGROUPS = (*WIDE, NARROW)

POOL = 8          # candidates per slot
N_JITTER = 0.02   # candidates lie within +-2% of the slot's design point


def log_grid(lo: float, hi: float, points: int) -> list[float]:
    """points values spaced evenly in log between lo and hi."""
    return [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]


def jittered(point: float) -> list[int]:
    """POOL integers spread evenly in log over point * (1 +- N_JITTER)."""
    lo, hi = math.log(point * (1 - N_JITTER)), math.log(point * (1 + N_JITTER))
    return [round(math.exp(lo + (hi - lo) * j / (POOL - 1))) for j in range(POOL)]


def _cli(*argv) -> tuple:
    return ("cli", tuple(str(a) for a in argv))


def query_key(query: tuple) -> str:
    """Stable text name of a query; the key of its reference digest."""
    if query[0] == "cli":
        return " ".join(query[1])
    _, gens, k = query
    return f"envelope_report {gens} {k}"


def _large_n_stats() -> list[list[tuple]]:
    # n log-uniform over 1e5..5e6: five design points per semigroup, plus a
    # convergence sweep (mean/n and median/n against their limits) at one
    # n near 3e5 for each wide semigroup.
    slots = [
        [_cli("invariants", "-s", g, "-n", n) for n in jittered(point)]
        for g in SEMIGROUPS
        for point in log_grid(1e5, 5e6, 5)
    ]
    slots += [[_cli("sweep", "-s", g, "--points", n) for n in jittered(3e5)] for g in WIDE]
    return slots


def _random_semigroups(count: int) -> list[str]:
    rng = random.Random("exact_model:asymptotics-pool")
    out: list[str] = []
    while len(out) < count:
        gens = sorted(rng.sample(range(3, 200), 3))
        if math.gcd(*gens) == 1 and ",".join(map(str, gens)) not in out:
            out.append(",".join(map(str, gens)))
    return out


# Valid inputs only: primitive triples with a > b >= 3 and gcd-1 generators,
# (d, t) pairs that sqrt_d_semigroup accepts, and targets that decompose.
PYTHAGOREAN = ((4, 3, 5), (12, 5, 13), (15, 8, 17), (24, 7, 25), (21, 20, 29),
               (40, 9, 41), (35, 12, 37), (60, 11, 61), (45, 28, 53), (56, 33, 65),
               (84, 13, 85), (63, 16, 65), (55, 48, 73), (80, 39, 89), (112, 15, 113),
               (77, 36, 85), (72, 65, 97), (99, 20, 101))
SQRT_D = ((2, 4), (2, 5), (2, 8), (2, 14), (2, 21), (2, 22), (3, 8), (3, 10),
          (3, 11), (3, 17), (5, 6), (5, 8), (5, 13), (5, 14), (6, 7), (6, 8),
          (6, 12), (6, 13))
EGYPTIAN = ("8/11", "5/121", "3/7", "4/13", "5/31", "7/15", "2/3", "9/20",
            "4/17", "6/7", "11/12", "3/11", "5/19", "7/25", "13/45", "5/6")
MODEL = (("3,5,7", 5), ("5,8,13", 3), ("6,9,20", 1))      # (semigroup, largest k)
ENVELOPE = (("3,5,7", 5), ("5,8,13", 3), ("6,9,20", 3))


def _exact_model() -> list[list[tuple]]:
    asym = _random_semigroups(8 * POOL)
    slots = [[_cli("asymptotics", "-s", g) for g in asym[i::8]] for i in range(8)]
    slots += [[_cli("model", "-s", g, "-k", k)] for g, k_max in MODEL for k in range(1, k_max + 1)]
    slots += [[("envelope", g, k)] for g, k_max in ENVELOPE for k in range(1, k_max + 1)]
    slots += [[_cli("construct", "pythagorean", *abc) for abc in PYTHAGOREAN[i::7]] for i in range(7)]
    slots += [[_cli("construct", "sqrtd", *dt) for dt in SQRT_D[i::6]] for i in range(6)]
    slots += [[_cli("egyptian", q, "--terms", 4) for q in EGYPTIAN[i::6]] for i in range(6)]
    return slots


_SLOTS = {
    "large_n_stats": _large_n_stats,
    "exact_model": _exact_model,
}


def slots(workload: str) -> list[list[tuple]]:
    """Candidate pools of every slot of a workload (seed independent)."""
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SLOTS[workload]()


def generate(workload: str, seed: int) -> list[tuple]:
    """The query list of one pass: one candidate per slot, seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    queries = [rng.choice(pool) for pool in slots(workload)]
    rng.shuffle(queries)
    return queries


def all_candidates(workload: str) -> list[tuple]:
    """Every query any seed can generate, in a fixed order."""
    return [q for pool in slots(workload) for q in pool]
