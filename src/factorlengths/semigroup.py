"""Numerical semigroup model: validation, membership, and trade constants.

A numerical semigroup here is a generator tuple n1 < ... < nk of positive
integers with gcd 1.  Three-generator semigroups additionally carry a unique
minimal length-preserving trade (swap `mid` copies of the middle generator
for `low` copies of the smallest plus `high` copies of the largest), whose
common value is the trade element; the delta constant is the gcd of the
pairwise generator differences and satisfies delta * element = n2 * (n3 - n1).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple


class InvalidGenerators(ValueError):
    """Generator list cannot define a numerical semigroup."""


class NotInSemigroup(ValueError):
    """Requested element has no factorization in the semigroup."""


class TradeData(NamedTuple):
    """Minimal length-preserving trade (low, 0, high | 0, mid, 0) of a
    3-generator semigroup: low + high = mid and
    low*n1 + high*n3 = mid*n2 = element."""

    low: int
    mid: int
    high: int
    element: int
    delta: int


class Semigroup(NamedTuple("Semigroup", [("gens", tuple[int, ...])])):
    """Sorted generators, validated on construction; equal and hashed by
    value.  Instances keep a __dict__ for the cached delta and Apery set."""

    def __new__(cls, gens: tuple[int, ...]) -> Semigroup:
        gens = tuple(gens)
        if len(gens) < 2:
            raise InvalidGenerators(f"need at least 2 generators, got {gens}")
        if any(not isinstance(g, int) or g <= 0 for g in gens):
            raise InvalidGenerators(f"generators must be positive integers: {gens}")
        if len(set(gens)) != len(gens):
            raise InvalidGenerators(f"duplicate generators: {gens}")
        gens = tuple(sorted(gens))
        if math.gcd(*gens) != 1:
            raise InvalidGenerators(f"gcd{gens} = {math.gcd(*gens)} != 1")
        return super().__new__(cls, gens)

    @property
    def k(self) -> int:
        return len(self.gens)

    @cached_property
    def delta(self) -> int:
        """gcd of all pairwise generator differences (step of length sets)."""
        return math.gcd(*(b - a for a, b in zip(self.gens, self.gens[1:])))

    @cached_property
    def apery(self) -> list[int]:
        """Apery set with respect to n1: apery[r] is the least element of S
        congruent to r mod n1.

        Round-robin pass (Boecker & Liptak 2007): adding generator g joins the
        residues into gcd(g, n1) cycles under +g; walking each cycle once from
        its least entry relaxes every class along it, so each generator costs
        O(n1).  None marks a class not reached yet; gcd 1 means the pass
        reaches every class.
        """
        m = self.gens[0]
        least: list[int | None] = [None] * m
        least[0] = 0
        for g in self.gens:
            d = math.gcd(g, m)
            for r in range(d):
                cycle = [q for q in range(r, m, d) if least[q] is not None]
                if not cycle:
                    continue
                q = min(cycle, key=least.__getitem__)
                value = least[q]
                for _ in range(m // d - 1):
                    q = (q + g) % m
                    value += g
                    if least[q] is None or least[q] > value:
                        least[q] = value
                    else:
                        value = least[q]
        return least

    def __str__(self) -> str:
        return "<" + ", ".join(map(str, self.gens)) + ">"


def make_semigroup(gens) -> Semigroup:
    """Validate and sort a generator list into a Semigroup."""
    return Semigroup(tuple(int(g) for g in gens))


def parse_semigroup(text: str) -> Semigroup:
    """Parse a comma-separated generator list like "6,9,20"."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        gens = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidGenerators(f"cannot parse generators from {text!r}") from exc
    return make_semigroup(gens)


def contains(S: Semigroup, n: int) -> bool:
    """Membership by one Apery-set lookup: n in S iff n >= apery[n mod n1]."""
    return n >= 0 and n >= S.apery[n % S.gens[0]]


def trade_data(S: Semigroup) -> TradeData:
    """Trade constants of a 3-generator semigroup.

    With d1 = n3-n2, d2 = n2-n1, d3 = n3-n1 and delta = gcd(d1, d2, d3),
    the minimal trade is low = d1/delta, high = d2/delta, mid = d3/delta,
    and the trade element is mid * n2.
    """
    if S.k != 3:
        raise ValueError(f"trade data requires exactly 3 generators, got {S.k}")
    n1, n2, n3 = S.gens
    delta = S.delta
    low = (n3 - n2) // delta
    high = (n2 - n1) // delta
    mid = (n3 - n1) // delta
    return TradeData(low=low, mid=mid, high=high, element=mid * n2, delta=delta)

