"""Mean, median, and mode statistics of a length multiset.

All statistics are computed from the multiset alone, never from raw
factorization tuples, so the closed counting path powers everything.
Means and medians are exact rationals; the median of an even-sized multiset
is the average of the two middle order statistics.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .factorization import LengthMultiset, length_multiset
from .semigroup import Semigroup


class EmptyMultisetError(ValueError):
    """Statistic of an empty length multiset."""


class InvariantReport(NamedTuple):
    n: int
    min: int
    max: int
    mean: Fraction
    median: Fraction
    mode_lengths: tuple[int, ...]
    mode_freq: int
    num_factorizations: int


def _require_nonempty(ms: LengthMultiset) -> None:
    if not ms.counts or ms.total <= 0:
        raise EmptyMultisetError("empty length multiset")


def mean_length(ms: LengthMultiset) -> Fraction:
    """Average length, counted with multiplicity."""
    _require_nonempty(ms)
    # by parts: lengths[i] = max_length - step*(N-1-i), and summed with
    # multiplicity, N-1-i gives sum(cumulative[:-1]) = sum(cumulative) - total
    total = ms.total
    weighted = ms.max_length * total - ms.lengths.step * (sum(ms.cumulative) - total)
    return Fraction(weighted, total)


def median_length(ms: LengthMultiset) -> Fraction:
    """Median length: middle order statistic, or the average of the two
    middle ones when the total is even."""
    _require_nonempty(ms)
    total, seen = ms.total, ms.cumulative
    lower = ms.lengths[bisect_left(seen, (total + 1) // 2)]
    upper = ms.lengths[bisect_left(seen, total // 2 + 1)]
    return Fraction(lower + upper, 2)


def mode(ms: LengthMultiset) -> tuple[tuple[int, ...], int]:
    """(sorted lengths of highest multiplicity, that multiplicity)."""
    _require_nonempty(ms)
    counts = ms.counts
    freq = max(counts)
    lengths, i = [], -1
    try:
        while True:
            i = counts.index(freq, i + 1)
            lengths.append(ms.lengths[i])
    except ValueError:
        return tuple(lengths), freq


def invariant_report(S: Semigroup, n: int) -> InvariantReport:
    """All length statistics of n from a single multiset pass.

    Raises NotInSemigroup when n has no factorization.
    """
    ms = length_multiset(S, n)
    mode_lengths, mode_freq = mode(ms)
    return InvariantReport(
        n=n,
        min=ms.min_length,
        max=ms.max_length,
        mean=mean_length(ms),
        median=median_length(ms),
        mode_lengths=mode_lengths,
        mode_freq=mode_freq,
        num_factorizations=ms.total,
    )
