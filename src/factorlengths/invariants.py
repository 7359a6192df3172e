"""Mean, median, and mode statistics of a length multiset.

All statistics are computed from the multiset alone, never from raw
factorization tuples, so the closed counting path powers everything.
Means and medians are exact rationals; the median of an even-sized multiset
is the average of the two middle order statistics.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .factorization import LengthMultiset, length_multiset
from .semigroup import Semigroup

BLOCK = 4096  # counts per slice that median_length sums at once


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
    # multiplicity, N-1-i gives the sum of every running sum but the last
    total = ms.total
    weighted = ms.max_length * total - ms.lengths.step * (sum(accumulate(ms.counts)) - total)
    return Fraction(weighted, total)


def median_length(ms: LengthMultiset) -> Fraction:
    """Median length: middle order statistic, or the average of the two
    middle ones when the total is even.  Rank r sits at the least index
    whose running sum of counts reaches r; whole blocks are passed by their
    sums, so only one block's running sums are ever listed."""
    _require_nonempty(ms)
    counts, total = ms.counts, ms.total
    ranks = ((total + 1) // 2, total // 2 + 1)
    indices, seen = [], 0
    for start in range(0, len(counts), BLOCK):
        block = counts[start:start + BLOCK]
        reach = seen + sum(block)
        if reach >= ranks[len(indices)]:
            within = list(accumulate(block))
            indices += [start + bisect_left(within, rank - seen)
                        for rank in ranks[len(indices):] if rank <= reach]
            if len(indices) == 2:
                break
        seen = reach
    return Fraction(ms.lengths[indices[0]] + ms.lengths[indices[1]], 2)


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
