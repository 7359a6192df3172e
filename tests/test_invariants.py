"""Mean, median, mode statistics against the known worked examples."""

import math
import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlengths.asymptotics import scaled_sequence
from factorlengths.cli import _plain, main
from factorlengths.experiments import convergence_sweep
from factorlengths.factorization import LengthMultiset, length_multiset
from factorlengths.invariants import (
    BLOCK,
    EmptyMultisetError,
    invariant_report,
    mean_length,
    median_length,
    mode,
)
from factorlengths.semigroup import NotInSemigroup, make_semigroup, trade_data

from oracles import random_semigroup_3


def ms_of(entries: dict) -> LengthMultiset:
    """The multiset {length: multiplicity} over the progression from its
    least to its greatest length, stepped by the gcd of their distances."""
    if not entries:
        return LengthMultiset(lengths=range(0), counts=[], total=0)
    lo, hi = min(entries), max(entries)
    step = math.gcd(*(ell - lo for ell in entries)) or 1
    lengths = range(lo, hi + 1, step)
    return LengthMultiset(lengths=lengths, counts=[entries.get(ell, 0) for ell in lengths],
                          total=sum(entries.values()))


class TestMean:
    def test_mcnugget_132(self):
        S = make_semigroup([6, 9, 20])
        assert mean_length(length_multiset(S, 132)) == Fraction(221, 14)

    def test_trivial(self):
        assert mean_length(ms_of({0: 1})) == 0

    def test_two_equal_lengths(self):
        S = make_semigroup([3, 5, 7])
        assert mean_length(length_multiset(S, 10)) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyMultisetError):
            mean_length(ms_of({}))


class TestMedian:
    def test_mcnugget_132_even_total(self):
        S = make_semigroup([6, 9, 20])
        assert median_length(length_multiset(S, 132)) == Fraction(31, 2)

    def test_trivial(self):
        assert median_length(ms_of({0: 1})) == 0

    def test_single_length(self):
        assert median_length(ms_of({5: 3})) == 5

    def test_odd_total(self):
        assert median_length(ms_of({1: 1, 2: 1, 9: 1})) == 2

    def test_even_total_split_between_lengths(self):
        assert median_length(ms_of({1: 2, 9: 2})) == 5


def prefix_sum_mean(ms: LengthMultiset) -> Fraction:
    """The mean by parts over the whole list of running sums of counts."""
    cumulative = list(accumulate(ms.counts))
    weighted = ms.max_length * ms.total - ms.lengths.step * (sum(cumulative) - ms.total)
    return Fraction(weighted, ms.total)


def prefix_sum_median(ms: LengthMultiset) -> Fraction:
    """The median from two bisections of the whole list of running sums."""
    cumulative = list(accumulate(ms.counts))
    lower = ms.lengths[bisect_left(cumulative, (ms.total + 1) // 2)]
    upper = ms.lengths[bisect_left(cumulative, ms.total // 2 + 1)]
    return Fraction(lower + upper, 2)


def ms_of_counts(counts: list[int], first: int = 0, step: int = 1) -> LengthMultiset:
    return LengthMultiset(lengths=range(first, first + step * len(counts), step),
                          counts=counts, total=sum(counts))


@st.composite
def multisets(draw) -> LengthMultiset:
    """Counts with positive ends and zeros inside, from a single entry up to
    a few blocks; the total is made odd or even on request."""
    size = draw(st.one_of(st.integers(1, 40), st.integers(BLOCK - 3, BLOCK + 3),
                          st.integers(1, 4 * BLOCK)))
    rng = draw(st.randoms(use_true_random=False))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    top = draw(st.sampled_from([1, 5, 10**6]))
    counts = [0 if rng.random() < zeros else rng.randint(1, top) for _ in range(size)]
    counts[0] = counts[0] or 1
    counts[-1] = counts[-1] or 1
    if sum(counts) % 2 != draw(st.integers(0, 1)):
        counts[0] += 1
    return ms_of_counts(counts, first=draw(st.integers(0, 100)), step=draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(ms=multisets())
def test_statistics_equal_the_prefix_sum_route(ms):
    assert mean_length(ms) == prefix_sum_mean(ms)
    assert median_length(ms) == prefix_sum_median(ms)


def _ones(size: int, heavy_at: int | None = None) -> list[int]:
    """size ones; with heavy_at, that entry outweighs all the others."""
    counts = [1] * size
    if heavy_at is not None:
        counts[heavy_at] = size
    return counts


class TestMedianAtBlockEdges:
    """Middle ranks on the last entry of a block and on the first entry of
    the next."""

    @pytest.mark.parametrize("counts, lower, upper", [
        # odd totals: both middle ranks on one entry
        (_ones(2 * BLOCK - 1), BLOCK - 1, BLOCK - 1),
        (_ones(2 * BLOCK + 1), BLOCK, BLOCK),
        (_ones(6 * BLOCK - 1), 3 * BLOCK - 1, 3 * BLOCK - 1),
        # even totals: the lower rank ends a block, the upper starts the next
        (_ones(2 * BLOCK), BLOCK - 1, BLOCK),
        (_ones(4 * BLOCK), 2 * BLOCK - 1, 2 * BLOCK),
        # zeros on both sides of the edge
        ([1] + [0] * (BLOCK - 2) + [1, 1] + [0] * (BLOCK - 2) + [1], BLOCK - 1, BLOCK),
        ([3] + [0] * (BLOCK - 1) + [3], 0, BLOCK),
        ([2] + [0] * (BLOCK - 2) + [1, 3], BLOCK - 1, BLOCK),
        # one heavy entry holds both ranks
        (_ones(3 * BLOCK, heavy_at=BLOCK - 1), BLOCK - 1, BLOCK - 1),
        (_ones(3 * BLOCK, heavy_at=BLOCK), BLOCK, BLOCK),
    ])
    def test_ranks_at_block_edges(self, counts, lower, upper):
        ms = ms_of_counts(counts, first=7, step=2)
        expected = Fraction(ms.lengths[lower] + ms.lengths[upper], 2)
        assert median_length(ms) == prefix_sum_median(ms) == expected
        assert mean_length(ms) == prefix_sum_mean(ms)


def _peak_bytes(call) -> int:
    """Peak traced memory of call() above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """A k = 3 query holds one list of about n entries: the counts."""

    S = make_semigroup([6, 9, 20])
    N = 10**6

    def multiset_peak(self) -> int:
        return _peak_bytes(lambda: length_multiset(self.S, self.N))

    def test_invariant_report(self):
        ratio = _peak_bytes(lambda: invariant_report(self.S, self.N)) / self.multiset_peak()
        assert ratio <= 1.1, ratio

    @pytest.mark.parametrize("points", [[N], [N - 1, N]])
    def test_convergence_sweep(self, points):
        ratio = _peak_bytes(lambda: convergence_sweep(self.S, points)) / self.multiset_peak()
        assert ratio <= 1.1, ratio

    def test_histogram_csv(self, tmp_path):
        """The counts plus one chunk of CSV rows: the ratio measured 2.13-2.18
        on Python 3.11, and 5.17-5.24 when every row tuple and the whole CSV
        text were built before writing."""
        out = str(tmp_path / "histogram.csv")
        argv = ["histogram", "-s", "6,9,20", "-n", str(self.N), "--out", out]
        ratio = _peak_bytes(lambda: main(argv)) / self.multiset_peak()
        assert ratio <= 2.5, ratio

    def test_model_csv(self, tmp_path):
        """model streams its rows: the multiset plus one chunk of CSV
        strings, no record or Fraction per length.  The ratio measured
        about 4.4 on Python 3.11, and 16.9 with a tuple of exact steps."""
        element = scaled_sequence(self.S, 1).element
        out = str(tmp_path / "model.csv")
        argv = ["model", "-s", "6,9,20", "-k", "1", "--out", out]
        ratio = _peak_bytes(lambda: main(argv)) / _peak_bytes(lambda: length_multiset(self.S, element))
        assert ratio <= 6, ratio


class TestMode:
    def test_mcnugget_132(self):
        S = make_semigroup([6, 9, 20])
        assert mode(length_multiset(S, 132)) == ((15,), 2)

    def test_mcnugget_1001(self):
        S = make_semigroup([6, 9, 20])
        lengths, freq = mode(length_multiset(S, 1001))
        assert freq == 8
        assert lengths == (107, 108, 110, 111, 112, 113, 114, 115)

    def test_trivial(self):
        assert mode(ms_of({0: 1})) == ((0,), 1)


class TestReport:
    def test_mcnugget_132(self):
        S = make_semigroup([6, 9, 20])
        report = invariant_report(S, 132)
        assert (report.min, report.max) == (8, 22)
        assert report.mean == Fraction(221, 14)
        assert report.median == Fraction(31, 2)
        assert report.mode_lengths == (15,) and report.mode_freq == 2
        assert report.num_factorizations == 14

    def test_zero(self):
        report = invariant_report(make_semigroup([6, 9, 20]), 0)
        assert (report.min, report.max, report.num_factorizations) == (0, 0, 1)
        assert report.mean == 0 and report.median == 0
        assert report.mode_lengths == (0,) and report.mode_freq == 1

    def test_fig1_element(self):
        report = invariant_report(make_semigroup([3, 5, 7]), 630)
        assert (report.min, report.max) == (90, 210)
        assert report.mode_lengths == (126,)

    def test_nonmember_distinct_error(self):
        with pytest.raises(NotInSemigroup):
            invariant_report(make_semigroup([6, 9, 20]), 7)

    def test_json_shape(self):
        payload = _plain(invariant_report(make_semigroup([6, 9, 20]), 132))
        assert payload["mean"] == "221/14" and payload["median"] == "31/2"
        assert payload["mode_lengths"] == [15]


class TestOrderingInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 400))
    def test_min_le_center_le_max(self, seed, n):
        gens = random_semigroup_3(random.Random(seed), hi=50)
        S = make_semigroup(gens)
        try:
            ms = length_multiset(S, n)
        except NotInSemigroup:
            return
        lo, hi = ms.min_length, ms.max_length
        assert lo <= mean_length(ms) <= hi
        assert lo <= median_length(ms) <= hi

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 220))
    def test_against_stdlib_statistics(self, seed, n):
        """Expanding the multiset and asking the standard library must agree."""
        import statistics

        gens = random_semigroup_3(random.Random(seed), hi=30)
        S = make_semigroup(gens)
        try:
            ms = length_multiset(S, n)
        except NotInSemigroup:
            return
        expanded = [ell for ell, mult in ms.items() for _ in range(mult)]
        assert mean_length(ms) == Fraction(sum(expanded), len(expanded))
        assert median_length(ms) == Fraction(statistics.median(expanded))


@settings(max_examples=150, deadline=None)
@given(entries=st.dictionaries(st.integers(-30, 60), st.integers(1, 6), min_size=1, max_size=12))
def test_statistics_with_zeros_anywhere_in_the_progression(entries):
    """ms_of leaves a zero count at every progression length without an
    entry, so zeros sit anywhere, not only in the end strips."""
    import statistics

    ms = ms_of(entries)
    expanded = sorted(ell for ell, mult in entries.items() for _ in range(mult))
    freq = max(entries.values())
    assert mean_length(ms) == Fraction(sum(expanded), len(expanded))
    assert median_length(ms) == Fraction(statistics.median(expanded))
    assert mode(ms) == (tuple(sorted(ell for ell, mult in entries.items() if mult == freq)), freq)


class TestModeRecurrence:
    @pytest.mark.parametrize("gens,n_max", [((6, 9, 20), 600), ((3, 5, 7), 500)])
    def test_recurrence_window(self, gens, n_max):
        """Adding one trade element adds exactly one mode factorization and
        shifts every mode length by element/n2."""
        S = make_semigroup(gens)
        td = trade_data(S)
        shift = td.element // S.gens[1]
        for n in range(n_max + 1):
            try:
                before = mode(length_multiset(S, n))
            except NotInSemigroup:
                continue
            after = mode(length_multiset(S, n + td.element))
            assert after[1] == before[1] + 1, n
            assert after[0] == tuple(ell + shift for ell in before[0]), n

    def test_first_trade_step(self):
        S = make_semigroup([3, 5, 7])
        assert mode(length_multiset(S, 0))[1] == 1
        assert mode(length_multiset(S, 10))[1] == 2

    @pytest.mark.parametrize("gens", [(3, 5, 7), (6, 9, 20), (7, 16, 25)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_mode_singleton_at_distinguished_scale(self, gens, k):
        """At n = k*scale the mode is the single length n/n2 with
        multiplicity num_trades + 1, and the extremes match the closed forms."""
        from factorlengths.asymptotics import scaled_sequence

        S = make_semigroup(gens)
        seq = scaled_sequence(S, k)
        ms = length_multiset(S, seq.element)
        assert mode(ms) == ((seq.mode_len,), seq.num_trades + 1)
        assert (ms.min_length, ms.max_length) == (seq.min_len, seq.max_len)
