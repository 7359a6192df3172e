"""Mean, median, mode statistics against the known worked examples."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlengths.cli import _plain
from factorlengths.factorization import LengthMultiset, length_multiset
from factorlengths.invariants import (
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
