"""Closed length counting against the enumeration oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlengths.factorization import histogram_rows, length_multiset
from factorlengths.semigroup import NotInSemigroup, make_semigroup, trade_data

from oracles import brute_factorizations, brute_length_counter, enumerate_factorizations

MCNUGGET_132 = [
    (2, 0, 6), (0, 8, 3), (3, 6, 3), (6, 4, 3), (9, 2, 3), (12, 0, 3),
    (1, 14, 0), (4, 12, 0), (7, 10, 0), (10, 8, 0), (13, 6, 0), (16, 4, 0),
    (19, 2, 0), (22, 0, 0),
]

TEST_SEMIGROUPS = [(6, 9, 20), (3, 5, 7), (7, 16, 25), (12, 15, 20)]


class TestEnumeration:
    def test_mcnugget_golden_with_order(self):
        assert enumerate_factorizations((6, 9, 20), 132) == MCNUGGET_132

    def test_zero(self):
        assert enumerate_factorizations((6, 9, 20), 0) == [(0, 0, 0)]

    def test_small(self):
        assert set(enumerate_factorizations((3, 5, 7), 10)) == {(1, 0, 1), (0, 2, 0)}

    def test_nonmember_empty(self):
        assert enumerate_factorizations((6, 9, 20), 7) == []

    def test_blind_product_oracle(self):
        for n in range(0, 60):
            assert set(enumerate_factorizations((3, 5, 7), n)) == brute_factorizations((3, 5, 7), n)


class TestLengthMultiset:
    def test_mcnugget_golden(self):
        S = make_semigroup([6, 9, 20])
        ms = length_multiset(S, 132)
        assert ms.entries == {
            8: 1, 11: 1, 12: 1, 13: 1, 14: 1, 15: 2, 16: 1, 17: 1, 18: 1,
            19: 1, 20: 1, 21: 1, 22: 1,
        }
        assert ms.total == 14

    def test_zero(self):
        ms = length_multiset(make_semigroup([6, 9, 20]), 0)
        assert ms.entries == {0: 1}

    def test_length_87_of_1001(self):
        S = make_semigroup([6, 9, 20])
        assert length_multiset(S, 1001).multiplicity(87) == 5

    def test_nonmember_raises(self):
        with pytest.raises(NotInSemigroup):
            length_multiset(make_semigroup([6, 9, 20]), 7)

    @pytest.mark.parametrize("gens", TEST_SEMIGROUPS)
    def test_oracle_equivalence_up_to_500(self, gens):
        """Closed lattice counting == brute enumeration, element by element."""
        S = make_semigroup(gens)
        for n in range(501):
            enumerated = brute_length_counter(S.gens, n)
            try:
                counted = length_multiset(S, n).entries
            except NotInSemigroup:
                counted = {}
            assert counted == dict(enumerated), (gens, n)

    @pytest.mark.parametrize("gens", TEST_SEMIGROUPS)
    def test_keys_congruent_mod_delta(self, gens):
        S = make_semigroup(gens)
        delta = trade_data(S).delta
        for n in range(200, 320):
            try:
                support = length_multiset(S, n).support()
            except NotInSemigroup:
                continue
            assert all((ell - support[0]) % delta == 0 for ell in support)

    def test_four_generators_match_enumeration(self):
        S = make_semigroup([4, 5, 6, 7])
        for n in range(0, 150):
            enumerated = brute_length_counter(S.gens, n)
            try:
                counted = length_multiset(S, n).entries
            except NotInSemigroup:
                counted = {}
            assert counted == dict(enumerated), n

    def test_five_generators_match_enumeration(self):
        S = make_semigroup([5, 7, 8, 9, 11])
        for n in range(0, 120):
            enumerated = brute_length_counter(S.gens, n)
            try:
                counted = length_multiset(S, n).entries
            except NotInSemigroup:
                counted = {}
            assert counted == dict(enumerated), n

    @pytest.mark.parametrize("gens", [(4, 6, 8, 9), (9, 12, 15, 16), (6, 10, 14, 15)])
    def test_shared_factor_among_smallest_generators(self, gens):
        """k >= 4 semigroups whose three smallest generators share a factor
        stress the congruence filtering of the inner counting loop."""
        S = make_semigroup(gens)
        for n in range(0, 140):
            enumerated = brute_length_counter(S.gens, n)
            try:
                counted = length_multiset(S, n).entries
            except NotInSemigroup:
                counted = {}
            assert counted == dict(enumerated), (gens, n)

    def test_two_generators(self):
        S = make_semigroup([4, 7])
        for n in range(0, 200):
            enumerated = brute_length_counter(S.gens, n)
            try:
                counted = length_multiset(S, n).entries
            except NotInSemigroup:
                counted = {}
            assert counted == dict(enumerated), n
            assert all(v == 1 for v in counted.values())


class TestKeyOrder:
    """min_length, max_length and median_length read the key order of
    LengthMultiset.entries, which dict equality ignores: the k = 2 and k = 3
    scans must insert lengths ascending, and k >= 4 must sort."""

    @staticmethod
    def check(S, n):
        expected = sorted(brute_length_counter(S.gens, n).items())
        try:
            ms = length_multiset(S, n)
        except NotInSemigroup:
            assert expected == [], (S.gens, n)
            return
        assert list(ms.entries) == sorted(ms.entries), (S.gens, n)
        assert list(ms.entries.items()) == expected, (S.gens, n)
        assert ms.total == sum(count for _, count in expected)

    @pytest.mark.parametrize("gens,n_max", [
        ((4, 7), 400), ((5, 8), 400),
        ((3, 5, 7), 900), ((48, 49, 50), 3000), ((6, 9, 20), 1200),
        ((4, 6, 8, 9), 200), ((5, 7, 8, 9, 11), 120),
        # descend's scans interleave lengths here, so only the sort orders them
        ((6, 10, 14, 15), 200), ((4, 6, 9, 11), 200),
    ])
    def test_named_semigroups(self, gens, n_max):
        S = make_semigroup(gens)
        rng = random.Random(sum(gens))
        points = [-5, -1, 0, *range(1, gens[0]), *(rng.randint(0, n_max) for _ in range(40))]
        for n in points:
            self.check(S, n)

    def test_random_semigroups(self):
        rng = random.Random(15)
        checked = 0
        while checked < 60:
            k = rng.choice((2, 3, 3, 4))
            gens = sorted(rng.sample(range(2, 30), k))
            if math.gcd(*gens) != 1:
                continue
            S = make_semigroup(gens)
            n_max = 600 if k < 4 else 150
            for n in (0, rng.randint(1, gens[0] * 4), rng.randint(0, n_max)):
                self.check(S, n)
            checked += 1


class TestCounting:
    def test_matches_enumeration(self):
        S = make_semigroup([3, 5, 7])
        assert length_multiset(S, 630).total == len(enumerate_factorizations(S.gens, 630))

    def test_dp_path_matches_closed_path(self):
        """Four-generator totals from the outer enumeration plus closed
        inner counts equal the number of enumerated tuples."""
        S4 = make_semigroup([4, 5, 6, 7])
        for n in (0, 1, 100, 333):
            try:
                total = length_multiset(S4, n).total
            except NotInSemigroup:
                total = 0
            assert total == sum(brute_length_counter(S4.gens, n).values())


class TestQuadraticGrowth:
    @pytest.mark.parametrize("gens", [(3, 5, 7), (6, 9, 20)])
    def test_count_grows_quadratically(self, gens):
        """Doubling n roughly quadruples |Z(n)| once n is large."""
        S = make_semigroup(gens)
        base = 2 * S.gens[0] * S.gens[1] * S.gens[2] * 10
        c1 = length_multiset(S, base).total
        c2 = length_multiset(S, 2 * base).total
        c4 = length_multiset(S, 4 * base).total
        assert 3.5 < c2 / c1 < 4.5
        assert 3.5 < c4 / c2 < 4.5


class TestExtremes:
    def test_goldens(self):
        for gens, n, extremes in [((6, 9, 20), 132, (8, 22)), ((3, 5, 7), 630, (90, 210)),
                                  ((6, 9, 20), 0, (0, 0))]:
            ms = length_multiset(make_semigroup(gens), n)
            assert (ms.min_length, ms.max_length) == extremes, gens

    def test_nonmember_raises(self):
        with pytest.raises(NotInSemigroup):
            length_multiset(make_semigroup([6, 9, 20]), 43)

    @pytest.mark.parametrize("gens", TEST_SEMIGROUPS)
    def test_extremes_quasilinear_over_window(self, gens):
        """Past 4*n3**2, max length gains 1 per +n1 and min gains 1 per +nk,
        over a window of 5*n1*nk consecutive semigroup elements."""
        from factorlengths.experiments import extreme_length_steps

        S = make_semigroup(gens)
        ok, offender = extreme_length_steps(
            S, 4 * S.gens[-1] ** 2, 5 * S.gens[0] * S.gens[-1]
        )
        assert ok, f"extreme length step failed at {offender} in {gens}"


class TestHistogramRows:
    def test_rows_sorted_no_zeros(self):
        ms = length_multiset(make_semigroup([6, 9, 20]), 132)
        rows = histogram_rows(ms)
        assert rows[0] == (8, 1) and rows[-1] == (22, 1)
        assert (9, 0) not in rows
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_include_zeros(self):
        ms = length_multiset(make_semigroup([6, 9, 20]), 132)
        rows = histogram_rows(ms, include_zeros=True)
        assert len(rows) == 15
        assert (9, 0) in rows and (10, 0) in rows


@settings(max_examples=40, deadline=None)
@given(
    gens=st.lists(st.integers(2, 40), min_size=3, max_size=3, unique=True),
    n=st.integers(0, 250),
)
def test_multiset_equals_enumeration_property(gens, n):
    if math.gcd(gens[0], math.gcd(gens[1], gens[2])) != 1:
        return
    S = make_semigroup(gens)
    enumerated = brute_length_counter(S.gens, n)
    try:
        counted = length_multiset(S, n).entries
    except NotInSemigroup:
        counted = {}
    assert counted == dict(enumerated)
