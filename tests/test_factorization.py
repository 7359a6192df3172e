"""Closed length counting against the enumeration oracle."""

import importlib.util
import math
import random
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlengths.asymptotics import asymptotic_mean
from factorlengths.factorization import _counts, histogram_rows, length_multiset
from factorlengths.semigroup import NotInSemigroup, make_semigroup, trade_data

from oracles import (
    brute_factorizations,
    brute_length_counter,
    enumerate_factorizations,
    period_length_sums,
)

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
        assert length_multiset(S, 1001).entries[87] == 5

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
                support = tuple(length_multiset(S, n).entries)
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
        recurse on the reduced triple where that factor divides the rest."""
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
        # the parts of several copies of n4 interleave their lengths here
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


def check_enumerated(gens, n):
    """The whole record of n, laid onto the delta progression, against the
    lengths of the enumerated tuples."""
    S = make_semigroup(gens)
    enumerated = brute_length_counter(S.gens, n)
    if not enumerated:
        with pytest.raises(NotInSemigroup):
            length_multiset(S, n)
        return
    ms = length_multiset(S, n)
    lengths = range(min(enumerated), max(enumerated) + 1, S.delta)
    assert ms.lengths == lengths and set(enumerated) <= set(lengths), (gens, n)
    assert ms.counts == [enumerated[ell] for ell in lengths], (gens, n)
    assert ms.total == sum(enumerated.values()), (gens, n)


class TestReducedRecursion:
    """k >= 4 counts the factorizations with c copies of nk as those of
    (n - c*nk)/e over the other generators divided by their gcd e."""

    def test_factor_shared_twice(self):
        """<8,12,16,18> share 2, and the three smallest of <4,6,8,9> share 2
        again, so the recursion divides at two levels."""
        for n in range(-3, 200):
            check_enumerated((8, 12, 16, 18, 19), n)

    def test_delta_three(self):
        """<7,10,13,16> has delta 3, so the parts land on every third length."""
        for n in range(-3, 200):
            check_enumerated((7, 10, 13, 16), n)


@settings(max_examples=60, deadline=None)
@given(
    gens=st.lists(st.integers(2, 25), min_size=4, max_size=5, unique=True)
    .filter(lambda gens: math.gcd(*gens) == 1),
    n=st.integers(-3, 160),
)
def test_many_generators_match_enumeration_property(gens, n):
    check_enumerated(gens, n)


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
        over a window of 5*n1*nk consecutive elements (every integer past the
        Frobenius number, which is below n1*nk, is one)."""
        S = make_semigroup(gens)
        n1, nk = S.gens[0], S.gens[-1]
        start, count = 4 * nk**2, 5 * n1 * nk
        extremes = {}
        for n in range(start, start + count + nk + 1):
            ms = length_multiset(S, n)
            extremes[n] = ms.min_length, ms.max_length
        for n in range(start, start + count):
            assert extremes[n + n1][1] == extremes[n][1] + 1, (gens, n)
            assert extremes[n + nk][0] == extremes[n][0] + 1, (gens, n)


class TestHistogramRows:
    def test_rows_sorted_no_zeros(self):
        ms = length_multiset(make_semigroup([6, 9, 20]), 132)
        rows = list(histogram_rows(ms))
        assert rows[0] == (8, 1) and rows[-1] == (22, 1)
        assert (9, 0) not in rows
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_include_zeros(self):
        ms = length_multiset(make_semigroup([6, 9, 20]), 132)
        rows = list(histogram_rows(ms, include_zeros=True))
        assert len(rows) == 15
        assert (9, 0) in rows and (10, 0) in rows

    @pytest.mark.parametrize("gens, n", [((7, 16, 25), 20000), ((10, 13, 16), 301),
                                         ((3, 5, 7), 630), ((3, 5, 7), 0)])
    def test_include_zeros_fills_every_skipped_length(self, gens, n):
        """Against a list of every length between the extremes, zeros
        included, with the counts placed step apart."""
        ms = length_multiset(make_semigroup(list(gens)), n)
        every = [0] * (ms.max_length - ms.min_length + 1)
        every[::ms.lengths.step] = ms.counts
        expected = list(zip(range(ms.min_length, ms.max_length + 1), every))
        assert list(histogram_rows(ms, include_zeros=True)) == expected


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


# -- the linear-forms kernel against the per-length scan it replaced ----------


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _scan_three(gens: tuple[int, int, int], n: int, base_len: int, hist: dict[int, int]) -> None:
    """Accumulate length multiplicities of a 3-generator subproblem into hist.

    A length-ell tuple (x1, x2, x3) satisfies A*x2 + B*x3 = n - ell*n1 with
    A = n2-n1, B = n3-n1 and x2 + x3 <= ell.  For fixed ell the solutions
    form a lattice line, so each length costs O(1) interval arithmetic.
    """
    if n < 0:
        return
    n1, n2, n3 = gens
    A, B = n2 - n1, n3 - n1
    g = math.gcd(A, B)
    Bg, Ag, Cg = B // g, A // g, (B - A) // g
    u = pow(Ag, -1, Bg)  # u*A ≡ g (mod B); Bg >= 2 because A < B
    lo, hi = _ceil_div(n, n3), n // n1
    # solvability forces n1*ell ≡ n (mod g): step the scan through one class
    d = math.gcd(n1, g)
    if n % d:
        return
    step = g // d
    if step > 1:
        lo += ((n // d) * pow(n1 // d, -1, step) - lo) % step
    for ell in range(lo, hi + 1, step):
        R = n - ell * n1
        x20 = u * (R // g)
        x30 = (R - A * x20) // B
        j_hi = x30 // Ag
        j_hi2 = (ell - x20 - x30) // Cg
        if j_hi2 < j_hi:
            j_hi = j_hi2
        j_lo = _ceil_div(-x20, Bg)
        if j_hi >= j_lo:
            length = base_len + ell
            hist[length] = hist.get(length, 0) + j_hi - j_lo + 1


def scan_reference(gens, n: int) -> dict[int, int]:
    hist: dict[int, int] = {}
    _scan_three(tuple(gens), n, 0, hist)
    return hist


def scan_d_values(gens, n: int) -> list[int]:
    """D = Cg*x3 - Ag*y at each length _scan_three visits, from its own
    particular solution: the x3 bound binds where D <= 0, the x1 bound
    where D > 0."""
    n1, n2, n3 = gens
    A, B = n2 - n1, n3 - n1
    g = math.gcd(A, B)
    Bg, Ag, Cg = B // g, A // g, (B - A) // g
    u = pow(Ag, -1, Bg)
    d = math.gcd(n1, g)
    if n < 0 or n % d:
        return []
    step = g // d
    lo = _ceil_div(n, n3)
    lo += ((n // d) * pow(n1 // d, -1, step) - lo) % step
    values = []
    for ell in range(lo, n // n1 + 1, step):
        R = n - ell * n1
        x20 = u * (R // g)
        x30 = (R - A * x20) // B
        values.append(Cg * x30 - Ag * (ell - x20 - x30))
    return values


def check_multiset(gens, n):
    """length_multiset against the scan, laid onto the delta progression."""
    S = make_semigroup(gens)
    hist = scan_reference(S.gens, n)
    if not hist:
        with pytest.raises(NotInSemigroup):
            length_multiset(S, n)
        return
    ms = length_multiset(S, n)
    lengths = range(min(hist), max(hist) + 1, S.delta)
    assert list(ms.lengths) == list(lengths), (gens, n)
    assert ms.counts == [hist.get(ell, 0) for ell in lengths], (gens, n)
    assert ms.total == sum(hist.values()), (gens, n)
    assert ms.entries == hist, (gens, n)


def _shared_step_triple(parts):
    n1, a, b, g = parts
    return sorted({n1, n1 + g * a, n1 + g * b})


TRIPLES = st.one_of(
    st.lists(st.integers(2, 59), min_size=3, max_size=3, unique=True).map(sorted),
    # n2 - n1 and n3 - n1 share the factor g, so the lengths step by g
    st.tuples(st.integers(2, 40), st.integers(1, 9), st.integers(2, 9), st.integers(2, 6))
    .map(_shared_step_triple)
    .filter(lambda gens: len(gens) == 3 and gens[2] < 60),
)


@settings(max_examples=150, deadline=None)
@given(gens=TRIPLES, n=st.integers(-5, 10**5))
def test_multiset_matches_scan_property(gens, n):
    if math.gcd(*gens) != 1:
        return
    check_multiset(gens, n)


@settings(max_examples=100, deadline=None)
@given(gens=TRIPLES, n=st.integers(0, 5000))
def test_split_function_falls_by_n2_over_d(gens, n):
    """D steps by -n2/d for every triple (Ag*u + Bg*w = 1), so its slope is
    never 0 or positive: the x1 bound binds on a prefix of the lengths and
    the x3 bound on the rest."""
    values = scan_d_values(gens, n)
    d = math.gcd(gens[0], math.gcd(gens[1] - gens[0], gens[2] - gens[0]))
    assert all(b - a == -(gens[1] // d) for a, b in zip(values, values[1:]))


class TestSplit:
    """The y piece runs over [0, s) and the x3 piece over [s, N), with s
    where D = Cg*x3 - Ag*y first drops to 0 or below."""

    @pytest.mark.parametrize("gens,n", [((3, 5, 7), 7), ((7, 16, 25), 25), ((48, 49, 50), 50)])
    def test_split_at_n(self, gens, n):
        values = scan_d_values(gens, n)
        assert values and all(v > 0 for v in values)
        check_multiset(gens, n)

    @pytest.mark.parametrize("gens,n", [((7, 16, 25), 231), ((7, 16, 25), 343), ((3, 5, 7), 18)])
    def test_split_at_zero(self, gens, n):
        values = scan_d_values(gens, n)
        assert len(values) >= 2 and values[0] < 0
        check_multiset(gens, n)

    @pytest.mark.parametrize("gens,n", [((3, 5, 7), 30), ((7, 16, 25), 224)])
    def test_d_zero_at_first_length(self, gens, n):
        values = scan_d_values(gens, n)
        assert len(values) >= 2 and values[0] == 0
        check_multiset(gens, n)

    @pytest.mark.parametrize("gens,n", [((3, 5, 7), 35), ((6, 9, 20), 18), ((12, 15, 20), 60)])
    def test_d_zero_inside(self, gens, n):
        values = scan_d_values(gens, n)
        assert 0 in values[1:-1]
        check_multiset(gens, n)

    @pytest.mark.parametrize("gens,n_max", [((3, 5, 7), 3000), ((48, 49, 50), 20000)])
    def test_every_n_up_to(self, gens, n_max):
        """<3,5,7> has g = 2; <48,49,50> has lengths only near n/49."""
        for n in range(-5, n_max + 1):
            check_multiset(gens, n)
        check_multiset(gens, 10**5)
        check_multiset(gens, 10**5 + 1)


@settings(max_examples=200, deadline=None)
@given(
    f0=st.integers(-10**6, 10**6), df=st.integers(-60, 60), m=st.integers(1, 60),
    x0=st.integers(-10**6, 10**6), dx=st.integers(-60, 60), Bg=st.integers(1, 60),
    a=st.integers(0, 50), length=st.integers(0, 4000),
)
def test_counts_helper_matches_direct_evaluation(f0, df, m, x0, dx, Bg, a, length):
    """The cycled steps reproduce both floors at every index, zero slopes included."""
    b = a + length
    direct = [(f0 + df * i) // m + (x0 + dx * i) // Bg for i in range(a, b)]
    assert list(_counts(f0, df, m, x0, dx, Bg, a, b)) == direct


# -- counts and length sums at huge n, interpolated over one period --------


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hist_sums(hist: dict[int, int]) -> tuple[int, int, int]:
    """(total, sum of lengths, sum of squared lengths) of {length: count}."""
    return (sum(hist.values()), sum(ell * c for ell, c in hist.items()),
            sum(ell * ell * c for ell, c in hist.items()))


def _multiset_sums(ms) -> tuple[int, int, int]:
    """_hist_sums of a length multiset by additions: with lengths
    start + step*i, suffix sums s1 of the counts and s2 of s1 give
    sum(i*c) = sum(s1[1:]) and sum(i*(i+1)/2*c) = sum(s2[1:])."""
    suffix = list(accumulate(reversed(ms.counts)))  # s1 from the top index down
    suffix_sum = sum(suffix)
    first = suffix_sum - ms.total
    second = 2 * (sum(accumulate(suffix)) - suffix_sum) - first
    start, step = ms.lengths.start, ms.lengths.step
    return (ms.total, start * ms.total + step * first,
            start * start * ms.total + 2 * start * step * first + step * step * second)


@cache
def _scan_sums(gens: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    return _hist_sums(scan_reference(gens, n))


@cache
def _enumerated_sums(gens: tuple[int, ...], n: int) -> tuple[int, int, int]:
    return _hist_sums(brute_length_counter(gens, n))


def _invariants_candidates() -> list[tuple[tuple[int, int, int], int]]:
    """(generators, n) of every large_n_stats invariants query."""
    return [
        (tuple(map(int, argv[argv.index("-s") + 1].split(","))), int(argv[argv.index("-n") + 1]))
        for _, argv in _load_workloads().all_candidates("large_n_stats")
        if argv[0] == "invariants"
    ]


class TestPeriodOracle:
    """oracles.period_length_sums reaches any n from k + 2 small samples of
    its residue class modulo lcm(gens), with no kernel in the route."""

    def test_large_n_stats_candidates(self):
        """Every benchmark invariants query, n up to 5e6, against the
        kernel; the samples come from the per-length scan, n < 5*lcm."""
        candidates = _invariants_candidates()
        assert len(candidates) == 240
        assert max(math.lcm(*gens) for gens, _ in candidates) == 58_800
        for gens, n in candidates:
            kernel = _multiset_sums(length_multiset(make_semigroup(gens), n))
            assert period_length_sums(gens, n, partial(_scan_sums, gens)) == kernel, (gens, n)

    @pytest.mark.parametrize("gens", [
        (3, 5, 7), (4, 6, 9), (6, 9, 20),
        # any positive generators give quasipolynomials; these keep lcm small
        (2, 3, 4, 6), (3, 4, 6, 8), (2, 5, 6, 15),
    ])
    def test_sample_route_against_enumeration(self, gens):
        """n in steps of 7 through the two periods after the last sample.
        Samples below the Frobenius number have no factorization and
        still fix the polynomial."""
        period = math.lcm(*gens)
        sums_at = partial(_enumerated_sums, gens)
        for n in range((len(gens) + 2) * period, (len(gens) + 4) * period, 7):
            assert period_length_sums(gens, n, sums_at) == sums_at(n), (gens, n)

    def test_huge_n(self):
        """<6,9,20> at n = 10^60 + 1: integer sums, and mean/n within
        10^-50 of asymptotic_mean (mean - asymptotic_mean*n is O(1))."""
        S = make_semigroup([6, 9, 20])
        n = 10**60 + 1
        sums = period_length_sums(S.gens, n, partial(_scan_sums, S.gens))
        assert all(value.denominator == 1 and value > 0 for value in sums)
        total, first, _ = sums
        assert abs(first / total / n - asymptotic_mean(S)) < Fraction(1, 10**50)


class TestAccessors:
    def test_progression_reads(self):
        ms = length_multiset(make_semigroup([3, 5, 7]), 630)
        assert ms.lengths == range(90, 211, 2)
        assert ms.entries.get(126, 0) == 64
        assert all(ms.entries.get(ell, 0) == 0 for ell in (127, 89, 212))
        assert tuple(ms.entries) == tuple(ms.lengths)
        assert list(ms.items()) == list(zip(ms.lengths, ms.counts))

    def test_zeros_inside_end_strip(self):
        ms = length_multiset(make_semigroup([6, 9, 20]), 132)
        assert ms.lengths == range(8, 23)
        assert ms.counts[:4] == [1, 0, 0, 1]
        assert ms.entries.get(9, 0) == 0
        assert dict(ms.items()) == ms.entries and 9 not in ms.entries
