"""Empirical verification drivers."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from factorlengths import experiments
from factorlengths.cli import _plain, main
from factorlengths.asymptotics import asymptotic_mean, asymptotic_median
from factorlengths.experiments import (
    _end_extents,
    candidate_periods,
    convergence_sweep,
    default_grid,
    multi_generator_histogram,
    probe_median_quasilinearity,
    verify_mode_theorem,
    verify_structure_theorem,
)
from factorlengths.factorization import length_multiset
from factorlengths.invariants import mean_length, median_length
from factorlengths.semigroup import make_semigroup


def brute_members(gens, hi: int) -> str:
    """'1' at index n exactly when 0 <= n <= hi is a sum of gens: a bit set
    closed under adding each generator by doubling shifts, read as text."""
    reach, mask = 1, (1 << (hi + 1)) - 1
    for g in gens:
        shift = g
        while shift <= hi:
            reach |= (reach << shift) & mask
            shift *= 2
    return format(reach, "b")[::-1].ljust(hi + 1, "0")


def end_gaps(ms):
    """Missing lengths of ms's progression from its least to its greatest
    length, split low end / high end: the oracle of the end extents."""
    count = len(ms.counts)
    low_missing, high_missing = [], []
    for idx, mult in enumerate(ms.counts):
        if not mult:
            (low_missing if idx < count / 2 else high_missing).append(ms.lengths[idx])
    return low_missing, high_missing


def oracle_extents(ms, delta: int) -> tuple[int, int]:
    low_missing, high_missing = end_gaps(ms)
    return (
        (low_missing[-1] - ms.min_length) // delta + 1 if low_missing else 0,
        (ms.max_length - high_missing[0]) // delta + 1 if high_missing else 0,
    )


@pytest.fixture
def multiset_calls(monkeypatch):
    """Elements passed to length_multiset by the experiments module."""
    calls = []

    def counting(S, n):
        calls.append(n)
        return length_multiset(S, n)

    monkeypatch.setattr(experiments, "length_multiset", counting)
    return calls


class TestConvergenceSweep:
    def test_default_grid_snaps_to_elements(self):
        S = make_semigroup([3, 5, 7])
        grid = default_grid(S)
        assert len(grid) == 4
        for target, n in zip((100, 1_000, 10_000, 100_000), grid):
            assert abs(n - target) <= 7
            length_multiset(S, n)  # does not raise: n is an element

    def test_default_grid_matches_nearest_element_oracle(self):
        """Least distance to each target among the positive elements, the
        lower element on a tie, on random semigroups whose generators spread
        log-uniformly up to 2e5."""
        rng = random.Random(24)
        nearest_zero = ties = 0
        for _ in range(220):
            while True:
                k = rng.randint(2, 4)
                gens = {round(10 ** rng.uniform(0.3, math.log10(200_000))) for _ in range(k)}
                if len(gens) == k and math.gcd(*gens) == 1:
                    break
            members = brute_members(gens, 100_000 + max(gens))
            grid = default_grid(make_semigroup(gens))
            expected = set()
            for target in (100, 1_000, 10_000, 100_000):
                below, above = members.rfind("1", 1, target + 1), members.find("1", target)
                if below > 0 and target - below <= above - target:
                    expected.add(below)
                else:
                    expected.add(above)
                ties += below > 0 and target - below == above - target > 0
                if below < 0 and target <= above - target:
                    # 0 is the nearest element; the least positive one stands in
                    nearest_zero += 1
                    assert members.find("1", 1) in grid, sorted(gens)
            assert grid == sorted(expected), sorted(gens)
        # the draw reaches both edge cases: a tie, and a target nearest to 0
        assert ties and nearest_zero

    @pytest.mark.parametrize("gens, grid", [
        ((250, 251, 253), [250, 1_000, 10_000, 100_000]),
        ((2000, 2001, 2003), [2000, 10_000, 100_000]),
    ])
    def test_default_grid_skips_zero(self, gens, grid):
        """Generators of 200 or more put 0 nearest to the target 100; the
        grid holds the least positive element instead, which the sweep keeps."""
        S = make_semigroup(gens)
        assert default_grid(S) == grid
        assert [row.n for row in convergence_sweep(S, default_grid(S)).rows] == grid

    def test_rows_and_errors(self):
        S = make_semigroup([3, 5, 7])
        result = convergence_sweep(S, default_grid(S))
        assert result.mean_constant == Fraction(71, 315)
        errs = [r.mean_err for r in result.rows]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 5e-3
        assert all(r.median_err < 5e-3 for r in result.rows)
        median_c = asymptotic_median(S)
        median_value = (sympy.Rational(median_c.a)
                        + sympy.Rational(median_c.b) * sympy.sqrt(median_c.m))
        for row in result.rows:
            mean_err = abs(row.mean_ratio - Fraction(71, 315))
            median_err = abs(median_value - sympy.Rational(row.median_ratio))
            assert row.mean_err == float(mean_err)
            assert abs(float(median_err.evalf(30)) - row.median_err) < 1e-12

    def test_skips_non_elements(self):
        S = make_semigroup([6, 9, 20])
        result = convergence_sweep(S, [131, 132, 7, 0])
        assert [r.n for r in result.rows] == [131, 132]
        assert result.skipped == (0, 7)  # non-positive points first

    def test_errors_decrease_along_distinguished_multiples(self):
        S = make_semigroup([3, 5, 7])
        result = convergence_sweep(S, [2100 * k for k in range(1, 6)])
        errs = [r.mean_err for r in result.rows]
        assert errs == sorted(errs, reverse=True)

    def test_harmonic_case_hits_quarter(self):
        S = make_semigroup([3, 4, 6])
        result = convergence_sweep(S, default_grid(S))
        last = result.rows[-1]
        assert abs(last.mean_ratio - Fraction(1, 4)) < 5e-3
        assert abs(last.median_ratio - Fraction(1, 4)) < 5e-3

    def test_subsequence_consistency(self):
        """Distinguished multiples and an unrelated arithmetic sampling agree:
        their final ratios differ by less than the larger deviation from the
        exact constant."""
        S = make_semigroup([3, 5, 7])
        mean_c = asymptotic_mean(S)
        median_c = asymptotic_median(S).approx_fraction(40)

        def ratios(n):
            ms = length_multiset(S, n)
            return mean_length(ms) / n, median_length(ms) / n

        n_along_scale = 2100 * 4
        n_arithmetic = 101 + 301 * 27  # 8228, a semigroup element
        mean_a, median_a = ratios(n_along_scale)
        mean_b, median_b = ratios(n_arithmetic)
        assert abs(mean_a - mean_b) < max(abs(mean_a - mean_c), abs(mean_b - mean_c))
        assert abs(median_a - median_b) < max(
            abs(median_a - median_c), abs(median_b - median_c)
        )


class TestModeTheorem:
    def test_mcnugget_window(self):
        report = verify_mode_theorem(make_semigroup([6, 9, 20]), 2000)
        assert report.ok and report.checked > 1800
        assert report.period == 126
        assert len(report.residuals) <= 126

    def test_small_semigroup(self):
        report = verify_mode_theorem(make_semigroup([3, 5, 7]), 500)
        assert report.ok
        assert report.period == 10 and report.mode_shift == 2

    def test_residuals_tabulated_per_class(self):
        report = verify_mode_theorem(make_semigroup([3, 5, 7]), 500)
        for residue, value in report.residuals.items():
            assert 0 <= residue < 10
            assert isinstance(value, Fraction)

    def test_json(self, capsys):
        assert main(["verify", "mode", "-s", "3,5,7", "--n-max", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["period"] == 10

    @pytest.mark.parametrize("n_max", [-1, -5])
    def test_negative_n_max_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            verify_mode_theorem(make_semigroup([6, 9, 20]), n_max)

    def test_one_multiset_per_element(self, multiset_calls):
        """Each of the 1979 elements up to 2000 and each n + 126 is counted
        once, 2105 distinct elements in all."""
        assert verify_mode_theorem(make_semigroup([6, 9, 20]), 2000).ok
        assert len(multiset_calls) == len(set(multiset_calls)) == 2105


class TestStructureTheorem:
    def test_mcnugget_132_gaps(self):
        S = make_semigroup([6, 9, 20])
        ms = length_multiset(S, 132)
        low, high = end_gaps(ms)
        assert low == [9, 10] and high == []
        assert _end_extents(ms) == (3, 0)  # lengths 8, 9, 10

    def test_trivial_zero(self):
        S = make_semigroup([6, 9, 20])
        ms = length_multiset(S, 0)
        assert end_gaps(ms) == ([], [])
        assert _end_extents(ms) == (0, 0)

    def test_extents_match_end_gaps_oracle(self):
        """Every element of random windows over gcd-1 triples below 60, and
        the report built from them; a window of fewer than 2 elements
        raises."""
        rng = random.Random(2024)
        holdings = set()
        windows = nonzero = 0
        while windows < 220:
            gens = tuple(sorted(rng.sample(range(2, 60), 3)))
            if math.gcd(*gens) != 1:
                continue
            windows += 1
            S = make_semigroup(gens)
            n_lo = int(10 ** rng.uniform(0, 3.7)) - 5  # small starts hold gaps of S
            n_hi = n_lo + rng.choice([0, 1, 2, 3, 5, 8, 20, 60])
            members = brute_members(gens, max(n_hi, 0))
            elements = [n for n in range(max(n_lo, 0), n_hi + 1) if members[n] == "1"]
            holdings.add(min(len(elements), 3))
            extents = []
            for n in elements:
                ms = length_multiset(S, n)
                extents.append(oracle_extents(ms, S.delta))
                assert _end_extents(ms) == extents[-1], (gens, n)
            nonzero += any(map(any, extents))
            if len(extents) < 2:
                with pytest.raises(ValueError, match="needs at least 2"):
                    verify_structure_theorem(S, n_lo, n_hi)
                continue
            half = len(extents) // 2
            lows, highs = [e[0] for e in extents], [e[1] for e in extents]
            report = verify_structure_theorem(S, n_lo, n_hi)
            assert (report.checked, report.max_low_extent, report.max_high_extent) == (
                len(elements), max(lows), max(highs)), (gens, n_lo, n_hi)
            assert report.bounded == (max(lows[half:]) <= max(lows[:half])
                                      and max(highs[half:]) <= max(highs[:half]))
        assert holdings == {0, 1, 2, 3} and nonzero > 50

    @pytest.mark.parametrize("gens", [(6, 9, 20), (3, 5, 7), (7, 16, 25)])
    def test_windows_bounded(self, gens):
        S = make_semigroup(gens)
        lo = 4 * S.gens[-1] ** 2
        from factorlengths.semigroup import trade_data

        report = verify_structure_theorem(S, lo, lo + 4 * trade_data(S).element)
        assert report.ok, report
        assert not report.violations

    def test_middle_full_for_large_elements(self):
        """Between the end gaps, every step-delta length is present."""
        S = make_semigroup([3, 5, 7])
        ms = length_multiset(S, 630)
        assert tuple(ms.entries) == tuple(range(90, 211, 2))

    def test_default_window(self):
        """4*n3**2 up to four trade elements beyond it, as documented."""
        report = verify_structure_theorem(make_semigroup([3, 5, 7]))
        assert report.window == (196, 196 + 4 * 10)
        assert report.ok

    @pytest.mark.parametrize("gens,lo,hi", [((3, 5, 7), 630, 630), ((6, 9, 20), 100, 100),
                                            ((6, 9, 20), 1, 5)])
    def test_tiny_window_rejected(self, gens, lo, hi):
        """One element, or none, has no two halves whose end gaps compare."""
        with pytest.raises(ValueError, match="needs at least 2"):
            verify_structure_theorem(make_semigroup(gens), lo, hi)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="n_hi must be >= n_lo"):
            verify_structure_theorem(make_semigroup([6, 9, 20]), 500, 100)


class TestQuasilinearityProbe:
    def test_candidate_periods(self):
        S = make_semigroup([7, 16, 25])
        assert candidate_periods(S) == [32, 2800, 806400]

    def test_quasilinear_semigroup(self):
        verdict = probe_median_quasilinearity(make_semigroup([12, 15, 20]))
        assert verdict.verdict == "quasilinear"
        assert verdict.period_tested == 120
        assert verdict.witness is None
        assert verdict.probes[0].window_exhausted

    def test_not_quasilinear_semigroup(self):
        verdict = probe_median_quasilinearity(make_semigroup([7, 16, 25]))
        assert verdict.verdict == "not_quasilinear"
        assert verdict.witness is not None
        assert all(p.witness is not None for p in verdict.probes)
        # the recorded witness really deviates at the recorded period
        S = make_semigroup([7, 16, 25])
        n, P = verdict.witness, verdict.period_tested

        def eta(m):
            return median_length(length_multiset(S, m))

        # the increment at the witness differs from the one at window start
        start = verdict.probes[-1].window[0]
        assert eta(n + P) - eta(n) != eta(start + P) - eta(start)

    def test_harmonic_observation(self):
        # recorded observation: the harmonic case behaves quasilinearly here
        verdict = probe_median_quasilinearity(make_semigroup([3, 4, 6]))
        assert verdict.verdict in {"quasilinear", "not_quasilinear", "inconclusive"}
        assert verdict.verdict == "quasilinear"

    def test_irrational_constant_is_inconclusive(self):
        """<48,49,50>'s median constant 1/48 - sqrt(2)/3360 is irrational, so
        its median is not eventually quasilinear, although the default window
        at period 98 shows no deviation."""
        S = make_semigroup([48, 49, 50])
        verdict = probe_median_quasilinearity(S)
        assert not asymptotic_median(S).is_rational
        assert verdict.verdict == "inconclusive"
        assert verdict.period_tested == 98 and verdict.window == (10000, 10294)
        assert verdict.witness is None and verdict.probes[-1].window_exhausted

    def test_no_irrational_constant_is_quasilinear(self):
        rng = random.Random(2026)
        triples = set()
        while len(triples) < 60:
            gens = tuple(sorted(rng.sample(range(2, 30), 3)))
            if math.gcd(*gens) == 1:
                triples.add(gens)
        clean_windows = 0
        for gens in sorted(triples):
            S = make_semigroup(gens)
            verdict = probe_median_quasilinearity(S)
            if not asymptotic_median(S).is_rational:
                assert verdict.verdict != "quasilinear", gens
                clean_windows += verdict.probes[-1].window_exhausted
        # the rule is exercised: some irrational window shows no deviation
        assert clean_windows > 0

    @pytest.mark.parametrize("max_checks", [0, -3])
    def test_non_positive_max_checks_rejected(self, max_checks):
        with pytest.raises(ValueError, match="max_checks"):
            probe_median_quasilinearity(make_semigroup([6, 9, 20]), max_checks=max_checks)

    def test_window_records_parameters(self):
        verdict = probe_median_quasilinearity(make_semigroup([12, 15, 20]))
        assert verdict.start_threshold == 4 * 20**2
        payload = _plain(verdict)
        assert payload["verdict"] == "quasilinear"
        assert payload["probes"][0]["checked"] > 0

    def test_empty_window_is_inconclusive(self):
        """[-100, -4] holds no element of S, so a clean scan proves nothing."""
        verdict = probe_median_quasilinearity(
            make_semigroup([7, 16, 25]), periods=[32], start=-100
        )
        assert verdict.verdict == "inconclusive"
        assert verdict.probes[0].checked == 0
        assert not verdict.probes[0].window_exhausted

    def test_budget_exhaustion_is_inconclusive(self):
        verdict = probe_median_quasilinearity(
            make_semigroup([12, 15, 20]), periods=[120], max_checks=5
        )
        assert verdict.verdict == "inconclusive"

    @pytest.mark.parametrize("period", [0, -5])
    def test_non_positive_period_rejected(self, period):
        with pytest.raises(ValueError, match="positive"):
            probe_median_quasilinearity(make_semigroup([7, 16, 25]), periods=[period])

    @pytest.mark.parametrize("gens, elements", [((12, 15, 20), 481), ((7, 16, 25), 124)])
    def test_one_multiset_per_element(self, multiset_calls, gens, elements):
        """The periods of the default ladder share one memo, so an element
        reached as n + P by one period and as n by the next is counted once."""
        probe_median_quasilinearity(make_semigroup(gens))
        assert len(multiset_calls) == len(set(multiset_calls)) == elements


class TestMultiGeneratorHistogram:
    def test_embdim4_inflections(self):
        S = make_semigroup([4, 5, 6, 7])
        exploration = multi_generator_histogram(S, 1680)
        assert 280 in exploration.inflection_candidates
        assert 336 in exploration.inflection_candidates
        assert exploration.multiset.min_length == 240
        assert exploration.multiset.max_length == 420

    def test_five_generator_peak_location(self):
        S = make_semigroup([5, 7, 8, 9, 11])
        exploration = multi_generator_histogram(S, 2520)
        assert 315 not in exploration.peak_lengths
        assert exploration.peak_lengths == (324,)

    def test_trivial_zero(self):
        S = make_semigroup([4, 5, 6, 7])
        exploration = multi_generator_histogram(S, 0)
        assert exploration.multiset.entries == {0: 1}
        assert exploration.inflection_candidates == ()

    def test_requires_four_generators(self):
        with pytest.raises(ValueError):
            multi_generator_histogram(make_semigroup([3, 5, 7]), 100)
