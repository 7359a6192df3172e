"""Empirical verification drivers."""

import json
from fractions import Fraction

import pytest

from factorlengths import experiments
from factorlengths.cli import _plain, main
from factorlengths.asymptotics import asymptotic_mean, asymptotic_median
from factorlengths.experiments import (
    candidate_periods,
    convergence_sweep,
    default_grid,
    end_gaps,
    extreme_length_steps,
    multi_generator_histogram,
    probe_median_quasilinearity,
    verify_mode_theorem,
    verify_structure_theorem,
)
from factorlengths.factorization import length_multiset
from factorlengths.invariants import mean_length, median_length
from factorlengths.semigroup import make_semigroup

from oracles import quad_sign


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

    def test_rows_and_errors(self):
        S = make_semigroup([3, 5, 7])
        result = convergence_sweep(S, default_grid(S))
        assert result.mean_constant == Fraction(71, 315)
        errs = [r.mean_err for r in result.rows]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 5e-3
        assert all(r.median_err < 5e-3 for r in result.rows)
        median_c = asymptotic_median(S)
        for row in result.rows:
            mean_err = abs(row.mean_ratio - Fraction(71, 315))
            median_err = median_c - row.median_ratio
            if quad_sign(median_err) < 0:
                median_err = -median_err
            assert row.mean_err == float(mean_err)
            assert abs(float(median_err.approx_fraction(25)) - row.median_err) < 1e-12

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
        low, high = end_gaps(length_multiset(S, 132), S.delta)
        assert low == [9, 10] and high == []

    def test_trivial_zero(self):
        S = make_semigroup([6, 9, 20])
        assert end_gaps(length_multiset(S, 0), S.delta) == ([], [])

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
        assert ms.support() == tuple(range(90, 211, 2))

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


class TestExtremeLengthSteps:
    def test_mcnugget(self):
        S = make_semigroup([6, 9, 20])
        ok, offender = extreme_length_steps(S, 1600, 200)
        assert ok and offender is None

    def test_one_multiset_per_element(self, multiset_calls):
        """The 875 elements from 2500 on, together with n + 7 and n + 25,
        are 900 distinct elements, each counted once."""
        assert extreme_length_steps(make_semigroup([7, 16, 25]), 2500, 875) == (True, None)
        assert len(multiset_calls) == len(set(multiset_calls)) == 900
