"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in failure
output) and enforces the documented time budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from factorlengths.asymptotics import (
    asymptotic_median,
    envelope_report,
    scaled_sequence,
    upper_envelope,
)
from factorlengths.constructions import (
    pythagorean_semigroup,
    sqrt_d_semigroup,
    three_unit_fractions,
    unit_fraction_decomposition,
)
from factorlengths.exactnum import QuadNumber
from factorlengths.experiments import (
    convergence_sweep,
    default_grid,
    multi_generator_histogram,
    probe_median_quasilinearity,
    verify_mode_theorem,
)
from factorlengths.factorization import length_multiset
from factorlengths.invariants import invariant_report, mode
from factorlengths.semigroup import (
    NotInSemigroup,
    Semigroup,
    make_semigroup,
    trade_data,
)

from oracles import brute_length_counter, enumerate_factorizations, random_semigroup_3


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


MCNUGGET_132 = [
    (2, 0, 6), (0, 8, 3), (3, 6, 3), (6, 4, 3), (9, 2, 3), (12, 0, 3),
    (1, 14, 0), (4, 12, 0), (7, 10, 0), (10, 8, 0), (13, 6, 0), (16, 4, 0),
    (19, 2, 0), (22, 0, 0),
]

LENGTH_87_TUPLES = [(8, 57, 22), (19, 43, 25), (30, 29, 28), (41, 15, 31), (52, 1, 34)]


def test_criterion_1_mcnugget_golden_suite():
    with criterion(1, "golden length statistics of 132 in <6,9,20>", 1.0):
        S = make_semigroup([6, 9, 20])
        assert set(enumerate_factorizations(S.gens, 132)) == set(MCNUGGET_132)
        assert length_multiset(S, 132).total == 14
        report = invariant_report(S, 132)
        assert report.mean == Fraction(221, 14)
        assert report.median == Fraction(31, 2)
        assert report.mode_lengths == (15,)
        assert report.mode_freq == 2
        assert (report.min, report.max) == (8, 22)


def test_criterion_2_mode_of_1001():
    with criterion(2, "mode data and length-87 fiber of 1001 in <6,9,20>", 1.0):
        S = make_semigroup([6, 9, 20])
        lengths, freq = mode(length_multiset(S, 1001))
        assert freq == 8
        assert lengths == (107, 108, 110, 111, 112, 113, 114, 115)
        assert length_multiset(S, 1001).entries[87] == 5
        fiber = [f for f in enumerate_factorizations(S.gens, 1001) if sum(f) == 87]
        assert sorted(fiber) == sorted(LENGTH_87_TUPLES)


def test_criterion_3_trade_identity():
    with criterion(3, "trade element 126 and delta*element identity", 1.0):
        td = trade_data(make_semigroup([6, 9, 20]))
        assert td.element == 126
        assert (td.low, td.mid, td.high) == (11, 14, 3)
        rng = random.Random(20260810)
        for _ in range(100):
            gens = random_semigroup_3(rng)
            n1, n2, n3 = gens
            td = trade_data(Semigroup(gens))
            assert td.delta * td.element == n2 * (n3 - n1)


def test_criterion_4_mode_recurrence():
    with criterion(4, "mode recurrence exact on [0, 2000], three semigroups", 30.0):
        for gens in [(6, 9, 20), (3, 5, 7), (7, 16, 25)]:
            report = verify_mode_theorem(make_semigroup(gens), 2000)
            assert report.ok, (gens, report.failures[:3])


def test_criterion_5_figure_reproduction():
    with criterion(5, "histogram of 630 in <3,5,7>: full even support 90..210", 1.0):
        S = make_semigroup([3, 5, 7])
        ms = length_multiset(S, 630)
        assert ms.min_length == 90 and ms.max_length == 210
        assert mode(ms) == ((126,), 64)
        full = tuple(range(90, 211, 2))
        missing = [ell for ell in full if ell not in ms.entries]
        # gap set is low-end bounded; here it is empty
        assert missing == []
        assert tuple(ms.entries) == full
        for ell in range(91, 210, 2):
            assert ms.entries.get(ell, 0) == 0


def test_criterion_6_oracle_equivalence():
    with criterion(6, "closed counting equals enumeration for n <= 500", 60.0):
        for gens in [(6, 9, 20), (3, 5, 7), (7, 16, 25), (12, 15, 20)]:
            S = make_semigroup(gens)
            for n in range(501):
                enumerated = brute_length_counter(S.gens, n)
                try:
                    counted = length_multiset(S, n).entries
                except NotInSemigroup:
                    counted = {}
                assert counted == dict(enumerated), (gens, n)


def test_criterion_7_mean_convergence():
    with criterion(7, "mean ratio within 5e-3 at ~1e5, errors monotone", 60.0):
        S = make_semigroup([3, 5, 7])
        result = convergence_sweep(S, default_grid(S))
        errs = [r.mean_err for r in result.rows]
        assert abs(result.rows[-1].n - 100_000) <= 7
        assert errs[-1] <= 5e-3
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))


def test_criterion_8_median_convergence():
    with criterion(8, "median ratio within 5e-3; harmonic case hits 1/4", 60.0):
        S = make_semigroup([3, 5, 7])
        result = convergence_sweep(S, default_grid(S))
        assert all(r.median_err <= 5e-3 for r in result.rows)
        assert result.rows[-1].median_err <= 5e-3
        harmonic = make_semigroup([3, 4, 6])
        h = convergence_sweep(harmonic, default_grid(harmonic)).rows[-1]
        assert abs(h.mean_ratio - Fraction(1, 4)) <= 5e-3
        assert abs(h.median_ratio - Fraction(1, 4)) <= 5e-3


def test_criterion_9_constructions():
    with criterion(9, "construction families with prescribed median arithmetic", 60.0):
        S = pythagorean_semigroup(4, 3, 5)
        assert S.gens == (7, 16, 25)
        med = asymptotic_median(S)
        assert med.is_rational and med.a == Fraction(11, 140)
        grid = default_grid(S)[-1:]
        row = convergence_sweep(S, grid).rows[-1]
        assert abs(row.median_ratio - Fraction(11, 140)) <= 5e-3
        S2 = sqrt_d_semigroup(2, 5)
        assert isinstance(S2, Semigroup) and S2.gens == (48, 49, 50)
        med2 = asymptotic_median(S2)
        assert med2 == QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        assert not med2.is_rational


def test_criterion_10_egyptian_suite():
    with criterion(10, "unit-fraction emptiness and the 4-term decomposition", 10.0):
        for target in (Fraction(8, 11), Fraction(8, 17), Fraction(9, 19), Fraction(14, 19)):
            assert three_unit_fractions(target) == []
        found = unit_fraction_decomposition(Fraction(8, 11), 4)
        assert found is not None and len(found) == 4
        paper_solution = (2, 5, 37, 4070)
        assert sum(Fraction(1, d) for d in paper_solution) == Fraction(8, 11)


def test_criterion_11_envelope_bounds():
    with criterion(11, "multiplicities under the linear envelope; gap non-growth", 120.0):
        for gens in [(3, 5, 7), (6, 9, 20)]:
            S = make_semigroup(gens)
            for k in (1, 2, 3):
                seq = scaled_sequence(S, k)
                ms = length_multiset(S, seq.element)
                for ell, mult in ms.items():
                    assert mult <= upper_envelope(seq, ell), (gens, k, ell)
            gaps = [envelope_report(S, k).max_step_gap for k in range(1, 6)]
            assert max(gaps) <= 2 * gaps[-1], (gens, gaps)


def test_criterion_12_multi_generator_exploration():
    with criterion(12, "inflections of 1680 in <4,5,6,7>; peak of 2520 off n/8", 120.0):
        quad = multi_generator_histogram(make_semigroup([4, 5, 6, 7]), 1680)
        assert 280 in quad.inflection_candidates
        assert 336 in quad.inflection_candidates
        quint = multi_generator_histogram(make_semigroup([5, 7, 8, 9, 11]), 2520)
        assert 315 not in quint.peak_lengths


def test_criterion_13_quasilinearity_probe():
    with criterion(13, "quasilinearity verdicts under default windows", 120.0):
        yes = probe_median_quasilinearity(make_semigroup([12, 15, 20]))
        assert yes.verdict == "quasilinear"
        no = probe_median_quasilinearity(make_semigroup([7, 16, 25]))
        assert no.verdict == "not_quasilinear"
        assert no.witness is not None
