"""Closed-form constants, envelope bounds, and the triangular limit model."""

import random
from fractions import Fraction
from typing import NamedTuple

import pytest
import sympy

from factorlengths import asymptotics
from factorlengths.asymptotics import (
    EnvelopeReport,
    asymptotic_constants,
    asymptotic_mean,
    asymptotic_median,
    envelope_report,
    fulcrum,
    model_rows,
    scaled_sequence,
    triangular_model,
    upper_envelope,
)
from factorlengths.cli import main
from factorlengths.exactnum import QuadNumber
from factorlengths.factorization import length_multiset
from factorlengths.semigroup import make_semigroup

from oracles import compare_quadratics, primitive_triples, random_semigroup_3

HALF = Fraction(1, 2)


def assert_equals_sympy(expected, q: QuadNumber) -> None:
    """q is exactly the sympy expression expected."""
    value = sympy.Rational(q.a) + sympy.Rational(q.b) * sympy.sqrt(q.m)
    assert sympy.expand(expected - value) == 0, (expected, q)


class TestFulcrum:
    def test_values(self):
        assert fulcrum(make_semigroup([3, 5, 7])) == Fraction(3, 10)
        assert fulcrum(make_semigroup([3, 4, 6])) == HALF
        assert fulcrum(make_semigroup([6, 9, 20])) == Fraction(11, 21)

    def test_requires_three_generators(self):
        with pytest.raises(ValueError):
            fulcrum(make_semigroup([4, 5, 6, 7]))

    def test_open_interval(self):
        rng = random.Random(5)
        for _ in range(50):
            F = fulcrum(make_semigroup(random_semigroup_3(rng)))
            assert 0 < F < 1


class TestMeanConstant:
    def test_supremum_family(self):
        assert asymptotic_mean(make_semigroup([3, 4, 5])) == Fraction(47, 180)

    def test_harmonic(self):
        assert asymptotic_mean(make_semigroup([3, 4, 6])) == Fraction(1, 4)

    def test_three_five_seven(self):
        assert asymptotic_mean(make_semigroup([3, 5, 7])) == Fraction(71, 315)


class TestMedianConstant:
    def test_rational_case(self):
        med = asymptotic_median(make_semigroup([7, 16, 25]))
        assert med.is_rational and med.a == Fraction(11, 140)

    def test_harmonic_case(self):
        med = asymptotic_median(make_semigroup([3, 4, 6]))
        assert med.is_rational and med.a == Fraction(1, 4)

    def test_irrational_case(self):
        med = asymptotic_median(make_semigroup([48, 49, 50]))
        assert med == QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        assert not med.is_rational

    def test_branches_agree_at_half(self):
        S = make_semigroup([3, 4, 6])
        n1, n3 = 3, 6
        F = fulcrum(S)
        assert F == HALF
        F = sympy.Rational(F)
        low = 1 - sympy.sqrt((1 - F) / 2)
        high = sympy.sqrt(F / 2)
        med = asymptotic_median(S)
        assert_equals_sympy(sympy.Rational(1, n1) * low + sympy.Rational(1, n3) * (1 - low), med)
        assert_equals_sympy(sympy.Rational(1, n1) * high + sympy.Rational(1, n3) * (1 - high), med)

    def test_convexity_bounds_exact(self):
        """The median constant lies between the two extreme convex mixes of
        1/n1 and 1/n3 with sqrt(1/2) weights; checked by exact sign tests.
        With h = sqrt(1/2) = sqrt(2)/2 the bounds are 1/n1 + (1/n3 - 1/n1)*h
        and 1/n3 + (1/n1 - 1/n3)*h, each checked against sympy."""
        h = sympy.sqrt(sympy.Rational(1, 2))
        rng = random.Random(99)
        samples = [(3, 5, 7), (6, 9, 20), (7, 16, 25), (48, 49, 50), (3, 4, 6)]
        samples += [random_semigroup_3(rng) for _ in range(30)]
        for gens in samples:
            S = make_semigroup(gens)
            n1, n3 = S.gens[0], S.gens[2]
            inv1, inv3 = Fraction(1, n1), Fraction(1, n3)
            lo = QuadNumber(inv1, (inv3 - inv1) / 2, 2)
            hi = QuadNumber(inv3, (inv1 - inv3) / 2, 2)
            assert_equals_sympy(sympy.Rational(inv1) * (1 - h) + sympy.Rational(inv3) * h, lo)
            assert_equals_sympy(sympy.Rational(inv1) * h + sympy.Rational(inv3) * (1 - h), hi)
            med = asymptotic_median(S)
            assert compare_quadratics(lo, med) <= 0 <= compare_quadratics(hi, med), gens

    def test_constants_bundle(self):
        bundle = asymptotic_constants(make_semigroup([3, 4, 6]))
        assert bundle.harmonic_case and bundle.median_constant.is_rational
        assert bundle.mean_constant == bundle.median_constant.a == Fraction(1, 4)
        bundle = asymptotic_constants(make_semigroup([48, 49, 50]))
        assert not bundle.harmonic_case and not bundle.median_constant.is_rational


class TestScaledSequence:
    def test_golden(self):
        seq = scaled_sequence(make_semigroup([3, 5, 7]), 1)
        assert seq.scale == 2100
        assert (seq.min_len, seq.max_len, seq.mode_len, seq.num_trades) == (300, 700, 420, 210)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scaled_sequence(make_semigroup([3, 5, 7]), 0)

    @pytest.mark.parametrize("gens,k", [((3, 5, 7), 1), ((3, 5, 7), 2), ((6, 9, 20), 1)])
    def test_cross_check_against_counting(self, gens, k):
        S = make_semigroup(gens)
        seq = scaled_sequence(S, k)
        ms = length_multiset(S, seq.element)
        assert (ms.min_length, ms.max_length) == (seq.min_len, seq.max_len)

    def test_ordering(self):
        rng = random.Random(3)
        for _ in range(20):
            seq = scaled_sequence(make_semigroup(random_semigroup_3(rng, hi=80)), 2)
            assert seq.min_len <= seq.mode_len <= seq.max_len


class TestUpperEnvelope:
    def test_anchor_points(self):
        seq = scaled_sequence(make_semigroup([3, 5, 7]), 1)
        assert upper_envelope(seq, seq.min_len) == 1
        assert upper_envelope(seq, seq.mode_len) == seq.num_trades + 1
        assert upper_envelope(seq, seq.max_len) == 1

    def test_out_of_range(self):
        seq = scaled_sequence(make_semigroup([3, 5, 7]), 1)
        with pytest.raises(ValueError):
            upper_envelope(seq, seq.min_len - 1)

    @pytest.mark.parametrize("gens", [(3, 5, 7), (6, 9, 20)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_multiplicities_below_envelope(self, gens, k):
        report = envelope_report(make_semigroup(gens), k)
        assert report.pointwise_ok

    @pytest.mark.parametrize("gens", [(3, 5, 7), (6, 9, 20)])
    def test_envelope_gap_does_not_grow(self, gens):
        S = make_semigroup(gens)
        gaps = [envelope_report(S, k).max_step_gap for k in range(1, 6)]
        assert max(gaps) <= 2 * gaps[-1]


def _density_from_fraction_quotients(F: Fraction, x: Fraction) -> Fraction:
    """Triangular density with peak (F, 2) on [0, 1]."""
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    if x == F:
        return Fraction(2)
    if x < F:
        return 2 * x / F
    return 2 * (1 - x) / (1 - F)


class TestTriangularModel:
    def test_symmetric(self):
        model = triangular_model(HALF)
        assert model.mean == HALF
        assert model.median.is_rational and model.median.a == HALF

    def test_skewed(self):
        model = triangular_model(Fraction(3, 10))
        assert model.mean == Fraction(13, 30)
        assert_equals_sympy(1 - sympy.sqrt(sympy.Rational(7, 20)), model.median)

    def test_extreme_peaks(self):
        half = sympy.Rational(1, 2)
        assert_equals_sympy(1 - sympy.sqrt(half), triangular_model(Fraction(0)).median)
        assert_equals_sympy(sympy.sqrt(half), triangular_model(Fraction(1)).median)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            triangular_model(Fraction(11, 10))

    def test_density(self):
        F = Fraction(3, 10)
        assert _density_from_fraction_quotients(F, Fraction(3, 10)) == 2
        assert _density_from_fraction_quotients(F, Fraction(0)) == 0
        assert _density_from_fraction_quotients(F, Fraction(1)) == 0
        assert _density_from_fraction_quotients(F, Fraction(3, 20)) == 1
        with pytest.raises(ValueError):
            _density_from_fraction_quotients(F, Fraction(-1, 10))

    def test_density_integrates_to_one(self):
        # exact triangle areas: (1/2)*F*2 + (1/2)*(1-F)*2 = 1
        for F in (Fraction(0), Fraction(3, 10), HALF, Fraction(9, 10)):
            peak = _density_from_fraction_quotients(F, F)
            assert F * peak / 2 + (1 - F) * peak / 2 == 1


class TestNormalizedHistogram:
    """The paper's checks on the exact steps whose rounded values `model`
    prints."""

    def test_unit_mass_exactly(self):
        for gens, k in [((3, 5, 7), 1), ((3, 5, 7), 2), ((6, 9, 20), 1)]:
            S = make_semigroup(gens)
            steps = _steps_from_fraction_sums(S, k)
            assert sum(s.density for s in steps) * _step_width(S, k) == 1

    def test_peak_step_at_fulcrum(self):
        S = make_semigroup([3, 5, 7])
        for k in (1, 2, 3):
            peak_steps = [s for s in _steps_from_fraction_sums(S, k) if s.at_peak]
            assert len(peak_steps) == 1
            assert peak_steps[0].position == fulcrum(S)
            assert peak_steps[0].midpoint == fulcrum(S)

    def test_sup_deviation_shrinks(self):
        S = make_semigroup([3, 5, 7])
        F = fulcrum(S)
        dev1, dev2 = (
            max(abs(s.density - _density_from_fraction_quotients(F, s.midpoint))
                for s in _steps_from_fraction_sums(S, k))
            for k in (1, 2)
        )
        assert dev2 < dev1

    def test_peak_density_near_two(self):
        S = make_semigroup([3, 5, 7])
        tallest = max(_steps_from_fraction_sums(S, 2), key=lambda s: s.density)
        assert abs(tallest.position - fulcrum(S)) <= _step_width(S, 2)


def _small_random_semigroups(count: int, max_lengths: int) -> list[tuple[int, int, int]]:
    """Seeded generators below 30 whose histogram at k = 1 has at most
    max_lengths lengths, so the Fraction references stay fast."""
    rng = random.Random(14)
    out = []
    while len(out) < count:
        S = make_semigroup(random_semigroup_3(rng, hi=30))
        seq = scaled_sequence(S, 1)
        if (seq.max_len - seq.min_len) // seq.trade.delta < max_lengths:
            out.append(S.gens)
    return out


class Step(NamedTuple):
    """One histogram step after rescaling to [0, 1].

    position is the image of the length itself; midpoint is the center of
    the step's interval (steps left of the peak extend right of their
    length, steps right of it extend left, the peak step is the point F).
    """

    length: int
    position: Fraction
    midpoint: Fraction
    density: Fraction
    at_peak: bool


def _step_width(S, k: int) -> Fraction:
    seq = scaled_sequence(S, k)
    return Fraction(seq.trade.delta, seq.max_len - seq.min_len)


def _steps_from_fraction_sums(S, k: int) -> tuple[Step, ...]:
    """The histogram of k*scale on [0, 1] with unit mass, from Fraction sums
    and products: the exact values that model_rows rounds."""
    seq = scaled_sequence(S, k)
    ms = length_multiset(S, seq.element)
    delta = seq.trade.delta
    span = seq.max_len - seq.min_len
    scale_down = Fraction(span, delta * ms.total)
    half_step = Fraction(delta, 2)
    steps = []
    for ell, mult in ms.items():
        if ell < seq.mode_len:
            mid = ell + half_step
        elif ell > seq.mode_len:
            mid = ell - half_step
        else:
            mid = Fraction(ell)
        steps.append(
            Step(
                length=ell,
                position=Fraction(ell - seq.min_len, span),
                midpoint=Fraction(mid - seq.min_len, span),
                density=mult * scale_down,
                at_peak=ell == seq.mode_len,
            )
        )
    return tuple(steps)


def _envelope_report_two_evaluations(S, k: int) -> EnvelopeReport:
    """envelope_report evaluating the envelope at both ends of every step."""
    seq = scaled_sequence(S, k)
    ms = length_multiset(S, seq.element)
    delta = seq.trade.delta
    ok = True
    max_point = Fraction(0)
    max_step = Fraction(0)
    for ell, mult in ms.items():
        bound = upper_envelope(seq, ell)
        gap = bound - mult
        if gap < 0:
            ok = False
        if gap > max_point:
            max_point = gap
        if ell < seq.mode_len:
            far = upper_envelope(seq, ell + delta)
        elif ell > seq.mode_len:
            far = upper_envelope(seq, ell - delta)
        else:
            far = bound
        step_gap = max(gap, far - mult)
        if step_gap > max_step:
            max_step = step_gap
    return EnvelopeReport(
        k=k, pointwise_ok=ok, max_pointwise_gap=max_point, max_step_gap=max_step
    )


class TestEnvelopeReportMatchesTwoEvaluations:
    """envelope_report adds a fixed rise per side to each step's near-end
    gap; evaluating the envelope at both ends of every step is the
    reference."""

    @pytest.mark.parametrize("gens,k", [
        ((3, 5, 7), 1), ((3, 5, 7), 2), ((5, 8, 13), 1), ((5, 8, 13), 2), ((6, 9, 20), 1),
    ])
    def test_named_semigroups(self, gens, k):
        S = make_semigroup(gens)
        assert envelope_report(S, k) == _envelope_report_two_evaluations(S, k)

    @pytest.mark.parametrize("gens", _small_random_semigroups(20, 5_000))
    def test_random_semigroups(self, gens):
        S = make_semigroup(gens)
        assert envelope_report(S, 1) == _envelope_report_two_evaluations(S, 1)

    def test_one_evaluation_per_length(self, monkeypatch):
        calls = []

        def counted(seq, x):
            calls.append(x)
            return upper_envelope(seq, x)

        monkeypatch.setattr(asymptotics, "upper_envelope", counted)
        S = make_semigroup([5, 8, 13])
        envelope_report(S, 2)
        ms = length_multiset(S, scaled_sequence(S, 2).element)
        assert len(calls) == len(ms.entries) + 2


def _check_model_rows(capsys, S, k: int) -> list[str]:
    """model_rows against the exact steps and density rounded once, and the
    `model` command's CSV lines against their .12g strings; the lines."""
    F = fulcrum(S)
    exact = [(s.midpoint, s.density, _density_from_fraction_quotients(F, s.midpoint))
             for s in _steps_from_fraction_sums(S, k)]
    assert list(model_rows(S, k)) == [tuple(map(float, row)) for row in exact]
    assert main(["model", "-s", ",".join(map(str, S.gens)), "-k", str(k)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,empirical,model"
    assert lines[1:] == [",".join(format(float(v), ".12g") for v in row) for row in exact]
    return lines[1:]


class TestIntegerLoopsMatchFractions:
    """model_rows rounds ratios of integers once, with no Fraction per
    length; the exact steps and density, rounded, are the reference, down
    to the bytes the `model` command prints."""

    @pytest.mark.parametrize("gens", [(3, 5, 7), (5, 8, 13), (6, 9, 20), (7, 16, 25), (12, 15, 20)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_named_semigroups(self, capsys, gens, k):
        _check_model_rows(capsys, make_semigroup(gens), k)

    @pytest.mark.parametrize("gens", _small_random_semigroups(20, 5_000))
    def test_random_semigroups(self, capsys, gens):
        _check_model_rows(capsys, make_semigroup(gens), 1)

    def test_density(self, capsys):
        """The model column peaks at exactly 2 on the one row at F: <3,5,7>
        (F = 3/10) for k <= 3, and <12,15,20> (F = 1/2)."""
        cases = [((3, 5, 7), k) for k in (1, 2, 3)] + [((12, 15, 20), 1)]
        for gens, k in cases:
            S = make_semigroup(gens)
            lines = _check_model_rows(capsys, S, k)
            peaks = [line for line in lines if line.endswith(",2")]
            assert [line.split(",")[0] for line in peaks] == [format(float(fulcrum(S)), ".12g")]


class TestMedianRadicandForms:
    """The median radicand appears in two algebraically different forms that
    differ by a rational square; both must give the same constant."""

    def alternative_median(self, S):
        n1, n2, n3 = S.gens
        root = sympy.sqrt(sympy.Rational((n2 - n1) * (n3 - n1), 2 * n2 * n3))
        s = sympy.Rational(n3, n3 - n1) * root
        return sympy.Rational(1, n1) * (1 - s) + sympy.Rational(1, n3) * s

    def test_forms_agree_on_construction_families(self):
        from factorlengths.constructions import (
            find_sqrt_d_params,
            pythagorean_semigroup,
            sqrt_d_semigroup,
        )

        semigroups = [pythagorean_semigroup(a, b, c) for a, b, c in primitive_triples(40)]
        for d in (2, 3, 5):
            semigroups += [sqrt_d_semigroup(d, t) for t in find_sqrt_d_params(d, 30)]
        assert len(semigroups) > 10
        for S in semigroups:
            assert fulcrum(S) <= HALF
            assert_equals_sympy(self.alternative_median(S), asymptotic_median(S))

    def test_forms_agree_on_random_low_fulcrum_semigroups(self):
        rng = random.Random(44)
        for _ in range(40):
            S = make_semigroup(random_semigroup_3(rng))
            if fulcrum(S) <= HALF:
                assert_equals_sympy(self.alternative_median(S), asymptotic_median(S))

    def test_high_fulcrum_form(self):
        """For F > 1/2 the weight on 1/n1 is sqrt(F/2), with F written out
        from the generators."""
        rng = random.Random(45)
        samples = [(6, 9, 20)]
        while len(samples) < 30:
            gens = random_semigroup_3(rng)
            n1, n2, n3 = gens
            if Fraction(n1 * (n3 - n2), n2 * (n3 - n1)) > HALF:
                samples.append(gens)
        for n1, n2, n3 in samples:
            s = sympy.sqrt(sympy.Rational(n1 * (n3 - n2), n2 * (n3 - n1)) / 2)
            expected = sympy.Rational(1, n1) * s + sympy.Rational(1, n3) * (1 - s)
            assert_equals_sympy(expected, asymptotic_median(make_semigroup([n1, n2, n3])))
