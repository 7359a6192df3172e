"""Closed-form constants, envelope bounds, and the triangular limit model."""

import random
from fractions import Fraction

import pytest

from factorlengths.asymptotics import (
    NormalizedStep,
    asymptotic_constants,
    asymptotic_mean,
    asymptotic_median,
    envelope_report,
    fulcrum,
    normalized_histogram,
    scaled_sequence,
    triangular_model,
    upper_envelope,
)
from factorlengths.exactnum import QuadNumber, quad_sqrt
from factorlengths.factorization import length_multiset
from factorlengths.semigroup import make_semigroup

from oracles import compare_quadratics, random_semigroup_3

HALF = Fraction(1, 2)


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
        low_branch = Fraction(1, n1) * (1 - quad_sqrt((1 - F) / 2)) + Fraction(1, n3) * quad_sqrt(
            (1 - F) / 2
        )
        high_branch = Fraction(1, n1) * quad_sqrt(F / 2) + Fraction(1, n3) * (
            1 - quad_sqrt(F / 2)
        )
        assert low_branch == high_branch == asymptotic_median(S)

    def test_convexity_bounds_exact(self):
        """The median constant lies between the two extreme convex mixes of
        1/n1 and 1/n3 with sqrt(1/2) weights; checked by exact sign tests."""
        h = quad_sqrt(HALF)
        rng = random.Random(99)
        samples = [(3, 5, 7), (6, 9, 20), (7, 16, 25), (48, 49, 50), (3, 4, 6)]
        samples += [random_semigroup_3(rng) for _ in range(30)]
        for gens in samples:
            S = make_semigroup(gens)
            n1, n3 = S.gens[0], S.gens[2]
            lo = Fraction(1, n1) * (1 - h) + Fraction(1, n3) * h
            hi = Fraction(1, n1) * h + Fraction(1, n3) * (1 - h)
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


class TestTriangularModel:
    def test_symmetric(self):
        model = triangular_model(HALF)
        assert model.mean == HALF
        assert model.median.is_rational and model.median.a == HALF

    def test_skewed(self):
        model = triangular_model(Fraction(3, 10))
        assert model.mean == Fraction(13, 30)
        assert model.median == 1 - quad_sqrt(Fraction(7, 20))

    def test_extreme_peaks(self):
        assert triangular_model(Fraction(0)).median == 1 - quad_sqrt(HALF)
        assert triangular_model(Fraction(1)).median == quad_sqrt(HALF)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            triangular_model(Fraction(11, 10))

    def test_density(self):
        model = triangular_model(Fraction(3, 10))
        assert model.density(Fraction(3, 10)) == 2
        assert model.density(Fraction(0)) == 0
        assert model.density(Fraction(1)) == 0
        assert model.density(Fraction(3, 20)) == 1
        with pytest.raises(ValueError):
            model.density(Fraction(-1, 10))

    def test_density_integrates_to_one(self):
        # exact triangle areas: (1/2)*F*2 + (1/2)*(1-F)*2 = 1
        for F in (Fraction(0), Fraction(3, 10), HALF, Fraction(9, 10)):
            model = triangular_model(F)
            assert F * model.density(F) / 2 + (1 - F) * model.density(F) / 2 == 1


class TestNormalizedHistogram:
    def test_unit_mass_exactly(self):
        for gens, k in [((3, 5, 7), 1), ((3, 5, 7), 2), ((6, 9, 20), 1)]:
            hist = normalized_histogram(make_semigroup(gens), k)
            assert hist.total_mass() == 1

    def test_peak_step_at_fulcrum(self):
        for k in (1, 2, 3):
            hist = normalized_histogram(make_semigroup([3, 5, 7]), k)
            peak_steps = [s for s in hist.steps if s.at_peak]
            assert len(peak_steps) == 1
            assert peak_steps[0].position == hist.fulcrum
            assert peak_steps[0].midpoint == hist.fulcrum

    def test_sup_deviation_shrinks(self):
        S = make_semigroup([3, 5, 7])
        model = triangular_model(fulcrum(S))
        dev1 = normalized_histogram(S, 1).sup_deviation(model)
        dev2 = normalized_histogram(S, 2).sup_deviation(model)
        assert dev2 < dev1

    def test_peak_density_near_two(self):
        hist = normalized_histogram(make_semigroup([3, 5, 7]), 2)
        tallest = max(hist.steps, key=lambda s: s.density)
        assert abs(tallest.position - hist.fulcrum) <= hist.step_width


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


def _steps_from_fraction_sums(S, k: int) -> tuple[NormalizedStep, ...]:
    """normalized_histogram's steps from Fraction sums and products."""
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
            NormalizedStep(
                length=ell,
                position=Fraction(ell - seq.min_len, span),
                midpoint=Fraction(mid - seq.min_len, span),
                density=mult * scale_down,
                at_peak=ell == seq.mode_len,
            )
        )
    return tuple(steps)


def _density_from_fraction_quotients(F: Fraction, x: Fraction) -> Fraction:
    """Triangular density with peak (F, 2) on [0, 1]."""
    if x == F:
        return Fraction(2)
    if x < F:
        return 2 * x / F
    return 2 * (1 - x) / (1 - F)


class TestIntegerLoopsMatchFractions:
    """normalized_histogram and TriangularModel.density build each Fraction
    from integer terms; the Fraction arithmetic they replaced is the
    reference."""

    @pytest.mark.parametrize("gens", [(3, 5, 7), (5, 8, 13), (6, 9, 20), (7, 16, 25), (12, 15, 20)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_named_semigroups(self, gens, k):
        S = make_semigroup(gens)
        assert normalized_histogram(S, k).steps == _steps_from_fraction_sums(S, k)

    @pytest.mark.parametrize("gens", _small_random_semigroups(20, 5_000))
    def test_random_semigroups(self, gens):
        S = make_semigroup(gens)
        assert normalized_histogram(S, 1).steps == _steps_from_fraction_sums(S, 1)

    def test_density(self):
        rng = random.Random(14)
        peaks = [Fraction(0), HALF, Fraction(1)]
        peaks += [Fraction(rng.randint(1, 99), 100) for _ in range(20)]
        for F in peaks:
            model = triangular_model(F)
            xs = [F, Fraction(0), Fraction(1)]
            xs += [Fraction(rng.randint(0, q), q) for q in rng.choices(range(1, 500), k=40)]
            for x in xs:
                assert model.density(x) == _density_from_fraction_quotients(F, x), (F, x)
            for x in (Fraction(-1, 7), Fraction(8, 7)):
                with pytest.raises(ValueError, match="outside"):
                    model.density(x)


class TestMedianRadicandForms:
    """The median radicand appears in two algebraically different forms that
    differ by a rational square; both must give the same constant."""

    def alternative_median(self, S):
        n1, n2, n3 = S.gens
        root = quad_sqrt(Fraction((n2 - n1) * (n3 - n1), 2 * n2 * n3))
        s = Fraction(n3, n3 - n1) * root
        return Fraction(1, n1) * (1 - s) + Fraction(1, n3) * s

    def test_forms_agree_on_construction_families(self):
        from factorlengths.constructions import (
            find_sqrt_d_params,
            primitive_triples,
            pythagorean_semigroup,
            sqrt_d_semigroup,
        )

        semigroups = [pythagorean_semigroup(a, b, c) for a, b, c in primitive_triples(40)]
        for d in (2, 3, 5):
            semigroups += [sqrt_d_semigroup(d, t) for t in find_sqrt_d_params(d, 30)]
        assert len(semigroups) > 10
        for S in semigroups:
            assert fulcrum(S) <= HALF
            assert asymptotic_median(S) == self.alternative_median(S), S.gens

    def test_forms_agree_on_random_low_fulcrum_semigroups(self):
        rng = random.Random(44)
        for _ in range(40):
            S = make_semigroup(random_semigroup_3(rng))
            if fulcrum(S) <= HALF:
                assert asymptotic_median(S) == self.alternative_median(S), S.gens

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
            s = quad_sqrt(Fraction(n1 * (n3 - n2), n2 * (n3 - n1)) / 2)
            expected = Fraction(1, n1) * s + Fraction(1, n3) * (1 - s)
            assert asymptotic_median(make_semigroup([n1, n2, n3])) == expected, (n1, n2, n3)
