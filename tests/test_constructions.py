"""Construction families and unit-fraction solvers."""

import math
import random
from fractions import Fraction

import pytest

from factorlengths.asymptotics import asymptotic_mean, asymptotic_median, fulcrum
from factorlengths.constructions import (
    ConstructionRejection,
    find_sqrt_d_params,
    pythagorean_semigroup,
    sqrt_d_semigroup,
    three_unit_fractions,
    unit_fraction_decomposition,
)
from factorlengths.exactnum import QuadNumber, quad_sqrt
from factorlengths.semigroup import Semigroup, make_semigroup

from oracles import (
    all_unit_fraction_decompositions,
    brute_three_unit_fractions,
    is_minimal,
    primitive_triples,
)

HALF = Fraction(1, 2)


def mean_constant_inverse(target: Fraction) -> list[Semigroup]:
    """The semigroups whose asymptotic mean constant (1/n1 + 1/n2 + 1/n3)/3
    is target: the gcd-1 triples of three_unit_fractions(3*target)."""
    return [make_semigroup(t) for t in three_unit_fractions(3 * target) if math.gcd(*t) == 1]


class TestPythagorean:
    def test_smallest(self):
        assert pythagorean_semigroup(4, 3, 5).gens == (7, 16, 25)

    def test_larger(self):
        assert pythagorean_semigroup(12, 5, 13).gens == (119, 144, 169)

    def test_leg_order_enforced(self):
        with pytest.raises(ValueError):
            pythagorean_semigroup(3, 4, 5)

    def test_not_a_triple(self):
        with pytest.raises(ValueError):
            pythagorean_semigroup(5, 4, 7)

    def test_not_primitive(self):
        with pytest.raises(ValueError):
            pythagorean_semigroup(8, 6, 10)

    def test_family_properties(self):
        """Rational median constant, fulcrum below 1/2, minimally generated
        arithmetic progression with step coprime to the first term."""
        for a, b, c in primitive_triples(120):
            S = pythagorean_semigroup(a, b, c)
            med = asymptotic_median(S)
            assert med.is_rational
            assert fulcrum(S) < HALF
            n1, n2, n3 = S.gens
            assert n2 - n1 == n3 - n2
            assert math.gcd(n1, n2 - n1) == 1
            assert is_minimal(S.gens)

    def test_generator_yields_primitive_ordered_triples(self):
        triples = list(primitive_triples(60))
        assert (4, 3, 5) in triples and (12, 5, 13) in triples
        for a, b, c in triples:
            assert a > b >= 3 and a * a + b * b == c * c
            assert math.gcd(a, b) == 1


class TestSqrtD:
    def test_golden(self):
        S = sqrt_d_semigroup(2, 5)
        assert isinstance(S, Semigroup) and S.gens == (48, 49, 50)

    def test_rejection_small_floor(self):
        result = sqrt_d_semigroup(2, 2)
        assert isinstance(result, ConstructionRejection)
        assert result.reason == "too_small" and result.floor_value == 2

    def test_rejection_not_prime(self):
        result = sqrt_d_semigroup(5, 2)  # floor(2*sqrt(5)) = 4
        assert isinstance(result, ConstructionRejection)
        assert result.reason == "not_prime" and result.floor_value == 4

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            sqrt_d_semigroup(4, 3)

    def test_param_scan(self):
        assert 5 in find_sqrt_d_params(2, 10)
        assert find_sqrt_d_params(3, 1) == []  # floor(sqrt(3)) = 1 is not prime
        assert 2 not in find_sqrt_d_params(5, 2)

    @pytest.mark.parametrize("t_max", [0, -3])
    def test_param_scan_needs_positive_bound(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            find_sqrt_d_params(2, t_max)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 10])
    def test_family_properties(self, d):
        """Irrational median in the right field, radical part l/(p*t*d) * sqrt(d),
        p never divides l, l < 2p+1, fulcrum below 1/2, minimal arithmetic
        progression generators."""
        accepted = find_sqrt_d_params(d, 60)
        assert accepted, f"no parameters accepted for d={d} up to 60"
        for t in accepted:
            S = sqrt_d_semigroup(d, t)
            n1, n2, n3 = S.gens
            p = math.isqrt(n2)
            offset = n3 - n2
            assert p * p == n2 and t * t * d == n3
            assert offset % p != 0  # p never divides l
            assert offset < 2 * p + 1
            med = asymptotic_median(S)
            assert not med.is_rational and med.m == d
            radical = quad_sqrt(Fraction((n2 - n1) * (n3 - n1), 2 * n2 * n3))
            assert radical == QuadNumber(Fraction(0), Fraction(offset, p * t * d), d)
            assert fulcrum(S) < HALF
            assert n2 - n1 == n3 - n2 and math.gcd(n1, offset) == 1
            assert is_minimal(S.gens)


class TestThreeUnitFractions:
    @pytest.mark.parametrize("target", ["8/11", "8/17", "9/19", "14/19"])
    def test_known_empties(self, target):
        assert three_unit_fractions(Fraction(target)) == []

    def test_three_quarters(self):
        sols = three_unit_fractions(Fraction(3, 4))
        assert (2, 5, 20) in sols

    def test_all_solutions_sum_exactly(self):
        rng = random.Random(8)
        for _ in range(40):
            target = Fraction(rng.randrange(1, 30), rng.randrange(5, 60))
            for d1, d2, d3 in three_unit_fractions(target):
                assert Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3) == target
                assert d1 < d2 < d3

    def test_completeness_against_blind_scan(self):
        """Every solution, in lexicographic order."""
        for num, den in [(3, 4), (4, 5), (8, 11), (2, 3), (5, 6), (7, 12), (1, 2)]:
            target = Fraction(num, den)
            assert three_unit_fractions(target) == sorted(brute_three_unit_fractions(target))

    def test_positive_target_required(self):
        with pytest.raises(ValueError):
            three_unit_fractions(Fraction(0))


class TestDecomposition:
    def test_four_term_golden(self):
        assert unit_fraction_decomposition(Fraction(8, 11), 4) == (2, 5, 37, 4070)

    def test_single_term(self):
        assert unit_fraction_decomposition(Fraction(1, 2), 1) == (2,)

    def test_three_term(self):
        sol = unit_fraction_decomposition(Fraction(4, 5), 3)
        assert sol is not None and len(sol) == 3
        assert sum(Fraction(1, d) for d in sol) == Fraction(4, 5)

    def test_absent_within_bound(self):
        assert unit_fraction_decomposition(Fraction(8, 11), 3) is None

    def test_four_term_solution_count(self):
        """Under the distinct-denominator convention, 8/11 has exactly
        sixteen 4-term decompositions (and the returned one is among them)."""
        sols = all_unit_fraction_decompositions(Fraction(8, 11), 4)
        assert len(sols) == 16
        assert unit_fraction_decomposition(Fraction(8, 11), 4) in sols

    def test_first_of_fewest_terms(self):
        """The lexicographically first decomposition of the fewest terms."""
        rng = random.Random(18)
        targets = [Fraction(1), Fraction(3, 2)]
        for _ in range(60):
            den = rng.randrange(2, 30)
            targets.append(Fraction(rng.randrange(1, 2 * den), den))
        for target in targets:
            max_terms = rng.randint(math.ceil(target), 4)
            expected = next(
                (sols[0] for terms in range(1, max_terms + 1)
                 if (sols := all_unit_fraction_decompositions(target, terms))),
                None,
            )
            assert unit_fraction_decomposition(target, max_terms) == expected, (target, max_terms)

    def test_shortest_is_returned(self):
        assert unit_fraction_decomposition(Fraction(3, 4), 4) == (2, 4)

    def test_distinct_denominators(self):
        rng = random.Random(21)
        for _ in range(25):
            target = Fraction(rng.randrange(1, 20), rng.randrange(7, 40))
            sol = unit_fraction_decomposition(target, 4)
            if sol is None:
                continue
            assert len(set(sol)) == len(sol)
            assert sum(Fraction(1, d) for d in sol) == target

    def test_domain(self):
        with pytest.raises(ValueError):
            unit_fraction_decomposition(Fraction(5), 4)

    def test_term_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_terms must be >= 1"):
            unit_fraction_decomposition(Fraction(8, 11), 0)


class TestMeanConstantInverse:
    def test_forbidden_value(self):
        assert mean_constant_inverse(Fraction(8, 33)) == []

    def test_supremum_attained(self):
        """1/3 + 1/4 + 1/5 = 47/60, so <3,4,5> attains the mean constant 47/180."""
        semigroups = mean_constant_inverse(Fraction(47, 180))
        assert any(S.gens == (3, 4, 5) for S in semigroups)
        for S in semigroups:
            assert asymptotic_mean(S) == Fraction(47, 180)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            mean_constant_inverse(Fraction(0))

    def test_realizable_value(self):
        semigroups = mean_constant_inverse(Fraction(71, 315))
        assert any(S.gens == (3, 5, 7) for S in semigroups)
        for S in semigroups:
            assert asymptotic_mean(S) == Fraction(71, 315)

    def test_all_results_hit_target(self):
        rng = random.Random(13)
        for _ in range(15):
            target = Fraction(rng.randrange(1, 46), 180)
            for S in mean_constant_inverse(target):
                assert asymptotic_mean(S) == target
