"""Semigroup validation, membership, and trade constants."""

import math
import random

import pytest

from factorlengths.cli import _semigroup_payload
from factorlengths.constructions import find_sqrt_d_params, pythagorean_semigroup, sqrt_d_semigroup
from factorlengths.semigroup import (
    InvalidGenerators,
    Semigroup,
    contains,
    make_semigroup,
    parse_semigroup,
    trade_data,
)

from oracles import (
    brute_length_counter,
    brute_minimal_trade,
    primitive_triples,
    enumerate_factorizations,
    is_minimal,
    random_semigroup_3,
)


class TestValidation:
    def test_mcnugget_valid(self):
        S = make_semigroup([6, 9, 20])
        assert S.gens == (6, 9, 20) and S.k == 3

    def test_gcd_violation(self):
        with pytest.raises(InvalidGenerators, match="gcd"):
            make_semigroup([2, 4])

    def test_sorting(self):
        assert make_semigroup([20, 9, 6]).gens == (6, 9, 20)

    def test_too_few_generators(self):
        with pytest.raises(InvalidGenerators):
            make_semigroup([5])

    def test_duplicates_rejected(self):
        # repeated generators stay out of scope: strict inequality is assumed
        with pytest.raises(InvalidGenerators, match="duplicate"):
            make_semigroup([5, 5, 7])

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidGenerators):
            make_semigroup([0, 3])
        with pytest.raises(InvalidGenerators):
            make_semigroup([-2, 3])

    def test_parse(self):
        assert parse_semigroup("6,9,20").gens == (6, 9, 20)
        assert parse_semigroup(" 6, 9 ,20 ").gens == (6, 9, 20)
        with pytest.raises(InvalidGenerators):
            parse_semigroup("6;9")

    def test_delta(self):
        assert make_semigroup([6, 9, 20]).delta == 1
        assert make_semigroup([3, 5, 7]).delta == 2
        assert make_semigroup([7, 16, 25]).delta == 9

    def test_equal_and_hashed_by_value(self):
        S, T = Semigroup((9, 6, 20)), Semigroup((6, 9, 20))
        assert S == T and hash(S) == hash(T)
        assert {S: "mcnugget"}[T] == "mcnugget"
        assert Semigroup(gens=(20, 9, 6)) == S

    def test_fields_refuse_assignment(self):
        S = make_semigroup([6, 9, 20])
        with pytest.raises(AttributeError):
            S.gens = (3, 5, 7)
        trade = trade_data(S)
        with pytest.raises(AttributeError):
            trade.element = 0
        assert S.gens == (6, 9, 20) and trade.element == 126

    def test_is_minimal(self):
        assert is_minimal((6, 9, 20))
        assert is_minimal((3, 5, 7))
        assert not is_minimal((3, 5, 8))  # 8 = 3 + 5
        assert not is_minimal((2, 3, 4))  # 4 = 2 + 2
        assert is_minimal((4, 6, 9))  # 9 is odd, <4, 6> is even
        assert not is_minimal((4, 6, 9, 10))  # 10 = 4 + 6


class TestMembership:
    def test_examples(self):
        S = make_semigroup([6, 9, 20])
        assert contains(S, 132)
        assert contains(S, 0)
        assert not contains(S, 7)
        assert not contains(S, -1)
        assert not contains(S, 43)  # the Frobenius number
        assert all(contains(S, n) for n in range(44, 50))

    @pytest.mark.parametrize("gens", [(6, 9, 20), (3, 5, 7)])
    def test_agrees_with_enumeration(self, gens):
        S = make_semigroup(gens)
        for n in range(501):
            assert contains(S, n) == bool(enumerate_factorizations(S.gens, n)), n

    def test_agrees_with_brute_force_on_random_semigroups(self):
        rng = random.Random(20261018)
        for k in range(2, 6):
            for _ in range(10):
                while True:
                    gens = tuple(sorted(rng.sample(range(4, 50), k)))
                    if math.gcd(*gens) == 1:
                        break
                S = Semigroup(gens)
                for n in range(301):
                    assert contains(S, n) == bool(brute_length_counter(gens, n)), (gens, n)

    def test_huge_element(self):
        assert contains(make_semigroup([6, 9, 20]), 10**40) is True


class TestTradeData:
    def test_mcnugget(self):
        td = trade_data(make_semigroup([6, 9, 20]))
        assert (td.low, td.mid, td.high) == (11, 14, 3)
        assert td.element == 126 and td.delta == 1

    def test_three_five_seven(self):
        td = trade_data(make_semigroup([3, 5, 7]))
        assert (td.low, td.mid, td.high) == (1, 2, 1)
        assert td.element == 10 and td.delta == 2

    def test_seven_sixteen_twentyfive(self):
        td = trade_data(make_semigroup([7, 16, 25]))
        assert td.delta == 9 and td.element == 32
        assert (td.low, td.mid, td.high) == (1, 2, 1)

    def test_requires_three_generators(self):
        with pytest.raises(ValueError):
            trade_data(make_semigroup([2, 3]))

    def test_invariants_on_random_semigroups(self):
        rng = random.Random(20260810)
        for _ in range(100):
            gens = random_semigroup_3(rng)
            S = Semigroup(gens)
            td = trade_data(S)
            n1, n2, n3 = gens
            assert td.low + td.high == td.mid
            assert td.low * n1 + td.high * n3 == td.mid * n2 == td.element
            assert td.delta * td.element == n2 * (n3 - n1)
            assert math.gcd(td.low, math.gcd(td.mid, td.high)) == 1

    def test_matches_exhaustive_minimal_search(self):
        rng = random.Random(17)
        for _ in range(100):
            gens = random_semigroup_3(rng, hi=80)
            td = trade_data(Semigroup(gens))
            assert (td.low, td.mid, td.high) == brute_minimal_trade(gens)


class TestSerialization:
    def test_three_generator_json(self):
        payload = _semigroup_payload(make_semigroup([6, 9, 20]))
        assert payload == {"gens": [6, 9, 20], "delta": 1, "trade_element": 126}

    def test_construction_payloads_carry_trade_constants(self):
        """construct prints the payload of these two families only, and each
        gives three generators, so every payload has the trade constants."""
        semigroups = [pythagorean_semigroup(a, b, c) for a, b, c in primitive_triples(100) if b >= 3]
        semigroups += [sqrt_d_semigroup(d, t) for d in (2, 3, 5, 7) for t in find_sqrt_d_params(d, 40)]
        assert len(semigroups) > 20
        for S in semigroups:
            assert S.k == 3
            assert _semigroup_payload(S).keys() == {"gens", "delta", "trade_element"}

    def test_round_trip(self):
        S = make_semigroup([7, 16, 25])
        assert make_semigroup(_semigroup_payload(S)["gens"]) == S
