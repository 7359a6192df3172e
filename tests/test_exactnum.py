"""Exact arithmetic substrate: rationals, quadratic numbers, primality."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from factorlengths.exactnum import (
    QuadNumber,
    compare_quadratics,
    factorize,
    is_prime,
    isqrt,
    parse_rational,
    quad_sqrt,
    squarefree_decompose,
)

from oracles import brute_is_prime

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


class TestRationalPlumbing:
    def test_unit_fraction_sum(self):
        assert Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) == Fraction(71, 105)

    def test_product(self):
        assert Fraction(47, 60) * Fraction(1, 3) == Fraction(47, 180)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 3) / Fraction(0)

    def test_parse(self):
        assert parse_rational("221/14") == Fraction(221, 14)
        assert parse_rational("3") == Fraction(3)
        assert str(Fraction(3, 1)) == "3"
        assert str(Fraction(-1, 2)) == "-1/2"

    @given(rationals)
    def test_additive_identity(self, x):
        assert x + 0 == x

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(rationals)
    def test_inverses(self, x):
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x) == 1


class TestIntegerHelpers:
    def test_isqrt(self):
        assert isqrt(0) == 0
        assert isqrt(50) == 7
        assert isqrt(49) == 7

    def test_is_prime_small(self):
        assert is_prime(7)
        for n in range(2000):
            assert is_prime(n) == brute_is_prime(n), n

    @pytest.mark.parametrize(
        "n",
        [2**61 - 1, 2**64 - 59, 10**18 + 9, 3825123056546413051, 2**64 - 1, 10**18],
    )
    def test_is_prime_large_vs_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    def test_factorize(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 10**9)
            factors = factorize(n)
            assert factors == dict(sympy.factorint(n))

    def test_squarefree_decompose(self):
        assert squarefree_decompose(2450) == (35, 2)
        assert squarefree_decompose(1) == (1, 1)
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(1, 10**8)
            root, core = squarefree_decompose(n)
            assert root * root * core == n
            assert all(e == 1 for e in sympy.factorint(core).values())


class TestQuadSqrt:
    def test_rational_root(self):
        q = quad_sqrt(Fraction(25, 64))
        assert q.is_rational and q.as_fraction() == Fraction(5, 8)

    def test_zero(self):
        assert quad_sqrt(0) == QuadNumber.from_rational(0)

    def test_irrational_root(self):
        q = quad_sqrt(Fraction(25, 98))
        assert (q.a, q.b, q.m) == (0, Fraction(5, 14), 2)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            quad_sqrt(Fraction(-1, 4))

    def test_square_recovers_radicand_randomized(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            r = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
            q = quad_sqrt(r)
            assert q * q == QuadNumber.from_rational(r)
            assert q.sign() >= 0


class TestQuadNumber:
    def test_canonicalization_extracts_square_part(self):
        assert QuadNumber(Fraction(0), Fraction(5, 14), 8) == QuadNumber(
            Fraction(0), Fraction(5, 7), 2
        )

    def test_canonicalization_idempotent(self):
        q = QuadNumber(Fraction(1, 3), Fraction(5, 14), 8)
        again = QuadNumber(q.a, q.b, q.m)
        assert (again.a, again.b, again.m) == (q.a, q.b, q.m)

    def test_unit_radicand_folds_to_rational(self):
        q = QuadNumber(Fraction(1, 3), Fraction(5, 8), 9)  # 9 = 3**2
        assert q.is_rational and q.as_fraction() == Fraction(1, 3) + Fraction(15, 8)

    def test_rational_flag_requires_unit_radicand(self):
        q = QuadNumber(Fraction(1), Fraction(0), 5)
        assert q.m == 1 and q.is_rational

    def test_arithmetic_same_radical(self):
        x = QuadNumber(Fraction(1), Fraction(2), 3)
        y = QuadNumber(Fraction(-1), Fraction(1, 2), 3)
        assert x + y == QuadNumber(Fraction(0), Fraction(5, 2), 3)
        assert x - x == QuadNumber.from_rational(0)
        assert x * y == QuadNumber(Fraction(2), Fraction(-3, 2), 3)

    def test_radical_cancellation_gives_rational(self):
        x = QuadNumber(Fraction(1), Fraction(2), 3)
        y = QuadNumber(Fraction(4), Fraction(-2), 3)
        assert (x + y).is_rational

    def test_mixed_radicals_rejected(self):
        x = QuadNumber(Fraction(0), Fraction(1), 2)
        y = QuadNumber(Fraction(0), Fraction(1), 3)
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y

    def test_scalar_operations(self):
        x = QuadNumber(Fraction(1), Fraction(2), 3)
        assert 2 * x == QuadNumber(Fraction(2), Fraction(4), 3)
        assert 1 - x == QuadNumber(Fraction(0), Fraction(-2), 3)
        assert (x / 2) * 2 == x

    def test_inverse(self):
        x = QuadNumber(Fraction(1), Fraction(2), 3)
        assert x * x.inverse() == QuadNumber.from_rational(1)
        with pytest.raises(ZeroDivisionError):
            QuadNumber.from_rational(0).inverse()

    def test_sign_and_ordering_same_field(self):
        small = QuadNumber(Fraction(-1), Fraction(1), 2)  # sqrt(2) - 1 > 0
        assert small.sign() == 1
        assert QuadNumber(Fraction(3, 2), Fraction(-1), 2).sign() > 0  # 1.5 > sqrt 2
        assert QuadNumber(Fraction(7, 5), Fraction(-1), 2).sign() < 0  # 1.4 < sqrt 2

    def test_compare_across_radicals(self):
        sqrt2 = quad_sqrt(2)
        sqrt3 = quad_sqrt(3)
        assert compare_quadratics(sqrt2, sqrt3) < 0
        assert compare_quadratics(sqrt3, sqrt2) > 0
        # 1 + sqrt(2) = 2.414... < sqrt(6) = 2.449...
        assert compare_quadratics(1 + sqrt2, quad_sqrt(6)) < 0
        # 2 + sqrt(2) > sqrt(6)
        assert compare_quadratics(2 + sqrt2, quad_sqrt(6)) > 0
        assert compare_quadratics(sqrt2, sqrt2) == 0
        assert sqrt2 < sqrt3 < 2 < 1 + sqrt2

    def test_non_strict_ordering_against_int_and_fraction(self):
        """<= and >= hold on equal values of another type, where == is False."""
        zero, half = QuadNumber.from_rational(0), QuadNumber.from_rational(Fraction(1, 2))
        assert zero != 0
        assert zero <= 0 and zero >= 0 and 0 <= zero
        assert half >= Fraction(1, 2) and half <= Fraction(1, 2)
        assert not (half < Fraction(1, 2) or half > Fraction(1, 2))
        with pytest.raises(TypeError):
            half < 0.5

    @given(rationals, rationals)
    def test_compare_matches_rational_compare(self, x, y):
        qx, qy = QuadNumber.from_rational(x), QuadNumber.from_rational(y)
        expected = (x > y) - (x < y)
        assert compare_quadratics(qx, qy) == expected

    def test_approx_digits(self):
        q = QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        assert q.approx_str() == "0.0204124364398"
        assert QuadNumber.from_rational(Fraction(1, 4)).approx_str() == "0.25"

    def test_json_round_trip(self):
        q = QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        payload = q.to_json()
        assert payload["a"] == "1/48" and payload["b"] == "-1/3360" and payload["m"] == 2
        assert QuadNumber.from_json(payload) == q
        assert len(payload["approx"]) >= 12
