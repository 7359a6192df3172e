"""Exact arithmetic substrate: rationals, quadratic numbers, primality."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from factorlengths.cli import _plain
from factorlengths.exactnum import (
    QuadNumber,
    factorize,
    is_prime,
    quad_sqrt,
    squarefree_decompose,
)

from oracles import brute_is_prime, compare_quadratics, quad_sign

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
squarefree = st.integers(2, 10**6).filter(
    lambda m: all(e == 1 for e in sympy.factorint(m).values())
)


def sympy_sign(a: Fraction, b: Fraction, m: int) -> int:
    return sympy.sign(sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(m))


class TestRationalPlumbing:
    def test_unit_fraction_sum(self):
        assert Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) == Fraction(71, 105)

    def test_product(self):
        assert Fraction(47, 60) * Fraction(1, 3) == Fraction(47, 180)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 3) / Fraction(0)

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
        assert q.is_rational and q.a == Fraction(5, 8)

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
            assert quad_sign(q) >= 0


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
        assert q.is_rational and q.a == Fraction(1, 3) + Fraction(15, 8)

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

    def test_sign_and_ordering_same_field(self):
        small = QuadNumber(Fraction(-1), Fraction(1), 2)  # sqrt(2) - 1 > 0
        assert quad_sign(small) == 1
        assert quad_sign(QuadNumber(Fraction(3, 2), Fraction(-1), 2)) > 0  # 1.5 > sqrt 2
        assert quad_sign(QuadNumber(Fraction(7, 5), Fraction(-1), 2)) < 0  # 1.4 < sqrt 2

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
        # QuadNumber itself has no ordering; signs go through the oracle
        with pytest.raises(TypeError):
            sqrt2 < 2

    @given(rationals, rationals)
    def test_compare_matches_rational_compare(self, x, y):
        qx, qy = QuadNumber.from_rational(x), QuadNumber.from_rational(y)
        expected = (x > y) - (x < y)
        assert compare_quadratics(qx, qy) == expected

    @given(rationals, rationals, squarefree)
    def test_quad_sign_matches_sympy(self, a, b, m):
        assert quad_sign(QuadNumber(a, b, m)) == sympy_sign(a, b, m)

    @given(rationals, squarefree, st.integers(1, 40), st.sampled_from([-1, 0, 1]),
           st.sampled_from([-1, 1]))
    def test_quad_sign_near_cancellation(self, b, m, digits, step, side):
        """a = side * b * (isqrt(m * 10**(2*digits)) + step) / 10**digits, so
        a**2 agrees with b**2 * m to about `digits` digits."""
        scale = 10**digits
        a = side * b * Fraction(math.isqrt(m * scale * scale) + step, scale)
        assert quad_sign(QuadNumber(a, b, m)) == sympy_sign(a, b, m)

    def test_approx_digits(self):
        q = QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        assert q.approx_str() == "0.0204124364398"
        assert QuadNumber.from_rational(Fraction(1, 4)).approx_str() == "0.25"

    def test_json_round_trip(self):
        q = QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        payload = _plain(q)
        assert payload["a"] == "1/48" and payload["b"] == "-1/3360" and payload["m"] == 2
        assert QuadNumber(Fraction(payload["a"]), Fraction(payload["b"]), payload["m"]) == q
        assert len(payload["approx"]) >= 12
