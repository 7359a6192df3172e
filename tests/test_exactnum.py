"""Exact arithmetic substrate: rationals, quadratic numbers, primality."""

import math
import operator
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


def sympy_value(q: QuadNumber):
    return sympy.Rational(q.a) + sympy.Rational(q.b) * sympy.sqrt(q.m)


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

    @pytest.mark.parametrize("n", [
        100_003 * 100_019,
        100_003**2,
        100_019**3,
        100_003 * 100_019 * 100_043,
        (10**12 + 39) * (10**12 + 61),
        2**5 * 3 * 100_043**2,
    ], ids=["p*q", "p^2", "p^3", "p*q*r", "two-13-digit-primes", "small-times-p^2"])
    def test_primes_past_trial_division(self, n):
        """Every prime factor here is above the 10^5 trial-division bound,
        so the perfect-square test and Pollard-Brent do the factoring."""
        expected = dict(sympy.factorint(n))
        assert factorize(n) == expected
        root = math.prod(p ** (e // 2) for p, e in expected.items())
        core = math.prod(p for p, e in expected.items() if e % 2)
        assert squarefree_decompose(n) == (root, core)


class TestQuadSqrt:
    def test_rational_root(self):
        q = quad_sqrt(Fraction(25, 64))
        assert q.is_rational and q.a == Fraction(5, 8)

    def test_zero(self):
        assert quad_sqrt(0) == QuadNumber(Fraction(0), 0)

    def test_irrational_root(self):
        q = quad_sqrt(Fraction(25, 98))
        assert (q.a, q.b, q.m) == (0, Fraction(5, 14), 2)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            quad_sqrt(Fraction(-1, 4))

    def test_matches_squarefree_decomposition(self):
        """sqrt(p/q) = root/q * sqrt(core) where p*q = root**2 * core."""
        rng = random.Random(31)
        big = [100_003, 100_019, 100_043, 10**12 + 39]
        for _ in range(100):
            p = rng.randrange(1, 10**6) * rng.choice([1, *big]) ** rng.randrange(0, 3)
            q = rng.randrange(1, 10**4) * rng.choice([1, *big])
            r = Fraction(p, q)
            root, core = squarefree_decompose(r.numerator * r.denominator)
            assert quad_sqrt(r) == QuadNumber(Fraction(0), Fraction(root, r.denominator), core)

    def test_square_recovers_radicand_randomized(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            r = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
            q = quad_sqrt(r)
            # a perfect square comes back rational, any other root as b*sqrt(m)
            if q.is_rational:
                assert q.a >= 0 and q.a**2 == r
            else:
                assert q.a == 0 and q.b >= 0 and q.b**2 * q.m == r


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

    @pytest.mark.parametrize("m", [0, -3])
    def test_non_positive_radicand_rejected(self, m):
        with pytest.raises(ValueError, match=f"radicand {m} must be positive"):
            QuadNumber(Fraction(0), Fraction(1), m)

    def test_rational_flag_requires_unit_radicand(self):
        q = QuadNumber(Fraction(1), Fraction(0), 5)
        assert q.m == 1 and q.is_rational

    def test_equal_and_hashed_by_value(self):
        q, r = QuadNumber(0, 1, 8), QuadNumber(0, 2, 2)
        assert q == r and hash(q) == hash(r)
        assert QuadNumber(a=0, b=2, m=2) == q

    def test_fields_refuse_assignment(self):
        q = quad_sqrt(2)
        for name in ("a", "b", "m"):
            with pytest.raises(AttributeError):
                setattr(q, name, 1)
        assert q == QuadNumber(0, 1, 2)

    def test_no_tuple_ordering_or_arithmetic(self):
        """A QuadNumber is a tuple underneath; a tuple's order, + and * would
        give wrong answers, so they stay refused."""
        sqrt2, sqrt3 = quad_sqrt(2), quad_sqrt(3)
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(sqrt2, sqrt3)
        with pytest.raises(TypeError):
            sqrt2 * 2
        with pytest.raises(TypeError):
            2 * sqrt2

    def test_sign_and_ordering_same_field(self):
        small = QuadNumber(Fraction(-1), Fraction(1), 2)  # sqrt(2) - 1 > 0
        assert quad_sign(small) == 1
        assert quad_sign(QuadNumber(Fraction(3, 2), Fraction(-1), 2)) > 0  # 1.5 > sqrt 2
        assert quad_sign(QuadNumber(Fraction(7, 5), Fraction(-1), 2)) < 0  # 1.4 < sqrt 2

    def test_compare_across_radicals(self):
        sqrt2 = quad_sqrt(2)
        sqrt3 = quad_sqrt(3)
        sqrt6 = quad_sqrt(6)
        one_plus = QuadNumber(Fraction(1), Fraction(1), 2)
        two_plus = QuadNumber(Fraction(2), Fraction(1), 2)
        assert sympy.expand(1 + sympy.sqrt(2) - sympy_value(one_plus)) == 0
        assert sympy.expand(2 + sympy.sqrt(2) - sympy_value(two_plus)) == 0
        assert compare_quadratics(sqrt2, sqrt3) < 0
        assert compare_quadratics(sqrt3, sqrt2) > 0
        # 1 + sqrt(2) = 2.414... < sqrt(6) = 2.449...
        assert compare_quadratics(one_plus, sqrt6) < 0
        # 2 + sqrt(2) > sqrt(6)
        assert compare_quadratics(two_plus, sqrt6) > 0
        assert compare_quadratics(sqrt2, sqrt2) == 0
        for x, y in [(sqrt2, sqrt3), (one_plus, sqrt6), (two_plus, sqrt6), (sqrt6, one_plus)]:
            assert compare_quadratics(x, y) == sympy.sign(sympy_value(x) - sympy_value(y))
        # QuadNumber itself has no ordering; signs go through the oracle
        with pytest.raises(TypeError):
            sqrt2 < 2

    @given(rationals, rationals)
    def test_compare_matches_rational_compare(self, x, y):
        qx, qy = QuadNumber(x, 0), QuadNumber(y, 0)
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
        assert QuadNumber(Fraction(1, 4), 0).approx_str() == "0.25"

    def test_json_round_trip(self):
        q = QuadNumber(Fraction(1, 48), Fraction(-1, 3360), 2)
        payload = _plain(q)
        assert payload["a"] == "1/48" and payload["b"] == "-1/3360" and payload["m"] == 2
        assert QuadNumber(Fraction(payload["a"]), Fraction(payload["b"]), payload["m"]) == q
        assert len(payload["approx"]) >= 12
