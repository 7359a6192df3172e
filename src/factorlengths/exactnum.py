"""Exact arithmetic: rationals, real quadratic irrationals, integer primality.

Rationals are stdlib ``fractions.Fraction`` throughout (arbitrary precision,
canonical gcd-reduced form for free).  On top of that this module provides
``QuadNumber``, an exact element a + b*sqrt(m) of a real quadratic field,
with canonicalization and a decimal printer: enough to state an exact
median constant.  It has no arithmetic and no ordering: the median constant
is built from its components where it is derived, and the exact sign test
the tests need lives with their oracles.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 3.3e24 (covers 2**64)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    # wheel over residues coprime to 30
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < 100_000:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += increments[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
                continue
            root = math.isqrt(v)
            if root * root == v:
                stack += [root, root]
                continue
            d = _pollard_rho(v)
            stack += [d, v // d]
    return factors


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as root**2 * core with core squarefree; returns (root, core)."""
    root, core = 1, 1
    for p, e in factorize(n).items():
        root *= p ** (e // 2)
        if e % 2:
            core *= p
    return root, core


class QuadNumber(NamedTuple("QuadNumber", [("a", Fraction), ("b", Fraction), ("m", int)])):
    """Exact a + b*sqrt(m) with a, b rational and m a positive squarefree integer.

    Canonical form: the square part of m is folded into b, and a purely
    rational value always has b == 0 and m == 1, so equality is componentwise.
    """

    __slots__ = ()

    def __new__(cls, a: Fraction, b: Fraction, m: int = 1) -> QuadNumber:
        a, b, m = Fraction(a), Fraction(b), int(m)
        if m < 1:
            raise ValueError(f"radicand {m} must be positive")
        if b == 0:
            m = 1
        elif m > 1:
            root, core = squarefree_decompose(m)
            b *= root
            m = core
        if m == 1 and b != 0:
            a += b
            b = Fraction(0)
        return super().__new__(cls, a, b, m)

    def _no_operator(self, other):
        """No ordering or arithmetic: a tuple's order, + and * would be wrong."""
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = _no_operator

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def approx_fraction(self, digits: int = 30) -> Fraction:
        """Rational approximation accurate to ~digits decimal places."""
        if self.b == 0:
            return self.a
        scale = 10 ** digits
        root = Fraction(math.isqrt(self.m * scale * scale), scale)
        return self.a + self.b * root

    def approx_str(self, significant: int = 12) -> str:
        """Decimal approximation with the given number of significant digits."""
        approx = self.approx_fraction(significant + 10)
        with localcontext() as ctx:
            ctx.prec = significant
            value = Decimal(approx.numerator) / Decimal(approx.denominator)
        return str(value)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        return f"{self.a} + ({self.b})*sqrt({self.m})"


def quad_sqrt(value: Fraction | int) -> QuadNumber:
    """Exact square root of a nonnegative rational as a QuadNumber (a = 0).

    sqrt(p/q) = sqrt(p*q)/q, and the square part of p*q folds into the
    rational coefficient, leaving a squarefree radicand.
    """
    r = Fraction(value)
    if r < 0:
        raise ValueError(f"negative radicand {r}")
    if r == 0:
        return QuadNumber(Fraction(0), Fraction(0))
    root, core = squarefree_decompose(r.numerator * r.denominator)
    return QuadNumber(Fraction(0), Fraction(root, r.denominator), core)

