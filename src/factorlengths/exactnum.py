"""Exact arithmetic: rationals, real quadratic irrationals, integer primality.

Rationals are stdlib ``fractions.Fraction`` throughout (arbitrary precision,
canonical gcd-reduced form for free).  On top of that this module provides
``QuadNumber``, an exact element a + b*sqrt(m) of a real quadratic field,
with canonicalization, ring arithmetic and a decimal printer: enough to
state an exact median constant.  It has no ordering; the exact sign test
the tests need lives with their oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 3.3e24 (covers 2**64)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@dataclass(frozen=True)
class QuadNumber:
    """Exact a + b*sqrt(m) with a, b rational and m a positive squarefree integer.

    Canonical form: the square part of m is folded into b, and a purely
    rational value always has b == 0 and m == 1, so equality is componentwise.
    """

    a: Fraction
    b: Fraction
    m: int = 1

    def __post_init__(self) -> None:
        a, b, m = Fraction(self.a), Fraction(self.b), int(self.m)
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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "QuadNumber":
        return cls(Fraction(value), Fraction(0), 1)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other) -> "QuadNumber | None":
        if isinstance(other, QuadNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNumber.from_rational(other)
        return None

    def __add__(self, other) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.m == o.m or self.is_rational or o.is_rational:
            m = self.m if not self.is_rational else o.m
            return QuadNumber(self.a + o.a, self.b + o.b, m)
        raise ValueError(f"cannot add values over sqrt({self.m}) and sqrt({o.m})")

    __radd__ = __add__

    def __neg__(self) -> "QuadNumber":
        return QuadNumber(-self.a, -self.b, self.m)

    def __sub__(self, other) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QuadNumber":
        return -(self - other)

    def __mul__(self, other) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_rational:
            return QuadNumber(self.a * o.a, self.a * o.b, o.m)
        if o.is_rational:
            return QuadNumber(self.a * o.a, self.b * o.a, self.m)
        if self.m != o.m:
            raise ValueError(f"cannot multiply values over sqrt({self.m}) and sqrt({o.m})")
        return QuadNumber(
            self.a * o.a + self.b * o.b * self.m,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

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
        return QuadNumber.from_rational(0)
    root, core = squarefree_decompose(r.numerator * r.denominator)
    return QuadNumber(Fraction(0), Fraction(root, r.denominator), core)

