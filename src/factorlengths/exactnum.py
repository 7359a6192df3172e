"""Exact arithmetic: rationals, real quadratic irrationals, integer primality.

Rationals are stdlib ``fractions.Fraction`` throughout (arbitrary precision,
canonical gcd-reduced form for free).  On top of that this module provides
``QuadNumber``, an exact element a + b*sqrt(m) of a real quadratic field,
with canonicalization, arithmetic, and exact sign comparisons that never
touch floating point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

Rational = Fraction

isqrt = math.isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    return Fraction(text.strip())


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
            root = isqrt(v)
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


def _sign_single(a: Fraction, b: Fraction, m: int) -> int:
    """Exact sign of a + b*sqrt(m) for m >= 1."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs = a * a
    rhs = b * b * m
    if a > 0:  # b < 0: sign of a**2 - b**2 m
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


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

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

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

    def inverse(self) -> "QuadNumber":
        norm = self.a * self.a - self.b * self.b * self.m
        if norm == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero")
            raise ZeroDivisionError("zero field norm")  # unreachable for m squarefree
        return QuadNumber(self.a / norm, -self.b / norm, self.m)

    def __truediv__(self, other) -> "QuadNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational:
            if o.a == 0:
                raise ZeroDivisionError("division by zero")
            return QuadNumber(self.a / o.a, self.b / o.a, self.m)
        return self * o.inverse()

    def sign(self) -> int:
        return _sign_single(self.a, self.b, self.m)

    def _compare(self, other, accept) -> bool:
        """accept(sign of self - other, 0); NotImplemented for foreign types.

        Not functools.total_ordering: its derived <= and >= fall back to ==,
        and dataclass equality is False against int and Fraction.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return accept(compare_quadratics(self, o), 0)

    def __lt__(self, other) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other) -> bool:
        return self._compare(other, operator.ge)

    def approx_fraction(self, digits: int = 30) -> Fraction:
        """Rational approximation accurate to ~digits decimal places."""
        if self.b == 0:
            return self.a
        scale = 10 ** digits
        root = Fraction(isqrt(self.m * scale * scale), scale)
        return self.a + self.b * root

    def approx_str(self, significant: int = 12) -> str:
        """Decimal approximation with the given number of significant digits."""
        approx = self.approx_fraction(significant + 10)
        with localcontext() as ctx:
            ctx.prec = significant
            value = Decimal(approx.numerator) / Decimal(approx.denominator)
        return str(value)

    def __float__(self) -> float:
        return float(self.approx_fraction(25))

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        return f"{self.a} + ({self.b})*sqrt({self.m})"

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "m": self.m,
            "approx": self.approx_str(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QuadNumber":
        return cls(Fraction(payload["a"]), Fraction(payload["b"]), int(payload["m"]))


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


def compare_quadratics(x: QuadNumber, y: QuadNumber) -> int:
    """Exact sign of x - y, allowing x and y to live over different radicals.

    Same-radical differences reduce to one sign test.  For distinct radicals
    sqrt(m) != sqrt(n) the comparison squares both sides once, which lands
    back in a single quadratic field; no floating point is involved.
    """
    if x.m == y.m:
        return _sign_single(x.a - y.a, x.b - y.b, x.m)
    if x.is_rational or y.is_rational:
        diff = x - y
        return _sign_single(diff.a, diff.b, diff.m)
    # left = (x.a - y.a) + x.b sqrt(m) versus right = y.b sqrt(n)
    left_sign = _sign_single(x.a - y.a, x.b, x.m)
    right_sign = 1 if y.b > 0 else -1
    if left_sign != right_sign:
        if left_sign > right_sign:
            return 1
        return -1
    # same nonzero sign: compare squares, yet another single-radical test
    diff_a = (x.a - y.a) ** 2 + x.b * x.b * x.m - y.b * y.b * y.m
    diff_b = 2 * (x.a - y.a) * x.b
    squared = _sign_single(diff_a, diff_b, x.m)
    return squared if left_sign > 0 else -squared
