"""Independent brute-force oracles used only by tests.

These implementations share no code with the package: plain recursion,
nested scans and trial division, slow but obviously correct.
``enumerate_factorizations`` lists every coefficient tuple; the closed
lattice-point counting in ``factorlengths.factorization`` is checked against
it, and the blind ``itertools.product`` scan of ``brute_factorizations``
checks the enumerator in turn.  ``is_minimal`` asks the enumerator whether
a generator is a sum of smaller ones, and ``primitive_triples`` scans leg
pairs rather than using Euclid's formula.  ``QuadNumber`` has no ordering,
so the exact sign of a + b*sqrt(m) is here: ``quad_sign`` clears
denominators and compares integer squares.  ``compare_quadratics`` builds on
it to order values over two different radicals.  ``period_length_sums``
reaches huge n without any kernel: it interpolates the number of
factorizations and the sums of lengths and squared lengths from their
values at a few small elements of the same residue class.

Imports stay stdlib plus ``QuadNumber``: the benchmark loads this file too,
and a test-only dependency here would change what it runs, while package
code reused here would agree with the code it is meant to check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable

from factorlengths.exactnum import QuadNumber


def brute_factorizations(gens: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    """Coefficient tuples via blind itertools product (small n only)."""
    bounds = [range(n // g + 1) for g in gens]
    return {
        coeffs
        for coeffs in itertools.product(*bounds)
        if sum(c * g for c, g in zip(coeffs, gens)) == n
    }


def enumerate_factorizations(gens: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """All coefficient tuples (a1, ..., ak) with sum(ai * gi) = n.

    Ordered descending in the last coordinate, then the next-to-last, and so
    on (the first coordinate is forced).  Empty when n has no factorization.
    """
    if n < 0:
        return []
    out: list[tuple[int, ...]] = []
    coeffs = [0] * len(gens)
    first = gens[0]

    def descend(idx: int, rem: int) -> None:
        if idx == 0:
            q, r = divmod(rem, first)
            if r == 0:
                coeffs[0] = q
                out.append(tuple(coeffs))
            return
        g = gens[idx]
        for c in range(rem // g, -1, -1):
            coeffs[idx] = c
            descend(idx - 1, rem - c * g)

    descend(len(gens) - 1, n)
    return out


def brute_length_counter(gens: tuple[int, ...], n: int) -> Counter:
    """Length multiset {length: multiplicity} of the enumerated tuples."""
    return Counter(map(sum, enumerate_factorizations(gens, n)))


def is_minimal(gens: tuple[int, ...]) -> bool:
    """True when no generator of the sorted tuple is a sum of smaller ones."""
    return not any(enumerate_factorizations(gens[:i], gens[i]) for i in range(1, len(gens)))


def primitive_triples(max_hypotenuse: int) -> list[tuple[int, int, int]]:
    """Primitive Pythagorean triples (a, b, c) with a > b and c <= bound, by
    scanning every pair of legs instead of using Euclid's formula."""
    out = []
    for a in range(2, max_hypotenuse):
        for b in range(1, a):
            c = math.isqrt(a * a + b * b)
            if c * c == a * a + b * b and c <= max_hypotenuse and math.gcd(a, b) == 1:
                out.append((a, b, c))
    return out


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def brute_minimal_trade(gens: tuple[int, int, int]) -> tuple[int, int, int]:
    """Componentwise-minimal positive (low, mid, high) with
    low*n1 + high*n3 = mid*n2 and low + high = mid, by exhaustive search."""
    n1, n2, n3 = gens
    for mid in range(1, n1 + n3 + 1):
        for low in range(1, mid):
            high = mid - low
            if low * n1 + high * n3 == mid * n2:
                return low, mid, high
    raise AssertionError(f"no trade found for {gens}")


def brute_three_unit_fractions(target: Fraction, cap: int = 4000) -> set[tuple[int, int, int]]:
    """Distinct-denominator triples by scanning d3 instead of solving it."""
    out = set()
    for d1 in range(1, int(3 / target) + 2):
        r1 = target - Fraction(1, d1)
        if r1 <= 0:
            continue
        for d2 in range(d1 + 1, int(2 / r1) + 2):
            r2 = r1 - Fraction(1, d2)
            if r2 <= 0:
                continue
            hi = min(cap, int(3 / r2) + 2)
            for d3 in range(d2 + 1, hi):
                if Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3) == target:
                    out.add((d1, d2, d3))
    return out


def all_unit_fraction_decompositions(target: Fraction, terms: int, min_d: int = 1) -> list[tuple[int, ...]]:
    """Every sorted distinct-denominator decomposition with exactly `terms` terms."""
    if terms == 1:
        if target.numerator == 1 and target.denominator >= min_d:
            return [(target.denominator,)]
        return []
    out = []
    d = max(min_d, -((-target.denominator) // target.numerator))
    while Fraction(terms, d) >= target:
        rest = target - Fraction(1, d)
        if rest > 0:
            out += [
                (d,) + tail
                for tail in all_unit_fraction_decompositions(rest, terms - 1, d + 1)
            ]
        d += 1
    return out


def random_semigroup_3(rng, lo: int = 2, hi: int = 400) -> tuple[int, int, int]:
    """Random valid 3-generator tuple (sorted, gcd 1, distinct)."""
    while True:
        gens = sorted(rng.sample(range(lo, hi), 3))
        if math.gcd(gens[0], math.gcd(gens[1], gens[2])) == 1:
            return tuple(gens)


def quad_sign(q: QuadNumber) -> int:
    """Exact sign of a + b*sqrt(m) in integers, with no floating point.

    Over the common denominator a.denominator * b.denominator the value is
    x + y*sqrt(m) for integers x and y.  When x and y differ in sign, the
    larger of x**2 and y**2 * m decides.
    """
    x = q.a.numerator * q.b.denominator
    y = q.b.numerator * q.a.denominator
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    lhs, rhs = x * x, y * y * q.m
    return sx * ((lhs > rhs) - (lhs < rhs))


def compare_quadratics(x: QuadNumber, y: QuadNumber) -> int:
    """Exact sign of x - y, allowing x and y to live over different radicals.

    Same-field differences reduce to one sign test.  For distinct radicals
    sqrt(m) != sqrt(n), squaring both sides once lands back in Q(sqrt(m));
    no floating point is involved.
    """
    if x.m == y.m or x.is_rational or y.is_rational:
        # a rational side has m == 1, so max picks the shared radicand
        return quad_sign(QuadNumber(x.a - y.a, x.b - y.b, max(x.m, y.m)))
    # left = (x.a - y.a) + x.b sqrt(m) against right = y.b sqrt(n)
    d = x.a - y.a
    left = quad_sign(QuadNumber(d, x.b, x.m))
    right = 1 if y.b > 0 else -1
    if left != right:
        return (left > right) - (left < right)
    squared = quad_sign(QuadNumber(d * d + x.b * x.b * x.m - y.b * y.b * y.m, 2 * d * x.b, x.m))
    return squared if left > 0 else -squared


def period_length_sums(
    gens: tuple[int, ...], n: int, sums_at: Callable[[int], tuple[int, int, int]]
) -> tuple[Fraction, Fraction, Fraction]:
    """(number of factorizations, sum of lengths, sum of squared lengths)
    of n, from sums_at(m), the same three sums at m = n mod L + L*q for
    q = 0 ... k+1, where L = lcm(gens).

    The three are quasipolynomials in n of degrees k-1, k and k+1 with
    period L, valid for every n >= 0: their generating functions G,
    t dG/dt and (t d/dt)^2 G at t = 1, with G = prod 1/(1 - t z^gi), are
    proper rational functions in z whose poles are roots of unity of order
    dividing some gi.  On the class of n each is therefore a polynomial in
    q of degree at most k+1, fixed by its values at the k+2 samples and
    evaluated exactly at q = n // L by Lagrange's formula.
    """
    period = math.lcm(*gens)
    r, target = n % period, n // period
    nodes = range(len(gens) + 2)
    samples = [sums_at(r + period * q) for q in nodes]
    out = [Fraction(0)] * 3
    for i in nodes:
        weight = Fraction(1)
        for j in nodes:
            if j != i:
                weight *= Fraction(target - j, i - j)
        out = [acc + weight * value for acc, value in zip(out, samples[i])]
    return tuple(out)
