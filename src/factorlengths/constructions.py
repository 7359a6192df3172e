"""Semigroup families with prescribed median arithmetic, and unit-fraction solvers.

Two constructions pin down the arithmetic of the asymptotic median constant:

* squares of a primitive Pythagorean triple give generators
  (a^2 - b^2, a^2, a^2 + b^2) whose median constant is rational;
* for squarefree d >= 2 and suitable t, p = floor(t*sqrt(d)) prime yields
  generators (p^2 - l, p^2, p^2 + l) with l = t^2*d - p^2, whose median
  constant is an irrational element of Q(sqrt(d)).

The unit-fraction solvers answer which rationals arise as the asymptotic
mean constant: 3*target must split into three distinct unit fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .exactnum import is_prime, squarefree_decompose
from .semigroup import Semigroup, make_semigroup


@dataclass(frozen=True)
class ConstructionRejection:
    """Parameter choice that does not produce a valid construction."""

    reason: str
    detail: str
    floor_value: int


def pythagorean_semigroup(a: int, b: int, c: int) -> Semigroup:
    """Semigroup (a^2 - b^2, a^2, a^2 + b^2) from a primitive triple with a > b.

    The median constant is guaranteed rational: the radicand in the median
    formula is the square of b^2/(a*c).
    """
    if a * a + b * b != c * c:
        raise ValueError(f"({a}, {b}, {c}) is not a Pythagorean triple")
    if math.gcd(a, math.gcd(b, c)) != 1:
        raise ValueError(f"({a}, {b}, {c}) is not primitive")
    if not a > b >= 3:
        raise ValueError(f"need a > b >= 3, got a={a}, b={b}")
    return make_semigroup([a * a - b * b, a * a, a * a + b * b])


def primitive_triples(max_hypotenuse: int) -> Iterator[tuple[int, int, int]]:
    """Primitive Pythagorean triples (a, b, c) with a > b, c <= bound."""
    m = 2
    while m * m + 1 <= max_hypotenuse:
        for n in range(1, m):
            if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
                c = m * m + n * n
                if c > max_hypotenuse:
                    break
                legs = sorted((m * m - n * n, 2 * m * n), reverse=True)
                yield legs[0], legs[1], c
        m += 1


def sqrt_d_semigroup(d: int, t: int) -> Semigroup | ConstructionRejection:
    """Semigroup with median constant irrational in Q(sqrt(d)), if t works.

    Requires p = floor(t*sqrt(d)) to be prime and exceed max(2, d); then
    l = t^2*d - p^2 satisfies 1 <= l < 2p+1 and the generators are
    (p^2 - l, p^2, p^2 + l).  Unsuitable t returns a structured rejection
    rather than raising, since scanning over t is the main use.
    """
    if d < 2 or squarefree_decompose(d)[1] != d:
        raise ValueError(f"{d} is not a squarefree integer >= 2")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    p = math.isqrt(t * t * d)
    if not is_prime(p):
        return ConstructionRejection(
            reason="not_prime",
            detail=f"floor({t}*sqrt({d})) = {p} is not prime",
            floor_value=p,
        )
    if p <= max(2, d):
        return ConstructionRejection(
            reason="too_small",
            detail=f"floor({t}*sqrt({d})) = {p} is not greater than max(2, {d})",
            floor_value=p,
        )
    offset = t * t * d - p * p
    return make_semigroup([p * p - offset, p * p, p * p + offset])


def find_sqrt_d_params(d: int, t_max: int) -> list[int]:
    """All t <= t_max accepted by sqrt_d_semigroup."""
    if t_max < 1:
        raise ValueError(f"need t_max >= 1, got {t_max}")
    return [
        t for t in range(1, t_max + 1) if isinstance(sqrt_d_semigroup(d, t), Semigroup)
    ]


def three_unit_fractions(target: Fraction) -> list[tuple[int, int, int]]:
    """All (d1 < d2 < d3) with 1/d1 + 1/d2 + 1/d3 = target.

    Complete by construction: the leading denominator of a tail summing to r
    with j terms left lies in [ceil(1/r), floor(j/r)], and the final
    denominator is solved exactly.  Empty result means no representation.
    """
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    out: list[tuple[int, int, int]] = []
    for d1 in range(math.ceil(1 / target), int(3 / target) + 1):
        r1 = target - Fraction(1, d1)
        if r1 <= 0:
            continue
        for d2 in range(max(d1 + 1, math.ceil(1 / r1)), int(2 / r1) + 1):
            r2 = r1 - Fraction(1, d2)
            if r2 <= 0 or r2.numerator != 1:
                continue
            d3 = r2.denominator
            if d3 > d2:
                out.append((d1, d2, d3))
    return out


def unit_fraction_decomposition(target: Fraction, max_terms: int) -> Optional[tuple[int, ...]]:
    """One shortest decomposition of target into distinct unit fractions.

    Searches lengths 1, 2, ... up to max_terms with the same bounded
    denominator brackets; None when no decomposition exists within the cap.
    """
    target = Fraction(target)
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    if not 0 < target < max_terms:
        raise ValueError(f"need 0 < target < {max_terms}, got {target}")

    def search(r: Fraction, terms: int, min_d: int) -> Optional[tuple[int, ...]]:
        if terms == 1:
            if r.numerator == 1 and r.denominator >= min_d:
                return (r.denominator,)
            return None
        for d in range(max(min_d, math.ceil(1 / r)), int(terms / r) + 1):
            rest = r - Fraction(1, d)
            if rest <= 0:
                continue
            tail = search(rest, terms - 1, d + 1)
            if tail is not None:
                return (d,) + tail
        return None

    for terms in range(1, max_terms + 1):
        found = search(target, terms, 1)
        if found is not None:
            return found
    return None


_MEAN_SUP = Fraction(47, 180)


def mean_constant_inverse(target: Fraction) -> list[Semigroup]:
    """All 3-generator semigroups whose asymptotic mean constant is target.

    target must lie strictly inside (0, 47/180); the supremum 47/180 itself
    belongs to the excluded boundary.  Solves 3*target as a sum of three
    distinct unit fractions and keeps the gcd-1 denominator triples.
    """
    target = Fraction(target)
    if not 0 < target < _MEAN_SUP:
        raise ValueError(f"target must lie strictly in (0, {_MEAN_SUP}), got {target}")
    out = []
    for triple in three_unit_fractions(3 * target):
        if math.gcd(triple[0], math.gcd(triple[1], triple[2])) == 1:
            out.append(make_semigroup(triple))
    return out
