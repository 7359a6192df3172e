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
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .exactnum import is_prime, squarefree_decompose
from .semigroup import Semigroup, make_semigroup


class ConstructionRejection(NamedTuple):
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


def _unit_fractions(r: Fraction, terms: int, min_d: int = 1) -> Iterator[tuple[int, ...]]:
    """Every (d1 < ... < d_terms), each at least min_d, whose unit fractions
    sum to r, in lexicographic order.

    Complete by construction: the leading denominator of a tail summing to r
    with j terms left lies in [ceil(1/r), floor(j/r)], and the final
    denominator is solved exactly.
    """
    if terms == 1:
        if r.numerator == 1 and r.denominator >= min_d:
            yield (r.denominator,)
        return
    for d in range(max(min_d, math.ceil(1 / r)), int(terms / r) + 1):
        rest = r - Fraction(1, d)
        if rest > 0:
            for tail in _unit_fractions(rest, terms - 1, d + 1):
                yield (d,) + tail


def three_unit_fractions(target: Fraction) -> list[tuple[int, int, int]]:
    """All (d1 < d2 < d3) with 1/d1 + 1/d2 + 1/d3 = target, in lexicographic
    order.  Empty result means no representation."""
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    return list(_unit_fractions(target, 3))


def unit_fraction_decomposition(target: Fraction, max_terms: int) -> Optional[tuple[int, ...]]:
    """One shortest decomposition of target into distinct unit fractions.

    Tries lengths 1, 2, ... up to max_terms and returns the lexicographically
    first decomposition of the first length that has one; None when no
    decomposition exists within the cap.
    """
    target = Fraction(target)
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    if not 0 < target <= max_terms:
        raise ValueError(f"need 0 < target <= {max_terms}, got {target}")
    return next(
        (found for terms in range(1, max_terms + 1) for found in _unit_fractions(target, terms)),
        None,
    )
