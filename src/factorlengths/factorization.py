"""Exact length-multiset counting.

``length_multiset`` never materializes factorizations.  For each candidate
length it counts lattice points on a line segment via one extended-gcd
solve, so a multiset for n around 10**6 is still cheap.  With more than
three generators the outer coefficients are enumerated and the three
smallest generators are counted the same closed way.

The tuple enumerator that cross-checks this route lives with the other
test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .semigroup import NotInSemigroup, Semigroup


@dataclass(frozen=True)
class LengthMultiset:
    """Multiset of factorization lengths: {length: multiplicity}, keys ascending."""

    entries: dict[int, int]
    total: int

    @property
    def min_length(self) -> int:
        return next(iter(self.entries))

    @property
    def max_length(self) -> int:
        return next(reversed(self.entries))

    def multiplicity(self, length: int) -> int:
        return self.entries.get(length, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(self.entries)

    def items(self):
        return self.entries.items()


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _scan_three(gens: tuple[int, int, int], n: int, base_len: int, hist: dict[int, int]) -> None:
    """Accumulate length multiplicities of a 3-generator subproblem into hist.

    A length-ell tuple (x1, x2, x3) satisfies A*x2 + B*x3 = n - ell*n1 with
    A = n2-n1, B = n3-n1 and x2 + x3 <= ell.  For fixed ell the solutions
    form a lattice line, so each length costs O(1) interval arithmetic.
    """
    if n < 0:
        return
    n1, n2, n3 = gens
    A, B = n2 - n1, n3 - n1
    g = math.gcd(A, B)
    Bg, Ag, Cg = B // g, A // g, (B - A) // g
    u = pow(Ag, -1, Bg)  # u*A ≡ g (mod B); Bg >= 2 because A < B
    lo, hi = _ceil_div(n, n3), n // n1
    # solvability forces n1*ell ≡ n (mod g): step the scan through one class
    d = math.gcd(n1, g)
    if n % d:
        return
    step = g // d
    if step > 1:
        lo += ((n // d) * pow(n1 // d, -1, step) - lo) % step
    else:
        step = 1
    for ell in range(lo, hi + 1, step):
        R = n - ell * n1
        if R % g:
            continue
        x20 = u * (R // g)
        x30 = (R - A * x20) // B
        j_hi = x30 // Ag
        j_hi2 = (ell - x20 - x30) // Cg
        if j_hi2 < j_hi:
            j_hi = j_hi2
        j_lo = _ceil_div(-x20, Bg)
        if j_hi >= j_lo:
            length = base_len + ell
            hist[length] = hist.get(length, 0) + j_hi - j_lo + 1


def _scan_two(gens: tuple[int, int], n: int, base_len: int, hist: dict[int, int]) -> None:
    """Two-generator subproblem: every solution has a distinct length."""
    if n < 0:
        return
    n1, n2 = gens
    g = math.gcd(n1, n2)
    if n % g:
        return
    mod = n2 // g  # >= 2 because n1 < n2 bounds g <= n1 < n2
    x1 = (n // g) * pow((n1 // g) % mod, -1, mod) % mod
    while x1 * n1 <= n:
        x2 = (n - x1 * n1) // n2
        length = base_len + x1 + x2
        hist[length] = hist.get(length, 0) + 1
        x1 += mod


def _length_counts(S: Semigroup, n: int) -> dict[int, int]:
    """Raw {length: multiplicity} map, empty when n has no factorization."""
    hist: dict[int, int] = {}
    if n < 0:
        return hist
    gens = S.gens
    if S.k == 2:
        _scan_two(gens, n, 0, hist)
    elif S.k == 3:
        _scan_three(gens, n, 0, hist)
    else:
        first3 = gens[:3]

        def descend(idx: int, rem: int, base_len: int) -> None:
            if idx == 2:
                _scan_three(first3, rem, base_len, hist)
                return
            g = gens[idx]
            for c in range(rem // g, -1, -1):
                descend(idx - 1, rem - c * g, base_len + c)

        descend(S.k - 1, n, 0)
    return dict(sorted(hist.items()))


def length_multiset(S: Semigroup, n: int) -> LengthMultiset:
    """Length multiset of n, computed without materializing factorizations."""
    counts = _length_counts(S, n)
    if not counts:
        raise NotInSemigroup(f"{n} not in semigroup {S}")
    return LengthMultiset(entries=counts, total=sum(counts.values()))


def min_max_length(S: Semigroup, n: int) -> tuple[int, int]:
    """(shortest, longest) factorization length of n; raises if n not in S."""
    ms = length_multiset(S, n)
    return ms.min_length, ms.max_length


def histogram_rows(ms: LengthMultiset, include_zeros: bool = False) -> list[tuple[int, int]]:
    """(length, multiplicity) rows sorted ascending.

    With include_zeros, every integer length between the extremes appears,
    which makes the zero pattern of the multiplicity function visible.
    """
    if include_zeros:
        return [(ell, ms.multiplicity(ell)) for ell in range(ms.min_length, ms.max_length + 1)]
    return list(ms.entries.items())
