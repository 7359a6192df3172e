"""Exact length-multiset counting.

``length_multiset`` never materializes factorizations; ``_lengths`` returns
the multiplicities over the progression of candidate lengths as one list.
For three generators ``_three_counts`` builds that list from linear forms
in the length's index: one period of lengths is evaluated in Python and
``itertools`` builds the rest.  With more than three generators each count
of copies of the largest generator recurses on the others, divided by
their gcd.

The tuple enumerator that cross-checks this route lives with the other
test oracles in ``tests/oracles.py``; the per-length scan that the linear
forms replaced is kept in ``tests/test_factorization.py``.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, compress, cycle, islice, repeat
from operator import add, sub
from typing import NamedTuple

from .semigroup import NotInSemigroup, Semigroup

# Most candidate lengths one element may have.  Just under the cap, the
# counts of <6,9,20> (large ints) put `invariants` at a peak RSS of 1.3 GiB.
MAX_CANDIDATES = 2**25


class LengthMultiset(
    NamedTuple("LengthMultiset", [("lengths", range), ("counts", list[int]), ("total", int)])
):
    """Multiset of factorization lengths over one progression.

    ``lengths`` runs ascending from the least to the greatest length in
    steps of the semigroup's delta, and ``counts[i]`` is the multiplicity of
    ``lengths[i]``.  Both end counts are positive; a zero marks a length of
    the progression that no factorization has.  Instances hold nothing
    beyond the three fields: no __dict__ and no cached running sums.
    """

    __slots__ = ()

    @property
    def min_length(self) -> int:
        return self.lengths[0]

    @property
    def max_length(self) -> int:
        return self.lengths[-1]

    @property
    def entries(self) -> dict[int, int]:
        """{length: multiplicity} of the lengths that occur, ascending."""
        return dict(self.items())

    def items(self):
        """(length, multiplicity) pairs of the lengths that occur, ascending."""
        return compress(zip(self.lengths, self.counts), self.counts)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _trim(counts: list[int]) -> int:
    """Delete the counts <= 0 at both ends of counts; return how many left
    the front."""
    a, b = 0, len(counts)
    while a < b and counts[a] <= 0:
        a += 1
    while a < b and counts[b - 1] <= 0:
        b -= 1
    del counts[b:], counts[:a]
    return a


def _counts(f0: int, df: int, m: int, x0: int, dx: int, Bg: int, a: int, b: int):
    """(f0 + df*i) // m + (x0 + dx*i) // Bg for i in range(a, b).

    Adding T = lcm(m / gcd(df, m), Bg / gcd(dx, Bg)) to i adds a constant,
    so the steps between neighbours repeat with period T: one period is
    evaluated and the rest accumulated from its cycled steps.
    """
    T = math.lcm(m // math.gcd(df, m), Bg // math.gcd(dx, Bg))
    head = [(f0 + df * i) // m + (x0 + dx * i) // Bg for i in range(a, min(b, a + T + 1))]
    if b - a <= T + 1:
        return head
    steps = list(map(sub, head[1:], head[:-1]))
    return accumulate(islice(cycle(steps), b - a - 1), initial=head[0])


def _three_counts(gens: tuple[int, int, int], n: int, lo: int, N: int) -> list[int]:
    """Multiplicities of the N lengths lo + g*i of n over three generators
    with gcd 1, untrimmed; g = gcd(n2-n1, n3-n1) is the semigroup's delta.

    A length-ell tuple (x1, x2, x3) satisfies A*x2 + B*x3 = n - ell*n1 with
    A = n2-n1, B = n3-n1 and x2 + x3 <= ell.  The i-th length has the
    particular solution x2 = u*r, x3 = w*r with r = (n - ell*n1)/g and
    y = ell - x2 - x3 left for x1.  All three are linear in i, and the
    solutions are (x2 + Bg*j, x3 - Ag*j, y - Cg*j), so
    count(i) = min(x3 // Ag, y // Cg) + (x2 + Bg) // Bg where that is
    positive, and no tuple has the length where it is not.  The x3 term is
    the smaller exactly where D = Cg*x3 - Ag*y <= 0, and D falls by n2 per
    step because Ag*u + Bg*w = 1.
    """
    n1, n2, n3 = gens
    A, B = n2 - n1, n3 - n1
    g = math.gcd(A, B)
    Ag, Bg, Cg = A // g, B // g, (B - A) // g
    u = pow(Ag, -1, Bg)  # u*A ≡ g (mod B); Bg >= 2 because A < B
    w = (g - A * u) // B
    r0 = (n - lo * n1) // g
    x2, dx2 = u * r0, -u * n1
    x3, dx3 = w * r0, -w * n1
    y, dy = lo - x2 - x3, g - dx2 - dx3
    # the y term is the smaller on [0, s), the x3 term on [s, N)
    s = min(max(_ceil_div(Cg * x3 - Ag * y, n2), 0), N)
    return [*_counts(y, dy, Cg, x2 + Bg, dx2, Bg, 0, s),
            *_counts(x3, dx3, Ag, x2 + Bg, dx2, Bg, s, N)]


def _lengths(S: Semigroup, n: int) -> tuple[int, list[int]]:
    """(least, counts) of n in S: counts[i] is the multiplicity of length
    least + delta*i, both ends are positive, and counts is empty when n is
    not in S.

    Every length of n is ≡ n/n1 mod delta and lies in [n/nk, n/n1]; the N
    lengths of that class from lo up are the candidates.  With k >= 4, the
    factorizations with c copies of nk are those of (n - c*nk)/e in the
    semigroup of the other generators over their gcd e, whose delta is a
    multiple of S's.
    """
    gens, delta = S.gens, S.delta
    lo = _ceil_div(n, gens[-1])
    lo += (n * pow(gens[0], -1, delta) - lo) % delta
    N = (n // gens[0] - lo) // delta + 1
    if N <= 0:
        return lo, []
    if N > MAX_CANDIDATES:
        raise ValueError(f"n = {n} has {N} candidate lengths, over the cap of {MAX_CANDIDATES}")
    if S.k == 2:
        counts = [1] * N  # every candidate is a length, of one factorization
    elif S.k == 3:
        counts = _three_counts(gens, n, lo, N)
    else:
        *others, nk = gens
        e = math.gcd(*others)
        inner = Semigroup(tuple(g // e for g in others))
        stride = inner.delta // delta
        counts = [0] * N
        # e divides n - c*nk exactly for c in one class mod e (gcd(nk, e) = 1)
        for c in range(n * pow(nk, -1, e) % e, n // nk + 1, e):
            least, part = _lengths(inner, (n - c * nk) // e)
            if part:
                j = (c + least - lo) // delta
                span = slice(j, j + stride * len(part), stride)
                counts[span] = map(add, counts[span], part)
    # k = 3 counts <= 0 lie only at the ends: the real relaxation of count is concave
    return lo + delta * _trim(counts), counts


def length_multiset(S: Semigroup, n: int) -> LengthMultiset:
    """Length multiset of n, computed without materializing factorizations."""
    first, counts = _lengths(S, n)
    if not counts:
        raise NotInSemigroup(f"{n} not in semigroup {S}")
    return LengthMultiset(
        lengths=range(first, first + S.delta * len(counts), S.delta),
        counts=counts,
        total=sum(counts),
    )


def histogram_rows(ms: LengthMultiset, include_zeros: bool = False):
    """(length, multiplicity) rows ascending, made one at a time.

    With include_zeros, every integer length between the extremes appears,
    which makes the zero pattern of the multiplicity function visible.
    """
    if include_zeros:
        # each count is followed by the step - 1 zeros of the lengths it skips
        every = chain.from_iterable(zip(ms.counts, *[repeat(0)] * (ms.lengths.step - 1)))
        return zip(range(ms.min_length, ms.max_length + 1), every)
    return ms.items()
