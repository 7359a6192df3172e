"""Closed-form asymptotic constants and the triangular limit model.

For a 3-generator semigroup the scaled length histogram converges to a
triangular density on [0, 1] whose peak sits at the fulcrum constant
F = n1*(n3-n2) / (n2*(n3-n1)).  This module evaluates the exact limits of
mean/n and median/n, the distinguished scale at which the histogram is
cleanest, the piecewise-linear upper envelope of the multiplicity function,
and the rows that compare the rescaled histogram with the model.
Everything is exact: rationals, or quadratic irrationals for the median.
The one exception is those rows, floats that each round a ratio of exact
integers once, since they are only ever printed as decimals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .exactnum import QuadNumber, quad_sqrt
from .factorization import length_multiset
from .semigroup import Semigroup, TradeData, trade_data

_HALF = Fraction(1, 2)


def _require_three(S: Semigroup) -> None:
    if S.k != 3:
        raise ValueError(f"operation requires exactly 3 generators, got {S.k}")


def fulcrum(S: Semigroup) -> Fraction:
    """Normalized peak location of the limiting length distribution."""
    _require_three(S)
    n1, n2, n3 = S.gens
    F = Fraction(n1 * (n3 - n2), n2 * (n3 - n1))
    assert 0 < F < 1
    return F


def asymptotic_mean(S: Semigroup) -> Fraction:
    """Exact limit of mean_length(n)/n: one third of the reciprocal sum."""
    _require_three(S)
    n1, n2, n3 = S.gens
    return (Fraction(1, n1) + Fraction(1, n2) + Fraction(1, n3)) / 3


def asymptotic_median(S: Semigroup) -> QuadNumber:
    """Exact limit of median_length(n)/n, a convex mix of 1/n1 and 1/n3.

    The mixing weight on 1/n1 is the median of the triangular model with
    peak at the fulcrum, carried from [0, 1] onto [1/n3, 1/n1].
    """
    _require_three(S)
    n1, _, n3 = S.gens
    inv1, inv3 = Fraction(1, n1), Fraction(1, n3)
    c = inv1 - inv3
    w = triangular_model(fulcrum(S)).median
    # w/n1 + (1 - w)/n3 = 1/n3 + c*w, on the components of w
    return QuadNumber(inv3 + c * w.a, c * w.b, w.m)


class AsymptoticConstants(NamedTuple):
    F: Fraction
    mean_constant: Fraction
    median_constant: QuadNumber
    harmonic_case: bool


def asymptotic_constants(S: Semigroup) -> AsymptoticConstants:
    """Bundle of the fulcrum and the asymptotic mean/median constants."""
    F = fulcrum(S)
    return AsymptoticConstants(
        F=F,
        mean_constant=asymptotic_mean(S),
        median_constant=asymptotic_median(S),
        harmonic_case=F == _HALF,
    )


class ScaledSequence(NamedTuple):
    """Exact length statistics at the distinguished elements k * scale.

    scale = delta * element * n1 * n2 * n3.  At n = k*scale the extremes,
    the (singleton) mode length, and the trade count follow closed formulas:
    min_len = n/n3, max_len = n/n1, mode_len = n/n2, num_trades = n/element.
    """

    k: int
    scale: int
    min_len: int
    max_len: int
    mode_len: int
    num_trades: int
    semigroup: Semigroup
    trade: TradeData

    @property
    def element(self) -> int:
        return self.k * self.scale


def scaled_sequence(S: Semigroup, k: int) -> ScaledSequence:
    _require_three(S)
    if k < 1:
        raise ValueError(f"scale index must be >= 1, got {k}")
    n1, n2, n3 = S.gens
    trade = trade_data(S)
    dt = trade.delta * trade.element
    return ScaledSequence(
        k=k,
        scale=dt * n1 * n2 * n3,
        min_len=k * dt * n1 * n2,
        max_len=k * dt * n2 * n3,
        mode_len=k * dt * n1 * n3,
        num_trades=k * trade.delta * n1 * n2 * n3,
        semigroup=S,
        trade=trade,
    )


def upper_envelope(seq: ScaledSequence, x: int | Fraction) -> Fraction:
    """Piecewise-linear bound on length multiplicity at k*scale.

    Rises from (min_len, 1) to (mode_len, num_trades + 1), then falls back
    to (max_len, 1); no multiplicity in the histogram exceeds it.
    """
    x = Fraction(x)
    if not seq.min_len <= x <= seq.max_len:
        raise ValueError(f"{x} outside [{seq.min_len}, {seq.max_len}]")
    n1, n2, n3 = seq.semigroup.gens
    t = seq.trade.element
    if x <= seq.mode_len:
        return Fraction(n2 * n3, t * (n3 - n2)) * (x - seq.min_len) + 1
    return Fraction(n1 * n2, t * (n2 - n1)) * (seq.max_len - x) + 1


class TriangularModel(NamedTuple):
    """Triangular probability density on [0, 1] with peak (F, 2)."""

    peak: Fraction
    mean: Fraction
    median: QuadNumber


def triangular_model(F: Fraction) -> TriangularModel:
    """Triangular density with peak at F: mean (1+F)/3, median
    1 - sqrt((1-F)/2) for F <= 1/2 and sqrt(F/2) otherwise.  Both branches
    agree when F = 1/2."""
    F = Fraction(F)
    if not 0 <= F <= 1:
        raise ValueError(f"peak {F} outside [0, 1]")
    if F <= _HALF:
        s = quad_sqrt((1 - F) / 2)
        median = QuadNumber(1 - s.a, -s.b, s.m)  # 1 - s
    else:
        median = quad_sqrt(F / 2)
    return TriangularModel(peak=F, mean=(1 + F) / 3, median=median)


def model_rows(S: Semigroup, k: int) -> Iterator[tuple[float, float, float]]:
    """Length histogram of k*scale on [0, 1] beside the triangular model:
    one (x, empirical, model) row per length, each value rounded once.

    Lengths map through x -> (x - min_len) / (max_len - min_len) and
    multiplicities are divided by delta*|Z| / (max_len - min_len), so the
    steps have unit mass and the peak step sits at the fulcrum.  x is the
    midpoint of the step's interval: steps left of the peak extend right of
    their length, steps right of it extend left, the peak step is the point
    F.  Every value is a ratio of integers, and int / int is correctly
    rounded, so each equals float() of its exact Fraction.  Validation and
    the multiset come first; only the rows are produced lazily.
    """
    seq = scaled_sequence(S, k)
    ms = length_multiset(S, seq.element)
    F = fulcrum(S)
    a, b = F.numerator, F.denominator
    delta, lo, mode = seq.trade.delta, seq.min_len, seq.mode_len
    span = seq.max_len - lo
    q = 2 * span
    weight = delta * ms.total
    # x = p/q against F = a/b: the model is 2x/F = 2pb/(aq) left of F and
    # 2(1-x)/(1-F) = 2(bq-pb)/(q(b-a)) right of it
    aq, bq, right = a * q, b * q, q * (b - a)

    def rows():
        for ell, mult in ms.items():
            p = 2 * (ell - lo) + ((ell < mode) - (ell > mode)) * delta
            pb = p * b
            model = 2.0 if pb == aq else 2 * pb / aq if pb < aq else 2 * (bq - pb) / right
            yield p / q, mult * span / weight, model

    return rows()


class EnvelopeReport(NamedTuple):
    """How the histogram at k*scale sits under its linear envelope.

    max_pointwise_gap is max(envelope - multiplicity) over lengths;
    max_step_gap takes each step's envelope supremum instead, which is the
    honest sup-norm gap between envelope and step function.
    """

    k: int
    pointwise_ok: bool
    max_pointwise_gap: Fraction
    max_step_gap: Fraction


def envelope_report(S: Semigroup, k: int) -> EnvelopeReport:
    seq = scaled_sequence(S, k)
    ms = length_multiset(S, seq.element)
    delta = seq.trade.delta
    # Each step's envelope supremum lies at its end delta towards the mode,
    # a fixed rise above its start: both sides of the mode are whole
    # delta-steps, and the envelope is linear on each and 1 at both extremes.
    low_rise = upper_envelope(seq, seq.min_len + delta) - 1
    high_rise = upper_envelope(seq, seq.max_len - delta) - 1
    mode = seq.mode_len
    ok = True
    max_point = Fraction(0)
    max_step = Fraction(0)
    for ell, mult in ms.items():
        gap = upper_envelope(seq, ell) - mult
        if gap < 0:
            ok = False
        if gap > max_point:
            max_point = gap
        step_gap = gap + (low_rise if ell < mode else high_rise if ell > mode else 0)
        if step_gap > max_step:
            max_step = step_gap
    return EnvelopeReport(
        k=k, pointwise_ok=ok, max_pointwise_gap=max_point, max_step_gap=max_step
    )

