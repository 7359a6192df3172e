"""Empirical verification drivers for the length-statistics theory.

Each driver compares exact data from the counting core against a predicted
behavior: convergence of mean/median ratios to their closed-form constants,
the exact mode recurrence under the trade element, arithmetic-progression
structure of length sets with bounded end gaps, eventual quasilinearity of
the median, and the shape of multi-generator histograms.  Every verdict
carries its window and thresholds so a run is reproducible from its output.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Optional, Sequence

from .asymptotics import asymptotic_mean, asymptotic_median, scaled_sequence
from .exactnum import QuadNumber
from .factorization import LengthMultiset, length_multiset
from .invariants import mean_length, median_length, mode
from .semigroup import Semigroup, contains, require_three, trade_data


class ConvergenceRow(NamedTuple):
    """One sweep sample: exact ratios, and their errors against the
    asymptotic constants as decimals."""

    n: int
    mean_ratio: Fraction
    median_ratio: Fraction
    mean_err: float
    median_err: float


class SweepResult(NamedTuple):
    semigroup: Semigroup
    mean_constant: Fraction
    median_constant: QuadNumber
    rows: tuple[ConvergenceRow, ...]
    skipped: tuple[int, ...]


def default_grid(S: Semigroup) -> list[int]:
    """The targets 10**2 .. 10**5, each snapped to the nearest positive
    element of S (the lower one on a tie), ascending and without repeats.
    The element 0 is never chosen: the sweep skips it.

    Each search ends within n1 - 1 steps of its target, because some
    multiple of n1 lies less than n1 above it."""
    return sorted({
        next(cand for offset in count() for cand in (target - offset, target + offset)
             if cand > 0 and contains(S, cand))
        for target in (100, 1_000, 10_000, 100_000)
    })


def convergence_sweep(S: Semigroup, n_points: Sequence[int]) -> SweepResult:
    """Exact mean/median ratios at the sampled elements, with decimal errors
    against the asymptotic constants.  Points outside S are skipped and
    reported, not fatal: non-positive points first, then non-members in
    input order."""
    mean_c = asymptotic_mean(S)
    median_c = asymptotic_median(S)
    median_c_approx = median_c.approx_fraction(40)
    skipped = [n for n in n_points if n <= 0]
    rows = []
    for n in n_points:
        if n <= 0:
            continue
        if not contains(S, n):
            skipped.append(n)
            continue
        ms = length_multiset(S, n)
        mean_ratio, median_ratio = mean_length(ms) / n, median_length(ms) / n
        del ms  # so the next point's counts are not built beside these
        rows.append(
            ConvergenceRow(
                n=n,
                mean_ratio=mean_ratio,
                median_ratio=median_ratio,
                mean_err=float(abs(mean_ratio - mean_c)),
                median_err=float(abs(median_ratio - median_c_approx)),
            )
        )
    return SweepResult(
        semigroup=S,
        mean_constant=mean_c,
        median_constant=median_c,
        rows=tuple(rows),
        skipped=tuple(skipped),
    )


class ModeTheoremReport(NamedTuple):
    """Exact check of the mode recurrence under one trade element.

    For every n in S up to n_max: the mode frequency grows by exactly 1 from
    n to n + element, and the mode length set shifts by element/n2.  The
    residual mode frequency minus n/element is tabulated per residue class
    and must be constant on each class.
    """

    semigroup: Semigroup
    period: int
    mode_shift: int
    n_max: int
    checked: int
    failures: tuple[tuple[int, str], ...]
    residuals: dict[int, Fraction]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_mode_theorem(S: Semigroup, n_max: int) -> ModeTheoremReport:
    require_three(S)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    trade = trade_data(S)
    t, shift = trade.element, trade.mid  # t = mid * n2
    failures: list[tuple[int, str]] = []
    residuals: dict[int, Fraction] = {}
    ahead: dict[int, tuple[tuple[int, ...], int]] = {}  # modes of the elements in (n, n + t]
    checked = 0
    for n in range(n_max + 1):
        if not contains(S, n):
            continue
        checked += 1
        lengths, freq = ahead.pop(n) if n in ahead else mode(length_multiset(S, n))
        ahead[n + t] = mode(length_multiset(S, n + t))
        lengths_next, freq_next = ahead[n + t]
        if freq_next != freq + 1:
            failures.append((n, f"frequency {freq} -> {freq_next}, expected +1"))
        if lengths_next != tuple(ell + shift for ell in lengths):
            failures.append((n, f"mode set {lengths} did not shift by {shift}"))
        residual = freq - Fraction(n, t)
        previous = residuals.get(n % t)
        if previous is None:
            residuals[n % t] = residual
        elif previous != residual:
            failures.append((n, f"residual {residual} != {previous} in class {n % t}"))
    return ModeTheoremReport(
        semigroup=S,
        period=t,
        mode_shift=shift,
        n_max=n_max,
        checked=checked,
        failures=tuple(failures),
        residuals=residuals,
    )


def _end_extents(ms: LengthMultiset) -> tuple[int, int]:
    """(low, high) end-gap extents of ms, in steps of its progression: the
    low extent runs from the least length through the last missing one in
    the lower half of the counts, (len + 1) // 2 entries; the high extent
    runs from the first missing one in the upper half through the greatest.
    A zero appended to each half ends its search at extent 0."""
    half = (len(ms.counts) + 1) // 2
    lower, upper = ms.counts[:half], ms.counts[half:]
    return half - [*reversed(lower), 0].index(0), len(upper) - [*upper, 0].index(0)


class StructureReport(NamedTuple):
    """Window check that length sets are progressions minus bounded end gaps.

    violations is always empty and keeps its place in the JSON report.
    """

    semigroup: Semigroup
    delta: int
    window: tuple[int, int]
    checked: int
    max_low_extent: int
    max_high_extent: int
    bounded: bool
    violations: tuple[tuple[int, str], ...] = ()

    @property
    def ok(self) -> bool:
        return self.bounded


def verify_structure_theorem(
    S: Semigroup, n_lo: Optional[int] = None, n_hi: Optional[int] = None
) -> StructureReport:
    """For each n in the window: missing lengths cluster at the ends of the
    step-delta progression through the extremes, and the end-gap extent seen
    in the second half of the window never exceeds the first half.

    That every length lies on the progression holds by construction, since
    LengthMultiset.lengths is a range with step delta; the differential tests
    of length_multiset against brute-force enumeration check it.

    The default window starts at 4*n3**2 and spans four trade elements.  A
    window holding fewer than two elements of S has no two halves to compare
    and raises ValueError.
    """
    require_three(S)
    if n_lo is None:
        n_lo = 4 * S.gens[2] ** 2
    if n_hi is None:
        n_hi = n_lo + 4 * trade_data(S).element
    if n_hi < n_lo:
        raise ValueError(f"n_hi must be >= n_lo, got window [{n_lo}, {n_hi}]")
    extents = [
        _end_extents(length_multiset(S, n)) for n in range(n_lo, n_hi + 1) if contains(S, n)
    ]
    checked = len(extents)
    if checked < 2:
        raise ValueError(
            f"window [{n_lo}, {n_hi}] holds {checked} element(s) of the semigroup; "
            "the structure check needs at least 2"
        )
    half = checked // 2
    lows, highs = zip(*extents)
    return StructureReport(
        semigroup=S,
        delta=S.delta,
        window=(n_lo, n_hi),
        checked=checked,
        max_low_extent=max(lows),
        max_high_extent=max(highs),
        bounded=max(lows[half:]) <= max(lows[:half]) and max(highs[half:]) <= max(highs[:half]),
    )


class PeriodProbe(NamedTuple):
    period: int
    window: tuple[int, int]
    checked: int
    witness: Optional[int]
    window_exhausted: bool


class QuasilinearityVerdict(NamedTuple):
    """Three-valued empirical verdict on eventual quasilinearity of the median.

    quasilinear: some tested period shows a constant median increment across
    every semigroup element of its whole window, the window holds at least
    one, and the asymptotic median constant is rational.  not_quasilinear:
    every tested period exhibited a concrete witness where the increment
    deviates.  inconclusive: anything else (a budget-exhausted or empty
    window, or a window without deviation when the constant is irrational).
    An eventually quasilinear median has a rational limit of median(n)/n,
    so an irrational constant rules "quasilinear" out whatever a window shows.
    A finite window can never prove the "eventually" part; the window and
    check budget are recorded so the verdict is reproducible.
    """

    semigroup: Semigroup
    verdict: str
    period_tested: Optional[int]
    window: tuple[int, int]
    witness: Optional[int]
    start_threshold: int
    max_checks: int
    probes: tuple[PeriodProbe, ...]


def candidate_periods(S: Semigroup) -> list[int]:
    """Default period ladder: trade element < generator product < full scale.
    The three never repeat: the element is mid*n2 with mid <= n3 - n1 < n1*n3."""
    seq = scaled_sequence(S, 1)
    n1, n2, n3 = S.gens
    return [seq.trade.element, n1 * n2 * n3, seq.scale]


def probe_median_quasilinearity(
    S: Semigroup,
    periods: Optional[Sequence[int]] = None,
    start: Optional[int] = None,
    max_checks: int = 4000,
) -> QuasilinearityVerdict:
    """Test candidate periods in increasing order over [start, start + 3P].

    The default start is 4*n3**2, past the empirically chaotic range of
    small elements.  Each period scans the semigroup elements of its window
    in order: the first deviating median increment is that period's witness;
    a window exhausted without deviation ends the probe at that period,
    unless it held no element; exceeding max_checks leaves the period
    undecided.  An exhausted window concludes quasilinear only when
    `asymptotic_median(S)` is rational, and inconclusive otherwise: a
    quasilinear median has a rational limit of median(n)/n.  Each element's
    median is computed once, however many periods visit it.
    """
    require_three(S)
    if periods is None:
        periods = candidate_periods(S)
    if any(p <= 0 for p in periods):
        raise ValueError(f"periods must be positive, got {list(periods)}")
    if max_checks < 1:
        raise ValueError(f"max_checks must be positive, got {max_checks}")
    if start is None:
        start = 4 * S.gens[2] ** 2

    @functools.cache
    def median_at(n: int) -> Optional[Fraction]:
        return median_length(length_multiset(S, n)) if contains(S, n) else None

    probes: list[PeriodProbe] = []
    for period in periods:
        hi = start + 3 * period
        increment = None
        witness = None
        checked = 0
        n = start
        while n <= hi and checked < max_checks:
            here = median_at(n)
            if here is not None:
                there = median_at(n + period)
                if there is None:  # only possible for a period outside S
                    n += 1
                    continue
                checked += 1
                diff = there - here
                if increment is None:
                    increment = diff
                elif diff != increment:
                    witness = n
                    break
            n += 1
        exhausted = witness is None and n > hi and checked > 0
        probes.append(
            PeriodProbe(
                period=period,
                window=(start, hi),
                checked=checked,
                witness=witness,
                window_exhausted=exhausted,
            )
        )
        if exhausted:
            break
    undecided = [p for p in probes if p.witness is None]
    if probes[-1].window_exhausted:
        rational = asymptotic_median(S).is_rational
        verdict, decisive = "quasilinear" if rational else "inconclusive", probes[-1]
    elif undecided:
        verdict, decisive = "inconclusive", undecided[0]
    else:
        verdict, decisive = "not_quasilinear", probes[-1]
    return QuasilinearityVerdict(
        semigroup=S,
        verdict=verdict,
        period_tested=decisive.period,
        window=decisive.window,
        witness=decisive.witness,
        start_threshold=start,
        max_checks=max_checks,
        probes=tuple(probes),
    )


class HistogramExploration(NamedTuple):
    """Histogram of one element of a many-generator semigroup, with the
    lengths where the discrete second difference changes sign (curvature
    flips happen between adjacent grid lengths, so both ends of each flip
    are candidates) and the peak of the multiplicity function."""

    semigroup: Semigroup
    n: int
    multiset: LengthMultiset
    grid_step: int
    inflection_candidates: tuple[int, ...]
    peak_lengths: tuple[int, ...]
    peak_multiplicity: int


def multi_generator_histogram(S: Semigroup, n: int) -> HistogramExploration:
    """Full histogram plus second-difference inflection scan for k >= 4."""
    if S.k < 4:
        raise ValueError("multi-generator exploration requires at least 4 generators")
    ms = length_multiset(S, n)
    step = S.delta
    counts = ms.counts
    candidates: set[int] = set()
    prev_sign = 0
    prev_length = None
    zeros: list[int] = []
    for i in range(1, len(counts) - 1):
        ell = ms.lengths[i]
        d2 = counts[i + 1] - 2 * counts[i] + counts[i - 1]
        sign = (d2 > 0) - (d2 < 0)
        if sign == 0:
            zeros.append(ell)
            continue
        if prev_sign and sign != prev_sign:
            candidates.update((prev_length, *zeros, ell))
        prev_sign, prev_length = sign, ell
        zeros = []
    peak_lengths, peak_mult = mode(ms)
    return HistogramExploration(
        semigroup=S,
        n=n,
        multiset=ms,
        grid_step=step,
        inflection_candidates=tuple(sorted(candidates)),
        peak_lengths=peak_lengths,
        peak_multiplicity=peak_mult,
    )
