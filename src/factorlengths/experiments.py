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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .asymptotics import asymptotic_mean, asymptotic_median
from .exactnum import QuadNumber
from .factorization import LengthMultiset, length_multiset
from .invariants import mean_length, median_length, mode
from .semigroup import (
    NotInSemigroup,
    Semigroup,
    contains,
    trade_data,
)


@dataclass(frozen=True)
class ConvergenceRow:
    """One sweep sample: exact ratios, and their errors against the
    asymptotic constants as decimals."""

    n: int
    mean_ratio: Fraction
    median_ratio: Fraction
    mean_err: float
    median_err: float


@dataclass(frozen=True)
class SweepResult:
    semigroup: Semigroup
    mean_constant: Fraction
    median_constant: QuadNumber
    rows: tuple[ConvergenceRow, ...]
    skipped: tuple[int, ...]


def default_grid(S: Semigroup, targets: Sequence[int] = (100, 1_000, 10_000, 100_000)) -> list[int]:
    """Geometric sample points snapped to the nearest semigroup element."""
    hi = max(targets) + max(S.gens) + 1
    grid = []
    for target in targets:
        for offset in range(hi):
            for cand in (target - offset, target + offset):
                if cand <= hi and contains(S, cand):
                    break
            else:
                continue
            break
        if cand not in grid:
            grid.append(cand)
    return sorted(grid)


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
        try:
            ms = length_multiset(S, n)
        except NotInSemigroup:
            skipped.append(n)
            continue
        mean_ratio = mean_length(ms) / n
        median_ratio = median_length(ms) / n
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


@dataclass(frozen=True)
class ModeTheoremReport:
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
    residuals: dict[int, Fraction] = field(repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_mode_theorem(S: Semigroup, n_max: int) -> ModeTheoremReport:
    if S.k != 3:
        raise ValueError("mode recurrence check requires 3 generators")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    trade = trade_data(S)
    t = trade.element
    shift = t // S.gens[1]
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


def end_gaps(ms: LengthMultiset, delta: int) -> tuple[list[int], list[int]]:
    """Missing lengths of the step-delta progression from ms's least to its
    greatest length, split low end / high end."""
    progression = range(ms.min_length, ms.max_length + 1, delta)
    count = len(progression)
    low_missing, high_missing = [], []
    for idx, ell in enumerate(progression):
        if ell not in ms.entries:
            (low_missing if idx < count / 2 else high_missing).append(ell)
    return low_missing, high_missing


@dataclass(frozen=True)
class StructureReport:
    """Window check that length sets are progressions minus bounded end gaps."""

    semigroup: Semigroup
    delta: int
    window: tuple[int, int]
    checked: int
    max_low_extent: int
    max_high_extent: int
    bounded: bool
    violations: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return self.bounded and not self.violations


def verify_structure_theorem(
    S: Semigroup, n_lo: Optional[int] = None, n_hi: Optional[int] = None
) -> StructureReport:
    """For each n in the window: all lengths lie on the step-delta progression
    through the extremes, missing lengths cluster at the ends, and the end-gap
    extent seen in the second half of the window never exceeds the first half.

    The default window starts at 4*n3**2 and spans four trade elements.  A
    window holding fewer than two elements of S has no two halves to compare
    and raises ValueError.
    """
    if S.k != 3:
        raise ValueError("structure check requires 3 generators")
    if n_lo is None:
        n_lo = 4 * S.gens[2] ** 2
    if n_hi is None:
        n_hi = n_lo + 4 * trade_data(S).element
    if n_hi < n_lo:
        raise ValueError(f"n_hi must be >= n_lo, got window [{n_lo}, {n_hi}]")
    delta = S.delta
    violations: list[tuple[int, str]] = []
    extents: list[tuple[int, int]] = []
    checked = 0
    for n in range(n_lo, n_hi + 1):
        if not contains(S, n):
            continue
        checked += 1
        ms = length_multiset(S, n)
        lo, hi = ms.min_length, ms.max_length
        off_grid = [ell for ell in ms.support() if (ell - lo) % delta]
        if off_grid:
            violations.append((n, f"lengths off the delta grid: {off_grid[:4]}"))
        low_missing, high_missing = end_gaps(ms, delta)
        extents.append((
            (low_missing[-1] - lo) // delta + 1 if low_missing else 0,
            (hi - high_missing[0]) // delta + 1 if high_missing else 0,
        ))
    if checked < 2:
        raise ValueError(
            f"window [{n_lo}, {n_hi}] holds {checked} element(s) of the semigroup; "
            "the structure check needs at least 2"
        )
    half = len(extents) // 2
    bounded = (
        max(e[0] for e in extents[half:]) <= max(e[0] for e in extents[:half])
        and max(e[1] for e in extents[half:]) <= max(e[1] for e in extents[:half])
    )
    return StructureReport(
        semigroup=S,
        delta=delta,
        window=(n_lo, n_hi),
        checked=checked,
        max_low_extent=max(e[0] for e in extents),
        max_high_extent=max(e[1] for e in extents),
        bounded=bounded,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class PeriodProbe:
    period: int
    window: tuple[int, int]
    checked: int
    witness: Optional[int]
    window_exhausted: bool


@dataclass(frozen=True)
class QuasilinearityVerdict:
    """Three-valued empirical verdict on eventual quasilinearity of the median.

    quasilinear: some tested period shows a constant median increment across
    every semigroup element of its whole window, and the window holds at
    least one.  not_quasilinear: every tested period exhibited a concrete
    witness where the increment deviates.  inconclusive: anything else
    (typically a budget-exhausted or empty window).
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
    """Default period ladder: trade element, generator product, full scale."""
    trade = trade_data(S)
    n1, n2, n3 = S.gens
    ladder = [trade.element, n1 * n2 * n3, trade.delta * trade.element * n1 * n2 * n3]
    out = []
    for p in ladder:
        if p not in out:
            out.append(p)
    return out


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
    a window exhausted without deviation concludes quasilinear at that
    period, unless it held no element; exceeding max_checks leaves the
    period undecided.  Each element's
    median is computed once, however many periods visit it.
    """
    if S.k != 3:
        raise ValueError("median quasilinearity probe requires 3 generators")
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
        try:
            return median_length(length_multiset(S, n))
        except NotInSemigroup:
            return None

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
        verdict, decisive = "quasilinear", probes[-1]
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


@dataclass(frozen=True)
class HistogramExploration:
    """Histogram of one element of a many-generator semigroup, with the
    lengths where the discrete second difference changes sign (curvature
    flips happen between adjacent grid lengths, so both ends of each flip
    are candidates) and the peak of the multiplicity function."""

    semigroup: Semigroup
    n: int
    multiset: LengthMultiset = field(repr=False)
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
    lo, hi = ms.min_length, ms.max_length
    candidates: list[int] = []
    prev_sign = 0
    prev_length = None
    zeros: list[int] = []
    for ell in range(lo + step, hi - step + 1, step):
        d2 = (
            ms.multiplicity(ell + step)
            - 2 * ms.multiplicity(ell)
            + ms.multiplicity(ell - step)
        )
        sign = (d2 > 0) - (d2 < 0)
        if sign == 0:
            zeros.append(ell)
            continue
        if prev_sign and sign != prev_sign:
            for cand in (prev_length, *zeros, ell):
                if cand not in candidates:
                    candidates.append(cand)
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


def extreme_length_steps(S: Semigroup, n_lo: int, count: int) -> tuple[bool, Optional[int]]:
    """Check quasilinearity of the extremes over `count` semigroup elements
    at and beyond n_lo: max length gains exactly 1 per +n1, min length gains
    exactly 1 per +nk.  Returns (ok, first offending n)."""
    n1, nk = S.gens[0], S.gens[-1]
    hi_bound = n_lo + count * 2 + n1 * nk * 6
    ahead: dict[int, tuple[int, int]] = {}  # extremes of the elements in [n, n + nk]

    def extremes(m: int) -> tuple[int, int]:
        if m not in ahead:
            ms = length_multiset(S, m)
            ahead[m] = ms.min_length, ms.max_length
        return ahead[m]

    seen = 0
    n = n_lo
    while seen < count and n <= hi_bound:
        if contains(S, n):
            seen += 1
            lo_len, hi_len = extremes(n)
            lo_next, _ = extremes(n + nk)
            _, hi_next = extremes(n + n1)
            del ahead[n]
            if hi_next != hi_len + 1 or lo_next != lo_len + 1:
                return False, n
        n += 1
    return True, None
