#!/usr/bin/env python3
"""Run the desk-scale verification battery over the standard semigroups.

Checks, per 3-generator semigroup: exact mode recurrence, structure of the
length sets over a large-n window, convergence of mean/median ratios to the
closed-form constants, and the median quasilinearity probe.  Prints one line
per check; exits nonzero if anything fails.
"""

import argparse
import sys

from factorlengths.experiments import (
    convergence_sweep,
    default_grid,
    probe_median_quasilinearity,
    verify_mode_theorem,
    verify_structure_theorem,
)
from factorlengths.semigroup import parse_semigroup

DEFAULT_SEMIGROUPS = ["6,9,20", "3,5,7", "7,16,25", "12,15,20", "3,4,6"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("semigroups", nargs="*", default=DEFAULT_SEMIGROUPS,
                        metavar="GENS", help="semigroups as comma-separated generators")
    parser.add_argument("--mode-max", type=int, default=2000)
    parser.add_argument("--tolerance", type=float, default=5e-3)
    args = parser.parse_args()

    failures = 0
    for text in args.semigroups:
        S = parse_semigroup(text)

        mode_report = verify_mode_theorem(S, args.mode_max)
        print(f"{S} mode recurrence on [0,{args.mode_max}]: "
              f"{'OK' if mode_report.ok else 'FAIL'} ({mode_report.checked} elements)")
        failures += not mode_report.ok

        structure = verify_structure_theorem(S)
        lo, hi = structure.window
        print(f"{S} structure window [{lo},{hi}]: "
              f"{'OK' if structure.ok else 'FAIL'} "
              f"(end gaps {structure.max_low_extent}/{structure.max_high_extent})")
        failures += not structure.ok

        sweep = convergence_sweep(S, default_grid(S))
        worst = max(sweep.rows[-1].mean_err, sweep.rows[-1].median_err)
        ok = worst <= args.tolerance
        print(f"{S} convergence at n={sweep.rows[-1].n}: "
              f"{'OK' if ok else 'FAIL'} (worst error {worst:.2e})")
        failures += not ok

        verdict = probe_median_quasilinearity(S)
        print(f"{S} median quasilinearity: {verdict.verdict}"
              + (f" (witness {verdict.witness})" if verdict.witness else ""))

    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
