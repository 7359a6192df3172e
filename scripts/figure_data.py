#!/usr/bin/env python3
"""Emit the CSV data behind the headline plots into an output directory.

Each file is the output of one factorlengths command line, written through
the CLI's --out (FIGURES lists them): the multiplicity functions of 630 in
<3,5,7>, of 1680 in <4,5,6,7> and of 2520 in <5,7,8,9,11>, zeros included,
and the normalized histogram of <3,5,7> against the triangular model for
k = 1, 2, 3.  `factorlengths histo4 -s 4,5,6,7 -n 1680` prints the
inflections and the peak of the 4-generator histogram.
"""

import argparse
import pathlib
import sys

from factorlengths import cli

FIGURES = [
    ("multiplicity_630_3_5_7.csv", ["histogram", "-s", "3,5,7", "-n", "630", "--include-zeros"]),
    *[(f"model_3_5_7_k{k}.csv", ["model", "-s", "3,5,7", "-k", str(k)]) for k in (1, 2, 3)],
    ("multiplicity_1680_4_5_6_7.csv",
     ["histogram", "-s", "4,5,6,7", "-n", "1680", "--include-zeros"]),
    ("multiplicity_2520_5_7_8_9_11.csv",
     ["histogram", "-s", "5,7,8,9,11", "-n", "2520", "--include-zeros"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figure_data")
    out = pathlib.Path(parser.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in FIGURES:
        code = cli.main([*argv, "--out", str(out / name)])
        if code:
            return code
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
