"""Command-line front end with stable, scriptable output.

JSON goes to standard output for report-style subcommands; the data-export
subcommands (histogram, model, sweep) emit their documented CSV formats.
Exact values are serialized as fraction strings; decimal columns exist only
for plotting.  This module alone owns the JSON form of results: `_plain`
turns every report into it.  Exit codes: 0 success, 1 a verification
reported a failure, 2 usage or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

from . import asymptotics, constructions, experiments, factorization, invariants
from .exactnum import QuadNumber
from .semigroup import (
    InvalidGenerators,
    NotInSemigroup,
    Semigroup,
    parse_semigroup,
    trade_data,
)


def _decimal(x) -> str:
    return format(float(x), ".12g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _plain(value):
    """JSON form of a result: a Fraction as its string, a QuadNumber as
    {a, b, m, approx}, a Semigroup as its generator list, a dataclass field
    by field without its repr=False fields, a dict value by value, a tuple
    or list as a list."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadNumber):
        return {"a": str(value.a), "b": str(value.b), "m": value.m, "approx": value.approx_str()}
    if isinstance(value, Semigroup):
        return list(value.gens)
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value) if f.repr}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def _json_text(payload) -> str:
    return json.dumps(_plain(payload), indent=2) + "\n"


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_invariants(args) -> int:
    S = parse_semigroup(args.semigroup)
    report = invariants.invariant_report(S, args.n)
    _emit(_json_text(report), args.out)
    return 0


def _cmd_histogram(args) -> int:
    S = parse_semigroup(args.semigroup)
    ms = factorization.length_multiset(S, args.n)
    rows = factorization.histogram_rows(ms, include_zeros=args.include_zeros)
    _emit(_csv_text(["length", "multiplicity"], rows), args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    S = parse_semigroup(args.semigroup)
    _emit(_json_text(asymptotics.asymptotic_constants(S)), args.out)
    return 0


def _cmd_model(args) -> int:
    S = parse_semigroup(args.semigroup)
    hist = asymptotics.normalized_histogram(S, args.k)
    model = asymptotics.triangular_model(hist.fulcrum)
    rows = [
        (_decimal(step.midpoint), _decimal(step.density), _decimal(model.density(step.midpoint)))
        for step in hist.steps
    ]
    _emit(_csv_text(["x", "empirical", "model"], rows), args.out)
    return 0


def _semigroup_payload(S: Semigroup) -> dict:
    """Generator list plus the trade constants when they exist."""
    if S.k != 3:
        return {"gens": _plain(S)}
    trade = trade_data(S)
    return {"gens": _plain(S), "delta": trade.delta, "trade_element": trade.element}


def _construction_payload(S: Semigroup) -> dict:
    constants = asymptotics.asymptotic_constants(S)
    rational = {"is_median_rational": constants.median_constant.is_rational}
    return {"semigroup": _semigroup_payload(S), "constants": {**_plain(constants), **rational}}


def _cmd_construct(args) -> int:
    if args.family == "pythagorean":
        S = constructions.pythagorean_semigroup(args.a, args.b, args.c)
        payload = _construction_payload(S)
    elif args.t_max is not None:
        accepted = constructions.find_sqrt_d_params(args.d, args.t_max)
        payload = {
            "d": args.d,
            "t_max": args.t_max,
            "accepted_t": accepted,
            "semigroups": [
                _semigroup_payload(constructions.sqrt_d_semigroup(args.d, t))
                for t in accepted
            ],
        }
    else:
        result = constructions.sqrt_d_semigroup(args.d, args.t)
        if isinstance(result, constructions.ConstructionRejection):
            payload = {"rejected": True, **_plain(result)}
        else:
            payload = _construction_payload(result)
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_egyptian(args) -> int:
    try:
        target = Fraction(args.target)
    except ZeroDivisionError:
        raise ValueError(f"target {args.target} has a zero denominator") from None
    if args.all_3:
        sols = constructions.three_unit_fractions(target)
        payload = {"target": target, "three_term_solutions": sols}
    else:
        decomposition = constructions.unit_fraction_decomposition(target, args.terms)
        payload = {
            "target": target,
            "max_terms": args.terms,
            "decomposition": decomposition or None,
        }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_sweep(args) -> int:
    S = parse_semigroup(args.semigroup)
    if args.points:
        points = [int(p) for p in args.points.split(",")]
    else:
        points = experiments.default_grid(S)
    result = experiments.convergence_sweep(S, points)
    header = ["n", "mean_ratio", "median_ratio", "mean_err", "median_err"]
    rows = [
        (r.n, str(r.mean_ratio), str(r.median_ratio), _decimal(r.mean_err), _decimal(r.median_err))
        for r in result.rows
    ]
    _emit(_csv_text(header, rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    S = parse_semigroup(args.semigroup)
    if args.check == "mode":
        report = experiments.verify_mode_theorem(S, args.n_max)
        payload = {**_plain(report), "residual_classes": len(report.residuals), "ok": report.ok}
        _emit(_json_text(payload), args.out)
        return 0 if report.ok else 1
    if args.check == "structure":
        report = experiments.verify_structure_theorem(S, args.lo, args.hi)
        _emit(_json_text({**_plain(report), "ok": report.ok}), args.out)
        return 0 if report.ok else 1
    verdict = experiments.probe_median_quasilinearity(
        S,
        periods=[args.period] if args.period is not None else None,
        start=args.start,
        max_checks=args.max_checks,
    )
    _emit(_json_text(verdict), args.out)
    return 0


def _cmd_histo4(args) -> int:
    S = parse_semigroup(args.semigroup)
    exploration = experiments.multi_generator_histogram(S, args.n)
    if args.csv:
        rows = factorization.histogram_rows(exploration.multiset)
        _emit(_csv_text(["length", "multiplicity"], rows), args.out)
    else:
        fields, ms = _plain(exploration), exploration.multiset
        payload = {"semigroup": fields.pop("semigroup"), "n": fields.pop("n"),
                   "num_factorizations": ms.total, "min": ms.min_length, "max": ms.max_length,
                   **fields}
        _emit(_json_text(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    sg = argparse.ArgumentParser(add_help=False, parents=[common])
    sg.add_argument("-s", "--semigroup", required=True, metavar="LIST",
                    help="comma-separated generators, e.g. 6,9,20")

    parser = argparse.ArgumentParser(
        prog="factorlengths",
        description="Exact factorization-length distributions of numerical semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[sg], help="length statistics of one element")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("histogram", parents=[sg], help="length,multiplicity CSV of one element")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--include-zeros", action="store_true",
                   help="emit every length between the extremes, including zeros")
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("asymptotics", parents=[sg], help="closed-form asymptotic constants")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("model", parents=[sg],
                       help="normalized histogram vs triangular model, CSV x,empirical,model")
    p.add_argument("-k", type=int, default=1, help="multiple of the distinguished scale")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("construct",
                       help="semigroup families with prescribed median arithmetic")
    fam = p.add_subparsers(dest="family", required=True)
    fp = fam.add_parser("pythagorean", parents=[common])
    fp.add_argument("a", type=int)
    fp.add_argument("b", type=int)
    fp.add_argument("c", type=int)
    fp.set_defaults(func=_cmd_construct)
    fs = fam.add_parser("sqrtd", parents=[common])
    fs.add_argument("d", type=int)
    which_t = fs.add_mutually_exclusive_group(required=True)
    which_t.add_argument("t", type=int, nargs="?")
    which_t.add_argument("--t-max", type=int, help="scan all t up to this bound instead")
    fs.set_defaults(func=_cmd_construct)

    p = sub.add_parser("egyptian", parents=[common], help="unit-fraction decompositions")
    p.add_argument("target", help="rational target like 8/11")
    p.add_argument("--terms", type=int, default=4, help="maximum number of terms")
    p.add_argument("--all-3", action="store_true", help="list all 3-term solutions")
    p.set_defaults(func=_cmd_egyptian)

    p = sub.add_parser("sweep", parents=[sg], help="convergence of mean/median ratios, CSV")
    p.add_argument("--points", help="comma-separated elements (default: geometric grid)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[sg], help="run one empirical verifier")
    p.add_argument("check", choices=["mode", "structure", "quasilinear"])
    p.add_argument("--n-max", type=int, default=2000, help="mode check: largest n")
    p.add_argument("--lo", type=int, help="structure check: window start")
    p.add_argument("--hi", type=int, help="structure check: window end")
    p.add_argument("--period", type=int, help="quasilinear probe: test only this period")
    p.add_argument("--start", type=int, help="quasilinear probe: window start")
    p.add_argument("--max-checks", type=int, default=4000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("histo4", parents=[sg],
                       help="many-generator histogram with inflection scan")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="emit histogram CSV instead of JSON")
    p.set_defaults(func=_cmd_histo4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidGenerators, NotInSemigroup, invariants.EmptyMultisetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
