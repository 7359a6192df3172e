"""Command-line front end with stable, scriptable output.

JSON goes to standard output for report-style subcommands; the data-export
subcommands (histogram, model, sweep) emit their documented CSV formats.
Exact values are serialized as fraction strings; decimal columns exist only
for plotting.  This module alone owns the JSON form of results: `_plain`
turns every report into it.  A subcommand returns its exit code and its
output as strings for `main` to write, CSV in chunks of CHUNK_ROWS rows.
Exit codes: 0 success, 1 a verification reported a failure, 2 usage or
validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable

from . import asymptotics, constructions, experiments, factorization, invariants
from .exactnum import QuadNumber
from .semigroup import Semigroup, parse_semigroup, trade_data

CHUNK_ROWS = 65536  # CSV rows formatted into one string before it is written


def _decimal(x) -> str:
    return format(float(x), ".12g")


def _emit(chunks, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _plain(value):
    """JSON form of a result: a Fraction as its string, a QuadNumber as
    {a, b, m, approx}, a Semigroup as its generator list, any other record
    (a NamedTuple) field by field, a dict value by value, a tuple or list as
    a list.  Records are tuples, so they are told apart by `_fields` first."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadNumber):
        return {"a": str(value.a), "b": str(value.b), "m": value.m, "approx": value.approx_str()}
    if isinstance(value, Semigroup):
        return list(value.gens)
    if hasattr(value, "_fields"):
        return _plain(value._asdict())
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def _json_text(payload) -> str:
    return json.dumps(_plain(payload), indent=2) + "\n"


def _csv_chunks(header: str, line: str, rows):
    """The header line, then `line % row` for every row, CHUNK_ROWS rows to
    a string.  No field holds a comma, quote or newline, so none is quoted."""
    yield header
    rows = iter(rows)
    while chunk := "".join(map(line.__mod__, islice(rows, CHUNK_ROWS))):
        yield chunk


def _cmd_invariants(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    return 0, [_json_text(invariants.invariant_report(S, args.n))]


def _cmd_histogram(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    ms = factorization.length_multiset(S, args.n)
    rows = factorization.histogram_rows(ms, include_zeros=args.include_zeros)
    return 0, _csv_chunks("length,multiplicity\n", "%d,%d\n", rows)


def _cmd_asymptotics(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    return 0, [_json_text(asymptotics.asymptotic_constants(S))]


def _cmd_model(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    rows = asymptotics.model_rows(S, args.k)
    return 0, _csv_chunks("x,empirical,model\n", "%.12g,%.12g,%.12g\n", rows)


def _semigroup_payload(S: Semigroup) -> dict:
    """Generator list plus the trade constants of a 3-generator semigroup."""
    trade = trade_data(S)
    return {"gens": _plain(S), "delta": trade.delta, "trade_element": trade.element}


def _construction_payload(S: Semigroup) -> dict:
    constants = asymptotics.asymptotic_constants(S)
    rational = {"is_median_rational": constants.median_constant.is_rational}
    return {"semigroup": _semigroup_payload(S), "constants": {**_plain(constants), **rational}}


def _cmd_construct(args) -> tuple[int, Iterable[str]]:
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
    return 0, [_json_text(payload)]


def _cmd_egyptian(args) -> tuple[int, Iterable[str]]:
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
    return 0, [_json_text(payload)]


def _point(item: str) -> int:
    try:
        return int(item)
    except ValueError:
        raise ValueError(f"--points item {item!r} is not an integer") from None


def _cmd_sweep(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    if args.points is not None:
        points = [_point(item) for item in args.points.split(",")]
    else:
        points = experiments.default_grid(S)
    result = experiments.convergence_sweep(S, points)
    header = "n,mean_ratio,median_ratio,mean_err,median_err\n"
    rows = ((r.n, r.mean_ratio, r.median_ratio, _decimal(r.mean_err), _decimal(r.median_err))
            for r in result.rows)
    return 0, _csv_chunks(header, "%d,%s,%s,%s,%s\n", rows)


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    if args.check == "mode":
        report = experiments.verify_mode_theorem(S, args.n_max)
        fields = report._asdict()
        residuals = fields.pop("residuals")  # only their number is printed
        payload = {**_plain(fields), "residual_classes": len(residuals), "ok": report.ok}
        return (0 if report.ok else 1), [_json_text(payload)]
    if args.check == "structure":
        report = experiments.verify_structure_theorem(S, args.lo, args.hi)
        return (0 if report.ok else 1), [_json_text({**_plain(report), "ok": report.ok})]
    verdict = experiments.probe_median_quasilinearity(
        S,
        periods=[args.period] if args.period is not None else None,
        start=args.start,
        max_checks=args.max_checks,
    )
    return 0, [_json_text(verdict)]


def _cmd_histo4(args) -> tuple[int, Iterable[str]]:
    S = parse_semigroup(args.semigroup)
    exploration = experiments.multi_generator_histogram(S, args.n)
    if args.csv:
        return 0, _csv_chunks("length,multiplicity\n", "%d,%d\n", exploration.multiset.items())
    fields = exploration._asdict()
    ms = fields.pop("multiset")  # printed as its summary, not length by length
    fields = _plain(fields)
    payload = {"semigroup": fields.pop("semigroup"), "n": fields.pop("n"),
               "num_factorizations": ms.total, "min": ms.min_length, "max": ms.max_length,
               **fields}
    return 0, [_json_text(payload)]


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one.

    Reuse is safe: `prog` is fixed, argparse writes usage and help to the
    sys streams of the moment, and each `_cmd_*` looks up package functions
    through module attributes when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, chunks = args.func(args)
        _emit(chunks, args.out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
