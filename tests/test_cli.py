"""Command-line interface: formats, exit codes, determinism, round trips."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from factorlengths import (
    asymptotics, cli, constructions, experiments, factorization, invariants, semigroup,
)
from factorlengths.asymptotics import asymptotic_median
from factorlengths.cli import main
from factorlengths.exactnum import QuadNumber
from factorlengths.experiments import ModeTheoremReport
from factorlengths.factorization import LengthMultiset
from factorlengths.semigroup import make_semigroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "invariants", "-s", "6,9,20", "-n", "132")
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == "221/14"
        assert payload["median"] == "31/2"
        assert payload["mode_lengths"] == [15]
        assert payload["num_factorizations"] == 14

    def test_round_trip_exact(self, capsys):
        _, out, _ = run(capsys, "invariants", "-s", "6,9,20", "-n", "132")
        payload = json.loads(out)
        assert Fraction(payload["mean"]) == Fraction(221, 14)
        assert tuple(payload["mode_lengths"]) == (15,)

    def test_nonmember_exits_2(self, capsys):
        code, out, err = run(capsys, "invariants", "-s", "6,9,20", "-n", "7")
        assert code == 2
        assert "not in semigroup" in err
        assert out == ""

    def test_bad_generators_exit_2(self, capsys):
        code, _, err = run(capsys, "invariants", "-s", "2,4", "-n", "8")
        assert code == 2 and "gcd" in err

    @pytest.mark.parametrize("gens", ["4,7", "6,9,20", "4,5,6,7"])
    def test_more_candidate_lengths_than_maxsize_exit_2(self, capsys, gens):
        """n = 10**21 has more candidate lengths than a list can hold, at k = 2, 3 and 4."""
        n = str(10**21)
        code, out, err = run(capsys, "invariants", "-s", gens, "-n", n)
        assert code == 2 and out == ""
        assert err.startswith("error:") and n in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, gens, N", [
        ("invariants", "4,7", 357142857142857143),
        ("histogram", "6,9,20", 1166666666666666667),
    ])
    def test_candidate_cap_exits_2_before_allocating(self, capsys, command, gens, N):
        """Below sys.maxsize but far beyond memory: refused before any list
        is built, not a MemoryError or a process killed for its memory."""
        n = 10**19
        code, out, err = run(capsys, command, "-s", gens, "-n", str(n))
        cap = factorization.MAX_CANDIDATES
        assert (code, out) == (2, "")
        assert err == f"error: n = {n} has {N} candidate lengths, over the cap of {cap}\n"

    @pytest.mark.parametrize("gens, n, N", [("4,7", 100, 4), ("6,9,20", 132, 16),
                                            ("4,5,6,7", 60, 7)])
    def test_candidate_cap_is_inclusive(self, capsys, monkeypatch, gens, n, N):
        """n has N candidate lengths: a cap of N lets it through, N - 1 does not."""
        monkeypatch.setattr(factorization, "MAX_CANDIDATES", N)
        code, out, _ = run(capsys, "invariants", "-s", gens, "-n", str(n))
        assert code == 0 and json.loads(out)["n"] == n
        monkeypatch.setattr(factorization, "MAX_CANDIDATES", N - 1)
        code, out, err = run(capsys, "invariants", "-s", gens, "-n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: n = {n} has {N} candidate lengths, over the cap of {N - 1}\n"


class TestHistogram:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "histogram", "-s", "6,9,20", "-n", "132")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "length,multiplicity"
        assert lines[1] == "8,1"
        assert "15,2" in lines
        assert "9,0" not in lines

    def test_include_zeros(self, capsys):
        _, out, _ = run(capsys, "histogram", "-s", "6,9,20", "-n", "132", "--include-zeros")
        lines = out.strip().splitlines()
        assert "9,0" in lines and "10,0" in lines
        assert len(lines) == 16  # header + 15 lengths

    def test_fig1_zero_pattern(self, capsys):
        _, out, _ = run(capsys, "histogram", "-s", "3,5,7", "-n", "630", "--include-zeros")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for length, mult in rows:
            if int(length) % 2 == 1:
                assert mult == "0"


class TestAsymptotics:
    def test_harmonic(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "-s", "3,4,6")
        payload = json.loads(out)
        assert code == 0
        assert payload["harmonic_case"] is True
        assert payload["mean_constant"] == "1/4"
        assert payload["median_constant"]["a"] == "1/4"
        assert payload["median_constant"]["b"] == "0"

    def test_median_round_trip(self, capsys):
        _, out, _ = run(capsys, "asymptotics", "-s", "48,49,50")
        payload = json.loads(out)
        median = payload["median_constant"]
        reconstructed = QuadNumber(Fraction(median["a"]), Fraction(median["b"]), median["m"])
        assert reconstructed == asymptotic_median(make_semigroup([48, 49, 50]))


class TestModel:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "model", "-s", "3,5,7", "-k", "1")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "x,empirical,model"
        assert len(lines) > 100

    @pytest.mark.parametrize("argv, message", [
        ("-s 3,5 -k 1", "operation requires exactly 3 generators, got 2"),
        ("-s 3,5,7,11 -k 1", "operation requires exactly 3 generators, got 4"),
        ("-s 3,5,7 -k 0", "scale index must be >= 1, got 0"),
        ("-s 3,5,7 -k -1", "scale index must be >= 1, got -1"),
    ])
    def test_errors_before_any_output(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "model", *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")
        path = tmp_path / "model.csv"
        code, out, err = run(capsys, "model", *argv.split(), "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()


class TestConstruct:
    def test_pythagorean(self, capsys):
        code, out, _ = run(capsys, "construct", "pythagorean", "4", "3", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["semigroup"]["gens"] == [7, 16, 25]
        assert payload["constants"]["median_constant"]["a"] == "11/140"
        assert payload["constants"]["is_median_rational"] is True

    def test_sqrtd_accepted(self, capsys):
        code, out, _ = run(capsys, "construct", "sqrtd", "2", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["semigroup"]["gens"] == [48, 49, 50]
        assert payload["constants"]["median_constant"]["m"] == 2
        assert payload["constants"]["is_median_rational"] is False

    def test_sqrtd_rejected(self, capsys):
        code, out, _ = run(capsys, "construct", "sqrtd", "2", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["rejected"] is True and payload["reason"] == "too_small"

    def test_sqrtd_parameter_scan(self, capsys):
        code, out, _ = run(capsys, "construct", "sqrtd", "2", "--t-max", "10")
        payload = json.loads(out)
        assert code == 0
        assert payload["accepted_t"] == [4, 5, 8]
        assert [48, 49, 50] in [s["gens"] for s in payload["semigroups"]]

    def test_sqrtd_needs_t_or_scan(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["construct", "sqrtd", "2"])
        assert exit_info.value.code == 2 and "t-max" in capsys.readouterr().err

    def test_out_after_family_arguments(self, capsys, tmp_path):
        path = tmp_path / "construct.json"
        code, out, _ = run(capsys, "construct", "pythagorean", "4", "3", "5", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["semigroup"]["gens"] == [7, 16, 25]

    def test_out_before_family_exit_2(self, capsys, tmp_path):
        path = tmp_path / "construct.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["construct", "--out", str(path), "pythagorean", "4", "3", "5"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""
        assert not path.exists()

    def test_invalid_triple_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "pythagorean", "3", "4", "5")
        assert code == 2 and "a > b" in err


class TestEgyptian:
    def test_all_three_empty(self, capsys):
        code, out, _ = run(capsys, "egyptian", "8/11", "--all-3")
        payload = json.loads(out)
        assert code == 0 and payload["three_term_solutions"] == []

    def test_decomposition(self, capsys):
        _, out, _ = run(capsys, "egyptian", "8/11", "--terms", "4")
        payload = json.loads(out)
        assert payload["decomposition"] == [2, 5, 37, 4070]

    def test_whole_target_fits_its_term_cap(self, capsys):
        code, out, _ = run(capsys, "egyptian", "1", "--terms", "1")
        assert code == 0 and json.loads(out)["decomposition"] == [1]


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "-s", "3,5,7", "--points", "105,2100")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,mean_ratio,median_ratio,mean_err,median_err"
        assert len(lines) == 3
        assert lines[1].startswith("105,")

    def test_default_grid_keeps_four_rows_for_wide_generators(self, capsys):
        # the element nearest to 100 is 0; the sweep takes 250 instead
        code, out, _ = run(capsys, "sweep", "-s", "250,251,253")
        lines = out.strip().splitlines()
        assert code == 0
        assert [line.split(",")[0] for line in lines[1:]] == ["250", "1000", "10000", "100000"]

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "-s", "3,5,7", "--points", "105,210", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_mode_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "mode", "-s", "3,5,7", "--n-max", "200")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_mode_json_counts_residuals_without_listing_them(self, capsys):
        code, out, _ = run(capsys, "verify", "mode", "-s", "3,5,7", "--n-max", "200")
        assert code == 0
        assert list(json.loads(out)) == ["semigroup", "period", "mode_shift", "n_max", "checked",
                                         "failures", "residual_classes", "ok"]

    def test_structure_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "structure", "-s", "3,5,7")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_quasilinear_verdicts(self, capsys):
        code, out, _ = run(capsys, "verify", "quasilinear", "-s", "12,15,20")
        assert code == 0
        assert json.loads(out)["verdict"] == "quasilinear"
        code, out, _ = run(capsys, "verify", "quasilinear", "-s", "7,16,25")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "not_quasilinear"
        assert payload["witness"] is not None

    @pytest.mark.parametrize("period", ["-5", "0"])
    def test_non_positive_period_exit_2(self, capsys, period):
        code, out, err = run(capsys, "verify", "quasilinear", "-s", "7,16,25", "--period", period)
        assert code == 2 and out == ""
        assert "positive" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        import factorlengths.cli as climod

        failing = ModeTheoremReport(
            semigroup=make_semigroup([3, 5, 7]), period=10, mode_shift=2, n_max=0,
            checked=1, failures=((0, "planted"),), residuals={},
        )
        monkeypatch.setattr(
            climod.experiments, "verify_mode_theorem", lambda S, n_max: failing
        )
        code, out, _ = run(capsys, "verify", "mode", "-s", "3,5,7")
        assert code == 1
        assert json.loads(out)["failures"] == [[0, "planted"]]

    @pytest.mark.parametrize("n_max", ["-5", "-1"])
    def test_negative_n_max_exit_2(self, capsys, n_max):
        code, out, err = run(capsys, "verify", "mode", "-s", "6,9,20", "--n-max", n_max)
        assert code == 2 and out == ""
        assert "n_max" in err

    @pytest.mark.parametrize("check", ["mode", "structure", "quasilinear"])
    @pytest.mark.parametrize("gens, k", [("3,5", 2), ("4,5,6,7", 4)])
    def test_needs_three_generators_exit_2(self, capsys, check, gens, k):
        code, out, err = run(capsys, "verify", check, "-s", gens)
        assert (code, out) == (2, "")
        assert err == f"error: operation requires exactly 3 generators, got {k}\n"

    def test_empty_quasilinear_window_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "verify", "quasilinear", "-s", "7,16,25",
                           "--start", "-100", "--period", "32")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "inconclusive"
        assert payload["probes"][0]["checked"] == 0
        assert payload["probes"][0]["window_exhausted"] is False


class TestUsageErrors:
    """Bad input exits 2 with one error line naming the bad value."""

    @pytest.mark.parametrize("argv,named,not_named", [
        (("verify", "structure", "-s", "6,9,20", "--lo", "500", "--hi", "100"), "n_lo", None),
        (("egyptian", "8/11", "--terms", "0"), "max_terms", "target"),
        (("egyptian", "1/0"), "zero denominator", None),
        (("verify", "structure", "-s", "6,9,20", "--lo", "100", "--hi", "100"), "at least 2", None),
        (("construct", "sqrtd", "2", "--t-max", "0"), "t_max", None),
        (("construct", "sqrtd", "2", "--t-max", "-3"), "t_max", None),
        (("construct", "sqrtd", "2", "0"), "need t >= 1, got 0", None),
        (("verify", "quasilinear", "-s", "6,9,20", "--max-checks", "0"), "max_checks", None),
        (("verify", "quasilinear", "-s", "6,9,20", "--max-checks", "-3"), "max_checks", None),
        (("sweep", "-s", "3,5,7", "--points", ","), "--points item ''", "invalid literal"),
        (("sweep", "-s", "3,5,7", "--points", ""), "--points item '' is not an integer", None),
        (("sweep", "-s", "3,5,7", "--points", "5,x"), "--points item 'x'", "invalid literal"),
        (("sweep", "-s", "3,5,7", "--points", "100,2.5"), "--points item '2.5'", "invalid literal"),
    ], ids=["inverted-structure-window", "zero-terms", "zero-denominator",
            "one-element-structure-window", "zero-t-max", "negative-t-max", "zero-t",
            "zero-max-checks", "negative-max-checks", "empty-points-items", "empty-points",
            "non-integer-point", "fractional-point"])
    def test_usage_errors_exit_2(self, capsys, argv, named, not_named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert named in err
        if not_named:
            assert not_named not in err

    @pytest.mark.parametrize("argv,named", [
        (("construct", "sqrtd", "2", "5", "--t-max", "10"), "not allowed with argument t"),
        (("construct", "sqrtd", "2"), "one of the arguments t --t-max is required"),
    ], ids=["t-and-t-max", "neither-t-nor-t-max"])
    def test_parser_errors_exit_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert named in captured.err and "Traceback" not in captured.err


class TestHisto4:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "histo4", "-s", "4,5,6,7", "-n", "1680")
        payload = json.loads(out)
        assert code == 0
        assert 280 in payload["inflection_candidates"]
        assert 336 in payload["inflection_candidates"]

    def test_json_summarizes_the_multiset(self, capsys):
        code, out, _ = run(capsys, "histo4", "-s", "4,5,6,7", "-n", "240")
        assert code == 0
        assert list(json.loads(out)) == ["semigroup", "n", "num_factorizations", "min", "max",
                                         "grid_step", "inflection_candidates", "peak_lengths",
                                         "peak_multiplicity"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "histo4", "-s", "4,5,6,7", "-n", "240", "--csv")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "length,multiplicity"


# Every plain result record and its fields, in order: the JSON keys.
RECORD_FIELDS = {
    semigroup.TradeData: ("low", "mid", "high", "element", "delta"),
    invariants.InvariantReport: ("n", "min", "max", "mean", "median", "mode_lengths",
                                 "mode_freq", "num_factorizations"),
    asymptotics.AsymptoticConstants: ("F", "mean_constant", "median_constant", "harmonic_case"),
    asymptotics.ScaledSequence: ("k", "scale", "min_len", "max_len", "mode_len", "num_trades",
                                 "semigroup", "trade"),
    asymptotics.TriangularModel: ("peak", "mean", "median"),
    asymptotics.EnvelopeReport: ("k", "pointwise_ok", "max_pointwise_gap", "max_step_gap"),
    experiments.ConvergenceRow: ("n", "mean_ratio", "median_ratio", "mean_err", "median_err"),
    experiments.SweepResult: ("semigroup", "mean_constant", "median_constant", "rows", "skipped"),
    experiments.ModeTheoremReport: ("semigroup", "period", "mode_shift", "n_max", "checked",
                                    "failures", "residuals"),
    experiments.StructureReport: ("semigroup", "delta", "window", "checked", "max_low_extent",
                                  "max_high_extent", "bounded", "violations"),
    experiments.PeriodProbe: ("period", "window", "checked", "witness", "window_exhausted"),
    experiments.QuasilinearityVerdict: ("semigroup", "verdict", "period_tested", "window",
                                        "witness", "start_threshold", "max_checks", "probes"),
    experiments.HistogramExploration: ("semigroup", "n", "multiset", "grid_step",
                                       "inflection_candidates", "peak_lengths",
                                       "peak_multiplicity"),
    constructions.ConstructionRejection: ("reason", "detail", "floor_value"),
}


class TestRecords:
    """Result records are NamedTuples: built by keyword, equal by value,
    closed to field assignment, and written by `_plain` as JSON objects."""

    def test_every_plain_record_is_listed(self):
        found = {
            value for module in (semigroup, invariants, asymptotics, experiments, constructions)
            for value in vars(module).values()
            if isinstance(value, type) and hasattr(value, "_fields")
            and value.__module__ == module.__name__
        }
        assert found - {semigroup.Semigroup} == set(RECORD_FIELDS)

    @pytest.mark.parametrize("record_type", RECORD_FIELDS, ids=lambda cls: cls.__name__)
    def test_built_by_keyword(self, record_type):
        names = RECORD_FIELDS[record_type]
        assert record_type._fields == names
        record = record_type(**{name: index for index, name in enumerate(names)})
        assert [getattr(record, name) for name in names] == list(range(len(names)))
        assert record == record_type(*range(len(names)))
        with pytest.raises(AttributeError):
            setattr(record, names[0], -1)
        assert cli._plain(record) == {name: index for index, name in enumerate(names)}

    def test_length_multiset(self):
        ms = LengthMultiset(lengths=range(3, 7), counts=[1, 0, 2, 1], total=4)
        assert ms == LengthMultiset(range(3, 7), [1, 0, 2, 1], 4)
        assert invariants.median_length(ms) == 5
        assert invariants.mean_length(ms) == Fraction(19, 4)
        assert not hasattr(ms, "__dict__")
        with pytest.raises(AttributeError):
            ms.total = 5
        assert ms.total == 4


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "invariants", "-s", "6,9,20", "-n", "132", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["mean"] == "221/14"

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "asymptotics", "-s", "48,49,50")
        _, second, _ = run(capsys, "asymptotics", "-s", "48,49,50")
        assert first == second


GOLDEN_DIGESTS = [
    ("sweep -s 3,5,7",
     "a45675ab2567e754e3c4664a0584a2944057d206daaf726f0a87d5d997cddfd8"),
    ("sweep -s 48,49,50",
     "7e40aec3cb5dcb7d4859bf91f161c2988a21b4821a07626268fd9ced049a918e"),
    ("sweep -s 3,4,6",
     "610409b10c3ec48f21fc26c286f69041f419b6de4bedb51bf9145470fe3b630b"),
    ("verify mode -s 6,9,20 --n-max 2000",
     "a8c58ccb70f12e252e83ab9a911cc9b2df79382f6305902a673f2f32ca08bf45"),
    ("verify structure -s 6,9,20",
     "686f2179329afa3a839796d8d33177da357628290f961b854c367e15fbd82162"),
    ("verify structure -s 7,16,25",
     "4b2e0b79502d8a972c07c74416717577982cca4ffbe32eac9397697c87a8d0c1"),
    ("invariants -s 6,9,20 -n 132",
     "57feef7e24b7d1cba74480d81223e2f7fa022a64da75367a67e85a8ed4173f7f"),
    ("asymptotics -s 48,49,50",
     "30c1d0cea0282bec65cf1e0739ae5c80c09fd823873faa9c92fe32ef790be438"),
    ("histogram -s 3,5,7 -n 630 --include-zeros",
     "c057808d681cd10709620d8e15a9ba690cfa304489c2bbdc8abe6b217c434a98"),
    ("model -s 3,5,7 -k 2",
     "0b03de1714912ea4e1817487c16e8f0e6f2a54af814f1f1751a16cb794e1a2b5"),
    # the largest model query of the benchmark; F = 1/2, whose peak row
    # prints 2; delta = 9, midpoints 9/(2*span) off their lengths; a
    # narrow semigroup; k = 3
    ("model -s 6,9,20 -k 1",
     "500a0e094e4c109a2fdaf10a9e810827ff25ba7aa8a56a6b9ccaabfe54aa7d99"),
    ("model -s 12,15,20 -k 1",
     "e0e667d594b24f39237dfc44ebb1b43ee5933bb3ecefc7fccfda9aa1e10f5d6d"),
    ("model -s 7,16,25 -k 1",
     "244b3abe4246030451943481f24f16360f9a5e93409eb20d6d2a08fac7c623db"),
    ("model -s 48,49,50 -k 1",
     "7d9a7a813a54327f0fb346165697e1c0119b69677ce0cb86401e72416fb0cc36"),
    ("model -s 5,8,13 -k 3",
     "8e86b442043886fe9c153984cb8331ed8cced7ffbc0e71644cfaaa1f30279ca1"),
    ("construct pythagorean 4 3 5",
     "082c84af1e1af28f55a64dc417b18068c10c9805f1db63bb9ea23c4d94c021fb"),
    ("construct sqrtd 2 5",
     "963c86889932e47a1fe598dcb9864322cb3dd620317452f8f57cb1997dfabe88"),
    ("egyptian 8/11 --terms 4",
     "7a3895a8816f65d76fe0ced50aa62f479690851c063aeb94b9735853dfe8c0fb"),
    ("histo4 -s 4,5,6,7 -n 1680",
     "272e4f4dd31e38da8a067f4bc9535e7471e5152668df5b3153b0dd405991b9db"),
    # the three verdicts: not_quasilinear, quasilinear, inconclusive
    ("verify quasilinear -s 7,16,25",
     "b1a1880fca835731ef583ea2595335264552279a4f43cf22ac8ccefdbb5d3bac"),
    ("verify quasilinear -s 12,15,20",
     "d728a1bc1b5a28b53f67b7551a7b403734ceb5e3b6428fc3fc1791c69af15972"),
    ("verify quasilinear -s 12,15,20 --max-checks 5",
     "8f891dc6e15344dd5c776c6985f9db20b3339969edcd4224a01f3cd6da47a563"),
    ("verify quasilinear -s 7,16,25 --period 2800",
     "2fd1013b912a00d9572213c56ce830c11b3dbf926d642cd0c376adfc80d7bcd7"),
    ("verify quasilinear -s 6,9,20 --start 2000",
     "d9303e19a430699d08d0a3c909f30b79accb6f0c5ca377682f27dd6381b74d4a"),
    ("verify quasilinear -s 3,4,6",
     "74fce5200341844f60d69392db396e2d4bcae50db21f7ab75bc8d2ef04ee8ec3"),
    # skipped points print no row
    ("sweep -s 6,9,20 --points 131,132,7,0",
     "cd442d08084ee8dd066467e8e80c7af02351e96fe7571fd3601015af95d39b12"),
    # every JSON shape: rejection, parameter scan, k = 2 and k = 4
    # reports, n = 0, a rational median, a wide histo4
    ("construct sqrtd 2 2",
     "3cbf2ca5a88f41c972b9f3a8e722f28751bab7bf5b58810485d450dbb0499c57"),
    ("construct sqrtd 2 --t-max 10",
     "224650d422029f24823ec5b48b88e4e8256af79d36307c672f12b699f270f86d"),
    ("egyptian 8/11 --all-3",
     "b899893e1e58d9c3014661af042b66d9f5384d14e155aeb55d091d9cda4a0c74"),
    ("invariants -s 4,5,6,7 -n 300",
     "feab8755a855ef7d74b03b9ab7cf1b8d5afa546c180012f29423a99b680936ce"),
    ("invariants -s 5,7 -n 200",
     "7bcd9259755edd269fa4dc7595102e70c9d5e4a64463a7b9ab602391da677879"),
    ("invariants -s 3,5,7 -n 0",
     "520e33070c7b1b6649e87ae2b24e99cb003541594a9e3da03f0d25dbd036a5c6"),
    ("asymptotics -s 3,4,6",
     "2c7b7a3f750cd614a39acefdb96515bc4efb9a05885840e99e16b57d99c1b7da"),
    ("histo4 -s 5,7,8,9,11 -n 2520",
     "f5a70e0040734fec196a5144424d15a83f099a604bb737ebd0663964b65450b2"),
    # an empty range below every nonzero element still checks n = 0
    ("verify mode -s 6,9,20 --n-max 0",
     "2518d653ec2a5714c70ad2eb45fbf755987406dae6078c72aaba705bbf983302"),
    # CSV rows without zeros, with zeros at delta 9, and from histo4
    ("histogram -s 6,9,20 -n 100000",
     "5d977e4dc5a98d7821b44efa5d05360b501cecbdde2e8fee6715812a03a70a2f"),
    ("histogram -s 7,16,25 -n 20000 --include-zeros",
     "bff318af0666dceaec344da637726735c51db4a81acff903e7dd1151b6355165"),
    ("histo4 -s 4,5,6,7 -n 240 --csv",
     "bc1a933d72a0dbfc92860b1cd2615e5268897ee8ef3036e65166a5396dbd607e"),
    # k >= 4 through reduced semigroups: a factor 2 shared at two levels,
    # delta 3 at k = 4, and a mid-size k = 4 report; k = 2 with delta 3
    ("histo4 -s 8,12,16,18,19 -n 1500",
     "1d45163af30c72247ca7e67eb4b7a038beeca0a00257c09c70dd4a5637eacc7b"),
    ("histogram -s 7,10,13,16 -n 2000 --include-zeros",
     "cbed82fc8e855f98cc75e48a62ce4e020b8db32fc574c15a0feb75d67dca0ce3"),
    ("invariants -s 5,7,8,9 -n 30000",
     "816843b036a84ae9cb13b2a214adc75d78e974cdef6ab8cf03cc01a39f66f711"),
    ("histogram -s 4,7 -n 1000 --include-zeros",
     "d5f4ec5152a67a21022ff82c29f1e76a97a4d93bfb1bb1ada21cffb1750bdd64"),
]


class TestGoldenBytes:
    """Exact stdout bytes of documented command lines, pinned by SHA-256 so
    refactors of the code paths behind them cannot change any output."""

    @pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_out_file_digest(self, capsys, tmp_path):
        # 116,660 rows: more than one chunk of cli.CHUNK_ROWS rows
        path = tmp_path / "histogram.csv"
        code, out, err = run(capsys, "histogram", "-s", "6,9,20", "-n", "1000000", "--out", str(path))
        assert code == 0 and out == "", err
        assert path.read_text().count("\n") > cli.CHUNK_ROWS + 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d2945a08ac120dde157a7998b6e0b820dc069fcb93fdab84987fba4855de3b8c"
        )

    def test_model_out_file_digest(self, capsys, tmp_path):
        path = tmp_path / "model.csv"
        code, out, err = run(capsys, "model", "-s", "5,8,13", "-k", "2", "--out", str(path))
        assert code == 0 and out == "", err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "34b269270777ce17830e78f197dce5fd7721fecfd91edbfd1d4d68ffd1bc0bda"
        )

    def test_failed_verification_digest(self, capsys):
        # 50..60 are 11 elements; 60 = 3*20 misses lengths 4, 5 and 6, a low
        # end gap the first half never shows, so the verdict fails
        code, out, err = run(capsys, "verify", "structure", "-s", "6,9,20",
                             "--lo", "50", "--hi", "60")
        assert code == 1, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f5bf5498f9605d31199d7728959ae56e44cc373154a69ed8cc7713a2eeadcc0f"
        )


@pytest.fixture
def fresh_parser():
    """The next `main` call builds the parser, as the first call in a process does."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def parser_error(capsys, *argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    return captured.err


class TestReusedParser:
    """`main` builds its parser once per process; later calls reuse it."""

    def test_built_once(self, capsys, monkeypatch, fresh_parser):
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(3):
            assert run(capsys, "invariants", "-s", "6,9,20", "-n", "132")[0] == 0
            assert run(capsys, "invariants", "-s", "6,9,20", "-n", "7")[0] == 2
            parser_error(capsys, "construct", "sqrtd", "2")
        assert len(builds) == 1

    def test_golden_bytes_in_reverse_among_errors(self, capsys):
        for argv, digest in reversed(GOLDEN_DIGESTS):
            code, out, err = run(capsys, "invariants", "-s", "6,9,20", "-n", "7")
            assert code == 2 and out == "" and "not in semigroup" in err
            assert "not allowed with argument t" in parser_error(
                capsys, "construct", "sqrtd", "2", "5", "--t-max", "10")
            code, out, err = run(capsys, *argv.split())
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_parser_error_same_on_first_and_later_calls(self, capsys, monkeypatch,
                                                        fresh_parser):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ("construct", "sqrtd", "2")
        first = parser_error(capsys, *argv)
        run(capsys, "asymptotics", "-s", "48,49,50")
        run(capsys, "sweep", "-s", "3,5,7", "--points", ",")
        parser_error(capsys, "sweep", "-s", "3,5,7", "--jobs", "2")
        assert parser_error(capsys, *argv) == first
        assert "one of the arguments t --t-max is required" in first
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
        fresh = subprocess.run([sys.executable, "-m", "factorlengths.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert fresh.returncode == 2 and fresh.stderr == first
