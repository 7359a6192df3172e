"""Command-line interface: formats, exit codes, determinism, round trips."""

import hashlib
import json
from fractions import Fraction

import pytest

from factorlengths.asymptotics import asymptotic_median
from factorlengths.cli import main
from factorlengths.exactnum import QuadNumber
from factorlengths.experiments import ModeTheoremReport
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


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "-s", "3,5,7", "--points", "105,2100")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,mean_ratio,median_ratio,mean_err,median_err"
        assert len(lines) == 3
        assert lines[1].startswith("105,")

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
        (("verify", "quasilinear", "-s", "6,9,20", "--max-checks", "0"), "max_checks", None),
        (("verify", "quasilinear", "-s", "6,9,20", "--max-checks", "-3"), "max_checks", None),
    ], ids=["inverted-structure-window", "zero-terms", "zero-denominator",
            "one-element-structure-window", "zero-t-max", "negative-t-max",
            "zero-max-checks", "negative-max-checks"])
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

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "histo4", "-s", "4,5,6,7", "-n", "240", "--csv")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "length,multiplicity"


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


class TestGoldenBytes:
    """Exact stdout bytes of documented command lines, pinned by SHA-256 so
    refactors of the code paths behind them cannot change any output."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
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
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failed_verification_digest(self, capsys):
        # 50..60 are 11 elements; 60 = 3*20 misses lengths 4, 5 and 6, a low
        # end gap the first half never shows, so the verdict fails
        code, out, err = run(capsys, "verify", "structure", "-s", "6,9,20",
                             "--lo", "50", "--hi", "60")
        assert code == 1, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f5bf5498f9605d31199d7728959ae56e44cc373154a69ed8cc7713a2eeadcc0f"
        )
