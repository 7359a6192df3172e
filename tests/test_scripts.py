"""Smoke runs of the scripts under scripts/, in-process with a patched argv."""

import csv
import pathlib
import runpy
import sys

import pytest

from factorlengths import cli

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_verifications(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "run_verifications.py", "3,5,7")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.endswith("\n0 failures\n")


def test_figure_data(monkeypatch, capsys, tmp_path):
    """Every file is the CLI's stdout for its command line, byte for byte."""
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "figure_data.py", "--out-dir", str(tmp_path))
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.count("wrote ") == 6
    histogram = ["length", "multiplicity"]
    model = ["x", "empirical", "model"]
    expected = {
        "multiplicity_630_3_5_7.csv": (histogram, "histogram -s 3,5,7 -n 630 --include-zeros"),
        "model_3_5_7_k1.csv": (model, "model -s 3,5,7 -k 1"),
        "model_3_5_7_k2.csv": (model, "model -s 3,5,7 -k 2"),
        "model_3_5_7_k3.csv": (model, "model -s 3,5,7 -k 3"),
        "multiplicity_1680_4_5_6_7.csv":
            (histogram, "histogram -s 4,5,6,7 -n 1680 --include-zeros"),
        "multiplicity_2520_5_7_8_9_11.csv":
            (histogram, "histogram -s 5,7,8,9,11 -n 2520 --include-zeros"),
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, (header, argv) in expected.items():
        with (tmp_path / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header and len(rows) > 1, name
        assert cli.main(argv.split()) == 0
        assert (tmp_path / name).read_bytes() == capsys.readouterr().out.encode(), name
