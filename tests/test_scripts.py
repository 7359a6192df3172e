"""Smoke runs of the scripts under scripts/, in-process with a patched argv."""

import csv
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_verifications(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "run_verifications.py", "3,5,7")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.endswith("\n0 failures\n")


def test_figure_data(monkeypatch, tmp_path):
    run_script(monkeypatch, "figure_data.py", "--out-dir", str(tmp_path))
    histogram = ["length", "multiplicity"]
    expected = {
        "multiplicity_630_3_5_7.csv": histogram,
        "model_3_5_7_k1.csv": ["x", "empirical", "model"],
        "model_3_5_7_k2.csv": ["x", "empirical", "model"],
        "model_3_5_7_k3.csv": ["x", "empirical", "model"],
        "multiplicity_1680_4_5_6_7.csv": histogram,
        "multiplicity_2520_5_7_8_9_11.csv": histogram,
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, header in expected.items():
        with (tmp_path / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header and len(rows) > 1, name
