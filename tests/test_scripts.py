"""Smoke tests for the measurement scripts under scripts/."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from cis import SpaceTooLarge, exact, spectral

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kernel", ["l1", "lmax", "safe", "shifting", "lis"])
def test_mc_stages_prints_one_line_of_stage_times(kernel, capsys):
    mc_stages = _load("mc_stages")
    assert set(mc_stages.KERNELS) == {"l1", "lmax", "safe", "shifting", "lis"}
    mc_stages.main(["--m", "2", "--n", "50", "--trials", "4", "--kernel", kernel])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["m"], record["n"], record["trials"], record["kernel"]) == (2, 50, 4, kernel)
    assert set(record["ms_per_trial"]) == {"rekey", "shuffle", "occ", "kernel"}
    assert all(ms >= 0 for ms in record["ms_per_trial"].values())
    assert set(record["faults_per_trial"]) == {"rekey", "shuffle", "occ", "kernel"}
    assert all(f >= 0 for f in record["faults_per_trial"].values())
    if kernel == "lis":
        # the patience sort reads the labels: no occurrence tensor is built
        assert record["ms_per_trial"]["occ"] == record["faults_per_trial"]["occ"] == 0


def test_mc_stages_times_blocks_of_one_long_word(capsys):
    mc_stages = _load("mc_stages")
    mc_stages.main(["--m", "2", "--n", "70000", "--trials", "2"])
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 70000
    assert set(record["ms_per_trial"]) == {"rekey", "shuffle", "occ", "kernel"}
    assert all(ms >= 0 for ms in record["ms_per_trial"].values())
    assert set(record["faults_per_trial"]) == {"rekey", "shuffle", "occ", "kernel"}
    assert all(f >= 0 for f in record["faults_per_trial"].values())


def test_root_stages_prints_one_line_of_stage_times(capsys):
    root_stages = _load("root_stages")
    root_stages.main(["--m", "6", "--bits", "64", "--repeat", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["m"], record["bits"], record["repeat"]) == (6, 64, 2)
    assert 1 <= record["sweeps"] <= 4
    stages = {"double", "sweeps", "residuals", "certify", "other", "power_sums", "find_roots"}
    assert set(record["ms"]) == stages
    assert all(record["ms"][s] >= 0 for s in stages - {"other"})
    # the stage functions are restored
    assert spectral._aberth_fixed.__module__ == "cis.spectral"


def test_l1_table_prints_and_writes_one_row_per_m(capsys, tmp_path):
    l1_table = _load("l1_table")
    out = tmp_path / "table.csv"
    l1_table.main(["--m-max", "2", "--csv", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("m= 1") and lines[1].startswith("m= 2")
    assert lines[2] == f"wrote 2 rows to {out}"
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [1, 2]
    # the series and the closed form are two routes to one value
    assert all(abs(float(r["series_minus_closed"])) < 1e-9 for r in rows)


def _l1_table_rows(l1_table, capsys, tmp_path):
    out = tmp_path / "table.csv"
    l1_table.main(["--m-max", "2", "--csv", str(out)])
    lines = capsys.readouterr().out.splitlines()
    with open(out, newline="", encoding="utf-8") as fh:
        return lines, list(csv.DictReader(fh))


def test_l1_table_leaves_a_refused_series_empty(capsys, tmp_path, monkeypatch):
    l1_table = _load("l1_table")
    full_lines, full_rows = _l1_table_rows(l1_table, capsys, tmp_path)
    # m = 2 needs degree 9 by its stopping rule's first index
    monkeypatch.setattr(exact, "SERIES_DEGREE_CAP", 8)
    lines, rows = _l1_table_rows(l1_table, capsys, tmp_path)
    assert lines[0] == full_lines[0] and rows[0] == full_rows[0]
    assert lines[1].startswith("m= 2  series=-  closed=") and "s-c=-  c-a=" in lines[1]
    assert lines[2] == full_lines[2]
    empty = ("series", "series_minus_closed", "terms_used")
    assert all(rows[1][k] == "" for k in empty)
    assert {k: v for k, v in rows[1].items() if k not in empty} == {
        k: v for k, v in full_rows[1].items() if k not in empty}


def test_l1_table_leaves_a_refused_closed_form_empty(capsys, tmp_path, monkeypatch):
    l1_table = _load("l1_table")
    full_lines, full_rows = _l1_table_rows(l1_table, capsys, tmp_path)
    closed_form = l1_table.l1_closed_form

    def refuse_m_2(m):
        if m == 2:
            raise SpaceTooLarge("l1_closed_form at m=2 is past the cap")
        return closed_form(m)

    monkeypatch.setattr(l1_table, "l1_closed_form", refuse_m_2)
    lines, rows = _l1_table_rows(l1_table, capsys, tmp_path)
    assert lines[0] == full_lines[0] and "closed=-" in lines[1] and "s-c=-  c-a=-" in lines[1]
    empty = ("closed", "series_minus_closed", "closed_minus_approx")
    assert rows[0] == full_rows[0] and all(rows[1][k] == "" for k in empty)
    assert rows[1]["series"] == full_rows[1]["series"]


def test_startup_prints_one_line_per_command(capsys):
    startup = _load("startup")
    startup.main(["--launches", "1", "--commands", "l1-exact-warm", "mc-l1"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["command"] for r in records] == ["l1-exact-warm", "mc-l1"]
    assert all(r["launches"] == 1 and r["median_s"] > 0 for r in records)
    # a cached series record needs neither library; sampling needs numpy only
    assert [(r["numpy"], r["mpmath"]) for r in records] == [(False, False), (True, False)]
