"""Smoke tests for the measurement scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

import pytest

from cis import spectral

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kernel", ["l1", "lmax", "safe", "shifting"])
def test_mc_stages_prints_one_line_of_stage_times(kernel, capsys):
    mc_stages = _load("mc_stages")
    assert set(mc_stages.KERNELS) == {"l1", "lmax", "safe", "shifting"}
    mc_stages.main(["--m", "2", "--n", "50", "--trials", "4", "--kernel", kernel])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["m"], record["n"], record["trials"], record["kernel"]) == (2, 50, 4, kernel)
    assert set(record["ms_per_trial"]) == {"rekey", "shuffle", "occ", "kernel"}
    assert all(ms >= 0 for ms in record["ms_per_trial"].values())


def test_mc_stages_times_the_label_scatter_from_n_2_16(capsys):
    mc_stages = _load("mc_stages")
    mc_stages.main(["--m", "2", "--n", "70000", "--trials", "2"])
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 70000
    assert set(record["ms_per_trial"]) == {"rekey", "shuffle", "occ", "kernel"}
    assert all(ms >= 0 for ms in record["ms_per_trial"].values())


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


def test_startup_prints_one_line_per_command(capsys):
    startup = _load("startup")
    startup.main(["--launches", "1", "--commands", "l1-exact-warm", "mc-l1"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["command"] for r in records] == ["l1-exact-warm", "mc-l1"]
    assert all(r["launches"] == 1 and r["median_s"] > 0 for r in records)
    # a cached series record needs neither library; sampling needs numpy only
    assert [(r["numpy"], r["mpmath"]) for r in records] == [(False, False), (True, False)]
