"""Smoke tests for the measurement scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

import pytest

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
