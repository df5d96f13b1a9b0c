"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Runs at the level named by CIS_ACCEPTANCE_LEVEL (quick or full; default
full).  Each test prints its verdict line even on success; run with -s
or -rA to see the full scoreboard.  The last tests check run_one itself
on a stub criterion and a fake clock.
"""

import os
import types

import pytest

from cis import DomainError, acceptance

LEVEL = os.environ.get("CIS_ACCEPTANCE_LEVEL", "full")


def _check(cid: int) -> None:
    res = acceptance.run_one(cid, level=LEVEL)
    status = "PASS" if res.passed else "FAIL"
    line = f"[{cid:>2}] {status} {res.name} ({res.seconds:.1f}s): {res.detail}"
    print(line)
    assert res.passed, line


def test_criterion_01_closed_form_exactness():
    _check(1)


def test_criterion_02_triple_engine_agreement():
    _check(2)


def test_criterion_03_brute_force_oracle():
    _check(3)


def test_criterion_04_approximation_decay():
    _check(4)


def test_criterion_05_spectral_identities():
    _check(5)


def test_criterion_06_bounds_sandwich():
    _check(6)


def test_criterion_07_gilbert_varshamov_codes():
    _check(7)


def test_criterion_08_monte_carlo_vs_closed_form():
    _check(8)


def test_criterion_09_maximal_run_band():
    _check(9)


def test_criterion_10_card_game_scores():
    _check(10)


def test_criterion_11_distribution_identities():
    _check(11)


def test_criterion_12_longest_increasing_subsequence_probe():
    _check(12)


def test_criterion_13_seeded_determinism_across_repeated_runs():
    _check(13)


def test_every_criterion_passes_at_the_quick_level():
    results = acceptance.run_all("quick")
    assert [r.cid for r in results] == list(range(1, 14))
    failed = [f"[{r.cid:>2}] {r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, "\n".join(failed)


@pytest.fixture
def stub(monkeypatch):
    """Run a stub criterion 99, with a 2 s budget, that takes `seconds` on a fake clock."""
    ticks = []
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(perf_counter=lambda: ticks.pop(0)))
    monkeypatch.setitem(acceptance._REGISTRY, 99, ("stub", 2.0, lambda level: (True, f"ok at {level}")))

    def run(seconds, level):
        ticks[:] = [100.0, 100.0 + seconds]
        return acceptance.run_one(99, level)

    return run


@pytest.mark.parametrize("seconds", [2.0, 7.5])
def test_full_level_fails_a_criterion_at_or_past_its_budget(stub, seconds):
    res = stub(seconds, "full")
    assert (res.passed, res.seconds) == (False, seconds)
    assert res.detail == f"ok at full; runtime {seconds:.1f}s exceeded the 2s budget"


def test_budget_verdicts_only_at_the_full_level(stub):
    res = stub(1.5, "full")
    assert (res.passed, res.detail) == (True, "ok at full")
    res = stub(7.5, "quick")
    assert (res.passed, res.detail, res.seconds) == (True, "ok at quick", 7.5)


def test_run_one_refuses_an_unknown_level_or_criterion():
    with pytest.raises(DomainError, match="level must be one of"):
        acceptance.run_one(1, level="medium")
    with pytest.raises(DomainError, match="no criterion 99"):
        acceptance.run_one(99)
