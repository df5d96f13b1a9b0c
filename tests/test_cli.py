"""End-to-end checks of the command line: records, caching, exit codes."""

import json
import math
import time
import types

import mpmath as mp
import numpy as np
import pytest

from cis import cardgame, cli, exact, montecarlo
from cis.cache import cache_get, cache_put


def test_prob_complete_json_record(run_cli):
    code, out = run_cli("prob-complete", "--m", "2", "--n", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == 1
    assert rec["quantity"] == "prob-complete"
    assert rec["params"] == {"m": 2, "n": 2, "engine": "gf"}
    assert rec["value"] == "5/6"
    assert rec["meta"]["approx"] == pytest.approx(5 / 6)
    assert rec["meta"]["cached"] is False
    assert "timestamp" in rec["meta"]


def test_second_run_is_served_from_cache(run_cli, tmp_path):
    _, first = run_cli("l1-closed", "--m", "2")
    code, second = run_cli("l1-closed", "--m", "2")
    assert code == 0
    rec1, rec2 = json.loads(first), json.loads(second)
    assert rec1["meta"]["cached"] is False
    assert rec2["meta"]["cached"] is True
    assert rec1["value"] == rec2["value"]
    assert len(list((tmp_path / "cache").rglob("*.json"))) == 1


def test_gv_code_is_served_from_cache(run_cli):
    argv = ("bounds", "gv-code", "--m", "2", "--n", "8", "--delta", "3")
    rec1, rec2 = (json.loads(run_cli(*argv)[1]) for _ in range(2))
    assert (rec1["meta"]["cached"], rec2["meta"]["cached"]) == (False, True)
    for rec in (rec1, rec2):
        del rec["meta"]["timestamp"], rec["meta"]["cached"]
    assert rec1 == rec2


def test_corrupt_cache_entry_is_recomputed(run_cli, tmp_path, capsys):
    run_cli("prob-complete", "--m", "2", "--n", "3")
    (entry,) = (tmp_path / "cache").rglob("*.json")
    entry.write_text("{this is not json", encoding="utf-8")
    capsys.readouterr()
    code, out = run_cli("prob-complete", "--m", "2", "--n", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["meta"]["cached"] is False
    assert "corrupt cache entry" in capsys.readouterr().err


def test_cache_entry_of_another_quantity_is_a_miss(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CIS_CACHE_DIR", str(tmp_path))
    params = {"m": 2, "n": 3, "engine": "gf"}
    cache_put("prob-complete", params, "0.3.0", {"quantity": "l1-exact", "value": "1"})
    assert cache_get("prob-complete", params, "0.3.0") is None
    err = capsys.readouterr().err
    assert err.startswith("warning: ignoring corrupt cache entry") and err.count("\n") == 1
    assert "record does not match its key" in err


def test_unwritable_cache_directory_is_only_a_warning(run_cli, tmp_path, monkeypatch, capsys):
    # no directory can be made below a regular file, whoever runs the test
    (tmp_path / "file").write_text("", encoding="utf-8")
    monkeypatch.setenv("CIS_CACHE_DIR", str(tmp_path / "file" / "cache"))
    code, out = run_cli("prob-complete", "--m", "2", "--n", "3")
    assert (code, json.loads(out)["value"]) == (0, str(exact.complete_prob(2, 3)))
    err = capsys.readouterr().err
    assert err.startswith("warning: could not write cache entry") and err.count("\n") == 1


def test_cache_is_keyed_by_version(run_cli, monkeypatch):
    run_cli("l1-exact", "--m", "1")
    _, hit = run_cli("l1-exact", "--m", "1")
    assert json.loads(hit)["meta"]["cached"] is True
    monkeypatch.setattr(cli, "__version__", "0.0.0+test")
    _, miss = run_cli("l1-exact", "--m", "1")
    assert json.loads(miss)["meta"]["cached"] is False


def test_seedless_monte_carlo_is_not_cached(run_cli, tmp_path):
    code, out = run_cli("mc", "l1", "--m", "2", "--n", "4", "--trials", "64")
    assert code == 0
    rec = json.loads(out)
    assert rec["meta"]["cached"] is False
    assert isinstance(rec["meta"]["seed"], int)
    assert not list((tmp_path / "cache").rglob("*.json"))


def test_seeded_monte_carlo_caches_and_replays(run_cli):
    _, first = run_cli("mc", "l1", "--m", "2", "--n", "4", "--trials", "64", "--seed", "7")
    _, second = run_cli("mc", "l1", "--m", "2", "--n", "4", "--trials", "64", "--seed", "7")
    rec1, rec2 = json.loads(first), json.loads(second)
    assert rec2["meta"]["cached"] is True
    assert rec1["value"] == rec2["value"]
    assert rec1["stderr"] == rec2["stderr"]


def test_domain_error_exits_2(run_cli, capsys):
    code, _ = run_cli("prob-complete", "--m", "0", "--n", "2")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_infinite_invgamma_argument_exits_2(run_cli, capsys):
    code, out = run_cli("invgamma", "--y", "inf")
    assert code == 2
    assert out == ""
    assert "error:" in capsys.readouterr().err


def test_bad_pattern_exits_2(run_cli):
    code, _ = run_cli(
        "mc", "obs2", "--m", "2", "--n", "4", "--trials", "64", "--seed", "1",
        "--pattern", "2,x",
    )
    assert code == 2


def test_no_convergence_exits_3(run_cli, monkeypatch):
    monkeypatch.setattr(exact, "SERIES_MAX_N", 5)
    code, _ = run_cli("l1-exact", "--m", "2")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("bounds", "gv-code", "--m", "2", "--n", "6", "--delta", "2", "--cap", "100"),
    ("l1-exact", "--m", "2", "--max-n", "100"),
])
def test_resource_caps_are_not_options(run_cli, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_space_too_large_exits_4(run_cli):
    code, _ = run_cli("mc", "lmax", "--m", "2", "--n", "100000000",
                      "--trials", "16", "--seed", "1")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ("mc", "l1"), ("mc", "lmax"), ("mc", "lis"), ("mc", "moments"), ("mc", "obs1", "--k", "2"),
    ("mc", "obs2", "--pattern", "1,2"), ("cardgame", "--strategy", "safe"),
    ("cardgame", "--strategy", "shifting"),
])
@pytest.mark.parametrize("m,n", [(1, 3_000_000_000), (200_000_000, 2)])
def test_every_sampled_word_past_the_length_cap_exits_4(run_cli, capsys, monkeypatch, argv, m, n):
    # words are allocated through numpy's arange as montecarlo sees it; a
    # missing cap fails here at once, with exit 5, instead of asking for
    # gigabytes
    def no_allocation(*args, **kwargs):
        raise AssertionError(f"allocated np.arange{args}")

    numpy_without_arange = types.SimpleNamespace(**{**vars(np), "arange": no_allocation})
    monkeypatch.setattr(montecarlo, "np", numpy_without_arange)
    code, out = run_cli(*argv, "--m", str(m), "--n", str(n), "--trials", "2", "--seed", "1")
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err == f"error: word length m*n = {m * n} exceeds 10^8 per trial\n"


def test_moments_csv_layout(run_cli):
    code, out = run_cli(
        "mc", "moments", "--m", "2", "--n", "10", "--trials", "128",
        "--seed", "3", "--r-max", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,r,estimate,std_error,target"
    # mean row plus central r=2,3 plus raw r=1..3
    assert len(lines) == 1 + 1 + 2 + 3


def test_plain_rendering(run_cli):
    code, out = run_cli("invgamma", "--y", "24", "--format", "plain")
    assert code == 0
    assert out.startswith("invgamma(")
    assert "5.0" in out


def test_out_writes_file_and_silences_stdout(run_cli, tmp_path):
    target = tmp_path / "result.json"
    code, out = run_cli("prob-complete", "--m", "3", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    rec = json.loads(target.read_text(encoding="utf-8"))
    assert rec["value"] == "19/20"


def test_unwritable_out_exits_2(run_cli, tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    code, out = run_cli("l1-approx", "--m", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert f"error: cannot write {target}" in capsys.readouterr().err
    assert not target.exists()


def test_roots_power_sum_check(run_cli):
    code, out = run_cli("roots", "--m", "3", "--check-power-sums")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["value"]) == 3
    assert rec["meta"]["power_sums_ok"] is True
    assert rec["meta"]["power_sum_max_deviation"] < 1e-9


def test_root_certificate_past_the_double_range_is_a_decimal_string(run_cli):
    # 10^-1024 underflows a double; the record must not read 0.0 under 0.0
    code, out = run_cli("roots", "--m", "3", "--bits", "4096")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["tolerance"] == "1.0e-1024"
    residual = mp.mpf(meta["max_residual"])
    assert 0 < residual < mp.mpf(10) ** -1024


@pytest.mark.parametrize("argv", [
    ("l1-exact", "--m", "2", "--eps", "inf"),
    ("l1-exact", "--m", "2", "--eps", "nan"),
    ("bounds", "factorial-threshold", "--m", "2", "--t", "10", "--c", "inf"),
])
def test_non_finite_float_arguments_exit_2(run_cli, capsys, argv):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error: need a finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("bounds", "factorial-threshold", "--m", "2", "--t", "10", "--c", "1e300"),
    ("bounds", "factorial-threshold", "--m", "2", "--t", "10", "--c", "1e5"),
    ("prob-complete", "--m", "20", "--n", "30", "--engine", "hk"),
    ("bounds", "block-lower", "--m", "200", "--n", "400", "--k", "200"),
    ("prob-complete", "--m", "2", "--n", "5000"),
    ("prob-complete", "--m", "41", "--n", "101", "--engine", "gf"),
    ("prob-complete", "--m", "2", "--n", "20000", "--engine", "hk"),
    ("l1-exact", "--m", "1000"),
])
def test_oversized_exact_work_exits_4_promptly(run_cli, capsys, argv):
    start = time.perf_counter()
    code, out = run_cli(*argv)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (4, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("l1-closed", "--m", "1000000000"),
    ("l1-closed", "--m", "501"),
    ("l1-closed", "--m", "5", "--bits", "1000000000"),
    ("l1-closed", "--m", "500", "--bits", "1024"),
    ("roots", "--m", "1000", "--bits", "40", "--check-power-sums"),
    ("roots", "--m", "3", "--bits", "1000000000"),
])
def test_spectral_work_past_its_cap_exits_4_within_a_second(run_cli, capsys, argv):
    start = time.perf_counter()
    code, out = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_past_the_word_length_answer_within_a_second(run_cli, capsys):
    # neither needs its huge power: m^k and k! at k = 10^9, or 100000^(10^9)
    start = time.perf_counter()
    code, out = run_cli("bounds", "tail", "--family", "continuous", "--n", "2", "--m", "2",
                        "--k", "1000000000")
    assert (code, json.loads(out)["value"]) == (0, "0")
    code, out = run_cli("bounds", "gv-code", "--m", "100000", "--n", "1000000000", "--delta", "1")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("bounds", "gv-code", "--m", "2", "--n", "40", "--delta", "2"),
    ("bounds", "gv-code", "--m", "3", "--n", "14", "--delta", "2"),
    ("bounds", "entropy-check", "--n", "1000000000", "--delta", "500000000"),
    ("bounds", "entropy-check", "--n", "1000000000", "--delta", "999999000"),
    ("recip-series", "--m", "2", "--k", "1000"),
    ("recip-series", "--m", "1000000000", "--k", "2"),
    ("prob-complete", "--m", "1000000000", "--n", "1", "--engine", "brute"),
    ("prob-complete", "--m", "1000000", "--n", "2", "--engine", "brute"),
])
def test_bounds_past_their_ceilings_exit_4_within_a_second(run_cli, capsys, argv):
    # C(10^9, 5*10^8) is refused before math.comb builds it, the reciprocal series before its
    # K^2 Fraction convolution or (m+1+K)! at m = 10^9, and enumeration before (mn)!
    start = time.perf_counter()
    code, out = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_completion_lower_with_a_huge_factorial_answers_within_a_second(run_cli, capsys):
    # 10^9! is never needed when delta! <= t_size - 1 makes the floor 0;
    # otherwise the same delta is refused before its factorial is taken
    start = time.perf_counter()
    code, out = run_cli("bounds", "completion-lower", "--m", "2", "--n", "1000000000", "--t-size", "3",
                        "--delta", "2")
    assert (code, json.loads(out)["value"]) == (0, "0")
    code, out = run_cli("bounds", "completion-lower", "--m", "2", "--n", "5", "--t-size", "3",
                        "--delta", "1000000000")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("engine", ["gf", "hk"])
def test_exact_value_past_the_digit_limit_exits_4(run_cli, capsys, engine):
    # 1/20000! is cheap on both engines, but its denominator has 77,338 digits
    start = time.perf_counter()
    code, out = run_cli("prob-complete", "--m", "1", "--n", "20000", "--engine", engine)
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("engine", ["gf", "hk", "brute"])
def test_value_surely_past_the_digit_limit_exits_4_before_computing(run_cli, capsys, engine):
    # Pr[l1 = n] <= m^n/n!, so 1/1000000! is known to be past the limit from lgamma alone
    start = time.perf_counter()
    code, out = run_cli("prob-complete", "--m", "1", "--n", "1000000", "--engine", engine)
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exact_integer_in_meta_past_the_digit_limit_exits_4_in_every_format(run_cli, capsys):
    # C(100000, 50000) has 30,101 digits
    errors = []
    for fmt in ("json", "plain", "csv"):
        code, out = run_cli("bounds", "entropy-check", "--n", "100000", "--delta", "50000", "--format", fmt)
        assert (code, out) == (4, "")
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
    assert errors == errors[:1] * 3


def test_digit_limit_is_read_not_changed(run_cli, monkeypatch, tmp_path):
    # 25! has 26 digits; the check follows the interpreter's limit, 0 meaning none
    import sys

    before = sys.get_int_max_str_digits()
    for limit, expect in ((26, 0), (25, 4), (0, 0)):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda limit=limit: limit)
        monkeypatch.setenv("CIS_CACHE_DIR", str(tmp_path / f"cache-{limit}"))
        code, out = run_cli("prob-complete", "--m", "1", "--n", "25", "--engine", "hk")
        assert code == expect
        if expect == 0:
            assert json.loads(out)["value"] == f"1/{math.factorial(25)}"
    monkeypatch.undo()
    assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize("argv, value", [
    (("prob-complete", "--m", "1000", "--n", "1", "--engine", "hk"), "1"),
    (("bounds", "block-lower", "--m", "1500", "--n", "2", "--k", "1"), 1.0),
    (("mc", "obs1", "--m", "1500", "--n", "2", "--k", "1", "--trials", "10", "--seed", "1"), [1.0, 1.0]),
], ids=["prob-complete", "bounds-block-lower", "mc-obs1"])
def test_hk_answers_with_a_thousand_parts(run_cli, argv, value):
    code, out = run_cli(*argv)
    assert code == 0
    assert json.loads(out)["value"] == value


def test_cardgame_strategy_choices_are_the_card_game_strategies():
    row = next(c for c in cli.COMMANDS if c.path == ("cardgame",))
    assert next(kw["choices"] for _, flag, kw in row.args if flag == "--strategy") == cardgame.STRATEGIES


@pytest.mark.parametrize("name", ["l1", "lmax", "lis"])
def test_mc_rows_call_the_estimator_montecarlo_has_at_call_time(run_cli, monkeypatch, name):
    fake = montecarlo.Estimate(mean=42.5, std_error=0.25, trials=8, seed=3, ci95=(42.0, 43.0))
    monkeypatch.setattr(montecarlo, f"estimate_{name}", lambda m, n, trials, seed: fake)
    code, out = run_cli("mc", name, "--m", "2", "--n", "5", "--trials", "8", "--seed", "3")
    assert code == 0
    rec = json.loads(out)
    assert (rec["value"], rec["stderr"], rec["meta"]["ci95"]) == (42.5, 0.25, [42.0, 43.0])


def test_parser_is_built_once(run_cli):
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert run_cli("l1-approx", "--m", "2")[0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_unexpected_exception_exits_5_without_traceback(run_cli, capsys, monkeypatch):
    def boom(m):
        raise RuntimeError("boom")

    stubbed = tuple(c._replace(compute=boom) if c.path == ("l1-approx",) else c for c in cli.COMMANDS)
    monkeypatch.setattr(cli, "COMMANDS", stubbed)
    code, out = run_cli("l1-approx", "--m", "2")
    assert (code, out) == (5, "")
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
