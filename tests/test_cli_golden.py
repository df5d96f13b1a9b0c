"""Golden outputs of every `cis` subcommand, and of the parser that reads them.

Each case runs once per output format (json, plain, csv), each time against
a fresh cache, and must reproduce `cli_golden.json` exactly: the JSON record
without its timestamp, the plain and the csv text, and the exit code.
`verify-all` runs against a stub suite with one passing and one failing
criterion, so its text is fixed and it exits 1.  The parser section pins
every subcommand's help string and every option's flags, type, default,
choices, requiredness and help text.

The file is written by running this module as a script
(`PYTHONPATH=src python tests/test_cli_golden.py`); do that only when an
output change is intended, and say so in the change log.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from cis import acceptance, cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = [
    ["l1-exact", "--m", "2", "--eps", "1e-9"],
    ["l1-closed", "--m", "3", "--bits", "64"],
    ["l1-approx", "--m", "2"],
    ["prob-complete", "--m", "2", "--n", "3", "--engine", "hk"],
    ["prob-complete", "--m", "3", "--n", "2"],
    ["roots", "--m", "3", "--bits", "64", "--check-power-sums"],
    ["roots", "--m", "2"],
    ["recip-series", "--m", "2", "--k", "4"],
    ["invgamma", "--y", "24"],
    ["bounds", "tail", "--family", "continuous", "--n", "10", "--m", "2", "--k", "5"],
    ["bounds", "tail", "--family", "ap", "--n", "6", "--m", "3", "--k", "4"],
    ["bounds", "expectation-upper", "--m", "2", "--cap", "100"],
    ["bounds", "block-lower", "--m", "2", "--n", "6", "--k", "3"],
    ["bounds", "gv-code", "--m", "2", "--n", "6", "--delta", "2"],
    ["bounds", "gv-code", "--m", "3", "--n", "4", "--delta", "2"],
    ["bounds", "completion-lower", "--m", "2", "--n", "5", "--t-size", "3", "--delta", "2"],
    ["bounds", "factorial-threshold", "--m", "2", "--t", "10", "--c", "1.5"],
    ["bounds", "factorial-threshold", "--m", "2", "--t", "2048", "--c", "0.1"],
    ["bounds", "lower-cont", "--m", "2", "--n", "3"],
    ["bounds", "lower-cont", "--m", "1000000", "--n", "1000000"],
    ["bounds", "entropy-check", "--n", "10", "--delta", "3"],
    ["bounds", "entropy-check", "--n", "2000", "--delta", "1000"],
    ["mc", "l1", "--m", "2", "--n", "10", "--trials", "50", "--seed", "1"],
    ["mc", "lmax", "--m", "2", "--n", "10", "--trials", "50", "--seed", "1"],
    ["mc", "lis", "--m", "2", "--n", "10", "--trials", "50", "--seed", "1"],
    ["mc", "moments", "--m", "2", "--n", "10", "--trials", "64", "--seed", "3", "--r-max", "3"],
    ["mc", "obs1", "--m", "2", "--n", "6", "--k", "3", "--trials", "64", "--seed", "1"],
    ["mc", "obs2", "--m", "2", "--n", "6", "--pattern", "2,4", "--trials", "64", "--seed", "1"],
    ["mc", "obs2", "--m", "2", "--n", "7", "--pattern", "5 2 7", "--trials", "40", "--seed", "9"],
    ["cardgame", "--strategy", "safe", "--m", "2", "--n", "5", "--trials", "50", "--seed", "1"],
    ["cardgame", "--strategy", "trivial", "--m", "3", "--n", "4", "--trials", "20", "--seed", "2"],
    ["verify-all", "--level", "quick"],
]


def _stub_run_all(level="full"):
    return [
        acceptance.CriterionResult(1, "stub criterion that holds", True, f"ok at {level}", 0.5),
        acceptance.CriterionResult(2, "stub criterion that fails", False, "gap 3.1 se", 1.257),
    ]


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"CIS_CACHE_DIR": tmp}), \
            mock.patch.object(acceptance, "run_all", _stub_run_all), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def observe(argv: list[str]) -> dict:
    """Exit code, timestamp-free record, plain and csv text of one invocation."""
    code, text = _run(argv)
    record = json.loads(text)
    del record["meta"]["timestamp"]
    plain_code, plain = _run([*argv, "--format", "plain"])
    csv_code, csv_text = _run([*argv, "--format", "csv"])
    assert code == plain_code == csv_code
    return {"exit": code, "record": record, "plain": plain, "csv": csv_text}


def _subcommands(parser, path=()):
    """Yield (path, help, parser, metavar) for every subcommand, groups included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                yield (*path, name), helps.get(name), sub, action.metavar
                yield from _subcommands(sub, (*path, name))


def _is_leaf(parser) -> bool:
    return not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


def _leaf_paths() -> list[tuple[str, ...]]:
    return [p for p, _, sub, _ in _subcommands(cli._build_parser()) if _is_leaf(sub)]


def parser_shape() -> dict:
    """Help string and options of every subcommand, keyed by its path."""
    shape = {}
    for path, help_, sub, metavar in _subcommands(cli._build_parser()):
        options = {}
        for a in sub._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            options[a.dest] = {
                "flags": list(a.option_strings),
                "type": getattr(a.type, "__name__", None),
                "default": a.default,
                "choices": list(a.choices) if a.choices is not None else None,
                "required": a.required,
                "nargs": a.nargs,
                "metavar": a.metavar,
                "help": a.help,
            }
        shape[" ".join(path)] = {"help": help_, "listed_as": metavar, "options": options}
    return shape


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_subcommand_matches_golden(argv):
    assert observe(argv) == _golden()["cases"][" ".join(argv)]


@pytest.mark.parametrize("argv", [
    ["prob-complete", "--m", "2", "--n", "3", "--engine", "hk"],
    ["bounds", "tail", "--family", "continuous", "--n", "10", "--m", "2", "--k", "5"],
    ["bounds", "entropy-check", "--n", "2000", "--delta", "1000"],
], ids=lambda argv: " ".join(argv))
def test_interpreter_without_a_digit_limit_matches_golden(monkeypatch, argv):
    # Python 3.10.0-3.10.6 has no integer string limit and no getter for it
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert observe(argv) == _golden()["cases"][" ".join(argv)]


def test_parser_matches_golden():
    assert parser_shape() == _golden()["parser"]


def test_every_subcommand_has_a_golden_case():
    covered = {tuple(a[:2]) for a in CASES} | {tuple(a[:1]) for a in CASES}
    missing = [p for p in _leaf_paths() if p not in covered]
    assert not missing, f"subcommands without a golden case: {missing}"


if __name__ == "__main__":
    data = {"cases": {" ".join(a): observe(a) for a in CASES}, "parser": parser_shape()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
