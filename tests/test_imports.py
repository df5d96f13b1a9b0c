"""What `import cis` and each command load, and the package's public names.

The package exports its names lazily, and the CLI imports a compute module
only when a command calls it, so numpy loads only where words are sampled
or enumerated or codes sieved.  No module loads mpmath: the spectral route
runs on integers and the standard library.
The audit runs fresh interpreters, one at a time, each against its own
cache directory.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cis

_SRC = Path(__file__).resolve().parents[1] / "src"

# printed to stderr last: which of numpy and mpmath the process has loaded
_REPORT = 'print(json.dumps([m for m in ("numpy", "mpmath") if m in sys.modules]), file=sys.stderr)'

# runs the CLI the way `python -m cis.cli` does, then reports
_CLI = f"""import json, runpy, sys
try:
    runpy.run_module("cis.cli", run_name="__main__", alter_sys=True)
finally:
    {_REPORT}
"""


def _loaded(code: str, *argv: str, cache: Path) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(_SRC), "CIS_CACHE_DIR": str(cache)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_import_cis_loads_neither_numpy_nor_mpmath(tmp_path):
    assert _loaded(f"import json, sys, cis\n{_REPORT}", cache=tmp_path) == set()


_COMMAND_LOADS = [
    (("l1-approx", "--m", "2"), set()),
    (("l1-exact", "--m", "2"), set()),
    (("prob-complete", "--m", "2", "--n", "4"), set()),
    (("invgamma", "--y", "5040"), set()),
    (("l1-closed", "--m", "12"), set()),
    (("roots", "--m", "12", "--check-power-sums"), set()),
    (("bounds", "tail", "--family", "continuous", "--n", "6", "--m", "2", "--k", "3"), set()),
    # the control: a sampling command does load numpy
    (("mc", "l1", "--m", "2", "--n", "5", "--trials", "10", "--seed", "1"), {"numpy"}),
    # so does exhaustive enumeration, which runs on numpy blocks
    (("prob-complete", "--m", "2", "--n", "3", "--engine", "brute"), {"numpy"}),
]


# each row is named by its argv alone, so a row put in between renames no other
@pytest.mark.parametrize("argv, loaded", [pytest.param(argv, loaded, id="-".join(argv))
                                          for argv, loaded in _COMMAND_LOADS])
def test_commands_load_numpy_and_mpmath_only_where_they_compute_with_them(tmp_path, argv, loaded):
    assert _loaded(_CLI, *argv, cache=tmp_path) == loaded


def test_a_cached_roots_record_loads_neither(tmp_path):
    assert _loaded(_CLI, "roots", "--m", "6", cache=tmp_path) == set()
    assert _loaded(_CLI, "roots", "--m", "6", cache=tmp_path) == set()


def test_no_module_of_the_package_loads_mpmath(tmp_path):
    code = ('import json, sys, cis\n'
            'for name in sorted(cis._SUBMODULES): getattr(cis, name)\n'
            'print(json.dumps(["mpmath"] if "mpmath" in sys.modules else []), file=sys.stderr)')
    assert _loaded(code, cache=tmp_path) == set()


def test_a_cached_gv_code_record_loads_neither(tmp_path):
    argv = ("bounds", "gv-code", "--m", "2", "--n", "8", "--delta", "3")
    assert _loaded(_CLI, *argv, cache=tmp_path) == {"numpy"}
    assert _loaded(_CLI, *argv, cache=tmp_path) == set()


def test_spectral_loads_neither_exact_nor_words(tmp_path):
    code = ('import json, sys, cis.spectral\n'
            'print(json.dumps([m for m in ("cis.exact", "cis.words") if m in sys.modules]), file=sys.stderr)')
    assert _loaded(code, cache=tmp_path) == set()


# every name cis 0.5.0 exports, by the module that defines it
_EXPORTS = {
    "errors": ("AlphabetViolation", "CisError", "DomainError", "InternalInconsistency",
               "MultiplicityViolation", "NoConvergence", "SpaceTooLarge"),
    "rng": ("RandomSource", "substream"),
    "words": ("Word", "count_complete_bruteforce", "enumerate_words", "l1", "l_max", "l_start",
              "make_word", "multiset_count"),
    "exact": ("SeriesResult", "approx_l1", "complete_prob", "horton_kurn_h",
              "l1_finite_expectation", "l1_series", "p_value", "weak_compositions"),
    "spectral": ("ClosedForm", "PowerSumReport", "ReciprocalSeries", "RootSet", "find_roots",
                 "inverse_power_sums_exact", "l1_closed_form", "power_sum_check", "reciprocal_series"),
    "bounds": ("AsymptoticLower", "CodeBook", "EntropyCheck", "ExpectationBound", "FactorialThreshold",
               "WordFamily", "arithmetic_progressions", "block_lower_bound", "completion_lower",
               "continuous_runs", "entropy_binom_check", "expectation_upper", "factorial_threshold",
               "greedy_code", "gv_size_bound", "inverse_gamma", "lower_cont_asymptotic",
               "tail_bound"),
    "montecarlo": ("Estimate", "MomentReport", "Obs1Report", "Obs2Report", "central_target",
                   "check_observation1", "check_observation2", "estimate_l1", "estimate_lis",
                   "estimate_lmax", "moments", "raw_target"),
    "cardgame": ("STRATEGIES", "GameTrace", "expected_score", "play", "safe_expected_exact"),
}
# the names 0.4.0 exported that only tests reached, by the module that defined them
_DROPPED = {
    "words": ("sample_uniform",),
    "exact": ("phi_apply", "phi_inverse", "q_poly"),
    "spectral": ("PartitionReport", "root_partition_diagnostic", "truncated_exp", "zemyan_targets"),
    "bounds": ("hamming",),
    "rng": ("substreams",),
}
_SUBMODULES = ("acceptance", "bounds", "cache", "cardgame", "cli", "errors", "exact", "montecarlo",
               "rng", "spectral", "words")


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _EXPORTS.items() for n in names])
def test_each_export_is_the_object_its_module_defines(module, name):
    namespace = {}
    exec(f"from cis import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"cis.{module}"), name)
    assert getattr(cis, name) is namespace[name]


def test_star_import_and_dir_list_the_exports():
    exports = {n for names in _EXPORTS.values() for n in names}
    assert set(cis.__all__) == exports and len(cis.__all__) == len(exports) == 69
    namespace = {}
    exec("from cis import *", namespace)
    assert exports <= set(namespace)
    assert exports | set(_SUBMODULES) | {"__version__"} <= set(dir(cis))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _DROPPED.items() for n in names])
def test_each_dropped_name_resolves_neither_from_the_package_nor_from_its_module(module, name):
    assert not hasattr(cis, name)
    assert not hasattr(importlib.import_module(f"cis.{module}"), name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cis.no_such_name
    with pytest.raises(ImportError):
        exec("from cis import no_such_name", {})


@pytest.mark.parametrize("name", _SUBMODULES)
def test_each_submodule_is_an_attribute_of_the_package(name):
    module = getattr(cis, name)
    assert isinstance(module, types.ModuleType)
    assert module is sys.modules[f"cis.{name}"]
