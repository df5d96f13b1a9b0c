"""Statistics of continuously increasing subsequences in random multiset permutations.

A word in S_{m,n} uses each value 1..n exactly m times.  The library
computes run-length statistics of such words three ways (exact rational
arithmetic, a spectral closed form, Monte Carlo), provides the
combinatorial bounds connecting them, and simulates the partial-feedback
card-guessing game whose scores these statistics govern.

The exports below load on first use: `import cis` imports no submodule,
and the first access to a name (`cis.l1_series`, `from cis import
find_roots`) or to a submodule (`cis.spectral`) imports the module that
defines it.  So numpy loads only where words are sampled or codes sieved;
no module imports mpmath, which only the tests use as a reference.
"""

import importlib

__version__ = "0.7.0"

# module -> the names it exports, in the order of __all__
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "acceptance", "cache", "cli"})

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule also binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
