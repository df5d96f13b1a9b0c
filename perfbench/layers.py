"""Which library calls the traced run wraps, and the per-layer metrics.

Each wrapped callable becomes a span named `<module>.<function>`.  The
benchmark wraps the public names and also the bindings that other modules
made at import time (`from .rng import substream` leaves a second name in
`cis.montecarlo`), since a call through such a binding never sees the
first.  A name a later version no longer has is skipped, and the metrics
derived from it are left out of the result instead of failing the run.
A layer that a workload does not use reports zero work.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import Span, Tracer, children_of, covered_ns, self_ns

from workloads import CLOSED_M, CODES, ENGINES, ROOTS_M, SERIES_M


def _trials(a, r):
    return {"trials": a["trials"]}


def _engine(a, r):
    return {"engine": a["engine"]}


def _words(a, r):
    return {"words": math.factorial(a["m"] * a["n"]) // math.factorial(a["m"]) ** a["n"]}


# (module, attribute, span name, attributes from (arguments, result))
WRAPS = [
    ("rng", "substream", "rng.substream", None),
    ("montecarlo", "substream", "rng.substream", None),
    ("montecarlo", "estimate_l1", "montecarlo.estimate_l1", _trials),
    ("montecarlo", "estimate_lmax", "montecarlo.estimate_lmax", _trials),
    ("montecarlo", "estimate_lis", "montecarlo.estimate_lis", _trials),
    ("montecarlo", "check_observation1", "montecarlo.check_observation1", _trials),
    ("montecarlo", "check_observation2", "montecarlo.check_observation2", _trials),
    ("cardgame", "expected_score", "cardgame.expected_score",
     lambda a, r: {"trials": a["trials"], "strategy": a["strategy"]}),
    ("exact", "l1_series", "exact.l1_series",
     lambda a, r: {"m": a["m"], "terms": r.terms_used}),
    ("exact", "complete_prob", "exact.complete_prob", _engine),
    ("montecarlo", "complete_prob", "exact.complete_prob", _engine),
    ("bounds", "complete_prob", "exact.complete_prob", _engine),
    ("words", "count_complete_bruteforce", "words.count_complete_bruteforce", _words),
    ("exact", "count_complete_bruteforce", "words.count_complete_bruteforce", _words),
    ("spectral", "find_roots", "spectral.find_roots",
     lambda a, r: {"m": a["m"], "max_residual": float(max(r.residuals))}),
    ("spectral", "l1_closed_form", "spectral.l1_closed_form", None),
    ("spectral", "power_sum_check", "spectral.power_sum_check",
     lambda a, r: {"max_deviation": r.max_deviation}),
    ("bounds", "greedy_code", "bounds.greedy_code",
     lambda a, r: {"code": (a["m"], a["n"], a["delta"]), "size": r.size}),
    ("cache", "cache_get", "cache.get", lambda a, r: {"hit": r is not None}),
    ("cli", "cache_get", "cache.get", lambda a, r: {"hit": r is not None}),
    ("cache", "cache_put", "cache.put", None),
    ("cli", "cache_put", "cache.put", None),
    ("cli", "main", "cli.main", None),
]

ESTIMATORS = ("estimate_l1", "estimate_lmax", "estimate_lis",
              "check_observation1", "check_observation2")
MC_CALLS = (*(f"montecarlo.{e}" for e in ESTIMATORS), "cardgame.expected_score")


def install(tracer: Tracer, package) -> None:
    """Wrap every name of WRAPS that the package still has."""
    for module, attr, name, describe in WRAPS:
        owner = getattr(package, module, None)
        if owner is not None:
            tracer.wrap(owner, attr, name, describe)


def _code_key(m, n, d):
    return f"m{m}n{n}d{d}"


# every per-layer metric with its unit and the span it is derived from
METRICS = {
    "rng.substream.calls": ("count", "rng.substream"),
    "rng.substream.us": ("us", "rng.substream"),
    "rng.substream.share": ("ratio", "rng.substream"),
    **{f"montecarlo.{e}.us_per_trial": ("us", f"montecarlo.{e}") for e in ESTIMATORS},
    "montecarlo.workers": ("count", "rng.substream"),
    "cardgame.expected_score.safe.us_per_trial": ("us", "cardgame.expected_score"),
    "cardgame.expected_score.shifting.us_per_trial": ("us", "cardgame.expected_score"),
    **{k: v for m in SERIES_M for k, v in (
        (f"exact.l1_series.m{m}.s", ("s", "exact.l1_series")),
        (f"exact.l1_series.m{m}.ms_per_term", ("ms", "exact.l1_series")),
        (f"exact.l1_series.m{m}.terms", ("count", "exact.l1_series")))},
    **{f"exact.complete_prob.{e}.ms": ("ms", "exact.complete_prob") for e in ENGINES},
    "words.count_complete_bruteforce.words_per_s": ("1/s", "words.count_complete_bruteforce"),
    **{f"spectral.find_roots.m{m}.s": ("s", "spectral.find_roots")
       for m in sorted({*CLOSED_M, ROOTS_M})},
    "spectral.l1_closed_form.self_s": ("s", "spectral.l1_closed_form"),
    "spectral.power_sum_check.s": ("s", "spectral.power_sum_check"),
    "spectral.max_residual": ("abs_error", "spectral.find_roots"),
    "spectral.power_sum_deviation": ("abs_error", "spectral.power_sum_check"),
    "bounds.greedy_code.s": ("s", "bounds.greedy_code"),
    "bounds.greedy_code.words_per_s": ("1/s", "bounds.greedy_code"),
    **{f"bounds.greedy_code.{_code_key(*c)}.size": ("count", "bounds.greedy_code")
       for c in CODES},
    "cache.get.ms": ("ms", "cache.get"),
    "cache.put.ms": ("ms", "cache.put"),
    "cache.hits": ("count", "cache.get"),
    "cache.misses": ("count", "cache.get"),
    "cli.main.self_ms": ("ms", "cli.main"),
}


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def measure(spans: list[Span], wrapped: set[str]) -> dict[str, float]:
    """Per-layer values of one traced round, for the spans that were wrapped."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    kids = children_of(spans)
    v: dict[str, float] = {}

    rng = by["rng.substream"]
    mc = [s for name in MC_CALLS for s in by[name]]
    v["rng.substream.calls"] = len(rng)
    v["rng.substream.us"] = _mean([s.ns / 1e3 for s in rng])
    rng_covered = workers = 0
    for s in mc:
        parts = [c for c in kids.get(s.id, ()) if c.name == "rng.substream"]
        rng_covered += covered_ns((s.start, s.end), [(c.start, c.end) for c in parts])
        workers = max(workers, len({c.thread for c in parts}))
    v["rng.substream.share"] = _ratio(rng_covered, sum(s.ns for s in mc))
    v["montecarlo.workers"] = workers

    def us_per_trial(group):
        return _ratio(sum(self_ns(s, kids) for s in group) / 1e3,
                      sum(s.attrs.get("trials", 0) for s in group))

    for e in ESTIMATORS:
        v[f"montecarlo.{e}.us_per_trial"] = us_per_trial(by[f"montecarlo.{e}"])
    for strategy in ("safe", "shifting"):
        v[f"cardgame.expected_score.{strategy}.us_per_trial"] = us_per_trial(
            [s for s in by["cardgame.expected_score"] if s.attrs.get("strategy") == strategy])

    for m in SERIES_M:
        group = [s for s in by["exact.l1_series"] if s.attrs.get("m") == m]
        terms = group[0].attrs["terms"] if group else 0
        v[f"exact.l1_series.m{m}.s"] = _mean([s.ns / 1e9 for s in group])
        v[f"exact.l1_series.m{m}.ms_per_term"] = _ratio(v[f"exact.l1_series.m{m}.s"] * 1e3, terms)
        v[f"exact.l1_series.m{m}.terms"] = terms
    for e in ENGINES:
        v[f"exact.complete_prob.{e}.ms"] = _mean(
            [s.ns / 1e6 for s in by["exact.complete_prob"] if s.attrs.get("engine") == e])
    brute = by["words.count_complete_bruteforce"]
    v["words.count_complete_bruteforce.words_per_s"] = _ratio(
        sum(s.attrs.get("words", 0) for s in brute), sum(s.ns for s in brute) / 1e9)

    roots = by["spectral.find_roots"]
    for m in sorted({*CLOSED_M, ROOTS_M}):
        v[f"spectral.find_roots.m{m}.s"] = _mean(
            [s.ns / 1e9 for s in roots if s.attrs.get("m") == m])
    v["spectral.l1_closed_form.self_s"] = sum(
        self_ns(s, kids) for s in by["spectral.l1_closed_form"]) / 1e9
    v["spectral.power_sum_check.s"] = sum(s.ns for s in by["spectral.power_sum_check"]) / 1e9
    v["spectral.max_residual"] = max((s.attrs.get("max_residual", 0.0) for s in roots), default=0.0)
    v["spectral.power_sum_deviation"] = max(
        (s.attrs.get("max_deviation", 0.0) for s in by["spectral.power_sum_check"]), default=0.0)

    codes = by["bounds.greedy_code"]
    v["bounds.greedy_code.s"] = sum(s.ns for s in codes) / 1e9
    v["bounds.greedy_code.words_per_s"] = _ratio(
        sum(m**n for m, n, _ in (s.attrs["code"] for s in codes if s.attrs)),
        v["bounds.greedy_code.s"])
    for c in CODES:
        sizes = [s.attrs["size"] for s in codes if s.attrs.get("code") == c]
        v[f"bounds.greedy_code.{_code_key(*c)}.size"] = sizes[0] if sizes else 0

    gets = by["cache.get"]
    v["cache.get.ms"] = _mean([s.ns / 1e6 for s in gets])
    v["cache.put.ms"] = _mean([s.ns / 1e6 for s in by["cache.put"]])
    v["cache.hits"] = sum(1 for s in gets if s.attrs.get("hit"))
    v["cache.misses"] = sum(1 for s in gets if s.attrs.get("hit") is False)
    v["cli.main.self_ms"] = _mean([self_ns(s, kids) / 1e6 for s in by["cli.main"]])

    return {k: x for k, x in v.items() if METRICS[k][1] in wrapped}
