"""The benchmark's workloads: query lists, timed rounds, checks and digests.

Every workload is a closed loop with one caller: a query is issued only
after the previous one has returned.  A round is one pass over the
workload's query list; a run repeats identical rounds until its time is
up, so every round of a run must give the same digest.

* mc_short: many short words through the Python API at the default worker
  count; per-trial fixed cost (stream setup, the thread pool) dominates.
* mc_long: few long words through the Python API; per-letter numpy work
  and memory dominate and per-trial setup is negligible.
* exact: no Monte Carlo.  Exact series, spectral closed forms, exact
  completion probabilities and greedy codes through `cli.main`, a cold
  pass into an empty cache followed by a warm replay of the same list.

Run as a script, this module times PROBE_ROUNDS rounds of mc_short and
prints the median round time; the worker-scaling probe runs it in a
subprocess.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field, is_dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable

import numpy as np

from cis import bounds, cardgame, cli, exact, montecarlo

PROBE_ROUNDS = 3  # mc_short rounds per worker-scaling probe


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    trials: int = 0
    stage: str = ""  # exact: the stage metric the cold query counts toward


@dataclass
class Round:
    wall_s: float
    times: list[float]           # one per query, in query order
    results: list                # None where the query raised or exited non-zero
    errors: int
    failed_checks: list[str]
    digest: str
    extra: dict = field(default_factory=dict)


def _canon(result):
    if is_dataclass(result):
        return asdict(result)
    return result


def digest(pairs) -> str:
    """SHA-256 of the canonical JSON of (label, result) pairs."""
    text = json.dumps([[label, _canon(r)] for label, r in pairs],
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


def _run_queries(queries: list[Query]) -> tuple[float, list[float], list, int]:
    times, results, errors = [], [], 0
    start = time.perf_counter()
    for q in queries:
        t0 = time.perf_counter()
        try:
            result = q.call()
        except Exception as exc:  # a failing query is counted, the loop goes on
            print(f"query {q.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            result, errors = None, errors + 1
        times.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, times, results, errors


# ---------------------------------------------------------------------------
# Monte Carlo workloads


class MonteCarlo:
    """A fixed list of seeded estimator calls through the Python API."""

    def __init__(self, seed: int):
        self.queries = self.build(_seeds(seed, 6))

    def build(self, seeds: list[int]) -> list[Query]:
        raise NotImplementedError

    def check(self, results: dict) -> list[tuple[str, Callable[[], bool]]]:
        raise NotImplementedError

    def round(self) -> Round:
        wall, times, results, errors = _run_queries(self.queries)
        by_label = {q.label: r for q, r in zip(self.queries, results)}
        failed = _failed(self.check(by_label))
        mc_s = sum(times)
        trials = sum(q.trials for q in self.queries)
        return Round(
            wall, times, results, errors, failed,
            digest([(q.label, r) for q, r in zip(self.queries, results)]),
            {"mc_trials_per_s": trials / mc_s},
        )


def _failed(checks) -> list[str]:
    """Names of the failed checks; a check that cannot read its input fails."""
    out = []
    for name, test in checks:
        try:
            ok = bool(test())
        except Exception:  # missing or malformed result
            ok = False
        if not ok:
            out.append(name)
    return out


def _within_se(est, target: float, k: float) -> bool:
    return abs(est.mean - target) <= k * est.std_error


class McShort(MonteCarlo):
    # a tenth of the mix per round: about 17,000 trials, repeated
    L1, SCORE, OBS, LMAX = 3000, 3000, 3000, 2000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.l1_oracle = float(exact.l1_finite_expectation(2, 50))
        self.obs1_oracle = Fraction(_count_complete(2, 3), math.factorial(6) // 2**3)

    def build(self, s):
        return [
            Query("estimate_l1(2,50)",
                  lambda: montecarlo.estimate_l1(2, 50, self.L1, s[0]), self.L1),
            Query("expected_score(2,100,safe)",
                  lambda: cardgame.expected_score(2, 100, "safe", self.SCORE, s[1]), self.SCORE),
            Query("expected_score(2,100,shifting)",
                  lambda: cardgame.expected_score(2, 100, "shifting", self.SCORE, s[2]),
                  self.SCORE),
            Query("check_observation1(2,8,k=3)",
                  lambda: montecarlo.check_observation1(2, 8, 3, self.OBS, s[3]), self.OBS),
            Query("check_observation2(2,4,(2,4))",
                  lambda: montecarlo.check_observation2(2, 4, (2, 4), self.OBS, s[4]), self.OBS),
            Query("estimate_lmax(2,20)",
                  lambda: montecarlo.estimate_lmax(2, 20, self.LMAX, s[5]), self.LMAX),
        ]

    def check(self, r):
        g = bounds.inverse_gamma(20.0)
        obs1 = r["check_observation1(2,8,k=3)"]
        return [
            ("l1 within 4.5 se of exact E[l1](2,50)",
             lambda: _within_se(r["estimate_l1(2,50)"], self.l1_oracle, 4.5)),
            ("safe score in [m, m*n]",
             lambda: 2 <= r["expected_score(2,100,safe)"].mean <= 200),
            ("shifting score in [m, m*n]",
             lambda: 2 <= r["expected_score(2,100,shifting)"].mean <= 200),
            ("obs1 gap < 4 se", lambda: obs1.gap_in_se < 4),
            ("obs1 exact == complete_prob", lambda: obs1.exact == self.obs1_oracle),
            ("obs2 gap < 4 se", lambda: r["check_observation2(2,4,(2,4))"].gap_in_se < 4),
            ("lmax(2,20) in criterion 9 band",
             lambda: g - 2 <= r["estimate_lmax(2,20)"].mean <= 3 * g),
        ]


class McLong(MonteCarlo):
    N, LMAX, LIS_N, LIS = 10**5, 12, 10**4, 40

    def build(self, s):
        return [
            Query("estimate_lmax(1,1e5)",
                  lambda: montecarlo.estimate_lmax(1, self.N, self.LMAX, s[0]), self.LMAX),
            Query("estimate_lmax(2,1e5)",
                  lambda: montecarlo.estimate_lmax(2, self.N, self.LMAX, s[1]), self.LMAX),
            Query("estimate_lis(1,1e4)",
                  lambda: montecarlo.estimate_lis(1, self.LIS_N, self.LIS, s[2]), self.LIS),
        ]

    def check(self, r):
        g = bounds.inverse_gamma(float(self.N))
        two_root_n = 2 * math.sqrt(self.LIS_N)
        return [
            ("lmax(1,1e5) in criterion 9 band",
             lambda: g - 3 <= r["estimate_lmax(1,1e5)"].mean <= g + 3),
            ("lmax(2,1e5) in criterion 9 band",
             lambda: g - 2 <= r["estimate_lmax(2,1e5)"].mean <= 3 * g),
            ("lis(1,1e4) within 10% of 2 sqrt(n)",
             lambda: abs(r["estimate_lis(1,1e4)"].mean - two_root_n) <= 0.1 * two_root_n),
        ]


def _count_complete(m: int, n: int) -> int:
    """Words of S_{m,n} holding 1..n as a subsequence, by direct enumeration.

    Independent of the program's engines: distinct permutations of the
    sorted base word, each scanned greedily.
    """
    hits = 0
    for w in set(permutations([v for v in range(1, n + 1) for _ in range(m)])):
        target = 1
        for x in w:
            if x == target:
                target += 1
        hits += target > n
    return hits


# ---------------------------------------------------------------------------
# exact workload

# Sized so that a round takes 5-7 s on a 2-CPU machine: run-to-run drift
# on a shared machine is large, and only a median over several rounds per
# run keeps wall_s steady.
SERIES_M = (12, 16)
CLOSED_M = (12, 16, 20)
ROOTS_M = 40
PROB_MN = (4, 3)
ENGINES = ("brute", "hk", "gf")
CODES = ((2, 14, 4), (3, 9, 3))


def _series(m):
    return ["l1-exact", "--m", str(m)]


def _closed(m):
    return ["l1-closed", "--m", str(m)]


def _roots(m):
    return ["roots", "--m", str(m), "--check-power-sums"]


def _prob(engine):
    return ["prob-complete", "--m", str(PROB_MN[0]), "--n", str(PROB_MN[1]), "--engine", engine]


def _gv(m, n, d):
    return ["bounds", "gv-code", "--m", str(m), "--n", str(n), "--delta", str(d)]


def exact_argvs() -> list[list[str]]:
    return ([_series(m) for m in SERIES_M] + [_closed(m) for m in CLOSED_M]
            + [_roots(ROOTS_M)] + [_prob(e) for e in ENGINES] + [_gv(*c) for c in CODES])


_STAGE = {"l1-exact": "series", "l1-closed": "closed", "roots": "closed",
          "prob-complete": "prob", "bounds": "codes"}


def _cli_query(argv: list[str]) -> Query:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())

    return Query(" ".join(argv), call, stage=_STAGE[argv[0]])


def _strip(record: dict) -> dict:
    meta = {k: v for k, v in record.get("meta", {}).items() if k not in ("timestamp", "cached")}
    return {**record, "meta": meta}


def min_distance(words) -> int:
    """Smallest pairwise Hamming distance of a word list, by full comparison."""
    w = np.asarray(words, dtype=np.int16)
    best = w.shape[1] + 1
    for i in range(0, len(w), 128):
        block = (w[i:i + 128, None, :] != w[None, :, :]).sum(axis=2)
        rows = np.arange(block.shape[0])
        block[rows, rows + i] = w.shape[1] + 1  # a word against itself
        best = min(best, int(block.min()))
    return best


def gv_bound(m: int, n: int, delta: int) -> Fraction:
    """Packing guarantee m^n / (delta C(n, delta) (m-1)^delta)."""
    return Fraction(m**n, delta * math.comb(n, delta) * (m - 1) ** delta)


class Exact:
    """Cold pass into an empty cache, then a warm replay of the same list."""

    def __init__(self, seed: int, scratch: Path, argvs: list[list[str]] | None = None):
        argvs = exact_argvs() if argvs is None else argvs
        random.Random(seed).shuffle(argvs)  # the seed sets the query order only
        self.queries = [_cli_query(a) for a in argvs]
        self.scratch = scratch
        # the harness's own copy of each code, built before any round
        self.codes = {c: bounds.greedy_code(*c).words for c in CODES if _gv(*c) in argvs}

    def round(self) -> Round:
        self.scratch.mkdir(parents=True, exist_ok=True)
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        old = os.environ.get("CIS_CACHE_DIR")
        os.environ["CIS_CACHE_DIR"] = str(cache)
        try:
            cold_s, cold_t, cold, cold_err = _run_queries(self.queries)
            warm_s, warm_t, warm, warm_err = _run_queries(self.queries)
        finally:
            if old is None:
                del os.environ["CIS_CACHE_DIR"]
            else:
                os.environ["CIS_CACHE_DIR"] = old
            shutil.rmtree(cache, ignore_errors=True)
        cold_by = {q.label: r for q, r in zip(self.queries, cold)}
        checks = [(f"cold pass misses the cache: {q.label}",
                   lambda c=c: c["meta"]["cached"] is False)
                  for q, c in zip(self.queries, cold)]
        checks += self.check(cold_by)
        checks += [(f"warm replay equals cold: {q.label}", lambda c=c, w=w: _strip(c) == _strip(w))
                   for q, c, w in zip(self.queries, cold, warm)]
        failed = _failed(checks)
        stage = {}
        for q, t in zip(self.queries, cold_t):
            stage[q.stage] = stage.get(q.stage, 0.0) + t
        hits = [t for r, t in zip(warm, warm_t) if r and r["meta"].get("cached") is True]
        extra = {
            "series_s": stage.get("series", 0.0),
            "closed_s": stage.get("closed", 0.0),
            "codes_s": stage.get("codes", 0.0),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cache_hits": len(hits),
        }
        if hits:
            extra["cache_hit_ms"] = 1000 * statistics.median(hits)
        pairs = sorted((label, _strip(r) if r else None) for label, r in cold_by.items())
        return Round(cold_s + warm_s, cold_t + warm_t, cold + warm, cold_err + warm_err,
                     failed, digest(pairs), extra)

    def check(self, r: dict) -> list[tuple[str, Callable[[], bool]]]:
        """Checks against independent routes, for the queries in the list."""

        def value(argv):
            return r[" ".join(argv)]["value"]

        def ran(*argvs):
            return all(" ".join(a) in r for a in argvs)

        out = []
        for m in SERIES_M:
            if ran(_series(m), _closed(m)):
                out.append((f"l1-exact == l1-closed at m={m}",
                            lambda m=m: abs(value(_series(m)) - value(_closed(m))) < 1e-9))
        if ran(*map(_prob, ENGINES)):
            out.append(("brute == hk == gf", lambda: len({value(_prob(e)) for e in ENGINES}) == 1))
        if ran(_roots(ROOTS_M)):
            out.append(("power-sum deviation < 1e-9", lambda: r[" ".join(_roots(ROOTS_M))]
                        ["meta"]["power_sum_max_deviation"] < 1e-9))
        for c in self.codes:
            def code_ok(c=c):
                size, words = value(_gv(*c)), self.codes[c]
                return (size == len(words) and size >= gv_bound(*c)
                        and min_distance(words) >= c[2])

            out.append((f"gv-code {c} meets the GV size at distance {c[2]}", code_ok))
        return out


# ---------------------------------------------------------------------------


def make(name: str, seed: int, scratch: Path):
    if name == "mc_short":
        return McShort(seed)
    if name == "mc_long":
        return McLong(seed)
    if name == "exact":
        return Exact(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


def run_rounds(workload, budget_s: float, after_round=None) -> list[Round]:
    """Repeat rounds while the next one is expected to end within budget_s."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round())
        if after_round is not None:
            after_round()
        if time.perf_counter() - start + rounds[-1].wall_s > budget_s:
            return rounds


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="median round time of mc_short")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    w = McShort(args.seed)
    walls = [w.round().wall_s for _ in range(PROBE_ROUNDS)]
    print(json.dumps({"wall_s": statistics.median(walls)}))
