"""Acceptance suite: thirteen numbered criteria behind `cis verify-all`.

Each criterion is an independent check of the mathematics against this
implementation's own oracles (exact enumeration, spectral identities,
statistical bands).  run_one wraps a criterion with a timer and, at the
full level, folds the stated runtime budget into the verdict.  Tolerances
are fixed here and never adjusted to fit measurements; a failing clause
stays failing until the underlying quantity is actually wrong or right.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from unittest.mock import patch

import numpy as np

from . import bounds, cardgame, exact, montecarlo, spectral, words
from .errors import DomainError

_SEED = 20260822  # acceptance-wide base; criteria derive distinct substreams

_LEVELS = ("quick", "full")


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


_REGISTRY: dict[int, tuple[str, float | None, object]] = {}


def _criterion(cid: int, name: str, budget: float | None):
    def wrap(fn):
        _REGISTRY[cid] = (name, budget, fn)
        return fn

    return wrap


def run_one(cid: int, level: str = "full") -> CriterionResult:
    if level not in _LEVELS:
        raise DomainError(f"level must be one of {_LEVELS}, got {level!r}")
    if cid not in _REGISTRY:
        raise DomainError(f"no criterion {cid}; known: {sorted(_REGISTRY)}")
    name, budget, fn = _REGISTRY[cid]
    start = time.perf_counter()
    passed, detail = fn(level)
    elapsed = time.perf_counter() - start
    if level == "full" and budget is not None and elapsed >= budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"
    return CriterionResult(cid, name, passed, detail, elapsed)


def run_all(level: str = "full") -> list[CriterionResult]:
    return [run_one(cid, level) for cid in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# plumbing


def _run_cli(argv):
    """Drive the CLI in-process against a throwaway cache; parse JSON out."""
    from . import cli

    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with patch.dict(os.environ, {"CIS_CACHE_DIR": tmp}), redirect_stdout(buf):
            code = cli.main(list(argv))
    text = buf.getvalue().strip()
    record = json.loads(text) if text.startswith("{") else None
    return code, record


def _grid(limit: int) -> list[tuple[int, int]]:
    """All (m, n) with |S_{m,n}| <= limit; the n = 1 column stops at m = 12.

    |S_{m,1}| = 1 for every m, so without the cap the column is infinite;
    twelve singletons already exercise every code path.
    """
    out = []
    for m in range(1, 13):
        for n in count(1):
            if n > 1 and words.multiset_count(m, n) > limit:
                break
            out.append((m, n))
    return out


def _lmax_histogram(m: int, n: int) -> list[int]:
    """hist[k] = number of words of S_{m,n} whose maximal run has length k.

    The l_max dynamic program best[x] = max(best[x], best[x-1] + 1) of
    words.l_max, run one letter position at a time across all rows of an
    enumeration block.
    """
    hist = np.zeros(n + 1, dtype=np.int64)
    for block in words._word_blocks(m, n):
        # best[r, v]: longest run ending in letter v within row r's letters so far
        best = np.zeros((len(block), n + 1), dtype=np.min_scalar_type(n))
        flat = best.reshape(-1)
        row_start = np.arange(0, best.size, n + 1)
        for col in block.T:
            at = row_start + col
            flat[at] = np.maximum(flat[at], flat[at - 1] + 1)
        hist += np.bincount(best.max(axis=1), minlength=n + 1)
    return hist.tolist()


def _min_distance_ok(code: bounds.CodeBook, m: int, n: int, delta: int) -> bool:
    """Independent distance check: every pair of codewords, compared position by position.

    A pair agrees in n - d positions when its Hamming distance is d.  With
    each word one-hot encoded per position, the agreements of a block of
    words against all later words are one matrix product, so duplicates
    (n agreements) fail as well.  At delta = 1 the condition is that the
    words are distinct, checked directly.
    """
    if delta == 1:
        return len(set(code.words)) == len(code.words)
    w = np.asarray(code.words, dtype=np.int64) - 1
    size = len(w)
    onehot = np.zeros((size, n * m), dtype=np.float32)  # agreement counts <= n are exact
    onehot[np.arange(size)[:, None], np.arange(n) * m + w] = 1.0
    step = max(1, (1 << 20) // size)  # about 4 MB of agreements per block
    for i in range(0, size, step):
        agree = onehot[i:i + step] @ onehot[i:].T
        rows = np.arange(len(agree))
        agree[rows, rows] = -1  # a word against itself
        if agree.max() > n - delta:
            return False
    return True


# ---------------------------------------------------------------------------
# criteria


@_criterion(1, "closed-form exactness", budget=1.0)
def _c1(level):
    targets = {1: math.e - 1, 2: math.e * (math.cos(1) + math.sin(1)) - 1}
    gaps = {}
    for m, target in targets.items():
        code, rec = _run_cli(["l1-closed", "--m", str(m)])
        if code != 0 or rec is None:
            return False, f"l1-closed --m {m} exited {code}"
        gaps[m] = abs(rec["value"] - target)
    ok = all(g < 1e-10 for g in gaps.values())
    return ok, f"|value - target| = {gaps[1]:.1e} (m=1), {gaps[2]:.1e} (m=2); limit 1e-10"


@_criterion(2, "triple-engine agreement", budget=120.0)
def _c2(level):
    m_top = 6 if level == "full" else 4
    worst = 0.0
    for m in range(1, m_top + 1):
        series = exact.l1_series(m, eps=1e-12).value
        closed = spectral.l1_closed_form(m).value
        worst = max(worst, abs(series - closed))
    if worst >= 1e-8:
        return False, f"series and closed form disagree by {worst:.2e}"
    m_cap, n_cap = (5, 12) if level == "full" else (3, 8)
    pairs = 0
    for m in range(1, m_cap + 1):
        for n in range(1, n_cap + 1):
            if exact.p_value(m, n) != exact.complete_prob(m, n, engine="hk"):
                return False, f"generating-function and counting engines split at (m={m}, n={n})"
            pairs += 1
    return True, f"series vs closed gap <= {worst:.1e} for m <= {m_top}; {pairs} exact engine agreements"


@_criterion(3, "brute-force oracle", budget=180.0)
def _c3(level):
    limit = 10**6 if level == "full" else 10**4
    grid = _grid(limit)
    for m, n in grid:
        if exact.horton_kurn_h(m, n) != words.count_complete_bruteforce(m, n):
            return False, f"closed count != exhaustive count at (m={m}, n={n})"
    if exact.horton_kurn_h(2, 2) != 5:
        return False, "h(2,2) != 5"
    for n in range(1, 7):
        if exact.horton_kurn_h(1, n) != 1:
            return False, f"h(1,{n}) != 1"
    return True, f"complete-word counts agree on {len(grid)} instances, incl. h(2,2)=5 and h(1,n)=1"


@_criterion(4, "approximation decay", budget=30.0)
def _c4(level):
    gap = {m: abs(spectral.l1_closed_form(m).value - exact.approx_l1(m)) for m in (4, 12)}
    ok = gap[12] < 0.05 and gap[12] < gap[4]
    return ok, f"two-term gap {gap[12]:.1e} at m=12 (< 0.05) vs {gap[4]:.1e} at m=4"


@_criterion(5, "spectral identities", budget=60.0)
def _c5(level):
    m_top = 12 if level == "full" else 6
    worst = 0.0
    for m in range(1, m_top + 1):
        rootset = spectral.find_roots(m, precision_bits=128)
        report = spectral.power_sum_check(rootset)
        worst = max(worst, report.max_deviation)
        if report.max_deviation >= 1e-9:
            return False, f"power sums off by {report.max_deviation:.2e} at m={m}"
        series = spectral.reciprocal_series(m, 12)
        c = series.coefficients
        if c[0] != 1:
            return False, f"c_0 = {c[0]} != 1 at m={m}"
        if abs(float(c[1] + Fraction(1, m + 2))) >= 1e-12:
            return False, f"c_1 != -1/(m+2) at m={m}"
        if not series.within_envelope:
            return False, f"reciprocal coefficients escape their envelope at m={m}"
    return True, f"power sums within {worst:.1e} and series coefficients enveloped for m <= {m_top}"


@_criterion(6, "bounds sandwich", budget=300.0)
def _c6(level):
    limit = 10**6 if level == "full" else 10**4
    grid = _grid(limit)
    tails = 0
    floors = 0
    for m, n in grid:
        total = words.multiset_count(m, n)
        hist = _lmax_histogram(m, n)
        if sum(hist) != total:
            return False, f"enumeration lost words at (m={m}, n={n})"
        family = bounds.continuous_runs(n)
        running = 0
        for k in range(n, 0, -1):
            running += hist[k]
            if Fraction(running, total) > bounds.tail_bound(family, m, k):
                return False, f"tail bound violated at (m={m}, n={n}, k={k})"
            tails += 1
        exact_complete = Fraction(hist[n], total)
        floor = bounds.completion_lower(m, n, 1, 1)  # singleton code always exists
        if m >= 2 and n >= 2:
            for delta in range(1, n // 2 + 1):
                code = bounds.greedy_code(m, n, delta)
                floor = max(floor, bounds.completion_lower(m, n, code.size, delta))
        if not 0 <= floor <= exact_complete:
            return False, (f"completion floor {floor} outside [0, {exact_complete}] "
                           f"at (m={m}, n={n})")
        floors += 1
    return True, f"{tails} tail bounds and {floors} completion floors hold on {len(grid)} instances"


@_criterion(7, "Gilbert-Varshamov codes", budget=120.0)
def _c7(level):
    cap = 10**5 if level == "full" else 10**3
    instances = []
    m = 2
    while m * m <= cap:
        n = 2
        while m**n <= cap:
            instances.extend((m, n, delta) for delta in range(1, n // 2 + 1))
            n += 1
        m += 1
    for m, n, delta in instances:
        code = bounds.greedy_code(m, n, delta, cap=cap)
        if Fraction(code.size) < bounds.gv_size_bound(m, n, delta):
            return False, f"greedy code size {code.size} misses GV at (m={m}, n={n}, delta={delta})"
        if not _min_distance_ok(code, m, n, delta):
            return False, f"minimum distance below {delta} at (m={m}, n={n})"
    return True, f"{len(instances)} (m, n, delta) instances meet the GV size with verified distance"


@_criterion(8, "Monte Carlo vs closed form", budget=60.0)
def _c8(level):
    trials = 200_000 if level == "full" else 20_000
    est = montecarlo.estimate_l1(2, 50, trials, seed=_SEED + 8)
    gap = abs(est.mean - 2.7560516)
    return gap < 4 * est.std_error, (
        f"mean {est.mean:.5f} is {gap / est.std_error:.2f} std errors from 2.7560516 (limit 4)"
    )


@_criterion(9, "maximal-run band", budget=600.0)
def _c9(level):
    n = 10**5 if level == "full" else 10**4
    trials = 500 if level == "full" else 150
    g = bounds.inverse_gamma(float(n))
    est1 = montecarlo.estimate_lmax(1, n, trials, seed=_SEED + 91)
    est2 = montecarlo.estimate_lmax(2, n, trials, seed=_SEED + 92)
    ok1 = g - 3 <= est1.mean <= g + 3
    ok2 = g - 2 <= est2.mean <= 3 * g
    return ok1 and ok2, (
        f"inverse gamma({n}) = {g:.3f}; m=1 mean {est1.mean:.3f} in [{g - 3:.2f}, {g + 3:.2f}]: {ok1}; "
        f"m=2 mean {est2.mean:.3f} in [{g - 2:.2f}, {3 * g:.2f}]: {ok2}"
    )


@_criterion(10, "card game scores", budget=120.0)
def _c10(level):
    m, n = 2, 100
    t_small = 10_000 if level == "full" else 2_000
    t_big = 100_000 if level == "full" else 10_000
    clauses = []

    trivial = cardgame.expected_score(m, n, "trivial", t_small, seed=_SEED + 101)
    ok_trivial = trivial.mean == float(m) and trivial.std_error == 0.0
    clauses.append((ok_trivial, f"trivial constant at {m}: {ok_trivial}"))

    def undercut(occ):
        return cardgame._shifting_score(occ) < montecarlo._l1_from_occ(occ)

    undercuts = int(montecarlo._occ_values(m, n, t_small, _SEED + 102, undercut).sum())
    clauses.append((undercuts == 0, f"shifting >= l1 on {t_small - undercuts}/{t_small} trials"))

    # the exact safe mean is certified by enumerating every deck of S_{2,k}
    ok_enum = all(
        cardgame.safe_expected_exact(m, k)
        == Fraction(sum(cardgame.play(w, "safe").score for w in words.enumerate_words(m, k)),
                    words.multiset_count(m, k))
        for k in range(1, 5)
    )
    clauses.append((ok_enum, f"exact safe mean equals enumeration of play() on S_{{{m},1..4}}: {ok_enum}"))

    # m+1-1/(m+1) is the exact safe mean on two-type decks only
    ok_two = all(cardgame.safe_expected_exact(k, 2) == k + 1 - Fraction(1, k + 1) for k in range(1, 7))
    clauses.append((ok_two, f"exact safe mean at n=2 equals m+1-1/(m+1) for m=1..6: {ok_two}"))

    safe = cardgame.expected_score(m, n, "safe", t_big, seed=_SEED + 103)
    bench_safe = float(cardgame.safe_expected_exact(m, n))
    gap_safe = abs(safe.mean - bench_safe)
    band_safe = 4 * safe.std_error + 0.02
    clauses.append((gap_safe <= band_safe,
                    f"safe mean {safe.mean:.4f} vs exact {bench_safe:.4f}: "
                    f"gap {gap_safe:.4f}, band {band_safe:.4f}"))

    shifting = cardgame.expected_score(m, n, "shifting", t_big, seed=_SEED + 104)
    bench_shift = m + 1 - 1 / (m + 2)
    gap_shift = abs(shifting.mean - bench_shift)
    band_shift = 4 * shifting.std_error + 0.02
    clauses.append((gap_shift <= band_shift,
                    f"shifting mean {shifting.mean:.4f} vs benchmark {bench_shift:.4f}: "
                    f"gap {gap_shift:.4f}, band {band_shift:.4f}"))

    return all(ok for ok, _ in clauses), "; ".join(text for _, text in clauses)


@_criterion(11, "distribution identities", budget=60.0)
def _c11(level):
    trials = 100_000 if level == "full" else 20_000
    reports = [
        montecarlo.check_observation1(2, 8, 3, trials, seed=_SEED + 111),
        montecarlo.check_observation1(2, 6, 2, trials, seed=_SEED + 112),
        montecarlo.check_observation2(2, 4, (2, 4), trials, seed=_SEED + 113),
        montecarlo.check_observation2(2, 3, (1, 2), trials, seed=_SEED + 114),
    ]
    gaps = [r.gap_in_se for r in reports]
    ok = all(g < 4 for g in gaps)
    return ok, "pooled-se gaps " + ", ".join(f"{g:.2f}" for g in gaps) + " (each < 4)"


@_criterion(12, "longest increasing subsequence probe", budget=120.0)
def _c12(level):
    n = 10_000 if level == "full" else 2_500
    trials = 200 if level == "full" else 100
    est = montecarlo.estimate_lis(1, n, trials, seed=_SEED + 12)
    target = 2 * math.sqrt(n)
    ok = abs(est.mean - target) < 0.1 * target
    return ok, f"mean LIS {est.mean:.1f} within 10% of 2 sqrt(n) = {target:.0f}: {ok}"


_DETERMINISM_COMMANDS = (
    ("mc", "l1", "--m", "2", "--n", "20", "--trials", "600", "--seed", "99"),
    ("mc", "lmax", "--m", "2", "--n", "20", "--trials", "600", "--seed", "99"),
    ("mc", "moments", "--m", "2", "--n", "30", "--r-max", "4", "--trials", "600", "--seed", "99"),
    ("mc", "lis", "--m", "1", "--n", "50", "--trials", "300", "--seed", "99"),
    ("mc", "obs1", "--m", "2", "--n", "6", "--k", "2", "--trials", "600", "--seed", "99"),
    ("mc", "obs2", "--m", "2", "--n", "4", "--pattern", "2,4", "--trials", "600", "--seed", "99"),
    ("cardgame", "--strategy", "trivial", "--m", "2", "--n", "12", "--trials", "600", "--seed", "99"),
    ("cardgame", "--strategy", "safe", "--m", "2", "--n", "12", "--trials", "600", "--seed", "99"),
    ("cardgame", "--strategy", "shifting", "--m", "2", "--n", "12", "--trials", "600", "--seed", "99"),
)


@_criterion(13, "seeded determinism across repeated runs", budget=None)
def _c13(level):
    for argv in _DETERMINISM_COMMANDS:
        outputs = []
        for run in (1, 2):
            code, record = _run_cli(argv)
            if code != 0 or record is None:
                return False, f"{' '.join(argv)} exited {code} on run {run}"
            record["meta"].pop("timestamp", None)
            outputs.append(json.dumps(record, sort_keys=True))
        if outputs[0] != outputs[1]:
            return False, f"run-to-run dependence in: {' '.join(argv)}"
    return True, (f"{len(_DETERMINISM_COMMANDS)} seeded commands bitwise-stable across "
                  "two runs, each against a fresh cache")
