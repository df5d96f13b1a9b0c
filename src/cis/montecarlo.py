"""Seeded Monte Carlo estimators for run statistics of multiset words.

Every estimator draws trial j from the Philox substream keyed by
(seed, j), fills a preallocated value array in trial order, and reduces
it with fixed-shape numpy operations, so a seed fixes every statistic
bitwise.

The kernels avoid per-letter Python loops.  A word is summarized by its
occurrence matrix occ (row v-1 lists the positions of value v in
increasing order, via one stable argsort).  The greedy chain behind l1,
pattern containment and the shifting card-game player is one
searchsorted walk over its rows (_walk); the all-starts chain for l_max
advances every start in lockstep.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, SpaceTooLarge
from .exact import complete_prob
from .rng import substream


def _collect(trials: int, seed: int, kernel: Callable, width: int = 1) -> np.ndarray:
    """Fill a (trials, width) array, kernel(gen) giving one trial's row."""
    if trials < 2:
        raise DomainError(f"need trials >= 2, got {trials}")
    values = np.empty((trials, width), dtype=np.float64)
    for i in range(trials):
        values[i] = kernel(substream(seed, i))
    return values


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and a 95% normal interval."""

    mean: float
    std_error: float
    trials: int
    seed: int
    ci95: tuple[float, float]

    @staticmethod
    def from_values(values: np.ndarray, seed: int) -> "Estimate":
        trials = values.shape[0]
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(trials)
        return Estimate(mean, se, trials, seed, (mean - 1.96 * se, mean + 1.96 * se))


def _check_mn(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")


def _sample_letters(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform multiset word as an int64 array of values in 1..n."""
    return gen.permutation(np.repeat(np.arange(1, n + 1, dtype=np.int64), m))


def _occ_matrix(letters: np.ndarray, m: int, n: int) -> np.ndarray:
    # stable argsort groups equal values and keeps positions increasing
    return np.argsort(letters, kind="stable").reshape(n, m)


def _walk(occ: np.ndarray, rows: Iterable[int]) -> tuple[int, int]:
    """Greedy chain through the given rows of occ, in order.

    Each row contributes its first position after the previous pick; the
    walk stops at a row with none.  Returns (steps, j): the number of rows
    matched and the index within its row of the last pick (-1 if none).
    Taking the earliest position never hurts later rows, so steps is the
    longest chain through the rows as a subsequence.
    """
    m = occ.shape[1]
    pos = -1
    steps = 0
    j = -1
    for v in rows:
        row = occ[v]
        k = int(np.searchsorted(row, pos, side="right"))
        if k == m:
            break
        pos = int(row[k])
        j = k
        steps += 1
    return steps, j


def _l1_from_occ(occ: np.ndarray) -> int:
    return _walk(occ, range(occ.shape[0]))[0]


def _lmax_from_occ(occ: np.ndarray, m: int, n: int) -> int:
    # one chain per starting value, all advanced in lockstep; l_max is
    # 1 + number of rounds in which at least one chain finds its next value
    cur = occ[:, 0].copy()
    vals = np.arange(n)
    length = 1
    while True:
        nxt = vals + 1
        alive = nxt < n
        if not alive.any():
            return length
        rows = occ[nxt[alive]]
        thresh = cur[alive]
        idx = (rows <= thresh[:, None]).sum(axis=1)
        ok = idx < m
        if not ok.any():
            return length
        sel = np.nonzero(ok)[0]
        cur = rows[sel, idx[sel]]
        vals = nxt[alive][ok]
        length += 1


def _lis_from_letters(letters: np.ndarray) -> int:
    tails: list[int] = []
    for x in letters.tolist():
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def _contains_subsequence(occ: np.ndarray, pattern: tuple[int, ...]) -> bool:
    return _walk(occ, (letter - 1 for letter in pattern))[0] == len(pattern)


def _l1_values(m: int, n: int, trials: int, seed: int) -> np.ndarray:
    def kernel(gen):
        return _l1_from_occ(_occ_matrix(_sample_letters(gen, m, n), m, n))

    return _collect(trials, seed, kernel)


def estimate_l1(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the greedy run length starting at value 1."""
    _check_mn(m, n)
    return Estimate.from_values(_l1_values(m, n, trials, seed), seed)


def estimate_lmax(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the best run over all starting values."""
    _check_mn(m, n)
    if m * n > 10**8:
        raise SpaceTooLarge(f"word length m*n = {m * n} exceeds 10^8 per trial")

    def kernel(gen):
        letters = _sample_letters(gen, m, n)
        return _lmax_from_occ(_occ_matrix(letters, m, n), m, n)

    return Estimate.from_values(_collect(trials, seed, kernel), seed)


def estimate_lis(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the longest strictly increasing subsequence."""
    _check_mn(m, n)

    def kernel(gen):
        return _lis_from_letters(_sample_letters(gen, m, n))

    return Estimate.from_values(_collect(trials, seed, kernel), seed)


def central_target(r: int, m: int) -> float:
    """Conjectured r-th central moment scale c_r m^floor(r/2).

    c_r = r!/(2^(r/2) (r/2)!) for even r; r!/(3 2^((r-1)/2) ((r-3)/2)!)
    for odd r >= 3.
    """
    if r < 2:
        raise DomainError(f"central targets start at r=2, got r={r}")
    if r % 2 == 0:
        c = Fraction(math.factorial(r), 2 ** (r // 2) * math.factorial(r // 2))
    else:
        c = Fraction(math.factorial(r), 3 * 2 ** ((r - 1) // 2) * math.factorial((r - 3) // 2))
    return float(c) * m ** (r // 2)


def raw_target(r: int, m: int) -> float:
    """Conjectured r-th raw moment m^r + C(r+1, 2) m^(r-1)."""
    if r < 1:
        raise DomainError(f"raw targets start at r=1, got r={r}")
    return float(m**r + math.comb(r + 1, 2) * m ** (r - 1))


@dataclass(frozen=True)
class MomentReport:
    """Empirical moments of l1 next to their conjectured targets.

    central[r] estimates E[(l1 - mu)^r] for r = 2..r_max against the
    in-sample mean (the plug-in bias is O(1/trials); see caveat), raw[r]
    estimates E[l1^r] for r = 1..r_max.
    """

    m: int
    n: int
    trials: int
    seed: int
    mu: Estimate
    central: dict[int, Estimate]
    raw: dict[int, Estimate]
    central_targets: dict[int, float]
    raw_targets: dict[int, float]
    caveat: str


def moments(m: int, n: int, r_max: int, trials: int, seed: int) -> MomentReport:
    """Estimate raw and central moments of l1 up to order r_max (<= 8)."""
    _check_mn(m, n)
    if not 2 <= r_max <= 8:
        raise DomainError(f"need 2 <= r_max <= 8, got {r_max}")

    values = _l1_values(m, n, trials, seed)[:, 0]
    mu = Estimate.from_values(values[:, None], seed)
    centered = values - np.mean(values)
    central = {r: Estimate.from_values((centered**r)[:, None], seed) for r in range(2, r_max + 1)}
    raw = {r: Estimate.from_values((values**r)[:, None], seed) for r in range(1, r_max + 1)}
    return MomentReport(
        m=m,
        n=n,
        trials=trials,
        seed=seed,
        mu=mu,
        central=central,
        raw=raw,
        central_targets={r: central_target(r, m) for r in range(2, r_max + 1)},
        raw_targets={r: raw_target(r, m) for r in range(1, r_max + 1)},
        caveat="central moments are taken against the in-sample mean; "
        "the substitution bias is O(1/trials)",
    )


def _pooled_gap(p1: float, p2: float, trials: int) -> tuple[float, float]:
    pooled = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / trials)
    if pooled == 0.0:
        return pooled, 0.0 if p1 == p2 else math.inf
    return pooled, abs(p1 - p2) / pooled


@dataclass(frozen=True)
class Obs1Report:
    """Tail event Pr[l1 >= k] on n values vs completion on k values.

    The two probabilities are equal in distribution; a large gap (in
    pooled standard errors) indicates sampler bias, not mathematics.
    """

    m: int
    n: int
    k: int
    trials: int
    seed: int
    freq_tail: float        # empirical Pr[l1(m, n) >= k]
    freq_complete: float    # empirical Pr[l1(m, k) = k]
    exact: Fraction         # completion probability for (m, k)
    pooled_se: float
    gap_in_se: float


def check_observation1(m: int, n: int, k: int, trials: int, seed: int) -> Obs1Report:
    """Empirically compare Pr[l1 >= k] over n values with Pr[l1 = k] over k."""
    _check_mn(m, n)
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")

    def kernel(gen):
        pi = _sample_letters(gen, m, n)
        tail = _l1_from_occ(_occ_matrix(pi, m, n)) >= k
        tau = _sample_letters(gen, m, k)
        comp = _l1_from_occ(_occ_matrix(tau, m, k)) == k
        return (float(tail), float(comp))

    values = _collect(trials, seed, kernel, width=2)
    p1 = float(np.mean(values[:, 0]))
    p2 = float(np.mean(values[:, 1]))
    pooled, gap = _pooled_gap(p1, p2, trials)
    return Obs1Report(
        m=m, n=n, k=k, trials=trials, seed=seed,
        freq_tail=p1, freq_complete=p2, exact=complete_prob(m, k),
        pooled_se=pooled, gap_in_se=gap,
    )


@dataclass(frozen=True)
class Obs2Report:
    """Containment frequency of a fixed pattern under two samplers.

    freq_multiset samples words from S_{m,n} directly; freq_labeled
    permutes m*n distinct labeled cards and projects label s to value
    s // m + 1.  Both must agree: the projection is uniform.
    """

    m: int
    n: int
    pattern: tuple[int, ...]
    trials: int
    seed: int
    freq_multiset: float
    freq_labeled: float
    pooled_se: float
    gap_in_se: float


def check_observation2(m: int, n: int, pattern, trials: int, seed: int) -> Obs2Report:
    """Compare subsequence containment under multiset vs labeled sampling."""
    _check_mn(m, n)
    w = tuple(int(x) for x in pattern)
    if not w:
        raise DomainError("pattern must be non-empty")
    if len(set(w)) != len(w):
        raise DomainError(f"pattern letters must be distinct, got {w}")
    if any(x < 1 or x > n for x in w):
        raise DomainError(f"pattern letters must lie in 1..{n}, got {w}")

    def kernel(gen):
        pi = _sample_letters(gen, m, n)
        direct = _contains_subsequence(_occ_matrix(pi, m, n), w)
        labels = gen.permutation(m * n)
        tau = labels // m + 1
        projected = _contains_subsequence(_occ_matrix(tau, m, n), w)
        return (float(direct), float(projected))

    values = _collect(trials, seed, kernel, width=2)
    p1 = float(np.mean(values[:, 0]))
    p2 = float(np.mean(values[:, 1]))
    pooled, gap = _pooled_gap(p1, p2, trials)
    return Obs2Report(
        m=m, n=n, pattern=w, trials=trials, seed=seed,
        freq_multiset=p1, freq_labeled=p2, pooled_se=pooled, gap_in_se=gap,
    )
