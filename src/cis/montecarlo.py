"""Seeded Monte Carlo estimators for run statistics of multiset words.

Every estimator draws trial i from the Philox stream keyed by (seed, i),
fills a preallocated value array in trial order, and reduces it with
fixed-shape numpy operations, so a seed fixes every statistic bitwise.

Trials run in blocks.  One generator is re-keyed to (seed, i) for each
trial (rng.substreams) and shuffles a copy of each base word into row i
of a (T, len) block, drawing exactly what gen.permutation(base) would.
Blocks hold about _BLOCK_LETTERS letters and at least one trial.

The kernels avoid per-trial Python loops.  A block of words is summarized
by its occurrence tensor occ of shape (T, n, m): occ[t, v-1] lists the
positions of value v in word t in increasing order, from one stable
argsort along the rows.  The greedy chain behind l1, pattern containment
and the shifting card-game player is one walk over rows of occ (_walk);
the all-starts chain for l_max advances every (trial, start) pair in
lockstep.  Each step touches only the trials still alive.
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
from .rng import substreams

_BLOCK_LETTERS = 1 << 14  # letters sampled per block (at least one trial)


def _base(m: int, n: int) -> np.ndarray:
    """The sorted word 1^m 2^m ... n^m that each trial shuffles."""
    return np.repeat(_small_range(1, n + 1), m)


def _small_range(start: int, stop: int) -> np.ndarray:
    # the smallest unsigned dtype that holds the values: the shuffle draws
    # the same whatever the dtype, and the stable argsort radix-sorts 8- and
    # 16-bit keys, several times faster than 64-bit ones
    return np.arange(start, stop, dtype=np.min_scalar_type(stop))


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise DomainError(f"need trials >= 2, got {trials}")


def _collect(trials: int, seed: int, bases: list[np.ndarray], kernel: Callable,
             width: int = 1) -> np.ndarray:
    """Fill a (trials, width) array block by block.

    Trial i shuffles a copy of each base, in order, with the stream keyed
    by (seed, i).  kernel(*blocks) maps the (T, len(base)) blocks of
    shuffled words to the T trials' values, shape (T,) or (T, width).
    """
    _check_trials(trials)
    values = np.empty((trials, width), dtype=np.float64)
    size = max(1, _BLOCK_LETTERS // sum(len(b) for b in bases))
    streams = substreams(seed, trials)
    for start in range(0, trials, size):
        count = min(size, trials - start)
        blocks = [np.tile(b, (count, 1)) for b in bases]
        for t in range(count):
            gen = next(streams)
            for block in blocks:
                gen.shuffle(block[t])
        values[start:start + count] = np.reshape(kernel(*blocks), (count, width))
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


def _occ_tensor(letters: np.ndarray, m: int, n: int) -> np.ndarray:
    # stable argsort groups equal values and keeps positions increasing
    return np.argsort(letters, axis=1, kind="stable").reshape(-1, n, m)


def _walk(occ: np.ndarray, rows: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Greedy chain through the given rows of each trial's occ, in order.

    Each row contributes its first position after the previous pick; a
    trial's walk stops at a row with none.  Returns per-trial arrays
    (steps, j): the number of rows matched and the index within its row
    of the last pick (-1 if none).  Taking the earliest position never
    hurts later rows, so steps is the longest chain through the rows as a
    subsequence.
    """
    trials, _, m = occ.shape
    steps = np.zeros(trials, dtype=np.int64)
    j = np.full(trials, -1, dtype=np.int64)
    alive = np.arange(trials)
    pos = np.full(trials, -1, dtype=np.int64)
    for v in rows:
        row = occ[alive, v]
        k = np.count_nonzero(row <= pos[:, None], axis=1)
        ok = np.flatnonzero(k < m)
        if ok.size == 0:
            break
        alive, k = alive[ok], k[ok]
        pos = row.ravel()[ok * m + k]
        j[alive] = k
        steps[alive] += 1
    return steps, j


def _l1_from_occ(occ: np.ndarray) -> np.ndarray:
    return _walk(occ, range(occ.shape[1]))[0]


def _lmax_from_occ(occ: np.ndarray) -> np.ndarray:
    # one chain per (trial, starting value), all advanced in lockstep over
    # the flat rows trial*n + v; a trial's l_max is 1 + the number of
    # rounds in which at least one of its chains finds its next value.
    # A chain that steps past value n lands on the next trial's first row
    # (clipped after the last trial) and is dropped by `past_top`.  Chains
    # stay sorted, so each trial's live chains are one contiguous run,
    # counted by searchsorted against the trials' edges.
    trials, n, m = occ.shape
    flat = occ.reshape(trials * n, m)
    edges = np.arange(trials + 1) * n
    past_top = np.zeros(trials * n + 1, dtype=bool)
    past_top[n::n] = True
    chain = np.arange(trials * n)
    cur = flat[:, 0]
    length = np.ones(trials, dtype=np.int64)
    while chain.size:
        chain += 1
        rows = flat.take(chain, axis=0, mode="clip")
        idx = np.count_nonzero(rows <= cur[:, None], axis=1)
        ok = np.flatnonzero((idx < m) & ~past_top[chain])
        chain, cur = chain[ok], rows.ravel()[ok * m + idx[ok]]
        length += np.diff(np.searchsorted(chain, edges)) > 0
    return length


def _lis_from_letters(letters: np.ndarray) -> int:
    tails: list[int] = []
    for x in letters.tolist():
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def _contains_subsequence(occ: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    return _walk(occ, (letter - 1 for letter in pattern))[0] == len(pattern)


def _l1_values(m: int, n: int, trials: int, seed: int) -> np.ndarray:
    return _collect(trials, seed, [_base(m, n)],
                    lambda letters: _l1_from_occ(_occ_tensor(letters, m, n)))


def estimate_l1(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the greedy run length starting at value 1."""
    _check_mn(m, n)
    return Estimate.from_values(_l1_values(m, n, trials, seed), seed)


def estimate_lmax(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the best run over all starting values."""
    _check_mn(m, n)
    if m * n > 10**8:
        raise SpaceTooLarge(f"word length m*n = {m * n} exceeds 10^8 per trial")

    values = _collect(trials, seed, [_base(m, n)],
                      lambda letters: _lmax_from_occ(_occ_tensor(letters, m, n)))
    return Estimate.from_values(values, seed)


def estimate_lis(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the longest strictly increasing subsequence."""
    _check_mn(m, n)

    values = _collect(trials, seed, [_base(m, n)],
                      lambda letters: [_lis_from_letters(row) for row in letters])
    return Estimate.from_values(values, seed)


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

    def kernel(pi, tau):
        tail = _l1_from_occ(_occ_tensor(pi, m, n)) >= k
        comp = _l1_from_occ(_occ_tensor(tau, m, k)) == k
        return np.stack([tail, comp], axis=1)

    values = _collect(trials, seed, [_base(m, n), _base(m, k)], kernel, width=2)
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

    def kernel(pi, labels):
        direct = _contains_subsequence(_occ_tensor(pi, m, n), w)
        projected = _contains_subsequence(_occ_tensor(labels // m + 1, m, n), w)
        return np.stack([direct, projected], axis=1)

    values = _collect(trials, seed, [_base(m, n), _small_range(0, m * n)], kernel, width=2)
    p1 = float(np.mean(values[:, 0]))
    p2 = float(np.mean(values[:, 1]))
    pooled, gap = _pooled_gap(p1, p2, trials)
    return Obs2Report(
        m=m, n=n, pattern=w, trials=trials, seed=seed,
        freq_multiset=p1, freq_labeled=p2, pooled_se=pooled, gap_in_se=gap,
    )
