"""Seeded Monte Carlo estimators for run statistics of multiset words.

Every estimator draws trial i from the Philox stream keyed by (seed, i),
fills a preallocated value array in trial order, and reduces it with
fixed-shape numpy operations, so a seed fixes every statistic bitwise.

Trials run in blocks.  One generator is re-keyed to (seed, i) for each
trial (rng.substreams) and shuffles a copy of each base into row i of a
(T, len) block, drawing exactly what gen.permutation(base) would.  The
base of a word of S_{m,n} is the labels 0..mn-1 (_base), label s standing
for letter s // m + 1 (_letters): the shuffle draws the same whatever the
array holds, so this is the word a shuffle of 1^m 2^m ... n^m gives.
Labels are np.intp, the one item size Generator.shuffle has a fast path
for; the occurrence tensor built from them is int32 (mn <= 10^8).
Blocks hold about _BLOCK_LETTERS letters (estimate_lis:
_LIS_BLOCK_LETTERS) and at least one trial.  _base makes every
estimator's (m, n) check (words._check_mn) and refuses words longer
than _MAX_LETTERS before allocating anything.

The kernels avoid per-trial Python loops.  A block of words is summarized
by its occurrence tensor occ of shape (T, n, m): occ[t, v-1] lists the
positions of value v in word t in increasing order (_occ_tensor).  occ
is the inverse permutation of the labels, since the copies of value v
are labels vm .. vm + m - 1: one scatter of the whole block,
occ.flat[t*mn + label] = position, then each row's m positions put in
order by a sorting network (by numpy's sort past m = 4).  l1,
pattern containment and the safe and shifting card-game players are each
one greedy walk through a sequence of rows of occ (_walk), which returns
the number of rows matched; a row may repeat, and then gives its next
position after the last pick.  l_max needs the chain from every start
(_lmax_from_occ).  A chain that reaches a value's first copy is from
then on that value's own chain, so one rank count per start, on views
of occ, finds the chains that run on into the next start's.  At m = 1
each chain either does so or dies, and l_max is the longest ascending
run of the inverse permutation.  Only chains that land on a later copy
step on, in lockstep, until they die or reach a first copy and so run
on like the rest.  l_max is then the longest stretch of starts whose
chains run on into each other, plus the chain that ends it.  _rank
counts the entries of each row at or before a position, over the row's
m columns.  _occ_values runs a kernel over the occurrence tensor of each
block of sampled words.

The LIS needs no occurrence tensor.  _lis_from_block runs patience sort
on all the words of a block in lockstep, one letter column at a time:
row t's letters are offset by t(n+1), so every row's tails lie in one
sorted flat array, and one searchsorted per column finds each row's
bisect_left slot.  That is a Python step per column rather than per
letter, so estimate_lis takes blocks of _LIS_BLOCK_LETTERS = 2^19
letters (52 trials at n = 10^4); every other estimator keeps the smaller
_BLOCK_LETTERS, which bounds its peak memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, SpaceTooLarge
from .exact import complete_prob
from .rng import substreams
from .words import _check_mn

_BLOCK_LETTERS = 1 << 14  # letters sampled per block (at least one trial)
_LIS_BLOCK_LETTERS = 1 << 19  # the same for estimate_lis, whose kernel loops per column
_RANK_COLUMNS = 4  # widest rows that _rank sums column by column
_MAX_LETTERS = 10**8  # longest word a trial may sample
# comparators (i, j) that put columns i < j of rows of m entries in order;
# numpy's sort along so short an axis costs 2-3x as much as the network
_SORT_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)),
                  4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def _base(m: int, n: int) -> np.ndarray:
    """What each trial shuffles into a word of S_{m,n}: the labels 0..mn-1.

    Label s stands for letter s // m + 1 (_letters).  The shuffle draws
    the same whatever the array holds, so the word is the one a shuffle of
    1^m 2^m ... n^m gives.  The labels are np.intp: Generator.shuffle
    copies items of that size on a specialized path and narrower ones
    through a general memcpy, and intp labels, offset by their row, index
    _occ_tensor's one block-wide scatter without a cast.  SpaceTooLarge
    past _MAX_LETTERS letters, after the (m, n) check.
    """
    _check_mn(m, n)
    if m * n > _MAX_LETTERS:
        raise SpaceTooLarge(f"word length m*n = {m * n} exceeds 10^8 per trial")
    return np.arange(m * n)


def _letters(block: np.ndarray, m: int) -> np.ndarray:
    """The words of a block of shuffled _base(m, n) rows."""
    return block // m + 1


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise DomainError(f"need trials >= 2, got {trials}")


def _collect(trials: int, seed: int, bases: list[np.ndarray], kernel: Callable,
             block_letters: int | None = None) -> np.ndarray:
    """Fill a (trials, width) array block by block.

    Trial i shuffles a copy of each base, in order, with the stream keyed
    by (seed, i).  kernel(*blocks) maps the (T, len(base)) blocks of
    shuffled bases to the T trials' values, shape (T,) or (T, width); the
    first block's values fix the width.  A block holds about block_letters
    letters (_BLOCK_LETTERS by default) and at least one trial.
    """
    _check_trials(trials)
    values = None
    size = max(1, (block_letters or _BLOCK_LETTERS) // sum(len(b) for b in bases))
    streams = substreams(seed, trials)
    for start in range(0, trials, size):
        count = min(size, trials - start)
        blocks = [np.tile(b, (count, 1)) for b in bases]
        for t in range(count):
            gen = next(streams)
            for block in blocks:
                gen.shuffle(block[t])
        block_values = np.reshape(kernel(*blocks), (count, -1))
        if values is None:
            values = np.empty((trials, block_values.shape[1]), dtype=np.float64)
        values[start:start + count] = block_values
    return values


def _occ_values(m: int, n: int, trials: int, seed: int, kernel: Callable) -> np.ndarray:
    """_collect over words of S_{m,n}, with kernel applied to each block's occurrence tensor."""
    return _collect(trials, seed, [_base(m, n)], lambda block: kernel(_occ_tensor(block, m, n)))


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


def _occ_tensor(block: np.ndarray, m: int, n: int) -> np.ndarray:
    """The (T, n, m) int32 occurrence tensor of a block of shuffled _base(m, n) rows.

    The inverse permutation of each row's labels, scattered for the whole
    block at once: row t's label s goes to flat slot t*mn + s, which is
    occ[t, s // m, s % m].  Each row's m positions are then put in order,
    by a sorting network up to m = 4 and by numpy's sort past that.
    """
    trials, length = block.shape
    occ = np.empty(trials * length, dtype=np.int32)
    occ[block + np.arange(0, occ.size, length)[:, None]] = np.arange(length, dtype=np.int32)
    occ = occ.reshape(trials, n, m)
    if m in _SORT_NETWORKS:
        low = np.empty(occ.shape[:2], dtype=occ.dtype)
        for i, j in _SORT_NETWORKS[m]:
            np.minimum(occ[..., i], occ[..., j], out=low)
            np.maximum(occ[..., i], occ[..., j], out=occ[..., j])
            occ[..., i] = low
    elif m > 1:
        occ.sort(axis=2)
    return occ


def _rank(rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """How many entries of each row are at or before pos, for increasing rows.

    Rows of up to _RANK_COLUMNS entries are summed one boolean column at a
    time, into uint8 counts: numpy's count_nonzero along so short an axis is its slow path,
    about 5x slower at m = 2 and 10^5 rows.  The column passes stay faster
    on wider rows too once a block has a few hundred rows: on 10^5 sorted
    int32 rows they take 1.1 against 3.3 ms at m = 6 and 1.3 against
    3.1 ms at m = 8 (2 CPUs, Python 3.11, numpy 2.4).  count_nonzero wins
    on blocks of up to about 160 rows from m = 6 on, and on long blocks
    from m = 16 on.  No workload or criterion runs m > 4, so the wider
    rows keep count_nonzero.
    """
    if rows.shape[1] > _RANK_COLUMNS:
        return np.count_nonzero(rows <= pos[:, None], axis=1)
    k = (rows[:, 0] <= pos).view(np.uint8)
    for c in range(1, rows.shape[1]):
        k += rows[:, c] <= pos
    return k


def _walk(occ: np.ndarray, rows: Iterable[int]) -> np.ndarray:
    """Greedy chain through the given rows of each trial's occ, in order.

    Each row contributes its first position after the previous pick; a
    trial's walk stops at a row with none.  A row may repeat: it then
    gives its next position after the last pick, so row v walked m times
    takes the copies of value v+1 after the walk so far one by one, and
    stops when they run out.  Returns the per-trial number of rows
    matched.  Taking the earliest position never
    hurts later rows, so this is the longest chain through the rows as a
    subsequence.
    """
    trials, _, m = occ.shape
    steps = np.zeros(trials, dtype=np.int64)
    alive = np.arange(trials)
    pos = np.full(trials, -1, dtype=np.int64)
    for v in rows:
        row = occ[alive, v]
        k = _rank(row, pos)
        ok = np.flatnonzero(k < m)
        if ok.size == 0:
            break
        alive, k = alive[ok], k[ok]
        pos = row.ravel()[ok * m + k]
        steps[alive] += 1
    return steps


def _l1_from_occ(occ: np.ndarray) -> np.ndarray:
    return _walk(occ, range(occ.shape[1]))


def _lmax_from_occ(occ: np.ndarray) -> np.ndarray:
    # Over the flat rows r = trial*n + v, the chain from r starts at the
    # first copy of its value and lands on copy s[r] of the next value, or
    # dies (s[r] == m, as at every trial's top row).  A chain that lands
    # on a first copy is from then on that row's own chain, so where s[r]
    # is 0 the chain from r runs on into the chain from r + 1, one value
    # longer.  So does one that lands on a later copy (0 < s < m, never at
    # m = 1) and then on some row's first copy: it stays at or after the
    # chain from r + 1, which starts on the first copy, and so meets it
    # there.  These excursions step in lockstep until they die or land on
    # a copy 0.  Every other chain ends: those of the rows with s == m and
    # of the excursions that die.  A trial's longest chain starts just
    # after one of these ends (or at value 1) and runs on to the next, so
    # l_max is the largest gap between ends, less one, plus the later
    # end's own length.
    trials, n, m = occ.shape
    rows = trials * n
    flat = occ.reshape(rows, m)
    # the first rank pass reads whole columns: rank on a column-major copy
    f = np.asfortranarray(flat)
    first = _rank(f[1:], f[:-1, 0])
    s = np.empty(rows, dtype=first.dtype)
    s[:-1] = first
    s[n - 1::n] = m
    breaks = np.flatnonzero(s != 0)  # the rows whose chain may end
    length = np.ones(breaks.size, dtype=np.int32)  # values on each chain; 0: runs on
    s_break = s[breaks]
    chain = np.flatnonzero(s_break < m)  # the excursions, by index into breaks
    # each live excursion has `steps` values, the last one at pos in `row`
    row, steps = breaks[chain] + 1, 2
    pos = flat.ravel()[row * m + s_break[chain]]
    while chain.size:
        length[chain] = steps  # unless it goes on
        top = s[row]
        row += 1
        nextrow = flat.take(row, axis=0, mode="clip")
        # pos is past the first copy, so the rank is at least top, and
        # top == m where the chain passed a trial's top row
        k = np.maximum(_rank(nextrow, pos), top)
        length[chain[k == 0]] = 0
        go = np.flatnonzero((k > 0) & (k < m))
        chain, row = chain[go], row[go]
        pos = nextrow.ravel()[go * m + k[go]]
        steps += 1
    kept = length != 0
    ends, best = breaks[kept], length[kept]
    # one more than the run from the row after the previous end (-1 for
    # the first) up to each end, then on along the end's own chain
    best += ends
    best[1:] -= ends[:-1]
    best[0] += 1
    return np.maximum.reduceat(best, np.searchsorted(ends, np.arange(0, rows, n))) - 1


def _lis_from_block(block: np.ndarray, m: int, n: int) -> np.ndarray:
    """Longest strictly increasing subsequence of each word of a block of _base(m, n) rows.

    Patience sort for every row at once, one letter column at a time.  Row
    t's letters are shifted by t(n+1), and its cap tails sit in slots
    t*cap .. t*cap + cap - 1 of one flat array, the free ones holding the
    row's sentinel t(n+1) + n.  The flat array is then sorted throughout,
    and the first slot at or above a shifted letter is the row's
    bisect_left slot, so one searchsorted and one scatter update every row.
    A row's LIS is its number of slots below its sentinel.  cap starts at
    min(64, n) and doubles, up to n, once some row fills more than half of
    it; each chunk of columns is at most cap less the longest row's tails,
    so no row outgrows its slots, and once cap = n no row can.  The shifted
    letters are built per chunk into a C-order (chunk, T) array, so each
    column is contiguous; tails and keys each stay within the block's size.
    """
    trials, length = block.shape
    top = np.arange(trials, dtype=np.int64) * (n + 1) + n  # each row's sentinel
    shift = top - n
    rows = np.arange(trials)
    cap = min(64, n)
    tails = np.repeat(top, cap)
    longest = start = 0
    while start < length:
        if cap < n and 2 * longest > cap:
            grown = np.repeat(top, min(2 * cap, n)).reshape(trials, -1)
            grown[:, :cap] = tails.reshape(trials, cap)
            tails, cap = grown.ravel(), grown.shape[1]
        stop = length if cap == n else min(length, start + cap - longest)
        keys = np.empty((stop - start, trials), dtype=np.int64)
        np.floor_divide(block[:, start:stop].T, m, out=keys)
        keys += shift
        for col in keys:
            tails[tails.searchsorted(col)] = col
        start = stop
        lengths = tails.searchsorted(top) - rows * cap
        longest = int(lengths.max())
    return lengths


def _contains_subsequence(occ: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    return _walk(occ, (letter - 1 for letter in pattern)) == len(pattern)


def estimate_l1(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the greedy run length starting at value 1."""
    return Estimate.from_values(_occ_values(m, n, trials, seed, _l1_from_occ), seed)


def estimate_lmax(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the best run over all starting values."""
    values = _occ_values(m, n, trials, seed, _lmax_from_occ)
    return Estimate.from_values(values, seed)


def estimate_lis(m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sample mean of the longest strictly increasing subsequence.

    Trials run in blocks of about _LIS_BLOCK_LETTERS letters, and
    _lis_from_block runs patience sort on a block's words in lockstep: one
    searchsorted and one scatter per letter column update the tails of
    every word at once.  Each word's value is the one a bisect_left
    patience sort of its letters gives.
    """
    values = _collect(trials, seed, [_base(m, n)], lambda block: _lis_from_block(block, m, n),
                      _LIS_BLOCK_LETTERS)
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
    if not 2 <= r_max <= 8:
        raise DomainError(f"need 2 <= r_max <= 8, got {r_max}")

    values = _occ_values(m, n, trials, seed, _l1_from_occ)[:, 0]
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
    base = _base(m, n)  # its (m, n) check comes before the check of k, which reads n
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")

    def kernel(pi, tau):
        tail = _l1_from_occ(_occ_tensor(pi, m, n)) >= k
        comp = _l1_from_occ(_occ_tensor(tau, m, k)) == k
        return np.stack([tail, comp], axis=1)

    values = _collect(trials, seed, [base, _base(m, k)], kernel)
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

    freq_multiset shuffles the sorted word 1^m 2^m ... n^m and builds its
    occurrence tensor with its own stable argsort; freq_labeled permutes
    m*n distinct labeled cards and projects label s to value s // m + 1,
    through _base and _occ_tensor as every estimator does.  Both must
    agree: the projection is uniform.  The two routes share only the
    shuffle loop and the walk, so a fault in _base or _occ_tensor shows
    as a gap.
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
    labels = _base(m, n)  # checks (m, n) and the length cap before the word is allocated
    w = tuple(int(x) for x in pattern)
    if not w:
        raise DomainError("pattern must be non-empty")
    if len(set(w)) != len(w):
        raise DomainError(f"pattern letters must be distinct, got {w}")
    if any(x < 1 or x > n for x in w):
        raise DomainError(f"pattern letters must lie in 1..{n}, got {w}")

    word = np.repeat(np.arange(1, n + 1), m)

    def kernel(pi, tau):
        # the letters in their smallest type: numpy radix-sorts 8- and 16-bit keys
        keys = pi.astype(np.min_scalar_type(n), copy=False)
        occ = np.argsort(keys, axis=1, kind="stable").reshape(-1, n, m)
        direct = _contains_subsequence(occ, w)
        projected = _contains_subsequence(_occ_tensor(tau, m, n), w)
        return np.stack([direct, projected], axis=1)

    values = _collect(trials, seed, [word, labels], kernel)
    p1 = float(np.mean(values[:, 0]))
    p2 = float(np.mean(values[:, 1]))
    pooled, gap = _pooled_gap(p1, p2, trials)
    return Obs2Report(
        m=m, n=n, pattern=w, trials=trials, seed=seed,
        freq_multiset=p1, freq_labeled=p2, pooled_se=pooled, gap_in_se=gap,
    )
