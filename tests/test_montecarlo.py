"""Monte Carlo kernels against exact references, plus pinned seeded outputs."""

import math
import tracemalloc

import numpy as np
import pytest

from cis import (
    DomainError,
    SpaceTooLarge,
    central_target,
    check_observation1,
    check_observation2,
    estimate_l1,
    estimate_lis,
    estimate_lmax,
    expected_score,
    l1,
    l1_finite_expectation,
    l_max,
    l_start,
    make_word,
    moments,
    play,
    raw_target,
)
from cis import montecarlo
from cis.cardgame import _safe_score, _shifting_score
from cis.montecarlo import (
    Estimate,
    _base,
    _collect,
    _contains_subsequence,
    _l1_from_occ,
    _letters,
    _lis_from_block,
    _lmax_from_occ,
    _occ_tensor,
    _rank,
    _walk,
)
from cis.rng import RandomSource, substream


def _lis_reference(letters):
    # O(n^2) dynamic program, strictly increasing
    best = []
    for i, x in enumerate(letters):
        longest = 1
        for j in range(i):
            if letters[j] < x:
                longest = max(longest, best[j] + 1)
        best.append(longest)
    return max(best) if best else 0


def _contains_reference(letters, pattern):
    it = iter(letters)
    return all(any(x == p for x in it) for p in pattern)


def _block_rows(trials, seed, per_block, bases):
    # the sampling contract, one gen.permutation per row: the block from
    # trial `start` on draws from the stream keyed by (seed, start), all of
    # one base's rows before the next base's.  One list of rows per base
    rows = [[] for _ in bases]
    for start in range(0, trials, per_block):
        gen = substream(seed, start)
        count = min(per_block, trials - start)
        for out, base in zip(rows, bases):
            out.extend(gen.permutation(base).tolist() for _ in range(count))
    return rows


@pytest.mark.parametrize("count", [1, 7, 64])
def test_a_collected_block_is_the_consecutive_shuffles_of_its_stream(count, monkeypatch):
    # two blocks of `count` trials and a short third one, over two bases:
    # the kernel sees each block's rows of both bases side by side
    bases = [_base(2, 5), _base(3, 2)]
    monkeypatch.setattr(montecarlo, "_BLOCK_LETTERS", count * 16)
    trials, seed = 2 * count + 1, 2**64 - 1
    got = _collect(trials, seed, bases, lambda a, b: np.hstack([a, b]))
    first, second = _block_rows(trials, seed, count, bases)
    assert got.tolist() == [a + b for a, b in zip(first, second)]
    if count == 1:
        # a one-trial block is the word of its trial's own stream
        for i in range(trials):
            gen = substream(seed, i)
            assert got[i].tolist() == [*gen.permutation(bases[0]), *gen.permutation(bases[1])]


@pytest.mark.filterwarnings("error")
def test_seeds_past_2_63_give_distinct_streams():
    # the Philox key is built as uint64, so no seed passes through float64
    seeds = [2**63, 2**63 + 1, 2**64 - 1]
    draws = [substream(seed, 0).integers(0, 2**63, size=4).tolist() for seed in seeds]
    assert len({tuple(d) for d in draws}) == 3
    assert substream(0, 0).integers(0, 2**63, size=4).tolist() not in draws
    # seeds below 2^63 keep the stream of a plain [seed, stream] key
    for seed in (0, 1, 2**62 + 5, 2**63 - 1):
        plain = np.random.Generator(np.random.Philox(key=[seed, 3]))
        assert substream(seed, 3).random(4).tolist() == plain.random(4).tolist()


def test_stream_indices_past_2_64_are_refused_not_aliased():
    # the stream is the key's second 64-bit word: 2^64 would alias stream 0
    with pytest.raises(ValueError, match="stream index"):
        RandomSource(5, 2**64)
    with pytest.raises(ValueError, match="stream index"):
        RandomSource(5, -1)
    top = RandomSource(5, 2**64 - 1).generator().integers(0, 2**63, size=4).tolist()
    assert top != RandomSource(5, 0).generator().integers(0, 2**63, size=4).tolist()


@pytest.mark.parametrize("m,n", [(1, 4), (2, 5), (3, 3), (5, 2), (4, 1)])
def test_walk_through_a_repeated_row_takes_its_copies_in_order(m, n):
    labels = np.stack([substream(77, i).permutation(_base(m, n)) for i in range(20)])
    occ = _occ_tensor(labels, m, n)
    for v in range(n):
        assert _walk(occ, [v] * m).tolist() == [m] * 20
        # the row has no copy left after its last
        assert _walk(occ, [v] * (m + 1)).tolist() == [m] * 20


@pytest.mark.parametrize("m,n", [(1, 6), (2, 5), (3, 4), (4, 2), (2, 1), (1, 1)])
def test_kernels_match_word_level_references(m, n, monkeypatch):
    # 61 trials: one trial per block, 7 per block (a short last block), one
    # block; each block size samples its own words.  The reference words
    # come from shuffling the sorted word, the kernels' from the labels
    trials, seed = 61, 123456 + 17 * m + n
    sorted_word = np.repeat(np.arange(1, n + 1), m)
    patterns = [p for p in [(1,), (1, 2), (2, 3), (1, n), (n,)]
                if len(set(p)) == len(p) and max(p) <= n]

    def reference(per_block):
        (rows,) = _block_rows(trials, seed, per_block, [sorted_word])
        words = [make_word(row, m, n) for row in rows]
        return [
            [*w.letters, l1(w), l_max(w), play(w, "safe").score, play(w, "shifting").score,
             _lis_reference(w.letters), *(l_start(w, i) for i in range(1, n + 1)),
             *(_contains_reference(w.letters, p) for p in patterns)]
            for w in words
        ]

    def kernel(labels):
        letters = _letters(labels, m)
        occ = _occ_tensor(labels, m, n)
        return np.column_stack([
            letters, _l1_from_occ(occ), _lmax_from_occ(occ), _safe_score(occ),
            _shifting_score(occ), _lis_from_block(labels, m, n),
            *(_walk(occ, range(i - 1, n)) for i in range(1, n + 1)),
            *(_contains_subsequence(occ, p) for p in patterns),
        ])

    for per_block in (1, 7, trials):
        monkeypatch.setattr(montecarlo, "_BLOCK_LETTERS", per_block * m * n)
        got = _collect(trials, seed, [_base(m, n)], kernel)
        assert got.tolist() == reference(per_block), per_block


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [70_000, 40_000, 3_000, 50, 3])
def test_occ_tensor_of_32_bit_letters_matches_one_stable_argsort(m, n):
    # at every word length the intp labels of the whole block are scattered
    # into one int32 tensor, and each row put in order: by a sorting network
    # up to m = 4, by numpy's sort past it.  Short words come many to a
    # block, as the estimators sample them
    base = _base(m, n)
    assert base.dtype == np.intp
    rows = max(3, montecarlo._BLOCK_LETTERS // (m * n))
    block = np.random.default_rng(m * n).permuted(np.tile(base, (rows, 1)), axis=1)
    want = np.argsort(_letters(block, m), axis=1, kind="stable").reshape(-1, n, m)
    occ = _occ_tensor(block, m, n)
    assert occ.dtype == np.int32
    assert np.array_equal(occ, want)
    # a block of one word is scattered without row offsets
    one = _occ_tensor(block[:1], m, n)
    assert one.dtype == np.int32
    assert np.array_equal(one, want[:1])


@pytest.mark.parametrize("m", [1, 3])
def test_shuffled_labels_give_the_word_the_sorted_word_shuffles_into(m):
    # the shuffle draws the same whatever the array holds, so a trial that
    # shuffles the labels 0..mn-1 samples the same word, label s for s // m + 1,
    # as a shuffle of 1^m 2^m ... n^m on the same stream.  Long words come
    # one to a block, each on its trial's stream; short ones share a block
    trials, seed = 3, 41
    for n in (70_000, 50):
        labels = _base(m, n)
        assert labels.dtype == np.intp and labels.tolist() == list(range(m * n))
        word = np.repeat(np.arange(1, n + 1), m)
        got = _collect(trials, seed, [labels], lambda block: _letters(block, m))
        if n == 70_000:
            want = [substream(seed, i).permutation(word).tolist() for i in range(trials)]
        else:
            (want,) = _block_rows(trials, seed, montecarlo._BLOCK_LETTERS // (m * n), [word])
        assert got.tolist() == want


def test_observation2_catches_an_occurrence_tensor_out_of_order(monkeypatch):
    # with each row's two positions swapped, every walk takes the later copy
    # first: a two-letter pattern is then found with probability 1/2, not
    # 5/6.  Only the labeled branch goes through _occ_tensor, so the
    # multiset branch's own argsort shows the fault, in blocks of many
    # short words and in blocks of one long word
    occ_tensor = _occ_tensor
    monkeypatch.setattr(montecarlo, "_occ_tensor",
                        lambda block, m, n: occ_tensor(block, m, n)[..., [1, 0]])
    for n, trials in ((50, 400), (1 << 16, 120)):
        rep = check_observation2(2, n, (1, 2), trials, seed=1)
        assert rep.freq_labeled < rep.freq_multiset and rep.gap_in_se > 4, (n, rep)


def _lockstep_lmax_reference(occ):
    # the l_max kernel of version 0.3.0: one chain per (trial, start), all
    # stepped in lockstep until every chain has died
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
        idx = _rank(rows, cur)
        ok = np.flatnonzero((idx < m) & ~past_top[chain])
        chain, cur = chain[ok], rows.ravel()[ok * m + idx[ok]]
        length += np.diff(np.searchsorted(chain, edges)) > 0
    return length


def _landings(occ_trial, v):
    # which copy of each next value the chain from value v + 1 lands on
    copies, pos = [], occ_trial[v, 0]
    for row in occ_trial[v + 1:]:
        later = np.flatnonzero(row > pos)
        if later.size == 0:
            break
        copies.append(int(later[0]))
        pos = row[later[0]]
    return copies


@pytest.mark.parametrize("m", range(1, 9))
def test_lmax_kernel_matches_the_lockstep_kernel(m):
    # chains that reach a first copy merge into that row's chain; the rest
    # (excursions) step on until they die or merge.  The blocks hold
    # several trials, and for m >= 2 excursions that die, that merge, and
    # chains through two or more merges
    rng = np.random.default_rng(900 + m)
    died = merged = deep = 0
    for n in (1, 2, 3, 7, 40, 300):
        for trials in (2, 3, 17):
            block = np.stack([rng.permutation(m * n) for _ in range(trials)])
            occ = _occ_tensor(block, m, n)
            got = _lmax_from_occ(occ)
            assert got.tolist() == _lockstep_lmax_reference(occ).tolist(), (m, n, trials)
            landings = [[_landings(t, v) for v in range(n)] for t in occ]
            assert got.tolist() == [1 + max(map(len, chains)) for chains in landings]
            for chains in landings:
                for copies in chains:
                    kinds = "".join("0" if c == 0 else "x" for c in copies)
                    if kinds.startswith("x"):
                        merged += "0" in kinds
                        died += "0" not in kinds
                    deep += kinds.count("x0") >= 2
    if m == 1:
        assert died == merged == deep == 0
    else:
        assert min(died, merged, deep) > 0, (died, merged, deep)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 257, 2000])
def test_lmax_at_m_1_is_the_longest_ascending_run_of_the_inverse(n):
    # at m = 1 every chain runs on through values whose positions rise: the
    # longest run v, v+1, ... ascending in the inverse permutation
    rng = np.random.default_rng(n)
    perms = [rng.permutation(n) for _ in range(40)]
    perms.append(np.arange(n))
    perms.append(np.arange(n)[::-1])
    inverse = np.stack([np.argsort(p) for p in perms])
    want = []
    for positions in inverse.tolist():
        best = run = 1
        for a, b in zip(positions, positions[1:]):
            run = run + 1 if b > a else 1
            best = max(best, run)
        want.append(best)
    assert _lmax_from_occ(inverse[:, :, None]).tolist() == want
    assert want[-2:] == [n, 1]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_rank_counts_entries_at_or_before_pos(m):
    rng = np.random.default_rng(m)
    rows = np.sort(rng.integers(0, 12, size=(500, m)), axis=1)
    # half the positions tie with an entry of their row
    pos = np.where(rng.random(500) < 0.5, rows[np.arange(500), rng.integers(0, m, 500)],
                   rng.integers(-1, 13, 500))
    assert _rank(rows, pos).tolist() == np.count_nonzero(rows <= pos[:, None], axis=1).tolist()


def test_sampled_letters_form_valid_words():
    def sorted_rows(labels):
        return [sorted(row) == [v for v in range(1, 8) for _ in range(3)]
                for row in _letters(labels, 3).tolist()]

    assert _collect(5, 9, [_base(3, 7)], sorted_rows).all()


def test_estimate_l1_hits_exact_expectation():
    est = estimate_l1(2, 50, 40000, seed=20260101)
    exact = float(l1_finite_expectation(2, 50))
    assert abs(est.mean - exact) < 4 * est.std_error
    assert est.trials == 40000
    lo, hi = est.ci95
    assert lo < est.mean < hi


def test_estimate_lmax_dominates_l1_at_same_seed():
    # the same seed and block size sample identical words, so the means are ordered
    l1_est = estimate_l1(2, 30, 3000, seed=5150)
    lmax_est = estimate_lmax(2, 30, 3000, seed=5150)
    assert lmax_est.mean >= l1_est.mean


def test_single_value_alphabet_is_deterministic():
    est = estimate_l1(4, 1, 100, seed=3)
    assert est.mean == 1.0
    assert est.std_error == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 300])
def test_lis_kernel_matches_the_quadratic_reference(m, n):
    rng = np.random.default_rng(1000 * m + n)
    for trials in (1, 2, 17):
        block = np.stack([rng.permutation(_base(m, n)) for _ in range(trials)])
        want = [_lis_reference(row) for row in _letters(block, m).tolist()]
        assert _lis_from_block(block, m, n).tolist() == want, (m, n, trials)


@pytest.mark.parametrize("m", [1, 2])
def test_lis_kernel_grows_its_tails_past_64(m):
    # rows whose LIS passes the first 64 slots, next to rows that stay short
    n = 300
    rng = np.random.default_rng(5)
    nearly_sorted = _base(m, n).copy()
    for i in rng.integers(0, m * n - 1, size=40):
        nearly_sorted[[i, i + 1]] = nearly_sorted[[i + 1, i]]
    block = np.stack([_base(m, n), _base(m, n)[::-1], nearly_sorted, rng.permutation(_base(m, n))])
    want = [_lis_reference(row) for row in _letters(block, m).tolist()]
    assert want[0] == n and want[1] == 1 and want[2] > 128
    assert _lis_from_block(block, m, n).tolist() == want


def test_estimate_lis_is_the_same_at_every_block_size(monkeypatch):
    # each block size samples its own words; the estimate is their LIS
    m, n, trials, seed = 2, 30, 20, 64
    for per_block in (1, 7, trials):
        (rows,) = _block_rows(trials, seed, per_block, [_base(m, n)])
        want = [_lis_reference([s // m for s in row]) for row in rows]
        monkeypatch.setattr(montecarlo, "_LIS_BLOCK_LETTERS", per_block * m * n)
        assert estimate_lis(m, n, trials, seed) == Estimate.from_values(
            np.array(want, dtype=np.float64)[:, None], seed), per_block


def test_estimate_lis_memory_stays_within_a_few_blocks():
    # 200,000 one-letter trials fill one block; the tails hold n = 1 slot
    # per trial, not the 64 they start with at larger n
    tracemalloc.start()
    try:
        est = estimate_lis(1, 1, 200_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mean == 1.0
    assert peak <= 4 * montecarlo._LIS_BLOCK_LETTERS * 8


def test_estimate_lis_tracks_two_sqrt_n():
    est = estimate_lis(1, 2500, 120, seed=777)
    assert abs(est.mean - 100.0) < 10.0


def test_seeded_outputs_are_pinned():
    # a seeded output may change only together with a __version__ bump
    def pair(est):
        return (est.mean, est.std_error)

    assert pair(estimate_l1(2, 8, 300, seed=7)) == (2.54, 0.06797927417113167)
    assert pair(estimate_l1(3, 3, 300, seed=7)) == (2.716666666666667, 0.033541712107962036)
    assert pair(estimate_lmax(2, 8, 300, seed=7)) == (4.06, 0.05029677809052609)
    rep = moments(2, 8, r_max=3, trials=300, seed=7)
    assert pair(rep.mu) == (2.54, 0.06797927417113167)
    assert pair(rep.central[2]) == (1.3817333333333335, 0.11089056717891063)
    assert pair(rep.central[3]) == (1.1041279999999998, 0.342168997305847)
    assert pair(rep.raw[3]) == (28.02, 2.1972260813625537)
    obs1 = check_observation1(2, 6, 3, trials=300, seed=7)
    assert (obs1.freq_tail, obs1.freq_complete, obs1.pooled_se, obs1.gap_in_se) == (
        0.48333333333333334, 0.5433333333333333, 0.04073673380968928, 1.4728721325647598)
    obs2 = check_observation2(2, 4, (2, 4), trials=300, seed=7)
    assert (obs2.freq_multiset, obs2.freq_labeled, obs2.pooled_se, obs2.gap_in_se) == (
        0.8333333333333334, 0.8033333333333333, 0.031457790650212425, 0.9536588355354653)
    assert pair(expected_score(2, 8, "safe", 300, seed=7)) == (
        2.723333333333333, 0.0530072949552132)
    assert pair(expected_score(3, 3, "shifting", 300, seed=7)) == (3.41, 0.06748962511621885)
    # many trials to a block: the two LIS words of n = 70000 share one block
    assert pair(estimate_lis(1, 70000, 2, seed=3)) == (521.0, 1.0)
    assert pair(estimate_lis(2, 300, 50, seed=7)) == (43.74, 0.289700760461972)
    # long words, one to a block: each is the word of its trial's own stream
    assert pair(estimate_lmax(2, 70000, 3, seed=1)) == (10.333333333333334, 0.3333333333333333)
    assert pair(estimate_lmax(1, 70000, 6, seed=3)) == (8.166666666666666, 0.16666666666666669)
    assert pair(estimate_lmax(3, 70000, 4, seed=3)) == (12.75, 0.47871355387816905)
    assert pair(estimate_l1(2, 70000, 12, seed=3)) == (2.3333333333333335, 0.4143877070053741)
    assert pair(expected_score(2, 70000, "safe", 12, seed=3)) == (2.5, 0.2886751345948129)
    assert pair(expected_score(2, 70000, "shifting", 12, seed=3)) == (
        2.3333333333333335, 0.4143877070053741)
    obs1 = check_observation1(2, 70000, 3, trials=30, seed=3)
    assert (obs1.freq_tail, obs1.freq_complete, obs1.pooled_se, obs1.gap_in_se) == (
        0.4666666666666667, 0.6333333333333333, 0.12663742352494795, 1.3160933160791353)
    obs2 = check_observation2(2, 70000, (3, 2, 1), trials=30, seed=3)
    assert (obs2.freq_multiset, obs2.freq_labeled, obs2.pooled_se, obs2.gap_in_se) == (
        0.7333333333333333, 0.3333333333333333, 0.11800816042090448, 3.389596097196192)


def test_validation():
    with pytest.raises(DomainError):
        estimate_l1(2, 10, 1, seed=0)
    with pytest.raises(DomainError):
        estimate_l1(0, 10, 100, seed=0)
    with pytest.raises(SpaceTooLarge):
        estimate_lmax(2, 10**8, 10, seed=0)


def test_estimate_from_values_basics():
    est = Estimate.from_values(np.full((50, 1), 3.25), seed=1)
    assert est.mean == 3.25
    assert est.std_error == 0.0
    assert est.ci95 == (3.25, 3.25)


def test_moment_targets_table():
    assert central_target(2, 5) == 5
    assert central_target(3, 5) == 5
    assert central_target(4, 2) == 12
    assert central_target(6, 1) == 15
    assert raw_target(1, 2) == 3
    assert raw_target(2, 2) == 10
    assert raw_target(3, 2) == 32
    assert raw_target(4, 2) == 96


def test_moments_internal_identity():
    rep = moments(2, 40, r_max=4, trials=4000, seed=11)
    # plug-in central second moment equals raw second moment minus mean^2
    lhs = rep.central[2].mean
    rhs = rep.raw[2].mean - rep.mu.mean**2
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert set(rep.central) == {2, 3, 4}
    assert set(rep.raw) == {1, 2, 3, 4}
    assert "in-sample mean" in rep.caveat
    with pytest.raises(DomainError):
        moments(2, 10, r_max=1, trials=100, seed=0)
    with pytest.raises(DomainError):
        moments(2, 10, r_max=9, trials=100, seed=0)


def test_moments_variance_scales_like_m():
    # conjectured variance ~ m; at m = 9 the plug-in estimate lands within 10%
    rep = moments(9, 200, r_max=2, trials=30000, seed=99)
    assert abs(rep.central[2].mean / 9 - 1) < 0.10


def test_observation1_distribution_identity():
    rep = check_observation1(2, 6, 3, trials=20000, seed=404)
    assert rep.gap_in_se < 5
    # the completion leg also matches its exact value
    se = math.sqrt(rep.freq_complete * (1 - rep.freq_complete) / rep.trials) + 1e-12
    assert abs(rep.freq_complete - float(rep.exact)) < 5 * se
    with pytest.raises(DomainError):
        check_observation1(2, 4, 5, trials=100, seed=0)


def test_observation2_sampler_identity():
    rep = check_observation2(2, 3, (1, 2), trials=20000, seed=405)
    assert rep.gap_in_se < 5
    # containment of (1,2) is the 2-value completion event: probability 5/6
    se = math.sqrt(rep.freq_multiset * (1 - rep.freq_multiset) / rep.trials) + 1e-12
    assert abs(rep.freq_multiset - 5 / 6) < 5 * se
    with pytest.raises(DomainError):
        check_observation2(2, 3, (1, 1), trials=100, seed=0)
    with pytest.raises(DomainError):
        check_observation2(2, 3, (0, 2), trials=100, seed=0)
