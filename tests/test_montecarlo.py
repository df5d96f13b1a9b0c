"""Monte Carlo kernels against exact references, plus pinned seeded outputs."""

import math

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
from cis.cardgame import _shifting_score
from cis.montecarlo import (
    Estimate,
    _contains_subsequence,
    _l1_from_occ,
    _lis_from_letters,
    _lmax_from_occ,
    _occ_matrix,
    _sample_letters,
    _walk,
)
from cis.rng import substream


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


@pytest.mark.parametrize("m,n", [(1, 6), (2, 5), (3, 4), (4, 2), (2, 1), (1, 1)])
def test_kernels_match_word_level_references(m, n):
    for trial in range(60):
        gen = substream(123456 + 17 * m + n, trial)
        letters = _sample_letters(gen, m, n)
        occ = _occ_matrix(letters, m, n)
        word = make_word(letters.tolist(), m, n)
        assert _l1_from_occ(occ) == l1(word)
        for i in range(1, n + 1):
            assert _walk(occ, range(i - 1, n))[0] == l_start(word, i)
        assert _shifting_score(occ) == play(word, "shifting").score
        assert _lmax_from_occ(occ, m, n) == l_max(word)
        assert _lis_from_letters(letters) == _lis_reference(letters.tolist())
        for pattern in [(1,), (1, 2), (2, 3), (1, n), (n,)]:
            if len(set(pattern)) == len(pattern) and max(pattern) <= n:
                assert _contains_subsequence(occ, pattern) == _contains_reference(
                    letters.tolist(), pattern
                )


def test_sampled_letters_form_valid_words():
    gen = substream(9, 0)
    letters = _sample_letters(gen, 3, 7)
    assert sorted(letters.tolist()) == [v for v in range(1, 8) for _ in range(3)]


def test_estimate_l1_hits_exact_expectation():
    est = estimate_l1(2, 50, 40000, seed=20260101)
    exact = float(l1_finite_expectation(2, 50))
    assert abs(est.mean - exact) < 4 * est.std_error
    assert est.trials == 40000
    lo, hi = est.ci95
    assert lo < est.mean < hi


def test_estimate_lmax_dominates_l1_at_same_seed():
    # identical substreams sample identical words, so the means are ordered
    l1_est = estimate_l1(2, 30, 3000, seed=5150)
    lmax_est = estimate_lmax(2, 30, 3000, seed=5150)
    assert lmax_est.mean >= l1_est.mean


def test_single_value_alphabet_is_deterministic():
    est = estimate_l1(4, 1, 100, seed=3)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_estimate_lis_tracks_two_sqrt_n():
    est = estimate_lis(1, 2500, 120, seed=777)
    assert abs(est.mean - 100.0) < 10.0


def test_seeded_outputs_are_pinned():
    # a seeded output may change only together with a __version__ bump
    def pair(est):
        return (est.mean, est.std_error)

    assert pair(estimate_l1(2, 8, 300, seed=7)) == (2.6733333333333333, 0.07238466139146191)
    assert pair(estimate_l1(3, 3, 300, seed=7)) == (2.7533333333333334, 0.029816732425196977)
    assert pair(estimate_lmax(2, 8, 300, seed=7)) == (4.096666666666667, 0.0593721016230132)
    rep = moments(2, 8, r_max=3, trials=300, seed=7)
    assert pair(rep.mu) == (2.6733333333333333, 0.07238466139146191)
    assert pair(rep.central[2]) == (1.5666222222222221, 0.1553742000851745)
    assert pair(rep.central[3]) == (1.6634820740740737, 0.6273843283158445)
    assert pair(rep.raw[3]) == (33.333333333333336, 3.00245285579056)
    obs1 = check_observation1(2, 6, 3, trials=300, seed=7)
    assert (obs1.freq_tail, obs1.freq_complete, obs1.pooled_se, obs1.gap_in_se) == (
        0.5666666666666667, 0.5, 0.04064298035149307, 1.640299655441424)
    obs2 = check_observation2(2, 4, (2, 4), trials=300, seed=7)
    assert (obs2.freq_multiset, obs2.freq_labeled, obs2.pooled_se, obs2.gap_in_se) == (
        0.8533333333333334, 0.8, 0.03083048034848822, 1.7298897951146763)
    assert pair(expected_score(2, 8, "safe", 300, seed=7)) == (
        2.7533333333333334, 0.05780707029801792)
    assert pair(expected_score(3, 3, "shifting", 300, seed=7)) == (3.46, 0.06530265700768306)


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
