"""Card game traces, closed-form scorers, and expected-score estimates."""

from fractions import Fraction

import numpy as np
import pytest

from cis import (
    DomainError,
    GameTrace,
    enumerate_words,
    expected_score,
    l1,
    make_word,
    multiset_count,
    play,
    safe_expected_exact,
)
from cis.cardgame import _safe_score, _shifting_score
from cis.montecarlo import _base, _l1_from_occ, _occ_tensor
from cis.rng import substream

_DECK = make_word([2, 1, 1, 3, 2, 3], 2, 3)


def test_trivial_trace():
    trace = play(_DECK, "trivial")
    assert trace.guesses == (1, 1, 1, 1, 1, 1)
    assert trace.feedback == (False, True, True, False, False, False)
    assert trace.score == 2


def test_safe_trace():
    trace = play(_DECK, "safe")
    assert trace.guesses == (1, 1, 1, 2, 2, 2)
    assert trace.feedback == (False, True, True, False, True, False)
    assert trace.score == 3


def test_shifting_trace():
    trace = play(_DECK, "shifting")
    assert trace.guesses == (1, 1, 2, 2, 2, 3)
    assert trace.feedback == (False, True, False, False, True, True)
    assert trace.score == 3


def test_trace_invariants():
    for trial in range(40):
        gen = substream(2024, trial)
        m, n = 1 + trial % 3, 2 + trial % 5
        letters = gen.permutation(_base(m, n)).tolist()
        word = make_word(letters, m, n)
        for strategy in ("trivial", "safe", "shifting"):
            trace = play(word, strategy)
            assert isinstance(trace, GameTrace)
            assert len(trace.guesses) == m * n
            assert len(trace.feedback) == m * n
            assert trace.score == sum(trace.feedback)
            assert all(1 <= g <= n for g in trace.guesses)
            # guessed type never decreases
            assert all(a <= b for a, b in zip(trace.guesses, trace.guesses[1:]))


def test_closed_scorers_match_play():
    for trial in range(300):
        gen = substream(31337, trial)
        m, n = 1 + trial % 4, 1 + trial % 6
        letters = gen.permutation(_base(m, n))
        word = make_word(letters.tolist(), m, n)
        occ = _occ_tensor(letters[None], m, n)
        assert _safe_score(occ)[0] == play(word, "safe").score
        assert _shifting_score(occ)[0] == play(word, "shifting").score
        assert play(word, "trivial").score == m


def test_walk_scorers_match_play_on_every_small_deck():
    # every S_{m,n} with at most 10^4 decks, each space stacked into one occurrence tensor
    instances = [(m, n) for m in range(1, 9) for n in range(1, 8) if multiset_count(m, n) <= 10**4]
    assert len(instances) > 20
    for m, n in instances:
        decks = list(enumerate_words(m, n))
        occ = _occ_tensor(np.array([w.letters for w in decks], dtype=np.uint8), m, n)
        assert _safe_score(occ).tolist() == [play(w, "safe").score for w in decks], (m, n)
        assert _shifting_score(occ).tolist() == [play(w, "shifting").score for w in decks], (m, n)
        assert _l1_from_occ(occ).tolist() == [l1(w) for w in decks], (m, n)


def test_shifting_scores_at_least_l1():
    for trial in range(200):
        gen = substream(555, trial)
        m, n = 1 + trial % 3, 1 + trial % 7
        letters = gen.permutation(_base(m, n)).tolist()
        word = make_word(letters, m, n)
        trace = play(word, "shifting")
        assert trace.score >= l1(word)
        if trace.guesses[-1] < n:
            # the chain never reached type n, so the player scored its run
            assert trace.score == l1(word)


def test_trivial_expected_score_is_exactly_m():
    est = expected_score(3, 5, "trivial", trials=500, seed=1)
    assert est.mean == 3.0
    assert est.std_error == 0.0
    # no deck is sampled, so the seed changes nothing but the record
    other = expected_score(3, 5, "trivial", trials=500, seed=2)
    assert (other.mean, other.std_error, other.ci95) == (est.mean, est.std_error, est.ci95)


def test_safe_expected_score_small_deck():
    # exact average over all of S_{2,4}
    scores = [play(w, "safe").score for w in enumerate_words(2, 4)]
    exact = Fraction(sum(scores), len(scores))
    assert exact == Fraction(862, 315)
    est = expected_score(2, 4, "safe", trials=40000, seed=8080)
    assert abs(est.mean - float(exact)) < 5 * est.std_error


def test_safe_expected_exact_matches_enumeration():
    # every S_{m,n} with at most 10^4 decks
    instances = [(m, n) for m in range(1, 9) for n in range(1, 8) if multiset_count(m, n) <= 10**4]
    assert len(instances) > 20
    for m, n in instances:
        scores = [play(w, "safe").score for w in enumerate_words(m, n)]
        assert safe_expected_exact(m, n) == Fraction(sum(scores), len(scores)), (m, n)


def test_safe_expected_exact_two_types():
    for m in range(1, 9):
        assert safe_expected_exact(m, 2) == m + 1 - Fraction(1, m + 1)


def test_safe_expected_exact_long_decks():
    assert safe_expected_exact(2, 5) == Fraction(31033, 11340)
    assert abs(float(safe_expected_exact(2, 100)) - 2.7365977) < 1e-7
    assert abs(float(safe_expected_exact(3, 100)) - 3.7716078) < 1e-7


def test_shifting_expected_score_long_deck():
    # for long decks the shifting mean sits near the limiting l1 mean
    est = expected_score(2, 100, "shifting", trials=20000, seed=9090)
    assert abs(est.mean - 2.75) < 4 * est.std_error + 0.02


def test_validation():
    with pytest.raises(DomainError):
        play(_DECK, "greedy")
    with pytest.raises(DomainError):
        expected_score(2, 2, "greedy", trials=10, seed=0)
    with pytest.raises(DomainError):
        expected_score(0, 2, "trivial", trials=10, seed=0)
    with pytest.raises(DomainError):
        expected_score(2, 2, "trivial", trials=1, seed=0)
    for m, n in ((0, 3), (3, 0), (-1, 2), (2, -1)):
        with pytest.raises(DomainError):
            safe_expected_exact(m, n)
