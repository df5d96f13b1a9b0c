"""Word structure, run statistics, enumeration, and sampling uniformity."""

import math
import sys
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cis import (
    AlphabetViolation,
    DomainError,
    MultiplicityViolation,
    SpaceTooLarge,
    count_complete_bruteforce,
    enumerate_words,
    l1,
    l_max,
    l_start,
    make_word,
    multiset_count,
)
from cis import bounds, cardgame, exact, montecarlo, words
from cis.acceptance import _lmax_histogram
from cis.words import _l_max_letters, _word_blocks


def contains_in_order(letters, pattern):
    it = iter(letters)
    return all(any(x == p for x in it) for p in pattern)


def l1_by_containment(word):
    # independent formulation: largest k with 1..k a subsequence
    best = 0
    for k in range(1, word.n + 1):
        if contains_in_order(word.letters, range(1, k + 1)):
            best = k
        else:
            break
    return best


def test_worked_example():
    w = make_word([2, 3, 4, 1, 5, 2, 4, 3, 1, 5], m=2, n=5)
    assert l1(w) == 3
    assert l_start(w, 2) == 4
    assert l_max(w) == 4


def test_make_word_validation():
    make_word([1, 2, 2, 1], 2, 2)  # valid
    with pytest.raises(MultiplicityViolation):
        make_word([1, 1, 2, 2, 2], 2, 2)
    with pytest.raises(MultiplicityViolation):
        make_word([1, 1, 1, 2], 2, 2)
    with pytest.raises(AlphabetViolation):
        make_word([1, 2, 3, 3], 2, 2)
    with pytest.raises(AlphabetViolation):
        make_word([0, 1, 1, 2], 2, 2)
    with pytest.raises(DomainError):
        make_word([], 0, 2)
    with pytest.raises(DomainError):
        make_word([], 2, 0)


def test_word_is_frozen():
    w = make_word([1, 2], 1, 2)
    with pytest.raises(AttributeError):
        w.letters = (2, 1)


def test_multiset_count_small_table():
    assert multiset_count(1, 3) == 6
    assert multiset_count(2, 2) == 6
    assert multiset_count(2, 3) == 90
    assert multiset_count(3, 2) == 20
    assert multiset_count(5, 1) == 1


def test_l_start_rejects_out_of_range():
    w = make_word([1, 2], 1, 2)
    with pytest.raises(DomainError):
        l_start(w, 0)
    with pytest.raises(DomainError):
        l_start(w, 3)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 2), (2, 3), (3, 2), (1, 5)])
def test_l1_matches_containment_oracle(m, n):
    for w in enumerate_words(m, n):
        assert l1(w) == l1_by_containment(w)


@given(st.data())
@settings(max_examples=200)
def test_lmax_is_max_over_starts(data):
    m = data.draw(st.integers(1, 3), label="m")
    n = data.draw(st.integers(1, 5), label="n")
    base = [v for v in range(1, n + 1) for _ in range(m)]
    letters = data.draw(st.permutations(base), label="letters")
    w = make_word(letters, m, n)
    per_start = [l_start(w, i) for i in range(1, n + 1)]
    assert l_max(w) == max(per_start)
    for i, length in enumerate(per_start, start=1):
        assert 1 <= length <= n - i + 1  # letter i always occurs


def test_enumeration_is_complete_and_ordered():
    seen = list(enumerate_words(2, 3))
    assert len(seen) == multiset_count(2, 3) == 90
    tuples = [w.letters for w in seen]
    assert len(set(tuples)) == 90
    assert tuples == sorted(tuples)
    assert tuples[0] == (1, 1, 2, 2, 3, 3)


def test_enumeration_cap(monkeypatch):
    # S_{2,6} is the largest space under the cap; |S_{m,n}| >= 2^(m(n-1)) refuses m(n-1) >= 24 uncounted
    assert multiset_count(2, 6) <= words.ENUMERATION_CAP < min(multiset_count(1, 11), multiset_count(13, 2))
    assert all(multiset_count(m, n) >= 2 ** (m * (n - 1)) for m in range(1, 9) for n in range(1, 9))
    for m, n in ((3, 8), (1, 25), (24, 2)):
        with pytest.raises(SpaceTooLarge):
            list(enumerate_words(m, n))
        with pytest.raises(SpaceTooLarge):
            count_complete_bruteforce(m, n)
    # the word length binds at n = 1, where |S_{m,1}| = 1
    length = words.ENUMERATION_LENGTH_CAP
    assert count_complete_bruteforce(length, 1) == 1
    with pytest.raises(SpaceTooLarge):
        count_complete_bruteforce(length + 1, 1)
    monkeypatch.setattr(words, "ENUMERATION_CAP", 100)
    assert len(list(enumerate_words(2, 3))) == 90
    with pytest.raises(SpaceTooLarge):
        count_complete_bruteforce(1, 5)  # 120 words, counted before refused
    # from m(n-1) = 7, the cap's bit length, the space is refused without counting it
    monkeypatch.setattr(words, "multiset_count", None)
    for m, n in ((1, 8), (7, 2)):
        with pytest.raises(SpaceTooLarge):
            count_complete_bruteforce(m, n)


def test_identity_word_is_only_complete_permutation():
    # with one copy per value exactly one permutation contains 1..n in order
    for n in range(1, 7):
        assert count_complete_bruteforce(1, n) == 1


def _chi2_critical(df: int, alpha: float) -> float:
    """Upper critical value by bisection on the regularized gamma CDF."""
    lo, hi = 0.0, 10.0 * df + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cdf = mp.gammainc(df / 2, 0, mid / 2, regularized=True)
        if cdf < 1 - alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_sampler_uniformity_chi_square():
    # all 6 words of S_{2,2}, drawn by the estimators' own sampler; reject at significance 1e-6
    m, n, draws = 2, 2, 30000
    words_drawn = montecarlo._collect(draws, 777, [montecarlo._base(m, n)],
                                      lambda block: montecarlo._letters(block, m))
    cells = Counter(map(tuple, words_drawn.tolist()))
    assert set(cells) == {w.letters for w in enumerate_words(m, n)}
    expected = draws / 6
    stat = sum((c - expected) ** 2 / expected for c in cells.values())
    assert stat < _chi2_critical(df=5, alpha=1e-6)


def _next_permutation_reference(m, n):
    """S_{m,n} in lexicographic order by next-permutation steps (Knuth, TAOCP 4A, 7.2.1.2)."""
    a = [v for v in range(1, n + 1) for _ in range(m)]
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _rows(m, n):
    return [tuple(row) for block in _word_blocks(m, n) for row in block.tolist()]


# every (m, n) with |S_{m,n}| <= 2*10^4; the n = 1 column stops at m = 12
_SMALL = [(m, n) for m in range(1, 13) for n in range(1, 9) if multiset_count(m, n) <= 2 * 10**4]


@pytest.mark.parametrize("m,n", _SMALL)
def test_word_blocks_follow_next_permutation_order(m, n):
    assert _rows(m, n) == list(_next_permutation_reference(m, n))


def test_word_blocks_match_count():
    for m, n in [(3, 3), (1, 8), (2, 5), (6, 2)]:
        assert sum(len(block) for block in _word_blocks(m, n)) == multiset_count(m, n)


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (4, 2), (2, 2)])
def test_tiny_blocks_leave_every_result_unchanged(monkeypatch, m, n):
    # with blocks of at most three rows the walk goes deep into the prefixes
    # and emits many blocks, some of a single row
    expected = (list(_next_permutation_reference(m, n)), count_complete_bruteforce(m, n),
                _lmax_histogram(m, n))
    monkeypatch.setattr(words, "_BLOCK_ROWS", 3)
    assert max(len(block) for block in _word_blocks(m, n)) <= 3
    assert _rows(m, n) == expected[0]
    assert [w.letters for w in enumerate_words(m, n)] == expected[0]
    assert count_complete_bruteforce(m, n) == expected[1]
    assert _lmax_histogram(m, n) == expected[2]


@pytest.mark.parametrize("m,n", [(1, 6), (2, 4), (3, 3), (4, 2), (1, 1), (5, 1)])
def test_lmax_histogram_matches_the_per_word_scan(m, n):
    hist = Counter(_l_max_letters(letters, n) for letters in _next_permutation_reference(m, n))
    assert _lmax_histogram(m, n) == [hist[k] for k in range(n + 1)]


def test_complete_count_matches_the_per_word_scan():
    for m, n in [(1, 5), (2, 4), (3, 3), (4, 2)]:
        assert count_complete_bruteforce(m, n) == sum(
            l1(make_word(w, m, n)) == n for w in _next_permutation_reference(m, n))


class _NoNumpy(types.ModuleType):
    def __getattr__(self, name):
        raise AssertionError(f"touched numpy.{name}")


def test_enumeration_cap_fires_before_numpy_is_touched(monkeypatch):
    # numpy is imported inside the enumerator; a stub that fails on any use
    # shows that nothing is allocated before the cap is checked
    monkeypatch.setitem(sys.modules, "numpy", _NoNumpy("numpy"))
    with pytest.raises(SpaceTooLarge):
        next(enumerate_words(3, 8))
    with pytest.raises(SpaceTooLarge):
        count_complete_bruteforce(3, 8)


def test_one_letter_alphabet_needs_no_recursion():
    # one word of 5000 letters: neither the walk nor the table goes a
    # frame per letter
    assert count_complete_bruteforce(5000, 1) == 1
    (word,) = enumerate_words(5000, 1)
    assert word.letters == (1,) * 5000


def test_letters_use_the_narrowest_unsigned_type(monkeypatch):
    assert next(_word_blocks(2, 3)).dtype == np.uint8
    # one-row blocks: the first is the sorted word, 1499 letters deep, past
    # the interpreter's default recursion limit
    monkeypatch.setattr(words, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(words, "ENUMERATION_CAP", math.factorial(1500))
    block = next(_word_blocks(1, 1500))
    assert block.dtype == np.uint16
    assert block.tolist() == [list(range(1, 1501))]


# every public function of (m, n), with its other arguments valid for n >= 1
_MN_FUNCTIONS = {
    "make_word": lambda m, n: make_word([1], m, n),
    "multiset_count": multiset_count,
    "horton_kurn_h": exact.horton_kurn_h,
    "p_value": exact.p_value,
    "l1_finite_expectation": exact.l1_finite_expectation,
    "completion_lower": lambda m, n: bounds.completion_lower(m, n, 3, 2),
    "lower_cont_asymptotic": bounds.lower_cont_asymptotic,
    "safe_expected_exact": cardgame.safe_expected_exact,
    "expected_score": lambda m, n: cardgame.expected_score(m, n, "safe", 10, 1),
    "estimate_l1": lambda m, n: montecarlo.estimate_l1(m, n, 10, 1),
    "estimate_lmax": lambda m, n: montecarlo.estimate_lmax(m, n, 10, 1),
    "estimate_lis": lambda m, n: montecarlo.estimate_lis(m, n, 10, 1),
    "moments": lambda m, n: montecarlo.moments(m, n, 2, 10, 1),
    "check_observation1": lambda m, n: montecarlo.check_observation1(m, n, 1, 10, 1),
    "check_observation2": lambda m, n: montecarlo.check_observation2(m, n, (1,), 10, 1),
}


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0)])
@pytest.mark.parametrize("name", _MN_FUNCTIONS)
def test_every_function_of_m_and_n_refuses_an_empty_space(name, m, n):
    # S_{m,n} exists only for m, n >= 1; at n = 0 the k and pattern checks
    # of the observations would fail too, so the (m, n) check must come first
    with pytest.raises(DomainError) as info:
        _MN_FUNCTIONS[name](m, n)
    assert str(info.value) == f"need m >= 1 and n >= 1, got m={m}, n={n}"
