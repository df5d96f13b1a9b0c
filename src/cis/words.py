"""Multiset words and their continuously increasing subsequence statistics.

A word over the alphabet 1..n with multiplicity m uses every letter exactly
m times, so it has length m*n.  There are (mn)!/(m!)^n such words and the
uniform distribution over them is the basic probability space of this
package.

A subsequence is continuously increasing when its letters read
i, i+1, ..., j for some i <= j.  Three statistics matter:

* l_start(w, i): the longest such run starting at letter i,
* l1(w) = l_start(w, 1),
* l_max(w): the maximum of l_start over all starting letters.

Both l_start and l_max admit one-pass algorithms; the greedy scan for
l_start is exact because taking the earliest occurrence of each needed
letter never hurts later choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import AlphabetViolation, DomainError, MultiplicityViolation, SpaceTooLarge

if TYPE_CHECKING:
    from .rng import RandomSource

_MAX_LETTER = 2**31 - 1  # letters are kept within 32-bit range


@dataclass(frozen=True)
class Word:
    """Immutable word from S_{m,n}; construct through make_word or samplers."""

    letters: tuple[int, ...]
    m: int
    n: int

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def make_word(letters: Iterable[int], m: int, n: int) -> Word:
    """Validate letters against (m, n) and wrap them in a Word.

    Raises AlphabetViolation if a letter falls outside 1..n and
    MultiplicityViolation if any letter of the alphabet is not used
    exactly m times.
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if n > _MAX_LETTER:
        raise DomainError(f"alphabet size {n} exceeds 32-bit letter range")
    seq = tuple(int(x) for x in letters)
    counts = [0] * (n + 1)
    for x in seq:
        if x < 1 or x > n:
            raise AlphabetViolation(f"letter {x} outside alphabet 1..{n}")
        counts[x] += 1
    if len(seq) != m * n or any(c != m for c in counts[1:]):
        bad = next((v for v in range(1, n + 1) if counts[v] != m), None)
        raise MultiplicityViolation(
            f"letter {bad} occurs {counts[bad] if bad else 0} times, expected {m}"
            if bad is not None
            else f"word length {len(seq)} != m*n = {m * n}"
        )
    return Word(seq, m, n)


def multiset_count(m: int, n: int) -> int:
    """|S_{m,n}| = (mn)! / (m!)^n, exactly."""
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return math.factorial(m * n) // math.factorial(m) ** n


def sample_uniform(m: int, n: int, rng: RandomSource) -> Word:
    """Uniform draw from S_{m,n}.

    Fisher-Yates shuffle of the sorted base word; deterministic for a fixed
    RandomSource, so parallel callers must use distinct stream indices.
    """
    import numpy as np

    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    gen = rng.generator()
    base = np.repeat(np.arange(1, n + 1, dtype=np.int32), m)
    return Word(tuple(gen.permutation(base).tolist()), m, n)


def l_start(word: Word, i: int) -> int:
    """Length of the longest subsequence i, i+1, ..., j of the word.

    Greedy scan: keep a target letter, advance it on every occurrence.
    Returns 0 when letter i never occurs (impossible for valid words with
    i <= n, but the scan does not rely on that).
    """
    if i < 1 or i > word.n:
        raise DomainError(f"start letter {i} outside alphabet 1..{word.n}")
    target = i
    for x in word.letters:
        if x == target:
            target += 1
    return target - i


def l1(word: Word) -> int:
    """Longest run 1, 2, ..., j as a subsequence; the partial-feedback score."""
    return l_start(word, 1)


def l_max(word: Word) -> int:
    """max over i of l_start(word, i), via a single-pass dynamic program.

    best[v] holds the longest continuously increasing subsequence ending in
    letter v seen so far; each letter x updates
    best[x] = max(best[x], best[x-1] + 1).
    """
    return _l_max_letters(word.letters, word.n)


def _l_max_letters(letters: Iterable[int], n: int) -> int:
    """l_max of a letter sequence over 1..n, without building a Word."""
    best = [0] * (n + 1)
    for x in letters:
        cand = best[x - 1] + 1
        if cand > best[x]:
            best[x] = cand
    return max(best)


def _iter_letter_tuples(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Lexicographic enumeration of S_{m,n} as plain tuples.

    Classic next-permutation stepping, which handles repeated letters
    natively and costs amortized O(1) per word.
    """
    a = []
    for v in range(1, n + 1):
        a.extend([v] * m)
    size = len(a)
    while True:
        yield tuple(a)
        i = size - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = size - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def enumerate_words(m: int, n: int, cap: int = 10**7) -> Iterator[Word]:
    """Yield every word of S_{m,n} in lexicographic order.

    Raises SpaceTooLarge when |S_{m,n}| exceeds cap (default 1e7); the cap
    guards against accidentally unbounded loops, not memory (the iterator
    is lazy either way).
    """
    total = multiset_count(m, n)
    if total > cap:
        raise SpaceTooLarge(f"|S_({m},{n})| = {total} exceeds cap {cap}")
    for letters in _iter_letter_tuples(m, n):
        yield Word(letters, m, n)


def count_complete_bruteforce(m: int, n: int, cap: int = 10**7) -> int:
    """Number of words of S_{m,n} containing 1, 2, ..., n as a subsequence.

    Exhaustive count used as the ground-truth oracle for the closed-form
    count; same cap semantics as enumerate_words.
    """
    total = multiset_count(m, n)
    if total > cap:
        raise SpaceTooLarge(f"|S_({m},{n})| = {total} exceeds cap {cap}")
    hits = 0
    for letters in _iter_letter_tuples(m, n):
        target = 1
        for x in letters:
            if x == target:
                target += 1
        if target > n:
            hits += 1
    return hits
