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

Small spaces are enumerated exhaustively, as the independent oracle for
the exact engines: _word_blocks yields S_{m,n} as numpy blocks whose
rows, read in order, are the words in lexicographic order, and the
callers scan a block one letter position at a time across all its rows.
numpy is imported inside the functions that use it, so importing this
module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AlphabetViolation, DomainError, MultiplicityViolation, SpaceTooLarge

_MAX_LETTER = 2**31 - 1  # letters are kept within 32-bit range
ENUMERATION_CAP = 10**7  # most words enumerated; S_{2,6}, 7,484,400 words, is the largest space under it
# most letters per enumerated word; it binds at n = 1, where the scans take a Python step
# per letter of the one word: (10^4, 1) takes about 0.03 s, (10^5, 1) about 0.7 s
ENUMERATION_LENGTH_CAP = 10**4


@dataclass(frozen=True)
class Word:
    """Immutable word from S_{m,n}; construct through make_word."""

    letters: tuple[int, ...]
    m: int
    n: int

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def _check_mn(m: int, n: int) -> None:
    """DomainError unless S_{m,n} exists; the one (m, n) check of the package."""
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")


def make_word(letters: Iterable[int], m: int, n: int) -> Word:
    """Validate letters against (m, n) and wrap them in a Word.

    Raises AlphabetViolation if a letter falls outside 1..n and
    MultiplicityViolation if any letter of the alphabet is not used
    exactly m times.
    """
    _check_mn(m, n)
    if n > _MAX_LETTER:
        raise DomainError(f"alphabet size {n} exceeds 32-bit letter range")
    seq = tuple(int(x) for x in letters)
    counts = [0] * (n + 1)
    for x in seq:
        if x < 1 or x > n:
            raise AlphabetViolation(f"letter {x} outside alphabet 1..{n}")
        counts[x] += 1
    bad = next((v for v in range(1, n + 1) if counts[v] != m), None)
    if bad is not None:
        raise MultiplicityViolation(f"letter {bad} occurs {counts[bad]} times, expected {m}")
    return Word(seq, m, n)


def multiset_count(m: int, n: int) -> int:
    """|S_{m,n}| = (mn)! / (m!)^n, exactly."""
    _check_mn(m, n)
    return math.factorial(m * n) // math.factorial(m) ** n


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


_BLOCK_ROWS = 1 << 16  # a block is emitted once the remaining multiset has this few arrangements


def _arrangements(counts: tuple[int, ...], tables: dict, dtype):
    """Every arrangement of the multiset with counts[i] copies of i, in lexicographic order.

    The arrangements starting with i are i followed by those of counts with
    one copy of i fewer, so each table is the concatenation of smaller ones.
    tables memoizes every count vector met; an explicit stack orders the
    builds, so nothing recurses once per letter.
    """
    import numpy as np

    stack = [counts]
    while stack:
        c = stack[-1]
        if c in tables:
            stack.pop()
            continue
        live = [i for i, k in enumerate(c) if k]
        if len(live) == 1:
            tables[c] = np.full((1, c[live[0]]), live[0], dtype=dtype)
            continue
        subs = [c[:i] + (c[i] - 1,) + c[i + 1:] for i in live]
        missing = [s for s in subs if s not in tables]
        if missing:
            stack.extend(missing)
            continue
        parts = [tables[s] for s in subs]
        table = np.empty((sum(map(len, parts)), sum(c)), dtype=dtype, order="F")
        start = 0
        for i, part in zip(live, parts):
            table[start:start + len(part), 0] = i
            table[start:start + len(part), 1:] = part
            start += len(part)
        tables[c] = table
    return tables[counts]


def _word_blocks(m: int, n: int):
    """S_{m,n} as 2-D letter blocks whose rows, read in order, are lexicographic.

    Raises SpaceTooLarge, before it allocates, when |S_{m,n}| exceeds
    ENUMERATION_CAP or m*n exceeds ENUMERATION_LENGTH_CAP.
    A depth-first walk places letters one at a time, smallest first, until
    the remaining multiset has at most _BLOCK_ROWS arrangements; the block
    is then the placed prefix followed by each of those arrangements.  The
    arrangements depend only on the remaining counts, so each table is
    built once per call and relabelled to the remaining letters.  The walk
    keeps its own stack, so no recursion grows with m*n.  Blocks are in
    column-major order: the scans that read them go one letter position at
    a time across all rows.
    """
    _check_mn(m, n)
    if m * n > ENUMERATION_LENGTH_CAP:
        raise SpaceTooLarge(f"words of S_({m},{n}) have {m * n} letters, more than {ENUMERATION_LENGTH_CAP}")
    # |S_{m,n}| = prod_{k=2..n} C(km, m) >= 2^(m(n-1)): past the cap's bits without taking (mn)!
    if m * (n - 1) >= ENUMERATION_CAP.bit_length() or (total := multiset_count(m, n)) > ENUMERATION_CAP:
        raise SpaceTooLarge(f"|S_({m},{n})| exceeds cap {ENUMERATION_CAP}")
    import numpy as np

    dtype = np.min_scalar_type(n)
    length = m * n
    tables = {}
    counts = [0] + [m] * n  # copies of each letter not yet placed
    prefix = []
    arrangements = [total]  # of the remaining multiset, one per depth
    next_letter = [1]  # the next letter to try, one per depth
    while True:
        depth = len(prefix)
        if arrangements[-1] <= _BLOCK_ROWS:
            letters = [a for a in range(1, n + 1) if counts[a]]
            table = _arrangements(tuple(counts[a] for a in letters), tables, dtype)
            block = np.empty((len(table), length), dtype=dtype, order="F")
            block[:, :depth] = prefix
            if letters[-1] - letters[0] == len(letters) - 1:
                np.add(table, letters[0], out=block[:, depth:])  # a run of letters: relabel by a shift
            else:
                block[:, depth:] = np.array(letters, dtype=dtype)[table]
            yield block
            a = None
        else:
            a = next((a for a in range(next_letter[-1], n + 1) if counts[a]), None)
        if a is None:  # every word below this prefix is out: back up one letter
            if not prefix:
                return
            next_letter.pop()
            arrangements.pop()
            counts[prefix.pop()] += 1
            continue
        next_letter[-1] = a + 1
        arrangements.append(arrangements[-1] * counts[a] // (length - depth))
        counts[a] -= 1
        prefix.append(a)
        next_letter.append(1)


def enumerate_words(m: int, n: int) -> Iterator[Word]:
    """Yield every word of S_{m,n} in lexicographic order.

    Raises SpaceTooLarge past ENUMERATION_CAP or ENUMERATION_LENGTH_CAP,
    before anything is allocated; the caps guard against unbounded loops,
    not memory (the iterator holds one block of at most _BLOCK_ROWS words,
    plus the tables it is built from).
    """
    for block in _word_blocks(m, n):
        for letters in block.tolist():
            yield Word(tuple(letters), m, n)


def count_complete_bruteforce(m: int, n: int) -> int:
    """Number of words of S_{m,n} containing 1, 2, ..., n as a subsequence.

    Exhaustive count used as the ground-truth oracle for the closed-form
    count, under the caps of enumerate_words.  The greedy scan for l1
    runs one letter position at a time across all rows of a block.
    """
    import numpy as np

    hits = 0
    for block in _word_blocks(m, n):
        target = np.ones(len(block), dtype=np.min_scalar_type(n + 1))
        for col in block.T:
            target += col == target
        hits += int(np.count_nonzero(target > n))
    return hits
