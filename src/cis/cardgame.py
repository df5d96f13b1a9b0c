"""Card guessing with partial feedback: trivial, safe and shifting players.

A deck is a word from S_{m,n} (n card types, m copies each).  Before every
card the player announces a type and afterwards learns only whether the
guess was right.  The score is the number of correct guesses.

* trivial guesses type 1 forever and scores exactly m.
* safe guesses type v until all m copies of v have been confirmed, then
  moves to v+1 (staying on n forever).  Copies of v+1 that passed earlier
  are lost, so the player can get stuck waiting.  safe_expected_exact()
  gives the exact mean score.  On two-type decks it is m + 1 - 1/(m+1)
  for every m; longer decks score strictly more, and for m = 2 the mean
  climbs with deck length to 2.7365977...
* shifting moves on after a single correct guess, tracking the greedy
  increasing chain, so its score is at least l1 of the deck, with equality
  unless it correctly guesses type n and keeps collecting the remaining
  copies.  Long-run expectation approaches the limiting mean of l1, close
  to m + 1 - 1/(m+2).

Each player is a greedy walk through a sequence of rows of a deck's
occurrence tensor (montecarlo._walk): the walk takes the first copy of
the row's type after its last pick, a repeated row gives the next copy,
and the score is the number of rows matched.

* trivial walks type 1's row m times, so it scores m and needs no deck.
* safe walks each type's row m times, in order.  Once type v is
  complete the player catches every copy of v+1 after that point; at the
  first type with a copy already gone it catches the copies that remain
  and then waits forever, and there the walk stops too.
* shifting walks the rows of types 1..n and then type n's row another
  m-1 times: the greedy chain, plus the copies of n after the one that
  completed it.

play() walks a single deck card by card and returns the full trace;
expected_score() Monte Carlos the mean over uniform decks with these
walks on the occurrence tensor of a block of decks, which the test suite
checks against play() on every small deck space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .montecarlo import Estimate, _check_trials, _occ_values, _walk
from .words import Word, _check_mn

STRATEGIES = ("trivial", "safe", "shifting")


@dataclass(frozen=True)
class GameTrace:
    """Everything observable in one play-through of a deck."""

    word: Word
    strategy: str
    guesses: tuple[int, ...]
    feedback: tuple[bool, ...]
    score: int


def play(word: Word, strategy: str) -> GameTrace:
    """Simulate one game and record guesses, feedback and score."""
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    m, n = word.m, word.n
    guesses: list[int] = []
    feedback: list[bool] = []
    v = 1
    confirmed = 0  # correct guesses of the current type (safe strategy)
    for card in word.letters:
        guesses.append(v)
        hit = card == v
        feedback.append(hit)
        if not hit:
            continue
        if strategy == "trivial":
            continue
        if strategy == "safe":
            confirmed += 1
            if confirmed == m and v < n:
                v += 1
                confirmed = 0
        elif v < n:  # shifting: move on after one hit, camp on n
            v += 1
    return GameTrace(
        word=word,
        strategy=strategy,
        guesses=tuple(guesses),
        feedback=tuple(feedback),
        score=sum(feedback),
    )


def _safe_score(occ: np.ndarray) -> np.ndarray:
    _, n, m = occ.shape
    return _walk(occ, (v for v in range(n) for _ in range(m)))


def _shifting_score(occ: np.ndarray) -> np.ndarray:
    _, n, m = occ.shape
    return _walk(occ, [*range(n), *[n - 1] * (m - 1)])


def safe_expected_exact(m: int, n: int) -> Fraction:
    """Exact mean score of the safe player over uniform decks in S_{m,n}.

    The player reaches type v+1 exactly when the restriction of the deck to
    types 1..v is 1^m 2^m ... v^m, which has probability (m!)^v / (vm)!.
    It stalls on type v >= 2 with score mv - j when the restriction to types
    1..v-1 is sorted and j >= 1 copies of v precede the last copy of v-1;
    with L = (v-1)m there are C(L-1+j, j) such restrictions to types 1..v.
    A deck with no stall scores mn.  On two-type decks the score is 2m - j
    with E[j] = m^2/(m+1), so the mean is m + 1 - 1/(m+1).
    """
    _check_mn(m, n)
    # numerator over the common denominator (nm)!; tail = (nm)! / (vm)!
    fm = math.factorial(m)
    total = fm**n * m * n  # no stall
    tail = 1
    for v in range(n, 1, -1):
        base = (v - 1) * m
        stalls = sum(math.comb(base - 1 + j, j) * (m * v - j) for j in range(1, m + 1))
        total += fm**v * tail * stalls
        tail *= math.prod(range(base + 1, v * m + 1))
    return Fraction(total, tail * fm)  # tail is now (nm)! / m!


def expected_score(m: int, n: int, strategy: str, trials: int, seed: int) -> Estimate:
    """Monte Carlo mean score of a strategy over uniform decks."""
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    _check_mn(m, n)

    if strategy == "trivial":  # catches exactly the m copies of type 1
        _check_trials(trials)
        return Estimate.from_values(np.full((trials, 1), float(m)), seed)
    scorer = _safe_score if strategy == "safe" else _shifting_score
    values = _occ_values(m, n, trials, seed, scorer)
    return Estimate.from_values(values, seed)
