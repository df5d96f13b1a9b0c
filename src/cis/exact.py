"""Exact rational engine for complete-run probabilities and their series.

Two independent exact routes compute Pr[l1(w) = n] for uniform w in S_{m,n}:

1. A combinatorial count h_m(n) of the words containing 1, 2, ..., n as a
   subsequence, summed over weak compositions (i_1, ..., i_m) of n:

       h_m(n) = sum  multinomial(n; i_1..i_m) * (mn)!/l! * (-1)^(l-n)
                     / prod_j ((m-j)!)^(i_j),        l = sum_j j*i_j,

   divided by |S_{m,n}| = (mn)!/(m!)^n.

2. A generating-function pipeline: with q_m(x) = -m! * sum_{j=1..m}
   x^j/(m-j)!, raise it to the n-th power, divide the coefficient of x^l
   by l! (the Phi map), and evaluate at x = -1.

Both produce the same rational number, term by term, and

       sum_{n >= 1} Pr[l1 = n over S_{m,n}]

converges to the limiting expected run length; each summand equals
Pr[l1 >= n] at every word length that is at least n, which is why the
series telescopes into an expectation.  All arithmetic stays in Fraction
until a caller asks for floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, InternalInconsistency, NoConvergence, SpaceTooLarge
from .words import count_complete_bruteforce, multiset_count

WeakComposition = tuple[int, ...]

_FACT: list[int] = [1]

# most weak compositions horton_kurn_h will enumerate, at a few microseconds each
COMPOSITION_CAP = 10**6


def _fact(k: int) -> int:
    """Factorial with a module-level memo table."""
    while len(_FACT) <= k:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[k]


class Poly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return Poly(out)

    def __pow__(self, n: int) -> "Poly":
        # plain repeated multiplication; degrees here are small (<= mn)
        if n < 0:
            raise DomainError("negative polynomial powers are not defined here")
        out = Poly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def weak_compositions(n: int, m: int) -> Iterator[WeakComposition]:
    """All m-tuples of non-negative integers summing to n, lexicographically.

    There are C(n+m-1, m-1) of them.
    """
    if n < 0 or m < 1:
        raise DomainError(f"need n >= 0 and m >= 1, got n={n}, m={m}")

    def rec(remaining: int, parts: int):
        if parts == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    return rec(n, m)


def horton_kurn_h(m: int, n: int) -> int:
    """Exact number of words in S_{m,n} containing 1, 2, ..., n.

    Sums the alternating composition formula with every term scaled by
    ((m-1)!)^n so the accumulation is pure integer arithmetic; the final
    division must be exact, otherwise the formula was evaluated wrongly
    and InternalInconsistency is raised.  Raises SpaceTooLarge when there
    are more than COMPOSITION_CAP weak compositions to sum over.
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if math.comb(n + m - 1, m - 1) > COMPOSITION_CAP:
        raise SpaceTooLarge(
            f"h_{m}({n}) sums over C({n + m - 1}, {m - 1}) weak compositions, more than {COMPOSITION_CAP}"
        )
    mn = m * n
    fact_mn = _fact(mn)
    # r_j = (m-1)!/(m-j)! is an integer for j = 1..m
    ratios = [0] + [_fact(m - 1) // _fact(m - j) for j in range(1, m + 1)]
    rpow = [[r**i for i in range(n + 1)] for r in ratios]
    fact_n = _fact(n)
    total = 0
    for comp in weak_compositions(n, m):
        l = 0
        multinom = fact_n
        rprod = 1
        for j, ij in enumerate(comp, start=1):
            if ij:
                l += j * ij
                multinom //= _fact(ij)
                rprod *= rpow[j][ij]
        term = multinom * (fact_mn // _fact(l)) * rprod
        total += -term if (l - n) & 1 else term
    scale = _fact(m - 1) ** n
    h, rem = divmod(total, scale)
    if rem:
        raise InternalInconsistency(
            f"composition sum for h_{m}({n}) is not an integer multiple of ((m-1)!)^n"
        )
    return h


def q_poly(m: int) -> Poly:
    """Building-block polynomial q_m(x) = -m! * sum_{j=1..m} x^j/(m-j)!.

    Its n-th power, pushed through Phi and evaluated at -1, reproduces the
    complete-run probability for alphabet size n.  All coefficients are
    integers because (m-j)! divides m!.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    coeffs = [Fraction(0)] * (m + 1)
    for j in range(1, m + 1):
        coeffs[j] = Fraction(-(_fact(m) // _fact(m - j)))
    return Poly(coeffs)


def phi_apply(p: Poly) -> Poly:
    """Linear map x^k -> x^k / k!, turning plain powers into exponential ones."""
    return Poly([c / _fact(k) for k, c in enumerate(p.coeffs)])


def phi_inverse(p: Poly) -> Poly:
    """Inverse of phi_apply: x^k -> k! * x^k."""
    return Poly([c * _fact(k) for k, c in enumerate(p.coeffs)])


def p_value(m: int, n: int) -> Fraction:
    """Pr[l1 = n over S_{m,n}] through the generating-function pipeline.

    Computes Phi(q_m^n)(-1) exactly.  Agrees with
    horton_kurn_h(m, n)/|S_{m,n}| term by term; the equality of the two
    engines is part of the test suite.
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return _phi_at_minus_one(q_poly(m) ** n)


def _phi_at_minus_one(p: Poly) -> Fraction:
    """Phi(p)(-1) with a single common denominator.

    For integer-coefficient p (the only case on the hot path) this is one
    big-integer accumulation followed by one Fraction reduction.
    """
    if not p.coeffs:
        return Fraction(0)
    deg = p.degree
    big = _fact(deg)
    num = 0
    extra = Fraction(0)
    for l, c in enumerate(p.coeffs):
        if c == 0:
            continue
        weight = big // _fact(l)
        if c.denominator == 1:
            num += (-c.numerator if l & 1 else c.numerator) * weight
        else:
            extra += (-c if l & 1 else c) * Fraction(weight, big)
    return Fraction(num, big) + extra


def complete_prob(m: int, n: int, engine: str = "hk") -> Fraction:
    """Pr[l1(w) = n] for uniform w in S_{m,n}, as an exact rational.

    engine selects the computational route: "hk" (composition formula),
    "gf" (generating functions) or "brute" (exhaustive enumeration, small
    spaces only).  All three return identical Fractions on their common
    domain.
    """
    if engine == "hk":
        return Fraction(horton_kurn_h(m, n), multiset_count(m, n))
    if engine == "gf":
        return p_value(m, n)
    if engine == "brute":
        return Fraction(count_complete_bruteforce(m, n), multiset_count(m, n))
    raise DomainError(f"unknown engine {engine!r}; expected 'hk', 'gf' or 'brute'")


@dataclass(frozen=True)
class SeriesResult:
    """Truncated series for the limiting expected run length."""

    m: int
    value: float
    exact_partial_sum: Fraction
    terms_used: int
    truncation_bound: float  # magnitude of the last term added
    eps: float


def l1_series(m: int, eps: float = 1e-12, max_n: int = 400, engine: str = "gf") -> SeriesResult:
    """Partial sum of sum_{n>=1} Pr[l1 = n over S_{m,n}] with a stopping rule.

    Stops at the first index n0 >= 3m+3 where the term drops below eps and
    the terms have been non-increasing for three consecutive indices; the
    terms are provably non-increasing, the guard just refuses to trust a
    single small value.  Raises NoConvergence when max_n is reached first.

    The default engine is "gf": it keeps a running power of q_m and costs
    one polynomial multiplication per term, where the composition formula
    would re-enumerate weak compositions for every n.  Both engines yield
    identical rationals, so the choice affects runtime only.
    """
    if not 0 < eps < math.inf:
        raise DomainError(f"need a finite eps > 0, got {eps}")
    if engine not in ("gf", "hk", "brute"):
        raise DomainError(f"unknown engine {engine!r}")
    eps_frac = Fraction(eps)
    total = Fraction(0)
    qpow = Poly((1,))
    q = q_poly(m) if engine == "gf" else None
    prev = None
    run = 0
    for n in range(1, max_n + 1):
        if engine == "gf":
            qpow = qpow * q
            term = _phi_at_minus_one(qpow)
        else:
            term = complete_prob(m, n, engine=engine)
        total += term
        run = run + 1 if (prev is not None and term <= prev) else 0
        prev = term
        if n >= 3 * m + 3 and term < eps_frac and run >= 3:
            return SeriesResult(
                m=m,
                value=float(total),
                exact_partial_sum=total,
                terms_used=n,
                truncation_bound=float(term),
                eps=eps,
            )
    raise NoConvergence(
        f"series for m={m} did not meet the stopping rule within {max_n} terms"
    )


def l1_finite_expectation(m: int, n: int) -> Fraction:
    """Exact E[l1] over words with n values: sum_{k<=n} Pr[l1 >= k].

    The tail-sum identity plus the equality of Pr[l1 >= k] with the
    completion probability on k values turns the expectation into a short
    sum of exact terms; used as the finite-n oracle for the Monte Carlo
    estimators, where the limiting series value would leave truncation
    ambiguity.
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return sum((complete_prob(m, k, engine="gf") for k in range(1, n + 1)), Fraction(0))
