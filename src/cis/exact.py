"""Exact rational engine for complete-run probabilities and their series.

Two independent exact routes compute Pr[l1(w) = n] for uniform w in S_{m,n}:

1. A combinatorial count h_m(n) of the words containing 1, 2, ..., n as a
   subsequence, summed over weak compositions (i_1, ..., i_m) of n:

       h_m(n) = sum  multinomial(n; i_1..i_m) * (mn)!/l! * (-1)^(l-n)
                     / prod_j ((m-j)!)^(i_j),        l = sum_j j*i_j,

   divided by |S_{m,n}| = (mn)!/(m!)^n.  The compositions are listed by
   stars and bars, with no recursion, and each multinomial is a product of
   binomials, C(n, i_1) C(n - i_1, i_2) ..., so no factorial enters the
   loop.  The compositions with the same l are summed first, and the sum
   over l shares route 2's Horner pass (_phi_numerator); enumeration
   (words.count_complete_bruteforce) checks that pass on its own.

2. A generating-function pipeline: with q_m(x) = -m! * sum_{j=1..m}
   x^j/(m-j)!, raise it to the n-th power, divide the coefficient of x^l
   by l! (the Phi map), and evaluate at x = -1.

Both produce the same rational number, term by term, and

       sum_{n >= 1} Pr[l1 = n over S_{m,n}]

converges to the limiting expected run length; each summand equals
Pr[l1 >= n] at every word length that is at least n, which is why the
series telescopes into an expectation.

The generating-function engine works in integers only.  q_m = -m x u_m
with u_m(x) = sum_{k<m} (m-1)!/(m-1-k)! x^k, and the powers u_m^n follow a
first-order recurrence in their coefficients (see _gf_powers), so each
power costs one small multiplication and one exact small division per
coefficient.  Phi(q_m^n)(-1) is a Horner sum over (mn)!, a series keeps
its partial sum as one integer over (mn)!, and a Fraction is built only
for the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, count
from math import comb, factorial
from operator import mul
from typing import Iterator

from .errors import DomainError, InternalInconsistency, NoConvergence, SpaceTooLarge
from .words import _check_mn, count_complete_bruteforce, multiset_count

WeakComposition = tuple[int, ...]

# most weak compositions horton_kurn_h will enumerate, at about 2 microseconds
# each, 0.4 of them to list the composition and the rest for its term
COMPOSITION_CAP = 10**6
# most compositions x (mn)^2 horton_kurn_h will take on.  The compositions are
# summed by l first and (mn)!/l! enters through one Horner pass over l, so the
# inputs under both caps take at most a few seconds on one core, mostly in the
# compositions: (2, 2000) at 3.2e10 takes about 0.1 s, (7, 25) at 2.3e10
# (736,281 compositions) about 1.2 s
HK_WORK_CAP = 5 * 10**10
# highest degree n(m-1) of u_m^n that p_value and l1_finite_expectation build;
# (m, n) = (2, 4000) takes about 8 s on one core
GF_DEGREE_CAP = 4000
# highest degree n(m-1) of u_m^n that l1_series builds; m = 60 stops at
# n = 183, degree 10,797
SERIES_DEGREE_CAP = 11_000
# most terms l1_series takes; only a tiny eps needs that many: at eps = 5e-324,
# m = 20 stops at n = 375 in about 9 s, and m = 28 raises NoConvergence in 24 s
SERIES_MAX_N = 400


def weak_compositions(n: int, m: int) -> Iterator[WeakComposition]:
    """All m-tuples of non-negative integers summing to n, lexicographically.

    There are C(n+m-1, m-1) of them: stars and bars, where the m-1 bars
    sit at positions b_1 < ... < b_(m-1) of range(n+m-1) and the parts
    are the gaps between them.  itertools.combinations lists the bar
    positions lexicographically, which lists the tuples lexicographically.
    """
    if n < 0 or m < 1:
        raise DomainError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    return _stars_and_bars(n, m)


def _stars_and_bars(n: int, m: int) -> Iterator[WeakComposition]:
    end = n + m - 1
    for bars in combinations(range(end), m - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(end - prev - 1)
        yield tuple(parts)


def horton_kurn_h(m: int, n: int) -> int:
    """Exact number of words in S_{m,n} containing 1, 2, ..., n.

    Sums multinomial(n; i) * prod_j ((m-1)!/(m-j)!)^(i_j) over the weak
    compositions i with the same l, which gives the coefficients of u_m^n
    (see _gf_powers) in integers, and then takes the alternating sum over
    l of (mn)!/l! with one Horner pass (_phi_numerator).  That is
    (m!)^n h; the division must be exact, otherwise the formula was
    evaluated wrongly and InternalInconsistency is raised.  The
    multinomial is a running product of binomials C(rest, i_j), where
    rest = i_j + ... + i_m is what is left of n before part j, so no
    factorial is taken per composition.  Raises SpaceTooLarge when there
    are more than COMPOSITION_CAP weak compositions to sum over, or when
    compositions x (mn)^2 exceeds HK_WORK_CAP.
    """
    _check_mn(m, n)
    mn = m * n
    comps = comb(n + m - 1, m - 1)
    if comps > COMPOSITION_CAP:
        raise SpaceTooLarge(
            f"h_{m}({n}) sums over C({n + m - 1}, {m - 1}) weak compositions, more than {COMPOSITION_CAP}"
        )
    if comps * mn**2 > HK_WORK_CAP:
        raise SpaceTooLarge(
            f"h_{m}({n}) sums {comps} weak compositions over ({mn})!, "
            f"and {comps} x {mn}^2 is more than {HK_WORK_CAP}"
        )
    # r_j = (m-1)!/(m-j)! = (m-1)(m-2)...(m-j+1) for j = 1..m, as running
    # products: two factorials per j take seconds from m = 2500 on
    ratios = [0, *accumulate(range(m - 1, 0, -1), mul, initial=1)]
    rpow = [[r**i for i in range(n + 1)] for r in ratios]
    # coeffs[l - n] collects the compositions with sum_j j*i_j = l: it is
    # the coefficient of x^(l-n) in u_m^n, as multinomial(n; i) * prod r_j^(i_j)
    coeffs = [0] * (mn - n + 1)
    for comp in weak_compositions(n, m):
        l = 0
        rest = n
        term = 1
        for j, ij in enumerate(comp, start=1):
            if ij:
                l += j * ij
                term *= comb(rest, ij) * rpow[j][ij]
                rest -= ij
        coeffs[l - n] += term
    h, rem = divmod(_phi_numerator(m, n, coeffs), factorial(m) ** n)
    if rem:
        raise InternalInconsistency(
            f"composition sum for h_{m}({n}) is not an integer multiple of (m!)^n"
        )
    return h


def _check_degree(m: int, n: int) -> None:
    if n * (m - 1) > GF_DEGREE_CAP:
        raise SpaceTooLarge(
            f"the gf engine at (m={m}, n={n}) needs degree {n * (m - 1)}, more than {GF_DEGREE_CAP}"
        )


def _gf_powers(m: int) -> Iterator[tuple[int, list[int]]]:
    """(n, coefficients of u_m^n) for n = 1, 2, ..., where q_m = -m x u_m.

    u = u_m has coefficients u_k = (m-1)!/(m-1-k)! = (m-k) u_(k-1), so
    u = 1 + (m-1) x u - x^2 u'.  For P_n = u^n this gives, with d = n(m-1),

        n P_n[i] = n P_(n-1)[i] + (d - i + 1) P_n[i-1],

    an exact division by n.  Each coefficient then costs two small-integer
    operations instead of the m products of a plain convolution by u.
    """
    p = [1]
    for n in count(1):
        d = n * (m - 1)
        prev = p + [0] * (m - 1)
        p = [1]
        for i in range(1, d + 1):
            p.append(prev[i] + (d - i + 1) * p[-1] // n)
        yield n, p


def _phi_numerator(m: int, n: int, p: list[int]) -> int:
    """t with Phi(q_m^n)(-1) = t/(mn)!, from p = u_m^n.

    q_m^n = (-m)^n x^n u_m^n, so the coefficient of x^l is c_l = (-m)^n p[l-n]
    and (-1)^l c_l = m^n (-1)^(l-n) p[l-n].  Horner over l = n..mn sums
    these times (mn)!/l! without a division; m^n is applied once at the end.
    """
    t = 0
    for l, c in enumerate(p, start=n):
        t = t * l + (-c if (l - n) & 1 else c)
    return t * m**n


def _partial_sums(m: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, t, s, f) with f = (mn)!: Pr[l1 = n over S_{m,n}] = t/f and terms 1..n sum to s/f."""
    s, f = 0, 1
    for n, p in _gf_powers(m):
        t = _phi_numerator(m, n, p)
        lift = math.prod(range(m * (n - 1) + 1, m * n + 1))  # (mn)!/(m(n-1))!
        s, f = s * lift + t, f * lift
        yield n, t, s, f


def p_value(m: int, n: int) -> Fraction:
    """Pr[l1 = n over S_{m,n}] through the generating-function pipeline.

    Computes Phi(q_m^n)(-1) exactly.  Agrees with
    horton_kurn_h(m, n)/|S_{m,n}| term by term; the equality of the two
    engines is part of the test suite.  Raises SpaceTooLarge when the
    degree n(m-1) of u_m^n exceeds GF_DEGREE_CAP.
    """
    _check_mn(m, n)
    _check_degree(m, n)
    for k, p in _gf_powers(m):
        if k == n:
            return Fraction(_phi_numerator(m, n, p), factorial(m * n))


def complete_prob(m: int, n: int, engine: str = "gf") -> Fraction:
    """Pr[l1(w) = n] for uniform w in S_{m,n}, as an exact rational.

    engine selects the computational route: "gf" (generating functions,
    the default), "hk" (composition formula) or "brute" (exhaustive
    enumeration, small spaces only).  All three return identical
    Fractions on their common domain.
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


def l1_series(m: int, eps: float = 1e-12) -> SeriesResult:
    """Partial sum of sum_{n>=1} Pr[l1 = n over S_{m,n}] with a stopping rule.

    Stops at the first n >= 3m+3 whose term is below eps.  The terms never
    increase: the n-th is Pr[l1 >= n] over any longer word space, and
    those events are nested.  Raises NoConvergence when SERIES_MAX_N terms
    are taken first.

    The terms come from the generating-function engine: it keeps a running
    power of u_m and costs one pass over its coefficients per term, where
    the composition formula would re-enumerate weak compositions for every
    n.  Every comparison is made in integers over (mn)!.  SERIES_MAX_N bounds
    the work, and so does SERIES_DEGREE_CAP on the degree n(m-1) of the last
    term: SpaceTooLarge is raised at once when the stopping rule's first
    index 3m+3 is past it, and after the last term within it otherwise.
    """
    if not 0 < eps < math.inf:
        raise DomainError(f"need a finite eps > 0, got {eps}")
    if m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    top = SERIES_MAX_N if m == 1 else min(SERIES_MAX_N, SERIES_DEGREE_CAP // (m - 1))
    capped = SpaceTooLarge(
        f"the series for m={m} cannot meet its stopping rule within degree n(m-1) <= {SERIES_DEGREE_CAP}"
    )
    if top < SERIES_MAX_N and top < 3 * m + 3:
        raise capped
    eps_num, eps_den = eps.as_integer_ratio()
    for _, (n, t, s, f) in zip(range(top), _partial_sums(m)):
        if n >= 3 * m + 3 and t * eps_den < eps_num * f:  # t/f < eps, cross-multiplied
            return SeriesResult(
                m=m,
                value=s / f,
                exact_partial_sum=Fraction(s, f),
                terms_used=n,
                truncation_bound=t / f,
                eps=eps,
            )
    if top < SERIES_MAX_N:
        raise capped
    raise NoConvergence(f"series for m={m} did not meet the stopping rule within {SERIES_MAX_N} terms")


def approx_l1(m: int) -> float:
    """Elementary approximation m + 1 - 1/(m+2) of the limiting mean.

    The gap to the series and spectral values decays exponentially in m;
    the package reports the gap rather than asserting any particular decay
    constant.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return m + 1 - 1.0 / (m + 2)


def l1_finite_expectation(m: int, n: int) -> Fraction:
    """Exact E[l1] over words with n values: sum_{k<=n} Pr[l1 >= k].

    The tail-sum identity plus the equality of Pr[l1 >= k] with the
    completion probability on k values turns the expectation into a short
    sum of exact terms; used as the finite-n oracle for the Monte Carlo
    estimators, where the limiting series value would leave truncation
    ambiguity.  Raises SpaceTooLarge when n(m-1) exceeds GF_DEGREE_CAP.
    """
    _check_mn(m, n)
    _check_degree(m, n)
    for k, _, s, f in _partial_sums(m):
        if k == n:
            return Fraction(s, f)
