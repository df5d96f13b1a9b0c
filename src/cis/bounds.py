"""Inequalities for run statistics: packing codes, tail and expectation caps.

Everything here is a certified bound rather than an exact value.  The upper
bounds come from first-moment counting over prefix-closed word families
(tail_bound, expectation_upper, factorial_threshold); the lower bounds come
from packing arguments (greedy_code feeding completion_lower) and from
splitting a word into independent blocks (block_lower_bound).  inverse_gamma
locates the main term of E[L_{m,n}]: the largest k with k! near n.

Bounds marked asymptotic hold for n large in terms of m with unspecified
onset; those report a flag instead of raising when outside the proven
regime.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import TYPE_CHECKING, Optional

from .errors import DomainError, SpaceTooLarge
from .exact import complete_prob
from .words import _check_mn

if TYPE_CHECKING:
    import numpy as np

_ZERO = Fraction(0)
_ONE = Fraction(1)

# largest k for which factorial_threshold and completion_lower compute k!; at
# 10^5 a factorial_threshold call takes about a second
FACTORIAL_K_CAP = 10**5
# largest m^n that greedy_code sieves, whatever its cap.  On one core the
# slowest generic-sieve input under it, (3, 13, 2), takes about 5 s, and the
# slowest of all, (2, 22, 11) with its 2.4-million-row ball table, about 7 s
# in 0.75 GB; (3, 14, 2), just past it, takes 10 s
GREEDY_SPACE_CAP = 2**22
# most bits, by the entropy exponent that bounds log2 C(n, delta) above,
# of a binomial entropy_binom_check builds: C(2^17, 2^16) takes about 0.3 s
ENTROPY_BITS_CAP = 2**17


@dataclass(frozen=True)
class WordFamily:
    """Prefix-closed family of strictly increasing patterns inside [1..n].

    size_at(k) returns the certified uniform cap on the number of length-k
    members (the N of the counting bound), not the sharp count: n for
    consecutive runs a, a+1, ..., a+k-1 and n^2 for arithmetic
    progressions.  Prefixes of runs are runs and prefixes of progressions
    are progressions, so both built-ins are prefix closed by construction.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("continuous", "arithmetic"):
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise DomainError(f"need n >= 1, got n={self.n}")

    def size_at(self, k: int) -> int:
        if k < 0:
            raise DomainError(f"need k >= 0, got k={k}")
        if k == 0:
            return 1
        if k > self.n:
            return 0  # no increasing pattern of length k fits in [1..n]
        return self.n if self.kind == "continuous" else self.n * self.n


def continuous_runs(n: int) -> WordFamily:
    """Family of consecutive runs; its run statistic is l_max."""
    return WordFamily("continuous", n)


def arithmetic_progressions(n: int) -> WordFamily:
    """Family of increasing arithmetic progressions inside [1..n]."""
    return WordFamily("arithmetic", n)


@dataclass(frozen=True)
class CodeBook:
    """Words in [1..m]^n, pairwise Hamming distance >= min_distance."""

    m: int
    n: int
    min_distance: int
    words: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.words)


def gv_size_bound(m: int, n: int, delta: int) -> Fraction:
    """Packing guarantee m^n / (delta * C(n,delta) * (m-1)^delta)."""
    return Fraction(m**n, delta * math.comb(n, delta) * (m - 1) ** delta)


def _ball_shifts(m: int, n: int, radius: int) -> np.ndarray:
    """Digit shifts of the punctured radius-`radius` Hamming ball, one row per neighbour.

    Row entries are in [0, m); a word's neighbour is (digits + row) mod m.
    Every set of 1..radius positions gets every non-zero shift on each.
    """
    import numpy as np

    rows = []
    for dist in range(1, radius + 1):
        for pos in combinations(range(n), dist):
            for shift in product(range(1, m), repeat=dist):
                row = [0] * n
                for j, e in zip(pos, shift):
                    row[j] = e
                rows.append(row)
    return np.array(rows, dtype=np.int64)


def _place(m: int, n: int) -> np.ndarray:
    """Place values m^(n-1), ..., m, 1 of a word's digits in its index."""
    import numpy as np

    return m ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _ball_sieve(m: int, n: int, delta: int) -> np.ndarray:
    """Sorted indices of the lexicographic code, one ball scatter per admitted word.

    Each admission kills its radius-(delta - 1) ball through a shift table
    built once, and the next survivor is found by a C-level search of the
    dead mask.  Serves every m, and is the reference for _xor_sieve.
    """
    import numpy as np

    place = _place(m, n)
    shifts = _ball_shifts(m, n, delta - 1)
    dead = bytearray(m**n)
    dead_view = np.frombuffer(dead, dtype=np.uint8)
    admitted = []
    idx = 0
    while idx >= 0:
        admitted.append(idx)
        digits = idx // place % m
        dead_view[(digits + shifts) % m @ place] = 1
        idx = dead.find(0, idx + 1)
    return np.array(admitted, dtype=np.int64)


def _xor_sieve(m: int, n: int, delta: int) -> np.ndarray:
    """Sorted indices of the lexicographic code for m a power of two, one mask update per generator.

    The code is closed under XOR of indices, so its dead set is C xor B, B
    the radius-(delta - 1) ball around index 0 (0 included).  Admitting the
    first live index g doubles C to C | (C xor g) and the dead set D to
    D | (D xor g); at most log2(m^n) generators build the code.  D xor g is
    a view, the mask as a cube of side 2 flipped on the axes of g's bits, so
    no index array over the space is built: the widest temporary is the one
    copy numpy makes of that view, since it overlaps the mask it updates.
    """
    import numpy as np

    space = m**n
    bits = space.bit_length() - 1
    dead = bytearray(space)
    dead_view = np.frombuffer(dead, dtype=np.uint8)
    dead_view[_ball_shifts(m, n, delta - 1) @ _place(m, n)] = 1
    dead_view[0] = 1
    cube = dead_view.reshape((2,) * bits)  # axis j holds index bit bits - 1 - j
    code = [0]
    g = dead.find(0)
    while g >= 0:
        # g is clear at each earlier generator's top bit (else g xor that
        # generator would be a smaller live index) and its own top bit is
        # higher, so C xor g follows C in C's order: the list stays sorted
        code += [c ^ g for c in code]
        cube |= np.flip(cube, tuple(bits - 1 - k for k in range(bits) if g >> k & 1))
        g = dead.find(0, g + 1)
    return np.array(code, dtype=np.int64)


def greedy_code(m: int, n: int, delta: int, cap: int = 10**6) -> CodeBook:
    """Maximal packing with minimum distance delta, in lexicographic order.

    Admits a word iff it is at distance >= delta from everything admitted
    before it.  Implemented as a sieve over the m^n word indices, with the
    letters 0..m-1 as base-m digits.  When m is a power of two, XOR of two
    indices is nim addition of their words letter by letter, and a
    lexicographic code is closed under it (Conway and Sloane,
    "Lexicographic codes: error-correcting codes from game theory", IEEE
    Trans. Inf. Theory 32, 1986; Brualdi and Pless, "Greedy codes", J.
    Combin. Theory A 64, 1993): _xor_sieve then builds the code from its
    generators.  Every other m takes _ball_sieve, one ball scatter per
    admitted word, which stays the reference that the tests compare the
    XOR sieve with.  The size always meets gv_size_bound when delta <= n/2.
    Raises SpaceTooLarge when m^n exceeds cap or GREEDY_SPACE_CAP.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got m={m}")
    if not 1 <= delta or 2 * delta > n:
        raise DomainError(f"need 1 <= delta <= n/2, got delta={delta}, n={n}")
    # m >= 2, so m^b > limit for b = limit.bit_length(): the power is exact
    # up to n = b, and past it the first b factors already exceed the limit
    limit = min(cap, GREEDY_SPACE_CAP)
    space = m ** min(n, limit.bit_length())
    if space > cap:
        raise SpaceTooLarge(f"m^n = {m}^{n} exceeds cap {cap}")
    if space > GREEDY_SPACE_CAP:
        raise SpaceTooLarge(f"m^n = {m}^{n} exceeds the ceiling {GREEDY_SPACE_CAP} on any cap")

    if delta == 1:
        # distinct words always differ somewhere; the whole space packs
        return CodeBook(m, n, 1, tuple(product(range(1, m + 1), repeat=n)))

    sieve = _xor_sieve if m & (m - 1) == 0 else _ball_sieve
    words = sieve(m, n, delta)[:, None] // _place(m, n) % m + 1
    return CodeBook(m, n, delta, tuple(map(tuple, words.tolist())))


def inverse_gamma(y: float) -> float:
    """Inverse of the gamma function on its increasing branch [2, inf).

    The branch with Gamma(t+1) = t!; gamma dips below 1 between 1 and 2,
    so values y >= 1 determine a unique x >= 2.  Bisection on log-gamma,
    relative error well under 1e-10.
    """
    y = float(y)
    if not math.isfinite(y) or y < 1.0:
        raise DomainError(f"need finite y >= 1, got y={y}")
    if y == 1.0:
        return 2.0
    target = math.log(y)
    lo, hi = 2.0, 4.0
    while math.lgamma(hi) < target:
        lo, hi = hi, hi * 2.0
    while hi - lo > 1e-13 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if math.lgamma(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FactorialThreshold:
    """Verdict on k! >= t! m^(Ct) and its conditional converse."""

    m: int
    t: int
    c_requested: float
    c_adjusted: float
    k: int
    lower_ok: bool
    upper_asserted: bool        # whether t >= m^(10C) held, enabling the cap
    upper_ok: Optional[bool]    # None when not asserted


def factorial_threshold(m: int, t: int, c: float) -> FactorialThreshold:
    """Check the factorial growth inequalities at k = t + (C log m/log t) t.

    C is nudged minimally upward so k is an integer (the adjusted value is
    reported).  Both inequalities are decided in exact integer arithmetic:
    with the adjusted C, m^(Ct) equals t^(k-t), and the upper comparison
    k! <= t! (1.1)^k m^(Ct) is scaled by 10^k to clear the decimals.  The
    upper bound is only claimed for t >= m^(10C), which likewise reduces
    to the integer test t >= 10(k - t).  Raises SpaceTooLarge, before any
    factorial is computed, when k would exceed FACTORIAL_K_CAP.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    if t < 2:
        raise DomainError(f"need t >= 2, got t={t}")
    if not 0 < c < math.inf:
        raise DomainError(f"need a finite C > 0, got C={c}")
    # t is tested first so that c * t cannot overflow; k0 <= cap then keeps k <= cap
    k0 = t if t > FACTORIAL_K_CAP or m == 1 else t + c * t * math.log(m) / math.log(t)
    if k0 > FACTORIAL_K_CAP:
        raise SpaceTooLarge(f"k for t={t}, C={c} exceeds the cap {FACTORIAL_K_CAP} on factorial sizes")
    if m == 1:
        k = t
        c_adj = float(c)
    else:
        k = max(math.ceil(k0 - 1e-9), t + 1)
        c_adj = (k - t) * math.log(t) / (t * math.log(m))
    lower_ok = math.factorial(k) >= math.factorial(t) * t ** (k - t)
    upper_asserted = t >= 10 * (k - t)
    upper_ok = None
    if upper_asserted:
        upper_ok = 10**k * math.factorial(k) <= 11**k * math.factorial(t) * t ** (k - t)
    return FactorialThreshold(m, t, float(c), c_adj, k, lower_ok, upper_asserted, upper_ok)


def tail_bound(family: WordFamily, m: int, k: int) -> Fraction:
    """First-moment cap min(1, |W_k| m^k / k!) on Pr[run length >= k].

    |W_k| is the family's certified member cap at length k; the expected
    number of members appearing as a subsequence of a uniform word is at
    most |W_k| m^k / k!, and a probability never exceeds 1.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    size = family.size_at(k)
    if size == 0:
        return _ZERO  # before m^k and k!, which past k = n only multiply zero
    return min(_ONE, Fraction(size * m**k, math.factorial(k)))


@dataclass(frozen=True)
class ExpectationBound:
    """Cap t + (2 log m/log t) t + 2 on E[run length], with regime flag."""

    m: int
    size_cap: int
    t: int                  # (t-1)! < size_cap <= t!
    k: int                  # rounded split point of the underlying proof
    value: float
    in_regime: bool         # 2m <= k <= 2t, the range the proof assumes


def expectation_upper(m: int, size_cap: int) -> ExpectationBound:
    """Expectation cap for any prefix-closed family with |W_k| <= size_cap.

    Follows the counting recipe: pick t with (t-1)! < size_cap <= t!, set
    k = ceil(t + (2 log m / log t) t), and the expectation is at most
    k + 2 <= t + (2 log m/log t) t + 2.  When size_cap is too small for
    2m <= k <= 2t the value is still reported but flagged out of regime.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    if size_cap < 2:
        raise DomainError(f"need size cap >= 2, got {size_cap}")
    t, f = 2, 2
    while f < size_cap:
        t += 1
        f *= t
    stretch = 2.0 * math.log(m) / math.log(t)
    k = math.ceil(t + stretch * t - 1e-9)
    return ExpectationBound(
        m=m,
        size_cap=size_cap,
        t=t,
        k=k,
        value=t + stretch * t + 2.0,
        in_regime=2 * m <= k <= 2 * t,
    )


def completion_lower(m: int, n: int, t_size: int, delta: int) -> Fraction:
    """Inclusion-exclusion floor on Pr[word contains 1,2,...,n in order].

    Given a code T of t_size words with pairwise distance >= delta, each
    code word is a complete pattern with probability 1/n! and any ordered
    pair of distinct code words coincides with probability at most
    1/(delta! n!), so the union bound from below is
    t_size/n! - t_size(t_size - 1)/(delta! n!), clamped at 0.  That is 0
    whenever delta! <= t_size - 1, which is found without taking either
    factorial; otherwise SpaceTooLarge when n or delta exceeds
    FACTORIAL_K_CAP.
    """
    _check_mn(m, n)
    if t_size < 1:
        raise DomainError(f"need t_size >= 1, got {t_size}")
    if delta < 1:
        raise DomainError(f"need delta >= 1, got {delta}")
    partial = 1  # 2 * 3 * ... up to delta, or until it passes t_size - 1
    for k in range(2, delta + 1):
        if partial > t_size - 1:
            break
        partial *= k
    if partial <= t_size - 1:
        return _ZERO
    if max(n, delta) > FACTORIAL_K_CAP:
        raise SpaceTooLarge(f"completion_lower needs {max(n, delta)}!, past the cap {FACTORIAL_K_CAP} "
                            "on factorial sizes")
    nf = math.factorial(n)
    val = Fraction(t_size, nf) - Fraction(t_size * (t_size - 1), math.factorial(delta) * nf)
    return max(_ZERO, val)


@dataclass(frozen=True)
class AsymptoticLower:
    """Log-space value of (m/1.03)^n / (2n n!); asymptotic in n."""

    m: int
    n: int
    log_value: float
    value: float            # exp(log_value); 0.0 or inf when out of range
    domain_ok: bool         # the bound is only claimed for m >= 2


def lower_cont_asymptotic(m: int, n: int) -> AsymptoticLower:
    """Completion-probability floor (m/1.03)^n / (2n n!) in log space.

    Astronomically small for interesting n, hence the log form.  Proven
    only for m >= 2 and n sufficiently large in terms of m; m = 1 is
    reported with domain_ok False rather than raising.
    """
    _check_mn(m, n)
    log_value = n * math.log(m / 1.03) - math.log(2 * n) - math.lgamma(n + 1)
    value = math.exp(log_value) if log_value < 709.0 else math.inf
    return AsymptoticLower(m=m, n=n, log_value=log_value, value=value, domain_ok=m >= 2)


@dataclass(frozen=True)
class EntropyCheck:
    """C(n, delta) against the binary-entropy cap 2^(H(delta/n) n)."""

    n: int
    delta: int
    binomial: int
    entropy_exponent: float     # H(delta/n) * n, base-2 entropy
    bound: float                # 2 ** entropy_exponent, inf on overflow
    holds: bool


def entropy_binom_check(n: int, delta: int) -> EntropyCheck:
    """Verify C(n, delta) <= 2^(H(delta/n) n), H the binary entropy.

    Raises SpaceTooLarge, before math.comb builds the binomial, when the
    exponent H(delta/n) n is past ENTROPY_BITS_CAP.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if not 0 <= delta <= n:
        raise DomainError(f"need 0 <= delta <= n, got delta={delta}")
    p = delta / n
    if p in (0.0, 1.0):
        h = 0.0
    else:
        h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    exponent = h * n if n <= sys.float_info.max else math.inf  # an n past the doubles is refused too
    if exponent > ENTROPY_BITS_CAP:
        raise SpaceTooLarge(f"the binomial C({n}, {delta}) has up to {exponent:.0f} bits, "
                            f"past the cap {ENTROPY_BITS_CAP}")
    binom = math.comb(n, delta)
    # compare in log space; 1e-9 absorbs rounding at the equality edges
    holds = math.log2(binom) <= exponent + 1e-9
    bound = 2.0**exponent if exponent < 1024 else math.inf
    return EntropyCheck(n=n, delta=delta, binomial=binom, entropy_exponent=exponent, bound=bound, holds=holds)


def block_lower_bound(m: int, n: int, k: int) -> float:
    """Floor 1 - (1 - p_k)^floor(n/k) on Pr[run length >= k].

    Splits the alphabet into floor(n/k) disjoint value blocks; each block
    independently of the others contains a full increasing run of its k
    values with probability p_k, and one success suffices.  p_k is taken exactly from the completion probability, which
    only strengthens the direction of the bound.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    p = complete_prob(m, k)
    if p == 1:
        return 1.0
    return -math.expm1((n // k) * math.log1p(-float(p)))
