"""Families, codes, thresholds, and the analytic bounds around them."""

import math
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cis import bounds
from cis.acceptance import _gv_instances
from cis import (
    DomainError,
    SpaceTooLarge,
    arithmetic_progressions,
    block_lower_bound,
    complete_prob,
    completion_lower,
    continuous_runs,
    entropy_binom_check,
    enumerate_words,
    expectation_upper,
    factorial_threshold,
    greedy_code,
    gv_size_bound,
    inverse_gamma,
    l_max,
    lower_cont_asymptotic,
    tail_bound,
)


def test_family_size_caps():
    runs = continuous_runs(6)
    assert runs.size_at(0) == 1
    assert runs.size_at(1) == 6
    assert runs.size_at(6) == 6
    assert runs.size_at(7) == 0
    aps = arithmetic_progressions(5)
    assert aps.size_at(0) == 1
    assert aps.size_at(3) == 25
    assert aps.size_at(6) == 0


def test_tail_bound_values():
    assert tail_bound(continuous_runs(10), 1, 6) == Fraction(10, 720)
    assert tail_bound(continuous_runs(6), 2, 4) == 1  # clipped at a probability
    assert tail_bound(arithmetic_progressions(4), 1, 4) == Fraction(16, 24)
    # no member is longer than n; m^k and k! at k = 10^9 would take minutes
    assert tail_bound(continuous_runs(2), 2, 3) == 0
    assert tail_bound(continuous_runs(2), 2, 10**9) == 0
    assert tail_bound(arithmetic_progressions(5), 10**6, 10**9) == 0


def _hamming(x, y):
    """Number of coordinates where two words of one length differ: the reference for code distance."""
    assert len(x) == len(y)
    return sum(a != b for a, b in zip(x, y))


def test_hamming():
    assert _hamming((1, 2, 3), (1, 2, 3)) == 0
    assert _hamming((1, 2, 3), (3, 2, 1)) == 2


def test_gv_size_bound_value():
    assert gv_size_bound(2, 8, 2) == Fraction(256, 56)


def test_greedy_code_delta1_is_everything():
    code = greedy_code(3, 2, 1)
    assert code.size == 9
    assert set(code.words) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}


@pytest.mark.parametrize("m,n,delta", [(2, 4, 2), (2, 6, 3), (3, 4, 2), (2, 8, 2), (4, 3, 1)])
def test_greedy_code_distance_and_gv(m, n, delta):
    code = greedy_code(m, n, delta)
    assert Fraction(code.size) >= gv_size_bound(m, n, delta)
    for x, y in combinations(code.words, 2):
        assert _hamming(x, y) >= delta
    # greedy maximality: every word of the space is within delta-1 of the code
    if m**n <= 300:
        for w in product(range(1, m + 1), repeat=n):
            assert any(_hamming(w, c) < delta for c in code.words)


def _reference_sieve(m, n, delta):
    """The lexicographic greedy code by a plain Python sieve over word indices."""
    if delta == 1:
        return tuple(product(range(1, m + 1), repeat=n))
    place = [m ** (n - 1 - j) for j in range(n)]
    dead = bytearray(m**n)
    admitted = []
    for idx in range(m**n):
        if dead[idx]:
            continue
        digits = []
        rem = idx
        for p in place:
            d, rem = divmod(rem, p)
            digits.append(d)
        admitted.append(tuple(d + 1 for d in digits))
        for dist in range(1, delta):
            for pos in combinations(range(n), dist):
                moves = [[(alt - digits[j]) * place[j] for alt in range(m) if alt != digits[j]] for j in pos]
                for offsets in product(*moves):
                    dead[idx + sum(offsets)] = 1
    return tuple(admitted)


@pytest.mark.parametrize("m,n,delta", [
    (2, 2, 1), (3, 4, 1), (2, 4, 2), (2, 6, 3), (2, 8, 2), (2, 10, 5), (3, 6, 2), (4, 6, 3),
    (2, 14, 4), (3, 9, 3), (3, 8, 4), (5, 5, 2), (7, 4, 2), (8, 4, 2), (8, 5, 2), (16, 4, 2),
])
def test_greedy_code_matches_reference_sieve(m, n, delta):
    code = greedy_code(m, n, delta)
    assert code.words == _reference_sieve(m, n, delta)
    assert all(type(d) is int for w in code.words[:3] for d in w)


_XOR_INSTANCES = [(m, n, delta) for m, n, delta in _gv_instances(10**3) if m & (m - 1) == 0 and delta >= 2]


@pytest.mark.parametrize("m,n,delta", [*_XOR_INSTANCES, (2, 16, 4), (4, 8, 3)])
def test_xor_sieve_matches_ball_sieve_and_is_closed_under_xor(m, n, delta):
    code = bounds._xor_sieve(m, n, delta)
    assert code.tolist() == bounds._ball_sieve(m, n, delta).tolist()
    for c in code.tolist():
        assert np.array_equal(np.sort(code ^ c), code)


def test_greedy_code_takes_the_xor_sieve_exactly_at_powers_of_two(monkeypatch):
    calls = []
    for name in ("_xor_sieve", "_ball_sieve"):
        sieve = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *a, name=name, sieve=sieve: calls.append(name) or sieve(*a))
    for m in (2, 3, 4, 5, 6, 8):
        greedy_code(m, 4, 2)
    assert calls == ["_xor_sieve", "_ball_sieve", "_xor_sieve", "_ball_sieve", "_ball_sieve", "_xor_sieve"]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(2, 4), n=st.integers(2, 6))
def test_min_distance_check_is_the_pairwise_condition(data, m, n):
    from cis.acceptance import _min_distance_ok

    delta = data.draw(st.integers(1, n // 2))
    word = st.tuples(*[st.integers(1, m)] * n)
    words = tuple(data.draw(st.lists(word, min_size=1, max_size=12)))
    code = bounds.CodeBook(m, n, delta, words)
    # duplicates count as distance 0
    assert _min_distance_ok(code, m, n, delta) == all(
        _hamming(x, y) >= delta for x, y in combinations(words, 2))


def test_min_distance_check_rejects_duplicates():
    from cis.acceptance import _min_distance_ok

    code = greedy_code(2, 8, 3)
    assert _min_distance_ok(code, 2, 8, 3)
    doubled = bounds.CodeBook(2, 8, 3, code.words + code.words[-1:])
    assert not _min_distance_ok(doubled, 2, 8, 3)


def test_greedy_code_known_small_instance():
    # distance-2 codes in [2]^4 top out at 8 words; the sieve finds all 8
    assert greedy_code(2, 4, 2).size == 8


def test_greedy_code_validation():
    with pytest.raises(DomainError):
        greedy_code(1, 4, 1)
    with pytest.raises(DomainError):
        greedy_code(2, 4, 0)
    with pytest.raises(DomainError):
        greedy_code(2, 4, 3)  # delta > n/2
    with pytest.raises(SpaceTooLarge):
        greedy_code(3, 20, 2)
    # 100000^(10^9) would take minutes to build
    with pytest.raises(SpaceTooLarge, match=r"100000\^1000000000 exceeds the cap 1000000"):
        greedy_code(10**5, 10**9, 1)


def test_greedy_code_refuses_a_space_past_its_cap(monkeypatch):
    assert bounds.GREEDY_SPACE_CAP == 10**6
    assert greedy_code(2, 19, 9).size >= 1  # 2^19 = 524,288
    for m, n in ((2, 20), (3, 13), (2, 40), (1000, 4)):
        with pytest.raises(SpaceTooLarge, match=rf"{m}\^{n} exceeds the cap 1000000"):
            greedy_code(m, n, 2)
    # m^n is compared with the cap exactly, at and either side of it
    monkeypatch.setattr(bounds, "GREEDY_SPACE_CAP", 64)
    assert greedy_code(2, 6, 2).size == 32
    with pytest.raises(SpaceTooLarge, match=r"2\^7 exceeds the cap 64"):
        greedy_code(2, 7, 2)
    monkeypatch.setattr(bounds, "GREEDY_SPACE_CAP", 63)
    with pytest.raises(SpaceTooLarge, match=r"2\^6 exceeds the cap 63"):
        greedy_code(2, 6, 2)


def test_inverse_gamma_round_trip():
    for x in [2.0, 2.5, 3.0, 5.0, 9.5, 17.0, 25.0, 40.0]:
        assert inverse_gamma(math.gamma(x)) == pytest.approx(x, abs=1e-9)
    assert inverse_gamma(1.0) == 2.0
    assert inverse_gamma(24.0) == pytest.approx(5.0, abs=1e-10)
    g = inverse_gamma(1e5)
    assert 9 < g < 10
    assert math.lgamma(g) == pytest.approx(math.log(1e5), abs=1e-9)
    with pytest.raises(DomainError):
        inverse_gamma(0.5)
    with pytest.raises(DomainError):
        inverse_gamma(float("nan"))
    with pytest.raises(DomainError):
        inverse_gamma(float("inf"))


def test_factorial_threshold_examples():
    ft = factorial_threshold(2, 2048, 0.1)
    assert ft.k == 2067
    assert ft.lower_ok
    assert ft.upper_asserted
    assert ft.upper_ok is True
    assert ft.c_adjusted >= 0.1

    small = factorial_threshold(3, 10, 2.0)
    assert small.k == 20
    assert small.lower_ok
    assert not small.upper_asserted
    assert small.upper_ok is None

    unit = factorial_threshold(1, 7, 0.3)
    assert unit.k == 7
    assert unit.c_adjusted == 0.3
    assert unit.lower_ok


def test_factorial_threshold_rejects_bad_and_oversized_c(monkeypatch):
    for c in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="finite C"):
            factorial_threshold(2, 10, c)
    # k grows like C t log m / log t: C = 1e300 used to overflow, C = 1e5 ran for seconds
    for m, t, c in ((2, 10, 1e300), (2, 10, 1e5), (2, 10**400, 0.5), (1, 10**5 + 1, 0.5)):
        with pytest.raises(SpaceTooLarge):
            factorial_threshold(m, t, c)
    # the cap bounds k itself: (3, 10, 2.0) has k = 20
    monkeypatch.setattr(bounds, "FACTORIAL_K_CAP", 20)
    assert factorial_threshold(3, 10, 2.0).k == 20
    monkeypatch.setattr(bounds, "FACTORIAL_K_CAP", 19)
    with pytest.raises(SpaceTooLarge):
        factorial_threshold(3, 10, 2.0)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6), t=st.integers(3, 60), c=st.floats(0.01, 3.0))
def test_factorial_threshold_lower_always_holds(m, t, c):
    # after the minimal upward adjustment of C the lower inequality is exact
    ft = factorial_threshold(m, t, c)
    assert ft.k > t
    assert math.factorial(ft.k) >= math.factorial(t) * t ** (ft.k - t)
    assert ft.lower_ok


def test_expectation_upper_small_case():
    eb = expectation_upper(2, 7)
    assert eb.t == 4  # least t with t! >= 7
    assert eb.k == 8
    assert eb.value == pytest.approx(4 + 2 * math.log(2) / math.log(4) * 4 + 2)
    assert eb.in_regime
    with pytest.raises(DomainError):
        expectation_upper(2, 1)


def test_completion_lower_values():
    assert completion_lower(2, 5, 2, 2) == Fraction(1, 120)
    assert completion_lower(2, 4, 8, 2) == 0  # pair term swamps the mean term
    assert completion_lower(3, 3, 1, 1) == Fraction(1, 6)


def test_completion_lower_at_the_zero_edge_and_past_the_factorial_cap():
    # t_size/n! (1 - (t_size - 1)/delta!) is 0 exactly when delta! <= t_size - 1
    for n, t_size, delta in product((1, 3, 5), range(1, 30), range(1, 6)):
        expected = max(Fraction(0), Fraction(t_size, math.factorial(n))
                       * (1 - Fraction(t_size - 1, math.factorial(delta))))
        assert completion_lower(2, n, t_size, delta) == expected
    # zero without n! or delta!, however large they are
    assert completion_lower(2, 10**9, 3, 2) == 0
    assert completion_lower(2, 10**9, 10**30, 25) == 0  # 25! < 10^30
    cap = bounds.FACTORIAL_K_CAP
    assert completion_lower(2, cap, 2, 2) == Fraction(1, math.factorial(cap))
    for n, delta in ((cap + 1, 2), (5, cap + 1), (5, 10**9)):
        with pytest.raises(SpaceTooLarge):
            completion_lower(2, n, 2, delta)


def test_lower_cont_asymptotic():
    al = lower_cont_asymptotic(2, 10)
    expected = 10 * math.log(2 / 1.03) - math.log(20) - math.lgamma(11)
    assert al.log_value == pytest.approx(expected, rel=1e-12)
    assert al.value == pytest.approx(math.exp(expected), rel=1e-12)
    assert al.domain_ok
    assert not lower_cont_asymptotic(1, 10).domain_ok
    assert lower_cont_asymptotic(10**300, 2).value == math.inf


def test_entropy_binom_check():
    for delta in range(0, 21):
        assert entropy_binom_check(20, delta).holds
    mid = entropy_binom_check(10, 5)
    assert mid.binomial == 252
    assert mid.entropy_exponent == pytest.approx(10.0)
    with pytest.raises(DomainError):
        entropy_binom_check(10, 11)
    # at p = 1e-17, 1 - p rounds to 1.0; log1p keeps the term -(1-p) log2(1-p), about delta/ln 2 bits
    far = entropy_binom_check(10**20, 1000)
    assert far.holds and math.log2(far.binomial) < far.entropy_exponent < math.log2(far.binomial) + 10


def test_entropy_binom_check_refuses_a_binomial_past_its_bit_cap_within_a_second():
    # the entropy exponent bounds log2 C(n, delta) above, so it refuses before
    # math.comb: C(10^9, 5*10^8) alone would take minutes.  An n past the
    # doubles has no exponent and is refused too
    start = time.perf_counter()
    for n, delta in ((10**9, 5 * 10**8), (10**9, 10**9 - 10**5), (10**400, 10**399), (10**400, 0)):
        with pytest.raises(SpaceTooLarge):
            entropy_binom_check(n, delta)
    assert time.perf_counter() - start < 1.0
    # far from half, a huge n stays under the cap and answers
    assert entropy_binom_check(10**9, 10**9 - 1000).holds
    assert entropy_binom_check(2 * bounds.ENTROPY_BITS_CAP, 0).binomial == 1


def test_block_lower_bound_values():
    # ten values in five blocks of two, each completing with prob 5/6
    v = block_lower_bound(2, 10, 2)
    assert v == pytest.approx(1 - (1 / 6) ** 5, rel=1e-12)
    assert block_lower_bound(3, 7, 1) == 1.0
    assert block_lower_bound(2, 12, 2) >= block_lower_bound(2, 10, 2)
    # past the composition engine's cap, the default gf engine answers
    assert block_lower_bound(8, 100, 30) == pytest.approx(3 * float(complete_prob(8, 30)), rel=1e-6)
    with pytest.raises(DomainError):
        block_lower_bound(2, 5, 6)


def test_block_lower_bound_is_a_lower_bound():
    # exhaustive check against the exact tail Pr[maximal run >= k]
    for m, n, k in [(2, 4, 2), (2, 4, 4), (3, 2, 1), (1, 6, 2), (2, 3, 3), (2, 5, 2)]:
        words = list(enumerate_words(m, n))
        tail = sum(l_max(w) >= k for w in words) / len(words)
        assert block_lower_bound(m, n, k) <= tail + 1e-12
