"""Exact engines: composition count, generating-function pipeline, series."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cis import (
    DomainError,
    NoConvergence,
    SpaceTooLarge,
    complete_prob,
    count_complete_bruteforce,
    horton_kurn_h,
    l1_finite_expectation,
    l1_series,
    multiset_count,
    p_value,
    weak_compositions,
)
from cis import exact


def _times(a, b):
    """Product of two coefficient sequences, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _q_poly(m):
    """Coefficients of q_m(x) = -m! sum_{j=1..m} x^j/(m-j)!, constant term first: the gf engine's
    polynomial, whose n-th power through Phi at -1 is Pr[l1 = n over S_{m,n}]."""
    return (0, *(-math.factorial(m) // math.factorial(m - j) for j in range(1, m + 1)))


def _phi_apply(coeffs):
    """Phi, the linear map x^k -> x^k / k!, on coefficients, constant term first."""
    return tuple(Fraction(c) / math.factorial(k) for k, c in enumerate(coeffs))


def _phi_inverse(coeffs):
    """The inverse of Phi: x^k -> k! x^k."""
    return tuple(Fraction(c) * math.factorial(k) for k, c in enumerate(coeffs))


def test_q_poly_frozen_coefficients():
    # q_m(x) = -m! sum_{j=1..m} x^j/(m-j)!
    assert _q_poly(1) == (0, -1)
    assert _q_poly(2) == (0, -2, -2)
    assert _q_poly(3) == (0, -3, -6, -6)
    assert all(type(c) is int for c in _q_poly(5))


def test_phi_worked_example():
    # q_2^2 = 4x^2 + 8x^3 + 4x^4; after x^k -> x^k/k! the value at -1 is 5/6
    square = _times(_q_poly(2), _q_poly(2))
    assert square == (0, 0, 4, 8, 4)
    transformed = _phi_apply(square)
    assert transformed == (0, 0, 2, Fraction(4, 3), Fraction(1, 6))
    assert sum(c * (-1) ** k for k, c in enumerate(transformed)) == Fraction(5, 6)
    assert p_value(2, 2) == Fraction(5, 6)


@given(st.lists(st.fractions(max_denominator=50), min_size=0, max_size=8))
def test_phi_round_trip(coeffs):
    p = tuple(coeffs)
    assert _phi_inverse(_phi_apply(p)) == p


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_gf_powers_match_plain_convolution(m):
    # q_m^n = (-m x)^n u_m^n, so u_m^n is q_m^n shifted down by n and divided by (-m)^n
    qpow = (1,)
    for n, p in exact._gf_powers(m):
        qpow = _times(qpow, _q_poly(m))
        scale = (-m) ** n
        assert qpow[:n] == (0,) * n
        assert [c // scale for c in qpow[n:]] == p
        assert all(c % scale == 0 for c in qpow[n:])
        if n == 7:
            break


# (terms_used, truncation_bound, value, SHA-256 prefix of str(exact_partial_sum)) of
# l1_series(m) under the default eps, as computed by the Fraction polynomial engine
SERIES_PINNED = {
    1: (15, 7.647163731819816e-13, 1.7182818284589945, "f4ee4756d35dbd4398c9b2daa157c678"),
    2: (20, 1.587686206209183e-13, 2.756049227094711, "e5a62a8bc8faa1dd87fd4e3de52fe3fe"),
    3: (23, 4.948809996133108e-13, 3.8006123352952113, "5dc6b78b2d8f5acc746877f3fe05f014"),
    4: (26, 5.600966873334869e-13, 4.833355397977586, "fc1ca5cd176511eed1ea3cd3271a395d"),
    5: (29, 3.89986500665942e-13, 5.857129312302133, "adfad789df1acaf95df4723f9db54f37"),
    6: (32, 2.06636584279468e-13, 6.8749941233654335, "b159d30eaa739ee7b34fea30c59afb18"),
    7: (34, 4.625593139518444e-13, 7.888887204166261, "c25ed6de5605d81996312744df7c96b4"),
    8: (36, 8.131703820612596e-13, 8.89999960036241, "df8826a368ae2e90da711143aaea9266"),
    9: (39, 2.7682513740510754e-13, 9.909090828568608, "da57eead6bdf6a650036f52bd1b137b8"),
    10: (41, 3.795618483547553e-13, 10.916666653887312, "b7bd5cbe7f00104a0ca9af1eb3ac15ac"),
    11: (43, 4.675166859715333e-13, 11.9230769221242, "1d682897a481c25a94e64202f2b48203"),
    12: (45, 5.293092691978697e-13, 12.928571428942446, "84d91db66aaf4cc76c00248dc6933bb9"),
    13: (47, 5.601410151645959e-13, 13.933333333577671, "64498d0808f88047ea7f5f380ee8092a"),
    14: (49, 5.610615948946571e-13, 14.93750000009553, "4f4d6cbae34de71c09725c9fc1870081"),
    15: (51, 5.370514909817406e-13, 15.94117647061899, "0f50392474556406463f88d48ba4f100"),
    16: (53, 4.949452105775892e-13, 16.94444444445314, "792726df5f7e56f8c4f44e35057bf37d"),
}


@pytest.mark.parametrize("m", sorted(SERIES_PINNED))
def test_series_pinned_values(m):
    res = l1_series(m)
    digest = hashlib.sha256(str(res.exact_partial_sum).encode()).hexdigest()[:32]
    assert (res.terms_used, res.truncation_bound, res.value, digest) == SERIES_PINNED[m]
    assert res.value == float(res.exact_partial_sum)
    if m <= 4:
        # the counting engine gives the same terms
        hk = [complete_prob(m, k, engine="hk") for k in range(1, res.terms_used + 1)]
        assert sum(hk) == res.exact_partial_sum
        assert float(hk[-1]) == res.truncation_bound


def test_h_known_values():
    assert horton_kurn_h(2, 2) == 5
    assert horton_kurn_h(1, 4) == 1
    assert horton_kurn_h(2, 3) == count_complete_bruteforce(2, 3)
    assert horton_kurn_h(3, 2) == count_complete_bruteforce(3, 2)
    assert horton_kurn_h(3, 3) == count_complete_bruteforce(3, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(7))
def test_weak_compositions_are_the_sorted_tuples_summing_to_n(n, m):
    expected = sorted(t for t in product(range(n + 1), repeat=m) if sum(t) == n)
    assert list(weak_compositions(n, m)) == expected


def test_weak_compositions_check_their_arguments_when_called():
    for n, m in ((-1, 2), (3, 0)):
        with pytest.raises(DomainError):
            weak_compositions(n, m)


def test_horton_kurn_h_takes_a_thousand_parts():
    # one part per value: a generator frame per part would pass the recursion limit
    assert horton_kurn_h(1000, 1) == 1
    assert sum(1 for _ in weak_compositions(1, 1500)) == 1500


def test_single_value_words_always_complete():
    for m in (1, 2, 5, 9):
        assert complete_prob(m, 1) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_engines_agree(m):
    for n in range(1, 9):
        hk = complete_prob(m, n, engine="hk")
        gf = complete_prob(m, n, engine="gf")
        assert hk == gf == p_value(m, n)
        if multiset_count(m, n) <= 20000:
            assert hk == complete_prob(m, n, engine="brute")


def test_probability_is_monotone_in_m_and_decreasing_in_n():
    # more copies make completion easier; longer targets make it harder
    for n in (2, 3, 4):
        probs = [complete_prob(m, n) for m in (1, 2, 3, 4)]
        assert probs == sorted(probs)
    for m in (1, 2, 3):
        probs = [complete_prob(m, n) for n in range(1, 8)]
        assert probs == sorted(probs, reverse=True)


def test_engine_validation():
    with pytest.raises(DomainError):
        complete_prob(2, 2, engine="nope")
    with pytest.raises(DomainError):
        complete_prob(0, 2)
    with pytest.raises(DomainError):
        l1_series(2, eps=0.0)
    for eps in (math.inf, math.nan, -math.inf):
        with pytest.raises(DomainError, match="finite eps"):
            l1_series(2, eps=eps)


def test_horton_kurn_h_caps_its_compositions(monkeypatch):
    # (6, 30) sums over C(35, 5) = 324,632 compositions; C(49, 19) is far past the cap
    with pytest.raises(SpaceTooLarge):
        horton_kurn_h(20, 30)
    with pytest.raises(SpaceTooLarge):
        complete_prob(200, 200, engine="hk")
    # (8, 30) sums over C(37, 7), about 10^7 compositions; the default gf engine answers
    with pytest.raises(SpaceTooLarge):
        complete_prob(8, 30, engine="hk")
    assert complete_prob(8, 30) == p_value(8, 30)
    # the cap is checked on the count itself: h_3(3) sums over C(3 + 3 - 1, 2) = 10 compositions
    monkeypatch.setattr(exact, "COMPOSITION_CAP", 10)
    assert horton_kurn_h(3, 3) == count_complete_bruteforce(3, 3)
    monkeypatch.setattr(exact, "COMPOSITION_CAP", 9)
    with pytest.raises(SpaceTooLarge):
        horton_kurn_h(3, 3)


def test_horton_kurn_h_caps_its_division_work(monkeypatch):
    # (2, 20000) has only 20,001 compositions, but 20,001 x 40000^2 is past the cap:
    # the Horner pass over l = 20000..40000 builds (40000)! one factor at a time
    with pytest.raises(SpaceTooLarge, match="weak compositions"):
        horton_kurn_h(2, 20000)
    # h_3(3) takes 10 compositions x 9^2 = 810 units
    monkeypatch.setattr(exact, "HK_WORK_CAP", 810)
    assert horton_kurn_h(3, 3) == count_complete_bruteforce(3, 3)
    monkeypatch.setattr(exact, "HK_WORK_CAP", 809)
    with pytest.raises(SpaceTooLarge):
        horton_kurn_h(3, 3)


def test_series_caps_its_degree(monkeypatch):
    # m = 60 stops at its first admissible index n = 3m+3 = 183; m = 61 cannot
    assert 183 * 59 <= exact.SERIES_DEGREE_CAP < 186 * 60
    with pytest.raises(SpaceTooLarge):
        l1_series(1000)
    res = l1_series(3)
    # m = 3 needs degree 2 * terms_used: the cap stops the series after its last term within
    monkeypatch.setattr(exact, "SERIES_DEGREE_CAP", 2 * res.terms_used)
    assert l1_series(3) == res
    monkeypatch.setattr(exact, "SERIES_DEGREE_CAP", 2 * res.terms_used - 1)
    with pytest.raises(SpaceTooLarge):
        l1_series(3)
    # a term limit within the cap still ends in NoConvergence
    monkeypatch.setattr(exact, "SERIES_MAX_N", res.terms_used - 1)
    with pytest.raises(NoConvergence):
        l1_series(3)
    # the stopping rule needs n >= 3m+3 = 12: a cap below degree 24 fails before any term
    monkeypatch.setattr(exact, "SERIES_DEGREE_CAP", 23)
    monkeypatch.setattr(exact, "_gf_powers", None)
    with pytest.raises(SpaceTooLarge):
        l1_series(3)


def test_gf_engine_caps_its_degree(monkeypatch):
    # the cap is on n(m-1), the degree of u_m^n; m = 1 has degree 0 at every n
    with pytest.raises(SpaceTooLarge):
        p_value(2, exact.GF_DEGREE_CAP + 1)
    with pytest.raises(SpaceTooLarge):
        l1_finite_expectation(3, exact.GF_DEGREE_CAP)
    assert p_value(1, 3000) == Fraction(1, math.factorial(3000))
    monkeypatch.setattr(exact, "GF_DEGREE_CAP", 6)
    assert p_value(3, 3) == complete_prob(3, 3, engine="hk")
    assert l1_finite_expectation(4, 2) == sum(complete_prob(4, k) for k in (1, 2))
    with pytest.raises(SpaceTooLarge):
        p_value(4, 3)
    with pytest.raises(SpaceTooLarge):
        complete_prob(3, 4, engine="gf")


def test_series_m1_matches_e_minus_one():
    res = l1_series(1, eps=1e-12)
    assert abs(res.value - (math.e - 1)) < 1e-11
    assert res.terms_used >= 3 * 1 + 3
    assert res.truncation_bound < 1e-12
    assert res.value == float(res.exact_partial_sum)


def test_series_m2_value():
    # e(cos 1 + sin 1) - 1, truncated below 1e-12
    res = l1_series(2, eps=1e-12)
    assert abs(res.value - 2.7560492270947274) < 1e-11


def test_series_raises_when_cut_short(monkeypatch):
    assert exact.SERIES_MAX_N == 400
    monkeypatch.setattr(exact, "SERIES_MAX_N", 5)
    with pytest.raises(NoConvergence):
        l1_series(2, eps=1e-12)


def test_finite_expectation_small_case():
    # E[l1] over S_{2,2}: l1 is 2 on 5 of 6 words, 1 on the sixth
    assert l1_finite_expectation(2, 2) == Fraction(11, 6)


def test_finite_expectation_increases_to_series_value():
    values = [l1_finite_expectation(2, n) for n in (1, 2, 5, 10, 25)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    limit = l1_series(2, eps=1e-13).value
    assert abs(float(l1_finite_expectation(2, 50)) - limit) < 1e-10
    with pytest.raises(DomainError):
        l1_finite_expectation(2, 0)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 7))
def test_tail_sum_identity(m, n):
    # sum over k of Pr[l1 >= k] telescopes to the expectation
    expect = l1_finite_expectation(m, n)
    tail = sum(complete_prob(m, k) for k in range(1, n + 1))
    assert expect == tail
