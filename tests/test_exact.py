"""Exact engines: composition count, generating-function pipeline, series."""

import math
from fractions import Fraction

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
    phi_apply,
    phi_inverse,
    q_poly,
)
from cis import exact
from cis.exact import Poly


def test_q_poly_frozen_coefficients():
    # q_m(x) = -m! sum_{j=1..m} x^j/(m-j)!
    assert q_poly(1) == Poly([0, -1])
    assert q_poly(2) == Poly([0, -2, -2])
    assert q_poly(3) == Poly([0, -3, -6, -6])


def test_phi_worked_example():
    # q_2^2 = 4x^2 + 8x^3 + 4x^4; after x^k -> x^k/k! the value at -1 is 5/6
    square = q_poly(2) ** 2
    assert square == Poly([0, 0, 4, 8, 4])
    transformed = phi_apply(square)
    assert transformed == Poly([0, 0, 2, Fraction(4, 3), Fraction(1, 6)])
    assert transformed(-1) == Fraction(5, 6)
    assert p_value(2, 2) == Fraction(5, 6)


@given(st.lists(st.fractions(max_denominator=50), min_size=0, max_size=8))
def test_phi_round_trip(coeffs):
    p = Poly(coeffs)
    assert phi_inverse(phi_apply(p)) == p


def test_h_known_values():
    assert horton_kurn_h(2, 2) == 5
    assert horton_kurn_h(1, 4) == 1
    assert horton_kurn_h(2, 3) == count_complete_bruteforce(2, 3)
    assert horton_kurn_h(3, 2) == count_complete_bruteforce(3, 2)
    assert horton_kurn_h(3, 3) == count_complete_bruteforce(3, 3)


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
    # the cap is checked on the count itself: h_3(3) sums over C(3 + 3 - 1, 2) = 10 compositions
    monkeypatch.setattr(exact, "COMPOSITION_CAP", 10)
    assert horton_kurn_h(3, 3) == count_complete_bruteforce(3, 3)
    monkeypatch.setattr(exact, "COMPOSITION_CAP", 9)
    with pytest.raises(SpaceTooLarge):
        horton_kurn_h(3, 3)


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


def test_series_raises_when_cut_short():
    with pytest.raises(NoConvergence):
        l1_series(2, eps=1e-12, max_n=5)


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
