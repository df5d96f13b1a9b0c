"""Root finding, the spectral closed form, and its exact side identities."""

import functools
import math
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import workprec

from cis import (
    DomainError,
    approx_l1,
    find_roots,
    inverse_power_sums_exact,
    l1_closed_form,
    l1_series,
    power_sum_check,
    reciprocal_series,
    root_partition_diagnostic,
    truncated_exp,
    zemyan_targets,
)
from cis import spectral


def test_truncated_exp_coefficients():
    assert truncated_exp(3) == (1, 1, Fraction(1, 2), Fraction(1, 6))
    assert all(type(c) is Fraction for c in truncated_exp(3))


@pytest.mark.parametrize("m", range(1, 21))
def test_power_sum_table_matches_newton(m):
    # the padded table (-1; 0...; 1/m!; -1/m!) through t = m+2, exactly
    assert zemyan_targets(m) == inverse_power_sums_exact(m, m + 2)


def test_roots_small_m_known_values():
    rs = find_roots(1)
    assert len(rs.roots) == 1
    assert abs(rs.roots[0] - (-1)) < 1e-30
    rs2 = find_roots(2)
    got = sorted((float(z.real), float(z.imag)) for z in rs2.roots)
    assert got[0][0] == pytest.approx(-1.0, abs=1e-12)
    assert got[0][1] == pytest.approx(-1.0, abs=1e-12)
    assert got[1][1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 17))
def test_roots_certified_and_consistent(m):
    rs = find_roots(m)
    assert len(rs.roots) == m
    assert max(rs.residuals) < rs.tolerance
    # elementary symmetric identities of E_m: sum = -m, product = (-1)^m m!
    with workprec(rs.precision_bits):
        total = sum(rs.roots)
        prod = 1
        for z in rs.roots:
            prod *= z
        sum_err = abs(total - (-m))
        prod_err = abs(prod - (-1) ** m * math.factorial(m))
    assert sum_err < 1e-30
    assert prod_err < 1e-30 * math.factorial(m)
    # non-real roots come in conjugate pairs
    tagged = sorted((round(float(z.real), 20), round(abs(float(z.imag)), 20)) for z in rs.roots if abs(z.imag) > 1e-25)
    assert len(tagged) % 2 == 0
    assert all(tagged[2 * i] == tagged[2 * i + 1] for i in range(len(tagged) // 2))


def test_power_sum_check_is_tight():
    for m in (1, 2, 5, 10):
        report = power_sum_check(find_roots(m))
        assert report.max_deviation < 1e-20


def test_closed_form_m1_m2():
    assert abs(l1_closed_form(1).value - (math.e - 1)) < 1e-12
    target = math.e * (math.cos(1) + math.sin(1)) - 1
    cf = l1_closed_form(2)
    assert abs(cf.value - target) < 1e-12
    assert cf.imag_residue < 1e-20


def test_closed_form_stable_in_precision():
    assert l1_closed_form(5, precision_bits=192).value == pytest.approx(
        l1_closed_form(5, precision_bits=128).value, abs=1e-14
    )


def test_closed_form_tracks_series():
    for m in (3, 4, 7):
        assert abs(l1_closed_form(m).value - l1_series(m).value) < 1e-9


def test_approx_l1_values_and_decay():
    assert approx_l1(1) == pytest.approx(2 - 1 / 3)
    assert approx_l1(3) == pytest.approx(3.8)
    gap12 = abs(l1_closed_form(12).value - approx_l1(12))
    gap4 = abs(l1_closed_form(4).value - approx_l1(4))
    assert gap12 < 0.05
    assert gap12 < gap4


def test_reciprocal_series_leading_terms():
    rs = reciprocal_series(2, 4)
    assert rs.coefficients[:3] == (Fraction(1), Fraction(-1, 4), Fraction(1, 80))
    assert rs.within_envelope
    assert rs.envelope[0] == Fraction(1, 2)
    assert rs.envelope[1] == Fraction(1, 4)
    for m in (1, 3, 6, 12):
        series = reciprocal_series(m, 10)
        assert series.coefficients[0] == 1
        assert series.coefficients[1] == Fraction(-1, m + 2)
        assert series.within_envelope


def test_partition_diagnostic():
    for m in (1, 2, 8, 16, 20):
        rep = root_partition_diagnostic(find_roots(m))
        assert rep.n_small + rep.n_large == m
        assert rep.tail_ok  # the tail cap holds unconditionally
        assert rep.tail_sum <= rep.tail_bound
    # asymptotic modulus inequalities do hold by m = 20
    rep20 = root_partition_diagnostic(find_roots(20))
    assert rep20.large_modulus_ok and rep20.small_modulus_ok and rep20.small_below_half
    with pytest.raises(DomainError):
        root_partition_diagnostic(find_roots(3), gamma_minus=0.3, gamma=0.2, gamma_plus=0.1)


def test_domain_validation():
    with pytest.raises(DomainError):
        find_roots(0)
    with pytest.raises(DomainError):
        reciprocal_series(0, 3)
    with pytest.raises(DomainError):
        zemyan_targets(0)


@functools.cache
def _solve(m):
    """find_roots(m) and the number of sweeps its mpmath stage took."""
    sweeps = []
    aberth = spectral._aberth

    def counting(coeffs, z, stop, max_sweeps):
        converged, n = aberth(coeffs, z, stop, max_sweeps)
        if isinstance(z[0], mpmath.mpc):
            sweeps.append(n)
        return converged, n

    spectral._aberth = counting
    try:
        rs = find_roots(m)
    finally:
        spectral._aberth = aberth
    return rs, sweeps


@pytest.mark.parametrize("m", range(1, 41))
def test_mp_stage_takes_at_most_four_sweeps(m):
    sweeps = _solve(m)[1]
    assert len(sweeps) == 1 and sweeps[0] <= 4


@pytest.mark.parametrize("m", range(2, 41))
def test_conjugate_pairs_list_lower_half_plane_first(m):
    roots = _solve(m)[0].roots
    nonreal = [z for z in roots if abs(z.imag) > 1e-30]
    assert len(nonreal) == 2 * (m // 2)
    with workprec(128):
        for lower, upper in zip(nonreal[::2], nonreal[1::2]):
            assert lower.imag < 0 < upper.imag
            assert abs(lower - mpmath.conj(upper)) < 1e-30 * (1 + abs(lower))
    keys = [(float(z.real), float(z.imag)) for z in roots]
    assert keys == sorted(keys, key=lambda k: (round(k[0], 9), k[1]))


@pytest.mark.parametrize("m", range(1, 21))
def test_roots_match_mpmath_polyroots(m):
    ours = find_roots(m).roots
    with workprec(256):
        coeffs = [mpmath.mpf(1) / math.factorial(k) for k in reversed(range(m + 1))]
        ref = mpmath.polyroots(coeffs, maxsteps=200, extraprec=128)
        for z in ours:
            assert min(abs(z - r) for r in ref) < 1e-40


def test_find_roots_is_bitwise_repeatable():
    for m, bits in ((7, 64), (12, 128), (20, 192)):
        assert find_roots(m, bits) == find_roots(m, bits)


@pytest.mark.parametrize("m", [1, 2, 3, 171, 400])
def test_double_pass_returns_finite_distinct_points(m):
    # from m = 171 on, 1/k! is subnormal in double, and 0.0 from k = 178
    start = time.process_time()
    z = spectral._double_start(m)
    assert time.process_time() - start < 1.0
    assert len(z) == m
    assert all(type(c) is complex and math.isfinite(c.real) and math.isfinite(c.imag) for c in z)
    assert len(set(z)) == m


def test_aberth_gives_up_when_the_step_stops_falling():
    # stops below the precision floor cannot be met: the steps fall to the
    # floor, and the sweeps end long before max_sweeps
    z = spectral._double_start(12)
    coeffs = [1 / math.factorial(k) for k in range(13)]
    assert spectral._aberth(coeffs, z, 0.0, 1000)[0] is False
    with workprec(64):
        zm = [mpmath.mpc(c) for c in z]
        coeffs = [mpmath.mpf(1) / math.factorial(k) for k in range(13)]
        converged, sweeps = spectral._aberth(coeffs, zm, mpmath.mpf(2) ** -200, 1000)
    assert not converged
    assert sweeps <= 2 * spectral._STALL_SWEEPS
