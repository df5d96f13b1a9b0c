"""Root finding, the spectral closed form, and its exact side identities."""

import functools
import math
import random
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
    """find_roots(m) and the number of sweeps its integer stage took."""
    sweeps = []
    aberth = spectral._aberth_fixed

    def counting(*args):
        converged, n = aberth(*args)
        sweeps.append(n)
        return converged, n

    spectral._aberth_fixed = counting
    try:
        rs = find_roots(m)
    finally:
        spectral._aberth_fixed = aberth
    return rs, sweeps


@pytest.mark.parametrize("m", range(1, 41))
def test_mp_stage_takes_at_most_four_sweeps(m):
    # the multiprecision stage is the fixed-point integer one
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


@pytest.mark.parametrize("q", [6, 7])
def test_root_sort_rounds_real_parts_half_to_even(q):
    # a conjugate pair whose real part lies exactly halfway between grid
    # points q and q + 1 rounds to the even one at either parity of q, and
    # so ties there with a real root: the three list lower, real, upper
    shift = 40
    x = (q << shift) + (1 << (shift - 1))
    even = q + q % 2
    lower, upper, real = (x, -5), (x, 5), (even << shift, 0)
    key = functools.partial(spectral._root_key, shift=shift)
    assert [key(lower), key(real), key(upper)] == [(even, -5), (even, 0), (even, 5)]
    assert sorted([upper, real, lower], key=key) == [lower, real, upper]
    # one unit off the boundary rounds to the nearer grid point
    assert key((x - 1, 0)) == (q, 0) and key((x + 1, 0)) == (q + 1, 0)


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
    # a stop of 2^-200 on a 2^-64 grid cannot be met: the steps fall to the
    # precision floor, and the sweeps end long before max_sweeps
    z = spectral._double_start(12)
    p = 64
    xs = [spectral._to_fixed(c.real, p) for c in z]
    ys = [spectral._to_fixed(c.imag, p) for c in z]
    cs = [math.factorial(12) // math.factorial(k) << p for k in range(12)]
    converged, sweeps = spectral._aberth_fixed(cs, xs, ys, p, 200, 1000)
    assert not converged
    assert sweeps <= 2 * spectral._STALL_SWEEPS


def test_fixed_point_horner_matches_mpmath():
    # P = m! E_m and P' = m! E_(m-1) at random points, against 256-bit
    # mpmath.  Every floored product is off by at most one unit of 2^-p in
    # each part.  The m Horner products are then multiplied by at most
    # M^m, M = max(1, |z|), and each of the 2 bitlen(m) products that make
    # z^m by at most 4m M^m, so the error is below 16 m bitlen(m) M^m 2^-p
    rng = random.Random(5)
    p = 96
    for m in (1, 2, 7, 20, 40):
        cs = [math.factorial(m) // math.factorial(k) << p for k in range(m)]
        for _ in range(10):
            z = complex(rng.uniform(-m, m), rng.uniform(-m, m))
            x, y = spectral._to_fixed(z.real, p), spectral._to_fixed(z.imag, p)
            dr, di, pr, pi = spectral._horner_fixed(cs, x, y, p)
            with workprec(256):
                zm = mpmath.mpc(mpmath.mpf((x, -p)), mpmath.mpf((y, -p)))
                coeffs = [mpmath.mpf(math.factorial(m)) / math.factorial(k) for k in range(m + 1)]
                ref_d = spectral._horner(coeffs[:-1], zm)
                ref_p = spectral._horner(coeffs, zm)
                bound = 16 * m * m.bit_length() * max(1, abs(zm)) ** m * mpmath.mpf(2) ** -p
                err_d = abs(mpmath.mpc(mpmath.mpf((dr, -p)), mpmath.mpf((di, -p))) - ref_d)
                err_p = abs(mpmath.mpc(mpmath.mpf((pr, -p)), mpmath.mpf((pi, -p))) - ref_p)
                assert err_d <= bound and err_p <= bound
                assert bound < 1e-12 * abs(ref_d)  # the bound is not vacuous


@pytest.mark.parametrize("m", [69, 70])
def test_find_roots_certifies_m69_and_m70(m):
    start = time.process_time()
    rs = find_roots(m)
    assert time.process_time() - start < 5.0
    assert len(rs.roots) == m
    assert max(rs.residuals) < rs.tolerance
    report = power_sum_check(rs)
    assert report.max_deviation < 1e-20
