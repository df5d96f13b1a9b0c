"""Root finding, the spectral closed form, and its exact side identities.

mpmath is the independent reference here: the library uses none of it.
"""

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
    NoConvergence,
    SpaceTooLarge,
    approx_l1,
    find_roots,
    inverse_power_sums_exact,
    l1_closed_form,
    l1_series,
    power_sum_check,
    reciprocal_series,
)
from cis import spectral


def _mp_roots(rs):
    """The fixed-point zeros of a RootSet as exact mpmath numbers."""
    p = rs.frac_bits
    with workprec(max(abs(v).bit_length() for point in rs.points for v in point) + 1):
        return [mpmath.mpc(mpmath.mpf((x, -p)), mpmath.mpf((y, -p))) for x, y in rs.points]


@pytest.mark.parametrize("m", range(1, 21))
def test_power_sum_table_matches_newton(m):
    # the padded table (-1; 0...; 1/m!; -1/m!) through t = m+2, exactly
    table = [-1, *[0] * (m - 1), Fraction(1, math.factorial(m)), Fraction(-1, math.factorial(m))]
    assert inverse_power_sums_exact(m, m + 2) == table


def test_roots_small_m_known_values():
    rs = find_roots(1)
    assert len(rs.roots) == 1
    assert abs(_mp_roots(rs)[0] - (-1)) < 1e-30
    rs2 = find_roots(2)
    got = sorted((z.real, z.imag) for z in rs2.roots)
    assert got[0][0] == pytest.approx(-1.0, abs=1e-12)
    assert got[0][1] == pytest.approx(-1.0, abs=1e-12)
    assert got[1][1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 17))
def test_roots_certified_and_consistent(m):
    rs = find_roots(m)
    assert len(rs.roots) == m
    assert max(rs.residuals) < rs.tolerance
    roots = _mp_roots(rs)
    # elementary symmetric identities of E_m: sum = -m, product = (-1)^m m!
    with workprec(rs.precision_bits):
        total = sum(roots)
        prod = 1
        for z in roots:
            prod *= z
        sum_err = abs(total - (-m))
        prod_err = abs(prod - (-1) ** m * math.factorial(m))
    assert sum_err < 1e-30
    assert prod_err < 1e-30 * math.factorial(m)
    # non-real roots come in conjugate pairs
    tagged = sorted((round(float(z.real), 20), round(abs(float(z.imag)), 20)) for z in roots if abs(z.imag) > 1e-25)
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


def test_reciprocal_series_refuses_past_each_cap_and_answers_on_it():
    with pytest.raises(SpaceTooLarge):
        reciprocal_series(spectral.RECIP_MAX_M + 1, 0)
    with pytest.raises(SpaceTooLarge):
        reciprocal_series(1, spectral.RECIP_MAX_K + 1)
    assert len(reciprocal_series(spectral.RECIP_MAX_M, 1).coefficients) == 2
    assert len(reciprocal_series(1, spectral.RECIP_MAX_K).coefficients) == spectral.RECIP_MAX_K + 1


def test_domain_validation():
    with pytest.raises(DomainError):
        find_roots(0)
    with pytest.raises(DomainError):
        reciprocal_series(0, 3)
    with pytest.raises(DomainError):
        inverse_power_sums_exact(0, 3)


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
    roots = _mp_roots(_solve(m)[0])
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
    ours = _mp_roots(find_roots(m))
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


# ---------------------------------------------------------------------------
# the closed form on integers


def _half_unit(value_str):
    """Half a unit in the last place of a decimal string, as a Fraction."""
    return Fraction(1, 2 * 10 ** len(value_str.partition(".")[2]))


@pytest.mark.parametrize("m", [*range(1, 31), 40])
def test_closed_form_lies_within_the_series_tail(m):
    # the series' terms are probabilities, so its exact partial sum is below
    # the limit by the tail; the closed form's digits are within half a unit
    # of the limit, and below 2^-bits (m = 41..60 pass too, in about two minutes)
    series = l1_series(m)
    cf = l1_closed_form(m)
    gap = Fraction(cf.value_str) - series.exact_partial_sum
    slack = _half_unit(cf.value_str) + Fraction(1, 2**cf.precision_bits)
    assert -slack <= gap <= Fraction(series.truncation_bound) + slack


@functools.cache
def _mp_closed_form(m):
    """-1 - sum_i exp(-alpha_i)/alpha_i over certified zeros, summed in 320-bit mpmath."""
    with workprec(320):
        return -1 - sum((mpmath.exp(-a) / a for a in _mp_roots(find_roots(m))), mpmath.mpc(0))


@pytest.mark.parametrize("m", range(1, 71))
def test_closed_form_matches_the_root_route(m):
    # the zeros are good to about 2^-144 relative, and the terms reach
    # about e^(0.28 m), so the root route is good to far below 1e-30
    ref = _mp_closed_form(m)
    cf = l1_closed_form(m)
    assert abs(ref.imag) < 1e-30
    with workprec(320):
        assert abs(mpmath.mpf(cf.value_str) - ref.real) < 1e-30
    assert cf.value == float(ref.real)  # the nearest double
    assert cf.imag_residue == 0.0


@pytest.mark.parametrize("bits", [32, 64, 128, 200])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 20, 40, 60, 70])
def test_every_printed_digit_agrees_at_twice_the_bits(m, bits):
    # value_str at 2 bits, rounded half up to the places value_str prints,
    # gives value_str; and value_str drops at most two of the places that
    # 2^-bits allows
    short, long = l1_closed_form(m, bits).value_str, l1_closed_form(m, 2 * bits).value_str
    places = len(short.partition(".")[2])
    assert int(bits * math.log10(2)) - 2 <= places <= int(bits * math.log10(2))
    rounded = math.floor(Fraction(long) * 10**places + Fraction(1, 2))
    assert Fraction(rounded, 10**places) == Fraction(short)


def test_closed_form_at_m60_prints_only_covered_digits():
    # at 128 bits the root route printed 40 digits, and the 40th moved with
    # the root set; the 384-bit value reads ...3740230814
    cf = l1_closed_form(60)
    ref = l1_closed_form(60, 384)
    assert ref.value_str.startswith(cf.value_str[:-1])
    assert "3740230814" in ref.value_str
    assert abs(Fraction(cf.value_str) - Fraction(ref.value_str)) <= _half_unit(cf.value_str)


def test_closed_form_answers_past_the_root_solve():
    # m = 100 has no certified roots at 128 bits, but the series needs none
    with pytest.raises(NoConvergence):
        find_roots(100)
    cf = l1_closed_form(100)
    assert abs(cf.value - approx_l1(100)) < 1e-12


def _newton_reference(m, t_max):
    """sum_i alpha_i^(-t), t = 1..t_max, by Newton's identities in Fractions on the reversed E_m."""
    e = [Fraction((-1) ** k, math.factorial(k)) for k in range(m + 1)]
    p = []
    for k in range(1, t_max + 1):
        if k <= m:
            acc = Fraction((-1) ** (k - 1) * k) * e[k]
            for i in range(1, k):
                acc += (-1) ** (i - 1) * e[i] * p[k - i - 1]
        else:
            acc = Fraction(0)
            for i in range(1, m + 1):
                acc += (-1) ** (i - 1) * e[i] * p[k - i - 1]
        p.append(acc)
    return p


@pytest.mark.parametrize("m", range(1, 31))
def test_integer_recurrence_matches_fraction_newton(m):
    assert inverse_power_sums_exact(m, 3 * m) == _newton_reference(m, 3 * m)


def test_perturbed_root_fails_the_residual_certificate():
    rs = find_roots(12)
    p, points = rs.frac_bits, list(rs.points)
    spectral._certify(12, 128, points, p, spectral._residuals(12, points, p))
    # one zero moved by 2^-80: its residual is far above 1e-32
    x, y = points[5]
    points[5] = (x + (1 << (p - 80)), y)
    with pytest.raises(NoConvergence, match="residual"):
        spectral._certify(12, 128, points, p, spectral._residuals(12, points, p))


@pytest.mark.parametrize("m", [3, 12, 40])
def test_residuals_are_exact_upper_bounds(m):
    # each reported residual is at least |E_m| at the exact point, from
    # 2048-bit mpmath, and above it by less than 2^-60 of it
    rs = find_roots(m)
    with workprec(2048):
        coeffs = [mpmath.mpf(1) / math.factorial(k) for k in range(m + 1)]
        for z, r in zip(_mp_roots(rs), rs.residuals):
            true = abs(spectral._horner(coeffs, z))
            bound = mpmath.mpf(r.numerator) / r.denominator
            assert true <= bound <= true * (1 + mpmath.mpf(2) ** -60)


def test_double_pass_stops_once_the_step_stops_falling(monkeypatch):
    # the largest step bottoms out after about 9 sweeps at m = 12 and 20;
    # at m = 40 early sweeps rise and fall between 0.4 and 3 and must not stop it
    sweeps = {}
    aberth = spectral._aberth

    def counting(coeffs, z, cap):
        sweeps[len(z)] = aberth(coeffs, z, cap)
        return sweeps[len(z)]

    monkeypatch.setattr(spectral, "_aberth", counting)
    for m in (12, 20, 40):
        spectral._double_start(m)
    assert sweeps[12] <= 10 and sweeps[20] <= 10
    assert 13 <= sweeps[40] < 20


@pytest.mark.parametrize("route, args", [
    (l1_closed_form, (501,)),
    (l1_closed_form, (10**9,)),
    (l1_closed_form, (5, 10**9)),
    (l1_closed_form, (500, 1024)),
    (find_roots, (1000, 40)),
    (find_roots, (3, 10**9)),
], ids=lambda v: v.__name__ if callable(v) else "-".join(map(str, v)))
def test_spectral_caps_refuse_before_computing(route, args):
    start = time.process_time()
    with pytest.raises(SpaceTooLarge):
        route(*args)
    assert time.process_time() - start < 1.0
