"""Spectral route to the limiting expected run length.

The limit of E[l1] over S_{m,n} as n grows equals

    -1 - sum_i exp(-alpha_i) / alpha_i

where alpha_1, ..., alpha_m are the zeros of the truncated exponential
E_m(x) = sum_{k=0..m} x^k / k!.  The zeros are simple, come in conjugate
pairs, and their inverse power sums obey a rigid pattern:

    sum_i alpha_i^(-t) = -1 (t=1), 0 (2 <= t <= m), 1/m! (t=m+1),
                         -1/m! (t=m+2).

That pattern is computable exactly from the coefficients of
m! x^m E_m(1/x) via Newton's identities, which gives an algebraic oracle
for the numeric roots that requires no trust in the root finder.

Roots are found by simultaneous Aberth-Ehrlich iteration, one sweep loop
run in two precisions: a few sweeps in IEEE double from a circle of
radius m/2, then mpmath sweeps at the working precision from where those
stopped.  Each root is polished by Newton steps and certified by its
residual |E_m(alpha_i)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError, NoConvergence
from .exact import _fact


def truncated_exp(m: int) -> tuple[Fraction, ...]:
    """Coefficients of E_m(x) = sum_{k=0..m} x^k / k!, constant term first."""
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    return tuple(Fraction(1, _fact(k)) for k in range(m + 1))


def approx_l1(m: int) -> float:
    """Elementary approximation m + 1 - 1/(m+2) of the limiting mean.

    The gap to the spectral value decays exponentially in m; the package
    reports the gap rather than asserting any particular decay constant.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return m + 1 - 1.0 / (m + 2)


def zemyan_targets(m: int) -> list[Fraction]:
    """Exact inverse power sums sum_i alpha_i^(-t) for t = 1..m+2."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    out = [Fraction(-1)]
    out.extend([Fraction(0)] * (m - 1))
    out.append(Fraction(1, _fact(m)))
    out.append(Fraction(-1, _fact(m)))
    return out


def inverse_power_sums_exact(m: int, t_max: int) -> list[Fraction]:
    """Power sums of the reciprocals of the zeros, via Newton's identities.

    The reciprocals 1/alpha_i are the roots of m! x^m E_m(1/x), whose monic
    form has elementary symmetric functions e_k = (-1)^k / k!.  Newton's
    identities then produce sum_i alpha_i^(-t) exactly, independent of any
    numerical root finding.
    """
    if m < 1 or t_max < 1:
        raise DomainError(f"need m >= 1 and t_max >= 1, got m={m}, t_max={t_max}")
    e = [Fraction((-1) ** k, _fact(k)) for k in range(m + 1)]
    p: list[Fraction] = []
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


@dataclass(frozen=True)
class RootSet:
    """Certified zeros of E_m, sorted by real part, then imaginary part.

    The real parts are compared rounded to precision_bits // 2 fractional
    bits, so each conjugate pair lists its lower half-plane member first.

    roots and residuals hold mpmath numbers carrying precision_bits of
    working precision; residuals are |E_m(alpha_i)| and every one is below
    tolerance (10^(-precision_bits/4)), otherwise construction fails.
    """

    m: int
    precision_bits: int
    roots: tuple
    residuals: tuple
    tolerance: float


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


# sweeps in a row in which the largest step does not halve its smallest
# value so far before _aberth gives up; rounding noise at the precision
# floor sets new minima by less than that
_STALL_SWEEPS = 24
# the double pass stops at this relative step, after _DOUBLE_SWEEPS sweeps,
# or, from m = 84 on, after about _DOUBLE_PAIRS point-pair updates
_DOUBLE_STOP = 2.0 ** -44
_DOUBLE_SWEEPS = 20
_DOUBLE_PAIRS = 2**17


def _aberth(coeffs, z, stop, max_sweeps):
    """Aberth-Ehrlich sweeps on the points z, in place.

    The arithmetic is that of coeffs and z: Python floats and complex
    numbers, or mpmath numbers at the working precision.  Each sweep moves
    every point in turn (Gauss-Seidel order) by its Aberth step, and the
    largest relative step of the sweep is compared with stop.

    Returns (converged, sweeps): converged is True once the largest step
    falls below stop, and False when max_sweeps run out or the largest
    step has not set a new minimum, by a factor of two, for _STALL_SWEEPS
    sweeps in a row.
    """
    m = len(z)
    dcoeffs = coeffs[:-1]  # derivative of E_m is E_{m-1}
    zero = 0 * z[0]
    best = math.inf
    since_best = 0
    for sweep in range(1, max_sweeps + 1):
        max_step = 0
        for i in range(m):
            zi = z[i]
            pz = _horner(coeffs, zi)
            dz = _horner(dcoeffs, zi)
            if dz == 0:
                z[i] = zi + (1 + abs(zi)) / 1000
                max_step = math.inf
                continue
            w = pz / dz
            s = sum([1 / (zi - zj) for zj in z[:i] + z[i + 1:]], zero)
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[i] = zi - step
            rel = abs(step) / max(1, abs(z[i]))
            if rel > max_step:
                max_step = rel
        if max_step < stop:
            return True, sweep
        if max_step < best / 2:
            best, since_best = max_step, 0
        else:
            since_best += 1
            if since_best >= _STALL_SWEEPS:
                return False, sweep
    return False, max_sweeps


def _double_start(m):
    """Start points for the mpmath sweeps, from Aberth sweeps in double.

    The points start on a circle of radius m/2, at an offset angle that
    keeps the set off the real axis and asymmetric.  The coefficients are
    1/k! rounded to floats, which is 0.0 from k = 178 on, where the
    polynomial is cut.  The sweeps stop at a relative step of 2^-44 or
    after min(20, 1 + 2^17 // m^2) sweeps: 20 sweeps bring every m <= 60
    to the double floor, and past m = 65 that floor is above 2^-8, so
    large m gets a fixed budget of point-pair updates instead.  The
    arithmetic is plain IEEE double in the interpreter, with no numpy.
    """
    with mp.workprec(64):
        radius = mp.mpf(m) / 2
        z = [
            complex(radius * mp.exp(mp.mpc(0, 2 * mp.pi * (k + mp.mpf("0.371")) / m)))
            for k in range(m)
        ]
    coeffs = [1 / _fact(k) for k in range(m + 1)]
    while coeffs[-1] == 0:
        coeffs.pop()
    _aberth(coeffs, z, _DOUBLE_STOP, min(_DOUBLE_SWEEPS, 1 + _DOUBLE_PAIRS // m**2))
    return z


def _root_key(c, bits):
    """Sort key: real part rounded to `bits` fractional bits, then imaginary.

    The real parts of a conjugate pair differ only by rounding noise, so
    rounding them well above it makes the pair tie on the real part and
    list its lower half-plane member first.
    """
    return (int(mp.nint(mp.ldexp(c.real, bits))), c.imag)


def find_roots(m: int, precision_bits: int = 128) -> RootSet:
    """All m zeros of E_m(x) by Aberth-Ehrlich simultaneous iteration.

    The iteration runs in two precisions through the same sweep loop
    (_aberth): first in double from a circle of radius m/2 (_double_start),
    then in mpmath at precision_bits + 64 bits from those points, until
    the relative step is below 2^-(precision_bits + 16).  Each root is then
    polished by Newton steps, and the roots are sorted by real part
    (rounded to precision_bits // 2 fractional bits) and then imaginary
    part, so each conjugate pair lists its lower member first.

    Deterministic for fixed (m, precision_bits).  Raises NoConvergence if
    the mpmath sweeps stall or run out, or if a certification check fails
    (m distinct roots, conjugate closure, residuals below tolerance).
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if precision_bits < 24:
        raise DomainError(f"need precision_bits >= 24, got {precision_bits}")
    start = _double_start(m)
    wp = precision_bits + 64
    with mp.workprec(wp):
        coeffs = [mp.mpf(1) / _fact(k) for k in range(m + 1)]
        dcoeffs = coeffs[:-1]  # derivative of E_m is E_{m-1}
        z = [mp.mpc(c) for c in start]
        stop = mp.mpf(2) ** (-(precision_bits + 16))
        converged, _ = _aberth(coeffs, z, stop, 200 + 10 * m)
        if not converged:
            raise NoConvergence(f"Aberth iteration stalled for m={m} at {precision_bits} bits")
        # per-root Newton polish at full working precision
        for i in range(m):
            for _ in range(4):
                dz = _horner(dcoeffs, z[i])
                if dz == 0:
                    break
                z[i] -= _horner(coeffs, z[i]) / dz
        z.sort(key=lambda c: _root_key(c, precision_bits // 2))
        residuals = tuple(abs(_horner(coeffs, zi)) for zi in z)
        tol = mp.mpf(10) ** (-(precision_bits // 4))
        _certify(m, precision_bits, z, residuals, tol)
        return RootSet(
            m=m,
            precision_bits=precision_bits,
            roots=tuple(z),
            residuals=residuals,
            tolerance=float(tol),
        )


def _certify(m, precision_bits, roots, residuals, tol):
    """Root-set invariants; failure means the precision was insufficient."""
    if len(roots) != m:
        raise NoConvergence(f"expected {m} roots, got {len(roots)}")
    worst = max(residuals)
    if worst >= tol:
        raise NoConvergence(
            f"residual {mp.nstr(worst, 8)} exceeds certification tolerance for m={m}"
        )
    min_dist = None
    for i in range(m):
        for j in range(i + 1, m):
            d = abs(roots[i] - roots[j])
            if min_dist is None or d < min_dist:
                min_dist = d
    if m > 1 and min_dist <= 1e-6 * m:
        raise NoConvergence(f"roots of E_{m} not pairwise distinct at this precision")
    match_tol = mp.mpf(10) ** (-(precision_bits // 8))
    for r in roots:
        if abs(r.imag) > match_tol:
            if not any(abs(mp.conj(r) - s) < match_tol * (1 + abs(r)) for s in roots):
                raise NoConvergence(f"root set of E_{m} is not closed under conjugation")


@dataclass(frozen=True)
class ClosedForm:
    """Spectral value of the limiting expected run length."""

    m: int
    value: float
    imag_residue: float  # |imaginary part| left after summation; diagnostic
    precision_bits: int
    value_str: str  # decimal expansion at working precision


def l1_closed_form(m: int, precision_bits: int = 128) -> ClosedForm:
    """Evaluate -1 - sum_i exp(-alpha_i)/alpha_i over the zeros of E_m.

    The exact value is real; the imaginary part that survives rounding is
    surfaced as imag_residue instead of being silently discarded.
    """
    rootset = find_roots(m, precision_bits)
    with mp.workprec(precision_bits + 64):
        total = mp.mpc(0)
        for a in rootset.roots:
            total += mp.exp(-a) / a
        val = -1 - total
        digits = max(17, int(precision_bits / 3.32) + 2)
        return ClosedForm(
            m=m,
            value=float(val.real),
            imag_residue=float(abs(val.imag)),
            precision_bits=precision_bits,
            value_str=mp.nstr(val.real, digits),
        )


@dataclass(frozen=True)
class PowerSumReport:
    """Direct inverse power sums of a RootSet against the exact targets."""

    m: int
    t_max: int
    sums: tuple          # complex values of sum_i alpha_i^(-t), t = 1..t_max
    targets: tuple       # exact Fractions from Newton's identities
    deviations: tuple    # |sum - target| as floats
    max_deviation: float


def power_sum_check(rootset: RootSet, t_max: int | None = None) -> PowerSumReport:
    """Compare numeric inverse power sums with the exact algebraic values.

    Defaults to t = 1..m+2, the range with closed-form targets.  The
    targets always come from Newton's identities
    (inverse_power_sums_exact), which agree with the closed forms on
    t <= m+2.
    """
    m = rootset.m
    if t_max is None:
        t_max = m + 2
    targets = inverse_power_sums_exact(m, t_max)
    with mp.workprec(rootset.precision_bits + 32):
        inv = [1 / a for a in rootset.roots]
        sums = []
        powers = [mp.mpc(1)] * m
        for _ in range(t_max):
            powers = [p * v for p, v in zip(powers, inv)]
            sums.append(sum(powers, mp.mpc(0)))
        devs = tuple(
            float(abs(s - mp.mpf(t.numerator) / t.denominator))
            for s, t in zip(sums, targets)
        )
    return PowerSumReport(
        m=m,
        t_max=t_max,
        sums=tuple(complex(s) for s in sums),
        targets=tuple(targets),
        deviations=devs,
        max_deviation=max(devs),
    )


@dataclass(frozen=True)
class ReciprocalSeries:
    """Series 1/R_m(x) = ((m+1)!/x^(m+1)) (1 + sum_{k>=1} c_k x^k).

    R_m = exp - E_m is the tail of the exponential series.  Coefficients
    are exact rationals; envelope[k] = (1/2) (2/(m+2))^k is the proven
    bound on |c_k|, valid for |x| < (m+2)/2.
    """

    m: int
    coefficients: tuple[Fraction, ...]  # c_0 .. c_K
    envelope: tuple[Fraction, ...]
    within_envelope: bool

    def as_floats(self) -> list[float]:
        return [float(c) for c in self.coefficients]


def reciprocal_series(m: int, K: int) -> ReciprocalSeries:
    """First K+1 coefficients of the normalized reciprocal tail series.

    x^(m+1)/((m+1)! R_m(x)) is the reciprocal of the power series
    1 + sum_{k>=1} (m+1)!/(m+1+k)! x^k, inverted term by term in exact
    arithmetic.  c_0 = 1 and c_1 = -1/(m+2) always.
    """
    if m < 1 or K < 0:
        raise DomainError(f"need m >= 1 and K >= 0, got m={m}, K={K}")
    a = [Fraction(_fact(m + 1), _fact(m + 1 + k)) for k in range(K + 1)]
    c = [Fraction(1)]
    for k in range(1, K + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += a[j] * c[k - j]
        c.append(-acc)
    env = [Fraction(1, 2) * Fraction(2, m + 2) ** k for k in range(K + 1)]
    ok = all(abs(ck) <= ek for ck, ek in zip(c[1:], env[1:]))
    return ReciprocalSeries(
        m=m, coefficients=tuple(c), envelope=tuple(env), within_envelope=ok
    )


@dataclass(frozen=True)
class PartitionReport:
    """Diagnostic split of the zeros by real part against gamma * m.

    The inequalities hold for sufficiently large m; at small m a False
    field is a report, not an error.
    """

    m: int
    gamma_minus: float
    gamma: float
    gamma_plus: float
    n_small: int
    n_large: int
    large_modulus_ok: bool   # |alpha| >= m e^(gamma_minus - 1) on the large side
    small_modulus_ok: bool   # |alpha| <= m e^(gamma_plus - 1) on the small side
    small_below_half: bool   # |alpha| < m/2 on the small side
    tail_sum: float          # |sum over large side of exp(-alpha)/alpha|
    tail_bound: float        # gamma^(-1) e^(-gamma m); tail_sum <= this always
    tail_ok: bool


def root_partition_diagnostic(
    rootset: RootSet,
    gamma_minus: float = 0.15,
    gamma: float = 0.22,
    gamma_plus: float = 0.29,
) -> PartitionReport:
    """Partition the zeros at real part gamma*m and test the modulus bounds.

    Requires 0 < gamma_minus < gamma < gamma_plus < 1 - log 2.  The bound
    on the large-side tail sum (tail_sum <= tail_bound) holds for every m;
    the modulus inequalities are asymptotic and may fail for small m.
    """
    if not (0 < gamma_minus < gamma < gamma_plus < 1 - math.log(2)):
        raise DomainError(
            "need 0 < gamma_minus < gamma < gamma_plus < 1 - log 2, got "
            f"({gamma_minus}, {gamma}, {gamma_plus})"
        )
    m = rootset.m
    with mp.workprec(rootset.precision_bits + 32):
        cut = gamma * m
        small = [a for a in rootset.roots if a.real <= cut]
        large = [a for a in rootset.roots if a.real > cut]
        lo = m * mp.e ** (gamma_minus - 1)
        hi = m * mp.e ** (gamma_plus - 1)
        large_ok = all(abs(a) >= lo for a in large)
        small_ok = all(abs(a) <= hi for a in small)
        below_half = all(abs(a) < mp.mpf(m) / 2 for a in small)
        tail = abs(sum((mp.exp(-a) / a for a in large), mp.mpc(0)))
        bound = mp.mpf(1) / gamma * mp.exp(-gamma * m)
    return PartitionReport(
        m=m,
        gamma_minus=gamma_minus,
        gamma=gamma,
        gamma_plus=gamma_plus,
        n_small=len(small),
        n_large=len(large),
        large_modulus_ok=bool(large_ok),
        small_modulus_ok=bool(small_ok),
        small_below_half=bool(below_half),
        tail_sum=float(tail),
        tail_bound=float(bound),
        tail_ok=bool(tail <= bound),
    )
