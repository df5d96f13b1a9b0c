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

Roots are found by simultaneous Aberth-Ehrlich iteration in two
arithmetics: a few sweeps in IEEE double from a circle of radius m/2,
then sweeps on fixed-point Gaussian integers at the working precision
from where those stopped, on the integer polynomial m! E_m.  Each root is
certified by its residual |E_m(alpha_i)|, evaluated in mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from .errors import DomainError, NoConvergence


def truncated_exp(m: int) -> tuple[Fraction, ...]:
    """Coefficients of E_m(x) = sum_{k=0..m} x^k / k!, constant term first."""
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    return tuple(Fraction(1, factorial(k)) for k in range(m + 1))


def zemyan_targets(m: int) -> list[Fraction]:
    """Exact inverse power sums sum_i alpha_i^(-t) for t = 1..m+2."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    out = [Fraction(-1)]
    out.extend([Fraction(0)] * (m - 1))
    out.append(Fraction(1, factorial(m)))
    out.append(Fraction(-1, factorial(m)))
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
    e = [Fraction((-1) ** k, factorial(k)) for k in range(m + 1)]
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

    The order is decided on the fixed-point points: their real parts are
    compared rounded half to even to precision_bits // 2 fractional bits,
    so each conjugate pair lists its lower half-plane member first.

    roots are the fixed-point points the iteration stopped at, with
    precision_bits + 64 fractional bits, as exact mpmath numbers.
    residuals are |E_m(alpha_i)|, evaluated in mpmath at that working
    precision, and every one is below tolerance (10^(-precision_bits/4),
    also an mpmath number: from 1232 bits on it is below the normal
    double range),
    otherwise construction fails.
    """

    m: int
    precision_bits: int
    roots: tuple
    residuals: tuple
    tolerance: mp.mpf


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


# sweeps in a row in which the largest step does not halve its smallest
# value so far before _aberth_fixed gives up; rounding noise at the
# precision floor sets new minima by less than that
_STALL_SWEEPS = 24
# the double pass stops at this relative step, after _DOUBLE_SWEEPS sweeps,
# or, from m = 84 on, after about _DOUBLE_PAIRS point-pair updates
_DOUBLE_STOP = 2.0 ** -44
_DOUBLE_SWEEPS = 20
_DOUBLE_PAIRS = 2**17


def _aberth(coeffs, z, stop, sweeps):
    """Aberth-Ehrlich sweeps in IEEE double on the complex points z, in place.

    coeffs are the floats of a polynomial, constant term first.  Each
    sweep moves every point in turn (Gauss-Seidel order) by its Aberth
    step.  The sweeps stop after the first whose largest relative step is
    below stop, or after `sweeps` sweeps.
    """
    m = len(z)
    dcoeffs = coeffs[:-1]  # derivative of E_m is E_{m-1}
    for _ in range(sweeps):
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
            s = sum([1 / (zi - zj) for zj in z[:i] + z[i + 1:]], 0j)
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[i] = zi - step
            rel = abs(step) / max(1, abs(z[i]))
            if rel > max_step:
                max_step = rel
        if max_step < stop:
            return


def _double_start(m):
    """Start points for the integer sweeps, from Aberth sweeps in double.

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
    coeffs = [1 / factorial(k) for k in range(m + 1)]
    while coeffs[-1] == 0:
        coeffs.pop()
    _aberth(coeffs, z, _DOUBLE_STOP, min(_DOUBLE_SWEEPS, 1 + _DOUBLE_PAIRS // m**2))
    return z


def _to_fixed(v, p):
    """floor(v 2^p) for a float v, exactly."""
    num, den = v.as_integer_ratio()
    return (num << p) // den


def _horner_fixed(cs, x, y, p):
    """P'(z) and P(z) at z = (x + iy)/2^p, as (re P', im P', re P, im P).

    P = m! E_m has the integer coefficients a_k = m!/k!, and a_m = 1, so
    P' = sum_{j<m} a_j z^j and P = P' + z^m.  cs holds a_0 .. a_(m-1),
    each shifted left by p.  P' is one Horner pass and z^m is taken by
    repeated squaring; every product is floored to p fractional bits, so
    the results are in the same fixed point as z.
    """
    ar, ai = cs[-1], 0
    for c in cs[-2::-1]:
        ar, ai = ((ar * x - ai * y) >> p) + c, (ar * y + ai * x) >> p
    rr, ri = 1 << p, 0
    k = len(cs)
    while True:
        if k & 1:
            rr, ri = (rr * x - ri * y) >> p, (rr * y + ri * x) >> p
        k >>= 1
        if not k:
            return ar, ai, ar + rr, ai + ri
        x, y = (x * x - y * y) >> p, (x * y) >> (p - 1)


def _aberth_fixed(cs, xs, ys, p, stop_bits, max_sweeps):
    """Aberth-Ehrlich sweeps on the points (xs[i] + i ys[i])/2^p, in place.

    The sweep of _aberth, run on Python ints: the polynomial is m! E_m
    (_horner_fixed), and every quotient is a floor division by a squared
    modulus.  A step's size relative to max(1, |z|) is bounded by bit
    lengths: it is below 2^e, with

        e = bitlen(max(|re step|, |im step|)) - bitlen(max(|x|, |y|, 2^p)) + 2,

    and the sweeps have converged once the largest e of a sweep is at most
    -stop_bits.

    Returns (converged, sweeps): converged is True once the sweeps have
    converged, and False when max_sweeps run out or the largest e has not
    fallen by one below its smallest value so far for _STALL_SWEEPS
    sweeps in a row.
    """
    m = len(xs)
    one, p3 = 1 << p, 3 * p
    best = math.inf
    since_best = 0
    for sweep in range(1, max_sweeps + 1):
        worst = -math.inf
        for i in range(m):
            xi, yi = xs[i], ys[i]
            dr, di, pr, pi = _horner_fixed(cs, xi, yi, p)
            norm = dr * dr + di * di
            if norm == 0:
                xs[i] = xi + (one + math.isqrt(xi * xi + yi * yi)) // 1000
                worst = math.inf
                continue
            # w = P/P' and s = sum_{j != i} 1/(z_i - z_j)
            wr = ((pr * dr + pi * di) << p) // norm
            wi = ((pi * dr - pr * di) << p) // norm
            sr = si = 0
            for j in range(m):
                if j != i:
                    ex, ey = xi - xs[j], yi - ys[j]
                    inv = (1 << p3) // (ex * ex + ey * ey)
                    sr += ex * inv
                    si -= ey * inv
            sr >>= p
            si >>= p
            # step = w / (1 - w s)
            tr = one - ((wr * sr - wi * si) >> p)
            ti = -((wr * si + wi * sr) >> p)
            norm = tr * tr + ti * ti
            if norm:
                wr, wi = ((wr * tr + wi * ti) << p) // norm, ((wi * tr - wr * ti) << p) // norm
            xi -= wr
            yi -= wi
            xs[i], ys[i] = xi, yi
            e = max(abs(wr), abs(wi)).bit_length() - max(abs(xi), abs(yi), one).bit_length() + 2
            if e > worst:
                worst = e
        if worst <= -stop_bits:
            return True, sweep
        if worst <= best - 1:
            best, since_best = worst, 0
        else:
            since_best += 1
            if since_best >= _STALL_SWEEPS:
                return False, sweep
    return False, max_sweeps


def find_roots(m: int, precision_bits: int = 128) -> RootSet:
    """All m zeros of E_m(x) by Aberth-Ehrlich simultaneous iteration.

    The iteration runs in two arithmetics: first in double from a circle
    of radius m/2 (_double_start), then from those points on fixed-point
    Gaussian integers with p = precision_bits + 64 fractional bits
    (_aberth_fixed), until the relative step is below
    2^-(precision_bits + 16).  The fixed-point points are then sorted in
    integers by real part (rounded half to even to precision_bits // 2
    fractional bits) and then imaginary part, so each conjugate pair lists
    its lower member first, and converted to mpmath once, in that order.
    mpmath, as a second arithmetic, evaluates the residuals
    |E_m(alpha_i)|.

    Deterministic for fixed (m, precision_bits).  Raises NoConvergence if
    the integer sweeps stall or run out, or if a certification check fails
    (m distinct roots, conjugate closure, residuals below tolerance).
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if precision_bits < 24:
        raise DomainError(f"need precision_bits >= 24, got {precision_bits}")
    start = _double_start(m)
    p = precision_bits + 64
    fm = factorial(m)
    cs = [fm // factorial(k) << p for k in range(m)]
    xs = [_to_fixed(c.real, p) for c in start]
    ys = [_to_fixed(c.imag, p) for c in start]
    converged, _ = _aberth_fixed(cs, xs, ys, p, precision_bits + 16, 200 + 10 * m)
    if not converged:
        raise NoConvergence(f"Aberth iteration stalled for m={m} at {precision_bits} bits")
    # the real parts of a conjugate pair differ only by rounding noise, so
    # rounding them (half to even) well above it to precision_bits // 2
    # fractional bits makes the pair tie there, and y then lists its lower
    # half-plane member first
    shift = p - precision_bits // 2
    half = 1 << (shift - 1)

    def key(point):
        q, r = divmod(point[0], 1 << shift)
        return q + (r > half or (r == half and q & 1)), point[1]

    points = sorted(zip(xs, ys), key=key)
    # at a precision that holds every coordinate exactly
    with mp.workprec(max(abs(v).bit_length() for v in xs + ys) + 1):
        z = [mp.mpc(mp.mpf((x, -p)), mp.mpf((y, -p))) for x, y in points]
    with mp.workprec(p):
        residuals = _residuals(m, z)
        tol = mp.mpf(10) ** (-(precision_bits // 4))
        _certify(m, precision_bits, points, p, residuals, tol)
    return RootSet(
        m=m,
        precision_bits=precision_bits,
        roots=tuple(z),
        residuals=residuals,
        tolerance=tol,
    )


def _residuals(m, roots):
    """|E_m(alpha)| for each root, in mpmath at the current working precision."""
    coeffs = [mp.mpf(1) / factorial(k) for k in range(m + 1)]
    return tuple(abs(_horner(coeffs, a)) for a in roots)


def _certify(m, precision_bits, points, p, residuals, tol):
    """Root-set invariants; failure means the precision was insufficient.

    residuals are mpmath numbers.  Distinctness and conjugate closure are
    checked on the fixed-point points (x, y), of value (x + iy)/2^p, in
    integers: squared distances are compared with squared thresholds, and
    |r| enters the closure test as a floor square root.
    """
    if len(points) != m:
        raise NoConvergence(f"expected {m} roots, got {len(points)}")
    worst = max(residuals)
    if worst >= tol:
        raise NoConvergence(
            f"residual {mp.nstr(worst, 8)} exceeds certification tolerance for m={m}"
        )
    if m > 1:
        # min |r_i - r_j| <= 1e-6 m, as an exact inequality of squares
        num, den = (1e-6 * m).as_integer_ratio()
        closest = min(
            (xi - xj) ** 2 + (yi - yj) ** 2
            for i, (xi, yi) in enumerate(points)
            for xj, yj in points[i + 1:]
        )
        if closest * den**2 <= (num << p) ** 2:
            raise NoConvergence(f"roots of E_{m} not pairwise distinct at this precision")
    # |im r| > 10^-k needs some s with |conj(r) - s| < 10^-k (1 + |r|)
    scale = 10 ** (precision_bits // 8)
    for x, y in points:
        if abs(y) * scale > 1 << p:
            reach = ((1 << p) + math.isqrt(x * x + y * y)) ** 2
            if not any(((x - sx) ** 2 + (y + sy) ** 2) * scale**2 < reach for sx, sy in points):
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
    a = [Fraction(factorial(m + 1), factorial(m + 1 + k)) for k in range(K + 1)]
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
