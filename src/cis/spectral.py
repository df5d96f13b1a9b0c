"""Spectral route to the limiting expected run length.

The limit of E[l1] over S_{m,n} as n grows equals

    -1 - sum_i exp(-alpha_i) / alpha_i

where alpha_1, ..., alpha_m are the zeros of the truncated exponential
E_m(x) = sum_{k=0..m} x^k / k!.  Expanding exp(-a)/a and using
sum_i 1/alpha_i = -1 turns it into a series in the power sums
p_j = sum_i alpha_i^j:

    sum_{k>=1} (-1)^(k+1) p_(k-1) / k!.

The monic polynomial m! E_m has the integer coefficients
c_i = m!/(m-i)! (of x^(m-i)), so Newton's identities give every p_j as an
integer, and l1_closed_form sums the series exactly in integers.  E_m
has positive coefficients a_k = 1/k! with a_k/a_(k+1) = k + 1, so by the
Enestrom-Kakeya theorem every zero has 1 <= |alpha| <= m.  Then
|p_j| <= m^(j+1), and the tail after K terms is at most
2 m^(K+1)/(K+1)! once K + 2 >= 2m: a proven error bound, with no root
solve and no floating point.

The zeros themselves, for the `roots` command and for the power-sum
check below, come from simultaneous Aberth-Ehrlich iteration in two
arithmetics: a few sweeps in IEEE double from a circle of radius m/2,
then sweeps on fixed-point Gaussian integers at the working precision
from where those stopped, on the integer polynomial m! E_m.  Each root is
certified by its exact residual: m! E_m at the dyadic point is a Gaussian
integer over a power of two, compared with the tolerance by
cross-multiplication.  The inverse power sums of the zeros obey a rigid
pattern,

    sum_i alpha_i^(-t) = -1 (t=1), 0 (2 <= t <= m), 1/m! (t=m+1),
                         -1/m! (t=m+2),

which an integer recurrence gives exactly for every t
(inverse_power_sums_exact); power_sum_check compares the fixed-point sums
of the certified zeros with it, an oracle that requires no trust in the
root finder.  Nothing here uses mpmath; the tests use it as an
independent reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError, NoConvergence, SpaceTooLarge

# l1_closed_form's caps, checked before it computes: the degree, the
# precision, and about K m, the Newton products of the K terms it sums
# (about 7 s at m = 500 and 128 bits, K = 1441, on 2 CPUs)
L1_MAX_M = 500
MAX_BITS = 8192
L1_WORK_CAP = 750_000
# find_roots' cap on m^2 (precision_bits + 64): about m^2 point-pair
# updates per sweep, each a few products of (precision_bits + 64)-bit ints
ROOTS_WORK_CAP = 7_000_000
# reciprocal_series' caps on m and K, checked before it computes: its
# Fractions grow with both, and (1000, 150) takes about 0.7 s on 2 CPUs
RECIP_MAX_M = 1000
RECIP_MAX_K = 150


def inverse_power_sums_exact(m: int, t_max: int) -> list[Fraction]:
    """Power sums s_t = sum_i alpha_i^(-t) of the reciprocals of the zeros, t = 1..t_max.

    The reciprocals are the roots of x^m + sum_{k=1..m} x^(m-k)/k!, the
    reversed E_m made monic, so Newton's identities give
    s_t = -(t/t! [t <= m] + sum_{i=1..min(t-1, m)} s_(t-i)/i!).  Times t!,
    that is an integer recurrence for q_t = t! s_t:

        q_t = -(t [t <= m] + sum_{i=1..min(t-1, m)} C(t, i) q_(t-i)),

    and s_t = q_t / t!, independent of any numerical root finding.
    """
    if m < 1 or t_max < 1:
        raise DomainError(f"need m >= 1 and t_max >= 1, got m={m}, t_max={t_max}")
    q = [0]
    out = []
    fact = 1
    for t in range(1, t_max + 1):
        acc = t if t <= m else 0
        binom = 1
        for i in range(1, min(t - 1, m) + 1):
            binom = binom * (t - i + 1) // i
            acc += binom * q[t - i]
        q.append(-acc)
        fact *= t
        out.append(Fraction(-acc, fact))
    return out


def _check_bits(precision_bits: int) -> None:
    if precision_bits < 24:
        raise DomainError(f"need precision_bits >= 24, got {precision_bits}")
    if precision_bits > MAX_BITS:
        raise SpaceTooLarge(f"precision_bits = {precision_bits} is past the cap {MAX_BITS}")


@dataclass(frozen=True)
class RootSet:
    """Certified zeros of E_m, sorted by real part, then imaginary part.

    points are the zeros (x, y), of value (x + iy)/2^frac_bits, exactly as
    the integer sweeps left them; frac_bits = precision_bits + 64.  roots
    gives them as complex doubles.  The order is decided on the points:
    their real parts are compared rounded half to even to
    precision_bits // 2 fractional bits, so each conjugate pair lists its
    lower half-plane member first.

    residuals are |E_m(alpha_i)| at the points, rounded up to about 64
    significant bits.  The certificate compares the exact residuals with
    tolerance = 10^-(precision_bits // 4), and every one is below it,
    otherwise construction fails.  Both are Fractions, so neither
    underflows at high precision.
    """

    m: int
    precision_bits: int
    frac_bits: int
    points: tuple[tuple[int, int], ...]
    residuals: tuple[Fraction, ...]
    tolerance: Fraction

    @property
    def roots(self) -> tuple[complex, ...]:
        """The zeros as complex doubles, each part correctly rounded."""
        one = 1 << self.frac_bits
        return tuple(complex(x / one, y / one) for x, y in self.points)


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


# sweeps in a row in which the largest step does not halve its smallest
# value so far before _aberth_fixed gives up; rounding noise at the
# precision floor sets new minima by less than that
_STALL_SWEEPS = 24
# the double pass stops once its largest relative step is below
# _DOUBLE_FLOOR and fails to halve, after _DOUBLE_SWEEPS sweeps, or, from
# m = 84 on, after about _DOUBLE_PAIRS point-pair updates
_DOUBLE_FLOOR = 2.0 ** -20
_DOUBLE_SWEEPS = 20
_DOUBLE_PAIRS = 2**17


def _aberth(coeffs, z, sweeps):
    """Aberth-Ehrlich sweeps in IEEE double on the complex points z, in place; returns the sweeps run.

    coeffs are the floats of a polynomial, constant term first.  Each
    sweep moves every point in turn (Gauss-Seidel order) by its Aberth
    step.  The sweeps stop after `sweeps` sweeps, or once the largest
    relative step of a sweep is below _DOUBLE_FLOOR and not below half
    that of the sweep before: the points have reached the double floor,
    where rounding noise keeps the step from falling.  Early sweeps at
    large m rise and fall between about 0.4 and 3, far above the floor.
    """
    m = len(z)
    dcoeffs = coeffs[:-1]  # derivative of E_m is E_{m-1}
    last = math.inf
    for sweep in range(1, sweeps + 1):
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
        if max_step < _DOUBLE_FLOOR and 2 * max_step >= last:
            break
        last = max_step
    return sweep


def _double_start(m):
    """Start points for the integer sweeps, from Aberth sweeps in double.

    The points start on a circle of radius m/2 (cmath), at an offset
    angle that keeps the set off the real axis and asymmetric.  The
    coefficients are 1/k! rounded to floats, which is 0.0 from k = 178 on,
    where the polynomial is cut.  The sweeps stop once the step stops
    falling below 2^-20 (_aberth), or after min(20, 1 + 2^17 // m^2)
    sweeps: the step bottoms out after about 9 sweeps at m = 12 and 20,
    and 15 at m = 40, and past m = 65 the double floor is above 2^-8, so
    large m gets a fixed budget of point-pair updates instead.  The
    arithmetic is plain IEEE double in the interpreter, with no numpy.
    """
    z = [cmath.rect(m / 2, 2 * math.pi * (k + 0.371) / m) for k in range(m)]
    coeffs = [1 / factorial(k) for k in range(m + 1)]
    while coeffs[-1] == 0:
        coeffs.pop()
    _aberth(coeffs, z, min(_DOUBLE_SWEEPS, 1 + _DOUBLE_PAIRS // m**2))
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


def _root_key(point: tuple[int, int], shift: int) -> tuple[int, int]:
    """Sort key of a fixed-point root (x, y): x rounded half to even to shift fewer bits, then y.

    The real parts of a conjugate pair differ only by rounding noise, so
    rounding them well above it makes the pair tie, and y then lists its
    lower half-plane member first.
    """
    q, r = divmod(point[0], 1 << shift)
    half = 1 << (shift - 1)
    return q + (r > half or (r == half and q & 1)), point[1]


def find_roots(m: int, precision_bits: int = 128) -> RootSet:
    """All m zeros of E_m(x) by Aberth-Ehrlich simultaneous iteration.

    The iteration runs in two arithmetics: first in double from a circle
    of radius m/2 (_double_start), then from those points on fixed-point
    Gaussian integers with p = precision_bits + 64 fractional bits
    (_aberth_fixed), until the relative step is below
    2^-(precision_bits + 16).  The fixed-point points are then sorted in
    integers by real part (rounded half to even to precision_bits // 2
    fractional bits) and then imaginary part, so each conjugate pair lists
    its lower member first, and certified in integers: each exact
    residual |E_m(alpha_i)| (_residuals) is compared with the tolerance
    by cross-multiplication (_certify).

    Deterministic for fixed (m, precision_bits).  Raises SpaceTooLarge,
    before computing, when m^2 (precision_bits + 64) is past
    ROOTS_WORK_CAP, and NoConvergence if the integer sweeps stall or run
    out, or if a certification check fails (m distinct roots, conjugate
    closure, residuals below tolerance).
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    _check_bits(precision_bits)
    p = precision_bits + 64
    if m * m * p > ROOTS_WORK_CAP:
        raise SpaceTooLarge(f"find_roots at m={m} and {precision_bits} bits costs m^2 (bits + 64) = "
                            f"{m * m * p}, past the cap {ROOTS_WORK_CAP}")
    start = _double_start(m)
    fm = factorial(m)
    cs = [fm // factorial(k) << p for k in range(m)]
    xs = [_to_fixed(c.real, p) for c in start]
    ys = [_to_fixed(c.imag, p) for c in start]
    converged, _ = _aberth_fixed(cs, xs, ys, p, precision_bits + 16, 200 + 10 * m)
    if not converged:
        raise NoConvergence(f"Aberth iteration stalled for m={m} at {precision_bits} bits")
    shift = p - precision_bits // 2
    points = sorted(zip(xs, ys), key=lambda point: _root_key(point, shift))
    values = _residuals(m, points, p)
    _certify(m, precision_bits, points, p, values)
    pm = p * m
    return RootSet(
        m=m,
        precision_bits=precision_bits,
        frac_bits=p,
        points=tuple(points),
        residuals=tuple(_residual(g, fm, pm) for g in values),
        tolerance=Fraction(1, 10 ** (precision_bits // 4)),
    )


def _residuals(m, points, p):
    """G = 2^(pm) m! E_m((x + iy)/2^p) for each point, a Gaussian integer (re, im).

    Exact Horner on m! E_m = sum_k (m!/k!) z^k, from the top: after the
    coefficient m!/k! the partial value carries the scale 2^(p(m-k)), so
    that coefficient enters shifted left by p(m-k).  Each complex product
    takes three integer products.
    """
    terms, a = [], 1
    for k in range(1, m + 1):
        a *= m - k + 1  # m!/(m-k)!
        terms.append(a << (p * k))
    out = []
    for x, y in points:
        gr, gi, xy = x + terms[0], y, x + y
        for t in terms[1:]:
            t1, t2 = gr * x, gi * y
            gr, gi = t1 - t2 + t, (gr + gi) * xy - t1 - t2
        out.append((gr, gi))
    return out


def _residual(g, fm, pm):
    """|E_m(alpha)| = |g| / (m! 2^pm) for g from _residuals, rounded up to about 64 significant bits.

    Past 64 bits both parts are shifted right by s and rounded up, so the
    result bounds the exact residual above.
    """
    s = min(pm, max(0, max(map(abs, g)).bit_length() - 64))
    a, b = (abs(g[0]) >> s) + (s > 0), (abs(g[1]) >> s) + (s > 0)
    n = a * a + b * b
    r = math.isqrt(n)
    return Fraction(r + (r * r < n), fm << (pm - s))


def _certify(m, precision_bits, points, p, values):
    """Root-set invariants; failure means the precision was insufficient.

    values are the Gaussian integers G of _residuals, and the residual
    |G| / D, D = m! 2^(pm), must be below 10^-k, k = precision_bits // 4:
    |G| 10^k < D.  That is decided exactly: |re G| + |im G| bounds |G|
    above and settles nearly every root, and |G|^2 10^(2k) < D^2 settles
    the rest.  Distinctness and
    conjugate closure are checked on the fixed-point points (x, y), of
    value (x + iy)/2^p, in integers: squared distances are compared with
    squared thresholds, and |r| enters the closure test as a floor square
    root.
    """
    if len(points) != m:
        raise NoConvergence(f"expected {m} roots, got {len(points)}")
    k = precision_bits // 4
    scale, tens = factorial(m) << (p * m), 10**k
    for gr, gi in values:
        gr, gi = abs(gr), abs(gi)
        if (gr + gi) * tens >= scale and (gr * gr + gi * gi) * tens**2 >= scale**2:
            raise NoConvergence(f"a residual is not below 1e-{k}, the certification tolerance for m={m}")
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
    """Spectral value of the limiting expected run length.

    value is the float nearest the exact partial sum, value_str its
    decimal expansion to every place on which the whole error interval
    rounds alike, and imag_residue is 0.0: the sum is real by
    construction.
    """

    m: int
    value: float
    imag_residue: float
    precision_bits: int
    value_str: str


def _series_terms(m: int, bits: int) -> int:
    """About the K at which l1_closed_form stops: the least K >= 2m - 2 with
    2 m^(K+1)/(K+1)! < 2^-bits, found by bisection on lgamma.

    K = bits + 3m + 2 always qualifies: each factor k/m of (K+1)!/m^(K+1)
    from k = 2m on is at least 2, and (2m)!/m^(2m) > (2/e)^(2m) > 2^(-0.9m).
    """
    need, log_m = (bits + 1) * math.log(2), math.log(m)
    lo, hi = 2 * m - 2, bits + 3 * m + 2
    while lo < hi:
        mid = (lo + hi) // 2
        if math.lgamma(mid + 2) - (mid + 1) * log_m > need:
            hi = mid
        else:
            lo = mid + 1
    return lo


def l1_closed_form(m: int, precision_bits: int = 128) -> ClosedForm:
    """The limit -1 - sum_i exp(-alpha_i)/alpha_i, within 2^-precision_bits.

    Sums sum_{k>=1} (-1)^(k+1) p_(k-1)/k! over the integer power sums p_j
    of the zeros of E_m, from Newton's identities on the monic integer
    polynomial m! E_m (coefficients c_i = m!/(m-i)!):

        p_0 = m,  p_j = -(j c_j [j <= m] + sum_{i=1..min(j-1, m)} c_i p_(j-i)).

    The partial sum after k terms is N_k/k! with N_k = k N_(k-1) + (-1)^(k+1) p_(k-1),
    all integers.  It stops after the first K with K + 2 >= 2m and
    2 m^(K+1)/(K+1)! < 2^-precision_bits, the proven bound on the tail
    (see the module docstring).

    Raises SpaceTooLarge, before computing, when m is past L1_MAX_M,
    precision_bits past MAX_BITS, or K m (about the Newton products) past
    L1_WORK_CAP.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    _check_bits(precision_bits)
    if m > L1_MAX_M:
        raise SpaceTooLarge(f"l1_closed_form at m={m} is past the cap {L1_MAX_M} on m")
    terms = _series_terms(m, precision_bits)
    if terms * m > L1_WORK_CAP:
        raise SpaceTooLarge(f"l1_closed_form at m={m} and {precision_bits} bits sums about {terms} terms "
                            f"of {m} products each, past the cap {L1_WORK_CAP} on their product")
    c = [1]
    for i in range(1, m + 1):
        c.append(c[-1] * (m - i + 1))
    p = [m]
    num = m  # N_1 = p_0
    k, m_pow, fact = 1, m, 1  # m^k and k!
    while True:
        m_pow, fact = m_pow * m, fact * (k + 1)
        if k + 2 >= 2 * m and (m_pow << (precision_bits + 1)) < fact:
            break
        acc = k * c[k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc += c[i] * p[k - i]
        p.append(-acc)
        k += 1
        num = num * k + (p[-1] if k & 1 else -p[-1])
    # now sum = num/k!, fact = (k+1)!, and the tail is below 2 m_pow/fact
    return ClosedForm(
        m=m,
        value=num / (fact // (k + 1)),
        imag_residue=0.0,
        precision_bits=precision_bits,
        value_str=_covered_digits(num * (k + 1), 2 * m_pow, fact, precision_bits),
    )


def _covered_digits(num: int, err: int, den: int, bits: int) -> str:
    """num/den in decimal, to the most places (at most bits log10 2) on which all of
    [(num - err)/den, (num + err)/den] rounds alike.  num/den is positive."""
    for places in range(int(bits * math.log10(2)), -1, -1):
        scale = 2 * 10**places
        lo = ((num - err) * scale + den) // (2 * den)
        if lo == ((num + err) * scale + den) // (2 * den):
            break
    digits = str(lo).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits


@dataclass(frozen=True)
class PowerSumReport:
    """Direct inverse power sums of a RootSet against the exact targets."""

    m: int
    t_max: int
    sums: tuple          # complex values of sum_i alpha_i^(-t), t = 1..t_max
    targets: tuple       # exact Fractions from inverse_power_sums_exact
    deviations: tuple    # |sum - target| as floats
    max_deviation: float


def power_sum_check(rootset: RootSet, t_max: int | None = None) -> PowerSumReport:
    """Compare the inverse power sums of the certified zeros with the exact values.

    Defaults to t = 1..m+2, the range with closed-form targets.  The
    targets always come from the integer recurrence of
    inverse_power_sums_exact, which agrees with the closed forms on
    t <= m+2.  The sums run on fixed-point Gaussian integers with the
    root set's frac_bits: each 1/alpha = conj(alpha)/|alpha|^2 is one floor
    division, and each power one floored product (|1/alpha| <= 1 by the
    Enestrom-Kakeya bound, so no power grows).
    """
    m = rootset.m
    if t_max is None:
        t_max = m + 2
    targets = inverse_power_sums_exact(m, t_max)
    q = rootset.frac_bits
    sr, si = [0] * t_max, [0] * t_max
    for x, y in rootset.points:
        norm = x * x + y * y
        ur, ui = (x << 2 * q) // norm, -((y << 2 * q) // norm)
        wr, wi = 1 << q, 0
        for t in range(t_max):
            wr, wi = (wr * ur - wi * ui) >> q, (wr * ui + wi * ur) >> q
            sr[t] += wr
            si[t] += wi
    one = 1 << q
    devs = tuple(math.hypot(float(Fraction(a, one) - target), b / one)
                 for a, b, target in zip(sr, si, targets))
    return PowerSumReport(
        m=m,
        t_max=t_max,
        sums=tuple(complex(a / one, b / one) for a, b in zip(sr, si)),
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
    arithmetic.  c_0 = 1 and c_1 = -1/(m+2) always.  Raises
    SpaceTooLarge, before computing, when m is past RECIP_MAX_M or K past
    RECIP_MAX_K.
    """
    if m < 1 or K < 0:
        raise DomainError(f"need m >= 1 and K >= 0, got m={m}, K={K}")
    if m > RECIP_MAX_M or K > RECIP_MAX_K:
        raise SpaceTooLarge(f"reciprocal_series at m={m} and K={K} is past the caps "
                            f"m <= {RECIP_MAX_M} and K <= {RECIP_MAX_K}")
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
