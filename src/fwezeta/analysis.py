"""Verification layer: the root modulus (Riemann hypothesis) check and
root pairing for zeta polynomials, numeric root location at arbitrary
precision, exact root multiplicities at +-1/sqrt(2), the derivative
divisibility property and the minimum-index bounds.

Everything discrete (multiplicities, pairing, divisibility, bounds) is
exact.  The root modulus check is exact too whenever a sign-change
certificate over Q succeeds; only when it does not are roots located
numerically, from the polynomial's integers alone: started in double
precision, polished on Gaussian dyadic integers at a caller-chosen
precision, and given rigorous residual bounds on integers, then made mpc.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
from mpmath import libmp

from .algebra import HomogeneousPoly, UniPoly, apply_diff_operator
from .fwe import extremal_min_index, is_formal_weight_enumerator
from .zeta import ZetaPolynomial, functional_equation_sign, min_weight_index

DEFAULT_PRECISION_BITS = 256
DEFAULT_RH_TOLERANCE = 1e-9
MAX_ITERATIONS = 1000


class RootFindingError(RuntimeError):
    """The simultaneous iteration did not converge within the cap."""


@dataclass(frozen=True)
class RootSet:
    """Numeric roots and the Aberth iteration count that found them.

    roots are mpc: from find_roots, each exactly the Gaussian dyadic that
    the polishing sweeps (_polish_sweep) left; on check_rh's reduction
    path, the roots of R mapped to those of P at precision_bits + 32.
    residual_bounds[k] is an upper bound, computed on integers at that
    precision (_residual_bound), on the relative backward error
    |P(z_k)| / sum_i |a_i| |z_k|^i of the stored z_k against the exact P
    (0 for a root at exactly 0): a certificate that z_k is an exact root
    of a polynomial whose coefficients differ relatively from P's by at
    most that much.
    """

    roots: tuple
    residual_bounds: tuple
    iterations: int


def find_roots(P: UniPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """All complex roots of P by the Aberth-Ehrlich simultaneous iteration,
    read off P's integer form: the numerators nums of N = den P, and den.

    The points start from the same iteration run in double precision
    (_aberth_double), or from a circle built on integers when double
    precision cannot hold P (_aberth_initial), and are polished on
    Gaussian dyadic integers (_polish_sweep) until, at every point z,
    both the step and the Newton correction N(z)/N'(z) are below
    2^(-precision_bits/2) |z|, decided exactly on squared moduli
    (_below).  The Newton clause stops a cluster of points that collapsed
    away from every root from passing: each of its steps is about the
    cluster's diameter, while a fixed point of the iteration has
    N(z) = 0.  The test is relative because rounding alone moves a root
    z by about |z| 2^(-precision_bits); an absolute test could never stop
    on a root of modulus 1e337.  The iteration cap raises
    RootFindingError rather than return unconverged values.  The sweeps
    round at prec = precision_bits + 32 plus _GUARD_BITS and the bits
    that the root moduli span; _residual_bound runs at prec.  The
    iteration count is the polishing sweeps', and no mp arithmetic runs
    until the polished points become mpc exactly, once, at the end.
    """
    if P.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")
    prec = precision_bits + 32
    # exact roots at zero first, so the remaining constant term is nonzero
    vzero = next(i for i, c in enumerate(P.nums) if c)
    nums = P.nums[vzero:]
    roots, residuals = [mp.mpc(0)] * vzero, [mp.mpf(0)] * vzero
    iterations = 0
    if len(nums) > 1:
        z = _aberth_double(nums, P.den) or _aberth_initial(nums)
        dnums = [i * n for i, n in enumerate(nums)][1:]
        width = prec + _GUARD_BITS + _modulus_span(nums)
        for iterations in range(1, MAX_ITERATIONS + 1):
            steps, done = _polish_sweep(nums, dnums, z, width, precision_bits // 2)
            if done:
                break
        else:
            last = mp.nstr(max(abs(_to_mpc(step)) for step in steps), 5)
            raise RootFindingError(f"no convergence after {MAX_ITERATIONS} iterations "
                                   f"(last update {last})")
        roots += [_to_mpc(zk) for zk in z]
        residuals += [_residual_bound(nums, zk, prec) for zk in z]
    return RootSet(tuple(roots), tuple(residuals), iterations)


def _aberth_sweep(c, dc, z):
    """One Aberth-Ehrlich sweep in double precision, updating the complex
    points z in place, for the float coefficients c of p and dc of p'.
    Returns the steps taken, 0 where p vanishes at the point."""
    deg = len(c) - 1
    steps = []
    for k in range(deg):
        zk = z[k]
        pv = c[deg]
        for i in range(deg - 1, -1, -1):
            pv = pv * zk + c[i]
        if not pv:
            steps.append(0)
            continue
        dv = dc[deg - 1]
        for i in range(deg - 2, -1, -1):
            dv = dv * zk + dc[i]
        s = 0
        for j in range(deg):
            if j != k:
                s += 1 / (zk - z[j])
        denom = dv - pv * s
        step = pv / denom if denom else pv / dv
        z[k] = zk - step
        steps.append(step)
    return steps


# Guard bits past the working precision of the integer kernels: the
# rounding of _polish_sweep and the fixed point of _residual_bound.
_GUARD_BITS = 16


def _polish_sweep(nums, dnums, z, width, half):
    """_aberth_sweep on Gaussian dyadics (a, b, e) = (a + bi) 2^e, for the
    ints nums of N and dnums of N', updating z in place; returns the steps
    and whether find_roots' stop test holds at every point.

    Each sum, product and quotient is taken exactly on ints and rounded
    once to nearest.  _rounded drops the k low bits of both parts, where
    the larger has width + k bits, so each part moves by at most 2^(k-1)
    against a modulus of at least 2^(width+k-1); _divided rounds each part
    of a quotient whose larger part is at least 2^width, by at most 1/2.
    Either way the result is the exact one times 1 + d, |d| <= u =
    sqrt2 2^-width: complex floating point with unit roundoff u.  So
    _horner returns sum n_i (1 + t_i) z^i at the exact point z, with
    |t_i| <= (1 + u)^(2D) - 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1): an error of about 2 D u sum |n_i| |z|^i,
    2^15 times below that of the same Horner at the working precision
    prec, as width >= prec + _GUARD_BITS.  find_roots adds the bits that
    the root moduli span (_modulus_span): near a root r, the term
    1/(z - R) in N'/N of a root R 2^span times farther out is 2^-span of
    the largest, and it is all that steers a point stranded near r out
    to R, so it must outlive the rounding.  The stop test rounds nothing
    (_below) and the points leave exactly (_to_mpc), so _residual_bound
    certifies the roots returned whatever was rounded.
    """
    steps, done = [], True
    for k, zk in enumerate(z):
        pv = _horner(nums, zk, width)
        if not (pv[0] or pv[1]):
            steps.append((0, 0, 0))
            continue
        dv = _horner(dnums, zk, width)
        s = (0, 0, 0)
        for j, zj in enumerate(z):
            if j != k:
                s = _added(s, _divided((1, 0, 0), _added(zk, zj, width, -1), width), width)
        denom = _added(dv, _multiplied(pv, s, width), width, -1)
        step = _divided(pv, denom if denom[0] or denom[1] else dv, width)
        z[k] = _added(zk, step, width, -1)
        steps.append(step)
        done = done and _below(step, z[k], half) and _below(pv, zk, half, dv)
    return steps, done


def _modulus_span(nums):
    """At least log2 of the ratio of the largest to the smallest root
    modulus of N, for the ints nums, n_0 and n_D nonzero: Fujiwara's
    bound |z| < 2 max_i |n_(D-i) / n_D|^(1/i), on N and on its reversal,
    with |n| < 2^bit_length(n) <= 2 |n|."""
    D, bits = len(nums) - 1, [abs(n).bit_length() for n in nums]
    up = max((bits[D - i] - bits[D] + 1) / i for i in range(1, D + 1) if nums[D - i])
    down = max((bits[i] - bits[0] + 1) / i for i in range(1, D + 1) if nums[i])
    return math.ceil(up + down) + 2


def _rounded(a, b, e, width):
    """(a + bi) 2^e with both parts rounded to nearest on one exponent, so
    that the larger has at most width bits (width + 1 after a carry)."""
    k = max(a.bit_length(), b.bit_length()) - width
    if k <= 0:
        return a, b, e
    half = 1 << (k - 1)
    return (a + half) >> k, (b + half) >> k, e + k


def _added(x, y, width, sign=1):
    """x + sign y, sign = +-1."""
    (a, b, e), (c, d, f) = x, (sign * y[0], sign * y[1], y[2])
    if e > f:
        (a, b, e), (c, d, f) = (c, d, f), (a, b, e)
    return _rounded(a + (c << (f - e)), b + (d << (f - e)), e, width)


def _multiplied(x, y, width):
    (a, b, e), (c, d, f) = x, y
    return _rounded(a * c - b * d, a * d + b * c, e + f, width)


def _divided(x, y, width):
    """x / y = x conj(y) / |y|^2, scaled by 2^shift so that the larger part
    is in [2^width, 2^(width+2)], each part rounded to nearest."""
    (a, b, e), (c, d, f) = x, y
    norm = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    shift = width + 1 + norm.bit_length() - max(re.bit_length(), im.bit_length())
    den, up = norm << max(-shift, 0), max(shift, 0) + 1
    return ((re << up) + den) // (2 * den), ((im << up) + den) // (2 * den), e - f - shift


def _horner(nums, z, width):
    """N(z) for the ascending ints nums, rounding each product and sum."""
    h = (nums[-1], 0, 0)
    for n in reversed(nums[:-1]):
        h = _added(_multiplied(h, z, width), (n, 0, 0), width)
    return h


def _below(x, z, half, y=(1, 0, 0)):
    """|x| < 2^-half |y| |z|, or < 2^-half |y| where z = 0, decided
    exactly on the squared moduli."""
    (xr, xi, ex), (a, b, e), (yr, yi, ey) = x, z, y
    size = a * a + b * b
    if not size:
        size, e = 1, 0
    t = 2 * (ex - e - ey + half)
    return (xr * xr + xi * xi) << max(t, 0) < size * (yr * yr + yi * yi) << max(-t, 0)


def _dyadic(z):
    """The mpc z exactly as (a, b, e), z = (a + bi) 2^e, from its mantissas
    and exponents."""
    (sa, ma, ea, _), (sb, mb, eb, _) = z._mpc_
    e = min(ea if ma else eb, eb if mb else ea)
    a = (-ma if sa else ma) << (ea - e) if ma else 0
    b = (-mb if sb else mb) << (eb - e) if mb else 0
    return a, b, e


def _to_mpc(x):
    """The Gaussian dyadic (a, b, e) exactly as an mpc."""
    a, b, e = x
    return mp.make_mpc((libmp.from_man_exp(a, e), libmp.from_man_exp(b, e)))


def _aberth_initial(nums):
    """Starting points on |z| = 2^rho, rho = log2|n_0/n_D| / D, the
    root-product estimate, rotated off the axes so symmetric
    configurations cannot stall, on integers for ends no double holds:
    point k is (round 2^(rho - e + 53) e^(i (2 pi k / D + 0.4)), e - 53)."""
    deg = len(nums) - 1
    rho = (math.log2(abs(nums[0])) - math.log2(abs(nums[-1]))) / deg
    e = math.floor(rho)                 # so 2^(rho - e + 53) is a double
    circle = [cmath.rect(2 ** (rho - e + 53), 2 * math.pi * k / deg + 0.4) for k in range(deg)]
    return [(round(x.real), round(x.imag), e - 53) for x in circle]


# The double-precision stage stops once the largest step relative to its
# point is below _DOUBLE_TOLERANCE, or once that step has not reached a
# new minimum for _DOUBLE_STALL sweeps (a multiple root, or rounding).
_DOUBLE_TOLERANCE = 1e-13
_DOUBLE_STALL = 20


def _aberth_double(nums, den):
    """Starting points for the multiprecision Aberth loop, as Gaussian
    dyadics: the same sweeps in Python complex from the same rotated
    circle, on a_i = n_i 2^t / den (n_0 and n_D nonzero), each one
    correctly rounded int division.  t = bit_length(den) - max_i
    bit_length(n_i) puts the largest |a_i| in (1/2, 2), and scaling by a
    power of two leaves the roots as they are.

    None when double precision cannot hold the problem: a nonzero
    coefficient rounds to 0, a point is not finite, or two points
    coincide.  The multiprecision loop then starts from the circle."""
    deg = len(nums) - 1
    t = den.bit_length() - max(abs(n).bit_length() for n in nums)
    a = [(n << t) / den if t >= 0 else n / (den << -t) for n in nums]
    if any(n and not ai for n, ai in zip(nums, a)):
        return None
    da = [a[i] * i for i in range(1, deg + 1)]
    r = (abs(a[0]) / abs(a[deg])) ** (1 / deg)
    z = [r * cmath.exp(1j * (2 * math.pi * k / deg + 0.4)) for k in range(deg)]
    best, stalled = math.inf, 0
    try:
        for _ in range(MAX_ITERATIONS):
            steps = _aberth_sweep(a, da, z)
            if not all(map(cmath.isfinite, z)):
                return None
            biggest = max((abs(step) / abs(zk) for step, zk in zip(steps, z) if zk),
                          default=0.0)
            if biggest < _DOUBLE_TOLERANCE:
                break
            if biggest < best:
                best, stalled = biggest, 0
            else:
                stalled += 1
                if stalled >= _DOUBLE_STALL:
                    break
    except (ZeroDivisionError, OverflowError):
        return None
    if len(set(z)) < deg:
        return None
    # x / p and y / q exactly, p and q powers of two: both on 2^-log2(p q)
    ratios = [(zk.real.as_integer_ratio(), zk.imag.as_integer_ratio()) for zk in z]
    return [(x * q, y * p, 1 - (p * q).bit_length()) for (x, p), (y, q) in ratios]


@dataclass(frozen=True)
class RhReport:
    """Do all roots have modulus 1/sqrt(q)?

    root_set is None when a sign-change count over Q proved the answer
    without locating any root (the deviation is then 0.0).
    """

    holds: bool
    target_modulus: float
    max_relative_deviation: float
    offending_roots: tuple
    root_set: Optional[RootSet]

    @property
    def certificate(self) -> str:
        """"exact" when proved over Q, "numeric" when the verdict rests
        on root_set."""
        return "exact" if self.root_set is None else "numeric"


def _divide_unit(a: list, b) -> Optional[list]:
    """The int quotient c of a = b c, for the ascending int coefficients a
    and b, b_0 = 1 and b's top nonzero, or None when b does not divide a.

    b_0 is a unit, so synthetic division runs from the bottom on ints,
    c_i = a_i - sum_(j>=1) b_j c_(i-j), over every entry of a.  The entries
    past the quotient's len(a) - deg b then hold the remainder (the first
    nonzero one exactly, as all entries below it are), so b divides a when
    they are all zero.
    """
    c = list(a)
    terms = [(j, bj) for j, bj in enumerate(b) if j and bj]
    for i in range(len(c)):
        for j, bj in terms:
            if i >= j:
                c[i] -= bj * c[i - j]
    cut = max(len(c) - len(b) + 1, 0)
    if any(c[cut:]):
        return None
    del c[cut:]
    return c


def _divide_out_quadratic(p: list, q: int) -> tuple:
    """(m, b) with p = (qT^2 - 1)^m * b and m maximal, for the ascending
    integer coefficients p of a nonzero polynomial; b is on integers too.

    1 - qT^2 has constant term 1, so _divide_unit divides it out until a
    remainder is left; as (qT^2 - 1)^m = (-1)^m (1 - qT^2)^m, b is the
    last quotient negated when m is odd.
    """
    if not any(p):
        raise ValueError("the zero polynomial has no such factorisation")
    m = 0
    while (c := _divide_unit(p, (1, 0, -q))) is not None:
        p, m = c, m + 1
    return m, [-x for x in p] if m % 2 else p


# verify-all asks for the factorisation of each P twice in a row, in the
# sqrt2 check and then in check_rh's reduction, so one entry is enough.
@functools.lru_cache(maxsize=1)
def _factorisation(P: UniPoly, q: int) -> tuple:
    """_divide_out_quadratic(P.nums, q) = (m, b)."""
    return _divide_out_quadratic(P.nums, q)


def self_reciprocal_reduction(P: UniPoly, q: int) -> tuple:
    """(m, R) with P(T) = (qT^2 - 1)^m * T^k * R(T + 1/(qT)), k = deg R.

    P must have a functional equation: deg P = 2g and
    P(T) = eps q^g T^(2g) P(1/(qT)) with eps = +-1.  Under that involution
    qT^2 - 1 has sign -1, so once its highest power is divided out the
    quotient Q has sign +1: a sign -1 quotient would vanish at
    +-1/sqrt(q), so qT^2 - 1 would divide it.  The sign +1 polynomials of
    degree 2k are exactly the Q = sum_j r_j T^(k-j) (T^2 + 1/q)^j, as
    T^k w^j = T^(k-j) (T^2 + 1/q)^j with w = T + 1/(qT).  Term j has
    leading coefficient 1 at T^(k+j), so one pass for j = k down to 0
    reads r_j off the top remaining coefficient of Q and subtracts its
    term; a nonzero residual means P has no functional equation, and
    raises ValueError.

    The pass runs on integers.  With Q = b / den (den = P.den, b from
    _divide_out_quadratic) let B = q^k b; term j, scaled alike, is
    (R_j / q^j) T^(k-j) (qT^2 + 1)^j with R_j = q^k den r_j, the top
    remaining entry B_(k+j), so it subtracts (R_j / q^j) C(j, i) q^i at
    T^(k-j+2i).  R_j / q^j is an int: B_(k+j) starts as a multiple of
    q^k, and term j' > j changes it only through i = (j + j')/2 > j, by
    a multiple of q^i.  Then r_j = R_j / (q^k den).
    """
    m, b = _factorisation(P, q)
    k = (len(b) - 1) // 2
    B = [c * q ** k for c in b]
    R = [0] * (k + 1)
    for j in range(k, -1, -1):
        R[j] = B[k + j]
        term = R[j] // q ** j           # (R_j / q^j) C(j, i) q^i at i = 0
        for i in range(j + 1):
            B[k - j + 2 * i] -= term
            term = term * (j - i) * q // (i + 1)
    if any(B):
        raise ValueError("P has no functional equation under T -> 1/(qT)")
    return m, UniPoly._from_ints(P.den * q ** k, R)


# The exact RH certificate samples R on Chebyshev grids of 2k+2 points,
# doubled this many times before it falls back to root finding; the grid
# points are dyadic rationals a / 2^_grid_bits(q).
CERTIFICATE_DOUBLINGS = 3
_GRID_BITS = 40


def _grid_bits(q: int) -> int:
    """_GRID_BITS for q < 2^16, then one more bit per factor 4 of q, so
    the interval (-2/sqrt(q), 2/sqrt(q)) always spans at least 2^34
    numerators instead of rounding to 0 once q passes 2^84."""
    return _GRID_BITS + max(0, q.bit_length() - 15) // 2


def chebyshev_grid(q: int, points: int) -> list:
    """Numerators a, ascending, of the dyadic roundings a / 2^_grid_bits(q)
    of the Chebyshev points (2/sqrt(q)) cos((2j+1) pi / (2 points)),
    keeping those with q (a / 2^bits)^2 < 4 exactly.  Only their order
    matters to the certificate, so float rounding cannot make it unsound."""
    bits = _grid_bits(q)
    scale = 2 / math.sqrt(q) * 2 ** bits
    numerators = {round(scale * math.cos((2 * j + 1) * math.pi / (2 * points)))
                  for j in range(points)}
    return sorted(a for a in numerators if q * a * a < 4 << (2 * bits))


def _certify_on_circle(R: UniPoly, q: int) -> bool:
    """True when deg R sign changes prove that R has deg R distinct real
    roots in (-2/sqrt(q), 2/sqrt(q)); False only means "not proved".

    Changes are counted along chebyshev_grid(q, points), skipping zeros,
    for points = 2k+2 doubled up to CERTIFICATE_DOUBLINGS times.  Each
    change brackets its own root of R in the interval, so the count is a
    lower bound on the distinct roots there.  Values are exact:
    den * 2^(bits k) * R(a / 2^bits) by Horner on integers, with
    bits = _grid_bits(q) and the shifts 2^(bits (k-i)) folded into r_i.
    """
    k, bits = R.degree, _grid_bits(q)
    r = [c << (bits * (k - i)) for i, c in enumerate(R.nums)]
    points = 2 * k + 2
    for _ in range(CERTIFICATE_DOUBLINGS + 1):
        changes, last = 0, 0
        for a in chebyshev_grid(q, points):
            value = r[k]
            for i in range(k - 1, -1, -1):
                value = value * a + r[i]
            sign = (value > 0) - (value < 0)
            if sign and last and sign != last:
                changes += 1
            last = sign or last
        if changes >= k:
            return True
        points *= 2
    return False


def _residual_bound(nums, z, prec):
    """An upper bound on |N(z)| / S, S = sum_i |n_i| |z|^i, for the ints
    nums = (n_0, ..., n_D) of N, n_0 and n_D nonzero, at the Gaussian
    dyadic z = (a + bi) 2^e, as an mpf rounded up at precision prec.  A
    common denominator of the n_i cancels: this is z's backward error.

    It runs on integers.  With F = prec + bit_length(D) + guard
    fractional bits, Horner H <- floor(H (a + bi) 2^e) + n_j 2^F (both
    parts floored) ends with |H - 2^F N(z)| <= sqrt2 sum_(j<D) |z|^j, as
    step j errs by less than sqrt2 and is then multiplied by z^j.  That
    sum is at most D S, because n_0 and n_D are nonzero ints: it is at
    most D |n_0| when |z| < 1, else D |n_D| |z|^D.  The same floored
    Horner on the |n_i| at r = isqrt(4^F (a^2 + b^2)) 2^(e-F) <= |z| gives
    S' <= 2^F S.  So |N(z)| / S <= ceil|H| / S' + sqrt2 D 2^-F, the value
    returned, with sqrt2 D rounded up to an int.  As r >= |z| (1 - 2^-F),
    S' >= 2^F S(r) - D S(r) and the ratio is at most 1, the value exceeds
    the ratio by less than 16 D 2^-F before the final rounding up.
    """
    deg = len(nums) - 1
    F = prec + deg.bit_length() + _GUARD_BITS
    a, b, e = z

    def floored(x, shift):          # floor(x 2^shift)
        return x << shift if shift >= 0 else x >> -shift

    hr, hi = nums[-1] << F, 0
    r = math.isqrt((a * a + b * b) << 2 * F)
    s = abs(nums[-1]) << F
    for n in reversed(nums[:-1]):
        hr, hi = floored(hr * a - hi * b, e) + (n << F), floored(hr * b + hi * a, e)
        s = floored(s * r, e - F) + (abs(n) << F)
    h2 = hr * hr + hi * hi
    ceil_h = math.isqrt(h2 - 1) + 1 if h2 else 0
    sqrt2_deg = math.isqrt(2 * deg * deg) + 1
    return mp.make_mpf(libmp.from_rational((ceil_h << F) + sqrt2_deg * s, s << F,
                                           prec, libmp.round_ceiling))


def _roots_from_reduction(P: UniPoly, q: int, m: int, R: UniPoly,
                          precision_bits: int) -> RootSet:
    """The roots of P from those of R: each root w of R gives the two
    roots alpha, 1/(q alpha) of qT^2 - qwT + 1, and +-1/sqrt(q) come m
    times each.  Residual bounds are taken against P itself."""
    rs = find_roots(R, precision_bits)
    with mp.workprec(precision_bits + 32):
        fixed = mp.mpc(1 / mp.sqrt(q))
        roots = [fixed, -fixed] * m
        for w in rs.roots:
            root = mp.sqrt(w * w - mp.mpf(4) / q)
            # the larger-modulus root first, so neither suffers cancellation
            alpha = max((w + root) / 2, (w - root) / 2, key=abs)
            roots += [alpha, 1 / (q * alpha)]
    residuals = [_residual_bound(P.nums, _dyadic(z), precision_bits + 32) for z in roots]
    return RootSet(tuple(roots), tuple(residuals), rs.iterations)


def check_rh(Z: ZetaPolynomial, tolerance: float = DEFAULT_RH_TOLERANCE,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> RhReport:
    """Decide whether every root of P has modulus 1/sqrt(q).

    When P has a functional equation (n even, sign +-1) the decision is
    made over Q first: with P = (qT^2 - 1)^m T^k R(w), w = T + 1/(qT)
    (self_reciprocal_reduction), a root has modulus 1/sqrt(q) exactly
    when its w is real with q w^2 < 4, so k sign changes of R on a
    rational grid inside that interval prove RH with no tolerance and no
    root finding (certificate "exact").  Otherwise roots are located
    numerically (certificate "numeric"): those of R, of degree k, mapped
    back to T when P has a functional equation, else those of P itself.
    The per-root deviation is | |z| * sqrt(q) - 1 |; the report keeps the
    maximum and the roots beyond the tolerance.  Monotone in the
    tolerance, which must be finite and positive (with nan or inf no root
    could offend); precision_bits must be at least 53 on either path, and
    q must fit a float, as the reported target modulus is one.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")
    q = Z.context.q
    try:
        target = 1 / math.sqrt(q)
    except OverflowError:
        raise ValueError("q is too large for a floating-point modulus") from None
    if Z.P.degree < 1:
        return RhReport(True, target, 0.0, (), None)
    if functional_equation_sign(Z) is not None:
        m, R = self_reciprocal_reduction(Z.P, q)
        if _certify_on_circle(R, q):
            return RhReport(True, target, 0.0, (), None)
        rs = _roots_from_reduction(Z.P, q, m, R, precision_bits)
    else:
        rs = find_roots(Z.P, precision_bits)
    with mp.workprec(precision_bits + 32):
        sq = mp.sqrt(q)
        devs = [abs(abs(z) * sq - 1) for z in rs.roots]
        worst = max(devs)
        offending = tuple(z for z, dv in zip(rs.roots, devs) if dv > tolerance)
    return RhReport(not offending, target, float(worst), offending, rs)


def verify_root_pairing(Z: ZetaPolynomial) -> bool:
    """Exact check that the roots of P split into pairs
    (alpha, 1/(q*alpha)), with multiplicity; +-1/sqrt(q) are the fixed
    points of that map.  Requires the functional equation with sign -1,
    the case of formal weight enumerators, and raises ValueError without it.

    The functional equation that functional_equation_sign verified exactly
    over Q is the pairing:
    - with deg P = 2g, q^g T^(2g) P(1/(qT)) has the root 1/(q*alpha) with
      the multiplicity that alpha has in P, and it equals -P;
    - P(0) != 0, because a_0 = +-q^(-g) a_(2g), so every root alpha of P
      is nonzero and 1/(q*alpha) is defined.
    So once the sign is -1 the answer is True.
    """
    if functional_equation_sign(Z) != -1:
        raise ValueError("root pairing applies to sign -1 zeta polynomials")
    return True


def exact_sqrt2_multiplicities(P: UniPoly) -> tuple:
    """Exact multiplicities of the roots +1/sqrt(2) and -1/sqrt(2).

    For rational P the two roots are Galois conjugates, so both have the
    multiplicity m of 2T^2 - 1.  m comes from _divide_out_quadratic, on
    the numerators of P, through the same _factorisation that
    check_rh's reduction reads, so verify-all divides once per degree.
    Nothing is rounded: parity statements must never depend on a numeric
    tolerance.  The zero polynomial gives (0, 0).
    """
    if P.is_zero():
        return (0, 0)
    m = _factorisation(P, 2)[0]
    return (m, m)


@dataclass(frozen=True)
class FactorCheck:
    name: str
    degree: int
    divides: bool


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the derivative divisibility property for one enumerator:
    each listed factor, and their full product, must divide
    xy(x^4 - y^4)(D) applied to W."""

    derivative: HomogeneousPoly
    factors: tuple
    quotient: Optional[HomogeneousPoly]

    @property
    def ok(self) -> bool:
        return self.quotient is not None and all(f.divides for f in self.factors)


_DIFF_OP = HomogeneousPoly(6, [0, 1, 0, 0, 0, -1, 0])      # x^5 y - x y^5
# x^4 - y^4, x^4 + y^4 and x^4 + 6x^2y^2 + y^4 at x = 1, ascending in t = y/x
_ONE_MINUS_T4 = (1, 0, 0, 0, -1)
_ONE_PLUS_T4 = (1, 0, 0, 0, 1)
_ONE_6T2_T4 = (1, 0, 6, 0, 1)


def _quotient_in_t(a: list, room: int, shift: int, divisors) -> Optional[list]:
    """The exact quotient, as room + 1 ascending ints, of the integer
    coefficients a of a homogeneous A(1, t) by t^shift times the product
    of divisors (each ascending in t with constant term 1), or None when
    that does not divide A.  room is deg A minus the homogeneous degree
    of the divisor: the power of x left for the quotient.

    t^shift divides when the lowest shift coefficients are zero, and
    dividing by it is a shift; each divisor then divides by _divide_unit.
    As in exact_divide, the quotient must also fit the room: its t-degree
    at most room, or x would not divide.
    """
    if room < 0 or any(a[:shift]):
        return None
    c = a[shift:]
    for b in divisors:
        c = _divide_unit(c, b)
        if c is None:
            return None
    if any(c[room + 1:]):
        return None
    return c[:room + 1] + [0] * (room + 1 - len(c))


def check_divisibility(W: HomogeneousPoly) -> DivisibilityReport:
    """Divisibility of xy(x^4-y^4)(D) W by
    (xy)^(d-5) (x^4-y^4)^(d-5) (x^4+y^4) (x^4+6x^2y^2+y^4).

    Defined for formal weight enumerators with d >= 8, each of which has
    this divisibility by the paper's theorem, so the check exercises it.
    The divisor degree 6(d-5)+8 then fits under the derivative degree
    n-6, leaving the quotient degree n + 16 - 6d; verify-all's bound_tight
    asks it to lie in [0, 24), so that no minimum index d + 4 could fit.

    The division runs on integers in t = y/x (_quotient_in_t): the
    derivative's int numerators, (xy)^(d-5) as the test
    that its lowest d-5 coefficients vanish and a shift, then synthetic
    division by 1 - t^4 (d-5 times), 1 + t^4 and 1 + 6t^2 + t^4, and the
    test that the quotient fits its degree.  Each factor is divided alone
    only when the full product does not divide.
    """
    check = is_formal_weight_enumerator(W)
    if not check.ok:
        raise ValueError("divisibility check needs a formal weight enumerator: "
                         + "; ".join(check.failures))
    d = min_weight_index(W)
    if d < 8:
        raise ValueError(f"divisibility check needs d >= 8, got d = {d}")
    derivative = apply_diff_operator(_DIFF_OP, W)
    a = list(derivative.nums)
    e = d - 5
    # (name, homogeneous degree, power of t, divisors in t)
    named = [
        (f"(xy)^{e}", 2 * e, e, ()),
        (f"(x^4-y^4)^{e}", 4 * e, 0, (_ONE_MINUS_T4,) * e),
        ("x^4+y^4", 4, 0, (_ONE_PLUS_T4,)),
        ("x^4+6x^2y^2+y^4", 4, 0, (_ONE_6T2_T4,)),
    ]

    def quotient(degree, shift, divisors):
        return _quotient_in_t(a, derivative.degree - degree, shift, divisors)

    full = quotient(sum(f[1] for f in named), e, sum((f[3] for f in named), ()))
    # each factor divides the product, so it is divided alone only when
    # the product does not divide
    checks = tuple(FactorCheck(name, degree, full is not None
                               or quotient(degree, shift, divisors) is not None)
                   for name, degree, shift, divisors in named)
    if full is not None:
        full = HomogeneousPoly._from_ints(derivative.den, full)
    return DivisibilityReport(derivative, checks, full)


def mallows_sloane_bound(kind: str, n: int) -> int:
    """Best-possible minimum-index bound per family.

    kind="type2" (degree divisible by 8): d <= 4*floor(n/24) + 4.
    kind="fwe" (degree 4 mod 8): d <= 4*floor((n-12)/24) + 4, the
    sharpened analogue; extremal enumerators attain it.
    """
    if kind == "type2":
        if n % 8 or n < 8:
            raise ValueError(f"type2 bound needs a positive degree divisible by 8, got {n}")
        return 4 * (n // 24) + 4
    if kind == "fwe":
        if n % 8 != 4 or n < 12:
            raise ValueError(f"fwe bound needs degree 4 mod 8 and >= 12, got {n}")
        return extremal_min_index(n)
    raise ValueError(f"kind must be 'type2' or 'fwe', got {kind!r}")
