"""Verification layer: numeric root location at arbitrary precision,
modulus and pairing checks for zeta polynomial roots, exact root
multiplicities at +-1/sqrt(2), the derivative divisibility property and
the minimum-index bounds.

Everything discrete (multiplicities, divisibility, bounds) is exact;
only root moduli are numeric, at a caller-chosen binary precision with
per-root residual estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .algebra import (HomogeneousPoly, Matrix2, UniPoly, apply_diff_operator,
                      exact_divide, substitute_linear)
from .fwe import (extremal_min_index, is_formal_weight_enumerator,
                  min_weight_index)
from .zeta import ZetaPolynomial, functional_equation_sign

DEFAULT_PRECISION_BITS = 256
DEFAULT_RH_TOLERANCE = 1e-9
MAX_ITERATIONS = 1000


class RootFindingError(RuntimeError):
    """The simultaneous iteration did not converge within the cap."""


@dataclass(frozen=True)
class RootSet:
    """Numeric roots with the precision they were computed at.

    residual_bounds[k] is the relative backward error
    |P(z_k)| / sum_i |a_i| |z_k|^i, a certificate that z_k is an exact
    root of a polynomial whose coefficients differ relatively by about
    that much.
    """

    roots: tuple
    precision_bits: int
    residual_bounds: tuple
    iterations: int


def find_roots(P: UniPoly, precision_bits: int = DEFAULT_PRECISION_BITS,
               max_iterations: int = MAX_ITERATIONS) -> RootSet:
    """All complex roots of P by the Aberth-Ehrlich simultaneous iteration.

    The rational coefficients are converted at the working precision and
    iteration stops when the largest update drops below
    2^(-precision_bits/2); hitting the iteration cap first raises
    RootFindingError rather than returning unconverged values.
    """
    if P.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")
    with mp.workprec(precision_bits + 32):
        # exact roots at zero first, so the remaining constant term is nonzero
        vzero = next(i for i, c in enumerate(P.coeffs) if c)
        zeros = [mp.mpc(0)] * vzero
        c = [mp.mpf(f.numerator) / mp.mpf(f.denominator) for f in P.coeffs[vzero:]]
        deg = len(c) - 1
        roots = list(zeros)
        residuals = [mp.mpf(0)] * vzero
        iterations = 0
        if deg >= 1:
            z = _aberth_initial(c, deg)
            tol = mp.mpf(2) ** (-(precision_bits // 2))
            dc = [c[i] * i for i in range(1, deg + 1)]
            for iterations in range(1, max_iterations + 1):
                biggest = mp.mpf(0)
                for k in range(deg):
                    zk = z[k]
                    pv = c[deg]
                    for i in range(deg - 1, -1, -1):
                        pv = pv * zk + c[i]
                    if not pv:
                        continue
                    dv = dc[deg - 1]
                    for i in range(deg - 2, -1, -1):
                        dv = dv * zk + dc[i]
                    s = mp.mpc(0)
                    for j in range(deg):
                        if j != k:
                            s += 1 / (zk - z[j])
                    denom = dv - pv * s
                    step = pv / denom if denom else pv / dv
                    z[k] = zk - step
                    if abs(step) > biggest:
                        biggest = abs(step)
                if biggest < tol:
                    break
            else:
                raise RootFindingError(
                    f"no convergence after {max_iterations} iterations "
                    f"(last update {mp.nstr(biggest, 5)})")
            roots += z
            for zk in z:
                pv = c[deg]
                scale = abs(c[deg])
                az = abs(zk)
                for i in range(deg - 1, -1, -1):
                    pv = pv * zk + c[i]
                    scale = scale * az + abs(c[i])
                residuals.append(abs(pv) / scale if scale else abs(pv))
        return RootSet(tuple(roots), precision_bits, tuple(residuals), iterations)


def _aberth_initial(c, deg):
    """Starting points on a circle sized by the root-product estimate,
    rotated off the axes so symmetric configurations cannot stall."""
    r = (abs(c[0] / c[deg])) ** (mp.mpf(1) / deg)
    if not r:
        r = mp.mpf(1)
    return [r * mp.exp(mp.mpc(0, 2 * mp.pi * k / deg + mp.mpf(2) / 5))
            for k in range(deg)]


@dataclass(frozen=True)
class RhReport:
    """Do all roots have modulus 1/sqrt(q)?"""

    holds: bool
    target_modulus: float
    max_relative_deviation: float
    offending_roots: tuple
    root_set: Optional[RootSet]


def check_rh(Z: ZetaPolynomial, tolerance: float = DEFAULT_RH_TOLERANCE,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> RhReport:
    """Numerically verify that every root of P has modulus 1/sqrt(q).

    The per-root deviation is | |z| * sqrt(q) - 1 |; the report keeps the
    maximum and the offending roots.  Monotone in the tolerance, which
    must be finite and positive: with nan or inf no root could offend.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    q = Z.context.q
    target = 1 / math.sqrt(q)
    if Z.P.degree < 1:
        return RhReport(True, target, 0.0, (), None)
    rs = find_roots(Z.P, precision_bits)
    with mp.workprec(precision_bits + 32):
        sq = mp.sqrt(q)
        devs = [abs(abs(z) * sq - 1) for z in rs.roots]
        worst = max(devs)
        offending = tuple(z for z, dv in zip(rs.roots, devs) if dv > tolerance)
    return RhReport(not offending, target, float(worst), offending, rs)


def roots_pair_up(roots, q: int, tolerance: float,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> bool:
    """Greedy check that a root multiset is closed under alpha -> 1/(q*alpha).

    Roots within the tolerance of the fixed points +-1/sqrt(q) pair with
    themselves and are set aside; every other root must find a distinct
    partner within the tolerance of its image.
    """
    with mp.workprec(precision_bits + 32):
        fixed = 1 / mp.sqrt(q)
        tol = mp.mpf(tolerance)
        remaining = [mp.mpc(z) for z in roots
                     if min(abs(mp.mpc(z) - fixed), abs(mp.mpc(z) + fixed)) > tol]
        while remaining:
            alpha = remaining.pop()
            partner = 1 / (q * alpha)
            best = min(range(len(remaining)),
                       key=lambda i: abs(remaining[i] - partner), default=None)
            if best is None or abs(remaining[best] - partner) > tol:
                return False
            remaining.pop(best)
    return True


def verify_root_pairing(Z: ZetaPolynomial, root_set: RootSet,
                        tolerance: Optional[float] = None) -> bool:
    """Check that the numeric roots off +-1/sqrt(q) split into pairs
    (alpha, 1/(q*alpha)).

    root_set holds the roots of Z.P as find_roots returns them; pass the
    RhReport.root_set of check_rh to avoid solving twice.  Requires the
    functional equation with sign -1, which is what forces the pairing;
    greedy matching with the given tolerance (default 1e-6/sqrt(q)) is
    enough at the precision the roots carry.
    """
    if functional_equation_sign(Z) != -1:
        raise ValueError("root pairing applies to sign -1 zeta polynomials")
    q = Z.context.q
    if tolerance is None:
        tolerance = 1e-6 / math.sqrt(q)
    return roots_pair_up(root_set.roots, q, tolerance, root_set.precision_bits)


def _root_multiplicity(p: UniPoly, root: Fraction) -> int:
    """How many times (T - root) divides the nonzero polynomial p."""
    count = 0
    quot, rem = p.divmod_linear(root)
    while not rem:
        count += 1
        quot, rem = quot.divmod_linear(root)
    return count


def exact_sqrt2_multiplicities(P: UniPoly) -> tuple:
    """Exact multiplicities of the roots +1/sqrt(2) and -1/sqrt(2).

    For rational P the two roots are Galois conjugates, so both have the
    multiplicity m of 2T^2 - 1.  Writing P(T) = E(T^2) + T*O(T^2), the
    power (2T^2 - 1)^m divides P exactly when (2S - 1)^m divides both E
    and O, so m is the smaller multiplicity of S = 1/2 among the nonzero
    parts.  Everything stays in Q: parity statements must never depend on
    a numeric tolerance.  The zero polynomial gives (0, 0).
    """
    if P.is_zero():
        return (0, 0)
    parts = (UniPoly(P.coeffs[0::2]), UniPoly(P.coeffs[1::2]))
    m = min(_root_multiplicity(part, Fraction(1, 2))
            for part in parts if not part.is_zero())
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

    def __bool__(self):
        return self.ok


_XY = HomogeneousPoly(2, [0, 1, 0])
_X4_MINUS_Y4 = HomogeneousPoly(4, [1, 0, 0, 0, -1])
_X4_PLUS_Y4 = HomogeneousPoly(4, [1, 0, 0, 0, 1])
_X4_6X2Y2_Y4 = HomogeneousPoly(4, [1, 0, 6, 0, 1])
_DIFF_OP = _XY * _X4_MINUS_Y4               # x^5 y - x y^5


def check_divisibility(W: HomogeneousPoly) -> DivisibilityReport:
    """Divisibility of xy(x^4-y^4)(D) W by
    (xy)^(d-5) (x^4-y^4)^(d-5) (x^4+y^4) (x^4+6x^2y^2+y^4).

    Defined for formal weight enumerators with d >= 8; the divisor degree
    6(d-5)+8 then fits under the derivative degree n-6, and for extremal
    enumerators the two are closest, which is exactly what turns this
    divisibility into the minimum-index bound.
    """
    check = is_formal_weight_enumerator(W)
    if not check.ok:
        raise ValueError("divisibility check needs a formal weight enumerator: "
                         + "; ".join(check.failures))
    d = min_weight_index(W)
    if d < 8:
        raise ValueError(f"divisibility check needs d >= 8, got d = {d}")
    derivative = apply_diff_operator(_DIFF_OP, W)
    named = [
        (f"(xy)^{d - 5}", _XY ** (d - 5)),
        (f"(x^4-y^4)^{d - 5}", _X4_MINUS_Y4 ** (d - 5)),
        ("x^4+y^4", _X4_PLUS_Y4),
        ("x^4+6x^2y^2+y^4", _X4_6X2Y2_Y4),
    ]
    checks = []
    product = HomogeneousPoly(0, [1])
    for name, poly in named:
        checks.append(FactorCheck(name, poly.degree,
                                  exact_divide(derivative, poly) is not None))
        product = product * poly
    quotient = exact_divide(derivative, product)
    return DivisibilityReport(derivative, tuple(checks), quotient)


def check_operator_substitution(p: HomogeneousPoly, A: HomogeneousPoly,
                                M: Matrix2) -> bool:
    """Exact identity between differentiating after a row-convention
    substitution and substituting after transforming the operator:

        p(D)[A((x,y)M)]  ==  [ p((x,y)M^T)(D) A ]((x,y)M)

    Holds for every matrix M; used as a property-test primitive.
    """
    if p.degree > A.degree:
        raise ValueError("operator degree exceeds target degree")
    lhs = apply_diff_operator(p, substitute_linear(A, M, "row"))
    transformed = substitute_linear(p, M.transpose(), "row")
    rhs = substitute_linear(apply_diff_operator(transformed, A), M, "row")
    return lhs == rhs


@dataclass(frozen=True)
class BoundReport:
    kind: str
    n: int
    bound: int
    observed_d: Optional[int]
    tight: Optional[bool]


def mallows_sloane_bound(kind: str, n: int,
                         observed_d: Optional[int] = None) -> BoundReport:
    """Best-possible minimum-index bound per family.

    kind="type2" (degree divisible by 8): d <= 4*floor(n/24) + 4.
    kind="fwe" (degree 4 mod 8): d <= 4*floor((n-12)/24) + 4, the
    sharpened analogue; extremal enumerators attain it.
    """
    if kind == "type2":
        if n % 8 or n < 8:
            raise ValueError(f"type2 bound needs a positive degree divisible by 8, got {n}")
        bound = 4 * (n // 24) + 4
    elif kind == "fwe":
        if n % 8 != 4 or n < 12:
            raise ValueError(f"fwe bound needs degree 4 mod 8 and >= 12, got {n}")
        bound = extremal_min_index(n)
    else:
        raise ValueError(f"kind must be 'type2' or 'fwe', got {kind!r}")
    tight = None if observed_d is None else observed_d == bound
    return BoundReport(kind, n, bound, observed_d, tight)


def derivative_closed_form(W: HomogeneousPoly) -> HomogeneousPoly:
    """Evaluate xy(x^4-y^4)(D) W from the explicit coefficient formula
    valid for enumerators in symmetric half form

        W = x^n + y^n + sum_j A_{4j} (x^(n-4j) y^(4j) + x^(4j) y^(n-4j)).

    Independent of apply_diff_operator: each paired term contributes

        A_{4j} [ 4j (n-4j)_5 (x^(n-4j-5) y^(4j-1) - x^(4j-1) y^(n-4j-5))
               + (n-4j) (4j)_5 (x^(4j-5) y^(n-4j-1) - x^(n-4j-1) y^(4j-5)) ]

    with (a)_5 the falling factorial; the x^n + y^n boundary terms vanish
    because the operator's mixed partials annihilate pure powers.
    """
    n = W.degree
    if n % 8 != 4:
        raise ValueError("symmetric half form needs degree 4 mod 8")
    if W.coefficient(0) != 1 or W.coefficient(n) != 1:
        raise ValueError("symmetric half form needs x^n and y^n coefficients 1")
    if any(i % 4 for i in W.support()):
        raise ValueError("symmetric half form needs support at multiples of 4")
    if any(W.coefficient(i) != W.coefficient(n - i) for i in range(n + 1)):
        raise ValueError("symmetric half form needs palindromic coefficients")
    out = [Fraction(0)] * (n - 5)
    for j in range(1, (n - 4) // 8 + 1):
        a = W.coefficient(4 * j)
        if not a:
            continue
        c1 = 4 * j * math.perm(n - 4 * j, 5)
        if c1:
            out[4 * j - 1] += a * c1
            out[n - 4 * j - 5] -= a * c1
        c2 = (n - 4 * j) * math.perm(4 * j, 5)
        if c2:
            out[n - 4 * j - 1] += a * c2
            out[4 * j - 5] -= a * c2
    return HomogeneousPoly(n - 6, out)
