"""Zeta polynomials of weight-enumerator-shaped polynomials.

Given a monic-in-x homogeneous polynomial W(x, y) = x^n + sum_{i>=d} A_i
x^(n-i) y^i and an integer q >= 2, there is a unique polynomial P(T) of
degree at most n - d whose product with the generating function

    f(T) = (y(1-T) + xT)^n / ((1-T)(1-qT))

has (W - x^n)/(q-1) as its T^(n-d) coefficient.  This module computes P
in closed form from the binomial moments of W (:func:`compute_zeta`),
checks a given P against that identity on integers
(:func:`is_zeta_polynomial`, the check of ``zeta --oracle`` and
``verify-all``), and keeps a deliberately different brute-force solve of
the dense defining system (:func:`zeta_oracle`), which no command runs,
as the tests' reference for both.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import HomogeneousPoly, UniPoly, solve_linear


def min_weight_index(W: HomogeneousPoly) -> int:
    """The minimum index d of W: the smallest i >= 1 with a nonzero
    coefficient.  W must be monic in x and not x^n itself."""
    if W.nums[0] != W.den:
        raise ValueError("enumerator must be monic in x (coefficient of x^n is 1)")
    d = next((i for i in range(1, W.degree + 1) if W.nums[i]), None)
    if d is None:
        raise ValueError("W = x^n has no minimum index d and no zeta polynomial")
    return d


@dataclass(frozen=True, eq=False)
class EnumeratorContext:
    """A monic enumerator W with its degree n, minimum index d and field
    size q.  d is always inferred from W, never supplied by callers.
    Contexts compare and hash by identity."""

    W: HomogeneousPoly = field(repr=False)
    n: int = field(init=False)
    d: int = field(init=False)
    q: int = 2

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        object.__setattr__(self, "n", self.W.degree)
        object.__setattr__(self, "d", min_weight_index(self.W))


@dataclass(frozen=True)
class ZetaPolynomial:
    """The zeta polynomial P(T) together with the enumerator it came from."""

    P: UniPoly
    context: EnumeratorContext

    @property
    def g(self) -> Optional[int]:
        """genus(n, d) when the degree is even, else None."""
        ctx = self.context
        return None if ctx.n % 2 else genus(ctx.n, ctx.d)

    @functools.cached_property
    def _sign(self) -> Optional[int]:
        """functional_equation_sign, found once per zeta polynomial."""
        g = self.g
        if g is None or self.P.degree != 2 * g:
            return None
        q, p = self.context.q, self.P.nums
        qg = q ** g
        for eps in (1, -1):
            if all(q ** i * p[2 * g - i] == eps * qg * p[i] for i in range(g + 1)):
                return eps
        return None


def compute_zeta(ctx: EnumeratorContext) -> ZetaPolynomial:
    """P(T) in closed form from the binomial moments of W, on integers.

    Write y(1-T) + xT = y + (x-y)T and let c_k be the T^k coefficient of
    P(T)/((1-T)(1-qT)).  On the basis y^(n-j) (x-y)^j, the T^(n-d)
    coefficient of P(T) f(T) is C(n, j) c_(n-d-j).  With a_i the
    coefficient of x^i y^(n-i), substituting x = (x-y) + y gives
    (W - x^n)/(q-1) the coefficient b_j/(q-1) on the same basis element,
    where b_j = sum_{i=j}^{n-d} a_i C(i, j) is a binomial moment (a_i = 0
    for n-d < i < n).  Since C(n, j) != 0,

        c_(n-d-j) = b_j / ((q-1) C(n, j)),   j = 0..n-d,

    and P is unique: it is (sum_k c_k T^k)(1-T)(1-qT) cut at degree n-d,
    that is p_k = c_k - (1+q) c_(k-1) + q c_(k-2).

    The moments come from a Taylor shift: with A(s) = sum_i a_i s^i,
    A(1 + s) = sum_i a_i sum_j C(i, j) s^j = sum_j b_j s^j.  Horner's rule
    for A at 1 + s becomes, in place on the scaled integer coefficients
    of A, n-d passes in which pass i adds b_(j+1) into b_j for
    j = n-d-1 down to i (von zur Gathen & Gerhard, ISSAC 1997), so no
    binomial is formed per term.  Every c_k is then an int over one
    common denominator, that of W times (q-1) lcm_j C(n, j), and so is P.
    """
    n, q, nd = ctx.n, ctx.q, ctx.n - ctx.d
    b = [ctx.W.nums[n - i] for i in range(nd + 1)]
    for i in range(nd):
        for j in range(nd - 1, i - 1, -1):
            b[j] += b[j + 1]
    binomials = [math.comb(n, j) for j in range(nd + 1)]
    lcm = math.lcm(*binomials)
    # c[k + 2] = c_k W.den (q-1) lcm, behind c_(-2) = c_(-1) = 0
    c = [0, 0] + [b[nd - k] * (lcm // binomials[nd - k]) for k in range(nd + 1)]
    return ZetaPolynomial(UniPoly._from_ints(
        ctx.W.den * (q - 1) * lcm,
        [c[k + 2] - (1 + q) * c[k + 1] + q * c[k] for k in range(nd + 1)]), ctx)


def _series_term_polys(ctx: EnumeratorContext) -> list:
    """The T^i coefficients of f(T) for i = 0..n-d, as full degree-n
    polynomials, built from explicitly multiplied truncated power series."""
    n, q, nd = ctx.n, ctx.q, ctx.n - ctx.d
    ones = [1] * (nd + 1)
    qpow = [q ** k for k in range(nd + 1)]
    series = [sum(ones[k - j] * qpow[j] for j in range(k + 1)) for k in range(nd + 1)]
    xy = HomogeneousPoly(1, [1, -1])          # x - y
    xy_pows = [HomogeneousPoly(0, [1])]
    for _ in range(nd):
        xy_pows.append(xy_pows[-1] * xy)
    terms = []
    for i in range(nd + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for j in range(i + 1):
            scale = series[i - j] * math.comb(n, j)
            pw = xy_pows[j]
            for k2, c in enumerate(pw.coeffs):
                if c:
                    # x^(j-k2) y^k2 times y^(n-j) sits at index n-j+k2
                    coeffs[n - j + k2] += scale * c
        terms.append(HomogeneousPoly(n, coeffs))
    return terms


def zeta_oracle(ctx: EnumeratorContext) -> ZetaPolynomial:
    """Recompute P(T) by brute force, as an independent cross-check.

    Expands the truncated series product for f(T) term by term, assembles
    the dense (n-d+1) x (n-d+1) system over the monomials x^m y^(n-m) and
    solves it by generic exact elimination.  Shares no code path with
    :func:`compute_zeta` beyond the scalar types.
    """
    n, q, nd = ctx.n, ctx.q, ctx.n - ctx.d
    terms = _series_term_polys(ctx)
    A = [[terms[nd - k].coefficient(n - m) for k in range(nd + 1)]
         for m in range(nd + 1)]
    b = [Fraction(ctx.W.coefficient(n - m), q - 1) for m in range(nd + 1)]
    return ZetaPolynomial(UniPoly(solve_linear(A, b)), ctx)


def is_zeta_polynomial(ctx: EnumeratorContext, P: UniPoly) -> bool:
    """Whether P is the zeta polynomial of ctx, decided exactly on integers.

    P must have degree at most n - d, since the identity does not see its
    coefficients above T^(n-d).  At y = 1, x = t the identity reads

        sum_k P_k b_(n-d-k)(t) = (W(t, 1) - t^n)/(q-1),

    where b_i(t) is the T^i coefficient of (1 + (t-1)T)^n/((1-T)(1-qT)):
    with a_j = C(n, j)(t-1)^j, the prefix sums of a give the factor
    1/(1-T), and b_i = (a_0 + ... + a_i) + q b_(i-1) the factor 1/(1-qT).
    Exchanging the sums folds P against the series once, for all t:

        sum_i P_(n-d-i) b_i(t) = sum_j C(n, j) h_j (t-1)^j,

    with g_l = P_(n-d-l) + q g_(l+1) (so g_l = sum_(i>=l) P_(n-d-i) q^(i-l))
    and h_j = g_j + h_(j+1), from g_(n-d+1) = h_(n-d+1) = 0.  A Taylor
    shift by -1, all subtractions in place (von zur Gathen & Gerhard,
    ISSAC 1997), rewrites that sum in powers of t.  Its t^j coefficient
    must equal W_(n-j)/(q-1), W_i the x^(n-i) y^i coefficient of W, once
    both are cross-multiplied by the common denominators of P and W.  The
    test runs for j = 0..n-d only: above t^(n-d) the left side has no
    terms, and the right side vanishes as well, as W is monic with no
    index in 1..d-1.  Both sides of the identity are homogeneous of
    degree n in x and y, so agreement at y = 1 is the identity itself.
    Nothing here comes from :func:`compute_zeta`'s binomial moments of W,
    so the check stays independent of it.

    Uniqueness: the defining system, as :func:`zeta_oracle` assembles it,
    has A[m][k] = 0 for k + m > n - d and A[m][n-d-m] = C(n, m) != 0.  It
    is anti-triangular with a nonzero anti-diagonal, hence nonsingular,
    so exactly one P of degree at most n - d satisfies the identity, and
    this returns True exactly when ``zeta_oracle(ctx).P == P``.
    """
    n, q, nd = ctx.n, ctx.q, ctx.n - ctx.d
    if P.degree > nd:
        return False
    p, w = P.nums, ctx.W.nums
    # p_rev[l] = P.den P_(n-d-l) pairs with b_l; w[i] is the x^(n-i) y^i
    # coefficient of W.den W
    p_rev = (0,) * (nd + 1 - len(p)) + p[::-1]
    folded = [0] * (nd + 1)             # C(n, j) h_j, scaled by P.den
    g = h = 0
    for j in range(nd, -1, -1):
        g = p_rev[j] + q * g
        h += g
        folded[j] = math.comb(n, j) * h
    for i in range(nd):
        for j in range(nd - 1, i - 1, -1):
            folded[j] -= folded[j + 1]
    return all((q - 1) * ctx.W.den * folded[j] == P.den * w[n - j]
               for j in range(nd + 1))


def genus(n: int, d: int) -> int:
    """n/2 + 1 - d, defined only for even n."""
    if n % 2:
        raise ValueError(f"genus needs an even degree, got {n}")
    return n // 2 + 1 - d


@functools.lru_cache(typed=True)
def macwilliams_transform(W: HomogeneousPoly, q: int = 2) -> HomogeneousPoly:
    """q^(-n/2) * W(x + (q-1)y, x - y), computed on integers.

    The coefficient of x^(n-j) y^j in (x + (q-1)y)^(n-i) (x - y)^i is the
    Krawtchouk number K_j(i), the z^j coefficient of
    G(z) = (1 + (q-1)z)^(n-i) (1 - z)^i.  Comparing z^j coefficients in
    (1 + (q-1)z)(1 - z) G'(z) = ((n-i)(q-1)(1-z) - i(1 + (q-1)z)) G(z)
    gives the three-term recurrence, from K_(-1) = 0 and K_0 = 1,

        (j+1) K_(j+1)(i) = ((n-j)(q-1) + j - q i) K_j(i)
                           - (q-1)(n-j+1) K_(j-1)(i).

    Its division is exact: the right side equals (j+1) K_(j+1)(i), and
    K_(j+1)(i) is an integer, a coefficient of a product of polynomials
    with integer coefficients; scaling every K_j(i) by one integer keeps
    it so.  With W the integers a_i over its denominator den, the
    recurrence runs on a_i K_j(i) for each i in the support of W, output
    j collects sum_i a_i K_j(i), and one division by den * q^(n/2) ends
    it (MacWilliams & Sloane, ch. 5 sec. 7).

    The even-degree restriction is what makes the q^(-n/2) scale rational;
    odd degrees would need sqrt(q) and are rejected.  Cached, because the
    FWE, G8 and divisibility checks all transform the same W; typed, so a
    cached q = 2 does not let q = 2.0 through the integer check.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    n = W.degree
    if n % 2:
        raise ValueError("transform needs an even-degree polynomial")
    out = [0] * (n + 1)
    for i, a_i in enumerate(W.nums):
        if not a_i:
            continue
        prev, cur = 0, a_i          # a_i K_(j-1)(i) and a_i K_j(i)
        for j in range(n + 1):
            out[j] += cur
            prev, cur = cur, (((n - j) * (q - 1) + j - q * i) * cur
                              - (q - 1) * (n - j + 1) * prev) // (j + 1)
    return HomogeneousPoly._from_ints(W.den * q ** (n // 2), out)


def functional_equation_sign(Z: ZetaPolynomial) -> Optional[int]:
    """+1 or -1 when P satisfies a_i <-> eps * q^(g-i) * a_(2g-i) with
    deg P = 2g; None when no such symmetry holds, and for odd n, which
    has no genus.

    Decided on integers, in one pass over P scaled by one common
    denominator: a_(2g-i) = eps q^(g-i) a_i times q^i is
    q^i p_(2g-i) = eps q^g p_i.  The test at i and at 2g - i is the same
    one, so i runs to g only; at i = 0 only one eps can hold, since
    p_(2g) != 0.  The answer is kept with Z, so that the sign check of
    verify-all, its pairing check and check_rh share this one pass.
    """
    return Z._sign
