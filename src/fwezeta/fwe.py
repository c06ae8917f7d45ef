"""Formal weight enumerators: the rational part of the invariant ring of
the complex reflection group G8, generated by

    W8  = x^8 + 14 x^4 y^4 + y^8        (transform-invariant)
    W12 = x^12 - 33 x^8 y^4 - 33 x^4 y^8 + y^12   (transform-anti-invariant)

A formal weight enumerator is a monic combination W8^s W12^(2t+1) (or a
linear combination of those of equal degree): supported on indices
divisible by 4 and negated by the binary MacWilliams transform.  The
extremal one of each degree maximizes the first nonzero index d.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from .algebra import HomogeneousPoly, _convolve
from .files import MAX_DEGREE
from .zeta import macwilliams_transform, min_weight_index

# Every basis element is supported on indices divisible by 4, so it is
# kept as a polynomial in u = (y/x)^4: entry j of these int tuples is the
# coefficient of x^(n-4j) y^(4j), and the length fixes the degree.
_W8_U = (1, 14, 1)
_W12_U = (1, -33, -33, 1)
# W24' = x^4 y^4 (x^4 - y^4)^4 = u (1 - u)^4, equal to (W8^3 - W12^2)/108
_W24_U = (0, 1, -4, 6, -4, 1, 0)


def _spread(u: Sequence[int]) -> HomogeneousPoly:
    """The HomogeneousPoly with u[j] at index 4j."""
    coeffs = [0] * (4 * len(u) - 3)
    coeffs[::4] = u
    return HomogeneousPoly(len(coeffs) - 1, coeffs)


W8 = _spread(_W8_U)
W12 = _spread(_W12_U)


@lru_cache(maxsize=None)
def _power(w: tuple, k: int) -> tuple:
    return _convolve(_power(w, k - 1), w) if k else (1,)


def _triangular_basis(a: int, j: int) -> tuple:
    """B_j = W12 W8^(a-3j) W24'^j in u, of degree 8a + 12: it starts at
    u^j with coefficient 1."""
    return _convolve(_convolve(_W12_U, _power(_W8_U, a - 3 * j)),
                     _power(_W24_U, j))


@dataclass(frozen=True)
class FweBasisElement:
    """The product W8^s * W12^(2t+1)."""

    s: int
    t: int

    def __str__(self):
        w8 = "" if not self.s else ("W8*" if self.s == 1 else f"W8^{self.s}*")
        k = 2 * self.t + 1
        return f"{w8}W12^{k}" if k > 1 else f"{w8}W12"


@dataclass(frozen=True)
class FweCheck:
    """Verdict of the two defining conditions, with reasons on failure."""

    support_multiple_of_4: bool
    anti_invariant: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SymmetryReport:
    """Structural consequences every formal weight enumerator satisfies:
    degree congruent to 4 mod 8, an even number of terms, and symmetry
    under swapping x and y."""

    degree_mod_8_is_4: bool
    term_count_even: bool
    swap_symmetric: bool

    @property
    def ok(self) -> bool:
        return (self.degree_mod_8_is_4 and self.term_count_even
                and self.swap_symmetric)


@dataclass(frozen=True)
class FweCombination:
    """A monic linear combination of basis elements of one degree."""

    degree: int
    terms: tuple            # ((FweBasisElement, Fraction), ...)
    expanded: HomogeneousPoly
    d: int


def is_formal_weight_enumerator(W: HomogeneousPoly) -> FweCheck:
    """Check both defining conditions exactly.

    Condition one: nonzero coefficients only at indices divisible by 4.
    Condition two: the binary MacWilliams transform negates W.  The input
    must be monic in x and have rational coefficients.
    """
    failures = []
    if W.nums[0] != W.den:
        failures.append("not monic in x")
    support_ok = all(i % 4 == 0 for i in W.support())
    if not support_ok:
        failures.append("support contains an index not divisible by 4")
    if W.degree % 2:
        anti = False
        failures.append("odd degree (transform undefined)")
    else:
        anti = macwilliams_transform(W, 2) == -W
        if not anti:
            failures.append("transform does not negate W")
    return FweCheck(support_ok, anti, tuple(failures))


def symmetry_checks(W: HomogeneousPoly) -> SymmetryReport:
    return SymmetryReport(W.degree % 8 == 4, len(W.support()) % 2 == 0,
                          W.nums == W.nums[::-1])


def check_invariance_g8(W: HomogeneousPoly) -> bool:
    """Exact invariance of W under both generators of G8, decided over Q.

    The column-convention generators are sigma_2 = diag(-i, 1) and
    sigma_1 = h*(1 -1; 1 1) with h = (1 - i)/2.  sigma_2 scales the
    coefficient at index k by (-i)^(n-k), so it fixes W exactly when
    4 | n - k for every k in the support.  sigma_1 maps W to
    h^n W(x - y, x + y); as h^2 = -i/2, h^n is rational only when 4 | n,
    and then equals (-1)^(n/4) 2^(-n/2).  On that support every k is
    even, so W(x - y, x + y) is the binary MacWilliams substitution
    W(x + y, x - y) with y -> -y, and sigma_1 fixes W exactly when the
    transform is (-1)^(n/4) W.  The zero polynomial is invariant.
    """
    if W.is_zero():
        return True
    n = W.degree
    return (n % 4 == 0
            and all((n - k) % 4 == 0 for k in W.support())
            and macwilliams_transform(W, 2) == W * (-1) ** (n // 4))


def enumerate_basis(n: int) -> list:
    """All basis elements W8^s W12^(2t+1) of degree n, largest s first.

    Empty for n not congruent to 4 mod 8 or n < 12; the count is
    floor((n - 12)/24) + 1 otherwise.
    """
    if n % 8 != 4 or n < 12:
        return []
    a = (n - 12) // 8
    return [FweBasisElement(a - 3 * t, t) for t in range(a // 3 + 1)]


def extremal_min_index(n: int) -> int:
    """The largest d attainable at degree n: 4*floor((n-12)/24) + 4."""
    return 4 * ((n - 12) // 24) + 4


def build_extremal(n: int) -> FweCombination:
    """Construct the extremal formal weight enumerator of degree n.

    With a = (n - 12)/8 and m = (n - 12)//24, take B_j = W12 W8^(a-3j)
    W24'^j, j = 0..m.  As W24' = u (1 - u)^4 in u = (y/x)^4, B_j starts at
    u^j with coefficient 1 (Mallows & Sloane 1973), so the m + 1 of them
    are a basis of the degree-n space in which the extremal conditions
    {coefficient of u^0 = 1; of u^j = 0 for j = 1..m} are unitriangular.
    Back substitution solves them on ints: c_0 = 1, then c_j = -(u^j
    coefficient of c_0 B_0 + ... + c_(j-1) B_(j-1)).  The minimum index is
    checked against the bound.  The terms name the W8^s W12^(2t+1) basis:
    as W24'^j = 108^(-j) (W8^3 - W12^2)^j, B_j = 108^(-j) sum_i C(j, i)
    (-1)^i W8^(a-3i) W12^(2i+1), so W8^(a-3i) W12^(2i+1) has coefficient
    (-1)^i sum_(j >= i) C(j, i) c_j / 108^j.  Degrees above
    files.MAX_DEGREE, which no file could carry, are refused.
    """
    if n % 8 != 4 or n < 12:
        raise ValueError(f"no formal weight enumerators of degree {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the file limit {MAX_DEGREE}")
    a, m = (n - 12) // 8, (n - 12) // 24
    total, cs = [0] * (n // 4 + 1), []
    for j in range(m + 1):
        cs.append((j == 0) - total[j])
        for k, b in enumerate(_triangular_basis(a, j)):
            total[k] += cs[j] * b
    expanded = _spread(total)
    d = min_weight_index(expanded)
    expected = extremal_min_index(n)
    if d != expected:
        raise ArithmeticError(
            f"extremal construction at degree {n} reached d={d}, expected {expected}")
    coeffs = [Fraction((-1) ** i * sum(comb(j, i) * cs[j] * 108 ** (m - j)
                                       for j in range(i, m + 1)), 108 ** m)
              for i in range(m + 1)]
    return FweCombination(n, tuple(zip(enumerate_basis(n), coeffs)), expanded, d)
