"""Exact arithmetic over Q: one dense polynomial core shared by
homogeneous bivariate and univariate polynomials, linear substitution,
differential operators, exact division and an exact linear solver.

Every value is immutable and every operation is exact; nothing in this
module ever rounds.  Scalars are ints and ``fractions.Fraction``s; no
irrational number is ever needed, because every identity the package
checks has a rational form.  Both polynomial shapes are a coefficient
vector under the same product (index i times index j lands at i + j),
so :class:`_DensePoly` carries the arithmetic once and each shape adds
only its constructor, its addition rule and its helpers.

A polynomial holds its vector in one integer form: an int ``den > 0``
and int numerators ``nums``, entry i being nums[i] / den, with
gcd(den, *nums) == 1.  The form is unique: two such pairs of one vector
give den' nums = den nums', and as each den is prime to its own nums,
den divides den' and den' divides den.  So den is the least common
multiple of the reduced denominators, equality compares (den, nums), and
every kernel of the package reads and builds this form on ints.  The
Fraction vector ``coeffs`` is derived from it on request.  The product
is :func:`_convolve` on ints, the one the extremal builder also runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Mapping, Optional, Sequence


class SingularMatrixError(ValueError):
    """Raised when an exact linear system has no unique solution."""


def _as_scalar(value):
    """value itself, an int or a Fraction: both have a numerator and a
    denominator, so neither needs converting."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def _convolve(a: Sequence[int], b: Sequence[int]) -> tuple:
    """The product of two int coefficient vectors, on ints."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


class _DensePoly:
    """Immutable dense coefficient vector, held as ``nums`` over ``den``
    in the module's integer form, with the arithmetic both polynomial
    shapes share.  The public constructors take a rational vector and
    every result is built by ``_from_ints(den, nums)``, so each subclass
    applies its own shape rule to both; values of different subclasses
    never compare equal or combine."""

    __slots__ = ("den", "nums")

    def _set(self, den: int, nums) -> None:
        """Hold nums / den, for a nonzero int den and int nums, in lowest
        terms with den > 0."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "nums", tuple(c // g for c in nums)
                           if g != 1 else tuple(nums))

    def _set_rational(self, coeffs) -> None:
        """Hold the vector of ints and Fractions coeffs, scaled by the
        least common multiple of its denominators."""
        coeffs = [_as_scalar(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set(den, [c.numerator * (den // c.denominator) for c in coeffs])

    @classmethod
    def _from_ints(cls, den: int, nums):
        """The polynomial with the vector nums / den."""
        poly = object.__new__(cls)
        poly._set(den, nums)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple:
        """The vector as Fractions, built on each read."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, i: int):
        """Entry i of the vector (zero outside the index range)."""
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _sum(self, other):
        """self + other on ints, the shorter vector padded with zeros."""
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return self._from_ints(den, [a * sa + b * sb for a, b in
                                     zip_longest(self.nums, other.nums, fillvalue=0)])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._from_ints(self.den, [-c for c in self.nums])

    def __mul__(self, other):
        if type(other) is type(self):
            return self._from_ints(self.den * other.den,
                                   _convolve(self.nums, other.nums))
        try:
            s = _as_scalar(other)
        except TypeError:
            return NotImplemented
        return self._from_ints(self.den * s.denominator,
                               [c * s.numerator for c in self.nums])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = self._from_ints(1, [1])
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))


class HomogeneousPoly(_DensePoly):
    """Dense homogeneous bivariate polynomial of fixed nominal degree.

    ``coeffs[i]`` is the coefficient of x^(n-i) * y^i, so the vector has
    exactly ``degree + 1`` entries.  The degree is nominal: a zero
    polynomial keeps the degree it was created with, which preserves
    shape information for derivatives and quotients.
    """

    __slots__ = ()

    def __init__(self, degree: int, coeffs: Iterable):
        coeffs = tuple(coeffs)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if len(coeffs) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(coeffs)}")
        self._set_rational(coeffs)

    @classmethod
    def from_sparse(cls, degree: int, entries: Mapping[int, object]) -> "HomogeneousPoly":
        coeffs = [0] * (degree + 1)
        for i, c in entries.items():
            if not 0 <= i <= degree:
                raise ValueError(f"coefficient index {i} outside 0..{degree}")
            coeffs[i] = c
        return cls(degree, coeffs)

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.nums) if c)

    def __add__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(
                f"cannot add degree {self.degree} and degree {other.degree}")
        return self._sum(other)

    def __repr__(self):
        return f"HomogeneousPoly({self.degree}, {list(self.coeffs)!r})"

    def __str__(self):
        n = self.degree
        out = ""
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            xs = f"x^{n - i}" if n - i > 1 else ("x" if n - i == 1 else "")
            ys = f"y^{i}" if i > 1 else ("y" if i == 1 else "")
            mono = "*".join(p for p in (xs, ys) if p)
            size = abs(c)
            term = (f"{size}*{mono}" if size != 1 else mono) if mono else str(size)
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            out += term
        return out or "0"


class UniPoly(_DensePoly):
    """Univariate polynomial with ascending coefficients, kept canonical
    (no trailing zero coefficients; the zero polynomial is the empty
    vector and reports degree -1)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        self._set_rational(coeffs)

    def _set(self, den: int, nums) -> None:
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        super()._set(den, nums)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._sum(other)

    def __divmod__(self, other):
        """Long division: (quotient, remainder) with
        self == other * quotient + remainder and deg remainder < deg other."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        b, rem, top = other.coeffs, list(self.coeffs), other.degree
        quot = [Fraction(0)] * max(len(rem) - top, 0)
        for k in range(len(quot) - 1, -1, -1):
            quot[k] = coef = rem[k + top] / b[top]
            if coef:
                # this term cancels rem[k + top] exactly; only lower entries change
                for j in range(top):
                    rem[k + j] -= coef * b[j]
        return UniPoly(quot), UniPoly(rem[:top])

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix (a b; c d) with rational entries."""

    a: object
    b: object
    c: object
    d: object


def substitute_linear(W: HomogeneousPoly, M: Matrix2) -> HomogeneousPoly:
    """W(a*x + b*y, c*x + d*y), exactly: the column action of M.

    Composes as substitute_linear(substitute_linear(W, M), N) ==
    substitute_linear(W, MN), MN the matrix product.
    """
    u = HomogeneousPoly(1, [M.a, M.b])
    v = HomogeneousPoly(1, [M.c, M.d])
    n, c = W.degree, W.coeffs
    # Horner over the coefficient index: result = sum_i c_i u^(n-i) v^i
    acc = HomogeneousPoly(0, [c[0]])
    vpow = HomogeneousPoly(0, [1])
    for i in range(1, n + 1):
        vpow = vpow * v
        acc = acc * u + vpow * c[i]
    return acc


def apply_diff_operator(p: HomogeneousPoly, W: HomogeneousPoly) -> HomogeneousPoly:
    """Apply the constant-coefficient differential operator obtained from p
    by substituting d/dx for x and d/dy for y.

    Each monomial coefficient picks up the exact falling-factorial factors
    of repeated partial differentiation; the result is homogeneous of
    degree deg W - deg p.
    """
    if p.degree > W.degree:
        raise ValueError(
            f"operator degree {p.degree} exceeds target degree {W.degree}")
    n, m = W.degree, W.degree - p.degree
    out = [0] * (m + 1)
    for i, pc in enumerate(p.nums):
        if not pc:
            continue
        dx, dy = p.degree - i, i
        for k, wc in enumerate(W.nums):
            if not wc:
                continue
            if n - k < dx or k < dy:
                continue
            out[k - dy] += pc * wc * math.perm(n - k, dx) * math.perm(k, dy)
    return HomogeneousPoly._from_ints(p.den * W.den, out)


def exact_divide(A: HomogeneousPoly, B: HomogeneousPoly) -> Optional[HomogeneousPoly]:
    """Exact quotient Q with A = B*Q, or None when B does not divide A.

    ``coeffs[i]`` multiplies x^(n-i) y^i, so the vector is W(1, t) in
    ascending powers of t = y/x.  With k = deg A - deg B, B divides A
    exactly when k >= 0, B(1, t) divides A(1, t), and that quotient has
    t-degree at most k, the room left for the power of x.
    """
    if B.is_zero():
        raise ValueError("division by the zero polynomial")
    k = A.degree - B.degree
    quot, rem = divmod(UniPoly._from_ints(A.den, A.nums),
                       UniPoly._from_ints(B.den, B.nums))
    if k < 0 or not rem.is_zero() or quot.degree > k:
        return None
    return HomogeneousPoly._from_ints(quot.den, quot.nums + (0,) * (k - quot.degree))


def solve_linear(A: Sequence[Sequence], b: Sequence) -> list:
    """Solve A x = b exactly over the rationals by Gaussian elimination.

    Pivots on the first nonzero entry of each column (magnitude-based
    pivoting is meaningless over an exact field).  Raises
    SingularMatrixError when the matrix is singular; never approximates.
    """
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(f"singular matrix (column {col})")
        M[col], M[piv] = M[piv], M[col]
        pivval = M[col][col]
        M[col] = [e / pivval for e in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [er - f * ec for er, ec in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]
