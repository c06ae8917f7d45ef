"""Reference identities from the paper that test the package but that no
command runs: W24' = (W8^3 - W12^2)/108, the operator-substitution
identity behind the transformation rule of p(D), and the closed-form
coefficient formula for xy(x^4 - y^4)(D) W, an oracle for
``apply_diff_operator``; and the scaler by which reference kernels reach
integers from ``coeffs``, never from the integer form they check."""
import math
from fractions import Fraction

from fwezeta.algebra import (HomogeneousPoly, Matrix2, apply_diff_operator,
                             substitute_linear)


def scaled_to_integers(coeffs) -> tuple:
    """(den, [den * c for c in coeffs]) with den the least common
    denominator of the Fractions coeffs (1 when there are none)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


# W24' = x^4 y^4 (x^4 - y^4)^4, equal to (W8^3 - W12^2)/108
W24_PRIME = HomogeneousPoly.from_sparse(24, {4: 1, 8: -4, 12: 6, 16: -4, 20: 1})


def check_operator_substitution(p: HomogeneousPoly, A: HomogeneousPoly,
                                M: Matrix2) -> bool:
    """Exact identity between differentiating after a row-convention
    substitution and substituting after transforming the operator:

        p(D)[A((x,y)M)]  ==  [ p((x,y)M^T)(D) A ]((x,y)M)

    Holds for every matrix M; used as a property-test primitive.
    """
    if p.degree > A.degree:
        raise ValueError("operator degree exceeds target degree")
    row = Matrix2(M.a, M.c, M.b, M.d)     # (x,y)M is the column action of M^T
    lhs = apply_diff_operator(p, substitute_linear(A, row))
    transformed = substitute_linear(p, M)
    rhs = substitute_linear(apply_diff_operator(transformed, A), row)
    return lhs == rhs


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
