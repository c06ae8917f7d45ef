import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwezeta.algebra import (HomogeneousPoly, Matrix2, SingularMatrixError,
                             UniPoly, apply_diff_operator, exact_divide,
                             solve_linear, substitute_linear)
from fwezeta.fwe import W8, W12

F = Fraction


def rand_poly(rng, degree, span=9):
    return HomogeneousPoly(
        degree, [F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(degree + 1)])


class TestPolyArithmetic:
    def test_add_cancellation(self):
        p = HomogeneousPoly(2, [1, 0, 1])    # x^2 + y^2
        q = HomogeneousPoly(2, [1, 0, -1])   # x^2 - y^2
        assert p + q == HomogeneousPoly(2, [2, 0, 0])

    def test_w8_square_coefficient(self):
        sq = W8 * W8
        assert sq.degree == 16
        assert sq.coefficient(4) == 28      # x^12 y^4 term of (x^8+14x^4y^4+y^8)^2

    def test_scale_by_zero(self):
        z = W12 * 0
        assert z.degree == 12 and z.is_zero()

    def test_add_degree_mismatch(self):
        with pytest.raises(ValueError):
            W8 + W12

    def test_distributivity_random(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rand_poly(rng, rng.randint(0, 4))
            q = rand_poly(rng, p.degree)
            r = rand_poly(rng, rng.randint(0, 4))
            assert (p + q) * r == p * r + q * r

    def test_power(self):
        assert W8 ** 0 == HomogeneousPoly(0, [1])
        assert W8 ** 2 == W8 * W8


class TestSubstitution:
    def test_identity(self):
        assert substitute_linear(W12, Matrix2(1, 0, 0, 1)) == W12

    def test_swap_fixes_w12(self):
        swap = Matrix2(F(0), F(1), F(1), F(0))
        assert substitute_linear(W12, swap) == W12

    def test_transform_matrix_negates_w12(self):
        M = Matrix2(F(1), F(1), F(1), F(-1))
        out = substitute_linear(W12, M) * F(1, 2 ** 6)
        assert out == -W12

    def test_composition_column(self):
        rng = random.Random(11)
        for _ in range(10):
            W = rand_poly(rng, rng.randint(1, 5))
            M = Matrix2(*[F(rng.randint(-3, 3)) for _ in range(4)])
            N = Matrix2(*[F(rng.randint(-3, 3)) for _ in range(4)])
            MN = Matrix2(M.a * N.a + M.b * N.c, M.a * N.b + M.b * N.d,
                         M.c * N.a + M.d * N.c, M.c * N.b + M.d * N.d)
            lhs = substitute_linear(substitute_linear(W, M), N)
            assert lhs == substitute_linear(W, MN)


DIFF_OP = HomogeneousPoly(6, [0, 1, 0, 0, 0, -1, 0])    # xy(x^4 - y^4)


class TestDiffOperator:
    def test_single_derivative(self):
        p = HomogeneousPoly(1, [1, 0])       # x
        W = HomogeneousPoly(2, [1, 0, 0])    # x^2
        assert apply_diff_operator(p, W) == HomogeneousPoly(1, [2, 0])

    def test_single_paired_monomial(self):
        # x^8 y^4 under xy(x^4-y^4)(D): only d^5/dx^5 d/dy survives,
        # factor (8)_5 * 4 = 6720 * 4 = 26880 on x^3 y^3
        W = HomogeneousPoly(12, [0, 0, 0, 0, 1] + [0] * 8)
        out = apply_diff_operator(DIFF_OP, W)
        assert out == HomogeneousPoly(6, [0, 0, 0, 26880, 0, 0, 0])

    def test_w12_derivative_vanishes(self):
        # at degree 12 the two interior contributions cancel exactly;
        # the nominal degree 6 is preserved and x^4+y^4 divides trivially
        out = apply_diff_operator(DIFF_OP, W12)
        assert out.degree == 6 and out.is_zero()
        quot = exact_divide(out, HomogeneousPoly(4, [1, 0, 0, 0, 1]))
        assert quot is not None and quot.is_zero()

    def test_degree_error(self):
        with pytest.raises(ValueError):
            apply_diff_operator(W12, W8)

    def test_linearity(self):
        rng = random.Random(23)
        for _ in range(15):
            degw = rng.randint(2, 7)
            degp = rng.randint(1, degw)
            p = rand_poly(rng, degp)
            q = rand_poly(rng, degp)
            A = rand_poly(rng, degw)
            B = rand_poly(rng, degw)
            assert apply_diff_operator(p + q, A) == \
                apply_diff_operator(p, A) + apply_diff_operator(q, A)
            assert apply_diff_operator(p, A + B) == \
                apply_diff_operator(p, A) + apply_diff_operator(p, B)


class TestExactDivide:
    def test_difference_of_squares(self):
        A = HomogeneousPoly(4, [1, 0, 0, 0, -1])
        B = HomogeneousPoly(2, [1, 0, 1])
        assert exact_divide(A, B) == HomogeneousPoly(2, [1, 0, -1])

    def test_generator_identity_quotient(self):
        A = W8 ** 3 - W12 * W12
        B = (HomogeneousPoly(8, [0, 0, 0, 0, 1, 0, 0, 0, 0])
             * HomogeneousPoly(4, [1, 0, 0, 0, -1]) ** 4)
        assert exact_divide(A, B) == HomogeneousPoly(0, [108])

    def test_non_divisibility(self):
        A = HomogeneousPoly(2, [1, 0, 1])
        B = HomogeneousPoly(1, [1, 1])
        assert exact_divide(A, B) is None

    def test_pure_power_bookkeeping(self):
        # x*y is not divisible by x^2 even though the y-parts allow it
        A = HomogeneousPoly(2, [0, 1, 0])
        B = HomogeneousPoly(2, [1, 0, 0])
        assert exact_divide(A, B) is None
        assert exact_divide(A, HomogeneousPoly(1, [1, 0])) == HomogeneousPoly(1, [0, 1])
        # x is not divisible by y, although at y = 1 the parts x and 1 divide
        assert exact_divide(HomogeneousPoly(1, [1, 0]), HomogeneousPoly(1, [0, 1])) is None

    def test_zero_divisor_error(self):
        with pytest.raises(ValueError):
            exact_divide(W8, HomogeneousPoly(3, [0, 0, 0, 0]))

    def test_round_trip_random(self):
        rng = random.Random(31)
        done = 0
        while done < 30:
            B = rand_poly(rng, rng.randint(1, 5))
            if B.is_zero():
                continue
            Q = rand_poly(rng, rng.randint(0, 5))
            A = B * Q
            got = exact_divide(A, B)
            assert got is not None and B * got == A
            done += 1


class TestSolveLinear:
    def test_identity(self):
        b = [F(3), F(-1, 2), F(7)]
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve_linear(eye, b) == b

    def test_back_substitution(self):
        assert solve_linear([[1, 1], [0, 1]], [2, 1]) == [F(1), F(1)]

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear([[1, 2], [2, 4]], [1, 2])

    def test_random_round_trip(self):
        rng = random.Random(37)
        done = 0
        while done < 20:
            n = rng.randint(1, 5)
            A = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            x = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(n)]
            try:
                got = solve_linear(A, b)
            except SingularMatrixError:
                continue
            assert got == x
            done += 1


class TestUniPoly:
    def test_canonical_trim(self):
        p = UniPoly([1, 2, 0, 0])
        assert p.degree == 1 and p.coeffs == (F(1), F(2))
        assert UniPoly([0, 0]).is_zero()

    def test_mul(self):
        p = UniPoly([-1, 2])    # 2T - 1
        q = UniPoly([1, 2])     # 2T + 1
        assert p * q == UniPoly([-1, 0, 4])

    def test_divmod_linear(self):
        # (T - 1)(T - 2) = T^2 - 3T + 2
        p = UniPoly([2, -3, 1])
        q, r = divmod(p, UniPoly([-1, 1]))
        assert r.is_zero() and q == UniPoly([-2, 1])
        q2, r2 = divmod(p, UniPoly([-3, 1]))
        assert r2 == UniPoly([2])


# The shared dense core: both polynomial shapes run the same product and
# power, and UniPoly's divmod is the one long division exact_divide uses.
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
sparse = st.just(F(0)) | rationals      # about half the entries zero


def unipolys(max_degree=6):
    return st.lists(rationals, max_size=max_degree + 1).map(UniPoly)


def homogeneous(max_degree=5, entries=rationals):
    return st.integers(0, max_degree).flatmap(
        lambda n: st.lists(entries, min_size=n + 1, max_size=n + 1).map(
            lambda c: HomogeneousPoly(n, c)))


def dehomogenize(W):
    """W(x, 1) as a UniPoly in x: index i of W carries x^(n-i)."""
    return UniPoly(reversed(W.coeffs))


def _strip_y(W):
    """(v, W / y^v dehomogenised at y = 1 as a UniPoly in x)."""
    v = next(i for i, c in enumerate(W.coeffs) if c)
    return v, UniPoly(reversed(W.coeffs[v:]))


def exact_divide_at_y1(A, B):
    """Reference division by the former route: strip the pure power of y
    from each operand, dehomogenise at y = 1, divide, then reverse the
    quotient and shift it back by y^(va - vb)."""
    if A.is_zero():
        if A.degree >= B.degree:
            degree = A.degree - B.degree
            return HomogeneousPoly(degree, [0] * (degree + 1))
        return None
    va, a = _strip_y(A)
    vb, b = _strip_y(B)
    if va < vb:
        return None
    quot, rem = divmod(a, b)
    if not rem.is_zero():
        return None
    return HomogeneousPoly(A.degree - B.degree,
                           [0] * (va - vb) + list(reversed(quot.coeffs)))


def reference_product(A, B):
    """The former product of _DensePoly.__mul__: a Fraction double loop."""
    out = [F(0)] * (len(A.coeffs) + len(B.coeffs) - 1)
    for i, a in enumerate(A.coeffs):
        if not a:
            continue
        for j, b in enumerate(B.coeffs):
            if b:
                out[i + j] += a * b
    if isinstance(A, HomogeneousPoly):
        return HomogeneousPoly(len(out) - 1, out)
    return UniPoly(out)


def reference_str(W):
    """The former renderer of HomogeneousPoly: signed parts first, then
    joined, with each leading '-' re-read as a ' - ' separator."""
    n = W.degree
    parts = []
    for i, c in enumerate(W.coeffs):
        if not c:
            continue
        xs = f"x^{n - i}" if n - i > 1 else ("x" if n - i == 1 else "")
        ys = f"y^{i}" if i > 1 else ("y" if i == 1 else "")
        mono = "*".join(p for p in (xs, ys) if p) or "1"
        if c == 1 and mono != "1":
            parts.append(mono)
        elif c == -1 and mono != "1":
            parts.append(f"-{mono}")
        elif mono == "1":
            parts.append(str(c))
        else:
            parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# entries over many denominators, about half of them zero
mixed = st.just(F(0)) | st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def unipoly_pairs(draw):
    """(A, B) with B drawn on its own, the zero polynomial, or A(-T): then
    every odd coefficient of A * B cancels, the one below the top too."""
    A = UniPoly(draw(st.lists(mixed, max_size=13)))
    kind = draw(st.sampled_from(["free", "zero", "mirror"]))
    if kind == "zero":
        return A, UniPoly([])
    if kind == "mirror":
        return A, UniPoly([c if i % 2 == 0 else -c for i, c in enumerate(A.coeffs)])
    return A, UniPoly(draw(st.lists(mixed, max_size=13)))


class TestDenseCore:
    @settings(max_examples=150, deadline=None)
    @given(unipolys(8), unipolys(5))
    def test_divmod_identity(self, A, B):
        if B.is_zero():
            return
        q, r = divmod(A, B)
        assert B * q + r == A
        assert r.degree < B.degree

    def test_divmod_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(UniPoly([1, 2]), UniPoly([]))
        with pytest.raises(ZeroDivisionError):
            divmod(UniPoly([]), UniPoly([0, 0]))

    def test_divmod_of_smaller_degree(self):
        q, r = divmod(UniPoly([1, 1]), UniPoly([0, 0, 3]))
        assert q.is_zero() and r == UniPoly([1, 1])

    @settings(max_examples=100, deadline=None)
    @given(homogeneous(), homogeneous(), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 3), st.integers(0, 3))
    def test_exact_divide_round_trip_with_pure_powers(self, A, B, i, j, k, l):
        # x^i y^j A divided by x^k y^l B: in t = y/x a power of y is
        # low-order zeros of the vector and a power of x is degree room
        # the t-quotient must leave
        if B.is_zero():
            return
        A = A * HomogeneousPoly.from_sparse(i + j, {j: 1})
        B = B * HomogeneousPoly.from_sparse(k + l, {l: 1})
        assert exact_divide(A * B, B) == A

    @settings(max_examples=300, deadline=None)
    @given(homogeneous(8, sparse), homogeneous(8, sparse), st.booleans())
    @example(HomogeneousPoly(2, [0] * 3), HomogeneousPoly(3, [1, 0, 0, 1]), False)
    @example(HomogeneousPoly(5, [0] * 6), HomogeneousPoly(3, [0, 1, 1, 0]), False)
    @example(HomogeneousPoly(2, [1, 0, 0]), HomogeneousPoly(1, [0, 1]), False)
    def test_exact_divide_matches_y1_reference(self, A, B, as_product):
        # both directions on random input; half the pairs are B * Q, the
        # rest mostly not divisible, with deg A < deg B and zero A drawn too
        if B.is_zero():
            return
        if as_product:
            A = B * A
        Q = exact_divide(A, B)
        assert Q == exact_divide_at_y1(A, B)
        if Q is not None:
            assert B * Q == A

    @settings(max_examples=100, deadline=None)
    @given(homogeneous(), homogeneous(), st.integers(0, 3))
    def test_shapes_agree_through_dehomogenisation(self, A, B, k):
        assert dehomogenize(A * B) == dehomogenize(A) * dehomogenize(B)
        assert dehomogenize(A ** k) == dehomogenize(A) ** k
        assert dehomogenize(-A) == -dehomogenize(A)
        assert dehomogenize(A * F(3, 2)) == dehomogenize(A) * F(3, 2)

    @settings(max_examples=50, deadline=None)
    @given(homogeneous())
    def test_shapes_never_compare_equal(self, W):
        U = UniPoly(W.coeffs)      # the same tuple unless W ends in zeros
        assert W != U and U != W
        with pytest.raises(TypeError):
            W * U
        with pytest.raises(TypeError):
            W - U

    @settings(max_examples=300, deadline=None)
    @given(homogeneous(12, mixed), homogeneous(12, mixed))
    @example(HomogeneousPoly(1, [F(1, 2), F(1, 3)]), HomogeneousPoly(1, [F(1, 5), 1]))
    @example(HomogeneousPoly(0, [0]), HomogeneousPoly(2, [F(7, 3), 0, 0]))
    def test_homogeneous_product_matches_fraction_loop(self, A, B):
        # the integer product divides once by both denominators
        assert A * B == reference_product(A, B)

    @settings(max_examples=300, deadline=None)
    @given(unipoly_pairs())
    @example((UniPoly([F(1, 2), 0, F(2, 3)]), UniPoly([F(1, 2), 0, F(2, 3)])))
    @example((UniPoly([F(3, 4), F(-1, 6), F(5, 9)]), UniPoly([F(3, 4), F(1, 6), F(5, 9)])))
    @example((UniPoly([]), UniPoly([])))
    @example((UniPoly([F(1, 7)]), UniPoly([])))
    def test_unipoly_product_matches_fraction_loop(self, pair):
        A, B = pair
        assert A * B == reference_product(A, B)
        assert B * A == reference_product(B, A)

    @settings(max_examples=300, deadline=None)
    @given(homogeneous(8, st.sampled_from(
        [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(7, 3), F(-7, 3)])))
    @example(HomogeneousPoly(3, [0] * 4))
    @example(HomogeneousPoly(0, [-1]))
    @example(HomogeneousPoly(2, [1, -1, F(7, 3)]))
    def test_str_matches_two_pass_renderer(self, W):
        assert str(W) == reference_str(W)

    def test_immutable_and_hashable(self):
        for p in (W8, UniPoly([1, 2])):
            with pytest.raises(AttributeError):
                p.coeffs = ()
        assert hash(W8 * 1) == hash(W8)
        assert hash(UniPoly([1, 2, 0])) == hash(UniPoly([1, 2]))


def in_integer_form(P):
    """den > 0 and int nums with gcd(den, *nums) == 1."""
    return (type(P.den) is int and P.den > 0 and all(type(c) is int for c in P.nums)
            and math.gcd(P.den, *P.nums) == 1)


@st.composite
def homogeneous_pairs(draw):
    """(A, B) of one degree, B sometimes a multiple of A so that A - B
    or A + B cancels."""
    A = draw(homogeneous(8, mixed))
    B = draw(st.lists(mixed, min_size=A.degree + 1, max_size=A.degree + 1)
             .map(lambda c: HomogeneousPoly(A.degree, c)) | st.just(A * F(-1)))
    return A, B


def rebuilt(P):
    """P through its public constructor, from its Fraction vector."""
    if isinstance(P, HomogeneousPoly):
        return HomogeneousPoly(P.degree, P.coeffs)
    return UniPoly(P.coeffs)


class TestIntegerForm:
    # every polynomial holds one integer form, den > 0 and int nums in
    # lowest terms, whichever operation built it
    @settings(max_examples=200, deadline=None)
    @given(homogeneous_pairs() | unipoly_pairs(), rationals)
    @example((UniPoly([F(1, 2), F(1, 3)]), UniPoly([F(-1, 2), F(-1, 3)])), F(0))
    @example((HomogeneousPoly(2, [F(1, 6), 0, F(5, 6)]),
              HomogeneousPoly(2, [F(-1, 6), F(1, 4), F(1, 6)])), F(-3, 4))
    def test_every_operation_gives_the_form(self, pair, s):
        A, B = pair
        for P in (A, B, A + B, A - B, A * B, -A, A * s, s * A,
                  type(A)._from_ints(-6, [4 * c for c in A.nums])):
            assert in_integer_form(P), P
            assert rebuilt(P) == P

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.dictionaries(st.integers(0, n), mixed, max_size=n + 1))))
    def test_from_sparse_gives_the_form(self, sparse_entries):
        n, entries = sparse_entries
        W = HomogeneousPoly.from_sparse(n, entries)
        assert in_integer_form(W)
        assert W.coeffs == tuple(F(entries.get(i, 0)) for i in range(n + 1))

    @settings(max_examples=200, deadline=None)
    @given(homogeneous(8, mixed) | unipolys(8), st.integers(1, 10 ** 12))
    def test_form_is_unique(self, P, k):
        Q = type(P)._from_ints(k * P.den, [k * c for c in P.nums])
        assert (Q.den, Q.nums) == (P.den, P.nums)
        assert Q == P and hash(Q) == hash(P)
        R = (HomogeneousPoly(P.degree, P.coeffs) if isinstance(P, HomogeneousPoly)
             else UniPoly(P.coeffs))
        assert (R.den, R.nums) == (P.den, P.nums) and hash(R) == hash(P)
        assert P.den == math.lcm(*(c.denominator for c in P.coeffs))

    @settings(max_examples=50, deadline=None)
    @given(homogeneous(8, mixed) | unipolys(8))
    def test_zero_has_denominator_one(self, P):
        for Z in (P - P, P * 0, type(P)._from_ints(7, [0] * len(P.nums))):
            assert Z.is_zero() and Z.den == 1
        assert UniPoly([]).den == 1 and HomogeneousPoly(3, [0] * 4).den == 1
