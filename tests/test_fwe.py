from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwezeta.algebra import HomogeneousPoly, solve_linear
from fwezeta.files import MAX_DEGREE
from fwezeta.fwe import (W8, W12, _W8_U, _W12_U, FweBasisElement,
                         _convolve, _power, _spread, _triangular_basis,
                         build_extremal, check_invariance_g8, enumerate_basis,
                         extremal_min_index,
                         is_formal_weight_enumerator, min_weight_index,
                         symmetry_checks)
from paper_identities import W24_PRIME

F = Fraction


class TestGenerators:
    def test_w8_coefficients(self):
        assert W8.coeffs == tuple(
            F(c) for c in (1, 0, 0, 0, 14, 0, 0, 0, 1))

    def test_w12_coefficients(self):
        assert W12.coefficient(4) == W12.coefficient(8) == -33
        assert W12.coefficient(0) == W12.coefficient(12) == 1

    def test_w24prime_identity(self):
        assert 108 * W24_PRIME == W8 ** 3 - W12 ** 2
        assert W24_PRIME == (HomogeneousPoly.from_sparse(8, {4: 1})
                             * HomogeneousPoly(4, [1, 0, 0, 0, -1]) ** 4)


class TestDefiningConditions:
    def test_w12_is_fwe(self):
        assert is_formal_weight_enumerator(W12).ok

    def test_w8_is_not(self):
        check = is_formal_weight_enumerator(W8)
        assert not check.ok
        assert check.support_multiple_of_4
        assert not check.anti_invariant

    def test_product_is_fwe(self):
        assert is_formal_weight_enumerator(W8 * W12).ok

    def test_bad_support(self):
        W = HomogeneousPoly.from_sparse(12, {0: 1, 3: 5, 12: 1})
        check = is_formal_weight_enumerator(W)
        assert not check.support_multiple_of_4
        assert "support" in " ".join(check.failures)


class TestSymmetryChecks:
    def test_w12_passes_all(self):
        rep = symmetry_checks(W12)
        assert rep.ok and rep.degree_mod_8_is_4 and rep.term_count_even \
            and rep.swap_symmetric
        assert len(W12.support()) == 4

    def test_degree_28_product(self):
        rep = symmetry_checks(W8 ** 2 * W12)
        assert rep.ok

    def test_w8_fails_degree(self):
        rep = symmetry_checks(W8)
        assert not rep.degree_mod_8_is_4 and not rep.ok


def g8_invariant_over_gaussian_rationals(W):
    """Reference for check_invariance_g8: substitute both generators of G8
    literally, over Q(i), and compare.  Column convention, h = (1 - i)/2:
    sigma_1 = h*(1 -1; 1 1) and sigma_2 = diag(-i, 1)."""
    x, y = sympy.symbols("x y")
    n = W.degree
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** (n - k) * y ** k
               for k, c in enumerate(W.coeffs))
    h = (1 - sympy.I) / 2
    images = (expr.subs({x: h * (x - y), y: h * (x + y)}, simultaneous=True),
              expr.subs({x: -sympy.I * x}, simultaneous=True))
    return all(sympy.expand(image - expr) == 0 for image in images)


_small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def g8_candidates(draw):
    """Rational W of degree 0..16: either arbitrary (often sparse)
    coefficients, or a combination of the invariants W8^a W12^b of the
    degree, sometimes disturbed at one index, so both verdicts occur."""
    n = draw(st.one_of(st.sampled_from((0, 4, 8, 12, 16)), st.integers(0, 16)))
    if n % 4 or not draw(st.booleans()):
        coeff = st.one_of(st.just(F(0)), _small_rationals)
        return HomogeneousPoly(n, draw(st.lists(coeff, min_size=n + 1,
                                                max_size=n + 1)))
    W = HomogeneousPoly(n, [0] * (n + 1))
    for a in range(n // 8 + 1):
        if (n - 8 * a) % 12 == 0:
            W = W + W8 ** a * W12 ** ((n - 8 * a) // 12) * draw(_small_rationals)
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        W = W + HomogeneousPoly.from_sparse(n, {k: draw(_small_rationals)})
    return W


class TestInvarianceG8:
    def test_generators_invariant(self):
        assert check_invariance_g8(W8)
        assert check_invariance_g8(W12)

    def test_x4_plus_y4_not_invariant(self):
        assert not check_invariance_g8(HomogeneousPoly(4, [1, 0, 0, 0, 1]))

    @settings(max_examples=60, deadline=None)
    @given(g8_candidates())
    @example(HomogeneousPoly(4, [0] * 5))
    @example(HomogeneousPoly(6, [0, 0, 1, 0, 0, 0, 1]))    # n = 2 (mod 4)
    @example(W8)
    @example(HomogeneousPoly(4, [1, 0, 0, 0, 1]))
    @example(HomogeneousPoly(2, [1, 0, 1]) ** 4)   # transform-fixed, off the support
    @example(HomogeneousPoly(5, [0, 0, 0, 0, 0, 1]))  # odd degree, on the support
    def test_matches_literal_substitution_over_q_i(self, W):
        assert check_invariance_g8(W) == g8_invariant_over_gaussian_rationals(W)


class TestBasis:
    def test_degree_36(self):
        assert enumerate_basis(36) == [FweBasisElement(3, 0), FweBasisElement(0, 1)]

    def test_degree_12(self):
        assert enumerate_basis(12) == [FweBasisElement(0, 0)]

    def test_degree_60(self):
        assert enumerate_basis(60) == [FweBasisElement(6, 0),
                                       FweBasisElement(3, 1),
                                       FweBasisElement(0, 2)]

    def test_empty_for_bad_degree(self):
        assert enumerate_basis(16) == []
        assert enumerate_basis(4) == []

    def test_count_formula(self):
        for n in range(12, 197, 8):
            assert len(enumerate_basis(n)) == (n - 12) // 24 + 1

    def test_matches_search_over_t(self):
        for n in range(-8, 1101):
            assert enumerate_basis(n) == reference_basis(n), n

    def test_element_expansion_degree(self):
        assert _element_expansion(FweBasisElement(3, 1)).degree == 60

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 5))
    @example(0, 0)
    @example(15, 5)
    def test_expansion_is_the_product(self, s, t):
        assert (_element_expansion(FweBasisElement(s, t))
                == W8 ** s * W12 ** (2 * t + 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 45).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, a // 3))))
    @example((0, 0))
    @example((3, 1))
    @example((45, 15))
    def test_triangular_element_is_the_product(self, aj):
        # B_j = W12 W8^(a-3j) W24'^j starts at index 4j with coefficient 1,
        # which makes the extremal conditions unitriangular
        a, j = aj
        B = _spread(_triangular_basis(a, j))
        assert B == (W12 * _reference_power(W8, a - 3 * j)
                     * _reference_power(W24_PRIME, j))
        assert B.degree == 8 * a + 12
        assert min(B.support()) == 4 * j and B.coefficient(4 * j) == 1


def reference_basis(n):
    """The former enumerate_basis: every t with 12(2t + 1) <= n, kept
    when the rest of the degree is a multiple of 8."""
    out = []
    t = 0
    while 12 * (2 * t + 1) <= n:
        rem = n - 12 * (2 * t + 1)
        if rem % 8 == 0:
            out.append(FweBasisElement(rem // 8, t))
        t += 1
    return out


def _element_expansion(e):
    """W8^s W12^(2t+1) from the integer u-polynomials that build_extremal
    uses for its terms, u = (y/x)^4."""
    return _spread(_convolve(_power(_W8_U, e.s), _power(_W12_U, 2 * e.t + 1)))


@lru_cache(maxsize=None)
def _reference_power(W, k):
    return _reference_power(W, k - 1) * W if k else HomogeneousPoly(0, [1])


def reference_extremal(n):
    """Reference for build_extremal: the basis products as Fraction
    HomogeneousPoly powers, the same solve_linear, and the combination
    summed one scaled polynomial at a time.  Returns (terms, expanded)."""
    basis = enumerate_basis(n)
    m = len(basis) - 1
    polys = [_reference_power(W8, e.s) * _reference_power(W12, 2 * e.t + 1)
             for e in basis]
    A = [[F(1)] * (m + 1)]
    A += [[p.coefficient(4 * j) for p in polys] for j in range(1, m + 1)]
    sol = solve_linear(A, [F(1)] + [F(0)] * m)
    expanded = HomogeneousPoly(n, [0] * (n + 1))
    for coeff, poly in zip(sol, polys):
        expanded = expanded + poly * coeff
    return tuple(zip(basis, sol)), expanded


class TestBuildExtremal:
    def test_degree_36(self):
        comb = build_extremal(36)
        assert tuple(c for _, c in comb.terms) == (F(11, 12), F(1, 12))
        W = comb.expanded
        assert W.coefficient(8) == -495
        assert W.coefficient(12) == -19005
        assert W.coefficient(16) == -111573
        assert comb.d == 8

    def test_degree_12_is_w12(self):
        comb = build_extremal(12)
        assert comb.expanded == W12 and comb.d == 4

    def test_degree_44(self):
        comb = build_extremal(44)
        assert tuple(c for _, c in comb.terms) == (F(85, 108), F(23, 108))

    def test_degree_60(self):
        comb = build_extremal(60)
        assert (tuple(c for _, c in comb.terms)
                == (F(1045, 1944), F(880, 1944), F(19, 1944)))
        assert comb.d == 12

    def test_degree_100_anchor(self):
        assert build_extremal(100).expanded.coefficient(48) == -331136219602650

    def test_rejects_bad_degree(self):
        for n in (16, 11, 4, MAX_DEGREE + 4):
            with pytest.raises(ValueError):
                build_extremal(n)

    def test_combination_normalization(self, all_extremals):
        for comb in all_extremals.values():
            assert sum(c for _, c in comb.terms) == 1
            assert comb.expanded.coefficient(0) == 1

    def test_d_matches_bound_formula(self, all_extremals):
        for n, comb in all_extremals.items():
            assert comb.d == extremal_min_index(n) == 4 * ((n - 12) // 24) + 4

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, (MAX_DEGREE - 12) // 8).map(lambda a: 8 * a + 12))
    @example(1020)
    def test_large_degrees_on_integers(self, n):
        comb = build_extremal(n)
        assert all(c.denominator == 1 for c in comb.expanded.coeffs)
        assert sum(c for _, c in comb.terms) == 1
        assert comb.d == min_weight_index(comb.expanded) == extremal_min_index(n)
        # the terms, in the W8^s W12^(2t+1) basis, sum to the expansion
        total = [F(0)] * (n // 4 + 1)
        for e, c in comb.terms:
            product = _convolve(_power(_W8_U, e.s), _power(_W12_U, 2 * e.t + 1))
            for k, b in enumerate(product):
                total[k] += c * b
        assert _spread(total) == comb.expanded

    def test_matches_reference_builder(self):
        for n in range(12, 421, 8):
            terms, expanded = reference_extremal(n)
            comb = build_extremal(n)
            assert comb.degree == n
            assert comb.terms == terms
            assert comb.expanded == expanded
            assert comb.d == min_weight_index(expanded) == extremal_min_index(n)

    def test_expansions_are_fwe(self):
        for n in (36, 60, 84):
            W = build_extremal(n).expanded
            assert is_formal_weight_enumerator(W).ok
            assert symmetry_checks(W).ok

    def test_symmetric_form_shape(self):
        W = build_extremal(44).expanded
        n = W.degree
        assert all(i % 4 == 0 for i in W.support())
        assert all(W.coefficient(i) == W.coefficient(n - i) for i in range(n + 1))
        interior = [i for i in W.support() if 0 < i < n]
        assert min(interior) == 8 and max(interior) == n - 8


class TestMinWeightIndex:
    def test_values(self):
        assert min_weight_index(W12) == 4
        assert min_weight_index(build_extremal(36).expanded) == 8
        assert min_weight_index(build_extremal(84).expanded) == 16

    def test_errors(self):
        with pytest.raises(ValueError):
            min_weight_index(HomogeneousPoly(3, [1, 0, 0, 0]))
        with pytest.raises(ValueError):
            min_weight_index(HomogeneousPoly(2, [2, 0, 1]))
