import random
from fractions import Fraction

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwezeta.algebra import HomogeneousPoly, Matrix2, UniPoly, substitute_linear
from fwezeta.fwe import W8, W12, build_extremal
from fwezeta.zeta import (EnumeratorContext, ZetaPolynomial,
                          _series_term_polys, compute_zeta,
                          functional_equation_sign, genus, is_zeta_polynomial,
                          macwilliams_transform, zeta_oracle)
from paper_identities import scaled_to_integers

F = Fraction

# expanded form of the degree-12 fixture (2T^2-1)(2T^2+1)(2T^2+2T+1)/15
P12 = UniPoly([F(-1, 15), F(-2, 15), F(-2, 15), 0, F(4, 15), F(8, 15), F(8, 15)])


def random_context(rng, max_degree=24):
    n = rng.randint(2, max_degree)
    d = rng.randint(1, n)
    coeffs = [F(0)] * (n + 1)
    coeffs[0] = F(1)
    coeffs[d] = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
    for i in range(d + 1, n + 1):
        if rng.random() < 0.5:
            coeffs[i] = F(rng.randint(-9, 9), rng.randint(1, 9))
    q = rng.choice([2, 3, 4, 5, 7])
    return EnumeratorContext(HomogeneousPoly(n, coeffs), q)


def comb_sum_zeta(ctx):
    """compute_zeta's former form, kept as its reference: each binomial
    moment as a sum of math.comb terms, then (sum_k c_k T^k)(1-T)(1-qT)
    as UniPoly products cut at degree n-d."""
    n, q, nd = ctx.n, ctx.q, ctx.n - ctx.d
    a = [ctx.W.coefficient(n - i) for i in range(nd + 1)]
    c = [F(sum(a[i] * math.comb(i, j) for i in range(j, nd + 1)),
           (q - 1) * math.comb(n, j)) for j in range(nd, -1, -1)]
    product = UniPoly(c) * UniPoly([1, -1]) * UniPoly([1, -q])
    return UniPoly(product.coeffs[:nd + 1])


def substitution_transform(W, q):
    """macwilliams_transform's former form, kept as its reference: the
    polynomial substitution W(x + (q-1)y, x - y) scaled by q^(-n/2)."""
    M = Matrix2(F(1), F(q - 1), F(1), F(-1))
    return substitute_linear(W, M) * F(1, q ** (W.degree // 2))


def series_loop_is_zeta(ctx, P):
    """is_zeta_polynomial's former form, kept as its reference: at each
    point t = 0..n, the series coefficients b_i(t) by the prefix-sum
    recurrence, against P, on integers."""
    n, q, nd = ctx.n, ctx.q, ctx.n - ctx.d
    if P.degree > nd:
        return False
    p_den, p = scaled_to_integers(P.coeffs)
    w_den, w = scaled_to_integers(ctx.W.coeffs)
    p_rev = [0] * (nd + 1 - len(p)) + p[::-1]
    binomials = [math.comb(n, j) for j in range(nd + 1)]
    for t in range(n + 1):
        power, prefix, b, lhs = 1, 0, 0, 0
        for i in range(nd + 1):
            prefix += binomials[i] * power
            power *= t - 1
            b = prefix + q * b
            lhs += p_rev[i] * b
        w_at_t = 0
        for c in w:
            w_at_t = w_at_t * t + c
        if (q - 1) * w_den * lhs != p_den * (w_at_t - w_den * t ** n):
            return False
    return True


def fraction_sign(Z):
    """functional_equation_sign's former form, kept as its reference: the
    test a_(2g-i) = eps q^(g-i) a_i over Q for every i, each eps in turn."""
    g = Z.g
    if g is None or Z.P.degree != 2 * g:
        return None
    qf = F(Z.context.q)
    for eps in (1, -1):
        if all(Z.P.coefficient(2 * g - i) == eps * qf ** (g - i) * Z.P.coefficient(i)
               for i in range(2 * g + 1)):
            return eps
    return None


@st.composite
def sign_cases(draw):
    """A ZetaPolynomial whose P has degree 2g for the genus g of its
    context (d = 1, n = 2g), built with a functional equation of sign +1
    or -1, then sometimes one coefficient moved; or a P of another degree,
    or an odd n."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    kind = draw(st.sampled_from(["symmetric", "symmetric", "moved", "degree", "odd"]))
    g = draw(st.integers(0, 8))
    half = draw(st.lists(coefficients, min_size=g + 1, max_size=g + 1))
    half[0] = half[0] or F(1)
    eps = draw(st.sampled_from([1, -1]))
    # a_(2g-i) = eps q^(g-i) a_i; the middle one is 0 when eps = -1
    coeffs = half + [eps * F(q) ** (g - i) * half[i] for i in range(g - 1, -1, -1)]
    if eps == -1:
        coeffs[g] = F(0)
    if kind == "moved":
        i = draw(st.integers(0, 2 * g))
        coeffs[i] += draw(coefficients.filter(bool))
    n = 2 * g
    if kind == "degree":
        n += 2 * draw(st.sampled_from([-1, 1]))
    if kind == "odd":
        n += 1
    W = HomogeneousPoly.from_sparse(max(n, 1), {0: 1, 1: 1})
    return ZetaPolynomial(UniPoly(coeffs), EnumeratorContext(W, q))


# even degrees 0..20, about half the entries zero, denominators up to 12
even_degree_polys = st.integers(0, 10).flatmap(
    lambda half: st.lists(
        st.just(F(0)) | st.fractions(min_value=-50, max_value=50, max_denominator=12),
        min_size=2 * half + 1, max_size=2 * half + 1).map(
            lambda coeffs: HomogeneousPoly(len(coeffs) - 1, coeffs)))


class TestContext:
    def test_infers_d(self):
        ctx = EnumeratorContext(W12, 2)
        assert (ctx.n, ctx.d, ctx.q) == (12, 4, 2)

    def test_rejects_x_power_alone(self):
        with pytest.raises(ValueError):
            EnumeratorContext(HomogeneousPoly(3, [1, 0, 0, 0]), 2)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            EnumeratorContext(HomogeneousPoly(2, [2, 0, 1]), 2)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            EnumeratorContext(W12, 1)

    def test_repr_names_n_d_and_q(self):
        assert repr(EnumeratorContext(W12, 3)) == "EnumeratorContext(n=12, d=4, q=3)"
        assert repr(EnumeratorContext(W=W8)) == "EnumeratorContext(n=8, d=4, q=2)"

    def test_equal_and_hashed_by_identity(self):
        a, b = EnumeratorContext(W12, 2), EnumeratorContext(W12, 2)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)

    def test_assignment_raises(self):
        ctx = EnumeratorContext(W12, 2)
        for name, value in (("W", W8), ("n", 8), ("d", 1), ("q", 3), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(ctx, name, value)
        assert (ctx.W, ctx.n, ctx.d, ctx.q) == (W12, 12, 4, 2)

    def test_checks_q_before_w(self):
        with pytest.raises(ValueError, match="q must be an integer >= 2, got 1"):
            EnumeratorContext(HomogeneousPoly(3, [1, 0, 0, 0]), 1)


class TestComputeZeta:
    @pytest.mark.parametrize("n,q", [(4, 3), (7, 2), (10, 5)])
    def test_d_equals_n_gives_one(self, n, q):
        W = HomogeneousPoly.from_sparse(n, {0: 1, n: q - 1})
        Z = compute_zeta(EnumeratorContext(W, q))
        assert Z.P == UniPoly([1])

    def test_w12_fixture(self):
        Z = compute_zeta(EnumeratorContext(W12, 2))
        assert Z.P == P12

    def test_w8_fixture(self):
        Z = compute_zeta(EnumeratorContext(W8, 2))
        assert Z.P == UniPoly([F(1, 5), F(2, 5), F(2, 5)])

    def test_degree_bound(self):
        rng = random.Random(41)
        for _ in range(20):
            ctx = random_context(rng)
            Z = compute_zeta(ctx)
            assert Z.P.degree <= ctx.n - ctx.d

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_comb_sum_form(self, rng):
        ctx = random_context(rng)
        assert compute_zeta(ctx).P == comb_sum_zeta(ctx)

    def test_defining_property_replay(self):
        rng = random.Random(43)
        contexts = [EnumeratorContext(W12, 2)] + [random_context(rng) for _ in range(5)]
        for ctx in contexts:
            Z = compute_zeta(ctx)
            nd = ctx.n - ctx.d
            terms = _series_term_polys(ctx)
            acc = HomogeneousPoly(ctx.n, [0] * (ctx.n + 1))
            for k in range(nd + 1):
                acc = acc + terms[nd - k] * Z.P.coefficient(k)
            target = (ctx.W - HomogeneousPoly.from_sparse(ctx.n, {0: 1})) \
                * F(1, ctx.q - 1)
            assert acc == target


class TestOracle:
    def test_agrees_on_w12(self):
        ctx = EnumeratorContext(W12, 2)
        assert zeta_oracle(ctx).P == compute_zeta(ctx).P

    def test_trivial_d_equals_n(self):
        # at d = n the answer is the constant A_n/(q-1), so 1 exactly when
        # the y^n coefficient is q - 1
        W = HomogeneousPoly(4, [1, 0, 0, 0, 3])
        assert zeta_oracle(EnumeratorContext(W, 4)).P == UniPoly([1])
        ctx3 = EnumeratorContext(W, 3)
        assert zeta_oracle(ctx3).P == compute_zeta(ctx3).P == UniPoly([F(3, 2)])

    def test_agrees_on_randomized_enumerators(self):
        rng = random.Random(47)
        for _ in range(50):
            ctx = random_context(rng)
            assert zeta_oracle(ctx).P == compute_zeta(ctx).P


def falling_shift(ctx):
    """W + c y^d x (x - y) ... (x - (n-d-1) y), with c keeping A_d nonzero:
    at y = 1 the change vanishes at x = 0..n-d-1 and nowhere else."""
    n, d = ctx.n, ctx.d
    c = 1 if ctx.W.coefficient(d) != -1 else 2
    shift = HomogeneousPoly.from_sparse(d, {d: c})
    for j in range(n - d):
        shift = shift * HomogeneousPoly(1, [1, -j])
    return EnumeratorContext(ctx.W + shift, ctx.q)


class TestIsZetaPolynomial:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.fractions(min_value=-5, max_value=5, max_denominator=10**9)
           .filter(bool))
    def test_matches_series_loop(self, rng, delta):
        ctx = random_context(rng)
        P = compute_zeta(ctx).P
        k = rng.randint(0, ctx.n - ctx.d)
        moved = UniPoly([P.coefficient(i) + (delta if i == k else 0)
                         for i in range(ctx.n - ctx.d + 1)])
        for candidate in (P, moved, UniPoly([])):
            assert is_zeta_polynomial(ctx, candidate) == series_loop_is_zeta(ctx, candidate)

    def test_matches_series_loop_on_enumerators(self, all_zetas):
        for Z in all_zetas.values():
            assert is_zeta_polynomial(Z.context, Z.P) is series_loop_is_zeta(Z.context, Z.P)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.fractions(min_value=-5, max_value=5, max_denominator=10**9)
           .filter(bool))
    def test_agrees_with_oracle(self, rng, delta):
        ctx = random_context(rng)
        nd = ctx.n - ctx.d
        P = compute_zeta(ctx).P
        oracle = zeta_oracle(ctx).P
        k = rng.randint(0, nd)
        moved = UniPoly([P.coefficient(i) + (delta if i == k else 0)
                         for i in range(nd + 1)])
        extra = UniPoly([P.coefficient(i) for i in range(nd + 1)] + [delta])
        for candidate, expected in ((P, True), (moved, False), (extra, False),
                                    (UniPoly([]), False)):
            assert is_zeta_polynomial(ctx, candidate) is expected
            assert (oracle == candidate) is expected

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_residual_zero_at_first_points_only(self, rng):
        # P of W is wrong for the shifted W', whose change vanishes at
        # x = 0..n-d-1 when y = 1 but has the nonzero x^(n-d) y^d
        # coefficient: the comparison must reach the top one, t^(n-d)
        ctx = random_context(rng)
        P = compute_zeta(ctx).P
        shifted = falling_shift(ctx)
        assert is_zeta_polynomial(ctx, P)
        assert not is_zeta_polynomial(shifted, P)
        assert zeta_oracle(shifted).P != P
        assert is_zeta_polynomial(shifted, compute_zeta(shifted).P)

    def test_extremal_36(self):
        ctx = EnumeratorContext(build_extremal(36).expanded, 2)
        P = compute_zeta(ctx).P
        assert is_zeta_polynomial(ctx, P)
        middle = P.degree // 2
        moved = UniPoly([c + (F(1, 10**9) if i == middle else 0)
                         for i, c in enumerate(P.coeffs)])
        assert not is_zeta_polynomial(ctx, moved)

    @pytest.mark.parametrize("n", [12, 36])
    def test_defining_system_is_anti_triangular(self, n):
        # what makes "P satisfies the identity" the same as "the oracle
        # agrees": zeros below the anti-diagonal, C(n, m) on it
        ctx = EnumeratorContext(build_extremal(n).expanded, 2)
        nd = ctx.n - ctx.d
        terms = _series_term_polys(ctx)
        A = [[terms[nd - k].coefficient(n - m) for k in range(nd + 1)]
             for m in range(nd + 1)]
        for m in range(nd + 1):
            assert A[m][nd - m] == math.comb(n, m)
            assert all(A[m][k] == 0 for k in range(nd - m + 1, nd + 1))


class TestGenus:
    def test_values(self):
        assert genus(12, 4) == 3
        assert genus(8, 4) == 1
        assert genus(36, 8) == 11

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            genus(7, 2)

    def test_extremal_36_zeta_degree_is_2g(self):
        comb = build_extremal(36)
        Z = compute_zeta(EnumeratorContext(comb.expanded, 2))
        assert Z.P.degree == 22 == 2 * genus(36, 8)


class TestMacWilliams:
    def test_w8_fixed(self):
        assert macwilliams_transform(W8, 2) == W8

    def test_w12_negated(self):
        assert macwilliams_transform(W12, 2) == -W12

    def test_small_identity(self):
        p = HomogeneousPoly(2, [1, 0, 1])
        assert macwilliams_transform(p, 2) == p

    @settings(max_examples=200, deadline=None)
    @given(even_degree_polys, st.sampled_from([2, 3, 4, 5]))
    @example(HomogeneousPoly(8, [0] * 9), 3)
    @example(HomogeneousPoly(0, [F(7, 3)]), 5)
    @example(HomogeneousPoly.from_sparse(20, {0: F(1, 6), 13: F(-5, 4)}), 4)
    def test_matches_substitution(self, W, q):
        assert macwilliams_transform(W, q) == substitution_transform(W, q)

    def test_involution(self):
        rng = random.Random(53)
        for _ in range(15):
            n = rng.randrange(2, 13, 2)
            W = HomogeneousPoly(n, [F(rng.randint(-9, 9), rng.randint(1, 5))
                                    for _ in range(n + 1)])
            q = rng.choice([2, 3, 4])
            assert macwilliams_transform(macwilliams_transform(W, q), q) == W

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            macwilliams_transform(HomogeneousPoly(3, [1, 0, 0, 1]), 2)

    def test_cache_keeps_integer_check(self):
        assert macwilliams_transform(W8, 2) == W8
        with pytest.raises(ValueError):
            macwilliams_transform(W8, 2.0)


class TestFunctionalEquationSign:
    @settings(max_examples=300, deadline=None)
    @given(sign_cases())
    def test_matches_fraction_form(self, Z):
        assert functional_equation_sign(Z) == fraction_sign(Z)

    def test_matches_fraction_form_on_enumerators(self, all_zetas):
        Zs = list(all_zetas.values())
        Zs += [compute_zeta(EnumeratorContext(W8 ** s * W12 ** t, q))
               for s in range(3) for t in range(3) if s or t for q in (2, 3)]
        signs = [functional_equation_sign(Z) for Z in Zs]
        assert signs == [fraction_sign(Z) for Z in Zs]
        assert signs[:len(all_zetas)] == [-1] * len(all_zetas)

    def test_w12_is_minus_one(self):
        Z = compute_zeta(EnumeratorContext(W12, 2))
        assert functional_equation_sign(Z) == -1

    def test_w8_is_plus_one(self):
        Z = compute_zeta(EnumeratorContext(W8, 2))
        assert functional_equation_sign(Z) == 1

    def test_asymmetric_is_none(self):
        ctx = EnumeratorContext(HomogeneousPoly(4, [1, 0, 1, 0, 0]), 2)
        assert functional_equation_sign(ZetaPolynomial(UniPoly([1, 1]), ctx)) is None
        assert functional_equation_sign(ZetaPolynomial(UniPoly([1, 1, 1]), ctx)) is None

    def test_odd_degree_is_none(self):
        # odd n has no genus, so no functional equation to have a sign
        W = HomogeneousPoly.from_sparse(7, {0: 1, 3: 5, 7: 1})
        Z = compute_zeta(EnumeratorContext(W, 2))
        assert Z.g is None
        assert functional_equation_sign(Z) is None

    def test_fwe_dichotomy(self):
        for s, expected in ((1, 1), (2, 1), (3, 1)):
            Z = compute_zeta(EnumeratorContext(W8 ** s, 2))
            assert functional_equation_sign(Z) == expected
        for s in (1, 2):
            Z = compute_zeta(EnumeratorContext(W8 ** s * W12, 2))
            assert functional_equation_sign(Z) == -1
            assert Z.P.degree == 2 * Z.g
