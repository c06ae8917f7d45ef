import random
from fractions import Fraction

import mpmath as mp
import pytest

from fwezeta.algebra import HomogeneousPoly, Matrix2, UniPoly, apply_diff_operator
from fwezeta.analysis import (check_divisibility, check_operator_substitution,
                              check_rh, derivative_closed_form,
                              exact_sqrt2_multiplicities, find_roots,
                              mallows_sloane_bound, verify_root_pairing)
from fwezeta.fwe import W8, W12, build_extremal
from fwezeta.zeta import EnumeratorContext, compute_zeta

F = Fraction

DIFF_OP = HomogeneousPoly(6, [0, 1, 0, 0, 0, -1, 0])


def zeta_of(W, q=2):
    return compute_zeta(EnumeratorContext(W, q))


class TestFindRoots:
    def test_quadratic(self):
        rs = find_roots(UniPoly([-1, 0, 2]))    # 2T^2 - 1
        vals = sorted(float(z.real) for z in rs.roots)
        assert vals == pytest.approx([-0.7071067811865476, 0.7071067811865476])
        assert all(abs(z.imag) < 1e-60 for z in rs.roots)

    def test_integer_roots(self):
        rs = find_roots(UniPoly([2, -3, 1]))    # (T-1)(T-2)
        vals = sorted(float(z.real) for z in rs.roots)
        assert vals == pytest.approx([1.0, 2.0])

    def test_p12_moduli(self):
        rs = find_roots(zeta_of(W12).P)
        assert len(rs.roots) == 6
        with mp.workprec(300):
            target = 1 / mp.sqrt(2)
            assert all(abs(abs(z) - target) < mp.mpf(10) ** -50 for z in rs.roots)

    def test_conjugate_symmetry_and_residuals(self):
        rs = find_roots(zeta_of(W8 * W12).P)
        assert len(rs.roots) == 14
        assert all(r < mp.mpf(2) ** -200 for r in rs.residual_bounds)
        with mp.workprec(300):
            for z in rs.roots:
                assert any(abs(z.conjugate() - w) < mp.mpf(10) ** -50
                           for w in rs.roots)

    def test_root_at_zero(self):
        rs = find_roots(UniPoly([0, 0, -1, 2]))   # T^2 (2T - 1)
        zeros = [z for z in rs.roots if z == 0]
        assert len(zeros) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            find_roots(UniPoly([5]))
        with pytest.raises(ValueError):
            find_roots(UniPoly([1, 1]), precision_bits=16)


class TestCheckRh:
    def test_w12_holds(self):
        rep = check_rh(zeta_of(W12))
        assert rep.holds and rep.max_relative_deviation < 1e-9
        assert rep.offending_roots == ()

    def test_w8_cubed_w12_fails(self):
        rep = check_rh(zeta_of(W8 ** 3 * W12))
        assert not rep.holds
        assert rep.offending_roots
        assert rep.max_relative_deviation > 0.1

    def test_extremal_36_holds(self):
        rep = check_rh(zeta_of(build_extremal(36).expanded))
        assert rep.holds

    def test_monotone_in_tolerance(self):
        Z = zeta_of(W8 ** 3 * W12)
        assert not check_rh(Z, 1e-9).holds
        assert check_rh(Z, 10.0).holds

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_tolerance(self, tolerance):
        with pytest.raises(ValueError):
            check_rh(zeta_of(W8 ** 3 * W12), tolerance)


def pairing_of(Z):
    return verify_root_pairing(Z, find_roots(Z.P))


class TestRootPairing:
    def test_p12(self):
        assert pairing_of(zeta_of(W12))

    def test_holds_even_when_rh_fails(self):
        assert pairing_of(zeta_of(W8 ** 3 * W12))

    def test_unpaired_root_set(self):
        # the multiset {1} is not closed under alpha -> 1/(2*alpha)
        from fwezeta.analysis import roots_pair_up
        assert not roots_pair_up([mp.mpc(1)], 2, 1e-6)
        assert roots_pair_up([mp.mpc(1), mp.mpc(0.5)], 2, 1e-6)

    def test_requires_sign_minus_one(self):
        with pytest.raises(ValueError):
            pairing_of(zeta_of(W8))


class TestSqrt2Multiplicities:
    def test_paper_shaped_fixtures(self):
        assert exact_sqrt2_multiplicities(zeta_of(W12).P) == (1, 1)
        assert exact_sqrt2_multiplicities(zeta_of(W8 ** 2 * W12).P) == (1, 1)

    def test_constructed_powers(self):
        # cofactors with no root at +-1/sqrt(2): 1, T, T - 1, 2T^2 + 1, T^3 + T + 1
        cofactors = [UniPoly([1]), UniPoly([0, 1]), UniPoly([-1, 1]),
                     UniPoly([1, 0, 2]), UniPoly([1, 1, 0, 1])]
        for a in range(6):
            for C in cofactors:
                p = UniPoly([-1, 0, 2]) ** a * C
                assert exact_sqrt2_multiplicities(p) == (a, a), (a, C)

    def test_no_sqrt2_roots(self):
        assert exact_sqrt2_multiplicities(UniPoly([1, 1])) == (0, 0)
        assert exact_sqrt2_multiplicities(UniPoly([])) == (0, 0)

    def test_product_of_roots_rule(self):
        for W in (W12, W8 * W12, W8 ** 3 * W12):
            Z = zeta_of(W)
            g = Z.g
            P = Z.P
            assert P.coefficient(0) / P.coefficient(P.degree) == F(-1, 2 ** g)


class TestDivisibility:
    def test_extremal_36(self):
        rep = check_divisibility(build_extremal(36).expanded)
        assert rep.ok
        assert rep.derivative.degree == 30
        # factors (xy)^3 (x^4-y^4)^3 (x^4+y^4)(x^4+6x^2y^2+y^4): degree 26
        assert sum(f.degree for f in rep.factors) == 26
        assert rep.quotient is not None and rep.quotient.degree == 4

    def test_extremal_60(self):
        rep = check_divisibility(build_extremal(60).expanded)
        assert rep.ok
        assert sum(f.degree for f in rep.factors) == 50
        assert rep.derivative.degree == 54

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            check_divisibility(W12)

    def test_non_fwe_rejected(self):
        with pytest.raises(ValueError):
            check_divisibility(W8)


class TestOperatorSubstitution:
    def test_swap_case(self):
        p = HomogeneousPoly(1, [1, 0])
        A = HomogeneousPoly(2, [1, 0, 0])
        M = Matrix2(F(0), F(1), F(1), F(0))
        assert check_operator_substitution(p, A, M)

    def test_w12_transform_case(self):
        M = Matrix2(F(1), F(1), F(1), F(-1))
        assert check_operator_substitution(DIFF_OP, W12, M)
        # under this matrix the right side collapses to -(sqrt 2)^12 p(D) W12
        from fwezeta.algebra import substitute_linear
        rhs = apply_diff_operator(DIFF_OP, substitute_linear(W12, M, "row"))
        assert rhs == -64 * apply_diff_operator(DIFF_OP, W12)

    def test_randomized_suite(self):
        rng = random.Random(61)
        for _ in range(500):
            dega = rng.randint(1, 10)
            degp = rng.randint(0, dega)
            p = HomogeneousPoly(degp, [F(rng.randint(-4, 4)) for _ in range(degp + 1)])
            A = HomogeneousPoly(dega, [F(rng.randint(-4, 4)) for _ in range(dega + 1)])
            M = Matrix2(*[F(rng.randint(-3, 3)) for _ in range(4)])
            assert check_operator_substitution(p, A, M)

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            check_operator_substitution(W12, W8, Matrix2.identity())


class TestBounds:
    def test_fwe_36(self):
        rep = mallows_sloane_bound("fwe", 36, observed_d=8)
        assert rep.bound == 8 and rep.tight

    def test_fwe_60(self):
        assert mallows_sloane_bound("fwe", 60).bound == 12

    def test_type2_24(self):
        assert mallows_sloane_bound("type2", 24).bound == 8

    def test_congruence_validation(self):
        with pytest.raises(ValueError):
            mallows_sloane_bound("type2", 12)
        with pytest.raises(ValueError):
            mallows_sloane_bound("fwe", 24)
        with pytest.raises(ValueError):
            mallows_sloane_bound("dual", 24)


class TestClosedFormOracle:
    def test_w12(self):
        assert derivative_closed_form(W12) == apply_diff_operator(DIFF_OP, W12)

    def test_extremal_36(self):
        W = build_extremal(36).expanded
        assert derivative_closed_form(W) == apply_diff_operator(DIFF_OP, W)

    def test_pure_powers_boundary(self):
        # x^n + y^n alone: the mixed partials annihilate both terms, so the
        # formula's empty interior sum and the direct operator both give zero
        W = HomogeneousPoly.from_sparse(12, {0: 1, 12: 1})
        out = derivative_closed_form(W)
        assert out.is_zero() and out.degree == 6
        assert apply_diff_operator(DIFF_OP, W) == out

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            derivative_closed_form(W8)
        with pytest.raises(ValueError):
            derivative_closed_form(HomogeneousPoly.from_sparse(12, {0: 1, 4: 3, 12: 1}))
