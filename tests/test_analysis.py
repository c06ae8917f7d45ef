import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwezeta import analysis
from fwezeta.algebra import (HomogeneousPoly, Matrix2, UniPoly,
                             apply_diff_operator, exact_divide)
from fwezeta.analysis import (RootFindingError, check_divisibility, check_rh,
                              chebyshev_grid, exact_sqrt2_multiplicities,
                              find_roots, mallows_sloane_bound,
                              self_reciprocal_reduction, verify_root_pairing)
from fwezeta.fwe import W8, W12, build_extremal
from fwezeta.zeta import EnumeratorContext, ZetaPolynomial, compute_zeta
from paper_identities import (check_operator_substitution, derivative_closed_form,
                              scaled_to_integers)

F = Fraction

DIFF_OP = HomogeneousPoly(6, [0, 1, 0, 0, 0, -1, 0])

# the W8^s W12^k of the RH table in the acceptance suite whose RH fails
RH_FALSE_PRODUCTS = [(3, 1), (0, 3), (4, 1), (1, 3), (5, 1), (2, 3),
                     (6, 1), (3, 3), (0, 5)]

# check_rh on each RH_FALSE_PRODUCTS entry as the circle-started Aberth
# found it: max_relative_deviation, then the real part and modulus of
# each offending root, ascending, as mp.nstr(., 17)
RH_FALSE_REPORTS = {
    (3, 1): (0.43243138155887156, [("0.49364094524166644", "0.49364094524166644"),
                                   ("1.012881943484693", "1.012881943484693")]),
    (0, 3): (0.41248584388475074, [("0.5006115878951369", "0.5006115878951369"),
                                   ("0.99877831854091038", "0.99877831854091038")]),
    (4, 1): (0.41522660794972555, [("0.4996420906832376", "0.4996420906832376"),
                                   ("1.0007163313968865", "1.0007163313968865")]),
    (1, 3): (0.4139386894756855, [("0.50009720113731079", "0.50009720113731079"),
                                  ("0.99980563551027732", "0.99980563551027732")]),
    (5, 1): (0.4142909773643642, [("0.49997263116554224", "0.49997263116554224"),
                                  ("1.0000547406652919", "1.0000547406652919")]),
    (2, 3): (0.4141732092391856, [("0.50001426739442021", "0.50001426739442021"),
                                  ("0.99997146602537052", "0.99997146602537052")]),
    (6, 1): (0.4142198574295364, [("0.49999777437135809", "0.49999777437135809"),
                                  ("1.0000044512770976", "1.0000044512770976")]),
    (3, 3): (0.4142079336792078, [("0.50000199005172903", "0.50000199005172903"),
                                  ("0.9999960199123831", "0.9999960199123831")]),
    (0, 5): (0.41421159288231973, [("0.50000069632111107", "0.50000069632111107"),
                                   ("0.9999986073597173", "0.9999986073597173")]),
}


def zeta_of(W, q=2):
    return compute_zeta(EnumeratorContext(W, q))


def zeta_with(P, q):
    """P as the zeta polynomial of a context with n = deg P and d = 1,
    so that genus(n, d) = deg P / 2 and the functional equation applies."""
    W = HomogeneousPoly.from_sparse(P.degree, {0: 1, 1: 1})
    return ZetaPolynomial(P, EnumeratorContext(W, q))


def deviations(roots, q):
    with mp.workprec(300):
        return [abs(abs(z) * mp.sqrt(q) - 1) for z in roots]


def full_degree_verdict(P, q, tolerance=1e-9):
    """RH on P as decided by Aberth on all of P, the numeric reference."""
    return all(dv <= tolerance for dv in deviations(find_roots(P).roots, q))


def from_pairs(c, q, m, ws):
    """c * (qT^2 - 1)^m * prod_i (qT^2 - q w_i T + 1)."""
    P = UniPoly([-1, 0, q]) ** m * c
    for w in ws:
        P = P * UniPoly([1, -q * w, q])
    return P


def matched_multisets(a, b, tolerance):
    """Whether the roots a and b pair off one to one, each pair within
    tolerance relative to max(1, |z|)."""
    b = list(b)
    if len(a) != len(b):
        return False
    for z in a:
        match = min(range(len(b)), key=lambda i: abs(b[i] - z))
        if abs(b.pop(match) - z) > tolerance * max(1, abs(z)):
            return False
    return True


_root_values = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def real_polynomials(draw):
    """Ascending coefficients of c T^z prod (T - r_i) prod (T^2 + b_j T + e_j)
    of degree 1..19: up to two roots at 0, one to eight distinct nonzero
    real r_i with sometimes the first one twice, and distinct quadratics
    with complex roots, so that no root is triple."""
    zeros = draw(st.integers(0, 2))
    reals = draw(st.lists(_root_values.filter(bool), min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        reals.append(reals[0])
    pairs = draw(st.lists(st.tuples(_root_values, _root_values.map(lambda e: e * e + 1)),
                          max_size=4, unique=True))
    lead = draw(st.fractions(min_value=1, max_value=5, max_denominator=7))
    P = UniPoly([0] * zeros + [lead * draw(st.sampled_from((1, -1)))])
    for r in reals:
        P = P * UniPoly([-r, 1])
    for b, e in pairs:
        if b * b < 4 * e:
            P = P * UniPoly([e, b, 1])
    return list(P.coeffs)


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

    @settings(max_examples=40, deadline=None)
    @given(real_polynomials())
    @example([F(10) ** 400 * c for c in (-6, 11, -6, 1)])     # (T-1)(T-2)(T-3)
    def test_double_start_matches_circle_start(self, coeffs):
        # the double-precision stage only moves where the multiprecision
        # iteration starts, so both starts must find the same roots
        P = UniPoly(coeffs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_aberth_double", lambda nums, den: None)
            circle = find_roots(P)
        assert matched_multisets(find_roots(P).roots, circle.roots, 1e-30)

    def test_double_start_beyond_double_range(self):
        # one power of two brings 10^400-scaled coefficients into range; a
        # coefficient that still underflows, or a root beyond double range,
        # leaves the start to the circle
        huge = [10 ** 400 * c for c in (-6, 11, -6, 1)]
        assert analysis._aberth_double(huge, 1) is not None
        spread = [10 ** 400, 1, 10 ** 400]                  # 1 + T/10^400 + T^2
        assert analysis._aberth_double(spread, 10 ** 400) is None
        assert analysis._aberth_double([2 ** 1070, 1], 2 ** 1070) is None
        rs = find_roots(UniPoly([1, F(1, 10 ** 400), 1]))
        assert matched_multisets(rs.roots, [mp.mpc(0, 1), mp.mpc(0, -1)], 1e-30)
        rs = find_roots(UniPoly([1, F(1, 2 ** 1070)]))
        assert matched_multisets(rs.roots, [mp.mpc(-2 ** 1070)], 1e-30)

    def test_huge_denominator_keeps_the_double_start(self):
        # n_i 2^t / den, t = bit_length(den) - max bit_length(n_i), keeps
        # each coefficient in double range; n_i / den alone underflows
        # here, and from the circle (T-1)(T-2)(T-3)/3^1000 takes 8 sweeps
        # instead of 2.  The comparison divides by 3 too: with den = 1 the
        # coefficients are exact doubles, and one sweep is enough
        P = UniPoly([F(c, 3 ** 1000) for c in (-6, 11, -6, 1)])
        assert analysis._aberth_double(P.nums, P.den) is not None
        rs = find_roots(P)
        assert rs.iterations == find_roots(UniPoly([F(c, 3) for c in (-6, 11, -6, 1)])).iterations
        assert matched_multisets(rs.roots, [mp.mpc(1), mp.mpc(2), mp.mpc(3)], 1e-30)

    @pytest.mark.parametrize("n0, nD", [(10 ** 400, 1), (1, 2 ** 1070)])
    @pytest.mark.parametrize("deg", [1, 2, 5])
    def test_circle_start_beyond_double_range(self, n0, nD, deg):
        # the circle is built on integers, so ends that no double holds
        # still give deg distinct points of modulus |n_0 / n_D|^(1/deg)
        points = analysis._aberth_initial([n0] + [0] * (deg - 1) + [nD])
        assert len(points) == len(set(points)) == deg
        with mp.workprec(200):
            radius = (mp.mpf(n0) / nD) ** (mp.mpf(1) / deg)
            for a, b, e in points:
                modulus = mp.ldexp(mp.hypot(a, b), e)
                assert abs(modulus / radius - 1) < mp.ldexp(1, -40)

    def test_relative_stop_on_roots_of_any_size(self):
        # roots +-1e-91, three of modulus 2.3e-30 and one near 8.9e336:
        # rounding alone moves the largest by about 1e250, so a step test
        # not relative to the root's modulus never stopped
        coeffs = ["-1e-84", "-9e-316", "1e98", "4e53", "3e34", "-8e186", "9e-151"]
        rs = find_roots(UniPoly([F(c) for c in coeffs]))
        with mp.workprec(300):
            c = [mp.mpf(x) for x in coeffs]
            # each root from the two terms that dominate near it; the
            # others change it by less than 1e-70 relatively
            tiny = mp.sqrt(-c[0] / c[2])
            cube = mp.cbrt(-c[2] / c[5])
            expected = ([tiny, -tiny, -c[5] / c[6]]
                        + [cube * mp.expj(2 * mp.pi * k / 3) for k in range(3)])
            assert len(rs.roots) == len(expected)
            for z in rs.roots:
                match = min(range(len(expected)), key=lambda i: abs(expected[i] - z))
                assert abs(expected[match] - z) < mp.mpf(10) ** -60 * abs(z)
                expected.pop(match)
        assert all(r < mp.mpf(10) ** -80 for r in rs.residual_bounds)

    def test_triple_root_at_one(self):
        # (T - 1)^3 stalls from the circle but converges from the double
        # start, to within the 2^-(bits/3) that a triple root allows
        rs = find_roots(UniPoly([-1, 3, -3, 1]))
        assert all(abs(z - 1) < 1e-25 for z in rs.roots)


# a part m 2^x of a chosen root: m rational of height at most 7, and
# |x| <= 296, so that the moduli lie between 2^-300 and 2^300
_root_mantissas = st.fractions(min_value=-7, max_value=7, max_denominator=7)
_root_scales = st.integers(-296, 296).map(lambda x: F(2) ** x)


@st.composite
def chosen_roots(draw):
    """Distinct exact roots (re, im), both of each conjugate pair listed:
    one to six rational reals and up to three pairs (u +- vi) 2^x, v > 0."""
    roots = {(draw(_root_mantissas.filter(bool)) * draw(_root_scales), F(0))
             for _ in range(draw(st.integers(1, 6)))}
    for _ in range(draw(st.integers(0, 3))):
        x = draw(_root_scales)
        u, v = draw(_root_mantissas) * x, draw(_root_mantissas.filter(lambda v: v > 0)) * x
        roots |= {(u, v), (u, -v)}
    return sorted(roots)


class TestPolishedRoots:
    @settings(max_examples=60, deadline=None)
    @given(chosen_roots(), st.sampled_from((53, 128, 256)))
    # the double stage leaves two points collapsed together, far from
    # both roots, and the step test alone passed them at 53 bits
    @example([(F(1), F(0)), (F(2) ** 94, F(0))], 53)
    @example([(F(-1, 2 ** 51), F(0)), (F(2) ** 298, F(0))], 53)
    # both points ended at the small root while the far one's term in
    # N'/N was below the rounding
    @example([(F(3, 2 ** 297), F(0)), (F(3 * 2 ** 47), F(0))], 53)
    def test_finds_chosen_roots(self, roots, bits):
        # the integer polish finds every known root to the stop test's
        # 2^-(bits/2) relative, and bounds every residual from above
        P = UniPoly([1])
        for re, im in roots:
            if im > 0:
                P = P * UniPoly([re * re + im * im, -2 * re, 1])
            elif not im:
                P = P * UniPoly([-re, 1])
        rs = find_roots(P, bits)
        assert len(rs.roots) == len(roots)
        with mp.workprec(8 * bits):
            known = [mp.mpc(mp.mpf(re.numerator) / re.denominator,
                            mp.mpf(im.numerator) / im.denominator) for re, im in roots]
            for z in rs.roots:
                match = min(range(len(known)), key=lambda i: abs(known[i] - z))
                root = known.pop(match)
                assert abs(root - z) <= mp.ldexp(abs(root), -(bits // 2)), (root, z)
            for z, bound in zip(rs.roots, rs.residual_bounds):
                value = mp.polyval([mp.mpf(n) for n in reversed(P.nums)], z)
                scale = sum(abs(mp.mpf(n)) * abs(z) ** i for i, n in enumerate(P.nums))
                assert abs(value) / scale <= bound

    def test_collapsed_points_do_not_pass(self, monkeypatch):
        # from the circle, the first sweep sends both points of
        # (T - 1)(T - 2^200) to one place far from either root, where each
        # step is about their distance: the step test alone stopped there
        # at 53 and 128 bits
        monkeypatch.setattr(analysis, "_aberth_double", lambda nums, den: None)
        P = UniPoly([2 ** 200, -2 ** 200 - 1, 1])
        for bits in (53, 128):
            rs = find_roots(P, bits)
            assert matched_multisets(rs.roots, [mp.mpc(1), mp.mpc(2 ** 200)], 2.0 ** -(bits // 2))

    def test_multiple_roots_converge_or_raise(self):
        # on (2T^2 - 1)^3 (2T^2 - 2T/3 + 1)(2T^2 - 5T + 1) the mpc steps
        # stalled for 1000 sweeps; the integer ones reach N = 0 exactly at
        # every point, within the 2^-(288/3) that a triple root allows
        P = from_pairs(F(1), 2, 3, [F(1, 3), F(-1, 2)])
        with mp.workprec(300):
            fixed = 1 / mp.sqrt(2)
            known = [fixed, -fixed] * 3
            for w in (mp.mpf(1) / 3, mp.mpf(-1) / 2):
                root = mp.sqrt(mp.mpc(w * w - 2))
                known += [(w + root) / 2, (w - root) / 2]
            assert matched_multisets(find_roots(P).roots, known, 1e-28)
        # an eightfold root still stalls, and says how far it last moved
        with pytest.raises(RootFindingError,
                           match=r"^no convergence after 1000 iterations "
                                 r"\(last update \d\.\d{4}e-\d+\)$"):
            find_roots(UniPoly([-1, 1]) ** 8)


@st.composite
def end_nonzero_ints(draw):
    """Ascending int coefficients of degree 1..40 with both end ones
    nonzero, all of up to 8, 80 or 1400 bits (10^400 has 1329)."""
    size = draw(st.sampled_from((2 ** 8, 2 ** 80, 2 ** 1400)))
    coeff = st.integers(-size, size)
    ends = coeff.filter(bool)
    return [draw(ends)] + draw(st.lists(coeff, max_size=39)) + [draw(ends)]


# one part m 2^x of a dyadic Gaussian point: m signed and often 0
_dyadic_parts = st.tuples(st.one_of(st.just(0), st.integers(-2 ** 200, 2 ** 200)),
                          st.integers(-2000, 2000))


class TestResidualBound:
    @settings(max_examples=200, deadline=None)
    @given(end_nonzero_ints(), _dyadic_parts, _dyadic_parts, st.sampled_from((53, 120, 288)))
    @example([1, 0, 1], (0, 0), (1, 0), 288)                  # the exact root i
    @example([2 ** 1070, 1], (-1, 1070), (0, 0), 288)         # the exact root -2^1070
    @example([10 ** 400 * c for c in (-6, 11, -6, 1)], (3, 0), (0, 0), 288)
    @example([10 ** 400 * c for c in (-6, 11, -6, 1)], (3, 0), (1, -300), 288)
    @example([10 ** 400, 1, 10 ** 400], (0, 0), (1, 0), 288)  # 1 + T/10^400 + T^2 at i
    def test_bounds_the_ratio_within_its_error_term(self, nums, re, im, prec):
        # the integer kernel bounds |N(z)| / sum |n_i| |z|^i from above, and
        # by no more than 16 D 2^-F before its result is rounded up at prec
        with mp.workprec(prec):
            z = mp.mpc(mp.ldexp(*re), mp.ldexp(*im))
        bound = analysis._residual_bound(nums, analysis._dyadic(z), prec)
        deg = len(nums) - 1
        F = prec + deg.bit_length() + analysis._GUARD_BITS
        with mp.workprec(8 * prec):
            value = mp.polyval([mp.mpf(n) for n in reversed(nums)], z)
            ratio = abs(value) / sum(abs(mp.mpf(n)) * abs(z) ** i for i, n in enumerate(nums))
            assert ratio <= bound
            assert bound <= (ratio + 16 * deg * mp.ldexp(1, -F)) * (1 + mp.ldexp(1, 1 - prec))

    def test_rh_false_products_bound_every_root(self):
        # at the parent, 157 of these 390 bounds (mpc Horner at 288 bits)
        # read below the exact ratio, the largest of W8^3 W12 among them
        for s, k in RH_FALSE_PRODUCTS:
            Z = zeta_of(W8 ** s * W12 ** k)
            rs = check_rh(Z).root_set
            with mp.workprec(4000):
                for z, bound in zip(rs.roots, rs.residual_bounds):
                    value = mp.polyval([mp.mpf(n) for n in reversed(Z.P.nums)], z)
                    scale = sum(abs(mp.mpf(n)) * abs(z) ** i for i, n in enumerate(Z.P.nums))
                    assert abs(value) / scale <= bound, (s, k)


class TestCheckRh:
    def test_w12_holds(self):
        rep = check_rh(zeta_of(W12))
        assert rep.holds and rep.max_relative_deviation < 1e-9
        assert rep.offending_roots == ()
        assert rep.certificate == "exact" and rep.root_set is None

    def test_w8_cubed_w12_fails(self):
        rep = check_rh(zeta_of(W8 ** 3 * W12))
        assert not rep.holds
        assert rep.offending_roots
        assert rep.max_relative_deviation > 0.1
        assert rep.certificate == "numeric"
        # the roots of R, of degree g - m, mapped back: all 2g roots of P
        assert len(rep.root_set.roots) == 30
        assert max(rep.root_set.residual_bounds) < mp.mpf(2) ** -200

    def test_certificate_kinds(self, all_zetas):
        for n, Z in all_zetas.items():
            assert check_rh(Z).certificate == "exact", f"n={n}"
        for s, k in [(0, 1), (1, 1), (2, 1)]:
            assert check_rh(zeta_of(W8 ** s * W12 ** k)).certificate == "exact"
        for s, k in RH_FALSE_PRODUCTS:
            assert check_rh(zeta_of(W8 ** s * W12 ** k)).certificate == "numeric"

    def test_rh_false_products_name_full_degree_roots(self):
        # the offending roots found through R of degree g - m are those of
        # Aberth on all of P, as a multiset, to 1e-30
        for s, k in RH_FALSE_PRODUCTS:
            Z = zeta_of(W8 ** s * W12 ** k)
            rep = check_rh(Z)
            full = find_roots(Z.P).roots
            reference = [z for z, dv in zip(full, deviations(full, 2)) if dv > 1e-9]
            assert len(rep.offending_roots) == len(reference) > 0, (s, k)
            for z in rep.offending_roots:
                match = min(range(len(reference)), key=lambda i: abs(reference[i] - z))
                assert abs(reference.pop(match) - z) < 1e-30, (s, k)

    def test_rh_false_products_keep_their_reports(self):
        # the start of Aberth moves the iteration count, the residual bounds
        # and the rounding noise in the imaginary parts, and nothing else
        assert list(RH_FALSE_REPORTS) == RH_FALSE_PRODUCTS
        for (s, k), (deviation, roots) in RH_FALSE_REPORTS.items():
            rep = check_rh(zeta_of(W8 ** s * W12 ** k))
            assert not rep.holds, (s, k)
            assert len(rep.offending_roots) == len(roots), (s, k)
            assert rep.max_relative_deviation == deviation, (s, k)
            with mp.workprec(288):
                found = sorted(rep.offending_roots, key=lambda z: z.real)
                assert [(mp.nstr(z.real, 17), mp.nstr(abs(z), 17))
                        for z in found] == roots, (s, k)

    def test_rejects_low_precision_on_either_path(self):
        # the exact path computes no roots, yet must validate like the numeric one
        for W in (W12, W8 ** 3 * W12):
            with pytest.raises(ValueError):
                check_rh(zeta_of(W), precision_bits=16)

    def test_odd_degree_takes_full_degree_path(self):
        # n odd: no functional equation, Aberth runs on P itself
        Z = zeta_of(HomogeneousPoly.from_sparse(7, {0: 1, 3: 5, 7: 1}))
        rep = check_rh(Z)
        assert rep.certificate == "numeric"
        assert rep.root_set == find_roots(Z.P)

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


_ws = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def moved_sign_minus_one(draw):
    """(q, P, moved): P = c (qT^2 - 1) prod (qT^2 - q w_i T + 1) of sign -1
    with up to three distinct w_i off the boundary q w^2 = 4, so that every
    root is simple, and moved = P with one coefficient below the top moved."""
    q = draw(st.sampled_from((2, 3, 4)))
    ws = draw(st.lists(_ws.filter(lambda w: q * w * w != 4), max_size=3, unique=True))
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
    P = from_pairs(c, q, 1, ws)
    i = draw(st.integers(0, P.degree - 1))
    delta = draw(st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool))
    return q, P, P + UniPoly([0] * i + [delta])


def pairing_of(Z):
    return verify_root_pairing(Z)


class TestRootPairing:
    def test_p12(self):
        assert pairing_of(zeta_of(W12))

    def test_holds_even_when_rh_fails(self):
        assert pairing_of(zeta_of(W8 ** 3 * W12))

    def test_requires_sign_minus_one(self):
        with pytest.raises(ValueError):
            pairing_of(zeta_of(W8))

    @settings(max_examples=25, deadline=None)
    @given(moved_sign_minus_one())
    def test_functional_equation_is_the_pairing(self, case):
        # the lemma behind verify_root_pairing: the roots of a sign -1 P
        # are closed under z -> 1/(qz), and moving one coefficient below
        # the top one breaks the sign -1 equation, so the check raises
        q, P, moved = case
        roots = find_roots(P).roots
        with mp.workprec(300):
            images = [1 / (q * z) for z in roots]
        assert matched_multisets(roots, images, 1e-25)
        assert pairing_of(zeta_with(P, q))
        with pytest.raises(ValueError):
            pairing_of(zeta_with(moved, q))


@st.composite
def paired_polynomials(draw):
    """(q, m, ws, P) with P = c (qT^2 - 1)^m prod (qT^2 - q w_i T + 1):
    up to three w_i, inside and outside (-2/sqrt(q), 2/sqrt(q)), sometimes
    one of them twice, never on the boundary (where the root of P at
    +-1/sqrt(q) would be triple and Aberth on P would not converge)."""
    q = draw(st.sampled_from((2, 3, 4)))
    m = draw(st.sampled_from((1, 3, 5)))
    ws = draw(st.lists(_ws.filter(lambda w: q * w * w != 4), max_size=3, unique=True))
    if ws and len(ws) < 3 and draw(st.booleans()):
        ws.append(ws[0])
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
    return q, m, ws, from_pairs(c, q, m, ws)


def fraction_divide_out(P, q):
    """_divide_out_quadratic's former form, kept as its reference: (m, Q)
    with P = (qT^2 - 1)^m Q, m maximal, by repeated Fraction long
    division."""
    if P.is_zero():
        raise ValueError("the zero polynomial has no such factorisation")
    quadratic = UniPoly([-1, 0, q])
    m = 0
    while True:
        quot, rem = divmod(P, quadratic)
        if not rem.is_zero():
            return m, P
        P, m = quot, m + 1


def integer_divide_out(P, q):
    """_divide_out_quadratic on P scaled to integers, with the quotient
    scaled back: the shape of fraction_divide_out's answer."""
    den, p = scaled_to_integers(P.coeffs)
    m, b = analysis._divide_out_quadratic(p, q)
    return m, UniPoly([F(c, den) for c in b])


def two_pass_reduction(P, q):
    """The reference for self_reciprocal_reduction: a symmetry predicate
    b_(k+i) = q^i b_(k-i) on the quotient Q, then R = b_k + sum_i
    b_(k+i) s_i(w) with s_0 = 2, s_1 = w, s_(i+1) = w s_i - s_(i-1)/q."""
    m, Q = fraction_divide_out(P, q)
    k, b = Q.degree // 2, Q.coeffs
    if Q.degree % 2 or any(b[k + i] != q ** i * b[k - i] for i in range(1, k + 1)):
        raise ValueError("P has no functional equation under T -> 1/(qT)")
    w = UniPoly([0, 1])
    R = UniPoly([b[k]])
    s_prev, s = UniPoly([2]), w
    for i in range(1, k + 1):
        R = R + s * b[k + i]
        s_prev, s = s, w * s - s_prev * F(1, q)
    return m, R


def re_expand(m, R, q):
    """The reference inverse of self_reciprocal_reduction:
    (qT^2 - 1)^m T^k R(T + 1/(qT)) with k = deg R, expanded over Q by
    Horner in w through T^k w^i = T^(k-i) (T^2 + 1/q)^i."""
    k = R.degree
    lift = UniPoly([F(1, q), 0, 1])          # T^2 + 1/q = T * w
    expanded = UniPoly([R.coefficient(k)])
    for i in range(k - 1, -1, -1):
        expanded = expanded * lift + UniPoly([0] * (k - i) + [R.coefficient(i)])
    return UniPoly([-1, 0, q]) ** m * expanded


def reduction_outcome(reduce, P, q):
    """reduce(P, q), or ValueError when it raises one."""
    try:
        return reduce(P, q)
    except ValueError:
        return ValueError


_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def reduction_inputs(draw, kinds=("exact", "exact", "perturbed", "random")):
    """(q, P): P = (qT^2 - 1)^m T^k R(T + 1/(qT)) for m <= 3, deg R <= 8,
    expanded through T^k w^i = T^(k-i) (T^2 + 1/q)^i; sometimes with one
    coefficient moved, sometimes a plain random P instead, as drawn from
    kinds."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return q, UniPoly(draw(st.lists(_coefficients, min_size=1, max_size=20)))
    m = draw(st.integers(0, 3))
    r = draw(st.lists(_coefficients, min_size=1, max_size=9))
    r[-1] = r[-1] or F(1)
    k = len(r) - 1
    lift = UniPoly([F(1, q), 0, 1])
    Q = UniPoly([])
    for i, ri in enumerate(r):
        Q = Q + UniPoly([0] * (k - i) + [ri]) * lift ** i
    P = UniPoly([-1, 0, q]) ** m * Q
    if kind == "perturbed":
        i = draw(st.integers(0, P.degree))
        delta = draw(_coefficients.filter(bool))
        P = P + UniPoly([0] * i + [delta])
    return q, P


class TestSelfReciprocalReduction:
    @settings(max_examples=300, deadline=None)
    @given(reduction_inputs())
    def test_matches_two_pass_reference(self, case):
        q, P = case
        assert (reduction_outcome(self_reciprocal_reduction, P, q)
                == reduction_outcome(two_pass_reduction, P, q))

    def test_matches_two_pass_reference_on_enumerators(self, all_zetas):
        Ps = [Z.P for Z in all_zetas.values()]
        Ps += [zeta_of(W8 ** s * W12 ** t).P
               for s in range(4) for t in range(4) if s or t]
        for P in Ps:
            assert (reduction_outcome(self_reciprocal_reduction, P, 2)
                    == reduction_outcome(two_pass_reduction, P, 2))

    # verify_root_pairing reads the pairing off the functional equation,
    # so it no longer re-expands the reduction; this reference does
    @settings(max_examples=100, deadline=None)
    @given(reduction_inputs(kinds=("exact",)))
    def test_re_expands_to_p(self, case):
        q, P = case
        assert re_expand(*self_reciprocal_reduction(P, q), q) == P

    def test_re_expands_to_p_on_enumerators(self, all_zetas):
        Ps = [Z.P for Z in all_zetas.values()]
        Ps += [zeta_of(W8 ** s * W12 ** t).P
               for s in range(4) for t in range(4) if s or t]
        for P in Ps:
            assert re_expand(*self_reciprocal_reduction(P, 2), 2) == P

    @settings(max_examples=25, deadline=None)
    @given(paired_polynomials())
    def test_constructed_products(self, case):
        q, m, ws, P = case
        c = P.coefficient(P.degree) / q ** (m + len(ws))
        R = UniPoly([c * q ** len(ws)])
        for w in ws:
            R = R * UniPoly([-w, 1])
        assert self_reciprocal_reduction(P, q) == (m, R)
        Z = zeta_with(P, q)
        assert verify_root_pairing(Z)
        report = check_rh(Z)
        if report.certificate == "exact":
            assert all(q * w * w < 4 for w in ws) and len(set(ws)) == len(ws)
        # Aberth on P stalls at a triple root +-1/sqrt(q), so for m >= 3 the
        # reference is P with m = 1; roots of modulus 1/sqrt(q) exactly
        # cannot change the verdict
        reference = P if m == 1 else from_pairs(c, q, 1, ws)
        assert report.holds == full_degree_verdict(reference, q)

    def test_triple_fixed_roots_decided(self):
        # full-degree Aberth on this P may stall on the triple roots, and
        # when it does converge its roots must be the known ones; the
        # reduction divides (2T^2 - 1)^3 out exactly and certifies the rest
        P = from_pairs(F(1), 2, 3, [F(1, 3), F(-1, 2)])
        try:
            found = find_roots(P).roots
        except RootFindingError:
            found = None
        if found is not None:
            with mp.workprec(300):
                fixed = 1 / mp.sqrt(2)
                known = [fixed, -fixed] * 3
                for w in (mp.mpf(1) / 3, mp.mpf(-1) / 2):
                    # the roots of 2T^2 - 2wT + 1
                    root = mp.sqrt(mp.mpc(w * w - 2))
                    known += [(w + root) / 2, (w - root) / 2]
                assert matched_multisets(found, known, 1e-25)
        report = check_rh(zeta_with(P, 2))
        assert report.holds and report.certificate == "exact"

    def test_grid_point_is_exact_root(self, monkeypatch):
        # roots of R on the first grid itself are skipped as zeros; in the
        # second case a root shares a grid interval with a grid root, so
        # the first grid alone does not certify and only a refined grid
        # separates them
        k = 3
        grid = [F(a, 2 ** 40) for a in chebyshev_grid(2, 2 * k + 2)]
        on_grid = from_pairs(F(1), 2, 1, [grid[1], grid[4], grid[6]])
        report = check_rh(zeta_with(on_grid, 2))
        assert report.holds and report.certificate == "exact"
        shared = from_pairs(F(1), 2, 1, [grid[1], (grid[1] + grid[2]) / 2, grid[6]])
        _, R = self_reciprocal_reduction(shared, 2)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "CERTIFICATE_DOUBLINGS", 0)
            assert not analysis._certify_on_circle(R, 2)
        report = check_rh(zeta_with(shared, 2))
        assert report.holds and report.certificate == "exact"

    def test_grid_resolves_huge_q(self):
        # with 40 bits every grid point for q = 2^90 rounded to 0
        R = UniPoly([0, F(-1, 2 ** 45), 1])
        assert analysis._certify_on_circle(R, 2 ** 90)
        assert {analysis._grid_bits(q) for q in (2, 3, 4, 5, 7, 2 ** 16 - 1)} == {40}

    def test_boundary_root_falls_back(self):
        # q = 4, w = 1 = 2/sqrt(q): T = 1/2 is a double root of the
        # quotient, on the circle, but w is not strictly inside the interval
        P = from_pairs(F(1), 4, 1, [F(1), F(1, 3)])
        report = check_rh(zeta_with(P, 4))
        assert report.certificate == "numeric" and report.holds

    def test_sign_plus_one(self):
        # W8 and W8^2 have sign +1: m = 0 and Q = P
        rep = check_rh(zeta_of(W8))
        assert self_reciprocal_reduction(zeta_of(W8).P, 2) == (0, UniPoly([F(2, 5), F(2, 5)]))
        assert rep.certificate == "exact" and rep.holds
        Z = zeta_of(W8 ** 2)
        assert check_rh(Z).holds == full_degree_verdict(Z.P, 2)

    def test_rejects_polynomial_without_functional_equation(self):
        with pytest.raises(ValueError):
            self_reciprocal_reduction(UniPoly([1, 1, 1]), 2)


@st.composite
def unit_divisions(draw):
    """(a, b, c): b ascending ints with b_0 = 1, a nonzero top and sparse
    entries; a the product b c of an int c, as it is (c given) or with one
    entry moved (c None), or ints drawn alone (c None), shorter than b too."""
    top = draw(st.integers(1, 6))
    b = ([1] + draw(st.lists(st.sampled_from([0, 0, 0, -4, -1, 1, 3]),
                             min_size=top - 1, max_size=top - 1))
         + [draw(st.integers(-5, 5).filter(bool))])
    kind = draw(st.sampled_from(["exact", "perturbed", "alone"]))
    if kind == "alone":
        return draw(st.lists(st.integers(-9, 9), max_size=10)), b, None
    c = draw(st.lists(st.integers(-9, 9), max_size=8))
    a = [sum(b[j] * c[i - j] for j in range(len(b)) if 0 <= i - j < len(c))
         for i in range(len(b) + len(c) - 1)] if c else []
    if kind == "exact" or not a:
        return a, b, c
    a[draw(st.integers(0, len(a) - 1))] += draw(st.integers(-3, 3).filter(bool))
    return a, b, None


class TestDivideUnit:
    @settings(max_examples=300, deadline=None)
    @given(unit_divisions())
    @example(([], [1, 0, -2], []))
    @example(([0, 0], [1, 0, -2], None))
    @example(([0] * 6, [1, 0, 0, 0, -1], None))
    @example(([5], [1, 3], None))
    def test_matches_long_division(self, case):
        # the reference is UniPoly's long division from the top, over Q
        a, b, c = case
        before = list(a)
        got = analysis._divide_unit(a, b)
        assert a == before
        quot, rem = divmod(UniPoly(a), UniPoly(b))
        if c is not None:
            assert got == c
        assert (got is None) == (not rem.is_zero())
        if got is not None:
            assert len(got) == max(len(a) - len(b) + 1, 0)
            assert UniPoly(got) == quot


@st.composite
def quadratic_powers(draw):
    """(q, a, C, P) with P = (qT^2 - 1)^a C and C a nonzero polynomial
    that qT^2 - 1 does not divide."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    a = draw(st.integers(0, 4))
    quadratic = UniPoly([-1, 0, q])
    coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                      min_size=1, max_size=7)
    C = draw(coeffs.map(UniPoly).filter(
        lambda C: not divmod(C, quadratic)[1].is_zero()))
    return q, a, C, quadratic ** a * C


@st.composite
def factorised_polynomials(draw):
    """P = (qT^2 - 1)^m T^k R(T + 1/(qT)) (q'T^2 - 1)^b, k = deg R, for
    q in (2, 3) and q' = 5 - q the other one; b is often 0, and P then has
    the functional equation under T -> 1/(qT)."""
    q = draw(st.sampled_from((2, 3)))
    m, b = draw(st.integers(0, 3)), draw(st.sampled_from((0, 0, 1, 2)))
    r = draw(st.lists(_coefficients, min_size=1, max_size=6))
    r[-1] = r[-1] or F(1)
    return re_expand(m, UniPoly(r), q) * UniPoly([-1, 0, 5 - q]) ** b


class TestDivideOutQuadratic:
    @settings(max_examples=200, deadline=None)
    @given(quadratic_powers())
    def test_recovers_power_and_cofactor(self, case):
        q, a, C, P = case
        assert integer_divide_out(P, q) == fraction_divide_out(P, q) == (a, C)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 7]),
           st.lists(_coefficients, min_size=1, max_size=12).map(UniPoly)
           .filter(lambda P: not P.is_zero()))
    def test_matches_fraction_form(self, q, P):
        # mostly m = 0, where the remainder test alone decides
        assert integer_divide_out(P, q) == fraction_divide_out(P, q)

    def test_matches_fraction_form_on_enumerators(self, all_zetas):
        for Z in all_zetas.values():
            for q in (2, 3):
                assert integer_divide_out(Z.P, q) == fraction_divide_out(Z.P, q)

    def test_zero_raises(self):
        for q in (2, 3, 4, 5):
            with pytest.raises(ValueError):
                analysis._divide_out_quadratic([], q)
            with pytest.raises(ValueError):
                analysis._divide_out_quadratic([0, 0, 0], q)

    def test_shared_by_sqrt2_check_and_reduction(self, monkeypatch):
        # exact_sqrt2_multiplicities and the reduction of the same P
        # divide once between them; another P, or another q, divides again
        calls = []
        original = analysis._divide_out_quadratic

        def counted(p, q):
            calls.append(q)
            return original(p, q)
        monkeypatch.setattr(analysis, "_divide_out_quadratic", counted)
        P, other = zeta_of(W12).P, zeta_of(W8 * W12).P
        assert exact_sqrt2_multiplicities(P) == (1, 1)
        assert self_reciprocal_reduction(P, 2)[0] == 1
        assert calls == [2]
        self_reciprocal_reduction(other, 2)
        exact_sqrt2_multiplicities(other)
        assert calls == [2, 2]
        reduction_outcome(self_reciprocal_reduction, other, 3)
        assert calls == [2, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(factorised_polynomials(), factorised_polynomials())
    def test_shared_entry_matches_by_value(self, first, second):
        # the shared division is cached by value: equal but distinct
        # copies of P, at q = 2, 3, 2 and interleaved with a second
        # polynomial, get the answers of references that do not read it,
        # and a reduction asked twice in a row gives the same R
        Ps = [first, second]
        expected = [(integer_divide_out(P, 2)[0],
                     {q: reduction_outcome(two_pass_reduction, P, q) for q in (2, 3)})
                    for P in Ps]
        for q in (2, 3, 2):
            for P, (m, reductions) in zip(Ps, expected):
                copy = UniPoly(P.coeffs)
                assert copy == P and copy is not P
                assert exact_sqrt2_multiplicities(copy) == (m, m)
                for _ in range(2):
                    assert (reduction_outcome(self_reciprocal_reduction,
                                              UniPoly(P.coeffs), q) == reductions[q])


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


def fraction_divisibility(derivative, d):
    """check_divisibility's former form on a given derivative, kept as its
    reference: exact_divide by the full product and by each factor, all
    built by HomogeneousPoly powers over Q."""
    factors = [HomogeneousPoly(2, [0, 1, 0]) ** (d - 5),
               HomogeneousPoly(4, [1, 0, 0, 0, -1]) ** (d - 5),
               HomogeneousPoly(4, [1, 0, 0, 0, 1]),
               HomogeneousPoly(4, [1, 0, 6, 0, 1])]
    product = HomogeneousPoly(0, [1])
    for poly in factors:
        product = product * poly
    return (exact_divide(derivative, product),
            [exact_divide(derivative, poly) is not None for poly in factors])


@st.composite
def divisibility_cases(draw):
    """(n, extra): an extremal degree n = 36..60 and a homogeneous extra of
    degree n - 6 to add to its derivative: zero, or a scaled product of
    drawn powers of the four factors (up to one past the divisor's), of
    x and of y, and a random cofactor, so that any subset of the factors
    may divide, and y^(d-5) may divide where x^(d-5) does not."""
    n = draw(st.sampled_from([36, 44, 52, 60]))
    N, e = n - 6, build_extremal(n).d - 5
    if draw(st.booleans()):
        return n, HomogeneousPoly(N, [0] * (N + 1))
    extra = HomogeneousPoly(0, [draw(_coefficients.filter(bool))])
    for poly, most in ((HomogeneousPoly(1, [1, 0]), e + 1),
                       (HomogeneousPoly(1, [0, 1]), e + 1),
                       (HomogeneousPoly(2, [0, 1, 0]), e + 1),
                       (HomogeneousPoly(4, [1, 0, 0, 0, -1]), e + 1),
                       (HomogeneousPoly(4, [1, 0, 0, 0, 1]), 2),
                       (HomogeneousPoly(4, [1, 0, 6, 0, 1]), 2)):
        for _ in range(draw(st.integers(0, most))):
            if extra.degree + poly.degree <= N:
                extra = extra * poly
    rest = N - extra.degree
    cofactor = draw(st.lists(st.integers(-3, 3), min_size=rest + 1, max_size=rest + 1))
    return n, extra * HomogeneousPoly(rest, cofactor)


class TestDivisibility:
    @settings(max_examples=80, deadline=None)
    @given(divisibility_cases())
    def test_matches_fraction_form(self, case):
        n, extra = case
        W = build_extremal(n).expanded
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "apply_diff_operator",
                          lambda op, W: apply_diff_operator(op, W) + extra)
            rep = check_divisibility(W)
        quotient, flags = fraction_divisibility(rep.derivative, build_extremal(n).d)
        assert rep.quotient == quotient
        assert [f.divides for f in rep.factors] == flags
        assert rep.ok == (quotient is not None)


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

    # x^30, x^22 (x^4+y^4)(x^4+6x^2y^2+y^4), which the last two factors
    # divide but (xy)^3 and (x^4-y^4)^3 do not, and y^30, which y^3
    # divides but x^3 does not
    @pytest.mark.parametrize("extra", [
        HomogeneousPoly.from_sparse(30, {0: 1}),
        HomogeneousPoly.from_sparse(22, {0: 1}) * HomogeneousPoly(4, [1, 0, 0, 0, 1])
        * HomogeneousPoly(4, [1, 0, 6, 0, 1]),
        HomogeneousPoly.from_sparse(30, {30: 1}),
    ])
    def test_failing_product_divides_each_factor(self, monkeypatch, extra):
        # with the full product failing, each factor's verdict is its own
        # exact division
        monkeypatch.setattr(analysis, "apply_diff_operator",
                            lambda op, W: apply_diff_operator(op, W) + extra)
        rep = check_divisibility(build_extremal(36).expanded)
        assert not rep.ok and rep.quotient is None
        factors = [HomogeneousPoly(2, [0, 1, 0]) ** 3,
                   HomogeneousPoly(4, [1, 0, 0, 0, -1]) ** 3,
                   HomogeneousPoly(4, [1, 0, 0, 0, 1]),
                   HomogeneousPoly(4, [1, 0, 6, 0, 1])]
        assert [f.degree for f in rep.factors] == [poly.degree for poly in factors]
        assert [f.divides for f in rep.factors] == [
            exact_divide(rep.derivative, poly) is not None for poly in factors]

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
        rhs = apply_diff_operator(DIFF_OP, substitute_linear(W12, Matrix2(M.a, M.c, M.b, M.d)))
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
            check_operator_substitution(W12, W8, Matrix2(1, 0, 0, 1))


class TestBounds:
    def test_fwe_36(self):
        assert mallows_sloane_bound("fwe", 36) == 8 == build_extremal(36).d

    def test_fwe_60(self):
        assert mallows_sloane_bound("fwe", 60) == 12

    def test_type2_24(self):
        assert mallows_sloane_bound("type2", 24) == 8

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
