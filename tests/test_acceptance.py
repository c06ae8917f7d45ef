"""Acceptance suite: one test per numbered criterion, each printing a
PASS line (with timing where the criterion carries a runtime budget).
Run with `pytest tests/test_acceptance.py -v -s`.

All comparisons of exact quantities are exact rational equality; the only
tolerances anywhere are the documented root-modulus ones (1e-9 at 256-bit
precision).
"""
import random
import time
from fractions import Fraction

import pytest

from fwezeta.algebra import HomogeneousPoly, Matrix2, UniPoly, apply_diff_operator
from fwezeta.analysis import (check_divisibility, check_rh,
                              exact_sqrt2_multiplicities, mallows_sloane_bound)
from fwezeta.files import load_golden_table
from fwezeta.fwe import (W8, W12, check_invariance_g8,
                         is_formal_weight_enumerator, symmetry_checks)
from fwezeta.zeta import (EnumeratorContext, compute_zeta,
                          functional_equation_sign, macwilliams_transform,
                          zeta_oracle)
from paper_identities import (W24_PRIME, check_operator_substitution,
                              derivative_closed_form)

F = Fraction

# the twelve products W8^s W12^k of the small-degree RH table, with the
# expected Riemann hypothesis verdicts (True for the three extremal ones)
PRODUCT_ROWS = [
    (0, 1, True), (1, 1, True), (2, 1, True),
    (3, 1, False), (0, 3, False),
    (4, 1, False), (1, 3, False),
    (5, 1, False), (2, 3, False),
    (6, 1, False), (3, 3, False), (0, 5, False),
]


@pytest.fixture(scope="module")
def product_zetas():
    out = {}
    for s, k, rh in PRODUCT_ROWS:
        W = W8 ** s * W12 ** k
        out[(s, k)] = (compute_zeta(EnumeratorContext(W, 2)), rh)
    return out


def expand_factors(*factors):
    out = UniPoly([1])
    for f in factors:
        out = out * UniPoly(f)
    return out


def test_criterion_1_golden_table():
    from fwezeta.fwe import build_extremal
    t0 = time.time()
    table = load_golden_table()
    built = {entry.n: build_extremal(entry.n) for entry in table}
    assert sorted(built) == list(range(12, 197, 8))
    for entry in table:
        comb = built[entry.n]
        assert comb.d == entry.d
        assert comb.expanded == entry.expand(), f"mismatch at n={entry.n}"
    anchors = {12: (4, -33), 36: (16, -111573), 100: (48, -331136219602650),
               196: (96, -69281975548885761832168515738)}
    for n, (idx, val) in anchors.items():
        assert built[n].expanded.coefficient(idx) == val
    print(f"\nCRITERION 1 PASS: golden table reproduced exactly for all "
          f"24 degrees ({time.time() - t0:.1f}s, budget 120s)")


def test_criterion_2_zeta_fixtures(all_zetas):
    base = [[-1, 0, 2], [1, 0, 2], [1, 2, 2]]            # 2T^2-1, 2T^2+1, 2T^2+2T+1
    p12 = expand_factors(*base) * F(1, 15)
    assert compute_zeta(EnumeratorContext(W12, 2)).P == p12

    p20 = expand_factors(*base, [1, 0, 0, 0, 0, 0, 0, 0, 16]) * F(1, 255)
    assert compute_zeta(EnumeratorContext(W8 * W12, 2)).P == p20

    p28 = expand_factors(*base, [1, 0, -2, 0, 4], [1, 0, 2, 0, 4],
                         [1, 2, 2, 4, 4], [1, -2, 2, -4, 4]) * F(1, 4095)
    assert compute_zeta(EnumeratorContext(W8 ** 2 * W12, 2)).P == p28

    deg20 = [195, 1170, 4290, 11700, 26311, 50950, 88136, 139548, 208096,
             299272, 424720, 598544, 832384, 1116384, 1410176, 1630400,
             1683904, 1497600, 1098240, 599040, 199680]
    p36 = expand_factors([-1, 0, 2], deg20) * F(1, 11920740)
    Z36 = all_zetas[36]
    assert Z36.P == p36
    assert Z36.P.coefficient(0) == F(-195, 11920740)
    assert Z36.P.coefficient(22) == F(2 * 199680, 11920740)
    print("\nCRITERION 2 PASS: zeta fixtures P12, P20, P28, P36 match exactly")


def test_criterion_3_oracle_equivalence(all_zetas):
    for W, q in ((W12, 2), (W8, 2), (W8 * W12, 2)):
        ctx = EnumeratorContext(W, q)
        assert zeta_oracle(ctx).P == compute_zeta(ctx).P
    ctx36 = EnumeratorContext(all_zetas[36].context.W, 2)
    assert zeta_oracle(ctx36).P == all_zetas[36].P

    rng = random.Random(101)
    count = 0
    while count < 50:
        n = rng.randint(2, 16)
        coeffs = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9))
                           if rng.random() < 0.6 else F(0) for _ in range(n)]
        if not any(coeffs[1:]):
            continue
        ctx = EnumeratorContext(HomogeneousPoly(n, coeffs), rng.choice([2, 3, 4]))
        assert zeta_oracle(ctx).P == compute_zeta(ctx).P
        count += 1
    print("\nCRITERION 3 PASS: oracle equivalence on fixtures and 50 "
          "randomized enumerators")


def test_criterion_4_functional_equation_dichotomy(all_zetas, product_zetas):
    for Z, _ in product_zetas.values():
        assert functional_equation_sign(Z) == -1
        assert Z.P.degree == 2 * Z.g
    for n, Z in all_zetas.items():
        assert functional_equation_sign(Z) == -1, f"n={n}"
        assert Z.P.degree == 2 * Z.g
    for s in (1, 2):
        Z = compute_zeta(EnumeratorContext(W8 ** s, 2))
        assert functional_equation_sign(Z) == 1
    print("\nCRITERION 4 PASS: sign -1 with deg P = 2g on every formal "
          "weight enumerator; sign +1 on W8 and W8^2")


def test_criterion_5_rh_truth_table(all_zetas, product_zetas):
    t0 = time.time()
    for (s, k), (Z, expected) in product_zetas.items():
        report = check_rh(Z, tolerance=1e-9, precision_bits=256)
        assert report.holds == expected, f"W8^{s} W12^{k}"
    for n in (36, 44, 52, 60):
        assert check_rh(all_zetas[n], 1e-9, 256).holds
    for n, Z in sorted(all_zetas.items()):
        report = check_rh(Z, tolerance=1e-9, precision_bits=256)
        assert report.holds, f"extremal n={n}"
    print(f"\nCRITERION 5 PASS: RH verdict table (3 T + 9 F products, all "
          f"extremal T) reproduced ({time.time() - t0:.1f}s, budget 300s)")


def test_criterion_6_sqrt2_parity(all_zetas, product_zetas):
    for W in (W12, W8 * W12, W8 ** 2 * W12):
        Z = compute_zeta(EnumeratorContext(W, 2))
        assert exact_sqrt2_multiplicities(Z.P) == (1, 1)
    assert exact_sqrt2_multiplicities(all_zetas[36].P) == (1, 1)

    for source in (product_zetas.values(), ((z, None) for z in all_zetas.values())):
        for Z, _ in source:
            mp_, mm = exact_sqrt2_multiplicities(Z.P)
            assert mp_ % 2 == 1 and mm % 2 == 1
            g = Z.g
            assert Z.P.coefficient(0) / Z.P.coefficient(Z.P.degree) == F(-1, 2 ** g)
    print("\nCRITERION 6 PASS: odd multiplicities at +-1/sqrt(2) and exact "
          "a0/a2g = -1/2^g throughout")


def test_criterion_7_divisibility(all_extremals):
    t0 = time.time()
    for n in range(36, 197, 8):
        report = check_divisibility(all_extremals[n].expanded)
        assert report.ok, f"n={n}"
    print(f"\nCRITERION 7 PASS: derivative divisibility for all extremal "
          f"enumerators 36 <= n <= 196 ({time.time() - t0:.1f}s)")


def test_criterion_8_bound_tightness(all_extremals, product_zetas):
    for n, comb in all_extremals.items():
        assert mallows_sloane_bound("fwe", n) == comb.d, f"n={n}"
    for (s, k), (Z, _) in product_zetas.items():
        n = Z.context.n
        assert Z.context.d == 4
        assert 4 <= mallows_sloane_bound("fwe", n)
    print("\nCRITERION 8 PASS: extremal d attains the bound at every degree; "
          "product fixtures respect it")


def test_criterion_9_structural_suite(all_extremals, product_zetas):
    t0 = time.time()
    assert W8 ** 3 - W12 ** 2 == 108 * W24_PRIME

    fixtures = [W8 ** s * W12 ** k for s, k, _ in PRODUCT_ROWS]
    for W in fixtures:
        assert is_formal_weight_enumerator(W).ok
        assert symmetry_checks(W).ok
    for comb in all_extremals.values():
        assert is_formal_weight_enumerator(comb.expanded).ok
        assert symmetry_checks(comb.expanded).ok

    assert check_invariance_g8(W8) and check_invariance_g8(W12)
    for comb in all_extremals.values():
        assert check_invariance_g8(comb.expanded)

    rng = random.Random(103)
    for W in (W8, W12):
        assert macwilliams_transform(macwilliams_transform(W, 2), 2) == W
    for _ in range(20):
        n = rng.randrange(2, 13, 2)
        W = HomogeneousPoly(n, [F(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(n + 1)])
        q = rng.choice([2, 3, 4])
        assert macwilliams_transform(macwilliams_transform(W, q), q) == W

    for _ in range(500):
        dega = rng.randint(1, 10)
        degp = rng.randint(0, dega)
        p = HomogeneousPoly(degp, [F(rng.randint(-4, 4)) for _ in range(degp + 1)])
        A = HomogeneousPoly(dega, [F(rng.randint(-4, 4)) for _ in range(dega + 1)])
        M = Matrix2(*[F(rng.randint(-3, 3)) for _ in range(4)])
        assert check_operator_substitution(p, A, M)

    diff_op = HomogeneousPoly(6, [0, 1, 0, 0, 0, -1, 0])
    assert derivative_closed_form(W12) == apply_diff_operator(diff_op, W12)
    for comb in all_extremals.values():
        assert derivative_closed_form(comb.expanded) == \
            apply_diff_operator(diff_op, comb.expanded)
    print(f"\nCRITERION 9 PASS: structural property suite, all exact "
          f"({time.time() - t0:.1f}s)")
