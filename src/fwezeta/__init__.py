"""Exact zeta polynomials for weight-enumerator-like polynomials, formal
weight enumerators in the rational invariant ring of G8, and the
verification suite around them: functional equation signs, root modulus
checks, exact root multiplicities, derivative divisibility and the
sharpened minimum-index bound."""

from .algebra import HomogeneousPoly, UniPoly, apply_diff_operator
from .analysis import (DivisibilityReport, RhReport, RootFindingError,
                       RootSet, check_divisibility, check_rh,
                       exact_sqrt2_multiplicities, find_roots,
                       mallows_sloane_bound, self_reciprocal_reduction)
from .files import (EnumeratorFormatError, GoldenTableEntry,
                    load_golden_table, read_enumerator_file,
                    write_enumerator_file)
from .fwe import (W8, W12, FweBasisElement, FweCheck, FweCombination,
                  build_extremal, check_invariance_g8, enumerate_basis,
                  extremal_min_index, is_formal_weight_enumerator,
                  symmetry_checks)
from .zeta import (EnumeratorContext, ZetaPolynomial, compute_zeta,
                   functional_equation_sign, genus, is_zeta_polynomial,
                   macwilliams_transform, min_weight_index)

__version__ = "0.1.0"
