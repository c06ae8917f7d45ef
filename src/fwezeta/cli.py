"""fwe-zeta: command line front end.

Exit codes: 0 success or property verified, 1 verification failure,
2 usage or input error.  All configuration comes from flags; no
environment variables.  Exact values print as rational strings, numeric
values (roots, deviations) are labelled with the precision they carry.
Each cmd_* returns its report as (JSON payload, text lines, exit code);
main alone prints it, and maps exceptions to exit codes.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import mpmath as mp
from mpmath import libmp

from .analysis import (DEFAULT_PRECISION_BITS, DEFAULT_RH_TOLERANCE,
                       RootFindingError, check_divisibility, check_rh,
                       exact_sqrt2_multiplicities, mallows_sloane_bound,
                       verify_root_pairing)
from .files import (EnumeratorFormatError, enumerator_to_document,
                    load_golden_table, read_enumerator_file, write_document,
                    write_enumerator_file)
from .fwe import (build_extremal, check_invariance_g8,
                  is_formal_weight_enumerator, symmetry_checks)
from .zeta import (EnumeratorContext, compute_zeta, functional_equation_sign,
                   is_zeta_polynomial, macwilliams_transform)

MIN_GOLDEN_DEGREE = 12     # the smallest formal weight enumerator, W12
MAX_GOLDEN_DEGREE = 196


def _discard_stdout() -> None:
    """Point the stdout descriptor at os.devnull, so that the flush at
    interpreter exit cannot fail on it again (the Python signal module
    documentation's advice for a closed pipe).  An in-memory stdout has
    no descriptor and needs nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _half_notation(W) -> str:
    """Interior coefficients of the symmetric half form, A_d .. A_((n-4)/2)."""
    n = W.degree
    parts = [f"A_{i}={W.coefficient(i)}" for i in sorted(W.support())
             if 0 < i <= (n - 4) // 2]
    return " ".join(parts)


def _read_input(args):
    try:
        return read_enumerator_file(args.input)
    except OSError as e:
        raise EnumeratorFormatError(f"cannot read {args.input}: {e}") from e


def _write_output(write, value, path) -> None:
    """write(value, path) for --output; an unwritable path is a usage error."""
    try:
        write(value, path)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from e


def cmd_zeta(args) -> tuple:
    W = _read_input(args)
    ctx = EnumeratorContext(W, args.q)
    Z = compute_zeta(ctx)
    sign = functional_equation_sign(Z)
    coeffs = [str(c) for c in Z.P.coeffs]
    payload = {
        "n": ctx.n, "d": ctx.d, "q": ctx.q,
        "deg_P": Z.P.degree, "genus": Z.g, "sign": sign,
        "coefficients": coeffs,
    }
    lines = [
        f"n = {ctx.n}, d = {ctx.d}, q = {ctx.q}",
        f"deg P = {Z.P.degree}, g = {Z.g}",
        "P coefficients (ascending): " + ", ".join(coeffs),
        "functional equation sign: "
        + ("none (no functional equation)" if sign is None else str(sign)),
    ]
    if args.oracle:
        payload["oracle_agrees"] = agrees = is_zeta_polynomial(ctx, Z.P)
        lines.append(f"oracle agrees: {'yes' if agrees else 'NO'}")
    return payload, lines, 0 if payload.get("oracle_agrees", True) else 1


def cmd_transform(args) -> tuple:
    W = _read_input(args)
    T = macwilliams_transform(W, args.q)
    doc = enumerator_to_document(T)
    if args.output:
        _write_output(write_document, doc, args.output)
    return doc, [f"degree = {T.degree}", str(T)], 0


def cmd_check(args) -> tuple:
    W = _read_input(args)
    fc = is_formal_weight_enumerator(W)
    sym = symmetry_checks(W)
    inv = check_invariance_g8(W)
    payload = {
        "formal_weight_enumerator": fc.ok,
        "failures": list(fc.failures),
        "degree_mod_8_is_4": sym.degree_mod_8_is_4,
        "term_count_even": sym.term_count_even,
        "swap_symmetric": sym.swap_symmetric,
        "g8_invariant": inv,
    }
    tag = lambda b: "pass" if b else "FAIL"
    lines = [
        f"support on multiples of 4: {tag(fc.support_multiple_of_4)}",
        f"transform negates W:       {tag(fc.anti_invariant)}",
        f"degree = 4 (mod 8):        {tag(sym.degree_mod_8_is_4)}",
        f"even number of terms:      {tag(sym.term_count_even)}",
        f"symmetric in x, y:         {tag(sym.swap_symmetric)}",
        f"G8 invariant:              {tag(inv)}",
        f"formal weight enumerator:  {'yes' if fc.ok else 'no'}",
    ]
    for reason in fc.failures:
        lines.append(f"  reason: {reason}")
    return payload, lines, 0 if fc.ok else 1


def cmd_extremal(args) -> tuple:
    comb = build_extremal(args.degree)
    payload = {
        "degree": comb.degree, "d": comb.d,
        "combination": [{"s": e.s, "t": e.t, "coefficient": str(c)}
                        for e, c in comb.terms],
        "coefficients": enumerator_to_document(comb.expanded)["coefficients"],
    }
    lines = [f"extremal formal weight enumerator, degree {comb.degree}, d = {comb.d}"]
    lines += [f"  {c} * {e}" for e, c in comb.terms]
    lines.append(_half_notation(comb.expanded))
    if args.output:
        _write_output(write_enumerator_file, comb.expanded, args.output)
        lines.append(f"wrote {args.output}")
    return payload, lines, 0


def _rh_evidence(report) -> dict:
    """The certificate kind, and for a numeric one the root finder's
    iteration count and worst residual bound (None when exact), as a
    float rounded up so that it stays a bound."""
    rs = report.root_set
    return {
        "certificate": report.certificate,
        "iterations": rs.iterations if rs else None,
        "max_residual_bound": libmp.to_float(max(rs.residual_bounds)._mpf_,
                                             rnd=libmp.round_ceiling) if rs else None,
    }


def cmd_rh(args) -> tuple:
    W = _read_input(args)
    ctx = EnumeratorContext(W, args.q)
    Z = compute_zeta(ctx)
    report = check_rh(Z, args.tol, args.precision)
    evidence = _rh_evidence(report)
    payload = {
        "holds": report.holds,
        "target_modulus": report.target_modulus,
        "max_relative_deviation": report.max_relative_deviation,
        "precision_bits": args.precision,
        "offending_roots": [mp.nstr(z, 17) for z in report.offending_roots],
        **evidence,
    }
    if report.certificate == "exact":
        certificate = "certificate: exact (sign changes over Q, no root finding)"
    else:
        certificate = (f"certificate: numeric ({evidence['iterations']} Aberth "
                       f"iterations in {args.precision}-bit arithmetic, max "
                       f"residual bound {evidence['max_residual_bound']:.3e})")
    lines = [
        f"RH {'holds' if report.holds else 'FAILS'} "
        f"(target modulus 1/sqrt({ctx.q}) = {report.target_modulus:.12g})",
        certificate,
        f"max deviation of |root|*sqrt(q) from 1: {report.max_relative_deviation:.3e} "
        f"(tolerance {args.tol:.1e})",
    ]
    with mp.workprec(args.precision + 32):      # the precision the roots were found at
        for z in report.offending_roots:
            lines.append(f"  offending root: {mp.nstr(z, 17)}  |.| = {mp.nstr(abs(z), 17)}")
    return payload, lines, 0 if report.holds else 1


def cmd_divisibility(args) -> tuple:
    W = _read_input(args)
    report = check_divisibility(W)
    payload = {
        "passes": report.ok,
        "derivative_degree": report.derivative.degree,
        "factors": [{"name": f.name, "degree": f.degree, "divides": f.divides}
                    for f in report.factors],
        "quotient_degree": report.quotient.degree if report.quotient else None,
    }
    lines = [f"derivative xy(x^4-y^4)(D)W has degree {report.derivative.degree}"]
    for f in report.factors:
        lines.append(f"  {f.name} (degree {f.degree}): "
                     f"{'divides' if f.divides else 'DOES NOT divide'}")
    if report.quotient is not None:
        lines.append(f"full product divides; quotient degree {report.quotient.degree}")
    else:
        lines.append("full product DOES NOT divide")
    return payload, lines, 0 if report.ok else 1


def cmd_bound(args) -> tuple:
    bound = mallows_sloane_bound(args.kind, args.degree)
    return {"kind": args.kind, "n": args.degree, "bound": bound}, [f"{bound}"], 0


def _golden_map(max_degree: int):
    if not MIN_GOLDEN_DEGREE <= max_degree <= MAX_GOLDEN_DEGREE:
        raise ValueError(
            f"golden data covers degrees {MIN_GOLDEN_DEGREE} to "
            f"{MAX_GOLDEN_DEGREE}; got --max-degree {max_degree}")
    return {e.n: e for e in load_golden_table() if e.n <= max_degree}


def cmd_table(args) -> tuple:
    golden = _golden_map(args.max_degree)
    entries = []
    lines = []
    for n, entry in sorted(golden.items()):
        comb = build_extremal(n)
        diffs = []
        if comb.d != entry.d:
            diffs.append(f"d: built {comb.d}, golden {entry.d}")
        expected = entry.expand()
        if comb.expanded != expected:
            diffs += [f"A_{i}: built {a}, golden {b}" for i, (a, b) in
                      enumerate(zip(comb.expanded.coeffs, expected.coeffs)) if a != b]
        entries.append({"n": n, "d": comb.d, "match": not diffs, "diffs": diffs})
        status = "match" if not diffs else "MISMATCH " + "; ".join(diffs)
        lines.append(f"n={n} d={comb.d} {_half_notation(comb.expanded)} [{status}]")
    all_match = all(e["match"] for e in entries)
    return {"entries": entries, "all_match": all_match}, lines, 0 if all_match else 1


def _verify_degree(n: int, entry, precision: int, tol: float) -> dict:
    comb = build_extremal(n)
    W = comb.expanded
    checks, seconds = {}, {}

    @contextlib.contextmanager
    def timed(name):
        start = time.perf_counter()
        yield
        seconds[name] = time.perf_counter() - start

    with timed("defining_conditions"):
        checks["defining_conditions"] = is_formal_weight_enumerator(W).ok
    with timed("symmetry"):
        checks["symmetry"] = symmetry_checks(W).ok
    with timed("g8_invariance"):
        checks["g8_invariance"] = check_invariance_g8(W)
    with timed("golden_match"):
        checks["golden_match"] = comb.d == entry.d and entry.expand() == W
    ctx = EnumeratorContext(W, 2)
    Z = compute_zeta(ctx)
    with timed("oracle_agrees"):
        checks["oracle_agrees"] = is_zeta_polynomial(ctx, Z.P)
    with timed("sign_is_minus_one"):
        sign = functional_equation_sign(Z)
        checks["sign_is_minus_one"] = sign == -1
    with timed("deg_P_equals_2g"):
        checks["deg_P_equals_2g"] = Z.P.degree == 2 * Z.g
    with timed("sqrt2_multiplicities_odd"):
        mplus, mminus = exact_sqrt2_multiplicities(Z.P)
        checks["sqrt2_multiplicities_odd"] = mplus % 2 == 1 and mminus % 2 == 1
    with timed("root_product"):
        # P(0) / lead = -2^(-g), the product of the roots
        checks["root_product"] = -(2 ** Z.g) * Z.P.nums[0] == Z.P.nums[-1]
    with timed("root_pairing"):
        checks["root_pairing"] = sign == -1 and verify_root_pairing(Z)
    with timed("rh"):
        report = check_rh(Z, tol, precision)
        checks["rh"] = report.holds
    # bound_tight by the paper's route: every formal weight enumerator with
    # d >= 8 has the divisibility, whose quotient has degree n + 16 - 6d,
    # so no minimum index d + 4 fits once n + 16 - 6(d + 4) < 0
    if comb.d >= 8:
        with timed("divisibility"):
            divisibility = check_divisibility(W)
        with timed("bound_tight"):
            quotient = divisibility.quotient
            checks["bound_tight"] = quotient is not None and 0 <= quotient.degree < 24
        checks["divisibility"] = divisibility.ok
        seconds["divisibility"] = seconds.pop("divisibility")    # the keys' order
    else:
        with timed("bound_tight"):
            checks["bound_tight"] = n + 16 - 6 * (comb.d + 4) < 0
    return {"n": n, "d": comb.d, "max_rh_deviation": report.max_relative_deviation,
            **{f"rh_{k}": v for k, v in _rh_evidence(report).items()},
            "sqrt2_multiplicities": [mplus, mminus], "checks": checks,
            "check_seconds": seconds, "ok": all(checks.values())}


def cmd_verify_all(args) -> tuple:
    golden = _golden_map(args.max_degree)
    results = []
    lines = []
    for n, entry in sorted(golden.items()):
        res = _verify_degree(n, entry, args.precision, args.tol)
        results.append(res)
        timing = f"checks {sum(res['check_seconds'].values()):.3f} s"
        if res["ok"]:
            lines.append(f"n={n} d={res['d']}: ok (RH certificate "
                         f"{res['rh_certificate']}, max RH deviation "
                         f"{res['max_rh_deviation']:.2e}, {timing})")
        else:
            bad = [k for k, v in res["checks"].items() if not v]
            lines.append(f"n={n} d={res['d']}: FAIL [{', '.join(bad)}] ({timing})")
    all_ok = all(r["ok"] for r in results)
    lines.append("all degrees verified" if all_ok else "verification FAILED")
    return {"results": results, "ok": all_ok}, lines, 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, on the first call and not at import: each
    parse_args returns a fresh Namespace, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="fwe-zeta",
        description="Exact zeta polynomials and formal weight enumerators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, func, *, inp=False, out=False, q=False, degree=False,
            maxdeg=False, numeric=False, oracle=False):
        p = sub.add_parser(name, help=help_)
        if inp:
            p.add_argument("--input", required=True, help="enumerator JSON file")
        if out:
            p.add_argument("--output", help="write result to this path")
        if q:
            p.add_argument("--q", type=int, default=2, help="field size (default 2)")
        if degree:
            p.add_argument("--degree", type=int, required=True)
        if maxdeg:
            p.add_argument("--max-degree", dest="max_degree", type=int,
                           default=MAX_GOLDEN_DEGREE)
        if numeric:
            p.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                           help="working precision in bits (default 256)")
            p.add_argument("--tol", type=float, default=DEFAULT_RH_TOLERANCE,
                           help="modulus tolerance (default 1e-9)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="check P against its defining identity, on integers")
        p.set_defaults(func=func)
        return p

    add("zeta", "compute the zeta polynomial of an enumerator", cmd_zeta,
        inp=True, q=True, oracle=True)
    add("transform", "apply the MacWilliams transform", cmd_transform,
        inp=True, q=True, out=True)
    add("check", "test the formal weight enumerator conditions", cmd_check,
        inp=True)
    add("extremal", "construct the extremal enumerator of a degree",
        cmd_extremal, degree=True, out=True)
    add("rh", "check that all zeta roots have modulus 1/sqrt(q)", cmd_rh,
        inp=True, q=True, numeric=True)
    add("divisibility", "check the derivative divisibility property",
        cmd_divisibility, inp=True)
    p = add("bound", "print the minimum-index bound for a degree", cmd_bound)
    p.add_argument("kind", choices=("type2", "fwe"))
    p.add_argument("degree", type=int)
    add("table", "rebuild extremal enumerators and diff the golden table",
        cmd_table, maxdeg=True)
    add("verify-all", "run the complete verification pipeline per degree",
        cmd_verify_all, maxdeg=True, numeric=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except EnumeratorFormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (RootFindingError, ArithmeticError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except OSError as e:     # a pipe closed early, a full device
        _discard_stdout()
        print(f"error: cannot write stdout: {e.strerror or e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
