"""Guards on what the package loads, what the exact RH certificate runs
on, what the headline command and the extremal builder may call, the
functions the benchmark traces, where the command line front end may
print to stdout, that no module of the package holds state of its own
behind a `global` statement (test_src_has_no_global_statement) or reads
mpmath's global precision (test_src_reads_no_ambient_precision), that
every private name defined in the package has a caller there
(test_src_private_names_have_a_caller), that no command runs the dense
solve of the defining system, that `rh` bounds each root's residual on
integers, with no mpc or mpf arithmetic
(test_rh_bounds_residuals_on_integers), that it polishes roots with no
mpc or mpf arithmetic either (test_rh_polishes_roots_on_integers), that
find_roots builds no Fraction and runs no mp arithmetic from either
start (test_find_roots_reads_only_integers), how many
multiprecision Aberth sweeps the RH-false products may take, how often
the headline command finds the sign, reduces P and divides the
derivative, which product every polynomial multiplication runs, how
often `main` builds its parser, and that no integer kernel of the
headline command constructs a Fraction."""
import argparse
import ast
import collections
import fractions
import functools
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import fwezeta
from fwezeta import algebra, analysis, cli, fwe, zeta
from fwezeta.fwe import W8, W12
from fwezeta.files import write_enumerator_file

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_cli_import_loads_no_heavy_modules():
    # start-up time of every command: the CLI must not pull in numpy,
    # sympy or scipy, directly or through a dependency
    code = ("import sys, fwezeta.cli; "
            "print(' '.join(m for m in ('numpy', 'sympy', 'scipy') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_certificate_runs_on_rationals_and_integers():
    # the exact path of check_rh must not touch mpmath: its functions
    # name only fractions, math and integer arithmetic
    for fn in (zeta.ZetaPolynomial._sign.func, analysis._divide_unit,
               analysis._divide_out_quadratic, analysis._factorisation,
               analysis.self_reciprocal_reduction, analysis._grid_bits,
               analysis.chebyshev_grid, analysis._certify_on_circle):
        assert "mp" not in inspect.unwrap(fn).__code__.co_names, fn.__name__


def test_benchmark_spans_name_existing_functions():
    # the traced benchmark wraps each (module, function) of perfbench/spec.py
    # with getattr, so a renamed or deleted function must fail here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    spec = importlib.util.spec_from_file_location("perfbench_spec", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.SPANS
    for module_name, function in module.SPANS:
        package = importlib.import_module(f"fwezeta.{module_name}")
        assert callable(getattr(package, function, None)), f"{module_name}.{function}"


def test_no_command_runs_the_dense_solve(monkeypatch, tmp_path, capsys):
    # verify-all and zeta --oracle check P by the O(N^2) integer identity;
    # the O(N^3) dense solve is the tests' reference only, so no command
    # reaches it under any name, and neither cli nor the package exports
    # carry it or its error
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve in a command")
    monkeypatch.setattr(zeta, "zeta_oracle", refuse)
    monkeypatch.setattr(zeta, "solve_linear", refuse)
    monkeypatch.setattr(algebra, "solve_linear", refuse)
    assert cli.main(["verify-all", "--max-degree", "36"]) == 0
    path = str(tmp_path / "e196.json")
    write_enumerator_file(fwe.build_extremal(196).expanded, path)
    capsys.readouterr()
    assert cli.main(["zeta", "--input", path, "--oracle"]) == 0
    assert capsys.readouterr().out.endswith("oracle agrees: yes\n")
    assert cli.main(["zeta", "--input", path, "--oracle", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True
    assert not hasattr(cli, "zeta_oracle") and not hasattr(cli, "SingularMatrixError")
    for name in ("zeta_oracle", "solve_linear", "SingularMatrixError"):
        assert not hasattr(fwezeta, name), name


def test_transform_runs_no_substitution(monkeypatch, tmp_path):
    # the MacWilliams transform runs the integer Krawtchouk recurrence;
    # check and divisibility must not reach the polynomial substitution,
    # under whatever name a module imported it
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial substitution in the transform")
    for module in (algebra, analysis, fwe, zeta):
        if hasattr(module, "substitute_linear"):
            monkeypatch.setattr(module, "substitute_linear", refuse)
    zeta.macwilliams_transform.cache_clear()     # a cached W would hide it
    path = tmp_path / "e36.json"
    write_enumerator_file(fwe.build_extremal(36).expanded, path)
    assert cli.main(["check", "--input", str(path)]) == 0
    assert cli.main(["divisibility", "--input", str(path)]) == 0


def test_extremal_runs_no_polynomial_product(monkeypatch):
    # the extremal builder multiplies int tuples in u = (y/x)^4; extremal
    # and table must not reach the Fraction polynomial product
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction polynomial product in the extremal builder")
    fwe._power.cache_clear()     # a cached product would hide it
    monkeypatch.setattr(algebra._DensePoly, "__mul__", refuse)
    assert cli.main(["extremal", "--degree", "196"]) == 0
    assert cli.main(["table", "--max-degree", "196"]) == 0


def test_extremal_runs_no_linear_solve(monkeypatch):
    # the extremal conditions are unitriangular in the basis
    # W12 W8^(a-3j) W24'^j and are solved by back substitution on ints;
    # extremal and table must not reach the Fraction linear solver,
    # under whatever name a module imported it
    def refuse(*args, **kwargs):
        raise AssertionError("linear solve in the extremal builder")
    for module in (algebra, zeta, fwe):
        if hasattr(module, "solve_linear"):
            monkeypatch.setattr(module, "solve_linear", refuse)
    assert cli.main(["extremal", "--degree", "196"]) == 0
    assert cli.main(["table", "--max-degree", "196"]) == 0


def test_only_main_prints_to_stdout():
    # commands return their report and main alone prints it, so that a
    # failed stdout is handled in one place; a print without file= outside
    # main would write part of a report before the exit code is known
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    stdout_prints = [node for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "print"
                     and not any(kw.arg == "file" for kw in node.keywords)]
    assert stdout_prints
    for node in stdout_prints:
        assert id(node) in in_main, f"print to stdout at cli.py line {node.lineno}"


def test_src_has_no_global_statement():
    # every memo is a functools cache on an immutable value, so no
    # module of the package keeps state that a function rebinds
    sources = sorted(Path(fwezeta.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rebinds = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert rebinds == [], f"global statement in {path.name} at lines {rebinds}"


def test_src_reads_no_ambient_precision():
    # every kernel takes its precision as an argument, so none depends on
    # what mpmath's global context was last set to
    sources = sorted(Path(fwezeta.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        lines = path.read_text(encoding="utf-8").splitlines()
        reads = [i for i, line in enumerate(lines, 1) if "mp.mp.prec" in line]
        assert reads == [], f"mp.mp.prec in {path.name} at lines {reads}"


def test_src_private_names_have_a_caller():
    # a private function, method, class or module constant is there for
    # the package's own code, so something in src/ must load it
    defined, loaded = {}, set()
    for path in sorted(Path(fwezeta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined.update((t.id, path.name) for t in targets if isinstance(t, ast.Name))
    private = {name: module for name, module in defined.items()
               if name.startswith("_") and not name.endswith("__")}
    assert private
    assert {name: module for name, module in private.items()
            if name not in loaded} == {}


# the W8^s W12^k up to degree 108 whose RH fails
RH_FALSE_PRODUCTS = [(3, 1), (0, 3), (4, 1), (1, 3), (5, 1), (2, 3),
                     (6, 1), (3, 3), (0, 5)]


def _zeta(s, k):
    return zeta.compute_zeta(zeta.EnumeratorContext(W8 ** s * W12 ** k, 2))


def test_rh_on_w12_cubed_polishes_a_double_start():
    # Aberth starts from a double-precision solve, so the 256-bit loop on
    # the degree-14 R of W12^3 only polishes: 10 sweeps from the circle
    assert analysis.check_rh(_zeta(0, 3)).root_set.iterations <= 4


def test_full_degree_roots_of_rh_false_products_polish_a_double_start():
    # on all of P the circle start took 131-143 sweeps at 256 bits
    for s, k in RH_FALSE_PRODUCTS:
        assert analysis.find_roots(_zeta(s, k).P).iterations <= 25, (s, k)


def test_rh_bounds_residuals_on_integers(monkeypatch, tmp_path):
    # rh on W12^3 bounds the residual of every root by the integer kernel:
    # no mpc or mpf product or sum inside it
    path = tmp_path / "w12cubed.json"
    write_enumerator_file(W12 ** 3, path)
    calls, arithmetic, inside = collections.Counter(), collections.Counter(), []
    kernel = analysis._residual_bound

    def bound(nums, z, prec):
        calls["_residual_bound"] += 1
        inside.append(True)
        try:
            return kernel(nums, z, prec)
        finally:
            inside.pop()

    def counted(name, op):
        def wrapper(self, other):
            arithmetic[name] += bool(inside)
            return op(self, other)
        return wrapper

    for cls in (mp.mpc, mp.mpf):
        for op in ("__mul__", "__add__"):
            monkeypatch.setattr(cls, op, counted(f"{cls.__name__}.{op}", getattr(cls, op)))
    monkeypatch.setattr(analysis, "_residual_bound", bound)
    assert cli.main(["rh", "--input", str(path), "--format", "json"]) == 1
    assert +arithmetic == {}
    assert calls["_residual_bound"] >= 30


def test_find_roots_reads_only_integers(monkeypatch, tmp_path, capsys):
    # find_roots reads P's integer form and converts the polished roots to
    # mpc once, at the end: from the double start (rh on W12^3, where it
    # finds the roots of R) and from the circle (1 + T/10^400 + T^2, which
    # no double holds), it builds no Fraction and runs no mpc or mpf
    # arithmetic; the old path boxed every coefficient into both
    path = tmp_path / "w12cubed.json"
    write_enumerator_file(W12 ** 3, path)
    circle = algebra.UniPoly([1, fractions.Fraction(1, 10 ** 400), 1])
    counts, inside = collections.Counter(), []
    find_roots, new_fraction = analysis.find_roots, fractions.Fraction.__new__

    def finding(*args):
        counts["find_roots"] += 1
        inside.append(True)
        try:
            return find_roots(*args)
        finally:
            inside.pop()

    def constructed(cls, *args, **kwargs):
        counts["Fraction"] += bool(inside)
        return new_fraction(cls, *args, **kwargs)

    def counted(name, op):
        def wrapper(self, *args):
            counts[name] += bool(inside)
            return op(self, *args)
        return wrapper

    for cls in (mp.mpc, mp.mpf):
        for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__rtruediv__", "__pow__"):
            monkeypatch.setattr(cls, op, counted(f"{cls.__name__}.{op}", getattr(cls, op)))
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(constructed))
    monkeypatch.setattr(analysis, "find_roots", finding)
    assert cli.main(["rh", "--input", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["iterations"] == 2
    assert analysis.find_roots(circle).iterations > 0
    assert +counts == {"find_roots": 2}


def test_rh_polishes_roots_on_integers(monkeypatch, tmp_path):
    # rh on W12^3 polishes the roots of R on Gaussian dyadic integers: no
    # mpc or mpf product, sum, difference or quotient inside its two
    # polishing sweeps (the mpc sweeps took over 1000 of each), while the
    # root mapping around them still counts
    path = tmp_path / "w12cubed.json"
    write_enumerator_file(W12 ** 3, path)
    arithmetic, outside, inside = collections.Counter(), collections.Counter(), []
    polish = analysis._polish_sweep

    def sweep(*args):
        inside.append(True)
        try:
            return polish(*args)
        finally:
            inside.pop()

    def counted(name, op):
        def wrapper(self, other):
            (arithmetic if inside else outside)[name] += 1
            return op(self, other)
        return wrapper

    for cls in (mp.mpc, mp.mpf):
        for op in ("__mul__", "__add__", "__sub__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(cls, op, counted(f"{cls.__name__}.{op}", getattr(cls, op)))
    monkeypatch.setattr(analysis, "_polish_sweep", sweep)
    assert cli.main(["rh", "--input", str(path), "--format", "json"]) == 1
    assert +arithmetic == {}
    assert outside["mpc.__mul__"] > 0 and outside["mpc.__truediv__"] > 0


def test_verify_all_reduces_and_divides_once_per_degree(monkeypatch):
    # root pairing is read off the functional equation, so check_rh runs
    # the only reduction of each of the 7 degrees, and it shares the one
    # division by (2T^2 - 1)^m with the sqrt2 check; divisibility (d >= 8:
    # n = 36..60) divides by the full product and, as it divides, by no
    # factor alone
    calls = {"self_reciprocal_reduction": 0, "_divide_out_quadratic": 0,
             "_quotient_in_t": 0}

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counted(name))
    assert cli.main(["verify-all", "--max-degree", "60"]) == 0
    assert calls == {"self_reciprocal_reduction": 7, "_divide_out_quadratic": 7,
                     "_quotient_in_t": 4}


def test_verify_all_finds_each_sign_once_and_takes_no_power(monkeypatch):
    # the sign of each of the 7 degrees is found once, and read by the
    # sign check, the pairing check and check_rh; divisibility divides in
    # t = y/x on integers, with no power of a polynomial
    evaluations = []
    original = zeta.ZetaPolynomial._sign.func

    def counted(self):
        evaluations.append(self.context.n)
        return original(self)
    sign = functools.cached_property(counted)
    sign.__set_name__(zeta.ZetaPolynomial, "_sign")
    monkeypatch.setattr(zeta.ZetaPolynomial, "_sign", sign)

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial power in verify-all")
    monkeypatch.setattr(algebra._DensePoly, "__pow__", refuse)
    assert cli.main(["verify-all", "--max-degree", "60"]) == 0
    assert evaluations == list(range(12, 61, 8))


def test_verify_all_checks_root_pairing_once_per_degree(monkeypatch):
    # the pairing check of each of the 7 degrees runs verify_root_pairing,
    # which reads the cached sign
    pairings = []
    original = cli.verify_root_pairing

    def counted(Z):
        pairings.append(Z.context.n)
        return original(Z)
    monkeypatch.setattr(cli, "verify_root_pairing", counted)
    assert cli.main(["verify-all", "--max-degree", "60"]) == 0
    assert pairings == list(range(12, 61, 8))


def test_verify_all_reports_a_wrong_sign_as_a_failed_pairing(monkeypatch, capsys):
    # a sign other than -1 is a failed check (exit 1), not the ValueError
    # verify_root_pairing raises without the sign -1 equation (exit 2)
    monkeypatch.setattr(cli, "functional_equation_sign", lambda Z: 1)
    assert cli.main(["verify-all", "--max-degree", "20", "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["checks"]["root_pairing"] for r in results] == [False, False]


def test_one_polynomial_product(monkeypatch):
    # the extremal builder's u-polynomials and both Fraction polynomial
    # shapes multiply by the one integer product in algebra
    assert fwe._convolve is algebra._convolve
    calls = []
    original = algebra._convolve

    def counted(a, b):
        calls.append((len(a), len(b)))
        return original(a, b)
    monkeypatch.setattr(algebra, "_convolve", counted)
    assert (W8 * W12).degree == 20
    assert calls == [(9, 13)]


def test_main_builds_parser_once(monkeypatch, tmp_path):
    # the nine-command parser costs about 2 ms to build; once main has
    # served one request, no request builds another, whatever its outcome
    path = tmp_path / "e36.json"
    write_enumerator_file(fwe.build_extremal(36).expanded, path)
    assert cli.main(["bound", "fwe", "84"]) == 0
    builds = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        original(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["check", "--input", str(path)]) == 0
    assert cli.main(["zeta", "--input", str(path), "--format", "json"]) == 0
    assert cli.main(["divisibility", "--input", str(path)]) == 0
    assert cli.main(["extremal", "--degree", "36"]) == 0
    assert cli.main(["extremal", "--degree", "21"]) == 2
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check", "--input", str(path), "--no-such-flag"])
    assert exit_.value.code == 2
    assert builds == []


# The kernels that read a polynomial's integer form and build their
# results from ints; none of them may box a coefficient into a Fraction.
INTEGER_KERNELS = {
    "fwezeta.zeta.macwilliams_transform", "fwezeta.zeta.ZetaPolynomial._sign",
    "fwezeta.zeta.compute_zeta", "fwezeta.zeta.is_zeta_polynomial",
    "fwezeta.analysis._factorisation", "fwezeta.analysis.self_reciprocal_reduction",
    "fwezeta.analysis._certify_on_circle", "fwezeta.analysis.check_divisibility",
    "fwezeta.algebra.apply_diff_operator",
}
# accessors that build Fractions for whoever asks; their constructions
# count to the caller
ACCESSORS = {"fwezeta.algebra._DensePoly.coeffs",
             "fwezeta.algebra._DensePoly.coefficient"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_integer_kernels_construct_no_fraction(monkeypatch, capsys):
    # each Fraction construction during verify-all counts to the first
    # function outside fractions.py and the accessors; a comprehension or
    # generator counts to the function it is written in
    counts = collections.Counter()
    original = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while True:
            code = frame.f_code
            name = (frame.f_globals.get("__name__", "") + "."
                    + code.co_qualname.split(".<locals>")[0])
            if code.co_filename != fractions.__file__ and name not in ACCESSORS:
                break
            frame = frame.f_back
        counts[name] += 1
        return original(cls, *args, **kwargs)
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    zeta.macwilliams_transform.cache_clear()     # a cached W would hide it
    assert cli.main(["verify-all", "--max-degree", "196", "--format", "json"]) == 0
    capsys.readouterr()
    assert counts["fwezeta.files.parse_rational"] > 0      # the count sees them
    assert {name: counts[name] for name in INTEGER_KERNELS if counts[name]} == {}
