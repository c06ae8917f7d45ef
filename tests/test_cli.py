import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fwezeta import cli
from fwezeta.algebra import HomogeneousPoly, UniPoly
from fwezeta.analysis import RhReport, RootSet, check_rh
from fwezeta.cli import main
from fwezeta.files import (MAX_DEGREE, load_golden_table, read_enumerator_file,
                           write_enumerator_file)
from fwezeta.fwe import W8, W12, build_extremal
from fwezeta.zeta import (EnumeratorContext, ZetaPolynomial, compute_zeta,
                          zeta_oracle)

DEEPLY_NESTED = b"[" * 200000 + b"]" * 200000
# 5000 digits: past int's default limit of 4300 digits for a decimal string
LONG = "1" + "0" * 4999
LONG_VALUE = b'{"degree": 4, "coefficients": {"0": "1", "4": "%s"}}' % LONG.encode()
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def w12_file(tmp_path):
    path = tmp_path / "w12.json"
    write_enumerator_file(W12, path)
    return str(path)


@pytest.fixture
def w8_file(tmp_path):
    path = tmp_path / "w8.json"
    write_enumerator_file(W8, path)
    return str(path)


class TestZetaCommand:
    def test_w12(self, w12_file, capsys):
        assert main(["zeta", "--input", w12_file, "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "g = 3" in out and "sign: -1" in out

    def test_w8_with_oracle(self, w8_file, capsys):
        assert main(["zeta", "--input", w8_file, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "1/5, 2/5, 2/5" in out and "sign: 1" in out
        assert "oracle agrees: yes" in out

    def test_no_functional_equation_at_q3(self, tmp_path, capsys):
        # at q = 3 the extremal P of degree 12 has no functional equation;
        # the digest battery sends no --q, so at q = 2 its sign is +-1
        # and both pinned digests stay as they are
        assert not any("--q" in argv for argv in _transcript_battery(tmp_path))
        path = str(tmp_path / "e12.json")
        write_enumerator_file(build_extremal(12).expanded, path)
        assert main(["zeta", "--input", path, "--q", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "functional equation sign: none (no functional equation)"
        assert main(["zeta", "--input", path, "--q", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 3 and doc["sign"] is None

    def test_json_format(self, w12_file, capsys):
        assert main(["zeta", "--input", w12_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["genus"] == 3 and doc["sign"] == -1
        assert doc["coefficients"][0] == "-1/15"

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 4, "coefficients": {"0": "1", "9": "2"}}')
        assert main(["zeta", "--input", str(bad)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["zeta", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["zeta", "check"])
    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys, command):
        bad = tmp_path / "deep.json"
        bad.write_bytes(DEEPLY_NESTED)
        assert main([command, "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


class TestOracleVerdict:
    """`zeta --oracle` checks P against its defining identity on integers;
    its verdict must be the dense solve's, zeta_oracle(ctx).P == P."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [12, 20, 28, 36, 44])
    def test_golden_verdict_is_dense_solve(self, tmp_path, capsys, n, q):
        W = next(e for e in load_golden_table() if e.n == n).expand()
        path = str(tmp_path / "w.json")
        write_enumerator_file(W, path)
        code = main(["zeta", "--input", path, "--q", str(q), "--format", "json",
                     "--oracle"])
        doc = json.loads(capsys.readouterr().out)
        ctx = EnumeratorContext(W, q)
        dense = zeta_oracle(ctx).P == compute_zeta(ctx).P
        assert doc["oracle_agrees"] is dense
        assert code == (0 if dense else 1)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [0, 7, -1])
    def test_moved_coefficient_fails(self, tmp_path, capsys, monkeypatch, q, k):
        # a P with its T^k coefficient moved is not the zeta polynomial:
        # exit 1, "NO" in text and false in JSON, as the dense solve says
        W = build_extremal(36).expanded
        path = str(tmp_path / "e36.json")
        write_enumerator_file(W, path)
        ctx = EnumeratorContext(W, q)
        coeffs = list(compute_zeta(ctx).P.coeffs)
        coeffs[k] += Fraction(1, 7)
        moved = UniPoly(coeffs)
        monkeypatch.setattr(cli, "compute_zeta", lambda c: ZetaPolynomial(moved, c))
        argv = ["zeta", "--input", path, "--q", str(q), "--oracle"]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "oracle agrees: NO"
        assert main([*argv, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["coefficients"] == [str(c) for c in moved.coeffs]
        assert doc["oracle_agrees"] is False
        assert doc["oracle_agrees"] is (zeta_oracle(ctx).P == moved)


class TestTransformCommand:
    def test_w12_negates(self, w12_file, capsys):
        assert main(["transform", "--input", w12_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coefficients"]["0"] == "-1"
        assert doc["coefficients"]["4"] == "33"

    def test_output_round_trip_for_invariant_input(self, w8_file, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["transform", "--input", w8_file,
                     "--output", str(out_path)]) == 0
        assert read_enumerator_file(out_path) == W8

    def test_unwritable_output(self, w12_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "t.json"
        assert main(["transform", "--input", w12_file,
                     "--output", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out_path}" in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_result_past_digit_limit_is_error(self, tmp_path, capsys, fmt):
        # the input's 4290-digit coefficients are valid; the transform at
        # q = 1000 has integers past int's 4300-digit limit for a string
        big = "1" + "0" * 4289
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"degree": 12, "coefficients": {
            "0": "1", "4": big, "8": big, "12": "1"}}))
        out_path = tmp_path / "t.json"
        assert main(["transform", "--input", str(path), "--q", "1000",
                     "--format", fmt, "--output", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert captured.err == ("error: result has an integer longer than "
                                "4300 digits, the limit for exact output\n")


class TestCheckCommand:
    def test_w12_passes(self, w12_file, capsys):
        assert main(["check", "--input", w12_file]) == 0
        assert "formal weight enumerator:  yes" in capsys.readouterr().out

    def test_w8_fails(self, w8_file, capsys):
        assert main(["check", "--input", w8_file]) == 1
        out = capsys.readouterr().out
        assert "transform negates W:       FAIL" in out

    def test_degree_past_limit_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "big.json"
        n = MAX_DEGREE + 1
        bad.write_text(f'{{"degree": {n}, "coefficients": {{"0": "1", "{n}": "1"}}}}')
        assert main(["check", "--input", str(bad)]) == 2
        assert "bad degree" in capsys.readouterr().err

    def test_non_ascii_digit_key_is_input_error(self, tmp_path, capsys):
        # the last key is "1" followed by an Arabic-Indic 3
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 13, "coefficients": '
                       '{"0": "1", "13": "1", "1\u0663": "5"}}', encoding="utf-8")
        assert main(["check", "--input", str(bad)]) == 2
        assert "bad coefficient index" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"degree": 12, "coefficients": '
         '{"0": "1", "4": "-33", "8": "-33", "12": "1", "4": "7"}}', "'4'"),
        ('{"degree": 8, "degree": 12, "coefficients": '
         '{"0": "1", "4": "-33", "8": "-33", "12": "1"}}', "'degree'")])
    def test_repeated_key_is_input_error(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: repeated key: {key}\n"

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", LONG_VALUE,
        b'{"degree": %s0, "coefficients": {"0": "1"}}' % LONG.encode(),
        b'{"degree": 4, "coefficients": {"0": "1", "%s0": "1"}}' % LONG.encode()],
        ids=["not_utf8", "long_value", "long_degree", "long_key"])
    def test_bad_bytes_and_long_integers_are_input_errors(self, tmp_path, capsys,
                                                          content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["check", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "set_int_max_str_digits" not in captured.err

    def test_zero_denominator_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 4, "coefficients": {"0": "1", "4": "1/0"}}')
        assert main(["check", "--input", str(bad)]) == 2
        assert "input error" in capsys.readouterr().err


class TestExtremalCommand:
    def test_degree_36(self, tmp_path, capsys):
        out_path = tmp_path / "e36.json"
        assert main(["extremal", "--degree", "36", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "11/12" in out and "1/12" in out
        assert read_enumerator_file(out_path) == build_extremal(36).expanded

    def test_degree_44_combination(self, capsys):
        assert main(["extremal", "--degree", "44"]) == 0
        out = capsys.readouterr().out
        assert "85/108" in out and "23/108" in out

    def test_degree_20_single_element(self, capsys):
        assert main(["extremal", "--degree", "20"]) == 0
        out = capsys.readouterr().out
        assert "1 * W8*W12" in out

    def test_bad_degree(self, capsys):
        assert main(["extremal", "--degree", "21"]) == 2

    def test_degree_past_file_limit(self, capsys):
        start = time.monotonic()
        assert main(["extremal", "--degree", str(MAX_DEGREE + 4)]) == 2
        assert time.monotonic() - start < 2
        assert capsys.readouterr().out == ""

    def test_unwritable_output(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.json"
        assert main(["extremal", "--degree", "12", "--output", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out_path}" in err and "Traceback" not in err


class TestRhCommand:
    def test_extremal_60_holds(self, tmp_path, capsys):
        path = tmp_path / "e60.json"
        write_enumerator_file(build_extremal(60).expanded, path)
        assert main(["rh", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "RH holds" in out

    def test_w8_cubed_w12_fails(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        write_enumerator_file(W8 ** 3 * W12, path)
        assert main(["rh", "--input", str(path)]) == 1
        assert "offending root" in capsys.readouterr().out

    def test_certificate_in_json(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        write_enumerator_file(W12, path)
        assert main(["rh", "--input", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"] == "exact" and doc["max_relative_deviation"] == 0.0
        assert doc["iterations"] is None and doc["max_residual_bound"] is None
        write_enumerator_file(W8 ** 3 * W12, path)
        assert main(["rh", "--input", str(path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"] == "numeric" and doc["iterations"] > 0
        assert 0 <= doc["max_residual_bound"] < 1e-60

    def test_reported_residual_bound_is_rounded_up(self):
        # the float reported is never below the mpf bound; float() would
        # round a 288-bit 1/3 down
        with mp.workprec(288):
            third = mp.mpf(1) / 3
        report = RhReport(True, 1.0, 0.0, (), RootSet((mp.mpc(1),), (third,), 1))
        assert mp.mpf(cli._rh_evidence(report)["max_residual_bound"]) >= third
        assert mp.mpf(float(third)) < third
        for W in (W8 ** 3 * W12, W12 ** 3):
            report = check_rh(compute_zeta(EnumeratorContext(W, 2)))
            reported = cli._rh_evidence(report)["max_residual_bound"]
            assert mp.mpf(reported) >= max(report.root_set.residual_bounds)

    def test_certificate_in_text(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        write_enumerator_file(W12, path)
        assert main(["rh", "--input", str(path)]) == 0
        assert "certificate: exact" in capsys.readouterr().out
        write_enumerator_file(W8 ** 3 * W12, path)
        assert main(["rh", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert "certificate: numeric (" in out and "Aberth iterations" in out
        assert "max residual bound" in out

    def test_low_precision_is_usage_error(self, w12_file, capsys):
        # W12 is certified exactly, with no root finding, yet the flag is checked
        assert main(["rh", "--input", w12_file, "--precision", "16"]) == 2
        assert capsys.readouterr().out == ""

    def test_q_past_float_range_is_usage_error(self, w12_file, capsys):
        assert main(["rh", "--input", w12_file, "--q", str(10 ** 400)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        path = tmp_path / "w.json"
        write_enumerator_file(W12 ** 3, path)
        assert main(["rh", "--input", str(path), "--tol", tol]) == 2
        assert main(["verify-all", "--max-degree", "12", "--tol", tol]) == 2
        assert capsys.readouterr().out == ""


class TestDivisibilityCommand:
    def test_extremal_36(self, tmp_path, capsys):
        path = tmp_path / "e36.json"
        write_enumerator_file(build_extremal(36).expanded, path)
        assert main(["divisibility", "--input", str(path)]) == 0
        assert "full product divides" in capsys.readouterr().out

    def test_d4_rejected(self, w12_file):
        assert main(["divisibility", "--input", w12_file]) == 2


class TestBoundCommand:
    def test_fwe_84(self, capsys):
        assert main(["bound", "fwe", "84"]) == 0
        assert capsys.readouterr().out.strip() == "16"

    def test_bad_congruence(self, capsys):
        assert main(["bound", "fwe", "85"]) == 2


class TestTableCommand:
    def test_up_to_36(self, capsys):
        assert main(["table", "--max-degree", "36"]) == 0
        out = capsys.readouterr().out
        assert out.count("[match]") == 4
        assert "A_16=-111573" in out

    def test_rejects_past_golden_data(self, capsys):
        assert main(["table", "--max-degree", "200"]) == 2

    def test_rejects_below_smallest_degree(self, capsys):
        assert main(["table", "--max-degree", "4", "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    def test_mismatch_reported(self, capsys, monkeypatch):
        from fractions import Fraction
        from fwezeta import cli
        from fwezeta.files import GoldenTableEntry
        corrupt = GoldenTableEntry(12, 4, {4: Fraction(-34)})
        monkeypatch.setattr(cli, "load_golden_table", lambda: (corrupt,))
        assert main(["table", "--max-degree", "12"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestVerifyAllCommand:
    def test_up_to_36(self, capsys):
        assert main(["verify-all", "--max-degree", "36"]) == 0
        out = capsys.readouterr().out
        assert "all degrees verified" in out
        degree_lines = out.splitlines()[:-1]
        assert len(degree_lines) == 4
        assert all(line.endswith(" s)") and ", checks " in line for line in degree_lines)

    @pytest.mark.parametrize("quotient, tight, divides", [
        (None, False, False),                               # no divisibility
        (HomogeneousPoly.from_sparse(24, {0: 1}), False, True),   # room for d + 4
    ])
    def test_bound_tight_reads_the_divisibility_quotient(
            self, monkeypatch, capsys, quotient, tight, divides):
        # bound_tight is read off the quotient of the divisibility, of
        # degree n + 16 - 6d in [0, 24) when it holds; at d = 4 (n = 12, 20,
        # 28) from n + 16 - 48 < 0 alone
        real = cli.check_divisibility
        monkeypatch.setattr(cli, "check_divisibility",
                            lambda W: dataclasses.replace(real(W), quotient=quotient))
        assert main(["verify-all", "--max-degree", "44", "--format", "json"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        for r in results:
            keys = list(r["checks"])
            assert keys == list(r["check_seconds"])
            assert keys[-2:] == (["bound_tight", "divisibility"] if r["d"] >= 8
                                 else ["rh", "bound_tight"])
        assert [(r["n"], r["checks"]["bound_tight"], r["checks"].get("divisibility"))
                for r in results] == [(12, True, None), (20, True, None), (28, True, None),
                                      (36, tight, divides), (44, tight, divides)]

    def test_json_payload(self, capsys):
        assert main(["verify-all", "--max-degree", "20", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [r["n"] for r in doc["results"]] == [12, 20]
        assert all(r["checks"]["rh"] for r in doc["results"])
        for r in doc["results"]:
            assert r["rh_certificate"] == "exact" and r["max_rh_deviation"] == 0.0
            assert r["rh_iterations"] is None and r["rh_max_residual_bound"] is None
            assert list(r["check_seconds"]) == list(r["checks"])
            assert all(isinstance(v, float) and v >= 0
                       for v in r["check_seconds"].values())

    def test_full_run_digest(self, capsys):
        # every verdict, multiplicity, deviation and certificate of the
        # headline run, pinned byte for byte; only the timings may move
        assert main(["verify-all", "--max-degree", "196", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for r in doc["results"]:
            del r["check_seconds"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == "a09090eb40525095252a52698e4cf0bbb51631de8bec51eb0c5fea5e8f86cb57"

    def test_low_precision_is_usage_error(self, capsys):
        assert main(["verify-all", "--max-degree", "12", "--precision", "16"]) == 2
        assert capsys.readouterr().out == ""

    def test_rejects_below_smallest_degree(self, capsys):
        assert main(["verify-all", "--max-degree", "4"]) == 2
        assert "all degrees verified" not in capsys.readouterr().out


def _transcript_battery(tmp_path):
    """argv lists covering every command in text and JSON: exit 0, exit 1,
    usage and input errors, an unwritable --output and the oracle."""
    inputs = {f"e{n}": build_extremal(n).expanded for n in (12, 36, 60, 108, 196)}
    inputs["w8"] = W8
    for s, k in [(0, 1), (1, 1), (2, 1), (3, 1), (0, 3), (4, 1),
                 (1, 3), (5, 1), (2, 3), (6, 1), (3, 3), (0, 5)]:
        inputs[f"w8^{s}w12^{k}"] = W8 ** s * W12 ** k
    paths = {}
    for name, W in inputs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        write_enumerator_file(W, paths[name])
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 4, "coefficients": {"0": "1", "9": "2"}}')
    battery = []
    for fmt in ("text", "json"):
        for name in ("e12", "e36", "e60", "e108", "e196", "w8"):
            for command in ("zeta", "check", "divisibility", "rh", "transform"):
                battery.append([command, "--input", paths[name], "--format", fmt])
        for name in paths:
            if name.startswith("w8^"):
                battery.append(["rh", "--input", paths[name], "--format", fmt])
    battery += [
        ["zeta", "--input", paths["e12"], "--oracle"],
        ["zeta", "--input", paths["e36"], "--oracle"],
        ["extremal", "--degree", "36"],
        ["extremal", "--degree", "21"],
        ["extremal", "--degree", "12", "--output", str(tmp_path / "missing" / "x.json")],
        ["bound", "fwe", "84"],
        ["bound", "type2", "7"],
        ["table", "--max-degree", "196"],
        ["verify-all", "--max-degree", "60", "--format", "json"],
        ["check", "--input", str(bad)],
        ["zeta", "--input", str(tmp_path / "nope.json")],
        ["rh", "--input", paths["e12"], "--tol", "nan"],
    ]
    return battery


class TestTranscriptDigest:
    def test_battery_digest(self, tmp_path, capsys):
        # stdout, stderr and exit code of every command in the battery,
        # pinned byte for byte; only the verify-all timings are dropped
        tmp = str(tmp_path)
        digest = hashlib.sha256()
        for argv in _transcript_battery(tmp_path):
            code = main(argv)
            out, err = capsys.readouterr()
            if argv[0] == "verify-all":
                doc = json.loads(out)
                for r in doc["results"]:
                    del r["check_seconds"]
                out = json.dumps(doc, indent=2) + "\n"
            record = [[a.replace(tmp, "<tmp>") for a in argv], code,
                      out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")]
            digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == "d157d6bc3705cd00e55dbc304963caa04c06fb94ab27154d3c9227f88d62af5d"


def _request(argv, capsys):
    """Exit code, stdout and stderr of one in-process request, an argparse
    rejection (SystemExit) included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


COMMANDS = ["zeta", "transform", "check", "extremal", "rh", "divisibility",
            "bound", "table", "verify-all"]


class TestSharedParser:
    """main builds its parser once per process, so consecutive requests
    share it: no flag, default or rejection may carry over to the next."""

    def test_oracle_does_not_carry_over(self, w12_file, capsys):
        argv = ["zeta", "--input", w12_file, "--format", "json"]
        assert main([*argv, "--oracle"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True
        assert main(argv) == 0
        assert "oracle_agrees" not in json.loads(capsys.readouterr().out)

    def test_q_and_output_do_not_carry_over(self, w12_file, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        argv = ["transform", "--input", w12_file, "--format", "json"]
        assert main([*argv, "--q", "3", "--output", str(out_path)]) == 0
        at_q3 = capsys.readouterr().out
        out_path.unlink()
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not out_path.exists()
        assert doc["coefficients"]["0"] == "-1" and doc["coefficients"]["4"] == "33"
        assert json.loads(at_q3) != doc

    def test_precision_and_tol_do_not_carry_over(self, tmp_path, capsys):
        # W8^3 W12 fails RH, so its certificate is numeric and names the
        # precision it ran at
        path = str(tmp_path / "w.json")
        write_enumerator_file(W8 ** 3 * W12, path)
        assert main(["rh", "--input", path, "--precision", "128", "--tol", "1e-6"]) == 1
        assert "in 128-bit arithmetic" in capsys.readouterr().out
        assert main(["rh", "--input", path]) == 1
        out = capsys.readouterr().out
        assert "in 256-bit arithmetic" in out and "(tolerance 1.0e-09)" in out
        assert main(["rh", "--input", path, "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["precision_bits"] == 256

    @pytest.mark.parametrize("rejected", [["bound", "fwe"], ["frobnicate"]])
    def test_rejection_leaves_next_request_unchanged(self, tmp_path, capsys,
                                                     rejected):
        path = str(tmp_path / "w.json")
        write_enumerator_file(W8 ** 3 * W12, path)
        valid = ["rh", "--input", path]
        cli.build_parser.cache_clear()     # the valid request runs first
        first = _request(valid, capsys)
        code, out, err = _request(rejected, capsys)
        assert code == 2 and out == "" and "error:" in err
        assert _request(valid, capsys) == first

    @pytest.mark.parametrize("command", [[], *([c] for c in COMMANDS)],
                             ids=["program", *COMMANDS])
    def test_help_matches_fresh_process(self, monkeypatch, capsys, command):
        # the help text is formatted when asked for, at the width of the
        # moment, so the shared parser prints what a fresh process prints
        monkeypatch.setenv("COLUMNS", "80")
        argv = [*command, "--help"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-m", "fwezeta.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        fresh = (proc.returncode, proc.stdout, proc.stderr)
        assert fresh[0] == 0 and fresh[1].startswith("usage: fwe-zeta")
        assert _request(argv, capsys) == fresh
        assert _request(argv, capsys) == fresh


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write fails, as on a pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A stdout that refuses the report is one error line and exit 2, the
    same as an unwritable --output, never a traceback."""

    def test_write_raises_in_process(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["bound", "fwe", "84"]) == 2
        assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"

    # a report larger than the 8 KB stdout buffer (13 KB here) fails in
    # print, a short one only when flushed; either way the flush at
    # interpreter exit must not fail again
    @pytest.mark.parametrize("argv", [
        ["bound", "fwe", "84"],
        ["verify-all", "--max-degree", "84", "--format", "json"]])
    def test_pipe_closed_early(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)     # stdout block-buffered, as usual
        proc = subprocess.Popen([sys.executable, "-m", "fwezeta.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert err == "error: cannot write stdout: Broken pipe\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 64)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@st.composite
def enumerator_documents(draw):
    """Documents close to the enumerator format: in three of four the
    indices and rational strings are well formed, and well-formed degrees
    stay at most 64 so each command is quick."""
    degree = draw(st.integers(1, 64) | _json_values)
    top = degree if isinstance(degree, int) and 1 <= degree <= 64 else 64
    rational = st.fractions(min_value=-99, max_value=99, max_denominator=50).map(str)
    if draw(st.integers(0, 3)):
        coeffs = draw(st.dictionaries(st.integers(1, top).map(str), rational,
                                      max_size=8))
    else:
        index = st.integers(0, 64).map(str) | st.text(max_size=4)
        coeffs = draw(st.dictionaries(index, rational | _json_values, max_size=8))
    if draw(st.integers(0, 3)):
        coeffs["0"] = "1"
    return {"degree": degree, "coefficients": coeffs}


class TestExitCodeContract:
    """Whatever an input file holds, check and zeta exit 0, 1 or 2 and
    never let an exception escape; check's only exit 2 is an input error."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=64)
           | st.one_of(enumerator_documents(), _json_values).map(
               lambda doc: json.dumps(doc).encode()))
    @example(DEEPLY_NESTED)
    @example(b"\xff\xfe{}")
    @example(LONG_VALUE)
    def test_any_input_file(self, tmp_path, capsys, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        for command in ("check", "zeta"):
            code = main([command, "--input", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            if command == "check" and code == 2:
                assert err.startswith("input error:"), err
