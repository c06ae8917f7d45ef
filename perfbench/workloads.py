"""The request list of each workload, with the expected output of every
request.

A workload is a fixed set of CLI requests whose verdicts are known; the
seed only permutes the order they are sent in, so every seed does the
same work.  `prepare` writes the input files a workload reads (untimed)
and returns the requests; each request carries a check that turns its
exit code and output into None (correct) or a reason it is wrong.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

GOLDEN_DEGREES = list(range(12, 197, 8))
# Sized so one pass of each workload takes 5-10 s on a 2-vCPU host and a
# run repeats it at least three times (run.py); the full n=12..196
# pipeline takes many minutes.  exact_certify visits one degree for each
# extremal d = 4..20 and the top degree 196; its `table` request still
# rebuilds all 24.
VERIFY_SWEEP_MAX_DEGREE = 52
EXACT_CERTIFY_DEGREES = list(range(12, 109, 24)) + [196]

# W8^s W12^k with n <= 36 and the RH verdict of its zeta polynomial
# (criterion 5 of the acceptance suite): the extremal W12, W8 W12 and
# W8^2 W12 hold.  The RH-false W12^3 takes about 140 Aberth iterations
# and lists offending roots; RH-true inputs converge in 6-30.
RH_PRODUCTS = [(0, 1, True), (1, 1, True), (2, 1, True), (0, 3, False)]
RH_EXTREMAL_DEGREES = [36, 60, 84]

# criterion 2: P36 = (2T^2 - 1) * (this degree-20 factor) / 11920740
P36_FACTOR = [195, 1170, 4290, 11700, 26311, 50950, 88136, 139548, 208096,
              299272, 424720, 598544, 832384, 1116384, 1410176, 1630400,
              1683904, 1497600, 1098240, 599040, 199680]
P36_DENOMINATOR = 11920740

# hand-written malformed documents; every one must be rejected with exit 2
MALFORMED = {
    "truncated.json": '{"degree": 12, "coefficients": {"0": "1",',
    "noncanonical.json": '{"degree": 12, "coefficients": {"0": "1", "4": "2/4"}}',
    "nonmonic.json": '{"degree": 12, "coefficients": {"0": "2", "12": "1"}}',
    "index_past_degree.json": '{"degree": 4, "coefficients": {"0": "1", "9": "2"}}',
}
# well-formed enumerators that are not formal weight enumerators: `check`
# must answer 1.  W8 is fixed (not negated) by the transform; the second
# has support off the multiples of 4.
NOT_FWE = {
    "w8.json": '{"degree": 8, "coefficients": {"0": "1", "4": "14", "8": "1"}}',
    "odd_support.json": '{"degree": 12, "coefficients": {"0": "1", "2": "5", "12": "1"}}',
}

Check = Callable[[int, str, str], Optional[str]]


@dataclass(frozen=True)
class Request:
    argv: tuple
    check: Check


def extremal_d(n: int) -> int:
    return 4 * ((n - 12) // 24) + 4


def _expect(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


def p36_coefficients() -> list:
    out = [Fraction(0)] * (len(P36_FACTOR) + 2)
    for i, c in enumerate(P36_FACTOR):
        out[i] -= c
        out[i + 2] += 2 * c
    return [c / P36_DENOMINATOR for c in out]


def check_verify_all(code, out, err):
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    doc = json.loads(out)
    degrees = [r["n"] for r in doc["results"]]
    if degrees != list(range(12, VERIFY_SWEEP_MAX_DEGREE + 1, 8)):
        return f"degrees {degrees}"
    for r in doc["results"]:
        bad = [k for k, v in r["checks"].items() if v is not True]
        if bad or not r["ok"]:
            return f"n={r['n']} failed {bad}"
        if any(m % 2 != 1 for m in r["sqrt2_multiplicities"]):
            return f"n={r['n']} even sqrt2 multiplicity {r['sqrt2_multiplicities']}"
        if r["d"] != extremal_d(r["n"]):
            return f"n={r['n']} d={r['d']}"
    return None if doc["ok"] is True else "ok is not true"


def check_extremal(n):
    def check(code, out, err):
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        doc = json.loads(out)
        support = sorted(int(i) for i in doc["coefficients"])
        if doc["degree"] != n or doc["d"] != extremal_d(n):
            return f"degree {doc['degree']} d {doc['d']}"
        if doc["coefficients"]["0"] != "1" or support[1] != doc["d"]:
            return "not monic or wrong minimum index"
        if any(i % 4 for i in support):
            return "support off the multiples of 4"
        return None
    return check


def check_check(code, out, err):
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    doc = json.loads(out)
    keys = ("formal_weight_enumerator", "degree_mod_8_is_4", "term_count_even",
            "swap_symmetric", "g8_invariant")
    bad = [k for k in keys if doc[k] is not True]
    return f"failed {bad}" if bad or doc["failures"] else None


def check_not_fwe(code, out, err):
    problem = _expect(code, 1)
    if problem:
        return problem
    doc = json.loads(out)
    if doc["formal_weight_enumerator"] is not False or not doc["failures"]:
        return "accepted a non formal weight enumerator"
    return None


def check_zeta(n):
    def check(code, out, err):
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        doc = json.loads(out)
        if doc["n"] != n or doc["d"] != extremal_d(n):
            return f"n {doc['n']} d {doc['d']}"
        if doc["genus"] != n // 2 + 1 - doc["d"] or doc["deg_P"] != 2 * doc["genus"]:
            return f"deg_P {doc['deg_P']} genus {doc['genus']}"
        if doc["sign"] != -1:
            return f"sign {doc['sign']}"
        if n == 36 and [Fraction(c) for c in doc["coefficients"]] != p36_coefficients():
            return "P36 differs from the criterion-2 fixture"
        return None
    return check


def check_divisibility(n):
    if extremal_d(n) < 8:
        def check(code, out, err):
            return _expect(code, 2) or (None if "d >= 8" in err
                                        else f"unexpected message {err!r}")
        return check

    def check(code, out, err):
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        doc = json.loads(out)
        ok = doc["passes"] is True and all(f["divides"] for f in doc["factors"])
        return None if ok else "divisibility fails"
    return check


def check_table(code, out, err):
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    doc = json.loads(out)
    if [e["n"] for e in doc["entries"]] != GOLDEN_DEGREES:
        return "table does not cover 12..196"
    return None if doc["all_match"] is True else "golden table mismatch"


def check_rh(expected: bool):
    def check(code, out, err):
        problem = _expect(code, 0 if expected else 1)
        if problem:
            return problem
        doc = json.loads(out)
        if doc["holds"] is not expected:
            return f"holds {doc['holds']}, expected {expected}"
        if expected == bool(doc["offending_roots"]):
            return f"{len(doc['offending_roots'])} offending roots listed"
        return None
    return check


def check_usage_error(code, out, err):
    return _expect(code, 2)


def _write(directory: Path, files: dict) -> dict:
    paths = {}
    for name, text in files.items():
        paths[name] = str(directory / name)
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


def verify_sweep(directory: Path, rng: random.Random) -> list:
    # a single request: the seed has nothing to permute
    return [Request(("verify-all", "--max-degree", str(VERIFY_SWEEP_MAX_DEGREE),
                     "--format", "json"), check_verify_all)]


def exact_certify(directory: Path, rng: random.Random) -> list:
    """Per degree, `extremal` writes the file the other three read; the
    readers run in a seeded order right after it, the degrees in a seeded
    order, then the bad inputs are mixed in and `table` runs last."""
    groups = []
    for n in EXACT_CERTIFY_DEGREES:
        f = str(directory / f"extremal_{n}.json")
        readers = [
            Request(("check", "--input", f, "--format", "json"), check_check),
            Request(("zeta", "--input", f, "--format", "json"), check_zeta(n)),
            Request(("divisibility", "--input", f, "--format", "json"),
                    check_divisibility(n)),
        ]
        rng.shuffle(readers)
        groups.append([Request(("extremal", "--degree", str(n), "--output", f,
                                "--format", "json"), check_extremal(n))] + readers)
    rng.shuffle(groups)
    requests = [r for group in groups for r in group]

    bad = _write(directory, MALFORMED)
    not_fwe = _write(directory, NOT_FWE)
    extra = [Request(("check", "--input", path, "--format", "json"), check_not_fwe)
             for path in not_fwe.values()]
    commands = ("zeta", "check", "divisibility", "rh")
    extra += [Request((cmd, "--input", path, "--format", "json"), check_usage_error)
              for cmd, path in zip(commands, bad.values())]
    extra += [
        Request(("zeta", "--input", str(directory / "missing.json")), check_usage_error),
        Request(("extremal", "--degree", "21"), check_usage_error),
    ]
    for r in extra:
        requests.insert(rng.randrange(len(requests) + 1), r)
    return requests + [Request(("table", "--max-degree", "196", "--format", "json"),
                               check_table)]


def rh_mixed(directory: Path, rng: random.Random) -> list:
    from fwezeta.files import load_golden_table, write_enumerator_file
    from fwezeta.fwe import W8, W12

    inputs = []
    for s, k, holds in RH_PRODUCTS:
        path = directory / f"w8_{s}_w12_{k}.json"
        write_enumerator_file(W8 ** s * W12 ** k, path)
        inputs.append((path, holds))
    golden = {e.n: e for e in load_golden_table()}
    for n in RH_EXTREMAL_DEGREES:
        path = directory / f"extremal_{n}.json"
        write_enumerator_file(golden[n].expand(), path)
        inputs.append((path, True))
    requests = [Request(("rh", "--input", str(p), "--format", "json"), check_rh(h))
                for p, h in inputs]
    bad = _write(directory, {"nonmonic.json": MALFORMED["nonmonic.json"]})
    requests.append(Request(("rh", "--input", bad["nonmonic.json"], "--format", "json"),
                            check_usage_error))
    rng.shuffle(requests)
    return requests


BUILDERS = {
    "verify_sweep": verify_sweep,
    "exact_certify": exact_certify,
    "rh_mixed": rh_mixed,
}


def prepare(workload: str, directory: Path, seed: int) -> list:
    return BUILDERS[workload](directory, random.Random(seed))
