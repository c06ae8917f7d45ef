"""JSON file formats and the embedded golden table.

Enumerator files carry exact data only: coefficients are canonical
rational strings like "-33" or "11/12", never floats.  The golden table
of extremal formal weight enumerators (degrees 12 through 196) ships as
package data so every comparison works offline.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .algebra import HomogeneousPoly

# ASCII digits only: \d would also admit other scripts' digits, which
# int() and Fraction() read as ordinary numbers
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")
# Largest degree an enumerator file may claim.  The golden data stops at
# 196; the exact layers cost roughly quadratic time in the degree, so an
# unbounded claim would let a tiny file run for minutes.
MAX_DEGREE = 1024


class EnumeratorFormatError(ValueError):
    """Malformed enumerator document."""


def _int(text: str) -> int:
    """int(text), where a string past int's digit limit is an input error."""
    try:
        return int(text)
    except ValueError:
        raise EnumeratorFormatError(
            f"integer longer than {sys.get_int_max_str_digits()} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string; rejects anything not already in
    lowest terms with a positive denominator (e.g. "2/4", "-0", "03", "1/0")."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise EnumeratorFormatError(f"not a rational string: {text!r}")
    value = Fraction(*map(_int, text.split("/")))
    if str(value) != text:
        raise EnumeratorFormatError(f"rational string not canonical: {text!r}")
    return value


def enumerator_to_document(W: HomogeneousPoly) -> dict:
    """Sparse JSON document for a polynomial, indices in ascending order.
    A coefficient with an integer past int's digit limit for a decimal
    string has no exact string and is a ValueError of its own."""
    try:
        coeffs = {str(i): str(W.coefficient(i)) for i in W.support()}
    except ValueError:
        raise ValueError(
            f"result has an integer longer than {sys.get_int_max_str_digits()} "
            "digits, the limit for exact output") from None
    return {"degree": W.degree, "coefficients": coeffs}


def enumerator_from_document(doc) -> HomogeneousPoly:
    if not isinstance(doc, dict):
        raise EnumeratorFormatError("document must be a JSON object")
    degree = doc.get("degree")
    if (not isinstance(degree, int) or isinstance(degree, bool)
            or not 1 <= degree <= MAX_DEGREE):
        raise EnumeratorFormatError(
            f"bad degree: {degree!r} (must be an integer from 1 to {MAX_DEGREE})")
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, dict):
        raise EnumeratorFormatError("missing coefficients map")
    entries = {}
    for key, text in coeffs.items():
        if not re.fullmatch(r"0|[1-9][0-9]*", key):
            raise EnumeratorFormatError(f"bad coefficient index: {key!r}")
        index = _int(key)
        if index > degree:
            raise EnumeratorFormatError(
                f"coefficient index {index} exceeds degree {degree}")
        entries[index] = parse_rational(text)
    if entries.get(0) != 1:
        raise EnumeratorFormatError('index 0 must map to "1" (monic in x)')
    return HomogeneousPoly.from_sparse(degree, entries)


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:      # json alone would keep the last value silently
            raise EnumeratorFormatError(f"repeated key: {key!r}")
        doc[key] = value
    return doc


def read_enumerator_file(path) -> HomogeneousPoly:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_int)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as e:
            raise EnumeratorFormatError(f"invalid JSON: {e}") from e
    return enumerator_from_document(doc)


def write_document(doc: dict, path) -> None:
    """Write a JSON document, indented and newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_enumerator_file(W: HomogeneousPoly, path) -> None:
    doc = enumerator_to_document(W)
    if doc["coefficients"].get("0") != "1":
        raise EnumeratorFormatError("refusing to write a non-monic enumerator file")
    write_document(doc, path)


@dataclass(frozen=True)
class GoldenTableEntry:
    """One extremal formal weight enumerator in symmetric half form:
    only the coefficients A_{4j} for j = d/4 .. (n-4)/8 are stored, the
    rest follow from the x <-> y symmetry."""

    n: int
    d: int
    coefficients: dict

    def expand(self) -> HomogeneousPoly:
        n = self.n
        entries = {0: 1, n: 1}
        for index, value in self.coefficients.items():
            entries[index] = value
            entries[n - index] = value
        return HomogeneousPoly.from_sparse(n, entries)


def load_golden_table() -> tuple:
    """The embedded table of all extremal formal weight enumerators with
    degree 12 <= n <= 196, n congruent to 4 mod 8."""
    data = (resources.files("fwezeta") / "data" / "golden_table.json").read_text()
    entries = []
    for row in json.loads(data):
        coeffs = {int(k): parse_rational(v) for k, v in row["coefficients"].items()}
        entries.append(GoldenTableEntry(row["n"], row["d"], coeffs))
    return tuple(entries)
