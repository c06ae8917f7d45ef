import json
from fractions import Fraction

import pytest

from fwezeta.algebra import HomogeneousPoly
from fwezeta.files import (EnumeratorFormatError, enumerator_from_document,
                           enumerator_to_document, load_golden_table,
                           parse_rational, read_enumerator_file,
                           write_enumerator_file)
from fwezeta.fwe import (W12, extremal_min_index, is_formal_weight_enumerator,
                         min_weight_index)

F = Fraction
# 5000 digits: past int's default limit of 4300 digits for a decimal string
LONG = "1" + "0" * 4999
# bytes that are not UTF-8, and a long value, degree and key
MALFORMED = {
    "not_utf8": b"\xff\xfe{}",
    "long_value": b'{"degree": 4, "coefficients": {"0": "1", "4": "%s"}}' % LONG.encode(),
    "long_degree": b'{"degree": %s0, "coefficients": {"0": "1"}}' % LONG.encode(),
    "long_key": b'{"degree": 4, "coefficients": {"0": "1", "%s0": "1"}}' % LONG.encode(),
}


class TestRationalStrings:
    def test_accepts_canonical(self):
        assert parse_rational("-33") == -33
        assert parse_rational("11/12") == F(11, 12)
        assert parse_rational("0") == 0

    @pytest.mark.parametrize("bad", ["2/4", "-0", "03", "1/-2", "1.5", "", "x", "5/1",
                                     "1/0", "-3/0", "\u0665", "-\u0663/4",
                                     "1/\u0664",
                                     pytest.param(LONG, id="long"),
                                     pytest.param("-" + LONG, id="negative_long"),
                                     pytest.param("1/" + LONG, id="long_denominator")])
    def test_rejects_non_canonical(self, bad):
        with pytest.raises(EnumeratorFormatError):
            parse_rational(bad)


class TestEnumeratorFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w12.json"
        write_enumerator_file(W12, path)
        assert read_enumerator_file(path) == W12

    def test_round_trip_fractional(self, tmp_path):
        W = HomogeneousPoly.from_sparse(6, {0: 1, 2: F(11, 12), 6: F(-1, 3)})
        path = tmp_path / "w.json"
        write_enumerator_file(W, path)
        assert read_enumerator_file(path) == W

    def test_document_shape(self):
        doc = enumerator_to_document(W12)
        assert doc == {"degree": 12,
                       "coefficients": {"0": "1", "4": "-33", "8": "-33", "12": "1"}}

    def test_index_beyond_degree(self):
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document(
                {"degree": 4, "coefficients": {"0": "1", "7": "2"}})

    def test_degree_limit(self):
        from fwezeta.files import MAX_DEGREE
        W = enumerator_from_document(
            {"degree": MAX_DEGREE, "coefficients": {"0": "1"}})
        assert W.degree == MAX_DEGREE
        for degree in (MAX_DEGREE + 1, 10 ** 9):
            with pytest.raises(EnumeratorFormatError):
                enumerator_from_document(
                    {"degree": degree, "coefficients": {"0": "1"}})

    def test_requires_monic(self):
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document({"degree": 4, "coefficients": {"4": "1"}})
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document({"degree": 4, "coefficients": {"0": "2", "4": "1"}})

    def test_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(EnumeratorFormatError):
            read_enumerator_file(path)
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document([1, 2, 3])
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document({"degree": "12", "coefficients": {"0": "1"}})
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document({"degree": 4, "coefficients": {"00": "1"}})

    @pytest.mark.parametrize("key", ["1\u0663", "\u0664", "\uff14", "1\u09e9"])
    def test_rejects_non_ascii_digit_keys(self, key):
        # Arabic-Indic, fullwidth and Bengali digits: int() reads them, so
        # "1\u0663" would land on index 13 and silently replace "13"
        with pytest.raises(EnumeratorFormatError):
            enumerator_from_document(
                {"degree": 13, "coefficients": {"0": "1", "13": "1", key: "5"}})

    @pytest.mark.parametrize("text", [
        '{"degree": 12, "coefficients": '
        '{"0": "1", "4": "-33", "8": "-33", "12": "1", "4": "7"}}',
        '{"degree": 8, "degree": 12, "coefficients": '
        '{"0": "1", "4": "-33", "8": "-33", "12": "1"}}'])
    def test_rejects_repeated_keys(self, tmp_path, text):
        # json alone keeps the last value: A_4 = 7, or degree 12
        path = tmp_path / "w.json"
        path.write_text(text)
        with pytest.raises(EnumeratorFormatError, match="repeated key"):
            read_enumerator_file(path)

    @pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejects_bad_bytes_and_long_integers(self, tmp_path, content):
        # int() and the UTF-8 decoder raise plain ValueErrors for these
        path = tmp_path / "w.json"
        path.write_bytes(content)
        with pytest.raises(EnumeratorFormatError) as info:
            read_enumerator_file(path)
        assert "set_int_max_str_digits" not in str(info.value)

    def test_writer_refuses_non_monic(self, tmp_path):
        with pytest.raises(EnumeratorFormatError):
            write_enumerator_file(HomogeneousPoly(2, [2, 0, 1]), tmp_path / "x.json")


class TestGoldenTable:
    def test_covers_all_degrees(self):
        table = load_golden_table()
        assert [e.n for e in table] == list(range(12, 197, 8))

    def test_entries_internally_consistent(self):
        for entry in load_golden_table():
            W = entry.expand()
            assert is_formal_weight_enumerator(W).ok, entry.n
            assert min_weight_index(W) == entry.d == extremal_min_index(entry.n)
            lo, hi = entry.d // 4, (entry.n - 4) // 8
            assert sorted(entry.coefficients) == [4 * j for j in range(lo, hi + 1)]

    def test_spot_values(self):
        table = {e.n: e for e in load_golden_table()}
        assert table[12].coefficients[4] == -33
        assert table[36].coefficients[16] == -111573
        assert table[100].coefficients[48] == -331136219602650
        assert table[196].coefficients[96] == -69281975548885761832168515738
