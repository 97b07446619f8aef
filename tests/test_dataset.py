import codecs
import copy
import csv
import dataclasses
import inspect
import math
import operator
import os
import pickle
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfrpnet import dataset
from cfrpnet.dataset import (
    CSV_HEADER,
    DEFAULT_FEATURES,
    FIELD_BOUNDS,
    FIELDS,
    HI,
    LO,
    DatasetFormatError,
    FeatureRange,
    NormalizationSpec,
    SpecimenRecord,
    check_values,
    correlation_matrix,
    csv_text,
    feature_matrix,
    fit_normalizer,
    json_text,
    normalize_row,
    parse_dataset,
    raw_matrix,
    records_to_csv,
    split,
    summary_stats,
    validate_ranges,
)
from cfrpnet.optimizers import trace_csv
from conftest import make_records, table1_extremes

HEADER = ",".join(CSV_HEADER)


@pytest.fixture
def parse_text(tmp_path):
    """parse_dataset of a file holding the given text (or bytes) exactly, newlines as given."""
    path = tmp_path / "data.csv"

    def parse(text):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8", newline="")
        return parse_dataset(path)
    return parse


# every example of one test call rewrites the fixture's one file
ONE_FILE = [HealthCheck.function_scoped_fixture]


class TestParse:
    def test_single_row(self, parse_text):
        text = HEADER + "\n150,300,0.167,231,30,0.2,1.2,45\n"
        records = parse_text(text)
        assert len(records) == 1
        r = records[0]
        assert (r.d, r.h, r.nt, r.ef) == (150.0, 300.0, 0.167, 231.0)
        assert (r.fco, r.eco, r.ecc, r.fcc) == (30.0, 0.2, 1.2, 45.0)
        assert r.eps_h_rup is None

    def test_empty_after_header(self, parse_text):
        assert parse_text(HEADER + "\n") == []

    def test_str_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(HEADER + "\n150,300,0.167,231,30,0.2,1.2,45\n")
        assert parse_dataset(str(path)) == parse_dataset(path)
        assert len(parse_dataset(str(path))) == 1

    def test_negative_field_names_column(self, parse_text):
        text = HEADER + "\n-1,300,0.167,231,30,0.2,1.2,45\n"
        with pytest.raises(DatasetFormatError, match="'d'"):
            parse_text(text)

    def test_malformed_cell_carries_row_and_column(self, parse_text):
        text = HEADER + "\n150,300,0.167,231,30,0.2,1.2,45\n150,xx,0.167,231,30,0.2,1.2,45\n"
        with pytest.raises(DatasetFormatError) as exc:
            parse_text(text)
        assert str(exc.value) == "could not parse number from 'xx' (row 3, column 'h_mm')"

    def test_missing_header_column(self, parse_text):
        bad = HEADER.replace("h_mm,", "")
        with pytest.raises(DatasetFormatError, match="h_mm"):
            parse_text(bad + "\n")

    def test_wrong_column_count(self, parse_text):
        text = HEADER + "\n150,300,0.167\n"
        with pytest.raises(DatasetFormatError, match="columns"):
            parse_text(text)

    def test_empty_file(self, parse_text):
        with pytest.raises(DatasetFormatError, match="header"):
            parse_text("")

    def test_unexpected_extra_column(self, parse_text):
        with pytest.raises(DatasetFormatError, match="unexpected"):
            parse_text(HEADER + ",banana\n")

    def test_rupture_column_roundtrip(self, parse_text):
        records = make_records(5, seed=3, with_rupture=True)
        parsed = parse_text(records_to_csv(records))
        assert len(parsed) == 5
        for a, b in zip(records, parsed):
            assert b.eps_h_rup == pytest.approx(a.eps_h_rup, rel=1e-15)

    def test_plain_roundtrip(self, parse_text):
        records = make_records(7, seed=4)
        parsed = parse_text(records_to_csv(records))
        for a, b in zip(records, parsed):
            for f in FIELDS:
                assert getattr(b, f) == getattr(a, f)

    def test_blank_lines_skipped(self, parse_text):
        text = HEADER + "\n\n150,300,0.167,231,30,0.2,1.2,45\n\n"
        assert len(parse_text(text)) == 1


ROW = "150,300,0.167,231,30,0.2,1.2,45"
BAD_CELLS = {"x": "could not parse number from 'x'", "": "could not parse number from ''",
             "nan": "non-finite value 'nan'", "inf": "non-finite value 'inf'",
             "-inf": "non-finite value '-inf'", "1e999": "non-finite value '1e999'"}


def _row_with(cells: dict) -> str:
    values = ROW.split(",")
    for column, cell in cells.items():
        values[CSV_HEADER.index(column)] = cell
    return ",".join(values)


class TestParseErrorsKept:
    """The walk parses a row cell by cell; each error's message names its row and column."""

    @pytest.mark.parametrize("column", CSV_HEADER)
    @pytest.mark.parametrize("cell", sorted(BAD_CELLS))
    def test_bad_cell_message_row_and_column(self, parse_text, column, cell):
        text = f"{HEADER}\n{ROW}\n{_row_with({column: cell})}\n"
        with pytest.raises(DatasetFormatError) as exc:
            parse_text(text)
        assert str(exc.value) == f"{BAD_CELLS[cell]} (row 3, column {column!r})"

    def test_first_bad_cell_is_named(self, parse_text):
        text = f"{HEADER}\n{_row_with({'h_mm': 'nan', 'ef_gpa': 'x', 'fcc_mpa': ''})}\n"
        with pytest.raises(DatasetFormatError, match=r"^non-finite value 'nan' \(row 2, column 'h_mm'\)$"):
            parse_text(text)

    @pytest.mark.parametrize("cell", ["x", "nan", "inf", "1e999"])
    def test_bad_rupture_cell(self, parse_text, cell):
        text = f"{HEADER},eps_hrup\n{ROW},0.01\n{ROW},{cell}\n"
        with pytest.raises(DatasetFormatError) as exc:
            parse_text(text)
        assert str(exc.value) == f"{BAD_CELLS[cell]} (row 3, column 'eps_hrup')"

    def test_largest_finite_cells_parse(self, parse_text):
        # their sum overflows, yet every cell is finite: the row is a record
        (record,) = parse_text(f"{HEADER}\n{','.join(['1e308'] * 8)}\n")
        assert [getattr(record, f) for f in FIELDS] == [1e308] * 8

    def test_blank_and_padded_rows(self, parse_text):
        padded = ",".join(f" {v}\t" for v in ROW.split(","))
        text = (f"{HEADER},eps_hrup\n   \n{' ,' * 8}\t\n{padded}, \n{ROW},\n\t\n"
                f"{ROW}, 0.01 \n,,,,,,,,\n")
        records = parse_text(text)
        assert [r.eps_h_rup for r in records] == [None, None, 0.01]
        assert records[0] == records[1] == dataclasses.replace(records[2], eps_h_rup=None)
        assert (records[0].d, records[0].fcc) == (150.0, 45.0)


RECORD = SpecimenRecord(150.0, 300.0, 0.167, 231.0, 30.0, 0.2, 1.2, 45.0)
# Each file's outcome: its records, or the error's message.
SOURCE_CASES = {
    "crlf": (f"{HEADER}\r\n{ROW}\r\n{ROW.replace('150', '160')}\r\n",
             [RECORD, dataclasses.replace(RECORD, d=160.0)]),
    "lone_cr": (f"{HEADER}\r{ROW}\r{ROW.replace('30', '35')}\r",
                [RECORD, dataclasses.replace(RECORD, h=350.0, fco=35.0)]),
    "blank_lines": (f"{HEADER}\n\n{ROW}\n\r\n\n{ROW}\n\n", [RECORD, RECORD]),
    "quoted_cells": (f'{HEADER}\n"150","300",0.167,"231",30,0.2,1.2,"45"\n"150\r\n",300,0.167,231,30,0.2,1.2,45\n',
                     [RECORD, RECORD]),
    "bad_cell_row_4": (f"{HEADER}\n{ROW}\n\n150,300,0.167,231,xx,0.2,1.2,45\n{ROW}\n",
                       "could not parse number from 'xx' (row 4, column 'fco_mpa')"),
    "bad_cell_after_quoted_newline": (
        f'{HEADER}\n"150\n",300,0.167,231,30,0.2,1.2,45\n150,300,0.167,231,xx,0.2,1.2,45\n',
        "could not parse number from 'xx' (row 4, column 'fco_mpa')"),
    "bad_cell_crlf": (f"{HEADER}\r\n{ROW}\r\n150,300,0.167,231,30,0.2,zz,45\r\n",
                      "could not parse number from 'zz' (row 3, column 'ecc_pct')"),
    "bad_quoted_cell": (f'{HEADER}\n{ROW}\n150,"3\r\n00",0.167,231,30,0.2,1.2,45\n',
                        "could not parse number from '3\\r\\n00' (row 4, column 'h_mm')"),
    "bad_record_lone_cr": (f"{HEADER}\r{ROW}\r-150,300,0.167,231,30,0.2,1.2,45\r",
                           "field 'd' must be positive and finite, got -150.0 (row 3)"),
    "lone_cr_in_a_cell": (f"{HEADER}\n{ROW[:-1]}\r{ROW[-1]}\n",
                          "expected 8 columns, found 1 (row 3)"),
    # plain files (numpy's reader takes them): the record's ValueError sends the file to the
    # walk, which names the row
    "plain_h_below_d": (f"{HEADER}\n{ROW}\n150,100,0.167,231,30,0.2,1.2,45\n",
                        "cylinder height 100.0 is smaller than diameter 150.0 (row 3)"),
    "plain_negative_rupture": (f"{HEADER},eps_hrup\n{ROW},0.01\n{ROW},-0.01\n",
                               "eps_h_rup must be non-negative and finite, got -0.01 (row 3)"),
    "plain_zero_field": (f"{HEADER}\n{ROW}\n{_row_with({'nt_mm': '0'})}\n",
                         "field 'nt' must be positive and finite, got 0.0 (row 3)"),
    # numpy's reader and float() disagree on these cells: they keep the walk's outcome
    "file_separator_cell": (f"{HEADER}\n{_row_with({'d_mm': chr(0x1C) + '1'})}\n",
                            "could not parse number from '\\x1c1' (row 2, column 'd_mm')"),
    "underscore_cell": (f"{HEADER}\n{_row_with({'h_mm': '1_000'})}\n",
                        [dataclasses.replace(RECORD, h=1000.0)]),
    "arabic_indic_cell": (f"{HEADER}\n{_row_with({'fco_mpa': '١٢'})}\n",
                          [dataclasses.replace(RECORD, fco=12.0)]),
}


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except DatasetFormatError as exc:
        return str(exc)


def _path_outcome(parse, path):
    """parse(path)'s records, or its ValueError's type and message."""
    try:
        return parse(path)
    except ValueError as exc:
        return (type(exc), str(exc))


ALPHABET = '0123456789.,-+eE"\r\n infa\t_\x1c\x1d\x1e\x1f١'
# one value spelt eight ways, so that rows of them are records (h == d)
SAME = ["150", "150.0", "1.5e2", "+150", "0150", "150.", "15E1", "1500e-1"]
ODD = ["", "-1", "0", "1e999", "1e-400", ".", "e", "nan", " 150", "150\t", '"150"', "1_000",
       "١٢", "\x1c1"]
ROWS = st.builds(lambda cells, last: ",".join(cells + last),
                 st.lists(st.sampled_from(SAME), min_size=8, max_size=8),
                 st.lists(st.sampled_from(SAME + ODD), max_size=1))
BODIES = (st.text() | st.text(alphabet=ALPHABET)
          | st.builds(lambda rows, end, tail: end.join(rows) + tail,
                      st.lists(ROWS | st.text(alphabet=ALPHABET, max_size=12), max_size=6),
                      st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\n"])))


class TestParseAnyText:
    @settings(max_examples=300, deadline=None, suppress_health_check=ONE_FILE)
    @given(header=st.sampled_from([HEADER, f"{HEADER},eps_hrup"]), body=BODIES)
    @pytest.mark.filterwarnings("error")
    def test_records_or_value_error(self, tmp_path, header, body):
        # the canonical header and any body: the walk's records or error, and no warning;
        # numpy's reader, where it returns, returns the walk's records
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n{body}", encoding="utf-8", newline="")
        walked = _path_outcome(dataset._walk_dataset, path)
        assert _path_outcome(parse_dataset, path) == walked
        plain = _path_outcome(dataset._parse_plain, path)
        assert plain == walked or plain[0] is ValueError
        if isinstance(walked, list):
            assert all(isinstance(r, SpecimenRecord) for r in walked)


@st.composite
def valid_records(draw):
    """Any record the rules accept: positive finite fields, h >= d, eps_h_rup None
    or non-negative and finite (subnormals and the largest floats included)."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    values = {name: draw(positive) for name in FIELDS}
    values["h"] = max(values["h"], values["d"])
    eps = draw(st.none() | st.floats(min_value=0.0, allow_infinity=False))
    return SpecimenRecord(**values, eps_h_rup=eps)


class TestCsvRoundTrip:
    @settings(max_examples=300, deadline=None, suppress_health_check=ONE_FILE)
    @given(records=st.lists(valid_records(), min_size=1, max_size=12))
    def test_write_parse_write_is_exact(self, parse_text, records):
        text = records_to_csv(records)
        parsed = parse_text(text)
        assert parsed == records
        assert records_to_csv(parsed) == text


class TestParseSources:
    """A file is read from its path, in 64 KiB chunks by numpy's reader when it is plain,
    else by the csv walk: line endings, quoting and blank lines as the csv module reads
    them, errors at the file line."""

    @pytest.mark.parametrize("case", sorted(SOURCE_CASES))
    def test_records_or_error_of_each_file(self, parse_text, case):
        text, expected = SOURCE_CASES[case]
        assert _parse_outcome(parse_text, text) == expected

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
        data = f"{HEADER},eps_hrup\n{ROW},0.01\n".encode()
        marked, plain = tmp_path / "bom.csv", tmp_path / "plain.csv"
        marked.write_bytes(codecs.BOM_UTF8 + data)
        plain.write_bytes(data)
        assert parse_dataset(marked) == parse_dataset(plain) == [dataclasses.replace(RECORD, eps_h_rup=0.01)]

    def test_line_reaching_the_csv_field_limit_is_walked(self, parse_text):
        # numpy's reader would take the cell as 150; the walk refuses it
        cell = "0" * csv.field_size_limit() + "150"
        with pytest.raises(DatasetFormatError) as exc:
            parse_text(f"{HEADER}\n{_row_with({'d_mm': cell})}\n")
        assert str(exc.value).startswith("field larger than field limit")
        assert str(exc.value).endswith(" (row 2)")

    def test_path_parse_keeps_only_the_records(self, tmp_path, parse_text):
        # the fast path holds one 64 KiB chunk of text, then one float64 array and one list per
        # column, not the file's text and a copy of it
        path = tmp_path / "big.csv"
        path.write_text(records_to_csv(make_records(8000, seed=5, with_rupture=True)))
        parse_text(HEADER + "\n" + ROW + "\n")  # warm up one-time caches
        tracemalloc.start()
        try:
            records = parse_dataset(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 8000
        assert peak < 1.5 * kept


class TestReportFormat:
    def test_csv_cell_rules(self):
        cells = (None, "ann", 7, np.int64(8), 0.1, np.float64(2.5), 150.0)
        expected = ("", "ann", "7", "8", "0.1", "2.5", "150.0")
        header = ("none", "str", "int", "np_int", "float", "np_float", "whole")
        # across one row and down one column
        assert csv_text(header, [cells]) == ",".join(header) + "\n" + ",".join(expected) + "\n"
        assert csv_text(("cell",), [(c,) for c in cells]) == "cell\n" + "\n".join(expected) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
    def test_non_finite_numbers_refused(self, value):
        # reports are strict JSON (RFC 8259 has no NaN or Infinity) and finite CSV
        with pytest.raises(ValueError):
            json_text({"a": [1.0, value]})
        with pytest.raises(ValueError, match="is not a finite number"):
            csv_text(("a", "b"), [(1.0, 2.0), (None, value)])

    def test_json_text_ends_with_one_newline(self):
        text = json_text({"b": [1.5, None], "a": {}})
        assert text.endswith("}\n") and not text.endswith("\n\n")
        assert text.index('"a"') < text.index('"b"')

    def test_integer_valued_inputs_render_as_floats(self):
        record = SpecimenRecord(d=150, h=300, nt=1, ef=231, fco=30, eco=2, ecc=3, fcc=60)
        assert records_to_csv([record]).splitlines()[1] == "150.0,300.0,1.0,231.0,30.0,2.0,3.0,60.0"
        assert trace_csv([3, 2]) == "iteration,best_fitness\n0,3.0\n1,2.0\n"


class TestRecordInvariants:
    def test_height_below_diameter_rejected(self):
        with pytest.raises(ValueError, match="height"):
            SpecimenRecord(d=300, h=150, nt=0.2, ef=231, fco=30, eco=0.2, ecc=1.2, fcc=45)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="fco"):
            SpecimenRecord(d=150, h=300, nt=0.2, ef=231, fco=float("nan"), eco=0.2, ecc=1.2, fcc=45)

    def test_fcc_below_fco_allowed(self):
        r = SpecimenRecord(d=150, h=300, nt=0.2, ef=231, fco=50, eco=0.2, ecc=1.2, fcc=45)
        assert r.fcc < r.fco

    def test_slotted_record_copies_pickles_and_replaces(self):
        r = SpecimenRecord(d=150, h=300, nt=0.2, ef=231, fco=50, eco=0.2, ecc=1.2, fcc=45, eps_h_rup=0.01)
        assert not hasattr(r, "__dict__")
        for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert other == r and other is not r
        assert dataclasses.replace(r, d=100.0) == SpecimenRecord(
            d=100.0, h=300, nt=0.2, ef=231, fco=50, eco=0.2, ecc=1.2, fcc=45, eps_h_rup=0.01)
        with pytest.raises(ValueError, match="height"):
            dataclasses.replace(r, d=400.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.d = 1.0


class TestRecordConstruction:
    """The record's hand-written __init__ keeps the dataclass's construction surface."""

    VALUES = (150.0, 300.0, 0.3, 231.0, 50.0, 0.2, 1.2, 45.0, 0.01)  # all distinct

    def test_signature_match_args_and_fields(self):
        keyword = inspect.Parameter.POSITIONAL_OR_KEYWORD
        parameters = [(p.name, p.kind, p.default, p.annotation)
                      for p in inspect.signature(SpecimenRecord).parameters.values()]
        assert parameters == [(name, keyword, inspect.Parameter.empty, "float") for name in FIELDS] + [
            ("eps_h_rup", keyword, None, "float | None")]
        assert SpecimenRecord.__match_args__ == (*FIELDS, "eps_h_rup")
        assert [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(SpecimenRecord)] == [
            (name, "float", dataclasses.MISSING, True) for name in FIELDS] + [
            ("eps_h_rup", "float | None", None, True)]

    def test_every_path_builds_an_equal_record(self):
        positional = SpecimenRecord(*self.VALUES)
        others = (SpecimenRecord(**dict(zip(SpecimenRecord.__match_args__, self.VALUES))),
                  dataclasses.replace(SpecimenRecord(*self.VALUES[:8]), eps_h_rup=0.01),
                  pickle.loads(pickle.dumps(positional)), copy.copy(positional))
        for other in others:
            assert other == positional and hash(other) == hash(positional)
            assert dataclasses.astuple(other) == self.VALUES
        assert SpecimenRecord(*self.VALUES[:8]).eps_h_rup is None

    @pytest.mark.parametrize("args, kwargs, message", [
        (VALUES[:7], {}, "missing 1 required positional argument: 'fcc'"),
        ((), {}, "missing 8 required positional arguments"),
        (VALUES, {"fc": 1.0}, "got an unexpected keyword argument 'fc'"),
        (VALUES[:8], {"d": 1.0}, "got multiple values for argument 'd'"),
        ((*VALUES, 1.0), {}, "takes from 9 to 10 positional arguments but 11 were given"),
    ])
    def test_missing_or_unknown_argument_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=re.escape(f"SpecimenRecord.__init__() {message}")):
            SpecimenRecord(*args, **kwargs)


def _check_by_field(values) -> None:
    """The per-field rules check_values applies, one field at a time (the oracle)."""
    for name in FIELDS:
        value = getattr(values, name, 1.0)
        if not 0.0 < value < math.inf:
            raise ValueError(f"field {name!r} must be positive and finite, got {value}")
    if getattr(values, "h", math.inf) < getattr(values, "d", 0.0):
        raise ValueError(f"cylinder height {values.h} is smaller than diameter {values.d}")
    eps = getattr(values, "eps_h_rup", None)
    if eps is not None and not 0.0 <= eps < math.inf:
        raise ValueError(f"eps_h_rup must be non-negative and finite, got {eps}")


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, TypeError) as exc:
        return (type(exc), str(exc))


def _built(fields) -> tuple:
    """SpecimenRecord(**fields)'s outcome, a record as ("ok", None), as the oracle gives it."""
    outcome = _outcome(lambda: SpecimenRecord(**fields))
    if outcome[0] == "ok":
        assert type(outcome[1]) is SpecimenRecord
        return ("ok", None)
    return outcome


# Zero, negatives, NaN, infinities, subnormals, the largest floats, ints and
# a string: every kind of value the rules must accept or reject.
CHECKED_VALUES = (st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 150.0, "x"])
                  | st.floats() | st.integers(-3, 400))


class TestCheckValuesAgreesWithFieldRules:
    @settings(max_examples=500, deadline=None)
    @given(valid_records(), st.dictionaries(st.sampled_from(FIELDS), CHECKED_VALUES, max_size=3),
           st.sets(st.sampled_from(FIELDS), max_size=2),
           st.just("absent") | st.none() | st.floats(0.0, 1.0) | CHECKED_VALUES)
    def test_namespaces_and_records(self, record, changed, absent, eps):
        # a valid record with up to three values replaced and up to two fields absent
        values = {**{name: getattr(record, name) for name in FIELDS}, **changed}
        fields = {name: value for name, value in values.items() if name not in absent}
        if eps != "absent":
            fields["eps_h_rup"] = eps
        expected = _outcome(_check_by_field, SimpleNamespace(**fields))
        assert _outcome(check_values, SimpleNamespace(**fields)) == expected
        if not absent:  # a record checks itself on construction
            assert _built(fields) == expected
            assert _outcome(lambda: check_values(SpecimenRecord(**fields))) == expected

    def test_each_field_each_bad_value(self):
        base = {"d": 150.0, "h": 300.0, "nt": 0.2, "ef": 231.0, "fco": 30.0, "eco": 0.2,
                "ecc": 1.2, "fcc": 45.0, "eps_h_rup": 0.01}
        for name in base:
            for value in (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, "x"):
                fields = {**base, name: value}
                expected = _outcome(_check_by_field, SimpleNamespace(**fields))
                assert _outcome(check_values, SimpleNamespace(**fields)) == expected
                assert _built(fields) == expected
                assert _outcome(lambda: check_values(SpecimenRecord(**fields))) == expected


class TestValidateRanges:
    def _record(self, **overrides):
        base = dict(d=150.0, h=300.0, nt=0.5, ef=231.0, fco=30.0, eco=0.2, ecc=1.2, fcc=45.0)
        base.update(overrides)
        return SpecimenRecord(**base)

    def test_at_min_bound_not_flagged(self):
        report = validate_ranges([self._record(d=51.0, h=102.0)])
        assert not [f for f in report.flags if f.field == "d"]

    def test_above_max_flagged(self):
        report = validate_ranges([self._record(fco=200.0)])
        flags = [f for f in report.flags if f.field == "fco" and f.kind == "above_max"]
        assert len(flags) == 1
        assert flags[0].bound == 188.2

    def test_table_means_clean(self):
        mean_record = SpecimenRecord(d=153.34, h=306.45, nt=0.89, ef=174.68,
                                     fco=42.48, eco=0.27, ecc=1.54, fcc=76.25)
        assert validate_ranges([mean_record]).flags == []

    def test_fcc_below_fco_warning(self):
        report = validate_ranges([self._record(fco=50.0, fcc=45.0)])
        assert any(f.kind == "fcc_below_fco" for f in report.flags)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_ranges([])


class TestSummaryStats:
    def test_two_value_hand_calc(self):
        # field values {1x, 3x}: mean 2x, median 2x, sample stdev sqrt(2)*x
        a = SpecimenRecord(d=100, h=200, nt=1, ef=100, fco=10, eco=1, ecc=1, fcc=20)
        b = SpecimenRecord(d=300, h=600, nt=3, ef=300, fco=30, eco=3, ecc=3, fcc=60)
        s = summary_stats([a, b]).fields["d"]
        assert s.mean == 200.0
        assert s.median == 200.0
        assert s.stdev == pytest.approx(math.sqrt(2) * 100.0, rel=1e-12)
        assert s.range == 200.0

    def test_constant_field_zero_spread(self):
        records = [
            SpecimenRecord(d=150, h=300, nt=0.5, ef=231, fco=30, eco=0.2, ecc=1.2, fcc=f)
            for f in (40.0, 50.0, 60.0)
        ]
        s = summary_stats(records).fields["d"]
        assert s.stdev == 0.0
        assert s.cov == 0.0

    def test_reference_extremes_range(self):
        s = summary_stats(table1_extremes())
        assert s.fields["d"].range == 355.0
        assert s.fields["h"].range == 710.0

    def test_matches_bruteforce_exactly(self):
        # integer-valued fields keep the arithmetic exact
        rng = np.random.default_rng(5)
        records = []
        for _ in range(9):
            d = float(rng.integers(100, 300))
            records.append(SpecimenRecord(d=d, h=2 * d, nt=float(rng.integers(1, 5)),
                                          ef=float(rng.integers(50, 400)),
                                          fco=float(rng.integers(15, 80)),
                                          eco=float(rng.integers(1, 4)),
                                          ecc=float(rng.integers(4, 9)),
                                          fcc=float(rng.integers(90, 200))))
        summary = summary_stats(records)
        for name in FIELDS:
            values = sorted(getattr(r, name) for r in records)
            n = len(values)
            mean = sum(values) / n
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            median = values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
            s = summary.fields[name]
            assert s.mean == mean
            assert s.median == median
            assert s.stdev == pytest.approx(math.sqrt(var), rel=1e-15)
            assert s.min == values[0] and s.max == values[-1]

    def test_order_invariance(self):
        records = make_records(25, seed=6)
        shuffled = list(records)
        np.random.default_rng(1).shuffle(shuffled)
        s1 = summary_stats(records)
        s2 = summary_stats(shuffled)
        for name in FIELDS:
            assert s1.fields[name].mean == pytest.approx(s2.fields[name].mean, rel=1e-12)
            assert s1.fields[name].stdev == pytest.approx(s2.fields[name].stdev, rel=1e-12)

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            summary_stats(make_records(1))


def _huge_moduli(n=20):
    """Valid records, odd rows at 1e200 GPa: their squares overflow float64."""
    return [dataclasses.replace(r, ef=1e200) if i % 2 else r for i, r in enumerate(make_records(n, seed=5))]


@pytest.mark.parametrize("compute, message", [(summary_stats, "summary statistics of field 'ef' overflow"),
                                              (correlation_matrix, "correlation matrix overflows")])
def test_overflow_refused_without_warnings(compute, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow RuntimeWarning included
        with pytest.raises(ValueError, match=message):
            compute(_huge_moduli())


class TestCorrelation:
    def test_unit_diagonal_and_symmetry(self, records):
        corr = correlation_matrix(records)
        assert np.array_equal(np.diag(corr), np.ones(len(FIELDS)))
        assert np.array_equal(corr, corr.T)
        assert np.all(corr >= -1.0) and np.all(corr <= 1.0)

    def test_perfect_linear_relation(self):
        # h = 2*d exactly in make_records
        corr = correlation_matrix(make_records(30, seed=7))
        i, j = FIELDS.index("d"), FIELDS.index("h")
        assert corr[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse_relation(self):
        records = []
        rng = np.random.default_rng(8)
        for _ in range(20):
            fco = rng.uniform(20.0, 60.0)
            d = rng.uniform(100.0, 300.0)
            records.append(SpecimenRecord(d=d, h=2 * d, nt=rng.uniform(0.1, 1.0),
                                          ef=rng.uniform(50.0, 400.0), fco=fco,
                                          eco=rng.uniform(0.18, 0.4),
                                          ecc=rng.uniform(1.0, 3.0), fcc=100.0 - fco))
        corr = correlation_matrix(records)
        i, j = FIELDS.index("fco"), FIELDS.index("fcc")
        assert corr[i, j] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_column_names_field(self):
        records = [
            SpecimenRecord(d=150, h=300, nt=0.5, ef=231, fco=30 + i, eco=0.2, ecc=1.2, fcc=45 + i)
            for i in range(5)
        ]
        with pytest.raises(ValueError, match="'d'"):
            correlation_matrix(records)

    def test_order_invariance(self):
        records = make_records(25, seed=9)
        shuffled = list(records)
        np.random.default_rng(2).shuffle(shuffled)
        assert np.allclose(correlation_matrix(records), correlation_matrix(shuffled),
                           rtol=1e-12, atol=1e-14)


class TestNormalization:
    def test_reference_bounds_map_exactly(self):
        spec = fit_normalizer(table1_extremes())
        for name in FIELDS:
            lo, hi = FIELD_BOUNDS[name]
            assert spec.normalize(name, lo) == 0.1
            assert spec.normalize(name, hi) == 0.9

    def test_midpoint(self):
        spec = NormalizationSpec(ranges={"d": FeatureRange(51.0, 406.0)})
        assert spec.normalize("d", 228.5) == pytest.approx(0.5, abs=1e-13)

    def test_roundtrip_random_values(self):
        spec = fit_normalizer(table1_extremes())
        rng = np.random.default_rng(10)
        for name in FIELDS:
            lo, hi = FIELD_BOUNDS[name]
            width = hi - lo
            # include out-of-range values: extrapolation must round-trip too
            x = rng.uniform(lo - width, hi + width, 1250)
            back = spec.denormalize(name, spec.normalize(name, x))
            assert np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))

    def test_inside_range_lands_in_band(self):
        spec = fit_normalizer(table1_extremes())
        rng = np.random.default_rng(11)
        for name in FIELDS:
            lo, hi = FIELD_BOUNDS[name]
            z = spec.normalize(name, rng.uniform(lo, hi, 500))
            assert np.all(z >= 0.1) and np.all(z <= 0.9)

    def test_constant_feature_rejected(self):
        records = [
            SpecimenRecord(d=150, h=300, nt=0.5, ef=231, fco=30 + i, eco=0.2 + i / 10,
                           ecc=1.2 + i, fcc=45 + i)
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="'d'"):
            fit_normalizer(records)

    def test_fit_uses_given_records_only(self, records):
        spec = fit_normalizer(records)
        d_values = [r.d for r in records]
        assert spec.ranges["d"].x_min == min(d_values)
        assert spec.ranges["d"].x_max == max(d_values)

    def test_spec_dict_roundtrip(self, records):
        spec = fit_normalizer(records)
        restored = NormalizationSpec.from_dict(spec.to_dict())
        assert restored.ranges == spec.ranges
        assert restored.to_dict() == spec.to_dict()
        assert (spec.to_dict()["lo"], spec.to_dict()["hi"]) == (LO, HI) == (0.1, 0.9)

    def test_spec_frozen_over_a_private_copy(self, records):
        ranges = dict(fit_normalizer(records).ranges)
        spec = NormalizationSpec(ranges)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.ranges = {}
        with pytest.raises(TypeError):
            spec.ranges["d"] = FeatureRange(0.0, 1.0)
        ranges["d"] = FeatureRange(0.0, 1.0)  # the caller's dict is not the spec's
        assert spec.ranges["d"] != ranges["d"] and spec == fit_normalizer(records)

    def test_spec_copies_and_pickles(self, records):
        spec = fit_normalizer(records)
        for other in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert other == spec and other.to_dict() == spec.to_dict()
            with pytest.raises(TypeError):
                other.ranges["d"] = FeatureRange(0.0, 1.0)

    @pytest.mark.parametrize("data", [[], {}, {"ranges": []}, {"ranges": {"d": 5}},
                                      {"ranges": {"d": [1.0]}}, {"ranges": {"d": [1.0, "2"]}},
                                      {"ranges": {"d": [1.0, math.nan]}}, {"ranges": {}, "lo": [0]}])
    def test_spec_dict_malformed(self, data):
        with pytest.raises(ValueError):
            NormalizationSpec.from_dict(data)

    @pytest.mark.parametrize("bounds", [{"lo": 0.2}, {"hi": 1.0}, {"lo": 0.9, "hi": 0.1}, {"lo": 0}, {"hi": None}])
    def test_spec_dict_other_range_refused(self, bounds):
        # the range is fixed: a spec mapping onto another would be read as [0.1, 0.9]
        with pytest.raises(ValueError, match=r"^normalization lo/hi must be \[0\.1, 0\.9\], got \["):
            NormalizationSpec.from_dict({"ranges": {"d": [1.0, 2.0]}, **bounds})

    def test_feature_matrix_shape(self, records):
        spec = fit_normalizer(records)
        X = feature_matrix(records, spec)
        assert X.shape == (len(records), 7)
        assert np.all((X >= 0.1) & (X <= 0.9))
        for j, name in enumerate(DEFAULT_FEATURES):  # the seven inputs, in order
            assert np.array_equal(X[:, j], spec.normalize(name, [getattr(r, name) for r in records]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(valid_records(), max_size=30), st.sampled_from([FIELDS, DEFAULT_FEATURES, DEFAULT_FEATURES[::-1]]))
    def test_raw_matrix_equals_array_of_tuples(self, records, fields):
        expected = np.array(list(map(operator.attrgetter(*fields), records)),
                            dtype=float).reshape(-1, len(fields))
        got = raw_matrix(records, fields)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()


# Fractions of the fitted range: both endpoints, interior values and
# extrapolation on both sides.
FRACTIONS = st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(-3.0, 4.0), min_size=1, max_size=12)


@st.composite
def fitted_specs(draw):
    x_min = draw(st.floats(-1e5, 1e5))
    x_max = x_min + draw(st.floats(1e-6, 1e5))
    if not x_max > x_min:
        x_max = x_min + 1.0
    return NormalizationSpec({"v": FeatureRange(x_min, x_max)})


def _rows(spec, n):
    """n bound rows of spec's one field "v", as a model binds its inputs."""
    r = spec.ranges["v"]
    return [("v", r.x_min, r.x_max)] * n


class TestScalarNormalization:
    """Single values through the plain-float path, normalize_row over bound
    rows, give floats with the bits the array path gives."""

    @settings(max_examples=300, deadline=None)
    @given(fitted_specs(), FRACTIONS, st.lists(st.integers(-10**6, 10**6), max_size=4))
    def test_normalize_row_equals_array(self, spec, fractions, ints):
        r = spec.ranges["v"]
        values = [r.x_min, r.x_max, *(r.x_min + f * (r.x_max - r.x_min) for f in fractions)]
        inputs = [*values, *map(float, ints)]
        scalars, warnings = normalize_row(_rows(spec, len(inputs)), iter(inputs))
        assert all(type(z) is float for z in scalars)
        with np.errstate(all="ignore"):
            array = spec.normalize("v", np.array(inputs, dtype=float))
        assert np.array(scalars).tobytes() == array.tobytes()
        assert scalars[0] == LO and scalars[1] == HI  # pinned endpoints
        assert warnings == [f"v={x:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating"
                            for x in inputs if not r.x_min <= x <= r.x_max]

    def test_rows_pair_with_values_in_order(self):
        rows = [("a", 0.0, 1.0), ("b", 10.0, 20.0)]
        assert normalize_row(rows, [1.0, 10.0]) == ([HI, LO], [])
        assert normalize_row(rows, [10.0, 1.0]) == (
            [(LO * (1.0 - 10.0) + HI * (10.0 - 0.0)) / 1.0, (LO * (20.0 - 1.0) + HI * (1.0 - 10.0)) / 10.0],
            ["a=10 outside training range [0, 1]; extrapolating",
             "b=1 outside training range [10, 20]; extrapolating"])

    def test_integer_bounds_keep_float_results(self):
        spec = NormalizationSpec({"v": FeatureRange(0, 10)})
        for x in (0, 10, 0.0, 10.0, 5):
            (z,), warnings = normalize_row(_rows(spec, 1), [x])
            assert type(z) is float and z == spec.normalize("v", np.array([x], dtype=float))[0] and not warnings
        _, warnings = normalize_row(_rows(spec, 3), [10, -1, 11.5])
        assert warnings == ["v=-1 outside training range [0, 10]; extrapolating",
                            "v=11.5 outside training range [0, 10]; extrapolating"]


class TestSplit:
    def test_reference_proportions(self):
        records = make_records(708, seed=12)
        train, test = split(records, 0.75, seed=0)
        assert (len(train), len(test)) == (531, 177)

    def test_small_case(self):
        train, test = split(make_records(4, seed=13), 0.75, seed=99)
        assert (len(train), len(test)) == (3, 1)

    def test_partition_disjoint_exhaustive(self):
        records = make_records(50, seed=14)
        for seed in (0, 1, 17):
            train, test = split(records, 0.6, seed=seed)
            ids = sorted(id(r) for r in train + test)
            assert ids == sorted(id(r) for r in records)
            assert not set(id(r) for r in train) & set(id(r) for r in test)

    def test_determinism(self):
        records = make_records(30, seed=15)
        a = split(records, 0.75, seed=7)
        b = split(records, 0.75, seed=7)
        assert [id(r) for r in a[0]] == [id(r) for r in b[0]]
        assert [id(r) for r in a[1]] == [id(r) for r in b[1]]

    def test_different_seed_differs(self):
        records = make_records(30, seed=16)
        a = split(records, 0.75, seed=1)
        b = split(records, 0.75, seed=2)
        assert [id(r) for r in a[0]] != [id(r) for r in b[0]]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split([], 0.75, seed=0)
        with pytest.raises(ValueError):
            split(make_records(5), 1.0, seed=0)


class TestPlainFastPath:
    """A plain file is read by numpy's reader alone, without the csv walk; a file with a
    blank cell goes to the walk."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        monkeypatch.setattr(dataset, "_walk_dataset", lambda path: pytest.fail(f"walked {path}"))

    @pytest.mark.parametrize("case", ["rupture", "eight_columns", "crlf"])
    def test_plain_file_parses_without_the_walk(self, parse_text, no_walk, case):
        records = make_records(8000, seed=5, with_rupture=case == "rupture")
        text = records_to_csv(records)
        if case == "crlf":
            text = text.replace("\n", "\r\n")
        assert parse_text(text) == records

    def test_blank_rupture_cells_go_to_the_walk(self, tmp_path, monkeypatch):
        # numpy's reader refuses a blank cell, so parse_dataset returns the walk's records
        records = [dataclasses.replace(r, eps_h_rup=None) if i % 3 == 0 else r
                   for i, r in enumerate(make_records(8000, seed=5, with_rupture=True))]
        path = tmp_path / "blank.csv"
        path.write_text(records_to_csv(records))
        with pytest.raises(ValueError):
            dataset._parse_plain(path)
        walked = []
        monkeypatch.setattr(dataset, "_walk_dataset", lambda p: walked.append(p) or records)
        assert parse_dataset(path) is records and walked == [path]
        monkeypatch.undo()
        assert parse_dataset(path) == records

    @pytest.mark.parametrize("case", [c for c in SOURCE_CASES if c.startswith("plain_")])
    def test_bad_record_fails_the_fast_path_in_its_constructor(self, tmp_path, case):
        # numpy's reader reads the file; the record's __init__ raises, without the row
        text, message = SOURCE_CASES[case]
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValueError) as exc:
            dataset._parse_plain(path)
        assert type(exc.value) is ValueError
        assert f"{exc.value} (row 3)" == message

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once_by_the_walk(self):
        # a pipe's bytes are gone once read, so the fast path must not read any first
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, f'{HEADER}\n"150",300,0.167,231,30,0.2,1.2,45\n'.encode())
            os.close(write_end)
            assert parse_dataset(f"/dev/fd/{read_end}") == [RECORD]
        finally:
            os.close(read_end)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_file_without_data_rows_is_empty_without_warnings(self, parse_text, body):
        assert parse_text(f"{HEADER}\n{body}") == []
