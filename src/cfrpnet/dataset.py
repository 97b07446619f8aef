"""CFRP-confined cylinder database handling.

CSV ingestion, range validation against the reference-database bounds,
summary statistics, Pearson correlation, min-max normalization onto
[0.1, 0.9], seeded train/test splitting, ``ConfigBase`` and the report
format (``csv_text``, ``json_text``, ``write_text``). All but ``write_text``
are pure functions of their inputs, so concurrent use is safe.
"""
from __future__ import annotations

import codecs
import csv
import functools
import itertools
import json
import math
import numbers
import operator
import os
import stat
import sys
import types
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

FIELDS = ("d", "h", "nt", "ef", "fco", "eco", "ecc", "fcc")
# The network's inputs, in order: the paper's seven parameters. fcc is the target.
DEFAULT_FEATURES = ("d", "h", "nt", "ef", "fco", "eco", "ecc")
TARGET_FIELD = "fcc"

CSV_COLUMNS = {
    "d": "d_mm",
    "h": "h_mm",
    "nt": "nt_mm",
    "ef": "ef_gpa",
    "fco": "fco_mpa",
    "eco": "eco_pct",
    "ecc": "ecc_pct",
    "fcc": "fcc_mpa",
}
CSV_HEADER = tuple(CSV_COLUMNS[f] for f in FIELDS)
# The normalized range every field is mapped onto.
LO, HI = 0.1, 0.9
# Optional trailing column carrying measured hoop rupture strains
# (dimensionless), used by the empirical strength baselines.
RUPTURE_COLUMN = "eps_hrup"

# Observed bounds of the reference database (mm, GPa, MPa, percent strain).
# Used for range warnings and as sampling bounds for synthetic data.
FIELD_BOUNDS: dict[str, tuple[float, float]] = {
    "d": (51.0, 406.0),
    "h": (102.0, 812.0),
    "nt": (0.09, 5.9),
    "ef": (10.0, 663.0),
    "fco": (12.41, 188.2),
    "eco": (0.1676, 1.53),
    "ecc": (0.083, 4.62),
    "fcc": (18.5, 302.2),
}


def _csv_cell(value) -> str:
    if value is None or isinstance(value, str):
        return "" if value is None else value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"report cell {number!r} is not a finite number")
    return repr(number)


def csv_text(header: Sequence[str], rows) -> str:
    """CSV of every report, one line per row: strings as given, integers as
    digits, other numbers as ``repr(float)`` (exact round trips), None empty.
    A non-finite number raises ValueError."""
    return "\n".join([",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]) + "\n"


def json_text(obj) -> str:
    """JSON of every report and model file: sorted keys, indent 2, final newline.
    Strict JSON: NaN or an infinity raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    """Write UTF-8 text to ``<name>.tmp`` beside path, then ``os.replace`` it: a killed
    process leaves the old file or the new, never a part (no fsync: not OS-crash proof)."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_type_hints = functools.cache(get_type_hints)  # a class's hints never change; resolving them is slow


def _stored(value, hint):
    """value as a field keeps it: sequences for a tuple field as tuples, numpy integers as ints."""
    if isinstance(value, (list, tuple, np.ndarray)) and get_origin(hint) is tuple:
        return tuple(_stored(v, get_args(hint)[0]) for v in value)
    return int(value) if isinstance(value, np.integer) else value


def _matches(value, hint) -> bool:
    if get_origin(hint) in (Union, types.UnionType):
        return any(_matches(value, arg) for arg in get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        try:
            return isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_matches(v, get_args(hint)[0]) for v in value)
    return isinstance(value, hint)


class ConfigBase:
    """Validating base of the config dataclasses.

    On construction every field is checked against its annotation: an
    ``int`` takes an integral value, a ``float`` a finite real, a ``str`` a
    string, a ``tuple[X, ...]`` a list, tuple or array of X (stored as a
    tuple), a class an instance of it, and ``X | None`` also None; booleans
    pass only as ``bool``, and numpy integers are stored as ``int``. A
    ``seed`` field must be non-negative, an ``iterations`` field at least
    1, and a ``population`` field at most ``sys.maxsize``, the largest
    count numpy takes. Subclasses call ``super().__post_init__()`` and
    then add their own range checks.
    """

    def __post_init__(self):
        hints = _type_hints(type(self))
        for f in fields(self):
            hint = hints[f.name]
            value = _stored(getattr(self, f.name), hint)
            object.__setattr__(self, f.name, value)
            if not _matches(value, hint):
                kind = hint.__name__ if isinstance(hint, type) else str(hint)
                raise ValueError(f"{type(self).__name__}.{f.name} must be {kind}, got {value!r}")
        if getattr(self, "seed", 0) < 0:
            raise ValueError("seed must be non-negative")
        if getattr(self, "iterations", 1) < 1:
            raise ValueError("iterations must be >= 1")
        if getattr(self, "population", 0) > sys.maxsize:
            raise ValueError(f"population must be at most {sys.maxsize}")

    @classmethod
    def from_dict(cls, data: Mapping):
        """Build from a mapping of field names; unknown or missing keys raise ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError(f"{cls.__name__} settings must be a mapping, got {type(data).__name__}")
        unknown = sorted(map(str, data.keys() - _type_hints(cls).keys()))  # one hint per field
        if unknown:
            raise ValueError(f"unknown config key(s) for {cls.__name__}: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing config key(s) for {cls.__name__}: {', '.join(missing)}")
        return cls(**data)


class DatasetFormatError(ValueError):
    """Malformed CSV input; carries row/column context when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        context = []
        if row is not None:
            context.append(f"row {row}")
        if column is not None:
            context.append(f"column {column!r}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.row = row
        self.column = column


@dataclass(frozen=True, slots=True)
class SpecimenRecord:
    """One CFRP-confined cylinder observation.

    Lengths in mm, modulus in GPa, strengths in MPa, strains in percent.
    ``eps_h_rup`` is an optional dimensionless hoop rupture strain consumed
    by the empirical strength models.
    """

    d: float
    h: float
    nt: float
    ef: float
    fco: float
    eco: float
    ecc: float
    fcc: float
    eps_h_rup: float | None = None

    def __post_init__(self):
        check_values(self)


_field_values = operator.attrgetter(*FIELDS)


def check_values(values) -> None:
    """A record's rules for the fields an object holds (a record, or a namespace
    of some fields): FIELDS positive and finite, h not below d, eps_h_rup None
    or non-negative and finite. NaN fails every comparison. A holder of every field
    passes on one chained comparison; the walk below names the first failing field."""
    inf = math.inf
    try:
        d, h, nt, ef, fco, eco, ecc, fcc = _field_values(values)
    except AttributeError:  # some fields absent: walked below
        pass
    else:
        eps = getattr(values, "eps_h_rup", None)
        if (0.0 < d < inf and 0.0 < h < inf and 0.0 < nt < inf and 0.0 < ef < inf
                and 0.0 < fco < inf and 0.0 < eco < inf and 0.0 < ecc < inf and 0.0 < fcc < inf
                and not h < d and (eps is None or 0.0 <= eps < inf)):
            return
    for name in FIELDS:
        value = getattr(values, name, 1.0)
        if not 0.0 < value < math.inf:
            raise ValueError(f"field {name!r} must be positive and finite, got {value}")
    if getattr(values, "h", math.inf) < getattr(values, "d", 0.0):
        raise ValueError(f"cylinder height {values.h} is smaller than diameter {values.d}")
    eps = getattr(values, "eps_h_rup", None)
    if eps is not None and not 0.0 <= eps < math.inf:
        raise ValueError(f"eps_h_rup must be non-negative and finite, got {eps}")


def _check_header(header: Sequence[str]) -> bool:
    """Validate the header; returns True when the rupture column is present."""
    missing = [c for c in CSV_HEADER if c not in header]
    if missing:
        raise DatasetFormatError(f"missing column {missing[0]!r} in header")
    if tuple(header[: len(CSV_HEADER)]) != CSV_HEADER:
        raise DatasetFormatError("header columns must be, in order: " + ",".join(CSV_HEADER))
    extras = list(header[len(CSV_HEADER):])
    if extras and extras != [RUPTURE_COLUMN]:
        raise DatasetFormatError(f"unexpected column(s): {', '.join(extras)}")
    return bool(extras)


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetFormatError(f"could not parse number from {cell!r}", row=row, column=column) from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"non-finite value {cell!r}", row=row, column=column)
    return value


def parse_dataset(path) -> list[SpecimenRecord]:
    """Parse specimen records from a UTF-8 CSV file (str or Path).

    The header must carry the canonical columns ``d_mm,h_mm,nt_mm,ef_gpa,
    fco_mpa,eco_pct,ecc_pct,fcc_mpa`` in that order; an optional trailing
    ``eps_hrup`` column supplies hoop rupture strains. Blank lines are
    skipped, and so is a byte-order mark. Row numbers in errors are 1-based
    file lines (header is 1); a record whose quoted cell spans lines is
    reported at its last line.

    A plain file (a regular file: the exact canonical header, then only the
    bytes ``0-9 e E + - . ,`` and LF or CRLF line ends, as ``records_to_csv``
    writes) is read by numpy's C reader. Any other file (a pipe, quoted or
    padded cells, lone-CR line ends, other characters) and any file the fast
    path fails on is walked by the csv module from its start, and only the
    walk's records or error come out: both paths give the same records.
    Besides the records, the walk holds one row at a time; the C reader holds
    one 64 KiB chunk of text at a time, then the values as one float64 array
    and as one list per column, a peak of about 1.2 times the records' own
    memory.
    """
    try:
        return _parse_plain(path)
    except (ValueError, OSError):  # outside the plain domain, or malformed: the walk decides
        return _walk_dataset(path)


def _walk_dataset(path) -> list[SpecimenRecord]:
    """The reference parse, and the only one that raises: the csv module's walk, row by row."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _read_records(reader)
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise DatasetFormatError(str(exc), row=reader.line_num) from None


def _read_records(reader) -> list[SpecimenRecord]:
    try:
        header = [c.strip() for c in next(reader)]
    except StopIteration:
        raise DatasetFormatError("empty input: missing header") from None
    has_rupture = _check_header(header)

    width = len(CSV_HEADER)
    records: list[SpecimenRecord] = []
    for row in reader:
        line_no = reader.line_num
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise DatasetFormatError(f"expected {len(header)} columns, found {len(row)}", row=line_no)
        # FIELDS order, then eps_hrup unless blank (the record's default None)
        cells = row if has_rupture and row[width].strip() else row[:width]
        try:
            values = list(map(float, cells))
            finite = math.isfinite(sum(values))
        except ValueError:
            finite = False
        if not finite:  # name the bad cell; finite cells whose sum overflows parse again here
            values = list(map(_parse_float, cells, itertools.repeat(line_no),
                              (*CSV_HEADER, RUPTURE_COLUMN)))
        try:
            records.append(SpecimenRecord(*values))
        except ValueError as exc:
            raise DatasetFormatError(str(exc), row=line_no) from None
    return records


# The fast path's domain: the exact header line (with or without the rupture column),
# then only these bytes. float() and numpy's reader agree on every cell spelt with them.
_PLAIN_HEADERS = {",".join(CSV_HEADER).encode(): False,
                  ",".join((*CSV_HEADER, RUPTURE_COLUMN)).encode(): True}
_PLAIN_BYTES = b"0123456789eE+-.,\n"  # and CR, in CRLF only
_PLAIN_CHUNK = 1 << 16


def _plain_lines(fh, rupture: bool):
    """The rest of a binary file as lists of lines, one 64 KiB chunk (completed to a
    line end) at a time. ValueError on a byte outside the domain, a lone CR, a line as
    long as the csv module's field limit (the walk refuses it) or a file without a data
    row (numpy warns on one). With ``rupture``, a blank last cell reads as NaN, which
    no plain cell spells."""
    limit = csv.field_size_limit()
    rows = False
    while chunk := fh.read(_PLAIN_CHUNK):
        chunk += fh.readline(limit)
        if len(chunk) >= limit:
            raise ValueError("a line reaches the csv field limit")
        if rest := chunk.translate(None, _PLAIN_BYTES):  # one C pass; all CRs are left
            if rest.strip(b"\r") or chunk.count(b"\r\n") != len(rest):
                raise ValueError("not a plain file")
            chunk = chunk.replace(b"\r", b"")
        if rupture:
            chunk = chunk.replace(b",\n", b",nan\n") + (b"nan" if chunk.endswith(b",") else b"")
        rows = rows or bool(chunk.strip(b"\n"))
        yield chunk.decode("ascii").splitlines()
    if not rows:
        raise ValueError("no data rows")


def _parse_plain(path) -> list[SpecimenRecord]:
    """parse_dataset of a plain file by numpy's C reader; ValueError on any other file."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe reads once: only the walk may read it
        raise ValueError("not a regular file")
    with open(path, "rb") as fh:
        header = fh.readline(_PLAIN_CHUNK).removeprefix(codecs.BOM_UTF8).rstrip(b"\r\n")
        rupture = _PLAIN_HEADERS.get(header)
        if rupture is None:
            raise ValueError("not the canonical header")
        lines = itertools.chain.from_iterable(_plain_lines(fh, rupture))
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != len(CSV_HEADER) + rupture:
        raise ValueError(f"{table.shape[1]} columns under the header")
    columns = table.T.tolist()
    del table  # the records' floats are in the lists now
    if rupture:
        columns[-1] = [None if eps != eps else eps for eps in columns[-1]]  # NaN: blank
    return list(map(SpecimenRecord, *columns))


def records_to_csv(records: Sequence[SpecimenRecord]) -> str:
    """Serialize records back to the canonical CSV schema.

    The ``eps_hrup`` column is emitted when any record carries a rupture
    strain; records without one get an empty cell.
    """
    include_rupture = any(r.eps_h_rup is not None for r in records)
    header = CSV_HEADER + ((RUPTURE_COLUMN,) if include_rupture else ())
    rows = ([float(getattr(r, f)) for f in FIELDS]
            + ([None if r.eps_h_rup is None else float(r.eps_h_rup)] if include_rupture else [])
            for r in records)
    return csv_text(header, rows)


@dataclass(frozen=True)
class RangeFlag:
    """One out-of-range warning for one record field."""

    index: int
    field: str
    value: float
    kind: str  # below_min | above_max | fcc_below_fco
    bound: float


@dataclass
class ValidationReport:
    n_records: int
    flags: list[RangeFlag]

    def to_dict(self) -> dict:
        return {**asdict(self), "n_flags": len(self.flags)}


def validate_ranges(records: Sequence[SpecimenRecord]) -> ValidationReport:
    """Flag fields lying outside the reference-database ranges (FIELD_BOUNDS).

    Flags are warnings only; a new database may legitimately exceed the
    ranges. Records with fcc below fco get an extra warning flag.
    """
    if not records:
        raise ValueError("validate_ranges requires at least one record")
    flags: list[RangeFlag] = []
    for i, r in enumerate(records):
        for name in FIELDS:
            lo, hi = FIELD_BOUNDS[name]
            value = getattr(r, name)
            if value < lo:
                flags.append(RangeFlag(i, name, float(value), "below_min", lo))
            elif value > hi:
                flags.append(RangeFlag(i, name, float(value), "above_max", hi))
        if r.fcc < r.fco:
            flags.append(RangeFlag(i, "fcc", float(r.fcc), "fcc_below_fco", float(r.fco)))
    return ValidationReport(n_records=len(records), flags=flags)


@dataclass(frozen=True)
class FieldStats:
    min: float
    max: float
    range: float
    mean: float
    median: float
    stdev: float
    cov: float


@dataclass
class DatasetSummary:
    n: int
    fields: dict[str, FieldStats]

    def to_dict(self) -> dict:
        return asdict(self)


def raw_matrix(records: Sequence[SpecimenRecord], fields: Sequence[str]) -> np.ndarray:
    values = itertools.chain.from_iterable(map(operator.attrgetter(*fields), records))
    return np.fromiter(values, dtype=float, count=len(records) * len(fields)).reshape(-1, len(fields))


@np.errstate(all="ignore")  # a non-finite statistic is refused below, not warned about
def summary_stats(records: Sequence[SpecimenRecord]) -> DatasetSummary:
    """Per-field sample statistics (stdev uses the n-1 convention).
    A statistic that overflows float64 raises ValueError."""
    if len(records) < 2:
        raise ValueError("summary_stats requires at least 2 records")
    data = raw_matrix(records, FIELDS)
    stats: dict[str, FieldStats] = {}
    for j, name in enumerate(FIELDS):
        col = data[:, j]
        lo = float(np.min(col))
        hi = float(np.max(col))
        mean = float(np.mean(col))
        stdev = float(np.std(col, ddof=1))
        stats[name] = FieldStats(
            min=lo,
            max=hi,
            range=hi - lo,
            mean=mean,
            median=float(np.median(col)),
            stdev=stdev,
            cov=stdev / mean,
        )
        if not all(map(math.isfinite, astuple(stats[name]))):
            raise ValueError(f"summary statistics of field {name!r} overflow for values up to {hi:g}")
    return DatasetSummary(n=len(records), fields=stats)


@np.errstate(all="ignore")  # a non-finite coefficient is refused below, not warned about
def correlation_matrix(records: Sequence[SpecimenRecord]) -> np.ndarray:
    """Pearson correlation matrix over FIELDS.

    Symmetric with an exact unit diagonal; entries clipped into [-1, 1].
    A constant column makes the coefficient undefined and raises, as does
    a coefficient that overflows float64.
    """
    if len(records) < 2:
        raise ValueError("correlation_matrix requires at least 2 records")
    data = raw_matrix(records, FIELDS)
    for name, s in zip(FIELDS, data.std(axis=0)):
        if s == 0.0:
            raise ValueError(f"column {name!r} is constant; correlation undefined")
    corr = np.corrcoef(data, rowvar=False)
    if not np.isfinite(corr).all():
        raise ValueError(f"correlation matrix overflows for values up to {data.max():g}")
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class FeatureRange:
    x_min: float
    x_max: float


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-field affine maps sending [x_min, x_max] onto [LO, HI].

    Values beyond the fitted range extrapolate linearly; out-of-range
    inputs are the business of validate_ranges, not of this map. Frozen, with
    ``ranges`` a read-only view of its own copy: bounds a model bound stay current.
    """

    ranges: Mapping[str, FeatureRange]

    def __post_init__(self):
        object.__setattr__(self, "ranges", types.MappingProxyType(dict(self.ranges)))
        for name, r in self.ranges.items():
            if not r.x_max > r.x_min:
                raise ValueError(f"feature {name!r} has empty range [{r.x_min}, {r.x_max}]")

    def __reduce__(self):  # a mappingproxy does not pickle or copy; a dict of the ranges does
        return type(self), (dict(self.ranges),)

    def normalize(self, field: str, x) -> np.ndarray:
        r = self.ranges[field]
        arr = np.asarray(x, dtype=float)
        z = (LO * (r.x_max - arr) + HI * (arr - r.x_min)) / (r.x_max - r.x_min)
        # pin the endpoints so the fitted bounds map to LO/HI bit-exactly
        return np.where(arr == r.x_min, LO, np.where(arr == r.x_max, HI, z))

    def denormalize(self, field: str, z) -> np.ndarray:
        """The inverse map."""
        r = self.ranges[field]
        return r.x_min + (np.asarray(z, dtype=float) - LO) * (r.x_max - r.x_min) / (HI - LO)

    def to_dict(self) -> dict:
        return {
            "lo": LO,
            "hi": HI,
            "ranges": {name: [r.x_min, r.x_max] for name, r in self.ranges.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NormalizationSpec":
        """Build from the ``to_dict`` layout; any other shape, or a range other than
        [LO, HI] (the keys may be absent), raises ValueError."""
        ranges = data.get("ranges") if isinstance(data, Mapping) else None
        if not isinstance(ranges, Mapping):
            raise ValueError("normalization must be a mapping holding a 'ranges' mapping")
        lo_hi = [data.get("lo", LO), data.get("hi", HI)]
        if lo_hi != [LO, HI]:
            raise ValueError(f"normalization lo/hi must be [{LO}, {HI}], got {lo_hi!r:.80}")
        for name, pair in ranges.items():
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and _matches(pair[0], float) and _matches(pair[1], float)):
                raise ValueError(f"normalization {name} must be a [min, max] pair, got {pair!r}")
        return cls({name: FeatureRange(float(a), float(b)) for name, (a, b) in ranges.items()})


def normalize_row(rows: Sequence[tuple[str, float, float]], values: Iterable) -> tuple[list[float], list[str]]:
    """normalize of each value by its (field, x_min, x_max) row, in plain floats with the same
    IEEE operations in the same order (so the same bits, without numpy's per-call cost), and
    an extrapolation warning for each value outside its row's range."""
    row, warnings = [], []
    for (field, lo, hi), x in zip(rows, values):
        x = float(x)
        row.append(LO if x == lo else HI if x == hi else (LO * (hi - x) + HI * (x - lo)) / (hi - lo))
        if not lo <= x <= hi:
            warnings.append(f"{field}={x:g} outside training range [{lo:g}, {hi:g}]; extrapolating")
    return row, warnings


def fit_normalizer(records: Sequence[SpecimenRecord]) -> NormalizationSpec:
    """Fit every field's min/max from the given (training) records, onto [LO, HI]."""
    if len(records) < 2:
        raise ValueError("fit_normalizer requires at least 2 records")
    data = raw_matrix(records, FIELDS)
    ranges: dict[str, FeatureRange] = {}
    for j, name in enumerate(FIELDS):
        x_min = float(np.min(data[:, j]))
        x_max = float(np.max(data[:, j]))
        if x_max == x_min:
            raise ValueError(f"feature {name!r} is constant; cannot normalize")
        ranges[name] = FeatureRange(x_min, x_max)
    return NormalizationSpec(ranges=ranges)


def feature_matrix(records: Sequence[SpecimenRecord], spec: NormalizationSpec) -> np.ndarray:
    """Normalized DEFAULT_FEATURES matrix, one row per record."""
    raw = raw_matrix(records, DEFAULT_FEATURES)
    return np.column_stack([spec.normalize(f, raw[:, j]) for j, f in enumerate(DEFAULT_FEATURES)])


def target_vector(records: Sequence[SpecimenRecord], spec: NormalizationSpec) -> np.ndarray:
    raw = np.array([getattr(r, TARGET_FIELD) for r in records], dtype=float)
    return spec.normalize(TARGET_FIELD, raw)


def split(
    records: Sequence[SpecimenRecord], train_fraction: float = 0.75, seed: int = 0
) -> tuple[list[SpecimenRecord], list[SpecimenRecord]]:
    """Disjoint, exhaustive train/test partition via a seeded shuffle.

    The train size is round(n * train_fraction) with halves rounded up,
    so 708 records at 0.75 give exactly 531 + 177.
    """
    if not records:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = len(records)
    n_train = int(math.floor(n * train_fraction + 0.5))
    order = np.random.default_rng(seed).permutation(n)
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    return train, test


def summary_to_csv(summary: DatasetSummary) -> str:
    header = ("field", *(f.name for f in fields(FieldStats)))
    return csv_text(header, ((name, *astuple(s)) for name, s in summary.fields.items()))


def correlation_to_csv(matrix: np.ndarray) -> str:
    return csv_text(("field", *FIELDS), ((name, *row) for name, row in zip(FIELDS, matrix)))
