"""Parsing of request/event logs into typed records, contingency tables and
hourly series.

Input format is UTF-8 delimited text (comma by default) with a mandatory
header row. Level ids are assigned in first-seen order so that runs are
reproducible; empty factor values become the reserved level ``__missing__``.
Timestamps are integer epoch seconds UTC and hour buckets are
``floor(ts / 3600)``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from itertools import count, islice, repeat
from operator import itemgetter
from sys import intern
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadLabel, MissingColumn, RaggedRow, UnalignedWindow

MISSING_LEVEL = "__missing__"

SECONDS_PER_HOUR = 3600

# Rows per block where a batch turns rows into Python objects: fewer than
# the cyclic collector's first-generation threshold (gc.get_threshold()[0],
# 700 by default), so that a block's row lists are freed before a
# collection scans them. 64k-row blocks cost about as much in collections
# as the work itself.
ROW_BLOCK = 256


@dataclass(frozen=True)
class Schema:
    """Column layout of a request log."""

    factor_columns: tuple[str, ...]
    label_column: str
    timestamp_column: str | None = None
    user_column: str | None = None
    browser_column: str | None = None

    def __post_init__(self):
        if not self.factor_columns:
            raise ValueError("factor_columns must be non-empty")
        if len(set(self.factor_columns)) != len(self.factor_columns):
            raise ValueError("factor_columns contains duplicates")
        reserved = {self.label_column, self.timestamp_column, self.user_column,
                    self.browser_column}
        overlap = set(self.factor_columns) & reserved
        if overlap:
            raise ValueError(f"factor columns overlap non-factor columns: {sorted(overlap)}")

    @property
    def m(self) -> int:
        return len(self.factor_columns)

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        doc = json.loads(text)
        version = doc.get("version")
        if version != 1:
            raise ValueError(f"unsupported schema version: {version!r}")
        return cls(
            factor_columns=tuple(doc["factors"]),
            label_column=doc["label"],
            timestamp_column=doc.get("timestamp"),
            user_column=doc.get("user"),
            browser_column=doc.get("browser"),
        )

    def to_json(self) -> str:
        doc: dict = {"version": 1, "factors": list(self.factor_columns),
                     "label": self.label_column}
        for key, value in (("timestamp", self.timestamp_column),
                           ("user", self.user_column),
                           ("browser", self.browser_column)):
            if value is not None:
                doc[key] = value
        return json.dumps(doc)


class FactorDictionary:
    """Bijective label <-> id mapping per factor, ids in first-seen order."""

    def __init__(self, factor_names: Sequence[str],
                 levels: Sequence[Sequence[str]] | None = None):
        self.factor_names = list(factor_names)
        self._levels: list[list[str]] = [list(ls) for ls in levels] if levels \
            else [[] for _ in factor_names]
        for name, ls in zip(self.factor_names, self._levels):
            if len(set(ls)) != len(ls):
                raise ValueError(f"duplicate level labels in factor {name!r}")

    @property
    def m(self) -> int:
        return len(self.factor_names)

    def levels(self, factor: int) -> list[str]:
        return list(self._levels[factor])

    def level_count(self, factor: int) -> int:
        return len(self._levels[factor])

    def label_of(self, factor: int, level_id: int) -> str:
        return self._levels[factor][level_id]

    def fingerprint(self) -> str:
        """Stable digest of factor names and level labels, in id order."""
        payload = json.dumps(
            {"factors": self.factor_names, "levels": self._levels},
            ensure_ascii=False, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactorDictionary)
                and self.factor_names == other.factor_names
                and self._levels == other._levels)


@dataclass(frozen=True)
class RequestRecord:
    """One bid request: per-factor level ids plus a binary outcome."""

    factors: tuple[int, ...]
    label: int


class RequestBatch(Sequence[RequestRecord]):
    """Array-backed sequence of RequestRecords.

    ``factors`` is an (n, m) int32 matrix of level ids, ``labels`` an (n,)
    int8 vector. Behaves as a read-only list of RequestRecord.
    """

    def __init__(self, factors: np.ndarray, labels: np.ndarray):
        factors = np.ascontiguousarray(factors, dtype=np.int32)
        labels = np.asarray(labels, dtype=np.int8)
        if factors.ndim != 2 or labels.ndim != 1 or len(factors) != len(labels):
            raise ValueError("factors must be (n, m) and labels (n,)")
        self.factors = factors
        self.labels = labels

    @property
    def m(self) -> int:
        return self.factors.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RequestBatch(self.factors[i], self.labels[i])
        return RequestRecord(tuple(self.factors[i].tolist()), int(self.labels[i]))

    def __iter__(self) -> Iterator[RequestRecord]:
        for start in range(0, len(self), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            yield from map(RequestRecord, map(tuple, self.factors[rows].tolist()),
                           self.labels[rows].tolist())

    @classmethod
    def from_records(cls, records: Iterable[RequestRecord]) -> "RequestBatch":
        records = list(records)
        if not records:
            return cls(np.empty((0, 0), dtype=np.int32), np.empty(0, dtype=np.int8))
        return cls(np.array([r.factors for r in records], dtype=np.int32),
                   np.array([r.label for r in records], dtype=np.int8))


class FactorTable:
    """Per-factor contingency counts over levels x outcome.

    ``counts[i]`` is an (L_i, 2) int64 array; column s holds the number of
    records with factor i at level k and label s. Each record contributes
    once per factor, so every factor's counts sum to N.
    """

    def __init__(self, counts: Sequence[np.ndarray], total: int,
                 dictionary: FactorDictionary):
        self.counts = [np.asarray(c, dtype=np.int64) for c in counts]
        self.total = int(total)
        self.dictionary = dictionary
        for i, c in enumerate(self.counts):
            if c.ndim != 2 or c.shape[1] != 2:
                raise ValueError(f"counts[{i}] must have shape (L_i, 2)")
            if (c < 0).any():
                raise ValueError(f"counts[{i}] contains negative entries")
            if int(c.sum()) != self.total:
                raise ValueError(
                    f"counts for factor {i} sum to {int(c.sum())}, expected N={self.total}")

    @property
    def m(self) -> int:
        return len(self.counts)

    def level_count(self, factor: int) -> int:
        return self.counts[factor].shape[0]


class EventBatch:
    """Cookie events as columns, one entry per event in input order.

    ``cookies`` and ``browsers`` are int32 codes into ``cookie_labels`` and
    ``browser_labels`` (``parse_cookie_events`` numbers labels in first-seen
    order); ``timestamps`` are int64 epoch seconds.
    """

    def __init__(self, cookies, cookie_labels: Sequence[str], browsers,
                 browser_labels: Sequence[str], timestamps):
        self.cookies = np.asarray(cookies, dtype=np.int32)
        self.browsers = np.asarray(browsers, dtype=np.int32)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.cookie_labels = list(cookie_labels)
        self.browser_labels = list(browser_labels)
        shape = self.timestamps.shape
        if len(shape) != 1 or self.cookies.shape != shape or self.browsers.shape != shape:
            raise ValueError("cookies, browsers and timestamps must be (n,)")

    def __len__(self) -> int:
        return len(self.timestamps)

    def columns(self) -> tuple[list[str], list[str], list[int]]:
        """Each event's cookie id, browser and timestamp, as three lists."""
        return (np.array(self.cookie_labels, dtype=object)[self.cookies].tolist(),
                np.array(self.browser_labels, dtype=object)[self.browsers].tolist(),
                self.timestamps.tolist())


@dataclass
class HourlySeries:
    """Contiguous hourly counts; missing hours are stored as zero."""

    start_hour: int
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")

    def __len__(self) -> int:
        return len(self.counts)


def read_columns(stream: Iterable[str] | str, names: Sequence[str],
                 delimiter: str = ",", check=None) -> list[list[str]]:
    """Read the named columns of a delimited file with a header row.

    Returns one list of raw cells per name, in input order; extra columns are
    ignored. Raises MissingColumn for an empty input or a name missing from
    the header, and RaggedRow for a row (a blank line included) whose width
    differs from the header's. Before raising RaggedRow, ``check`` is called
    with the columns of the rows above the ragged one, so that an error it
    raises on an earlier line wins.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise MissingColumn("input is empty: no header row")
    positions = {name: j for j, name in enumerate(header)}
    for name in names:
        if name not in positions:
            raise MissingColumn(f"column {name!r} not found in header")
    width = len(header)
    getters = [itemgetter(positions[name]) for name in names]
    columns: list[list[str]] = [[] for _ in names]
    interned = None
    lineno = 2
    # Read in chunks of ROW_BLOCK rows. Intern the cells of a column whose
    # first chunk repeats its labels, so that it holds one string per
    # distinct label rather than one per row; interning nearly distinct
    # cells (cookie ids, timestamps) would only cost time.
    while rows := list(islice(reader, ROW_BLOCK)):
        good = rows
        if set(map(len, rows)) - {width}:
            good = rows[:next(i for i, row in enumerate(rows) if len(row) != width)]
        if interned is None:
            interned = [len(set(map(get, good))) * 8 <= len(good) for get in getters]
        for column, get, repeats in zip(columns, getters, interned):
            column += map(intern, map(get, good)) if repeats else map(get, good)
        lineno += len(good)
        if len(good) < len(rows):
            if check is not None:
                check(columns)
            raise RaggedRow(f"line {lineno}: expected {width} fields, "
                            f"got {len(rows[len(good)])}")
    return columns


_LABEL_IDS = {"0": 0, "1": 1}


def _label_ids(column: Sequence[str]) -> np.ndarray:
    labels = np.fromiter(map(_LABEL_IDS.get, column, repeat(-1)), np.int8, len(column))
    bad = np.flatnonzero(labels < 0)
    if len(bad):
        j = int(bad[0])
        raise BadLabel(f"line {j + 2}: label must be 0 or 1, got {column[j]!r}")
    return labels


def _level_ids(column: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Levels in first-seen order, "" read as MISSING_LEVEL, and each cell's id."""
    seen = dict.fromkeys(column)
    levels = list(dict.fromkeys(label or MISSING_LEVEL for label in seen))
    index = {label: k for k, label in enumerate(levels)}
    if "" in seen:
        index[""] = index[MISSING_LEVEL]
    return levels, np.fromiter(map(index.__getitem__, column), np.int32, len(column))


def parse_requests(stream: Iterable[str] | str, schema: Schema,
                   delimiter: str = ",") -> tuple[FactorDictionary, RequestBatch]:
    """Parse delimited request-log lines into level ids against a fresh dictionary.

    The header row must contain every schema column (extras are ignored).
    Raises MissingColumn, BadLabel or RaggedRow; the two row errors name the
    earliest offending line. Input order is preserved.
    """
    *factor_columns, label_column = read_columns(
        stream, [*schema.factor_columns, schema.label_column], delimiter,
        check=lambda columns: _label_ids(columns[-1]))
    labels = _label_ids(label_column)
    levels, ids = zip(*map(_level_ids, factor_columns))
    return (FactorDictionary(list(schema.factor_columns), levels),
            RequestBatch(np.stack(ids, axis=1), labels))


def write_requests_csv(path, schema: Schema, dictionary: FactorDictionary,
                       batch: RequestBatch) -> None:
    """Serialize records back to the delimited form parse_requests accepts."""
    columns = [np.array(dictionary.levels(i), dtype=object)[batch.factors[:, i]].tolist()
               for i in range(batch.m)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*schema.factor_columns, schema.label_column])
        writer.writerows(zip(*columns, batch.labels.tolist()))


def build_factor_table(records: RequestBatch | Sequence[RequestRecord],
                       dictionary: FactorDictionary) -> FactorTable:
    """Aggregate records into per-factor (level x label) contingency counts."""
    if not isinstance(records, RequestBatch):
        records = RequestBatch.from_records(records)
    n = len(records)
    counts = []
    for i in range(dictionary.m):
        levels = dictionary.level_count(i)
        if n:
            flat = records.factors[:, i].astype(np.int64) * 2 + records.labels
            c = np.bincount(flat, minlength=levels * 2).reshape(-1, 2)
            if c.shape[0] > levels:
                raise ValueError(f"record level id out of range for factor {i}")
        else:
            c = np.zeros((levels, 2), dtype=np.int64)
        counts.append(c)
    return FactorTable(counts, n, dictionary)


def _codes(column: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each cell's index among the distinct cells, and those in first-seen order."""
    first_row: dict[str, int] = {}
    first = np.fromiter(map(first_row.setdefault, column, count()), np.int64,
                        len(column))
    is_first = np.zeros(len(column), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first, dtype=np.int32) - 1
    return rank[first], list(first_row)


def _timestamps(column: Sequence[str]) -> np.ndarray:
    """Cells read with Python ``int`` as int64; BadLabel names the first bad one."""
    try:
        return np.fromiter(map(int, column), np.int64, len(column))
    except (ValueError, OverflowError):
        for lineno, cell in enumerate(column, start=2):
            try:
                np.int64(int(cell))
            except (ValueError, OverflowError):
                raise BadLabel(f"line {lineno}: timestamp must be integer epoch "
                               f"seconds, got {cell!r}") from None
        raise


def parse_cookie_events(stream: Iterable[str] | str,
                        delimiter: str = ",") -> EventBatch:
    """Parse a ``cookie_id,browser,timestamp`` file into an EventBatch.

    Raises MissingColumn, RaggedRow, or BadLabel for a timestamp that is not
    an int64 integer; the two row errors name the earliest offending line.
    """
    cookie_ids, browsers, stamps = read_columns(
        stream, ("cookie_id", "browser", "timestamp"), delimiter,
        check=lambda columns: _timestamps(columns[2]))
    return EventBatch(*_codes(cookie_ids), *_codes(browsers), _timestamps(stamps))


def write_events_csv(path, events: EventBatch) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cookie_id", "browser", "timestamp"])
        writer.writerows(zip(*events.columns()))


def aggregate_hourly(timestamps, window: tuple[int, int]) -> tuple[HourlySeries, int]:
    """Count epoch-second timestamps per hour inside ``window = [t0, t1)``.

    Both boundaries must be hour-aligned epoch seconds. Timestamps outside
    the window are dropped; their number is returned alongside the series.
    """
    t0, t1 = window
    if t0 % SECONDS_PER_HOUR or t1 % SECONDS_PER_HOUR:
        raise UnalignedWindow(f"window boundaries must be hour-aligned: {window}")
    if t0 >= t1:
        raise UnalignedWindow(f"window must satisfy t0 < t1: {window}")
    start_hour = t0 // SECONDS_PER_HOUR
    n_hours = (t1 - t0) // SECONDS_PER_HOUR
    ts = np.asarray(timestamps, dtype=np.int64)
    inside = (ts >= t0) & (ts < t1)
    hours = ts[inside] // SECONDS_PER_HOUR - start_hour
    counts = np.bincount(hours, minlength=n_hours)
    return (HourlySeries(start_hour=int(start_hour), counts=counts),
            int(len(ts) - len(hours)))
