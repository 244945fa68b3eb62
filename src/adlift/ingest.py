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
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import itemgetter
from sys import intern
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import BadLabel, DataError, MissingColumn, RaggedRow, UnalignedWindow

MISSING_LEVEL = "__missing__"

SECONDS_PER_HOUR = 3600

# Rows per block where a batch turns rows into Python objects: fewer than
# the cyclic collector's first-generation threshold (gc.get_threshold()[0],
# 700 by default), so that a block's row lists are freed before a
# collection scans them. 64k-row blocks cost about as much in collections
# as the work itself.
ROW_BLOCK = 256


def _repeats(values: Sequence, per: int) -> bool:
    """Whether ``values`` hold at most one distinct value per ``per`` entries:
    the rule for keeping a column as one entry per distinct value."""
    return len(set(values)) * per <= len(values)


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
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc: dict) -> "Schema":
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
        if len(self.counts) != dictionary.m:
            raise ValueError(f"{len(self.counts)} count tables for "
                             f"{dictionary.m} factors")
        for i, c in enumerate(self.counts):
            if c.ndim != 2 or c.shape[1] != 2:
                raise ValueError(f"counts[{i}] must have shape (L_i, 2)")
            if (c < 0).any():
                raise ValueError(f"counts[{i}] contains negative entries")
            if int(c.sum()) != self.total:
                raise ValueError(
                    f"counts for factor {i} sum to {int(c.sum())}, expected N={self.total}")
            if c.shape[0] != dictionary.level_count(i):
                raise ValueError(f"factor {dictionary.factor_names[i]!r} has "
                                 f"{dictionary.level_count(i)} levels but "
                                 f"{c.shape[0]} rows of counts")

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

    def columns(self) -> tuple["Coded", "Coded", np.ndarray]:
        """The cookie id, browser and timestamp columns, as report columns."""
        return (Coded(self.cookie_labels, self.cookies),
                Coded(self.browser_labels, self.browsers), self.timestamps)


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


class Rows(NamedTuple):
    """Columns of a delimited file, one entry per distinct row.

    ``columns`` hold one list of raw cells per name, for the distinct rows
    in first-seen order; ``codes`` (int32, one per row of the file) give each
    row's index among them, so row r of column c is ``columns[c][codes[r]]``.
    """

    columns: list[list[str]]
    codes: np.ndarray

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-row ``values`` from per-distinct-row ``values``. With as many
        distinct rows as rows, the codes are 0, 1, ... and nothing moves."""
        return values if len(values) == len(self.codes) else values[self.codes]

    def line(self, j: int) -> int:
        """The line of distinct row ``j``'s first occurrence, counting rows
        from the header's line 1 (a quoted cell's newlines start no line)."""
        return int(np.argmax(self.codes == j)) + 2


# Characters read_columns reads at a time. Each chunk is cut at its last
# "\n", so memory holds one chunk's lines plus the start of the next line.
# Chunks of 256 Ki or 1 Mi characters read a request log no faster, and
# their lines (about 4 MB per 1 Mi characters) raise the peak RSS of a
# stage by 2 to 5 MB.
CHUNK_CHARS = 1 << 16


def _pieces(stream: TextIO) -> Iterator[str]:
    """The text of ``stream`` in pieces of about CHUNK_CHARS characters, each
    ending at a "\\n" but the last."""
    rest = ""
    while chunk := stream.read(CHUNK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


def _key_blocks(stream: TextIO, delimiter: str) -> Iterator[list]:
    """The rows of ``stream`` in blocks of keys, one key per row.

    A key is the row's line without its "\\n" up to the first piece that
    holds '"' or "\\r" or a line longer than csv's field limit; from that
    piece on it is the tuple of cells csv.reader reads, ROW_BLOCK rows at a
    time. csv.reader reads a line without those as the cells between its
    delimiters, so both kinds of key give the same cells (see ``_cells``).
    A csv.Error of the reader is raised again naming its line.
    """
    pieces = _pieces(stream)
    lines_above = 0
    for piece in pieces:
        lines = piece.split("\n")
        if piece.endswith("\n"):
            del lines[-1]
        if '"' in piece or "\r" in piece or (
                len(piece) > csv.field_size_limit()
                and max(map(len, lines)) > csv.field_size_limit()):
            text = chain.from_iterable(map(io.StringIO, chain([piece], pieces)))
            rows = csv.reader(text, delimiter=delimiter)
            try:
                while block := list(map(tuple, islice(rows, ROW_BLOCK))):
                    yield block
            except csv.Error as exc:
                raise csv.Error(f"line {lines_above + rows.line_num}: {exc}") from None
            return
        lines_above += len(lines)
        yield lines


def _cells(block: list, delimiter: str) -> list[Sequence[str]]:
    """The cells of each key of one block of ``_key_blocks``; a blank line
    has none, as csv.reader reads it."""
    if not block or isinstance(block[0], tuple):
        return block
    if "" in block:
        return [line.split(delimiter) if line else [] for line in block]
    return list(map(str.split, block, repeat(delimiter)))


class _Index(dict):
    """Each key's index in first-seen order, given on its first lookup;
    ``order`` lists the keys in that order."""

    def __init__(self):
        super().__init__()
        self.order: list = []

    def __missing__(self, key) -> int:
        index = self[key] = len(self.order)
        self.order.append(key)
        return index


def read_columns(stream: TextIO | str, names: Sequence[str],
                 delimiter: str = ",", check=None) -> Rows:
    """Read the named columns of a delimited file with a header row.

    Returns the named cells of the file's distinct rows and each row's code
    (see ``Rows``); extra columns are ignored. Lines end at "\\n" (open_text
    reads every line end as one). Raises MissingColumn for an empty input or
    a name missing from the header, and RaggedRow for a row (a blank line
    included) whose width differs from the header's, and csv.Error naming
    the line of a row csv.reader cannot read, such as one with a cell longer
    than csv.field_size_limit(). Before raising RaggedRow, ``check`` is
    called with the Rows above the ragged one, so that an error it raises on
    an earlier line wins.

    A file whose first ROW_BLOCK rows hold at most one distinct row per 2 is
    keyed by row: each distinct row is split into cells once. A request log
    repeats a few hundred rows (87 distinct in its first 256 at the bench
    seed); keying a file of distinct rows costs twice as much as splitting
    it. Other files (cookie events) are split row by row, ROW_BLOCK rows at
    a time, and a column whose first block repeats its cells is interned, so
    that it holds one string per distinct cell rather than one per row.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    blocks = _key_blocks(stream, delimiter)
    head: list[list] = []
    for block in blocks:
        head.append(block)
        if sum(map(len, head)) > ROW_BLOCK:
            break
    if not head:
        raise MissingColumn("input is empty: no header row")
    header = _cells(head[0][:1], delimiter)[0]
    head[0] = head[0][1:]
    positions = {name: j for j, name in enumerate(header)}
    for name in names:
        if name not in positions:
            raise MissingColumn(f"column {name!r} not found in header")
    width = len(header)
    getters = [itemgetter(positions[name]) for name in names]
    columns: list[list[str]] = [[] for _ in names]
    keyed = _repeats(list(islice(chain.from_iterable(head), ROW_BLOCK)), 2)
    sample = [row for block in head for row in _cells(block[:ROW_BLOCK], delimiter)
              if len(row) == width][:ROW_BLOCK]
    interned = [not keyed and _repeats(list(map(get, sample)), 8) for get in getters]

    def add(rows: list, above) -> None:
        """Append the cells of ``rows``; at a ragged row i, call ``check``
        with ``above(i)``, the Rows above it, and raise RaggedRow."""
        good = rows
        if set(map(len, rows)) - {width}:
            good = rows[:next(i for i, row in enumerate(rows) if len(row) != width)]
        for column, get, repeats in zip(columns, getters, interned):
            column += map(intern, map(get, good)) if repeats else map(get, good)
        if len(good) < len(rows):
            rows_above = above(len(good))
            if check is not None:
                check(rows_above)
            raise RaggedRow(f"line {len(rows_above.codes) + 2}: expected {width} "
                            f"fields, got {len(rows[len(good)])}")

    if not keyed:
        n = 0
        for block in chain(head, blocks):
            for start in range(0, len(block), ROW_BLOCK):
                rows = _cells(block[start:start + ROW_BLOCK], delimiter)
                add(rows, lambda i: Rows(columns, np.arange(n + i, dtype=np.int32)))
                n += len(rows)
        return Rows(columns, np.arange(n, dtype=np.int32))
    index = _Index()
    codes = [np.empty(0, dtype=np.int32)]
    for block in chain(head, blocks):
        seen = len(index.order)
        block_codes = np.fromiter(map(index.__getitem__, block), np.int32, len(block))
        add(_cells(index.order[seen:], delimiter),
            lambda i: Rows(columns, np.concatenate(
                [*codes, block_codes[:np.argmax(block_codes == seen + i)]])))
        codes.append(block_codes)
    return Rows(columns, np.concatenate(codes))


# --- files ----------------------------------------------------------------


@contextmanager
def open_text(path):
    """``path`` opened as UTF-8 text. Raises DataError naming ``path`` for
    bytes that are not UTF-8, wherever the reading stops on them, and for a
    csv.Error of a reader of the text."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from None


def load_json(path, text: str, build):
    """``build`` applied to the JSON object ``text`` read from ``path``.

    Raises DataError naming ``path`` for text that is not a JSON object, and
    for a document that lacks a key ``build`` reads or holds a value of the
    wrong type or shape for it.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return build(doc)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        # AttributeError: a dict method called on a value of another type;
        # OverflowError: a number too large for an int64 or an int
        raise DataError(f"{path}: {exc}") from None


@contextmanager
def atomic_write(path):
    """A UTF-8 text file that replaces ``path`` once the block completes.

    It is written under a temporary name in ``path``'s directory and moved
    over ``path`` with ``os.replace``, so a failure part-way leaves ``path``
    as it was and no temporary file behind. A target that exists but is not
    a regular file (a pipe, /dev/stdout) is written in place.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- the report writer -----------------------------------------------------


# a cell holding one of these needs CSV quoting (csv.writer quotes "\r" on
# some Python versions only)
_QUOTED_CHARS = ',"\r\n'

# Rows the report writer renders and writes at a time, as one uint8 matrix.
# Blocks of 8 Ki rows keep the visits benchmark's peak RSS within 0.2 MB of
# the 256-row text writer's; 32 Ki rows added 0.4 MB and were no faster.
WRITE_BLOCK = 1 << 13

# Bytes of a block's matrix beyond which it is written in fewer rows: the
# matrix holds each column's widest cell on every row, so a few long cells
# (a label of 100 KB) would make it far larger than the text
MAX_BLOCK_BYTES = 1 << 20


def _fmt(value) -> str:
    """A report cell: floats at 12 significant digits, anything else by str."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class Coded(NamedTuple):
    """A report column whose row i is ``str(labels[codes[i]])``."""

    labels: Sequence
    codes: np.ndarray


class Columns:
    """A report's columns, one per header name: numpy int or float arrays,
    ``Coded`` columns or other sequences. ``len()`` is the number of rows."""

    def __init__(self, *columns):
        lengths = {len(c.codes) if isinstance(c, Coded) else len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"report columns differ in length: {sorted(lengths)}")
        self.columns = columns
        self.rows = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.rows


def _csv_cell(cell: str) -> str:
    """``cell`` as csv.writer writes it alone on a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([cell])
    return buffer.getvalue()[:-1]


def _csv_cells(cells: list[str], lone: bool) -> list[str]:
    """``cells`` as csv.writer writes them: a cell with a quoted character, or
    an empty one when ``lone`` (alone on its row), goes through csv.writer."""
    text = "".join(cells)
    if not any(c in text for c in _QUOTED_CHARS) and not (lone and "" in cells):
        return cells
    return [_csv_cell(cell) if (lone and not cell)
            or any(c in cell for c in _QUOTED_CHARS) else cell for cell in cells]


class _Matrix(NamedTuple):
    """Cells of a block of rows as a (rows, width) uint8 matrix, one cell per
    row, and the mask of the bytes that are the cell's; the others are
    padding, dropped when the block is written."""

    cells: np.ndarray
    keep: np.ndarray

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def rows(self, start: int, stop: int) -> "_Matrix":
        return _Matrix(self.cells[start:stop], self.keep[start:stop])

    def take(self, index: np.ndarray) -> "_Matrix":
        return _Matrix(self.cells.take(index, axis=0), self.keep.take(index, axis=0))


class _Ragged(NamedTuple):
    """Cells as the byte ranges ``starts``/``lengths`` of ``data``, the UTF-8
    bytes of one text; ``rows`` renders a range of them as a ``_Matrix``."""

    data: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @property
    def width(self) -> int:
        return int(self.lengths.max())

    def rows(self, start: int, stop: int) -> _Matrix:
        lengths = self.lengths[start:stop]
        cells = _cell_bytes(self.data, self.starts[start:stop], lengths)
        return _Matrix(cells, np.arange(cells.shape[1]) < lengths[:, None])

    def take(self, index: np.ndarray) -> "_Ragged":
        return _Ragged(self.data, self.starts[index], self.lengths[index])


def _ragged(cells: list[str]) -> _Ragged:
    """``cells`` as byte ranges of their joined text. The text is encoded as
    strict UTF-8, as a text file encodes it, so a lone surrogate raises
    UnicodeEncodeError; lengths count bytes, so a NUL or a non-ASCII
    character stays whole."""
    data = "".join(cells).encode("utf-8")
    lengths = np.fromiter(map(len, cells), np.int64, len(cells))
    if len(data) != lengths.sum():
        lengths = np.fromiter((len(cell.encode("utf-8")) for cell in cells),
                              np.int64, len(cells))
    return _Ragged(np.frombuffer(data, np.uint8), np.cumsum(lengths) - lengths, lengths)


def _formatted(values: np.ndarray) -> list[str]:
    """``values`` formatted one at a time by ``_fmt``: the writer's per-value
    path, for the numbers its digit arithmetic leaves out."""
    return list(map(_fmt, values.tolist()))


def _patched(block: _Matrix, slow: np.ndarray, values: np.ndarray) -> _Matrix:
    """``block`` with each row where ``slow`` holds replaced by ``_formatted``
    of its value."""
    rows = np.flatnonzero(slow)
    if not len(rows):
        return block
    patch = _ragged(_formatted(values[rows])).rows(0, len(rows))
    if patch.width > block.width:
        block = _Matrix(*(np.pad(a, ((0, 0), (0, patch.width - block.width)))
                          for a in block))
    block.cells[rows, :patch.width] = patch.cells
    block.keep[rows] = False
    block.keep[rows, :patch.width] = patch.keep
    return block


_POWERS = 10 ** np.arange(19, dtype=np.int64)


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Fill the rows of ``out``, one per digit, with the ASCII digits of
    non-negative int64 ``values``, right-aligned and padded with "0"."""
    for row in out[::-1]:
        quotient = values // 10
        row[:] = values - quotient * 10
        values = quotient
    out += np.uint8(ord("0"))


def _signed(negative: np.ndarray, magnitude: np.ndarray,
            tail: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The cells and mask of a block built a byte per row (each row one byte
    of every cell): a "-", kept where ``negative``, the digits of int64
    ``magnitude`` without leading zeros, and ``tail`` rows left to fill."""
    width = len(str(int(magnitude.max())))
    cells = np.empty((1 + width + tail, len(magnitude)), np.uint8)
    keep = np.empty(cells.shape, bool)
    cells[0], keep[0] = ord("-"), negative
    _digits(magnitude, cells[1:1 + width])
    keep[1:1 + width] = magnitude >= _POWERS[width - 1::-1, None]
    keep[width] = True
    return cells, keep


_INT64 = np.iinfo(np.int64)


def _int_cells(values: np.ndarray) -> _Matrix:
    """int64 or uint64 ``values`` as ``str`` writes them, by digit arithmetic;
    int64's minimum and uint64 values above int64's range go per value."""
    slow = values > _INT64.max if values.dtype.kind == "u" else values == _INT64.min
    signed = np.where(slow, 0, values).astype(np.int64)
    cells, keep = _signed(signed < 0, np.abs(signed))
    return _patched(_Matrix(cells.T, keep.T), slow, values)


def _float_cells(x: np.ndarray) -> _Matrix:
    """float64 ``x`` as ``"%.12g"`` writes them, by digit arithmetic where
    the result is certain to be exact.

    Where e = floor(log10 |x|) lies in [-4, 11], "%.12g" writes fixed
    notation. y = |x| * 10^(11 - e) is then rounded once (the power of ten is
    exact), to within 2^-14 of the exact product, so its nearest integer q
    holds the 12 significant digits of x when y is more than 1e-3 from a tie
    and q has 12 digits. q is split at the point into a whole part and a
    fraction, whose trailing zeros (and the point, if nothing follows it)
    are dropped. Every other value (0, -0.0, NaN, infinities, subnormals,
    near-ties, exponent notation) goes per value.
    """
    magnitude = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(magnitude))
        fast = (e >= -4) & (e <= 11)
        places = np.where(fast, 11 - e, 0).astype(np.int64)
        y = magnitude * _POWERS[places].astype(np.float64)
        q = np.rint(y)
        fast &= (np.abs(y - q) < 0.5 - 1e-3) & (q >= 1e11) & (q < 1e12)
    places[~fast] = 0
    whole, fraction = np.divmod(np.where(fast, q, 0).astype(np.int64),
                                _POWERS[np.minimum(places, 12)])
    width = int(places.max())
    cells, keep = _signed(fast & (x < 0), whole, tail=1 + width)
    point = len(cells) - width - 1
    cells[point], keep[point] = ord("."), fraction != 0
    _digits(fraction * _POWERS[width - places], cells[point + 1:])
    significant = np.zeros(len(x), bool)
    for row in range(len(cells) - 1, point, -1):
        significant |= cells[row] != ord("0")
        keep[row] = significant
    return _patched(_Matrix(cells.T, keep.T), ~fast, x)


_WIDE = {"i": np.int64, "u": np.uint64, "f": np.float64}


def _coded_numbers(column: np.ndarray) -> Coded:
    """A numeric column as a coded one, with one label per distinct value.

    An int column whose values span fewer values than it has rows is coded
    by offset from its minimum, in O(n); any other by bit pattern, so that
    -0.0 and 0.0 (and NaNs with other payloads) stay apart.
    """
    if column.dtype.kind != "f":
        low = int(column.min())
        if int(column.max()) - low < len(column):
            offset = (column - column.dtype.type(low)).astype(np.intp)
            present = np.bincount(offset) > 0
            labels = [str(low + k) for k in np.flatnonzero(present).tolist()]
            return Coded(labels, (np.cumsum(present) - 1)[offset])
    distinct, codes = np.unique(column.view(np.uint64), return_inverse=True)
    text = "%.12g".__mod__ if column.dtype.kind == "f" else str
    return Coded(list(map(text, distinct.view(column.dtype).tolist())), codes)


def _label_table(labels: list[str], codes: np.ndarray) -> _Matrix | _Ragged:
    """The bytes of ``labels``, as a matrix to gather rows from where its
    padding stays small (see MAX_KEY_BLOWUP and MAX_BLOCK_BYTES); a label
    that is not UTF-8 text raises only if a code shows it."""
    try:
        table = _ragged(labels)
    except UnicodeEncodeError:
        shown = np.zeros(len(labels), bool)
        shown[codes] = True
        table = _ragged([label if seen else "" for label, seen in zip(labels, shown)])
    if not labels or (table.width * len(labels) > MAX_KEY_BLOWUP * len(table.data)
                      or table.width * WRITE_BLOCK > MAX_BLOCK_BYTES):
        return table
    return table.rows(0, len(labels))


def _column_cells(column, lone: bool):
    """A function from a row range of ``column`` to its cells as CSV bytes (a
    ``_Matrix``, or a ``_Ragged`` to be rendered a few rows at a time).

    Coded columns encode each label once and gather its bytes by code, and
    so do numeric columns whose first block repeats their bit patterns: coding
    costs about as much as formatting half the values, hence 1 distinct value
    per 2 rows, not read_columns' 8. Other numeric columns are written by
    digit arithmetic (``_int_cells``, ``_float_cells``), and other sequences
    by ``_fmt`` per cell.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in _WIDE:
        column = column.astype(_WIDE[column.dtype.kind], copy=False)
        if not (len(column) and _repeats(column.view(np.uint64)[:ROW_BLOCK].tolist(), 2)):
            cells = _float_cells if column.dtype.kind == "f" else _int_cells
            return lambda start, stop: cells(column[start:stop])
        column = _coded_numbers(column)
    if isinstance(column, Coded):
        codes = column.codes
        table = _label_table(_csv_cells(list(map(str, column.labels)), lone), codes)
        return lambda start, stop: table.take(codes[start:stop])
    return lambda start, stop: _ragged(_csv_cells(list(map(_fmt, column[start:stop])), lone))


def write_columns(path, header: Sequence[str], table: Columns) -> None:
    """Write ``table`` under ``header`` as a CSV file, atomically.

    Each cell is what csv.writer writes for ``_fmt(value)`` (for ``str(label)``
    in a coded column), with "\\n" line ends. Rows go out ``WRITE_BLOCK`` at a
    time (fewer where cells are wide, see MAX_BLOCK_BYTES), each block as one
    uint8 matrix of the columns' fixed-width cells and a "," or "\\n" after
    each, less the bytes that its mask drops; neither the report's text nor
    its rows are ever held whole.
    """
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header names for {len(table.columns)} columns")
    lone = len(header) == 1
    columns = [_column_cells(column, lone) for column in table.columns]
    with atomic_write(path) as fh:
        out = fh.buffer
        out.write((",".join(_csv_cells(list(header), lone)) + "\n").encode("utf-8"))
        for start in range(0, len(table), WRITE_BLOCK):
            blocks = [cells(start, start + WRITE_BLOCK) for cells in columns]
            rows = min(WRITE_BLOCK, len(table) - start)
            step = max(1, MAX_BLOCK_BYTES // sum(block.width + 1 for block in blocks))
            for first in range(0, rows, step):
                parts = [block.rows(first, first + step) for block in blocks]
                n = len(parts[0].cells)
                comma, kept = np.full((n, 1), ord(","), np.uint8), np.ones((n, 1), bool)
                cells = np.concatenate([a for p in parts for a in (p.cells, comma)], axis=1)
                keep = np.concatenate([a for p in parts for a in (p.keep, kept)], axis=1)
                cells[:, -1] = ord("\n")
                out.write(cells[keep])


_LABEL_IDS = {"0": 0, "1": 1}


def _label_ids(column: Sequence[str], line) -> np.ndarray:
    """Each cell read as a 0/1 label; BadLabel names ``line(j)`` for the
    first bad cell j."""
    labels = np.fromiter(map(_LABEL_IDS.get, column, repeat(-1)), np.int8, len(column))
    bad = np.flatnonzero(labels < 0)
    if len(bad):
        j = int(bad[0])
        raise BadLabel(f"line {line(j)}: label must be 0 or 1, got {column[j]!r}")
    return labels


def _level_ids(column: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Levels in first-seen order, "" read as MISSING_LEVEL, and each cell's id."""
    seen = dict.fromkeys(column)
    levels = list(dict.fromkeys(label or MISSING_LEVEL for label in seen))
    index = {label: k for k, label in enumerate(levels)}
    if "" in seen:
        index[""] = index[MISSING_LEVEL]
    return levels, np.fromiter(map(index.__getitem__, column), np.int32, len(column))


def parse_requests(stream: TextIO | str, schema: Schema,
                   delimiter: str = ",") -> tuple[FactorDictionary, RequestBatch]:
    """Parse delimited request-log lines into level ids against a fresh dictionary.

    The header row must contain every schema column (extras are ignored).
    Raises MissingColumn, BadLabel or RaggedRow; the two row errors name the
    earliest offending line. Input order is preserved.
    """
    rows = read_columns(stream, [*schema.factor_columns, schema.label_column],
                        delimiter,
                        check=lambda rows: _label_ids(rows.columns[-1], rows.line))
    *factor_columns, label_column = rows.columns
    labels = _label_ids(label_column, rows.line)
    # a level first occurs where its row first occurs, so levels keep the
    # first-seen order of the file
    levels, ids = zip(*map(_level_ids, factor_columns))
    return (FactorDictionary(list(schema.factor_columns), levels),
            RequestBatch(rows.gather(np.stack(ids, axis=1)), rows.gather(labels)))


def write_requests_csv(path, schema: Schema, dictionary: FactorDictionary,
                       batch: RequestBatch) -> None:
    """Serialize records back to the delimited form parse_requests accepts."""
    write_columns(path, [*schema.factor_columns, schema.label_column],
                  Columns(*(Coded(dictionary.levels(i), batch.factors[:, i])
                            for i in range(batch.m)), batch.labels))


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


def _timestamps(column: Sequence[str], line) -> np.ndarray:
    """Cells read with Python ``int`` as int64; BadLabel names ``line(j)``
    for the first bad cell j."""
    try:
        return np.fromiter(map(int, column), np.int64, len(column))
    except (ValueError, OverflowError):
        for j, cell in enumerate(column):
            try:
                np.int64(int(cell))
            except (ValueError, OverflowError):
                raise BadLabel(f"line {line(j)}: timestamp must be integer epoch "
                               f"seconds, got {cell!r}") from None
        raise


EVENT_COLUMNS = ("cookie_id", "browser", "timestamp")

# A timestamp of at most this many digits fits an int64 (10^18 - 1 < 2^63)
MAX_STAMP_DIGITS = 18

# The key arrays of the column-wise event parse hold each key column's
# widest cell once per row; beyond this many times the bytes read, a few
# long cells would make them far larger than the text, and the file is
# read row by row instead. The report writer's label tables keep to the
# same bound against the bytes of their labels.
MAX_KEY_BLOWUP = 4


class _Replay(NamedTuple):
    """A text stream whose reads return the rest of a ``_pieces`` iterator,
    one piece per read, so that ``_pieces`` over it yields the same pieces."""

    pieces: Iterator[str]

    def read(self, size: int) -> str:
        return next(self.pieces, "")


def _cell_bytes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The (n, w) uint8 matrix of the cells of ``buf`` at ``starts`` with
    ``lengths``: w is the longest length, and each row is zero past its cell."""
    w = max(int(lengths.max()), 1)
    padded = np.concatenate([buf, np.zeros(w, np.uint8)])
    cells = np.lib.stride_tricks.sliding_window_view(padded, w)[starts]
    cells *= np.arange(w) < lengths[:, None]
    return cells


def _coded(chunks: list[np.ndarray]) -> tuple[np.ndarray, list[str]]:
    """``_codes`` of the ``S`` keys of ``chunks``: each key's index among the
    distinct keys, and those decoded in first-seen order."""
    keys = np.concatenate(chunks) if chunks else np.empty(0, "S1")
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    # the distinct keys as lines of one text, decoded at once: no cell holds
    # "\n" or a NUL, so dropping the zero padding leaves each cell whole
    lines = np.pad(keys[first[order]].view(np.uint8).reshape(-1, keys.itemsize),
                   ((0, 0), (0, 1)), constant_values=10)
    text = lines[lines != 0].tobytes().decode("utf-8", "surrogatepass")
    return rank[inverse], text.split("\n")[:-1]


def _plain_events(pieces: Iterator[str], read: list[str],
                  delimiter: str) -> EventBatch | None:
    """The EventBatch of a plain event file, read column-wise from the UTF-8
    bytes of ``pieces`` with no Python object per row, or None where this
    cannot be done exactly as ``read_columns`` with ``_codes`` and
    ``_timestamps`` would do it; ``read`` gets every piece taken.

    A plain file has a one-byte delimiter and no '"', "\\r" or NUL (a NUL
    would be lost from an ``S`` key) anywhere, its header included; every
    line has the header's width (so no line is blank) and is no longer than
    csv.field_size_limit() (so no cell is); every timestamp is 1 to
    MAX_STAMP_DIGITS ASCII digits (Python ``int`` also reads "+5", " 5",
    "5_0", "-5" and other digits, and longer ones may overflow); and the
    key arrays stay within MAX_KEY_BLOWUP times the bytes read. The header
    is read as ``read_columns`` reads it: a repeated name means its last
    column. Each piece's named cells become ``S`` key arrays and int64
    timestamps; the keys are coded once all are read.
    """
    sep = delimiter.encode("utf-8", "surrogatepass")
    if len(sep) != 1:
        return None
    limit = csv.field_size_limit()
    keys: tuple[list, list] = ([], [])
    stamps: list[np.ndarray] = []
    positions = None
    rows = body_bytes = widest = 0
    for piece in pieces:
        read.append(piece)
        if positions is None:
            header, _, piece = piece.partition("\n")
            names = header.split(delimiter)
            if any(c in header for c in '"\r\0') or len(header) > limit:
                return None
            positions = {name: j for j, name in enumerate(names)}
            if not set(EVENT_COLUMNS) <= positions.keys():
                return None
            width = len(names)
            if not piece:
                continue
        data = (piece if piece.endswith("\n") else piece + "\n").encode(
            "utf-8", "surrogatepass")
        if b'"' in data or b"\r" in data or b"\0" in data:
            return None
        buf = np.frombuffer(data, np.uint8)
        # the line ends and delimiters in order: width per line, the last a "\n"
        seps = np.flatnonzero((buf == 10) | (buf == sep[0]))
        n = data.count(b"\n")
        if len(seps) != n * width or (buf[seps[width - 1::width]] != 10).any():
            return None
        seps = seps.reshape(n, width)
        line_starts = np.concatenate([[0], seps[:-1, -1] + 1])
        spans = []
        for j in (positions[name] for name in EVENT_COLUMNS):
            starts = seps[:, j - 1] + 1 if j else line_starts
            spans.append((starts, seps[:, j] - starts))
        stamp_lengths = spans[2][1]
        rows, body_bytes = rows + n, body_bytes + len(data)
        widest = max(widest, spans[0][1].max(), spans[1][1].max())
        if ((seps[:, -1] - line_starts).max() > limit
                or widest * rows > MAX_KEY_BLOWUP * body_bytes
                or stamp_lengths.min() < 1 or stamp_lengths.max() > MAX_STAMP_DIGITS):
            return None
        *key_cells, stamp_cells = (_cell_bytes(buf, *span) for span in spans)
        digits = stamp_cells - np.uint8(48)
        if np.count_nonzero(digits <= 9) != stamp_lengths.sum():
            return None
        for chunks, cells in zip(keys, key_cells):
            chunks.append(cells.view(f"S{cells.shape[1]}").ravel())
        # each stamp read as if padded with zeros to the widest, then divided
        # by the padding's place value (at most 18 digits: no overflow)
        digits *= stamp_cells != 0
        w = digits.shape[1]
        value = (digits.astype(np.int64) @ 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
                 // 10 ** (w - stamp_lengths))
        stamps.append(value)
    if positions is None:
        return None
    (cookies, cookie_labels), (browsers, browser_labels) = map(_coded, keys)
    return EventBatch(cookies, cookie_labels, browsers, browser_labels,
                      np.concatenate(stamps) if stamps else np.empty(0, np.int64))


def parse_cookie_events(stream: TextIO | str,
                        delimiter: str = ",") -> EventBatch:
    """Parse a ``cookie_id,browser,timestamp`` file into an EventBatch.

    A plain file is read column-wise (``_plain_events``); any other goes
    whole to ``read_columns``, which decides its result and its errors. The
    pieces of text read are kept until then, so that nothing is read twice.
    Raises MissingColumn, RaggedRow, or BadLabel for a timestamp that is not
    an int64 integer; the two row errors name the earliest offending line.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    pieces, read = _pieces(stream), []
    events = _plain_events(pieces, read, delimiter)
    if events is not None:
        return events
    rows = read_columns(_Replay(chain(read, pieces)), EVENT_COLUMNS, delimiter,
                        check=lambda rows: _timestamps(rows.columns[2], rows.line))
    cookie_ids, browsers, stamps = rows.columns
    cookies, cookie_labels = _codes(cookie_ids)
    browser_codes, browser_labels = _codes(browsers)
    return EventBatch(rows.gather(cookies), cookie_labels, rows.gather(browser_codes),
                      browser_labels, rows.gather(_timestamps(stamps, rows.line)))


def write_events_csv(path, events: EventBatch) -> None:
    write_columns(path, ["cookie_id", "browser", "timestamp"],
                  Columns(*events.columns()))


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
