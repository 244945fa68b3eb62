"""Parsing of request/event logs into column batches, contingency tables and
hourly series.

Input format is UTF-8 comma-separated text with a mandatory header row.
Level ids are assigned in first-seen order so that runs are reproducible;
empty factor values become the reserved level ``__missing__``. Timestamps
are integer epoch seconds UTC and hour buckets are ``floor(ts / 3600)``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice, repeat, tee
from operator import itemgetter
from sys import intern
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import (BadLabel, DataError, DimensionMismatch, MissingColumn, RaggedRow,
                     UnalignedWindow)

MISSING_LEVEL = "__missing__"

SECONDS_PER_HOUR = 3600
HOURS_PER_DAY = 24.0

# Rows per block where a batch turns rows into Python objects: fewer than
# the cyclic collector's first-generation threshold (gc.get_threshold()[0],
# 700 by default), so that a block's row lists are freed before a
# collection scans them. 64k-row blocks cost about as much in collections
# as the work itself.
ROW_BLOCK = 256

# Rows per block where a numpy pass holds block-sized scratch arrays in
# place of full-length ones: 2^16 float64 values are 512 KB.
SCRATCH_ROWS = 1 << 16


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

    def __post_init__(self):
        if not self.factor_columns:
            raise ValueError("factor_columns must be non-empty")
        if len(set(self.factor_columns)) != len(self.factor_columns):
            raise ValueError("factor_columns contains duplicates")
        reserved = {self.label_column, self.timestamp_column}
        overlap = set(self.factor_columns) & reserved
        if overlap:
            raise ValueError(f"factor columns overlap non-factor columns: {sorted(overlap)}")

    @property
    def m(self) -> int:
        return len(self.factor_columns)

    @classmethod
    def from_doc(cls, doc: dict) -> "Schema":
        version = doc.get("version")
        if version != 1:
            raise ValueError(f"unsupported schema version: {version!r}")
        return cls(
            factor_columns=tuple(doc["factors"]),
            label_column=doc["label"],
            timestamp_column=doc.get("timestamp"),
        )


class FactorDictionary:
    """Bijective label <-> id mapping per factor: ``levels[i]`` are factor i's
    labels, in id order. It holds the rule by which ``encode`` reads label
    cells: a label is its level's id, "" is the id of MISSING_LEVEL, or -1
    where the factor lacks it, and an unseen label is -1. ValueError unless
    there is one list of distinct labels per factor."""

    def __init__(self, factor_names: Sequence[str], levels: Sequence[Sequence[str]]):
        self.factor_names = list(factor_names)
        self._levels: list[list[str]] = [list(ls) for ls in levels]
        if len(self._levels) != len(self.factor_names):
            raise ValueError(f"{len(self._levels)} level lists for {self.m} factors")
        self._index = [dict(zip(ls, count())) for ls in self._levels]
        for name, ls, index in zip(self.factor_names, self._levels, self._index):
            if len(index) != len(ls):
                raise ValueError(f"duplicate level labels in factor {name!r}")
            index[""] = index.get(MISSING_LEVEL, -1)

    @property
    def m(self) -> int:
        return len(self.factor_names)

    def levels(self, factor: int) -> list[str]:
        return list(self._levels[factor])

    def level_count(self, factor: int) -> int:
        return len(self._levels[factor])

    def fingerprint(self) -> str:
        """Stable digest of factor names and level labels, in id order."""
        payload = json.dumps(
            {"factors": self.factor_names, "levels": self._levels},
            ensure_ascii=False, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def encode(self, columns: Sequence[Sequence[str]]) -> np.ndarray:
        """The level ids of one label column per factor, as an (n, m) matrix:
        column-major, as ``RequestBatch`` stores it, in ``id_dtype`` of the
        level counts. DimensionMismatch unless there is one column per
        factor, all of one length."""
        if len(columns) != self.m:
            raise DimensionMismatch(f"expected {self.m} columns, got {len(columns)}")
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise DimensionMismatch(f"columns must have one length, got lengths {lengths}")
        n = lengths[0] if lengths else 0
        ids = np.empty((n, self.m), id_dtype(map(len, self._levels)), order="F")
        for column, index, out in zip(columns, self._index, ids.T):
            out[:] = np.fromiter(map(index.get, column, repeat(-1)), out.dtype, n)
        return ids

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactorDictionary)
                and self.factor_names == other.factor_names
                and self._levels == other._levels)


def _exactly(values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype``; ValueError unless every value is a
    number that the cast keeps as it is."""
    values = np.asarray(values)
    if values.dtype == dtype:
        return values
    if values.dtype.kind in "biuf":
        with np.errstate(invalid="ignore"):
            cast = values.astype(dtype)
        if np.array_equal(cast, values):
            return cast
    raise ValueError(f"{values.dtype} values that {np.dtype(dtype)} cannot hold")


# the types a RequestBatch keeps its level ids in
ID_DTYPES = (np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32))


def id_dtype(levels) -> np.dtype:
    """The narrowest of int8, int16 and int32 that holds -1 and every id below
    the largest of ``levels``, the factors' level counts: L levels fit b bits
    while L <= 2^(b-1), so that every negative id, read as unsigned, is at
    least L (see ``unsigned_ids``)."""
    widest = max(levels, default=0)
    return next((t for t in ID_DTYPES if widest <= 1 << (8 * t.itemsize - 1)), ID_DTYPES[-1])


def unsigned_ids(ids: np.ndarray, levels: int) -> np.ndarray:
    """``ids`` read as unsigned, so that every id outside [0, levels), -1
    included, reads as ``levels`` or more: a view where ``levels`` fits the
    ids' own type (see ``id_dtype``), else an int32 copy."""
    if levels > 1 << (8 * ids.itemsize - 1):
        ids = ids.astype(np.int32)
    return ids.view(f"u{ids.itemsize}")


class RequestBatch:
    """Bid requests as arrays: per-factor level ids plus a binary outcome.

    ``factors`` is an (n, m) matrix of level ids stored column-major, so each
    factor's ids are one contiguous column; ``labels`` an (n,) int8 vector.
    ``parse_requests``, ``synth.gen_requests`` and ``FactorDictionary.encode``
    store the ids in ``id_dtype`` of their level counts. int8, int16 and
    int32 ids keep their type, without a copy when column-major; ids of any
    other type are cast to int32. Row i, as ``batch[i]`` or from iteration,
    is its tuple of factor ids as Python ints; labels are read from
    ``labels``. ValueError for ids or labels that the int32 or int8 cast
    would change (2**32, 0.7, NaN).
    """

    def __init__(self, factors: np.ndarray, labels: np.ndarray):
        factors = np.asarray(factors)
        factors = np.asfortranarray(factors if factors.dtype in ID_DTYPES
                                    else _exactly(factors, np.int32))
        labels = _exactly(labels, np.int8)
        if factors.ndim != 2 or labels.ndim != 1 or len(factors) != len(labels):
            raise ValueError("factors must be (n, m) and labels (n,)")
        self.factors = factors
        self.labels = labels

    @property
    def m(self) -> int:
        return self.factors.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(self.factors[i].tolist())

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if not self.m:  # zip() of no columns would yield no rows
            return repeat((), len(self))
        return chain.from_iterable(zip(*self.factors[start:start + ROW_BLOCK].T.tolist())
                                   for start in range(0, len(self), ROW_BLOCK))


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


def _decoded(labels: Sequence[str] | np.ndarray, errors: str) -> list[str]:
    """Labels as a list of str, an ``S`` array's bytes decoded with ``errors``."""
    if isinstance(labels, np.ndarray) and labels.dtype.kind == "S":
        return [label.decode("utf-8", errors) for label in labels.tolist()]
    return list(labels)


class EventBatch:
    """Cookie events as columns, one entry per event in input order.

    ``cookies`` and ``browsers`` are int32 codes into ``cookie_labels`` and
    ``browser_labels`` (``parse_cookie_events`` numbers labels in first-seen
    order); ``timestamps`` are int64 epoch seconds. A key column is given in
    one of two forms: codes with their labels, or, with labels None, an ``S``
    array of one key per event, coded by ``_coded`` on the first access of
    the column's codes or labels (``columns()`` gives it as its keys until
    then). ``S`` labels (UTF-8, surrogates passed) stay bytes in
    ``columns()``, decoded on first access.
    """

    def __init__(self, cookies, cookie_labels: Sequence[str] | np.ndarray | None,
                 browsers, browser_labels: Sequence[str] | np.ndarray | None, timestamps):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self._keys = [keys if labels is None else Coded(labels, np.asarray(keys, np.int32))
                      for keys, labels in ((cookies, cookie_labels),
                                           (browsers, browser_labels))]
        shape = self.timestamps.shape
        if len(shape) != 1 or any(np.shape(getattr(key, "codes", key)) != shape
                                  for key in self._keys):
            raise ValueError("cookies, browsers and timestamps must be (n,)")

    def __len__(self) -> int:
        return len(self.timestamps)

    def _column(self, j: int) -> "Coded":
        """Key column ``j`` (0 cookies, 1 browsers), coded on first use."""
        if not isinstance(self._keys[j], Coded):
            self._keys[j] = _coded(self._keys[j])
        return self._keys[j]

    cookies = property(lambda self: self._column(0).codes)
    browsers = property(lambda self: self._column(1).codes)

    @cached_property
    def cookie_labels(self) -> list[str]:
        return _decoded(self._column(0).labels, "surrogatepass")

    @cached_property
    def browser_labels(self) -> list[str]:
        return _decoded(self._column(1).labels, "surrogatepass")

    def columns(self) -> tuple["Coded | np.ndarray", "Coded | np.ndarray", np.ndarray]:
        """The cookie id, browser and timestamp columns, as report columns."""
        return (*(self._column(j) if isinstance(key, Coded) else key
                  for j, key in enumerate(self._keys)), self.timestamps)


class Rows(NamedTuple):
    """Columns of a comma-separated file, one entry per distinct row.

    ``columns`` hold one list of raw cells per name, for the distinct rows
    in first-seen order; ``codes`` (int32, one per row of the file) give each
    row's index among them, so row r of column c is ``columns[c][codes[r]]``.
    """

    columns: list[list[str]]
    codes: np.ndarray

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-row ``values`` from per-distinct-row ``values`` (along the first
        axis); a matrix is gathered one column at a time and comes back
        column-major. With as many distinct rows as rows, the codes are 0,
        1, ... and nothing moves."""
        if len(values) == len(self.codes):
            return values
        columns = values.reshape(len(values), -1).T
        out = np.empty((len(columns), len(self.codes)), values.dtype)
        for start in range(0, len(self.codes), SCRATCH_ROWS):
            block = self.codes[start:start + SCRATCH_ROWS].astype(np.intp)
            for column, part in zip(columns, out[:, start:start + len(block)]):
                np.take(column, block, out=part, mode="clip")  # codes are in range
        return out.T.reshape(len(self.codes), *values.shape[1:])

    def coded(self, values: np.ndarray):
        """Per-distinct-row ``values`` as a report column: ``Coded`` where there
        is at most one distinct row per 2 rows (the writer's rule), else gathered."""
        if 2 * len(values) <= len(self.codes):
            return Coded(values, self.codes)
        return self.gather(values)

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

# Characters parse_cookie_events reads at a time. Unlike a request log's (see
# CHUNK_CHARS), an event file's piece is read column-wise, with a fixed number
# of numpy calls and no Python object per line, so pieces of a few hundred
# Ki cost least: the benchmark's 4.4 MB events file parsed in 32.3 ms in
# 64 Ki pieces, 27.3 ms in 256 Ki, 28.2 ms in 512 Ki and 30.2 ms in 1 Mi
# (best of 15, sizes interleaved). A piece's scratch arrays take about 10
# bytes per character, 2.5 MB at 256 Ki and 10 MB at 1 Mi.
EVENT_CHUNK_CHARS = 1 << 18


def _pieces(stream: TextIO, size: int) -> Iterator[str]:
    """The text of ``stream`` in pieces of about ``size`` characters, each
    ending at a "\\n" but the last."""
    rest = ""
    while chunk := stream.read(size):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


def _key_blocks(stream: TextIO) -> Iterator[list]:
    """The rows of ``stream`` in blocks of keys, one key per row.

    A key is the row's line without its "\\n" up to the first piece that
    holds '"' or "\\r" or a line longer than csv's field limit; from that
    piece on it is the tuple of cells csv.reader reads, ROW_BLOCK rows at a
    time. csv.reader reads a line without those as the cells between its
    commas, so both kinds of key give the same cells (see ``_cells``).
    A csv.Error of the reader is raised again naming its line.
    """
    pieces = _pieces(stream, CHUNK_CHARS)
    lines_above = 0
    for piece in pieces:
        lines = piece.split("\n")
        if piece.endswith("\n"):
            del lines[-1]
        if '"' in piece or "\r" in piece or (
                len(piece) > csv.field_size_limit()
                and max(map(len, lines)) > csv.field_size_limit()):
            text = chain.from_iterable(map(io.StringIO, chain([piece], pieces)))
            rows = csv.reader(text)
            try:
                while block := list(map(tuple, islice(rows, ROW_BLOCK))):
                    yield block
            except csv.Error as exc:
                raise csv.Error(f"line {lines_above + rows.line_num}: {exc}") from None
            return
        lines_above += len(lines)
        yield lines


def _cells(block: list) -> list[Sequence[str]]:
    """The cells of each key of one block of ``_key_blocks``; a blank line
    has none, as csv.reader reads it."""
    if not block or isinstance(block[0], tuple):
        return block
    if "" in block:
        return [line.split(",") if line else [] for line in block]
    return list(map(str.split, block, repeat(",")))


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

    def lookup(self, keys: Sequence) -> np.ndarray:
        """The index of each of ``keys``, as int32."""
        return np.fromiter(map(self.__getitem__, keys), np.int32, len(keys))


def read_columns(stream: TextIO | str, names: Sequence[str], check=None) -> Rows:
    """Read the named columns of a comma-separated file with a header row.

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
    it. Other files are split row by row, ROW_BLOCK rows at a time: request
    logs of mostly distinct rows, and the event files that ``_plain_events``
    declines. There a column whose first block repeats its cells is
    interned, so that it holds one string per distinct cell rather than one
    per row.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    blocks = _key_blocks(stream)
    head: list[list] = []
    for block in blocks:
        head.append(block)
        if sum(map(len, head)) > ROW_BLOCK:
            break
    if not head:
        raise MissingColumn("input is empty: no header row")
    header = _cells(head[0][:1])[0]
    head[0] = head[0][1:]
    positions = {name: j for j, name in enumerate(header)}
    for name in names:
        if name not in positions:
            raise MissingColumn(f"column {name!r} not found in header")
    width = len(header)
    getters = [itemgetter(positions[name]) for name in names]
    columns: list[list[str]] = [[] for _ in names]
    keyed = _repeats(list(islice(chain.from_iterable(head), ROW_BLOCK)), 2)
    sample = [row for block in head for row in _cells(block[:ROW_BLOCK])
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
                rows = _cells(block[start:start + ROW_BLOCK])
                add(rows, lambda i: Rows(columns, np.arange(n + i, dtype=np.int32)))
                n += len(rows)
        return Rows(columns, np.arange(n, dtype=np.int32))
    index = _Index()
    codes = [np.empty(0, dtype=np.int32)]
    for block in chain(head, blocks):
        seen = len(index.order)
        block_codes = index.lookup(block)
        add(_cells(index.order[seen:]),
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

# The byte that fills each cell of a block's matrix out to the block's width,
# dropped when the block is written: UTF-8 never uses 0xFF, and each byte the
# writer keeps is UTF-8 (ASCII numbers, S labels _byte_table takes, strict text)
PAD = 0xFF


def _fmt(value) -> str:
    """A report cell: floats at 12 significant digits, anything else by str."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class Coded(NamedTuple):
    """A report column whose row i is ``labels[codes[i]]``: as a number where
    ``labels`` is a numpy int or float array, as its UTF-8 text where an
    ``S`` array of its bytes, else as ``str(label)``."""

    labels: Sequence
    codes: np.ndarray


class Columns:
    """A report's columns, one per header name: numpy int, float or ``S``
    arrays, ``Coded`` columns, ``range`` objects (an index column without an
    array) or other sequences. ``len()`` is the number of rows."""

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
    row, each byte that is not the cell's a PAD (see PAD)."""

    cells: np.ndarray

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def rows(self, start: int, stop: int) -> "_Matrix":
        return _Matrix(self.cells[start:stop])

    def take(self, index: np.ndarray) -> "_Matrix":
        return _Matrix(self.cells.take(index, axis=0))


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
        return _Matrix(_cell_bytes(self.data, self.starts[start:stop],
                                   self.lengths[start:stop], PAD))

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
    cells = block.cells
    if patch.width > block.width:
        cells = np.pad(cells, ((0, 0), (0, patch.width - block.width)), constant_values=PAD)
    cells[rows] = PAD
    cells[rows, :patch.width] = patch.cells
    return _Matrix(cells)


_POWERS = 10 ** np.arange(19, dtype=np.int64)


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Fill the rows of ``out``, one per digit, with the ASCII digits of
    non-negative int64 ``values``, right-aligned and padded with "0"."""
    if values.max(initial=0) <= np.iinfo(np.uint32).max:
        values = values.astype(np.uint32)  # divides by 10 about twice as fast
    for row in out[::-1]:
        quotient = values // 10
        row[:] = values - quotient * 10
        values = quotient
    out += np.uint8(ord("0"))


def _pad(cells: np.ndarray, where: np.ndarray) -> None:
    """Set ``cells`` to PAD where ``where`` holds: an OR with 0 or 0xFF."""
    cells |= where.view(np.uint8) * np.uint8(PAD)


def _signed(negative: np.ndarray, magnitude: np.ndarray, tail: int = 0) -> np.ndarray:
    """The cells of a block built a byte per row (each row one byte of every
    cell), PAD where a cell has no byte: a "-" where ``negative`` (if any
    is), the digits of int64 ``magnitude`` without leading zeros, and
    ``tail`` rows left to fill."""
    width = len(str(int(magnitude.max(initial=0))))
    sign = int(negative.any())
    cells = np.empty((sign + width + tail, len(magnitude)), np.uint8)
    cells[:sign] = ord("-")
    if sign:
        _pad(cells[0], ~negative)
    _digits(magnitude, cells[sign:sign + width])
    _pad(cells[sign:sign + width - 1], magnitude < _POWERS[width - 1:0:-1, None])
    return cells


_INT64 = np.iinfo(np.int64)


def _int_cells(values: np.ndarray) -> _Matrix:
    """int64 or uint64 ``values`` as ``str`` writes them, by digit arithmetic;
    int64's minimum and uint64 values above int64's range go per value."""
    slow = values > _INT64.max if values.dtype.kind == "u" else values == _INT64.min
    signed = np.where(slow, 0, values).astype(np.int64)
    return _patched(_Matrix(_signed(signed < 0, np.abs(signed)).T), slow, values)


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
    cells = _signed(fast & (x < 0), whole, tail=1 + width)
    point = len(cells) - width - 1
    cells[point] = ord(".")
    _pad(cells[point], fraction == 0)
    _digits(fraction * _POWERS[width - places], cells[point + 1:])
    trailing = cells[point + 1:] == ord("0")  # the fraction's zeros after its last digit
    for j in range(width - 2, -1, -1):
        trailing[j] &= trailing[j + 1]
    _pad(cells[point + 1:], trailing)
    return _patched(_Matrix(cells.T), ~fast, x)


_WIDE = {"i": np.int64, "u": np.uint64, "f": np.float64}


def _number_cells(values: np.ndarray) -> _Matrix:
    """Numpy int or float ``values`` widened to 64 bits and rendered as cells."""
    values = values.astype(_WIDE[values.dtype.kind], copy=False)
    return (_float_cells if values.dtype.kind == "f" else _int_cells)(values)


def _coded_numbers(column: np.ndarray) -> Coded:
    """A numeric column as a coded one whose labels are its distinct values,
    coded by bit pattern in the column's own width with ``_coded``, so that
    -0.0 and 0.0 (and NaNs with other payloads) stay apart."""
    if column.itemsize > 8:  # a long double, written as its float64
        column = column.astype(np.float64)
    distinct, codes = _coded(column.view(f"u{column.itemsize}"))
    return Coded(distinct.view(column.dtype), codes)


def _byte_table(labels: np.ndarray, lone: bool) -> _Matrix | None:
    """An ``S`` label array as its cells: its bytes, each label padded past its
    last non-NUL byte. None unless each label is strict UTF-8, none is quoted by
    csv.writer and the padding is small (by ``_label_table``'s rule)."""
    if labels.itemsize * WRITE_BLOCK > MAX_BLOCK_BYTES:  # before any copy
        return None
    data, width = labels.tobytes(), labels.itemsize
    cells = np.frombuffer(data, np.uint8).reshape(len(labels), width)
    lengths = np.strings.str_len(labels)
    # where the padded text is UTF-8 (no byte dropped by "ignore"), a label
    # that is not UTF-8 alone starts the next one with a continuation byte
    if (len(data.decode("utf-8", "ignore").encode()) < len(data)
            or (cells[:, 0] >> 6 == 2).any() or (lone and not lengths.all())
            or any(c.encode() in data for c in _QUOTED_CHARS)
            or cells.size > MAX_KEY_BLOWUP * lengths.sum()):
        return None
    pad = cells == 0
    if np.count_nonzero(pad) > cells.size - lengths.sum():  # a NUL inside a label
        pad &= np.arange(width) >= lengths[:, None]
    return _Matrix(cells | pad.view(np.uint8) * np.uint8(PAD))


def _label_table(labels: Sequence, codes: np.ndarray | slice,
                 lone: bool) -> _Matrix | _Ragged:
    """A coded column's label cells (numbers by ``_number_cells``, unpadded), as a
    matrix to gather rows from where padding stays small (see MAX_KEY_BLOWUP and
    MAX_BLOCK_BYTES); a label that is not UTF-8 text (``S`` labels that
    ``_byte_table`` declines are decoded) raises only if a code shows it
    (``slice(None)``: every label is shown)."""
    if isinstance(labels, np.ndarray) and labels.dtype.kind == "S":
        if (table := _byte_table(labels, lone)) is not None:
            return table
        labels = _decoded(labels, "surrogateescape")
    if isinstance(labels, np.ndarray) and labels.dtype.kind in _WIDE and len(labels):
        cells = _number_cells(labels).cells
        keep = cells != PAD
        lengths = keep.sum(axis=1)
        table = _Ragged(cells[keep], np.cumsum(lengths) - lengths, lengths)
    else:
        labels = _csv_cells(list(map(str, labels)), lone)
        try:
            table = _ragged(labels)
        except UnicodeEncodeError:
            shown = np.zeros(len(labels), bool)
            shown[codes] = True
            table = _ragged([label if seen else "" for label, seen in zip(labels, shown)])
    if not len(labels) or (table.width * len(labels) > MAX_KEY_BLOWUP * len(table.data)
                           or table.width * WRITE_BLOCK > MAX_BLOCK_BYTES):
        return table
    return table.rows(0, len(labels))


def _chunked(chunk_cells):
    """A function from a row range to its cells, for the write blocks of
    ``write_columns``, which asks for them in order: ``chunk_cells(start,
    stop)`` gives that function for the rows of one chunk, a whole number of
    write blocks about SCRATCH_ROWS long, and is called once per chunk."""
    size = WRITE_BLOCK * max(1, SCRATCH_ROWS // WRITE_BLOCK)
    first, held = -size, None  # the chunk rendered last: its first row, its cells

    def cells(start, stop):
        nonlocal first, held
        if start - first not in range(size):
            first, held = start - start % size, None  # dropped before the next is made
            held = chunk_cells(first, first + size)
        return held(start - first, stop - first)
    return cells


def _arange(values: range) -> np.ndarray:
    """``values`` as an int64 array: exact where each value and the step are
    int64, as numpy steps from the first value (the stop may lie past int64's
    range)."""
    return np.arange(values.start, values.stop, values.step, dtype=np.int64)


def _column_cells(column, lone: bool):
    """A function from a row range of ``column`` to its cells as CSV bytes (a
    ``_Matrix``, or a ``_Ragged`` to be rendered a few rows at a time).

    Coded columns render each label once and gather its bytes by code. A
    numeric column is widened to 64 bits a block at a time; one whose first
    256 rows repeat their bit patterns is coded a chunk at a time (see
    ``_chunked``), each chunk rendering its distinct values once: coding
    costs about as much as formatting half the values, hence 1 distinct value
    per 2 rows, not read_columns' 8. A ``range`` whose values and step are
    int64 gives its values a block at a time. An ``S`` array (an EventBatch
    column not yet coded) is its own labels, a block at a time:
    ``_byte_table`` makes it its byte matrix, and a block it declines is
    decoded row by row; keys too wide for its matrix are coded first.
    Numbers, numeric labels included, are written by digit arithmetic
    (``_int_cells``, ``_float_cells``), other labels by ``str`` and other
    sequences by ``_fmt`` per cell. No numeric column is copied whole.
    """
    if isinstance(column, range) and all(
            _INT64.min <= v <= _INT64.max
            for v in (column.start, column.step, column[-1] if column else 0)):
        return lambda start, stop: _int_cells(_arange(column[start:stop]))
    if isinstance(column, np.ndarray) and column.dtype.kind in _WIDE:
        head = column[:ROW_BLOCK].astype(_WIDE[column.dtype.kind]).view(np.uint64)
        if not (len(column) and _repeats(head.tolist(), 2)):
            return lambda start, stop: _number_cells(column[start:stop])
        return _chunked(lambda start, stop: _column_cells(
            _coded_numbers(column[start:stop]), lone))
    if isinstance(column, np.ndarray) and column.dtype.kind == "S":
        if column.itemsize * WRITE_BLOCK <= MAX_BLOCK_BYTES:
            return lambda start, stop: _label_table(column[start:stop], slice(None), lone)
        column = _coded(column)  # wider keys are decoded, once per distinct key
    if isinstance(column, Coded):
        return _gathered(_label_table(column.labels, column.codes, lone), column.codes)
    return lambda start, stop: _ragged(_csv_cells(list(map(_fmt, column[start:stop])), lone))


def _gathered(table: _Matrix | _Ragged, codes: np.ndarray):
    return lambda start, stop: table.take(codes[start:stop])


def _lines(parts: Sequence[_Matrix]) -> _Matrix:
    """Rows of cells side by side, each cell followed by a "," and the
    last by a "\n"."""
    comma = np.full((len(parts[0].cells), 1), ord(","), np.uint8)
    cells = np.concatenate([a for p in parts for a in (p.cells, comma)], axis=1)
    cells[:, -1] = ord("\n")
    return _Matrix(cells)


def _joinable(table: _Matrix | _Ragged, codes) -> bool:
    """Whether a coded column may join a run (see ``_joint_cells``): its
    label table is a matrix, and its codes are an integer array that intp
    holds, each in [0, len(labels)). A negative code, which a gather wraps
    to a label from the end, or one past the labels keeps its own column."""
    return (isinstance(table, _Matrix) and isinstance(codes, np.ndarray)
            and codes.dtype.kind in "iu" and np.can_cast(codes.dtype, np.intp)
            and unsigned_ids(codes, len(table.cells)).max(initial=0) < len(table.cells))


def _joint_cells(run: Sequence[tuple[list[_Matrix], np.ndarray]], line: bool):
    """A run of coded columns, as (label tables, the codes they share), as
    one coded column: its table holds a row per combination of codes,
    rendered once as the columns' cells joined by "," (and ended by "\n"
    where ``line``: the run is the whole row), and a block's joint codes
    ((c1·L2 + c2)·L3 + c3)… are made in one WRITE_BLOCK-sized intp scratch
    and gathered at once."""
    tables, codes = zip(*run)
    sizes = [len(shared[0].cells) for shared in tables]
    combinations = np.unravel_index(np.arange(math.prod(sizes)), sizes)
    joint = _lines([table.take(c) for shared, c in zip(tables, combinations)
                    for table in shared])
    if not line:
        joint = _Matrix(np.ascontiguousarray(joint.cells[:, :-1]))
    scratch = np.empty(WRITE_BLOCK, np.intp)

    def cells(start, stop):
        joint_codes = scratch[:len(codes[0][start:stop])]
        joint_codes[:] = codes[0][start:stop]
        for column, size in zip(codes[1:], sizes[1:]):
            joint_codes *= size
            joint_codes += column[start:stop]
        return joint.take(joint_codes)
    return cells


def _row_cells(columns: Sequence, lone: bool, rows: int) -> tuple[list, bool]:
    """The cells functions of a report's columns (see ``_column_cells``),
    with each run of adjacent ``Coded`` columns that ``_joinable`` takes
    joined by ``_joint_cells`` while the run's label counts multiply to at
    most WRITE_BLOCK and to at most half the rows (the repeat rule), a column
    with the codes array and label count of the one before it counting once;
    and whether the only function is a joint one that gives whole lines."""
    limit = min(WRITE_BLOCK, rows // 2)
    groups = []  # a cells function, or a run: a list of ([table, ...], codes)
    for column in columns:
        if not isinstance(column, Coded):
            groups.append(_column_cells(column, lone))
            continue
        table = _label_table(column.labels, column.codes, lone)
        run = groups[-1] if groups and isinstance(groups[-1], list) else None
        if not _joinable(table, column.codes):
            groups.append(_gathered(table, column.codes))
        elif run and run[-1][1] is column.codes and len(run[-1][0][0].cells) == len(table.cells):
            run[-1][0].append(table)
        elif run and math.prod(len(t[0].cells) for t, _ in run) * len(table.cells) <= limit:
            run.append(([table], column.codes))
        else:
            groups.append([([table], column.codes)])
    whole = len(groups) == 1 < len(columns)
    return [g if callable(g) else _gathered(*g[0][0], g[0][1]) if len(g) == 1 == len(g[0][0])
            else _joint_cells(g, whole) for g in groups], whole


def write_columns(path, header: Sequence[str], table: Columns) -> None:
    """Write ``table`` under ``header`` as a CSV file, atomically.

    Each cell is what csv.writer writes for ``_fmt(value)`` (see ``Coded`` for
    a coded column), with "\\n" line ends. Rows go out ``WRITE_BLOCK`` at a
    time (fewer where cells are wide, see MAX_BLOCK_BYTES), each block as one
    uint8 matrix of the columns' fixed-width cells and a "," or "\\n" after
    each, less the PAD bytes that fill each cell to its column's width (PAD
    is never a byte of UTF-8, see PAD); neither the report's text nor
    its rows, nor a widened or coded copy of a numeric column, are ever held
    whole: numbers are coded about SCRATCH_ROWS rows at a time (see
    ``_column_cells``). A run of adjacent coded columns whose label counts
    multiply to at most WRITE_BLOCK and to at most half the rows is one
    joint coded column (see ``_row_cells``): each combination of labels is
    rendered once, and a report that is one such run (a request log) writes
    a block as one gather of whole lines; columns with one codes array and
    label count (score's two) count once in that product, a row per code.
    """
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header names for {len(table.columns)} columns")
    lone = len(header) == 1
    columns, whole = _row_cells(table.columns, lone, len(table))
    with atomic_write(path) as fh:
        out = fh.buffer
        out.write((",".join(_csv_cells(list(header), lone)) + "\n").encode("utf-8"))
        for start in range(0, len(table), WRITE_BLOCK):
            blocks = [cells(start, start + WRITE_BLOCK) for cells in columns]
            rows = min(WRITE_BLOCK, len(table) - start)
            step = max(1, MAX_BLOCK_BYTES // sum(block.width + 1 for block in blocks))
            for first in range(0, rows, step):
                parts = [block.rows(first, first + step) for block in blocks]
                lines = (parts[0] if whole else _lines(parts)).cells.ravel()
                out.write(lines[lines != PAD])


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


def parse_requests(stream: TextIO | str,
                   schema: Schema) -> tuple[FactorDictionary, RequestBatch]:
    """Parse comma-separated request-log lines into level ids against a fresh
    dictionary.

    The header row must contain every schema column (extras are ignored).
    Raises MissingColumn, BadLabel or RaggedRow; the two row errors name the
    earliest offending line. Input order is preserved. The ids are stored in
    ``id_dtype`` of the level counts, by ``FactorDictionary.encode``.
    """
    rows = read_columns(stream, [*schema.factor_columns, schema.label_column],
                        check=lambda rows: _label_ids(rows.columns[-1], rows.line))
    *factor_columns, label_column = rows.columns
    labels = _label_ids(label_column, rows.line)
    # a level first occurs where its row first occurs, so levels keep the
    # first-seen order of the file; "" is the level MISSING_LEVEL
    levels = [list(dict.fromkeys(cell or MISSING_LEVEL for cell in dict.fromkeys(column)))
              for column in factor_columns]
    dictionary = FactorDictionary(schema.factor_columns, levels)
    return dictionary, RequestBatch(rows.gather(dictionary.encode(factor_columns)),
                                    rows.gather(labels))


def write_requests_csv(path, schema: Schema, dictionary: FactorDictionary,
                       batch: RequestBatch) -> None:
    """Write a batch in the form parse_requests accepts: each factor as a
    ``Coded`` column of its levels, and the labels as one of 0 and 1 where
    every label is 0 or 1 (else as numbers), so that the whole row can be
    one joint column (see ``_row_cells``)."""
    labels = batch.labels
    if labels.view(np.uint8).max(initial=0) <= 1:
        labels = Coded(np.array([0, 1], np.int8), labels)
    write_columns(path, [*schema.factor_columns, schema.label_column],
                  Columns(*(Coded(dictionary.levels(i), batch.factors[:, i])
                            for i in range(batch.m)), labels))


def build_factor_table(batch: RequestBatch,
                       dictionary: FactorDictionary) -> FactorTable:
    """Aggregate a batch into per-factor (level x label) contingency counts.

    DimensionMismatch unless the batch has the dictionary's factor count;
    ValueError for a label other than 0 or 1, or for a level id outside
    [0, L) of its factor. Ids of every width are checked by
    ``unsigned_ids`` and counted as 2 * id + label in int64, SCRATCH_ROWS
    rows at a time: a factor's table is the sum of its blocks' counts.
    """
    if batch.m != dictionary.m:
        raise DimensionMismatch(
            f"batch has {batch.m} factors, dictionary has {dictionary.m}")
    n = len(batch)
    if n and batch.labels.view(np.uint8).max() > 1:
        raise ValueError("record labels must be 0 or 1")
    scratch = np.empty(min(n, SCRATCH_ROWS), dtype=np.int64)
    counts = []
    for i, name in enumerate(dictionary.factor_names):
        levels = dictionary.level_count(i)
        ids = batch.factors[:, i]
        # read as unsigned, a negative id is ``levels`` or more, so one
        # maximum finds an id past either end
        if n and unsigned_ids(ids, levels).max() >= levels:
            raise ValueError(f"factor {name!r}: level id outside [0, {levels})")
        count = np.zeros(levels * 2, dtype=np.int64)
        for start in range(0, n, SCRATCH_ROWS):
            rows = slice(start, start + SCRATCH_ROWS)
            flat = scratch[:len(ids[rows])]
            # in int64: in the ids' own type, 2 * id wraps from 2^(b-2) on
            np.multiply(ids[rows], 2, out=flat, dtype=np.int64)
            flat += batch.labels[rows]
            count += np.bincount(flat, minlength=levels * 2)
        counts.append(count.reshape(-1, 2))
    return FactorTable(counts, n, dictionary)


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


def _cell_bytes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                pad: int = 0) -> np.ndarray:
    """The (n, w) uint8 matrix of the cells of ``buf`` at ``starts`` with
    ``lengths``: w is the longest length, and each row is ``pad`` past its
    cell (the event parse's ``S`` keys take NULs, the report writer PAD)."""
    w = max(int(lengths.max(initial=0)), 1)
    padded = np.concatenate([buf, np.zeros(w, np.uint8)])
    cells = np.lib.stride_tricks.sliding_window_view(padded, w)[starts]
    keep = np.arange(w) < lengths[:, None]
    cells *= keep
    if pad:
        cells |= ~keep * np.uint8(pad)
    return cells


def _coded(keys: np.ndarray) -> "Coded":
    """``keys`` as a coded column, as ``_Index`` codes a list: the distinct
    keys in first-seen order, and each key's index among them (int32). Only
    the first key of each run of equal keys is sorted; the rest take its code."""
    # the first key of each run, and none of no keys
    head = np.concatenate([[True], keys[1:] != keys[:-1]])[:len(keys)]
    labels, codes = _first_seen(keys[head])
    run = np.cumsum(head, dtype=np.int32)
    del head
    run -= 1
    return Coded(labels, codes[run])


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in first-seen order, and each key's index among
    them (int32)."""
    # a stable sort puts each distinct key's first occurrence at the head
    # of its group
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    group = np.concatenate([[True], ordered[1:] != ordered[:-1]])[:len(keys)]
    del ordered
    first = order[group]
    seen = np.zeros(len(keys), bool)
    seen[first] = True
    # a distinct key's code is the rank of its first occurrence among them
    rank = np.cumsum(seen, dtype=np.int32)
    rank -= 1
    group_codes = rank[first]
    del first, rank
    ids = np.cumsum(group, dtype=np.int32)
    ids -= 1
    codes = np.empty(len(keys), np.int32)
    codes[order] = group_codes[ids]
    return keys[seen], codes


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """The concatenation of ``chunks``, which are dropped from the list, so
    that a column is held once while the next one is joined."""
    column = np.concatenate(chunks)
    chunks.clear()
    return column


def _plain_events(pieces: Iterator[str]) -> EventBatch | None:
    """The EventBatch of a plain event file, read column-wise from the UTF-8
    bytes of ``pieces`` with no Python object per row, or None where this
    cannot be done exactly as ``read_columns`` with ``_Index`` and
    ``_timestamps`` would do it.

    A plain file has no '"', "\\r" or NUL (a NUL would be lost from an ``S``
    key) anywhere, its header included; every line has the header's number
    of comma-separated cells (so no line is blank) and is no longer than
    csv.field_size_limit() (so no cell is); every timestamp is 1 to
    MAX_STAMP_DIGITS ASCII digits (Python ``int`` also reads "+5", " 5",
    "5_0", "-5" and other digits, and longer ones may overflow); and the
    key arrays stay within MAX_KEY_BLOWUP times the bytes read. The header
    is read as ``read_columns`` reads it: a repeated name means its last
    column. Each piece's named cells become ``S`` key arrays and int64
    timestamps, joined one column at a time at the end; the EventBatch
    codes a key column where it is first used.
    """
    limit = csv.field_size_limit()
    keys = ([np.empty(0, "S1")], [np.empty(0, "S1")])
    stamps = [np.empty(0, np.int64)]
    positions = None
    rows = body_bytes = widest = 0
    for piece in pieces:
        if positions is None:
            header, _, piece = piece.partition("\n")
            names = header.split(",")
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
        # the line ends and commas in order: width per line, the last a "\n"
        newline = buf == 10
        seps = np.flatnonzero(newline | (buf == ord(",")))
        n = int(np.count_nonzero(newline))
        if len(seps) != n * width or (buf[seps[width - 1::width]] != 10).any():
            return None
        seps = seps.reshape(n, width)
        line_starts = np.concatenate([[0], seps[:-1, -1] + 1])
        spans = []
        for j in (positions[name] for name in EVENT_COLUMNS):
            starts = seps[:, j - 1] + 1 if j else line_starts
            spans.append((starts, seps[:, j] - starts))
        *key_spans, (stamp_starts, stamp_lengths) = spans
        rows, body_bytes = rows + n, body_bytes + len(data)
        widest = max(widest, *(lengths.max() for _, lengths in key_spans))
        if ((seps[:, -1] - line_starts).max() > limit
                or widest * rows > MAX_KEY_BLOWUP * body_bytes
                or stamp_lengths.min() < 1 or stamp_lengths.max() > MAX_STAMP_DIGITS):
            return None
        # digits read back from each stamp's end (at most 18: no overflow)
        ends, value = stamp_starts + stamp_lengths, np.zeros(n, np.int64)
        for place in range(int(stamp_lengths.max())):
            digit = buf.take(ends - 1 - place, mode="clip") - np.uint8(48)
            digit[stamp_lengths <= place] = 0
            if digit.max() > 9:
                return None
            value += np.multiply(digit, _POWERS[place], dtype=np.int64)
        stamps.append(value)
        for chunks, span in zip(keys, key_spans):
            cells = _cell_bytes(buf, *span)
            chunks.append(cells.view(f"S{cells.shape[1]}").ravel())
    if positions is None:
        return None
    return EventBatch(_joined(keys[0]), None, _joined(keys[1]), None, _joined(stamps))


def parse_cookie_events(stream: TextIO | str) -> EventBatch:
    """Parse a comma-separated ``cookie_id,browser,timestamp`` file into an
    EventBatch.

    A plain file is read column-wise (``_plain_events``); any other goes
    whole to ``read_columns``, which decides its result and its errors. A
    stream that can seek is read again from where parsing began; from one
    that cannot, the pieces of text read are kept until then, so that
    nothing is read twice. Raises MissingColumn, RaggedRow, or BadLabel for
    a timestamp that is not an int64 integer; the two row errors name the
    earliest offending line.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    start = stream.tell() if stream.seekable() else None
    pieces = _pieces(stream, EVENT_CHUNK_CHARS)
    if start is None:
        pieces, kept = tee(pieces)
    events = _plain_events(pieces)
    if events is not None:
        return events
    del pieces  # a tee holds every piece that one of its two sides has not read
    if start is None:
        stream = _Replay(kept)
    else:
        stream.seek(start)
    rows = read_columns(stream, EVENT_COLUMNS,
                        check=lambda rows: _timestamps(rows.columns[2], rows.line))
    cookie_ids, browser_names, stamps = rows.columns
    cookies, browsers = _Index(), _Index()
    return EventBatch(rows.gather(cookies.lookup(cookie_ids)), cookies.order,
                      rows.gather(browsers.lookup(browser_names)), browsers.order,
                      rows.gather(_timestamps(stamps, rows.line)))


def write_events_csv(path, events: EventBatch) -> None:
    write_columns(path, EVENT_COLUMNS, Columns(*events.columns()))


def aggregate_hourly(timestamps, window: tuple[int, int]) -> tuple[np.ndarray, int]:
    """Count epoch-second timestamps per hour inside ``window = [t0, t1)``.

    Both boundaries must be hour-aligned epoch seconds. Returns the int64
    counts, whose entry h is hour ``t0 // 3600 + h`` (a missing hour counts
    0), and the number of timestamps outside the window, which are dropped.
    """
    t0, t1 = window
    if t0 % SECONDS_PER_HOUR or t1 % SECONDS_PER_HOUR:
        raise UnalignedWindow(f"window boundaries must be hour-aligned: {window}")
    if t0 >= t1:
        raise UnalignedWindow(f"window must satisfy t0 < t1: {window}")
    ts = np.asarray(timestamps, dtype=np.int64)
    inside = (ts >= t0) & (ts < t1)
    hours = ts[inside] // SECONDS_PER_HOUR - t0 // SECONDS_PER_HOUR
    counts = np.bincount(hours, minlength=(t1 - t0) // SECONDS_PER_HOUR)
    return counts.astype(np.int64, copy=False), int(len(ts) - len(hours))
