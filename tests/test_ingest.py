import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adlift import ingest
from adlift.errors import (BadLabel, DimensionMismatch, MissingColumn, RaggedRow,
                           UnalignedWindow)
from adlift.ingest import (FactorDictionary, MISSING_LEVEL, ROW_BLOCK,
                           RequestBatch, Schema,
                           aggregate_hourly, build_factor_table, id_dtype,
                           parse_cookie_events, parse_requests, read_columns,
                           write_events_csv, write_requests_csv)
from adlift.synth import (ChurnSpec, FactorSpec, PopulationSpec, RequestSpec,
                          apply_churn, gen_gamma_poisson, gen_requests)

from conftest import make_events, traced_peak

SCHEMA1 = Schema(factor_columns=("browser",), label_column="label")


class TestSchema:
    def test_from_doc_reads_every_field(self):
        text = ('{"version": 1, "factors": ["browser", "os"], "label": "label", '
                '"timestamp": "ts"}')
        schema = Schema.from_doc(json.loads(text))
        assert schema == Schema(("browser", "os"), "label", timestamp_column="ts")

    def test_rejects_duplicate_factors(self):
        with pytest.raises(ValueError):
            Schema(("a", "a"), "label")

    def test_rejects_label_overlap(self):
        with pytest.raises(ValueError):
            Schema(("a", "label"), "label")

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            Schema.from_doc(json.loads('{"version": 2, "factors": ["a"], "label": "y"}'))


class TestParseRequests:
    def test_two_line_file(self):
        text = "browser,label\nchrome,1\nsafari,0\n"
        dictionary, records = parse_requests(text, SCHEMA1)
        assert dictionary.level_count(0) == 2
        assert dictionary.levels(0) == ["chrome", "safari"]
        assert len(records) == 2
        assert (records[0], records[1]) == ((0,), (1,))
        assert records.labels.tolist() == [1, 0]

    def test_header_only(self):
        dictionary, records = parse_requests("browser,label\n", SCHEMA1)
        assert len(records) == 0
        assert dictionary.level_count(0) == 0

    def test_first_seen_order(self):
        text = "browser,label\nz,0\na,0\nz,1\n"
        dictionary, _ = parse_requests(text, SCHEMA1)
        assert dictionary.levels(0) == ["z", "a"]

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_requests("device,label\nx,1\n", SCHEMA1)

    def test_bad_label_reports_line(self):
        with pytest.raises(BadLabel, match="line 3"):
            parse_requests("browser,label\nchrome,0\nchrome,2\n", SCHEMA1)

    def test_ragged_row(self):
        with pytest.raises(RaggedRow, match="line 2"):
            parse_requests("browser,label\nchrome\n", SCHEMA1)

    def test_empty_value_becomes_missing_level(self):
        dictionary, records = parse_requests("browser,label\n,1\n", SCHEMA1)
        assert dictionary.levels(0) == [MISSING_LEVEL]
        assert records[0] == (0,)

    def test_empty_and_literal_missing_share_one_level(self):
        text = "browser,label\nz,0\n__missing__,1\n,0\na,1\n,1\n"
        dictionary, records = parse_requests(text, SCHEMA1)
        assert dictionary.levels(0) == ["z", MISSING_LEVEL, "a"]
        assert records.factors[:, 0].tolist() == [0, 1, 1, 2, 1]
        dictionary, records = parse_requests("browser,label\n,0\n__missing__,1\n",
                                             SCHEMA1)
        assert dictionary.levels(0) == [MISSING_LEVEL]
        assert records.factors[:, 0].tolist() == [0, 0]

    @pytest.mark.parametrize("text, error, line", [
        ("browser,label\nchrome,0\nchrome,2\nchrome\n", BadLabel, 3),
        ("browser,label\nchrome,0\nchrome\nchrome,2\n", RaggedRow, 3),
        ("browser,label\nchrome,x\n\nchrome,1\n", BadLabel, 2),
        ("browser,label\nchrome,1\n\nchrome,x\n", RaggedRow, 3),
    ])
    def test_earliest_bad_line_wins(self, text, error, line):
        with pytest.raises(error, match=f"line {line}:"):
            parse_requests(text, SCHEMA1)

    def test_earliest_bad_line_wins_across_read_chunks(self):
        rows = ["chrome,0"] * 70_000
        rows[65_999] = "chrome,7"
        rows[69_999] = "chrome"
        with pytest.raises(BadLabel, match="line 66001:"):
            parse_requests("browser,label\n" + "\n".join(rows) + "\n", SCHEMA1)
        rows[65_999] = "chrome,0"
        with pytest.raises(RaggedRow, match="line 70001:"):
            parse_requests("browser,label\n" + "\n".join(rows) + "\n", SCHEMA1)

    @pytest.mark.parametrize("repeats", [1, 50])
    def test_factors_column_major(self, repeats):
        # 50 repeats of 3 lines are read as 3 distinct rows and gathered
        schema = Schema(("browser", "os"), "label")
        lines = ["chrome,win,1", "safari,,0", "ff,mac,0"] * repeats
        _, batch = parse_requests("browser,os,label\n" + "\n".join(lines) + "\n", schema)
        assert batch.factors.dtype == id_dtype([3, 3]) and batch.factors.flags.f_contiguous
        assert batch.factors.tolist() == [[0, 0], [1, 1], [2, 2]] * repeats
        assert batch.labels.tolist() == [1, 0, 0] * repeats

    def test_extra_columns_ignored(self):
        text = "junk,browser,label\nx,chrome,1\n"
        _, records = parse_requests(text, SCHEMA1)
        assert len(records) == 1

    def test_synth_roundtrip_1000(self, tmp_path):
        spec = RequestSpec(n=1000, base_rate=0.2, factors=(
            FactorSpec("browser", ("chrome", "safari", "ff"), (0.5, 0.3, 0.2),
                       (0.4, 0.0, -0.2)),
            FactorSpec("os", ("win", "mac"), (0.7, 0.3), (0.0, 0.0))))
        dictionary, batch = gen_requests(spec, seed=11)
        path = tmp_path / "requests.csv"
        write_requests_csv(path, spec.schema(), dictionary, batch)
        with open(path) as fh:
            dic2, batch2 = parse_requests(fh, spec.schema())
        # ids may be permuted (first-seen order); decoded labels must agree
        assert np.array_equal(batch2.labels, batch.labels)
        for i in range(spec.factors.__len__()):
            orig, back = dictionary.levels(i), dic2.levels(i)
            assert [back[k] for k in batch2.factors[:, i]] \
                == [orig[k] for k in batch.factors[:, i]]

    def test_writer_matches_row_by_row_csv(self, tmp_path):
        # labels that need quoting, written by column and by the per-row loop
        schema = Schema(("browser", "os"), "label")
        dictionary = FactorDictionary(["browser", "os"],
                                      [["a,b", 'q"x', ""], ["line\nbreak", "mac"]])
        batch = RequestBatch(np.array([[0, 1], [1, 0], [2, 1], [0, 0]]),
                             np.array([1, 0, 0, 1]))
        path = tmp_path / "r.csv"
        write_requests_csv(path, schema, dictionary, batch)
        with open(tmp_path / "oracle.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["browser", "os", "label"])
            for row, label in zip(batch.factors, batch.labels):
                writer.writerow([dictionary.levels(i)[k] for i, k in enumerate(row)]
                                + [int(label)])
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("rows, labels, runs", [
        (8, [0, 1, 1, 0], [(2, True)]),
        (7, [0, 1, 1, 0], []),  # 2 x 2 label pairs are more than half the rows
        (8, [2, -1, 0, 1], []),
    ])
    def test_labels_join_the_row_only_as_0_and_1(self, tmp_path, rows, labels, runs):
        # a log whose labels are all 0 or 1 is one joint column, with the
        # line ends in its table, where the label pairs are at most half the
        # rows; labels a hand-built batch holds outside them (2, -1) keep
        # their numeric column and are written as numbers
        factors = np.arange(rows).reshape(rows, 1) % 2
        labels = np.resize(labels, rows)
        path = tmp_path / "r.csv"
        with mock.patch.object(ingest, "_joint_cells", wraps=ingest._joint_cells) as joint:
            write_requests_csv(path, Schema(("f",), "label"),
                               FactorDictionary(["f"], [["a", "b"]]),
                               RequestBatch(factors, labels))
        assert [(len(run), line) for (run, line), _ in joint.call_args_list] == runs
        assert path.read_text() == "f,label\n" + "".join(
            f"{'ab'[f]},{label}\n" for f, label in zip(factors[:, 0], labels))

    def test_writer_holds_one_block(self, tmp_path):
        # a bench-shaped log (4 x 3 x 8 levels, 0/1 labels) of 250k rows is
        # one joint column: 0.87 MB measured, a block's gathered cells and
        # mask and its kept bytes; full-length joint codes would take 2 MB
        # alone, and writing per column took 1.71 MB
        rng = np.random.default_rng(11)
        n = 250_000
        levels = [["chrome", "safari", "firefox", "edge"], ["windows", "macos", "linux"],
                  [f"site{k}" for k in range(8)]]
        factors = np.column_stack([rng.integers(0, len(lv), n) for lv in levels])
        batch = RequestBatch(factors.astype(np.int8), (rng.random(n) < 0.1).astype(np.int8))
        dictionary = FactorDictionary(["browser", "os", "site"], levels)
        schema = Schema(("browser", "os", "site"), "label")
        path = tmp_path / "r.csv"
        write_requests_csv(path, schema, dictionary, batch)  # first calls' set-up
        _, peak = traced_peak(write_requests_csv, path, schema, dictionary, batch)
        assert peak < 1.05e6
        with open(path) as fh:
            assert parse_requests(fh, schema)[1].labels.tolist() == batch.labels.tolist()

    def test_parse_serialize_parse_identity(self, tmp_path):
        spec = RequestSpec(n=500, base_rate=0.2, factors=(
            FactorSpec("browser", ("chrome", "safari", "ff"), (0.5, 0.3, 0.2),
                       (0.0, 0.0, 0.0)),))
        dictionary, batch = gen_requests(spec, seed=12)
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        write_requests_csv(p1, spec.schema(), dictionary, batch)
        with open(p1) as fh:
            d1, b1 = parse_requests(fh, spec.schema())
        write_requests_csv(p2, spec.schema(), d1, b1)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p2) as fh:
            d2, b2 = parse_requests(fh, spec.schema())
        assert d2 == d1
        assert np.array_equal(b2.factors, b1.factors)
        assert np.array_equal(b2.labels, b1.labels)


def expand(rows):
    """The per-row columns of read_columns' Rows."""
    return [[column[code] for code in rows.codes.tolist()] for column in rows.columns]


class TestReadColumns:
    @pytest.mark.parametrize("shape, dtype", [((), np.float64), ((), np.bool_),
                                              ((3,), np.int32), ((1,), np.int8)])
    def test_gather_is_fancy_indexing(self, rng, shape, dtype):
        # more codes than one block of 65,536, and a block cut mid-way
        codes = rng.integers(0, 193, 3 * 65_536 + 123).astype(np.int32)
        values = rng.integers(0, 100, (193, *shape)).astype(dtype)
        got = ingest.Rows([], codes).gather(values)
        assert got.dtype == dtype and np.array_equal(got, values[codes])
        assert got.ndim == 1 or got.flags.f_contiguous  # column-major, as documented

    def test_columns_in_requested_order(self):
        text = "a,b,c\n1,2,3\n4,5,6\n"
        assert expand(read_columns(text, ["c", "a"])) == [["3", "6"], ["1", "4"]]

    def test_quoted_cells_and_tabs(self):
        assert expand(read_columns('a,b\n"x,y",2\n', ["a"])) == [["x,y"]]
        # a tab is ordinary content: the header is one column named "a\tb"
        assert expand(read_columns("a\tb\nx\t2\n", ["a\tb"])) == [["x\t2"]]
        with pytest.raises(MissingColumn, match="'b'"):
            read_columns("a\tb\nx\t2\n", ["b"])

    def test_distinct_rows_once(self):
        rows = read_columns("a,b\n" + "x,1\ny,2\n" * 20 + "z,1\n", ["b", "a"])
        assert rows.columns == [["1", "2", "1"], ["x", "y", "z"]]
        assert rows.codes.tolist() == [0, 1] * 20 + [2]
        assert rows.line(2) == 42

    def test_blank_line_is_ragged(self):
        with pytest.raises(RaggedRow, match="line 3: expected 2 fields, got 0"):
            read_columns("a,b\n1,2\n\n3,4\n", ["a"])

    def test_empty_input_and_missing_column(self):
        with pytest.raises(MissingColumn):
            read_columns("", ["a"])
        with pytest.raises(MissingColumn, match="'b'"):
            read_columns("a\n1\n", ["a", "b"])


def oracle_columns(stream, names, label=None, timestamp=None):
    """read_columns' cells row by row from csv.reader: the per-row columns,
    or the error of the earliest bad row; with ``label`` set, that column
    must hold 0 or 1, as parse_requests requires, and with ``timestamp`` set,
    that column must hold int64 integers read by Python ``int``, as
    parse_cookie_events requires."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise MissingColumn("input is empty: no header row")
    positions = {name: j for j, name in enumerate(header)}
    for name in names:
        if name not in positions:
            raise MissingColumn(f"column {name!r} not found in header")
    columns = [[] for _ in names]
    for line, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise RaggedRow(f"line {line}: expected {len(header)} fields, got {len(row)}")
        if label is not None and row[positions[label]] not in ("0", "1"):
            raise BadLabel(f"line {line}: label must be 0 or 1, "
                           f"got {row[positions[label]]!r}")
        if timestamp is not None:
            cell = row[positions[timestamp]]
            try:
                in_range = -2 ** 63 <= int(cell) < 2 ** 63
            except ValueError:
                in_range = False
            if not in_range:
                raise BadLabel(f"line {line}: timestamp must be integer epoch "
                               f"seconds, got {cell!r}")
        for column, name in zip(columns, names):
            column.append(row[positions[name]])
    return columns


def outcome(read):
    """``read()``'s value, or the type and message of what it raised."""
    try:
        return "ok", read()
    except Exception as exc:
        return type(exc).__name__, str(exc)


PLAIN_CELLS = ["a", "b", "", "c d", "é", "__missing__", "0"]
# cells that need quoting (a "\r" alone ends a line for csv.reader, so it
# appears only quoted or before "\n")
QUOTED_CELLS = ["x,y", 'q"q', "m\nn", "r\rs", "t\tu", '"']


@st.composite
def delimited_files(draw):
    """(text, names): a header of 1 to 3 columns (label first)
    over rows drawn from a small pool or fresh, with ragged rows, blank
    lines, bad labels, quoted cells, "\r\n" line ends and a final newline
    or none."""
    header = ["label", "f", "g"][:draw(st.integers(1, 3))]
    cells = PLAIN_CELLS + (QUOTED_CELLS if draw(st.booleans()) else [])

    def render(row):
        return ",".join(
            '"' + cell.replace('"', '""') + '"'
            if any(c in cell for c in (",", '"', "\n", "\r")) else cell
            for cell in row)

    @st.composite
    def rows(draw):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            return ""
        if kind == 1:
            return render(draw(st.lists(st.sampled_from(cells), max_size=4)))
        label = draw(st.sampled_from(["2", "", "x"])) if kind == 2 else \
            draw(st.sampled_from(["0", "1"]))
        return render([label] + [draw(st.sampled_from(cells)) for _ in header[1:]])

    if draw(st.booleans()):
        pool = draw(st.lists(rows(), min_size=1, max_size=4))
        lines = draw(st.lists(st.sampled_from(pool), max_size=40))
    else:
        lines = draw(st.lists(rows(), max_size=40))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    text = "".join(map(str.__add__, [render(header)] + lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text, header


class TestReaderOracle:
    """read_columns and parse_requests against csv.reader row by row, with
    read chunks of a few characters and row blocks of a few rows."""

    @given(case=delimited_files(), chunk=st.integers(1, 48), block=st.integers(1, 6),
           newline=st.sampled_from(["\n", None]))
    @example(case=("label,f\n" + "1,a\n0,b\n" * 5 + '"1",a\n' + "0,b\n" * 4,
                   ["label", "f"]), chunk=9, block=4, newline="\n")
    @settings(max_examples=400, deadline=None)
    def test_matches_csv_reader(self, case, chunk, block, newline):
        # newline None reads "\r\n" and "\r" as "\n", as open_text does
        text, names = case
        expected = outcome(lambda: oracle_columns(io.StringIO(text, newline=newline),
                                                  names))
        with mock.patch.multiple(ingest, CHUNK_CHARS=chunk, ROW_BLOCK=block):
            got = outcome(lambda: expand(read_columns(
                io.StringIO(text, newline=newline), names)))
            assert got == expected
            if len(names) == 1:
                return
            schema = Schema(tuple(names[1:]), "label")
            got = outcome(lambda: parse_requests(io.StringIO(text, newline=newline),
                                                 schema))
        expected = outcome(lambda: oracle_columns(io.StringIO(text, newline=newline),
                                                  names, label="label"))
        if expected[0] != "ok":
            assert got == expected
            return
        assert got[0] == "ok"
        dictionary, batch = got[1]
        labels, *factors = expected[1]
        assert batch.labels.tolist() == list(map(int, labels))
        for i, column in enumerate(factors):
            levels = list(dict.fromkeys(cell or MISSING_LEVEL for cell in column))
            assert dictionary.levels(i) == levels
            assert batch.factors[:, i].tolist() == [
                levels.index(cell or MISSING_LEVEL) for cell in column]

    @pytest.mark.parametrize("chunk", [5, 6, 7, 8, 1 << 20])
    @pytest.mark.parametrize("bad, ragged", [(21, 23), (23, 21), (2, 30), (30, 2)])
    def test_earliest_bad_line_wins_across_chunks(self, monkeypatch, chunk, bad, ragged):
        # rows of 4 characters: the chunk sizes put the bad rows at every
        # offset from a chunk boundary
        rows = ["x,1", "y,0"] * 20
        rows[bad], rows[ragged] = "x,2", "x"
        monkeypatch.setattr(ingest, "CHUNK_CHARS", chunk)
        error, line = (BadLabel, bad + 2) if bad < ragged else (RaggedRow, ragged + 2)
        with pytest.raises(error, match=f"line {line}:"):
            parse_requests("browser,label\n" + "\n".join(rows) + "\n", SCHEMA1)


EVENT_COLUMNS = ("cookie_id", "browser", "timestamp")
# cells of a plain event file: a lone surrogate, characters of two to four
# bytes and a key wider than 8 bytes among them, and timestamps of 1 to 18
# digits
PLAIN_KEYS = ["a", "b", "", "c d", "é", "x\ud800", "u1s2", "€😀", "cookie-12345"]
PLAIN_STAMPS = ["0", "7", "1414231", "00012", "9" * 18]
# what sends a file to read_columns: cells to quote, NULs (an S key drops a
# trailing one), timestamps that Python int reads (or rejects) but plain
# digits do not hold, and the shapes of a file's lines
TRIGGER_CELLS = {"quote": ["x,y", 'q"q', '"'], "nul": ["nl\0", "\0", "n\0l"],
                 "stamp": ["+5", "5_0", "-5", " 5", "٣", "1" * 19, str(2 ** 63),
                           "", "x"]}
TRIGGERS = (*TRIGGER_CELLS, "blank", "ragged", "crlf", "quoted header", "missing name")


def encoded(write):
    """``write()``'s bytes, or the name of the UnicodeEncodeError it raised."""
    try:
        return write()
    except UnicodeEncodeError:
        return "UnicodeEncodeError"


def csv_rows(header, rows) -> str:
    """``header`` and ``rows`` as csv.writer writes them, with "\n" line ends."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def event_lists(events):
    """An EventBatch's codes, labels and timestamps as plain lists."""
    return (events.cookies.tolist(), events.cookie_labels, events.browsers.tolist(),
            events.browser_labels, events.timestamps.tolist())


def oracle_events(stream):
    """parse_cookie_events from csv.reader and Python int, row by row."""
    cookies, browsers, stamps = oracle_columns(stream, EVENT_COLUMNS,
                                               timestamp="timestamp")
    return event_lists(make_events(zip(cookies, browsers, map(int, stamps))))


@st.composite
def event_files(draw):
    """(text, plain): a comma-separated event file whose header holds the
    three names in any order, with extra and repeated names; a plain one has
    plain cells and "\n" line ends only, any other one or two of TRIGGERS.
    Either may lack its final newline."""
    triggers = draw(st.sets(st.sampled_from(TRIGGERS), max_size=2))
    extras = draw(st.lists(st.sampled_from(["x", "browser", "timestamp"]), max_size=2))
    header = draw(st.permutations([*EVENT_COLUMNS, *extras]))
    if "missing name" in triggers:
        header.remove(draw(st.sampled_from(EVENT_COLUMNS)))

    def render(row):
        return ",".join('"' + cell.replace('"', '""') + '"'
                        if any(c in cell for c in ',"\n\r') else cell for cell in row)

    def cell(name):
        kinds = ["stamp"] if name == "timestamp" else ["quote", "nul"]
        kinds = [kind for kind in kinds if kind in triggers]
        if kinds and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(TRIGGER_CELLS[draw(st.sampled_from(kinds))]))
        return draw(st.sampled_from(PLAIN_STAMPS if name == "timestamp" else PLAIN_KEYS))

    def line():
        kind = draw(st.integers(0, 7))
        if kind == 0 and "blank" in triggers:
            return ""
        if kind == 1 and "ragged" in triggers:
            return render(draw(st.lists(st.sampled_from(PLAIN_KEYS), max_size=6)))
        return render([cell(name) for name in header])

    lines = [line() for _ in range(draw(st.integers(0, 30)))]
    if lines and draw(st.booleans()):
        lines = [draw(st.sampled_from(lines)) for _ in lines]
    head = render(header)
    if "quoted header" in triggers:
        head = ",".join(f'"{name}"' for name in header)
    ends = ["\n", "\r\n"] if "crlf" in triggers else ["\n"]
    text = "".join(row + draw(st.sampled_from(ends)) for row in [head, *lines])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, not triggers


@st.composite
def ungrouped_event_files(draw):
    """An event file as real traffic orders it, by time rather than by
    cookie: rows drawn grouped by cookie, then shuffled, or cut into runs of
    random lengths that are put in random order, so that a cookie's events
    fall into several runs."""
    cookies = draw(st.lists(st.sampled_from(PLAIN_KEYS) | st.text("ab€", max_size=3),
                            min_size=1, max_size=30, unique=True))
    rows = [(cookie, draw(st.sampled_from(["chrome", "safari", "ff"])),
             draw(st.integers(0, 10**6)))
            for cookie in cookies for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    else:
        cuts = sorted(set(draw(st.lists(st.integers(1, len(rows)), max_size=len(rows)))))
        runs = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]
        rows = [row for run in draw(st.permutations(runs)) for row in run]
    return "cookie_id,browser,timestamp\n" + "".join(f"{c},{b},{t}\n" for c, b, t in rows)


def first_seen_codes(cells):
    """Each cell's index among the distinct cells, and those in first-seen order."""
    index = {}
    return [index.setdefault(cell, len(index)) for cell in cells], list(index)


def columns_oracle(text):
    """parse_cookie_events' codes, labels and timestamps from read_columns
    and a plain first-seen coder, as lists."""
    rows = read_columns(text, EVENT_COLUMNS)
    cookies, browsers, stamps = ([column[k] for k in rows.codes.tolist()]
                                 for column in rows.columns)
    (cookie_codes, cookie_labels), (browser_codes, browser_labels) = \
        map(first_seen_codes, (cookies, browsers))
    return (cookie_codes, cookie_labels, browser_codes, browser_labels,
            list(map(int, stamps)))


class _Unseekable(io.StringIO):
    """A text stream that cannot seek, as a pipe is read."""

    def seekable(self):
        return False


class TestEventParseOracle:
    """parse_cookie_events against csv.reader and Python int row by row,
    with read chunks of a few characters (both CHUNK_CHARS and
    EVENT_CHUNK_CHARS): a plain file is read column-wise, any other by
    read_columns, and both give the oracle's codes, labels and timestamps,
    or its exception. A file that a later piece shows not to be plain is
    read again from a stream that can seek, and from the pieces kept from
    one that cannot."""

    @given(case=event_files(), chunk=st.integers(1, 48), block=st.integers(1, 6),
           newline=st.sampled_from(["\n", None]),
           stream=st.sampled_from([io.StringIO, _Unseekable]))
    @example(case=("cookie_id,browser,timestamp\nn\0,b,1\nn,b,2\n", False),
             chunk=48, block=4, newline="\n", stream=io.StringIO)
    @example(case=('"x,y",cookie_id,browser,timestamp\na,b,c,d,1\n', False),
             chunk=48, block=4, newline="\n", stream=io.StringIO)
    # every browser cell empty: the writer's byte buffer of labels is empty
    @example(case=("cookie_id,browser,timestamp\na,,0\n", True),
             chunk=48, block=4, newline="\n", stream=io.StringIO)
    # the third piece holds a quote, and the fourth a bad timestamp
    @example(case=('cookie_id,browser,timestamp\na,b,1\nc,d,2\n"e",f,3\ng,h,x\n', False),
             chunk=8, block=1, newline="\n", stream=_Unseekable)
    @example(case=('cookie_id,browser,timestamp\na,b,1\nc,d,2\n"e",f,3\ng,h,x\n', False),
             chunk=8, block=1, newline="\n", stream=io.StringIO)
    @settings(max_examples=400, deadline=None)
    def test_matches_csv_reader_and_int(self, tmp_path_factory, case, chunk, block,
                                        newline, stream):
        # newline None reads "\r\n" as "\n", as open_text does; the events
        # write back as csv.writer writes the oracle's rows
        text, plain = case
        expected = outcome(lambda: oracle_events(io.StringIO(text, newline=newline)))
        with mock.patch.multiple(ingest, CHUNK_CHARS=chunk, EVENT_CHUNK_CHARS=chunk,
                                 ROW_BLOCK=block), \
                mock.patch.object(ingest, "read_columns",
                                  wraps=ingest.read_columns) as general:
            parsed = outcome(lambda: parse_cookie_events(stream(text, newline=newline)))
        if parsed[0] != "ok":
            assert parsed == expected
            return
        path = tmp_path_factory.mktemp("events") / "events.csv"

        def written():
            return encoded(lambda: write_events_csv(path, parsed[1]) or path.read_bytes())

        # written before and after reading the codes, which code the key
        # columns of a column-wise parse
        uncoded = written()
        assert ("ok", event_lists(parsed[1])) == expected
        if plain:
            general.assert_not_called()
        cookies, cookie_labels, browsers, browser_labels, stamps = expected[1]
        rows = [(cookie_labels[c], browser_labels[b], t)
                for c, b, t in zip(cookies, browsers, stamps)]
        assert uncoded == written() \
            == encoded(lambda: csv_rows(EVENT_COLUMNS, rows).encode("utf-8"))

    def test_synth_events_are_read_column_wise(self, tmp_path):
        # a generated file spans several read chunks; reading it through
        # read_columns would be a silent fallback and a slow parse
        sample = gen_gamma_poisson(PopulationSpec(k=0.8, m=2.5, users=40_000,
                                                  window_hours=720.0), seed=5)
        events = apply_churn(sample, ChurnSpec(tau_days={"chrome": 6.0, "safari": 10.0},
                                               mix={"chrome": 0.7, "safari": 0.3}), seed=6)
        path = tmp_path / "events.csv"
        write_events_csv(path, events)
        assert path.stat().st_size > 2 * ingest.EVENT_CHUNK_CHARS
        with mock.patch.object(ingest, "read_columns", side_effect=AssertionError), \
                ingest.open_text(path) as fh:
            parsed = parse_cookie_events(fh)
        assert event_lists(parsed) == event_lists(events)

    def test_holds_its_columns_plus_one_piece(self, tmp_path):
        # a piece's scratch is dropped before the next is read, and the text
        # read is not kept: 10.7 bytes per character of a 64 Ki piece
        # measured beyond the columns returned, the last join included
        sample = gen_gamma_poisson(PopulationSpec(k=0.8, m=2.5, users=20_000,
                                                  window_hours=720.0), seed=5)
        events = apply_churn(sample, ChurnSpec(tau_days={"chrome": 6.0, "safari": 10.0},
                                               mix={"chrome": 0.7, "safari": 0.3}), seed=6)
        write_events_csv(tmp_path / "events.csv", events)
        text = io.StringIO((tmp_path / "events.csv").read_text())
        chunk = 1 << 16
        assert len(text.getvalue()) > 16 * chunk
        with mock.patch.object(ingest, "EVENT_CHUNK_CHARS", chunk), \
                mock.patch.object(ingest, "read_columns", side_effect=AssertionError):
            parsed, peak = traced_peak(parse_cookie_events, text)
        assert peak < sum(column.nbytes for column in parsed.columns()) + 13 * chunk

    @given(text=ungrouped_event_files(), chunk=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_ungrouped_files_match_read_columns(self, text, chunk):
        # the column-wise parse codes only the first key of each run of
        # equal keys; shuffled rows and split runs give the same codes
        expected = columns_oracle(text)
        with mock.patch.object(ingest, "EVENT_CHUNK_CHARS", chunk), \
                mock.patch.object(ingest, "read_columns", side_effect=AssertionError):
            events = parse_cookie_events(text)
            assert event_lists(events) == expected

    def test_long_key_cells_are_read_row_by_row(self):
        # one long cookie among short ones would make every row of the key
        # array as wide as it: the file goes to read_columns
        text = "cookie_id,browser,timestamp\n" + "x" * 1000 + ",b,1\n" + "c,b,2\n" * 300
        with mock.patch.object(ingest, "read_columns",
                               wraps=ingest.read_columns) as general:
            events = parse_cookie_events(text)
        general.assert_called_once()
        assert event_lists(events) == oracle_events(io.StringIO(text))


class TestFactorDictionary:
    @pytest.mark.parametrize("levels, message", [
        ([["A"]], "1 level lists for 2 factors"),
        ([["A"], ["B"], ["C"]], "3 level lists for 2 factors"),
        ([["A"], ["B", "B"]], "duplicate level labels in factor 'g'"),
    ])
    def test_one_list_of_distinct_labels_per_factor(self, levels, message):
        with pytest.raises(ValueError, match=message):
            FactorDictionary(["f", "g"], levels)


class TestFactorTable:
    def test_hand_count(self):
        dictionary = FactorDictionary(["f"], [["A", "B"]])
        batch = RequestBatch(np.array([[0], [0], [1], [1]]), np.array([1, 0, 0, 0]))
        table = build_factor_table(batch, dictionary)
        assert table.total == 4
        assert table.counts[0].tolist() == [[1, 1], [2, 0]]

    def test_empty_records(self):
        dictionary = FactorDictionary(["f"], [["A"]])
        batch = RequestBatch(np.empty((0, 1)), np.empty(0))
        table = build_factor_table(batch, dictionary)
        assert table.total == 0
        assert table.counts[0].tolist() == [[0, 0]]

    @pytest.mark.parametrize("columns", [1, 3])
    def test_factor_count_must_match_dictionary(self, columns):
        dictionary = FactorDictionary(["f", "g"], [["A", "B"], ["C", "D"]])
        batch = RequestBatch(np.zeros((4, columns)), np.zeros(4))
        with pytest.raises(DimensionMismatch,
                           match=f"batch has {columns} factors, dictionary has 2"):
            build_factor_table(batch, dictionary)

    @pytest.mark.parametrize("labels", [[2, 0, -1], [0, -1, 1], [0, 1, 127]])
    def test_label_outside_0_1_rejected(self, labels):
        dictionary = FactorDictionary(["f"], [["A", "B"]])
        batch = RequestBatch(np.array([[0], [0], [1]]), np.array(labels))
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            build_factor_table(batch, dictionary)

    @pytest.mark.parametrize("bad", [-1, -2**31, 2, 2**31 - 1])
    def test_level_id_outside_range_names_factor(self, bad):
        dictionary = FactorDictionary(["f", "g"], [["A", "B"], ["C", "D"]])
        batch = RequestBatch(np.array([[0, 1], [1, bad], [1, 0]]), np.array([1, 0, 0]))
        with pytest.raises(ValueError, match=r"factor 'g': level id outside \[0, 2\)"):
            build_factor_table(batch, dictionary)

    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32"])
    @pytest.mark.parametrize("levels", [2, 129, 257, 32_769])
    def test_level_id_outside_range_rejected_at_every_width(self, dtype, levels):
        # read as unsigned of their own width, the int8 -128 and -1 are 128
        # and 255: real levels of a factor of 129 or 257 levels
        info = np.iinfo(dtype)
        dictionary = FactorDictionary(["f"], [[f"v{k}" for k in range(levels)]])
        for bad in [-1, info.min] + [v for v in (levels, info.max) if levels <= v <= info.max]:
            batch = RequestBatch(np.array([[0], [bad]], dtype=dtype), np.array([0, 1]))
            with pytest.raises(ValueError, match=rf"level id outside \[0, {levels}\)"):
                build_factor_table(batch, dictionary)

    def test_int8_ids_count_as_bincount(self, rng):
        # ids 64-127: in int8, 2 * id + label would wrap to a negative pair
        n, levels = 5000, [128, 100]
        ids = np.column_stack([rng.integers(64, L, n) for L in levels]).astype(np.int8)
        labels = rng.integers(0, 2, n).astype(np.int8)
        dictionary = FactorDictionary(["f", "g"], [[f"v{k}" for k in range(L)] for L in levels])
        table = build_factor_table(RequestBatch(np.asfortranarray(ids), labels), dictionary)
        for i, L in enumerate(levels):
            expected = [np.bincount(ids[labels == s, i], minlength=L) for s in (0, 1)]
            assert table.counts[i].tolist() == np.column_stack(expected).tolist()

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_blocks_add_up_to_the_whole_count(self, rng, block):
        n, levels = 5000, [3, 128]
        ids = np.column_stack([rng.integers(0, L, n) for L in levels]).astype(np.int8)
        labels = rng.integers(0, 2, n).astype(np.int8)
        dictionary = FactorDictionary(["f", "g"], [[f"v{k}" for k in range(L)] for L in levels])
        with mock.patch.object(ingest, "SCRATCH_ROWS", block):
            table = build_factor_table(RequestBatch(ids, labels), dictionary)
        for i, L in enumerate(levels):
            expected = [np.bincount(ids[labels == s, i], minlength=L) for s in (0, 1)]
            assert table.counts[i].tolist() == np.column_stack(expected).tolist()

    def test_counts_hold_one_block_of_scratch(self, rng):
        # 2 * id + label is counted SCRATCH_ROWS rows at a time: 9.05
        # SCRATCH_ROWS bytes measured on 500k rows of 3 int8 ids, where one
        # full-length int64 column of them took 4.07 MB
        n, m = 500_000, 3
        batch = RequestBatch(rng.integers(0, 8, (n, m)).astype(np.int8),
                             rng.integers(0, 2, n).astype(np.int8))
        dictionary = FactorDictionary([f"f{i}" for i in range(m)],
                                      [[f"v{k}" for k in range(8)]] * m)
        table, peak = traced_peak(build_factor_table, batch, dictionary)
        assert table.total == n
        assert peak < 11 * ingest.SCRATCH_ROWS

    def test_row_sums_equal_total(self):
        spec = RequestSpec(n=5000, base_rate=0.1, factors=(
            FactorSpec("a", ("x", "y", "z"), (0.2, 0.3, 0.5), (0.0,) * 3),
            FactorSpec("b", ("p", "q"), (0.6, 0.4), (0.0, 0.0))))
        dictionary, batch = gen_requests(spec, seed=3)
        table = build_factor_table(batch, dictionary)
        for counts in table.counts:
            assert int(counts.sum()) == table.total == 5000

    def test_marginals_match_generator(self):
        probs = (0.5, 0.3, 0.2)
        spec = RequestSpec(n=100_000, base_rate=0.1, factors=(
            FactorSpec("a", ("x", "y", "z"), probs, (0.0,) * 3),))
        dictionary, batch = gen_requests(spec, seed=8)
        table = build_factor_table(batch, dictionary)
        level_totals = table.counts[0].sum(axis=1)
        for k, p in enumerate(probs):
            se = np.sqrt(p * (1 - p) * spec.n)
            assert abs(level_totals[k] - p * spec.n) < 3 * se


class TestAggregateHourly:
    def test_three_events_one_hour(self):
        counts, dropped = aggregate_hourly([10, 3599, 1800], (0, 7200))
        assert (counts.dtype, counts.tolist()) == (np.int64, [3, 0])
        assert dropped == 0

    def test_no_events(self):
        counts, dropped = aggregate_hourly([], (0, 3600 * 5))
        assert (counts.dtype, counts.tolist()) == (np.int64, [0] * 5)
        assert dropped == 0

    def test_event_conservation_with_drops(self):
        counts, dropped = aggregate_hourly([-5, 100, 3600 * 3], (0, 3600 * 2))
        assert int(counts.sum()) + dropped == 3
        assert dropped == 2

    def test_entry_h_is_hour_t0_plus_h(self):
        # a window of hours 2, 3 and 4: the ends fall either side of it
        counts, dropped = aggregate_hourly(
            [7199, 7200, 10799, 10800, 14400, 17999, 18000, 3], (7200, 18000))
        assert counts.tolist() == [2, 1, 2]
        assert dropped == 3

    def test_unaligned_window(self):
        with pytest.raises(UnalignedWindow):
            aggregate_hourly([], (0, 5000))
        with pytest.raises(UnalignedWindow):
            aggregate_hourly([], (3600, 3600))

    def test_poisson_simulation_mean(self, rng):
        lam, hours = 50.0, 100
        ts = []
        for h in range(hours):
            n = rng.poisson(lam)
            ts.extend(h * 3600 + rng.integers(0, 3600, n))
        counts, _ = aggregate_hourly(ts, (0, hours * 3600))
        assert abs(counts.mean() - lam) < 3 * np.sqrt(lam / hours)


class TestCookieEvents:
    def test_parse(self):
        text = "cookie_id,browser,timestamp\nc1,chrome,1000\nc2,safari,2000\n"
        events = parse_cookie_events(text)
        assert len(events) == 2
        # the column-wise parse keeps its key columns as keys until one is used
        cookies, browsers, timestamps = events.columns()
        assert cookies.tolist() == [b"c1", b"c2"]
        assert browsers.tolist() == [b"chrome", b"safari"]
        assert timestamps.tolist() == [1000, 2000]
        assert [events.cookie_labels[k] for k in events.cookies] == ["c1", "c2"]
        assert [events.browser_labels[k] for k in events.browsers] == ["chrome", "safari"]
        assert [column.codes.tolist() for column in events.columns()[:2]] == [[0, 1]] * 2

    def test_wide_keys_are_written_once_per_distinct_key(self, tmp_path):
        # keys too wide for the writer's byte matrix, one of 20 KB on most
        # rows: written uncoded, they are decoded once per distinct key, not
        # once per row, and the bytes are csv.writer's
        wide = ["w" * 20_000, "v" * 200, "u" * 300]
        rows = [(wide[k % 7 // 5 + k % 7 // 6], "chrome", k) for k in range(70)]
        text = csv_rows(EVENT_COLUMNS, rows)
        with mock.patch.object(ingest, "read_columns", side_effect=AssertionError):
            events = parse_cookie_events(text)
        path = tmp_path / "events.csv"
        with mock.patch.object(ingest, "_decoded", wraps=ingest._decoded) as decoded:
            write_events_csv(path, events)
        assert sum(len(call.args[0]) for call in decoded.call_args_list) == len(wide)
        assert path.read_text() == text

    def test_bad_timestamp(self):
        with pytest.raises(BadLabel, match="line 2"):
            parse_cookie_events("cookie_id,browser,timestamp\nc1,chrome,xx\n")

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_cookie_events("cookie,browser,timestamp\n")

    def test_codes_in_first_seen_order(self):
        events = parse_cookie_events("cookie_id,browser,timestamp\n"
                                     "b,safari,3\na,chrome,1\nb,chrome,2\n")
        assert events.cookie_labels == ["b", "a"]
        assert events.cookies.tolist() == [0, 1, 0]
        assert events.browser_labels == ["safari", "chrome"]
        assert events.browsers.tolist() == [0, 1, 1]
        assert events.timestamps.dtype == np.int64

    def test_repeated_rows_match_distinct_parse(self):
        # a file of repeated rows is keyed by line; a bad timestamp on a
        # repeated row is named at its first occurrence
        rows = [("b", "safari", 3), ("a", "chrome", 1)] * 20 + [("c", "chrome", 2)]
        text = "cookie_id,browser,timestamp\n" + "".join(
            f"{c},{b},{t}\n" for c, b, t in rows)
        events, expected = parse_cookie_events(text), make_events(rows)
        for name in ("cookies", "browsers", "timestamps"):
            assert getattr(events, name).tolist() == getattr(expected, name).tolist()
        assert events.cookie_labels == expected.cookie_labels
        assert events.browser_labels == expected.browser_labels
        with pytest.raises(BadLabel, match="line 42: timestamp must be integer"):
            parse_cookie_events(text.replace("c,chrome,2", "c,chrome,x"))

    def test_timestamps_read_as_python_ints(self):
        events = parse_cookie_events("cookie_id,browser,timestamp\n"
                                     "a,c, 12 \na,c,+5\na,c,1_000\na,c,-7\n")
        assert events.timestamps.tolist() == [12, 5, 1000, -7]
        for bad in ("1.5", "", str(2 ** 63)):
            with pytest.raises(BadLabel, match="line 3: timestamp must be integer"):
                parse_cookie_events(f"cookie_id,browser,timestamp\na,c,1\na,c,{bad}\n")

    @pytest.mark.parametrize("n_rows", [10, 70_000])
    def test_earliest_bad_line_wins(self, n_rows):
        # rows 2.. are good; with n_rows = 70,000 the errors sit on either
        # side of the 65,536-row mark
        rows = ["c,chrome,5"] * n_rows
        bad_ts, ragged = n_rows - 8, n_rows - 2
        rows[bad_ts] = "c,chrome,x"
        rows[ragged] = "c,chrome"
        text = "cookie_id,browser,timestamp\n" + "\n".join(rows) + "\n"
        with pytest.raises(BadLabel, match=f"line {bad_ts + 2}:"):
            parse_cookie_events(text)
        rows[bad_ts], rows[ragged] = rows[ragged], rows[bad_ts]
        text = "cookie_id,browser,timestamp\n" + "\n".join(rows) + "\n"
        with pytest.raises(RaggedRow, match=f"line {bad_ts + 2}:"):
            parse_cookie_events(text)
        if n_rows > 1 << 16:
            rows[bad_ts] = "c,chrome,5"
            rows[65_000] = "c,chrome,x"
            text = "cookie_id,browser,timestamp\n" + "\n".join(rows) + "\n"
            with pytest.raises(BadLabel, match="line 65002:"):
                parse_cookie_events(text)

    def test_write_parse_roundtrip_with_quoting(self, tmp_path):
        text = ('cookie_id,browser,timestamp\n"a,1",chrome,10\n"q""x",safari,20\n'
                '"a,1",chrome,30\n,chrome,40\n')
        events = parse_cookie_events(text)
        path = tmp_path / "events.csv"
        write_events_csv(path, events)
        assert path.read_text() == text


class TestIdDtype:
    # L levels fit b bits while L <= 2^(b-1): every negative id, read as
    # unsigned, is then L or more
    EDGES = [(128, np.int8), (129, np.int16), (32_768, np.int16), (32_769, np.int32)]

    @pytest.mark.parametrize("levels, dtype", EDGES)
    def test_producers_store_the_narrowest_type(self, levels, dtype):
        labels = [f"v{k}" for k in range(levels)]
        assert id_dtype([1, levels, 2]) == dtype
        # parse_requests: one line per level, beside a factor of 2 levels
        text = "f,g,label\n" + "".join(f"{v},{k % 2},0\n" for k, v in enumerate(labels))
        _, batch = parse_requests(text, Schema(("f", "g"), "label"))
        assert batch.factors.dtype == dtype
        assert batch.factors[:, 0].tolist() == list(range(levels))
        # gen_requests: draws of the first and the last level only
        probs = np.zeros(levels)
        probs[[0, -1]] = 0.5
        spec = RequestSpec(n=1000, base_rate=0.1, factors=(
            FactorSpec("f", tuple(labels), tuple(probs), (0.0,) * levels),))
        _, batch = gen_requests(spec, seed=1)
        assert batch.factors.dtype == dtype
        assert set(batch.factors[:, 0].tolist()) == {0, levels - 1}
        # FactorDictionary.encode: an unseen label is -1
        ids = FactorDictionary(["f"], [labels]).encode([["v0", labels[-1], "x"]])
        assert ids.dtype == dtype and ids.flags.f_contiguous
        assert ids[:, 0].tolist() == [0, levels - 1, -1]


class TestRequestBatch:
    def test_sequence_protocol(self):
        batch = RequestBatch(np.array([[0, 1], [1, 0]], dtype=np.int32),
                             np.array([1, 0], dtype=np.int8))
        assert len(batch) == 2
        assert batch[1] == (1, 0)
        assert list(batch) == [(0, 1), (1, 0)]
        assert batch.labels.tolist() == [1, 0]

    def test_records_match_per_cell_construction(self, rng):
        # three row blocks, the last one short, and the int32 extremes
        n, m = 2 * ROW_BLOCK + 3, 5
        factors = rng.integers(-2**31, 2**31, (n, m), dtype=np.int64).astype(np.int32)
        factors[0] = [-2**31, 2**31 - 1, -1, 0, 7]
        factors[-1] = [2**31 - 1, -2**31, 0, -1, 2**31 - 1]
        labels = rng.integers(0, 2, n).astype(np.int8)
        batch = RequestBatch(factors, labels)
        expected = [tuple(int(v) for v in row) for row in factors]
        rows = list(batch) + [batch[i] for i in range(-n, n)]
        assert rows == expected * 3
        assert all(type(v) is int for row in rows for v in row)
        assert batch.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize("n, m", [(0, 3), (1, 1), (ROW_BLOCK - 1, 4), (ROW_BLOCK, 1),
                                      (ROW_BLOCK + 1, 4), (2 * ROW_BLOCK + 3, 1),
                                      (ROW_BLOCK + 1, 0)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_iteration_yields_each_row_as_a_tuple(self, rng, n, m, order):
        factors = np.array(rng.integers(-2**31, 2**31, (n, m)), dtype=np.int32, order=order)
        batch = RequestBatch(factors, np.zeros(n, dtype=np.int8))
        assert list(batch) == [tuple(row) for row in batch.factors.tolist()]
        assert len(list(batch)) == n

    def test_factors_stored_column_major(self):
        ids = np.arange(12).reshape(4, 3)
        labels = np.zeros(4, dtype=np.int8)
        for given_ids in (ids, ids.astype(np.int32)):
            batch = RequestBatch(given_ids, labels)
            assert batch.factors.dtype == np.int32 and batch.factors.flags.f_contiguous
            assert batch.factors.tolist() == ids.tolist()
            assert batch.factors.tobytes() == ids.astype(np.int32).tobytes()
            assert batch[1] == (3, 4, 5)
        for dtype in ingest.ID_DTYPES:
            column_major = np.asfortranarray(ids, dtype=dtype)
            batch = RequestBatch(column_major, labels)
            assert np.shares_memory(batch.factors, column_major)
            assert batch.labels is labels
            batch = RequestBatch(np.ascontiguousarray(column_major), labels)
            assert batch.factors.dtype == dtype and batch.factors.flags.f_contiguous
            assert batch.factors.tolist() == ids.tolist()

    @pytest.mark.parametrize("factors, labels", [
        ([[2**32], [1]], [256, 257]),
        ([[2**32], [1]], [0, 1]),
        ([[-2**31 - 1], [1]], [0, 1]),
        ([[0], [1]], [256, 1]),
        ([[0], [1]], [-129, 1]),
        ([[0.7], [1.0]], [0, 1]),
        ([[np.nan], [1.0]], [0, 1]),
        ([[2.0**31], [1.0]], [0, 1]),
        ([[0], [1]], [0.5, 1.0]),
        ([["0"], ["1"]], [0, 1]),
    ])
    def test_cast_that_changes_a_value_rejected(self, factors, labels):
        with pytest.raises(ValueError, match="cannot hold"):
            RequestBatch(np.array(factors), np.array(labels))

    def test_cast_that_keeps_every_value_accepted(self):
        batch = RequestBatch(np.array([[2**31 - 1], [-2**31], [3]]),
                             np.array([1.0, 0.0, True]))
        assert batch.factors.dtype == np.int32 and batch.labels.dtype == np.int8
        assert batch.factors[:, 0].tolist() == [2**31 - 1, -2**31, 3]
        assert batch.labels.tolist() == [1, 0, 1]
