import ast
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adlift import ingest
from adlift.cli import PROG, _load_series, dispatch, emit_report
from adlift.ingest import _fmt

from conftest import traced_peak

SYNTH_SPEC = {
    "seed": 42,
    "requests": {
        "n": 20000,
        "base_rate": 0.1,
        "factors": [
            {"name": "browser", "levels": ["chrome", "safari", "ff"],
             "probs": [0.5, 0.3, 0.2], "effects": [0.5, -0.5, 0.0]},
            {"name": "os", "levels": ["win", "mac"],
             "probs": [0.6, 0.4], "effects": [0.0, 0.0]},
        ],
    },
    "population": {"k": 0.8, "m": 2.5, "users": 20000, "window_hours": 720},
    "churn": {"tau_days": {"chrome": 6.0, "safari": 10.0},
              "mix": {"chrome": 0.7, "safari": 0.3}},
    "intensity": {"n_hours": 400, "base": 40.0,
                  "harmonics": [{"period_hours": 24, "amplitude": 20.0}]},
}

SCHEMA = {"version": 1, "factors": ["browser", "os"], "label": "label"}
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SYNTH_SPEC))
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    return tmp_path


def run(*argv) -> int:
    return dispatch([str(a) for a in argv])


class TestDispatch:
    def test_help_exit_zero(self, capsys):
        assert run("--help") == 0
        assert "usage:" in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys):
        assert run() == 0
        assert "command" in capsys.readouterr().out

    def test_unknown_subcommand_suggests(self, capsys):
        assert run("trian") == 1
        err = capsys.readouterr().err
        assert "train" in err

    def test_missing_required_flag_usage_error(self):
        assert run("rank") == 1

    def test_missing_input_file_is_data_error(self, workdir):
        code = run("build-tables", "--schema", workdir / "schema.json",
                   "--input", workdir / "nope.csv", "--out", workdir / "t.json")
        assert code == 2

    def test_empty_tables_round_trip_to_rank(self, workdir, capsys):
        d = workdir
        (d / "requests.csv").write_text("browser,os,label\n")
        assert run("build-tables", "--schema", d / "schema.json",
                   "--input", d / "requests.csv", "--out", d / "tables.json") == 0
        factors = json.loads((d / "tables.json").read_text())["factors"]
        assert [(f["levels"], f["counts"]) for f in factors] == [([], [])] * 2
        capsys.readouterr()
        assert run("rank", "--tables", d / "tables.json",
                   "--out", d / "importance.json") == 2
        assert "factor table holds no records" in capsys.readouterr().err
        assert not (d / "importance.json").exists()


class TestPipeline:
    def test_end_to_end(self, workdir, capsys):
        d = workdir
        assert run("synth", "--spec", d / "spec.json",
                   "--out-requests", d / "requests.csv",
                   "--out-events", d / "events.csv",
                   "--out-freq", d / "freq.csv",
                   "--out-series", d / "hourly.csv") == 0
        assert run("build-tables", "--schema", d / "schema.json",
                   "--input", d / "requests.csv", "--out", d / "tables.json") == 0
        assert run("rank", "--tables", d / "tables.json", "--method", "shannon",
                   "--out", d / "importance.json") == 0
        imp = json.loads((d / "importance.json").read_text())
        by_rank = sorted(imp["entries"], key=lambda e: e["rank"])
        assert by_rank[0]["factor"] == "browser"  # planted driver wins

        assert run("train", "--tables", d / "tables.json",
                   "--importance", d / "importance.json",
                   "--epsilon", "0.0001", "--out", d / "model.json") == 0
        assert run("score", "--model", d / "model.json",
                   "--input", d / "requests.csv", "--out", d / "scores.csv") == 0

        scores = np.loadtxt(d / "scores.csv", delimiter=",", skiprows=1,
                            usecols=1)
        assert len(scores) == 20000
        assert np.all((scores >= 0) & (scores <= 1))
        # calibration: mean score tracks the empirical positive rate
        labels = np.loadtxt(d / "requests.csv", delimiter=",", skiprows=1,
                            usecols=2, dtype=int)
        rate = labels.mean()
        se = np.sqrt(rate * (1 - rate) / len(labels))
        assert abs(scores.mean() - rate) < 3 * se

        assert run("pace", "--model", d / "model.json",
                   "--input", d / "requests.csv", "--target", "2000",
                   "--out", d / "decisions.csv") == 0
        shows = np.loadtxt(d / "decisions.csv", delimiter=",", skiprows=1,
                           usecols=2, dtype=int)
        assert abs(shows.sum() - 2000) <= 200

        assert run("fit-nbd", "--freq", d / "freq.csv", "--window-hours", "720",
                   "--out", d / "nbd.json") == 0
        nbd = json.loads((d / "nbd.json").read_text())
        assert nbd["k"] > 0 and nbd["m"] > 0

        assert run("survival", "--events", d / "events.csv",
                   "--window", "0:2592000", "--guard-days", "3",
                   "--out", d / "survival.csv") == 0
        text = (d / "survival.csv").read_text().splitlines()
        assert text[0] == "browser,tau_days,deaths,censored"
        assert len(text) == 3

        assert run("forecast", "--series", d / "hourly.csv", "--L", "96",
                   "--r", "3", "--horizon", "48", "--out", d / "forecast.csv") == 0
        rows = (d / "forecast.csv").read_text().splitlines()
        assert rows[0] == "hour,actual,forecast"
        assert len(rows) == 1 + 400 + 48

        assert run("alarm", "--series", d / "hourly.csv",
                   "--forecast", d / "forecast.csv",
                   "--out", d / "alarm.json") == 0
        alarm = json.loads((d / "alarm.json").read_text())
        assert alarm["fired"] is False

        assert run("virtualize", "--series", d / "hourly.csv",
                   "--events", d / "virt_in.csv",
                   "--out", d / "virtual.csv") == 2  # events file missing

    def test_adjust_churn_subcommand(self, workdir):
        d = workdir
        run("synth", "--spec", d / "spec.json", "--out-freq", d / "freq.csv")
        (d / "survival.csv").write_text(
            "browser,tau_days,deaths,censored\nchrome,6.0,100,10\nsafari,10.0,50,5\n")
        assert run("adjust-churn", "--freq", d / "freq.csv",
                   "--survival", d / "survival.csv", "--window-hours", "720",
                   "--threshold", "10",
                   "--mix", "chrome:0.7,safari:0.3",
                   "--out", d / "adjusted.json") == 0
        adjusted = json.loads((d / "adjusted.json").read_text())
        assert abs(adjusted["k"] - 0.8) / 0.8 < 0.25
        assert abs(adjusted["m"] - 2.5) / 2.5 < 0.25
        assert adjusted["missing_loyal"] >= 0

    def test_virtualize_subcommand(self, workdir):
        d = workdir
        run("synth", "--spec", d / "spec.json", "--out-series", d / "hourly.csv",
            "--out-events", d / "events.csv")
        # events within the series window only
        lines = (d / "events.csv").read_text().splitlines()
        header, body = lines[0], lines[1:]
        kept = [ln for ln in body if int(ln.rsplit(",", 1)[1]) < 400 * 3600]
        (d / "events_in.csv").write_text("\n".join([header] + kept) + "\n")
        assert run("virtualize", "--series", d / "hourly.csv",
                   "--events", d / "events_in.csv",
                   "--out", d / "virtual.csv") == 0
        rows = (d / "virtual.csv").read_text().splitlines()
        assert rows[0] == "cookie_id,browser,timestamp,virtual"
        assert len(rows) == len(kept) + 1


_TEXT = st.text(st.sampled_from(["a", "é", ",", '"', "\r", "\n", " "]), max_size=4)
REPORT_CELLS = {
    "int": st.integers(-10**20, 10**20),
    "float": st.floats(),
    "str": _TEXT,
    "mixed": st.one_of(st.integers(), st.floats(), _TEXT),
}
# -0.0, NaNs with three bit patterns, both infinities and subnormals
SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), -float("nan"),
                  np.uint64(0x7FF8000000000001).view(np.float64).item(),
                  float("inf"), -float("inf"), 5e-324, -2.5e-320, 1e-310]


@st.composite
def repeated_column(draw, values):
    """A column of up to 700 rows drawn from a pool of 1 to 300 values, so
    that its first block holds from 1 to 256 distinct ones."""
    pool = draw(st.lists(values, min_size=1, max_size=300))
    n = draw(st.integers(0, 700))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
    return [pool[k] for k in rows]


def _either_sign(values):
    """``values`` with a drawn sign."""
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


def _ulps(values):
    """``values`` and the floats one ulp on each side of them."""
    return st.tuples(values, st.sampled_from([-1, 0, 1])).map(
        lambda v: math.nextafter(v[0], math.copysign(math.inf, v[1])) if v[1] else v[0])


# 13 significant digits ending in 5 (exact binary ties of "%.12g": a 12-digit
# integer plus 1/2, 11 digits plus 1/4 or 3/4, 10 digits plus an odd 1/8),
# the floats nearest (q + 1/2) * 10^k for a 12-digit q, and the places where
# "%.12g" switches between fixed and exponent notation
TIE_FLOATS = _either_sign(_ulps(st.one_of(
    st.builds(lambda n, f: n + f, st.integers(10**11, 10**12 - 1), st.just(0.5)),
    st.builds(lambda n, f: n + f, st.integers(10**10, 10**11 - 1),
              st.sampled_from([0.25, 0.75])),
    st.builds(lambda n, f: n + f, st.integers(10**9, 10**10 - 1),
              st.sampled_from([0.125, 0.375, 0.625, 0.875])),
    st.builds(lambda q, k: float(Fraction(2 * q + 1, 2) * Fraction(10) ** k),
              st.integers(10**11, 10**12 - 1), st.integers(-20, 3)),
    st.sampled_from([1e-5, 1e-4, 1e11, 1e12, 9.999999999995e-5, 99999999999.99995,
                     999999999999.5]))))
INT_EDGES = [0, -1, int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)]
# pieces of byte labels: the characters csv.writer quotes, NUL, a two-byte
# character, its lead and continuation bytes alone, a byte that is never
# UTF-8 and an encoded lone surrogate
_LABEL_BYTES = [b"a", b",", b'"', b"\r", b"\n", b"\0", "é".encode(), b"\xc3", b"\xa9",
                b"\xff", "\ud800".encode("utf-8", "surrogatepass")]
# labels with NUL, a two-byte character and both quote characters
_LABEL = st.text(st.sampled_from(["a", "\0", "é", ",", '"', "'", "\r", "\n", " "]),
                 max_size=4)


@st.composite
def report_column(draw):
    """(column, its cells as Python values) for one kind of writer column."""
    kind = draw(st.sampled_from(["float", "int64", "int8", "uint64", "coded", "other"]))
    if kind == "float":
        cells = draw(repeated_column(st.one_of(
            st.floats(), st.sampled_from(SPECIAL_FLOATS), TIE_FLOATS)))
        return np.array(cells, dtype=np.float64), cells
    if kind in ("int64", "int8", "uint64"):
        info = np.iinfo(kind)
        edges = [v for v in [*INT_EDGES, int(info.max)] if info.min <= v <= info.max]
        cells = draw(repeated_column(st.one_of(st.integers(int(info.min), int(info.max)),
                                               st.sampled_from(edges))))
        return np.array(cells, dtype=kind), cells
    if kind == "coded":
        labels = draw(st.lists(_LABEL, min_size=1, max_size=8, unique=True))
        codes = np.array(draw(repeated_column(st.integers(0, len(labels) - 1))))
        return ingest.Coded(labels, codes), [labels[k] for k in codes]
    cells = draw(st.lists(REPORT_CELLS["mixed"], max_size=30))
    return cells, cells


# numpy labels of a coded column: floats with the specials and ties above,
# and ints with int64's extremes and uint64 values above int64's range
NUMBER_LABELS = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), TIE_FLOATS),
             min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(INT_EDGES)),
             min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(-128, 127), min_size=1, max_size=40).map(
        lambda v: np.array(v, dtype=np.int8)),
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
             min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.uint64)))


@st.composite
def runs_of(draw, values):
    """A column of up to 30 runs of 1 to 40 equal values from a pool of 1 to
    8, so that runs cross the chunk and block boundaries of small blocks."""
    pool = draw(st.lists(values, min_size=1, max_size=8))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 40)),
                         max_size=30))
    return [pool[k] for k, length in runs for _ in range(length)]


@st.composite
def coded_run(draw):
    """[(column, its cells as Python values)]: 2 to 4 adjacent coded columns
    of 1 to 5 labels each (text that csv.writer quotes or leaves empty,
    numpy ints or floats with -0.0 and NaN, or ``S`` bytes), whose codes
    show their first and last labels, and a numeric column at a drawn place
    or none."""
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["text", "bytes", "int8", "int64", "float64"]))
        if kind == "text":
            labels = shown = draw(st.lists(st.sampled_from(
                ["", "a,b", 'q"x', "line\nbreak", "a", "é"]), min_size=1, max_size=5,
                unique=True))
        elif kind == "bytes":
            labels = np.array(draw(st.lists(st.sampled_from([b"", b"a", "é".encode(), b"bc"]),
                                            min_size=1, max_size=4, unique=True)), "S")
            shown = [key.decode() for key in labels.tolist()]
        else:
            if kind == "float64":
                values = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
            else:
                info = np.iinfo(kind)
                values = st.one_of(st.integers(int(info.min), int(info.max)),
                                   st.sampled_from([int(info.min), int(info.max), 0, -1]))
            labels = np.array(draw(st.lists(values, min_size=1, max_size=5)), kind)
            shown = labels.tolist()
        codes = rng.integers(0, len(labels), n).astype(
            draw(st.sampled_from(["int8", "uint16", "int32", "int64"])))
        codes[0], codes[-1] = 0, len(labels) - 1
        columns.append((ingest.Coded(labels, codes), [shown[k] for k in codes.tolist()]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(columns)))
        numbers = rng.integers(-3, 3, n) * draw(st.sampled_from([1, 0.25]))
        columns.insert(at, (numbers, numbers.tolist()))
    return columns


@st.composite
def block_coded_column(draw):
    """(column, its cells as Python values): a numpy int or float column of
    runs, or a range of other starts and steps."""
    kind = draw(st.sampled_from(["int8", "uint8", "int64", "uint64", "float64", "range"]))
    if kind == "range":
        start = draw(st.one_of(st.integers(-1000, 1000), st.sampled_from(INT_EDGES)))
        step = draw(st.one_of(st.integers(-5, 5).filter(bool), st.sampled_from(
            [2**62, -2**62, 2**63 - 1])))
        column = range(start, start + step * draw(st.integers(0, 700)), step)
        return column, list(column)
    if kind == "float64":
        values = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), TIE_FLOATS)
    else:
        info = np.iinfo(kind)
        # and both sides of the 32-bit digit arithmetic
        edges = [v for v in [*INT_EDGES, int(info.max), 2**32 - 1, 2**32, -2**32]
                 if info.min <= v <= info.max]
        values = st.one_of(st.integers(int(info.min), int(info.max)), st.sampled_from(edges))
        if kind == "uint64":
            values = st.one_of(values, st.integers(2**63, 2**64 - 1))
    column = np.array(draw(runs_of(values)), dtype=kind)
    return column, column.tolist()


def csv_writer_oracle(header, rows) -> bytes:
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return expected.getvalue().encode("utf-8")


class TestEmitReport:
    @given(st.lists(st.tuples(st.integers(-10**20, 10**20), st.floats()), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_numeric_rows_match_cell_formatting(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("report") / "r.csv"
        emit_report(["i", "x"], ingest.Columns([i for i, _ in rows],
                                               np.array([x for _, x in rows])), path)
        expected = "".join(f"{i},{format(x, '.12g')}\n" for i, x in rows)
        assert path.read_text() == "i,x\n" + expected

    @given(st.lists(st.sampled_from(["int", "float", "str", "mixed"]), min_size=1,
                    max_size=3).flatmap(lambda kinds: st.lists(
                        st.tuples(*(REPORT_CELLS[kind] for kind in kinds)), max_size=20)))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_csv_writer(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("report") / "r.csv"
        width = len(rows[0]) if rows else 1
        header = [f"c{j}" for j in range(width)]
        columns = [[row[j] for row in rows] for j in range(width)]
        emit_report(header, ingest.Columns(*columns), path)
        assert path.read_bytes() == csv_writer_oracle(header, rows)

    @given(st.lists(report_column(), min_size=1, max_size=3),
           st.integers(1, 7), st.sampled_from([1, 40, ingest.MAX_BLOCK_BYTES]))
    @settings(max_examples=300, deadline=None)
    def test_columns_match_csv_writer(self, tmp_path_factory, columns, block, max_bytes):
        # every column kind, float specials, ties and notation switch points,
        # int extremes, both sides of the repeat rule and coded labels that
        # need quoting, against csv.writer over _fmt cells; in blocks of 1 to
        # 7 rows, and with blocks cut to 1 row or a few by their width
        n = min(len(cells) for _, cells in columns)
        columns = [(column[:n] if not isinstance(column, ingest.Coded)
                    else ingest.Coded(column.labels, column.codes[:n]), cells[:n])
                   for column, cells in columns]
        path = tmp_path_factory.mktemp("report") / "r.csv"
        header = [f"c{j}" for j in range(len(columns))]
        with mock.patch.multiple(ingest, WRITE_BLOCK=block, MAX_BLOCK_BYTES=max_bytes):
            emit_report(header, ingest.Columns(*(column for column, _ in columns)), path)
        rows = list(zip(*(cells for _, cells in columns)))
        assert path.read_bytes() == csv_writer_oracle(header, rows)

    @given(block_coded_column(), st.booleans(), st.integers(1, 7), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_block_coded_numbers_match_csv_writer(self, tmp_path_factory, drawn, lone,
                                                  block, scratch):
        # numbers coded a chunk of about SCRATCH_ROWS rows at a time, and
        # ranges, alone or beside a range index, against csv.writer over _fmt
        # per value; with blocks and chunks of a few rows, runs of equal
        # values cross their boundaries
        column, cells = drawn
        index = [] if lone else [range(len(cells))]
        header = ["x"] if lone else ["x", "i"]
        path = tmp_path_factory.mktemp("report") / "r.csv"
        with mock.patch.multiple(ingest, WRITE_BLOCK=block, SCRATCH_ROWS=scratch):
            emit_report(header, ingest.Columns(column, *index), path)
        assert path.read_bytes() == csv_writer_oracle(header, zip(cells, *index))

    @given(coded_run(), st.integers(1, 40), st.sampled_from([200, ingest.MAX_BLOCK_BYTES]))
    @settings(max_examples=300, deadline=None)
    def test_coded_runs_match_csv_writer(self, tmp_path_factory, columns, block, max_bytes):
        # adjacent coded columns, joined while their label counts multiply
        # to at most the write block (1 to 40 rows here) and half the rows,
        # beside a numeric column or as the whole row, in blocks cut to a
        # few rows by their width
        path = tmp_path_factory.mktemp("report") / "r.csv"
        header = [f"c{j}" for j in range(len(columns))]
        with mock.patch.multiple(ingest, WRITE_BLOCK=block, MAX_BLOCK_BYTES=max_bytes):
            emit_report(header, ingest.Columns(*(column for column, _ in columns)), path)
        assert path.read_bytes() == csv_writer_oracle(
            header, zip(*(cells for _, cells in columns)))

    @pytest.mark.parametrize("column, runs", [
        # a gather wraps -1 to the last label
        (ingest.Coded(["a", "b"], np.array([0, 1, -1, 1] * 4)), [2]),
        (ingest.Coded(["a", "b"], np.array([0, 1, 2, 1] * 4)), [2]),  # IndexError
        # a label no row shows is never encoded, so the column joins
        (ingest.Coded(["a", "\ud800"], np.zeros(16, int)), [3]),
        # UnicodeEncodeError from its table, before any run is made
        (ingest.Coded(["a", "\ud800"], np.array([0, 1] * 8)), []),
        # a label too wide for a matrix ends a run
        (ingest.Coded(["w" * 20_000, "b"], np.array([0, 1] * 8)), [2]),
    ])
    def test_edge_columns_beside_a_run_write_their_labels(self, tmp_path, column, runs):
        # beside two columns that join, a column whose codes or labels keep
        # it out of the run gives the bytes, or the error with the old file
        # kept, of its labels picked row by row
        columns = [column, ingest.Coded(["x", "y"], np.arange(16) % 2),
                   ingest.Coded(np.array([0.5, -0.0]), np.arange(16) // 8 % 2)]
        header = ["c0", "c1", "c2"]
        try:
            expected = csv_writer_oracle(header, zip(*(
                [c.labels[k] for k in c.codes.tolist()] for c in columns)))
        except (IndexError, UnicodeEncodeError) as e:
            expected = type(e)
        path = tmp_path / "r.csv"
        path.write_text("old\n")
        with mock.patch.object(ingest, "_joint_cells", wraps=ingest._joint_cells) as joint:
            try:
                emit_report(header, ingest.Columns(*columns), path)
                got = path.read_bytes()
            except (IndexError, UnicodeEncodeError) as e:
                got = type(e)
                assert path.read_text() == "old\n"
        assert got == expected
        assert [len(run) for (run, _), _ in joint.call_args_list] == runs
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    @given(NUMBER_LABELS, st.lists(st.integers(0, 2**31 - 1), max_size=300),
           st.booleans(), st.integers(1, 7))
    @settings(max_examples=300, deadline=None)
    def test_numeric_labels_write_as_their_column(self, tmp_path_factory, labels, picks,
                                                  lone, block):
        # a coded column of numbers, alone on its row or beside an index,
        # gives the bytes of the per-row column it codes
        codes = np.array(picks, dtype=np.int32) % len(labels)
        index = [] if lone else [np.arange(len(codes))]
        header = ["x"] if lone else ["x", "i"]
        d = tmp_path_factory.mktemp("report")
        with mock.patch.object(ingest, "WRITE_BLOCK", block):
            emit_report(header, ingest.Columns(ingest.Coded(labels, codes), *index),
                        d / "coded.csv")
            emit_report(header, ingest.Columns(labels[codes], *index), d / "rows.csv")
        assert (d / "coded.csv").read_bytes() == (d / "rows.csv").read_bytes()

    @given(st.lists(st.lists(st.sampled_from(_LABEL_BYTES), max_size=4).map(b"".join),
                    min_size=1, max_size=8),
           st.lists(st.integers(0, 2**31 - 1), max_size=60), st.booleans(),
           st.integers(1, 7))
    @example([b"\xc3", b"\xa9"], [0, 1], True, 4)
    @example([b"\xc3", b"\xa9"], [1], True, 4)
    @example([b"a\0b", b"", "é".encode()], [0, 1, 2], False, 2)
    @example([b"ab", b""], [1, 0], True, 1)
    @settings(max_examples=300, deadline=None)
    def test_byte_labels_write_as_their_text(self, tmp_path_factory, labels, picks, lone,
                                             block):
        # an S label array gives the bytes of its labels decoded, each byte
        # that is not UTF-8 as a lone surrogate, or raises where they raise:
        # labels to quote, the empty label alone on its row, interior NULs,
        # two-byte characters, and bytes that are not UTF-8 alone or at all
        keys = np.array(labels, dtype="S")
        text = [key.decode("utf-8", "surrogateescape") for key in keys.tolist()]
        codes = np.array(picks, dtype=np.int32) % len(keys)
        index = [] if lone else [np.arange(len(codes))]
        header = ["x"] if lone else ["x", "i"]
        d = tmp_path_factory.mktemp("report")

        def written(column, name):
            try:
                emit_report(header, ingest.Columns(ingest.Coded(column, codes), *index),
                            d / name)
            except UnicodeEncodeError:
                return "UnicodeEncodeError"
            return (d / name).read_bytes()

        with mock.patch.object(ingest, "WRITE_BLOCK", block):
            assert written(keys, "bytes.csv") == written(text, "text.csv")

    def test_numeric_labels_of_no_rows(self, tmp_path):
        # what score and pace write for a header-only request log
        emit_report(["x"], ingest.Columns(ingest.Coded(np.empty(0), np.empty(0, np.int32))),
                    tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == "x\n"

    def test_mixed_cells_keep_their_formatting(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(["a", "b", "c"], ingest.Columns([1, 2], [0.5, 1.5], [True, False]),
                    path)
        assert path.read_text() == "a,b,c\n1,0.5,True\n2,1.5,False\n"
        emit_report(["a", "b"], ingest.Columns([1, 2, 3], [2, 2.5, 10**13]), path)
        assert path.read_text() == "a,b\n1,2\n2,2.5\n3,10000000000000\n"
        emit_report(["a", "b"], ingest.Columns(["x,y", ""], [1.0 / 3.0, float("nan")]),
                    path)
        assert path.read_text() == 'a,b\n"x,y",0.333333333333\n,nan\n'

    def test_len_is_the_row_count(self):
        assert len(ingest.Columns(np.arange(5), ingest.Coded(["a"], np.zeros(5, int)))) == 5
        with pytest.raises(ValueError, match="differ in length"):
            ingest.Columns([1, 2], [1])

    def test_failed_write_leaves_old_file(self, tmp_path):
        class Failing(list):
            def __getitem__(self, index):
                if index.start >= ingest.WRITE_BLOCK:
                    raise RuntimeError("disk full")
                return super().__getitem__(index)

        path = tmp_path / "r.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="disk full"):
            emit_report(["x"], ingest.Columns(Failing(range(3 * ingest.WRITE_BLOCK))), path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        emit_report(["x"], ingest.Columns(np.arange(3)), path)
        assert path.read_text() == "x\n0\n1\n2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_bench_shaped_report_formats_few_values_one_at_a_time(self, tmp_path,
                                                                  monkeypatch):
        # an index, a repeated score, a 0/1 int and a coded label never reach
        # the per-value path; distinct floats like virtual times rarely do
        rng = np.random.default_rng(7)
        n = 3 * ingest.WRITE_BLOCK
        scores = rng.random(96)[rng.integers(0, 96, n)]
        browsers = ingest.Coded(["chrome", "safari", "firefox"], rng.integers(0, 3, n))
        times = rng.uniform(0.0, 2000 * 3600.0, n)
        columns = [np.arange(n), scores, rng.integers(0, 2, n), browsers]
        formatted = []

        def per_value(values):
            formatted.extend(values.tolist())
            return list(map(_fmt, values.tolist()))

        monkeypatch.setattr(ingest, "_formatted", per_value)
        path = tmp_path / "r.csv"
        emit_report(["index", "score", "show", "browser"], ingest.Columns(*columns), path)
        assert formatted == []
        emit_report(["index", "score", "show", "browser", "virtual"],
                    ingest.Columns(*columns, times), path)
        assert 0 < len(formatted) < 0.01 * n and set(formatted) <= set(times.tolist())
        rows = zip(range(n), scores.tolist(), columns[2].tolist(),
                   (browsers.labels[k] for k in browsers.codes), times.tolist())
        assert path.read_bytes() == csv_writer_oracle(
            ["index", "score", "show", "browser", "virtual"], rows)

    @pytest.mark.parametrize("column", [
        ingest.Coded(["a", "b\ud800"], np.array([0, 1, 0])), ["a", "b\ud800", "c"]])
    def test_lone_surrogate_fails_the_write(self, tmp_path, column):
        path = tmp_path / "r.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            emit_report(["x"], ingest.Columns(column), path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        # a label that no row shows is not written
        emit_report(["x"], ingest.Columns(ingest.Coded(["a", "\ud800"], np.zeros(2, int))),
                    path)
        assert path.read_text() == "x\na\na\n"

    def test_wide_label_keeps_blocks_small(self, tmp_path):
        # one 20,000-byte label among short ones, as text and as an S array:
        # a block padded to its width on every row would take 8 Ki x 20,000
        # bytes
        labels = ["w" * 20_000, *map(str, range(1, 5000))]
        codes = np.arange(2 * ingest.WRITE_BLOCK) % 5000
        path = tmp_path / "r.csv"
        for column in (labels, np.array(labels, dtype="S")):
            _, peak = traced_peak(emit_report, ["x", "i"],
                                  ingest.Columns(ingest.Coded(column, codes),
                                                 np.arange(len(codes))), path)
            assert peak < 8 * ingest.MAX_BLOCK_BYTES
            assert path.read_bytes() == csv_writer_oracle(
                ["x", "i"], [(labels[k], i) for i, k in enumerate(codes.tolist())])

    def test_coded_numbers_hold_one_chunk(self, tmp_path):
        # a 0/1 int8 column and a repeated float column are widened and
        # coded a chunk at a time: 3.25 MB measured at 16 and at 64 write
        # blocks, where coding whole columns took 4.62 and 18.3 MB
        rng = np.random.default_rng(3)
        peaks = []
        for n in (16 * ingest.WRITE_BLOCK, 64 * ingest.WRITE_BLOCK):
            show = (rng.random(n) < 0.1).astype(np.int8)
            score = rng.random(96)[rng.integers(0, 96, n)]
            _, peak = traced_peak(emit_report, ["show", "score"],
                                  ingest.Columns(show, score), tmp_path / "r.csv")
            peaks.append(peak)
        assert peaks[0] < 4.0e6
        assert peaks[1] < 1.05 * peaks[0]

    @pytest.mark.parametrize("writer", ["report", "requests", "joint_requests", "events",
                                        "json", "model"])
    def test_every_writer_replaces_its_target_whole(self, tmp_path, monkeypatch, writer):
        # a failure at the final rename leaves the old file and no temporary one
        from adlift import predictor
        from adlift.cli import _write_json

        write = {
            "report": lambda p: emit_report(["x"], ingest.Columns(np.arange(3)), p),
            "requests": lambda p: ingest.write_requests_csv(
                p, ingest.Schema(("f",), "label"), ingest.FactorDictionary(["f"], [["a"]]),
                ingest.RequestBatch(np.zeros((2, 1)), np.zeros(2))),
            # 1 factor x 2 levels and 2 labels over 8 rows: one joint column
            "joint_requests": lambda p: ingest.write_requests_csv(
                p, ingest.Schema(("f",), "label"),
                ingest.FactorDictionary(["f"], [["a", "b"]]),
                ingest.RequestBatch(np.arange(8).reshape(8, 1) % 2, np.arange(8) // 4)),
            "events": lambda p: ingest.write_events_csv(
                p, ingest.EventBatch([0], ["c"], [0], ["chrome"], [5])),
            "json": lambda p: _write_json({"a": 1}, p),
            "model": lambda p: predictor.save_model(predictor.SparseRateModel(
                ingest.FactorDictionary(["f"], [["a"]]), [0.5], [[0.2]], 0.01, 0.5, 0.2), p),
        }[writer]
        path = tmp_path / "out"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ingest.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        monkeypatch.undo()
        write(path)
        assert path.read_text() != "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_writes_into_a_pipe_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            emit_report(["x"], ingest.Columns([1, 2]), pipe)
            assert os.read(reader, 100) == b"x\n1\n2\n"
        finally:
            os.close(reader)
        assert pipe.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_csv_writer_only_in_the_report_writer(self):
        # every CSV adlift writes goes through ingest.write_columns
        def writers(node):
            return sum(isinstance(n, ast.Attribute) and n.attr in ("writer", "DictWriter")
                       and isinstance(n.value, ast.Name) and n.value.id == "csv"
                       for n in ast.walk(node))

        found = {}
        for path in sorted(Path(ingest.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not any(isinstance(n, ast.ImportFrom) and n.module == "csv"
                           for n in ast.walk(tree)), path.name
            if writers(tree):
                found[path.name] = (writers(tree), {
                    f.name: writers(f) for f in ast.walk(tree)
                    if isinstance(f, ast.FunctionDef) and writers(f)})
        assert found == {"ingest.py": (1, {"_csv_cell": 1})}


class TestRepeatedRequestLines:
    """build-tables, score and pace on request files that repeat their lines,
    against reports built row by row from csv.reader."""

    @staticmethod
    def write_requests(path, rng, browsers, delimiter, quoted=True):
        rate = {"chrome": 0.6, "safari": 0.1, "": 0.3}
        rows = []
        for _ in range(600):
            browser, os_name = rng.choice(browsers), rng.choice(["win", "mac"])
            shown = rng.random() < rate.get(browser, 0.2) + 0.2 * (os_name == "mac")
            rows.append([browser, os_name, str(int(shown))])
        lines = [delimiter.join(row) for row in rows]
        if quoted:
            # one quoted line, read as the same cells, in a later read chunk
            lines[400] = delimiter.join(f'"{cell}"' for cell in rows[400])
        path.write_text(delimiter.join(["browser", "os", "label"]) + "\n"
                        + "\n".join(lines) + "\n")
        return rows

    @pytest.mark.parametrize("tab, heldout", [
        pytest.param(False, "quoted", id="False"), pytest.param(True, "quoted", id="True"),
        pytest.param(False, "keyed", id="keyed"),
        pytest.param(False, "distinct", id="distinct")])
    def test_reports_match_per_row_oracle(self, workdir, monkeypatch, tab, heldout):
        # held-out logs: line-keyed up to a quoted line and keyed by cells
        # after it (the ids False and True name the training log's --tab),
        # line-keyed throughout, or of distinct rows
        from adlift import predictor
        from adlift.cli import _encoded_batch, _save_tables

        d, rng = workdir, np.random.default_rng(5)
        monkeypatch.setattr(ingest, "CHUNK_CHARS", 256)
        rows = self.write_requests(d / "requests.csv", rng, ["chrome", "safari", "", "ff"],
                                   "\t" if tab else ",")
        held = self.write_requests(
            d / "heldout.csv", rng, [str(j) for j in range(600)] if heldout == "distinct"
            else ["chrome", "safari", "", "opera"], ",", quoted=heldout == "quoted")
        assert run("build-tables", "--schema", d / "schema.json", "--input",
                   d / "requests.csv", *(["--tab"] if tab else []),
                   "--out", d / "tables.json") == 0
        assert run("rank", "--tables", d / "tables.json", "--out", d / "importance.json") == 0
        assert run("train", "--tables", d / "tables.json", "--importance",
                   d / "importance.json", "--out", d / "model.json") == 0
        assert run("score", "--model", d / "model.json", "--input", d / "heldout.csv",
                   "--out", d / "scores.csv") == 0
        assert run("pace", "--model", d / "model.json", "--input", d / "heldout.csv",
                   "--target", 60, "--block", 50, "--out", d / "decisions.csv") == 0

        labels = np.array([int(row[2]) for row in rows], dtype=np.int64)
        levels, counts = [], []
        for i in (0, 1):
            cells = [row[i] or ingest.MISSING_LEVEL for row in rows]
            levels.append(list(dict.fromkeys(cells)))
            ids = np.array([levels[i].index(cell) for cell in cells])
            counts.append(np.bincount(ids * 2 + labels, minlength=2 * len(levels[i]))
                          .reshape(-1, 2))
        _save_tables(ingest.FactorTable(counts, len(rows), ingest.FactorDictionary(
            ["browser", "os"], levels)), d / "oracle_tables.json")
        assert (d / "tables.json").read_bytes() == (d / "oracle_tables.json").read_bytes()

        model = predictor.load_model(d / "model.json")
        assert (model.importance > 0).all()
        distinct = len(_encoded_batch(model, d / "heldout.csv", ",")[1])
        assert (distinct == len(held)) if heldout == "distinct" \
            else (distinct < len(held) / 2)
        with open(d / "heldout.csv", newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        assert [row[:2] for row in cells] == [row[:2] for row in held]
        matrix = model.dictionary.encode([[row[i] for row in cells] for i in (0, 1)])
        result = predictor.score_batch(model, ingest.RequestBatch(
            matrix, np.zeros(len(matrix), dtype=np.int8)))
        assert (result.used_factors < model.m).any()
        n, scores = len(result), result.scores.tolist()
        assert (d / "scores.csv").read_bytes() == csv_writer_oracle(
            ["index", "score", "used_factors"],
            zip(range(n), scores, result.used_factors.tolist()))
        state = predictor.PacingState(target_total=60, horizon_requests=n,
                                      block_size=50)
        show, threshold = predictor.pace_batch(state, result.scores)
        assert (d / "decisions.csv").read_bytes() == csv_writer_oracle(
            ["index", "score", "show", "threshold"],
            zip(range(n), scores, show.astype(int).tolist(), threshold.tolist()))

    @pytest.mark.parametrize("browsers", [["chrome", "safari", "", "opera"], None])
    def test_encoded_batch_is_column_major(self, tmp_path, browsers):
        # the batch holds the distinct rows; None: every line distinct, so
        # the batch is every row and no row is gathered
        from adlift import predictor
        from adlift.cli import _encoded_batch

        rng = np.random.default_rng(9)
        path = tmp_path / "heldout.csv"
        rows = self.write_requests(path, rng, browsers or [str(j) for j in range(600)], ",")
        dictionary = ingest.FactorDictionary(
            ["browser", "os"], [["chrome", "safari", ingest.MISSING_LEVEL], ["win", "mac"]])
        model = predictor.SparseRateModel(
            dictionary, [0.7, 0.2], [[0.2, 0.5, 0.7], [0.4, 0.6]], epsilon=0.0, beta=0.5,
            global_rate=0.3)
        read, batch = _encoded_batch(model, path, ",")
        assert batch.factors.dtype == ingest.id_dtype([3, 2])
        assert batch.factors.flags.f_contiguous
        assert (len(batch) < len(rows) / 2) if browsers else (len(batch) == len(rows))
        assert np.array_equal(read.gather(batch.factors), dictionary.encode(
            [[row[i] for row in rows] for i in (0, 1)]))

    def test_tab_log_scores_as_its_csv_twin(self, workdir, capsys):
        d, reports = workdir, {}
        for delimiter, flags in ((",", []), ("\t", ["--tab"])):
            rng = np.random.default_rng(7)
            self.write_requests(d / "requests.csv", rng, ["chrome", "safari", ""],
                                delimiter)
            self.write_requests(d / "heldout.csv", rng, ["chrome", "opera", ""], delimiter)
            assert run("build-tables", "--schema", d / "schema.json", "--input",
                       d / "requests.csv", *flags, "--out", d / "tables.json") == 0
            assert run("rank", "--tables", d / "tables.json",
                       "--out", d / "importance.json") == 0
            assert run("train", "--tables", d / "tables.json", "--importance",
                       d / "importance.json", "--out", d / "model.json") == 0
            assert run("score", "--model", d / "model.json", "--input", d / "heldout.csv",
                       *flags, "--out", d / "scores.csv") == 0
            assert run("pace", "--model", d / "model.json", "--input", d / "heldout.csv",
                       *flags, "--target", 60, "--block", 50,
                       "--out", d / "decisions.csv") == 0
            reports[delimiter] = [(d / name).read_bytes() for name in
                                  ("tables.json", "scores.csv", "decisions.csv")]
        assert reports[","] == reports["\t"]
        # without --tab the header of the TSV log is one column
        assert run("score", "--model", d / "model.json", "--input", d / "heldout.csv",
                   "--out", d / "scores.csv") == 2
        assert "column 'browser' not found" in capsys.readouterr().err


class TestRequestReportMemory:
    """score and pace hold the row codes and their per-request results, and
    pace a block of rows at a time, so their peaks stay near the 4 bytes of
    row code per request."""

    @pytest.fixture(scope="class")
    def request_log(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("memory")
        factors = [_factor("browser", ["chrome", "safari", "ff"], [0.5, 0.3, 0.2],
                           [0.5, -0.5, 0.0]),
                   _factor("os", ["win", "mac"], [0.6, 0.4], [0.3, 0.0])]
        (d / "spec.json").write_text(json.dumps(
            {"requests": {"n": 100_000, "base_rate": 0.1, "factors": factors}}))
        (d / "schema.json").write_text(json.dumps(
            {"version": 1, "factors": ["browser", "os"], "label": "label"}))
        for argv in [("synth", "--spec", d / "spec.json", "--seed", 5,
                      "--out-requests", d / "requests.csv"),
                     ("build-tables", "--schema", d / "schema.json",
                      "--input", d / "requests.csv", "--out", d / "tables.json"),
                     ("rank", "--tables", d / "tables.json", "--out", d / "importance.json"),
                     ("train", "--tables", d / "tables.json",
                      "--importance", d / "importance.json", "--out", d / "model.json")]:
            assert run(*argv) == 0, argv[0]
        return d

    # 1.75 and 3.34 MB measured on 100k rows; with a full-length index,
    # gathered scores and int64 decisions, 2.47 and 5.02 MB
    @pytest.mark.parametrize("stage, options, bound", [
        ("score", [], 2.15e6), ("pace", ["--target", 10_000], 4.1e6)])
    def test_stage_holds_its_codes_and_results(self, request_log, stage, options, bound):
        d = request_log
        argv = [stage, "--model", d / "model.json", "--input", d / "requests.csv",
                *options, "--out", d / f"{stage}.csv"]
        assert run(*argv) == 0  # first calls' set-up stays out of the peak
        code, peak = traced_peak(run, *argv)
        assert code == 0
        assert peak < bound


class TestDeterminism:
    def test_byte_identical_reruns(self, workdir):
        d = workdir
        outputs = ["requests.csv", "events.csv", "freq.csv", "hourly.csv",
                   "tables.json", "importance.json", "model.json", "scores.csv"]

        def produce(suffix):
            run("synth", "--spec", d / "spec.json",
                "--out-requests", d / f"requests{suffix}.csv",
                "--out-events", d / f"events{suffix}.csv",
                "--out-freq", d / f"freq{suffix}.csv",
                "--out-series", d / f"hourly{suffix}.csv")
            run("build-tables", "--schema", d / "schema.json",
                "--input", d / f"requests{suffix}.csv",
                "--out", d / f"tables{suffix}.json")
            run("rank", "--tables", d / f"tables{suffix}.json",
                "--out", d / f"importance{suffix}.json")
            run("train", "--tables", d / f"tables{suffix}.json",
                "--importance", d / f"importance{suffix}.json",
                "--out", d / f"model{suffix}.json")
            run("score", "--model", d / f"model{suffix}.json",
                "--input", d / f"requests{suffix}.csv",
                "--out", d / f"scores{suffix}.csv")

        produce("_a")
        produce("_b")
        for name in outputs:
            stem, ext = name.rsplit(".", 1)
            a = (d / f"{stem}_a.{ext}").read_bytes()
            b = (d / f"{stem}_b.{ext}").read_bytes()
            assert a == b, f"{name} differs between runs"

    @pytest.mark.parametrize("seed", [5, 99])
    def test_forecast_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, seed):
        # the benchmark's hourly series at two seeds whose forecast.csv bytes
        # moved with the thread count when SSA took the trajectory's SVD
        intensity = json.loads((ROOT / "bench" / "spec.json").read_text())["visits"]["intensity"]
        (tmp_path / "spec.json").write_text(json.dumps({"intensity": intensity}))
        assert run("synth", "--spec", tmp_path / "spec.json", "--seed", seed,
                   "--out-series", tmp_path / "hourly.csv") == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"forecast{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "adlift.cli", "forecast",
                 "--series", str(tmp_path / "hourly.csv"), "--L", "168", "--r", "auto",
                 "--horizon", "168", "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                     "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_forecast_takes_no_svd(self, workdir, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", svd)
        assert run("synth", "--spec", workdir / "spec.json",
                   "--out-series", workdir / "hourly.csv") == 0
        assert run("forecast", "--series", workdir / "hourly.csv",
                   "--out", workdir / "forecast.csv") == 0

    @staticmethod
    def bench_forecast(d):
        """synth's hourly series of the benchmark at its seed, then forecast
        and alarm with the benchmark's arguments."""
        spec = json.loads((ROOT / "bench" / "spec.json").read_text())
        visits = spec["visits"]
        (d / "spec.json").write_text(json.dumps({"intensity": visits["intensity"]}))
        stages = [
            ("synth", "--spec", d / "spec.json", "--seed", spec["bench_seed"],
             "--out-series", d / "hourly.csv"),
            ("forecast", "--series", d / "hourly.csv", "--L", visits["forecast_L"],
             "--r", "auto", "--horizon", visits["forecast_horizon"],
             "--out", d / "forecast.csv"),
            ("alarm", "--series", d / "hourly.csv", "--forecast", d / "forecast.csv",
             "--out", d / "alarm.json"),
        ]
        for argv in stages:
            assert run(*argv) == 0, argv[0]

    def test_forecast_takes_no_root_solve(self, tmp_path, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("characteristic roots solved")

        monkeypatch.setattr(np, "roots", solve)
        monkeypatch.setattr(np.linalg, "eigvals", solve)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.bench_forecast(tmp_path)
        assert [str(w.message) for w in caught] == []

    def test_bench_forecast_bytes_are_reproduced(self, tmp_path):
        self.bench_forecast(tmp_path)
        recorded = json.loads((ROOT / "bench" / "digests.json").read_text())["visits"]
        for name in ("hourly.csv", "forecast.csv", "alarm.json"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == recorded[name], name


class TestExitCodes:
    def test_numerical_failure_exit_three(self, workdir, rng):
        d = workdir
        # Poisson counts: NBD fit must fail as DegenerateData -> exit 3
        counts = rng.poisson(2.0, 50_000)
        counts = counts[counts > 0]
        hist = np.bincount(counts)
        lines = ["n,count"] + [f"{n},{c}" for n, c in enumerate(hist) if n >= 1 and c]
        (d / "freq.csv").write_text("\n".join(lines) + "\n")
        assert run("fit-nbd", "--freq", d / "freq.csv",
                   "--out", d / "nbd.json") == 3

    def test_bad_label_exit_two(self, workdir):
        d = workdir
        (d / "bad.csv").write_text("browser,os,label\nchrome,win,7\n")
        assert run("build-tables", "--schema", d / "schema.json",
                   "--input", d / "bad.csv", "--out", d / "t.json") == 2

    def test_event_outside_window_exit_two(self, workdir):
        d = workdir
        (d / "events.csv").write_text("cookie_id,browser,timestamp\nc,chrome,50\n")
        assert run("survival", "--events", d / "events.csv",
                   "--window", "0:40", "--out", d / "s.csv") == 2

    def test_short_row_in_heldout_is_data_error(self, workdir, capsys):
        d = workdir
        model = _train_small_model(d)
        for text in ("browser,os,label\nchrome,win,1\nchrome\n",
                     "browser,os,label\nchrome,win,1\n\nsafari,mac,0\n"):
            (d / "short.csv").write_text(text)
            capsys.readouterr()
            assert run("score", "--model", model, "--input", d / "short.csv",
                       "--out", d / "s.csv") == 2
            assert run("pace", "--model", model, "--input", d / "short.csv",
                       "--target", "1", "--out", d / "p.csv") == 2
            assert capsys.readouterr().err.count("line 3") == 2

    @pytest.mark.parametrize("argv, code, message", [
        *[(["train", "--beta", beta], 2, "beta must be positive and finite")
          for beta in ("nan", "inf", "0", "-1")],
        *[(["train", "--epsilon", eps], 2, "epsilon must be non-negative")
          for eps in ("-1", "nan")],
        *[(["rank", "--method", "renyi", "--alpha", alpha], 2,
           "alpha must be positive and finite") for alpha in ("nan", "inf")],
        (["alarm", "--c", "nan"], 2, "sigma_multiplier must be positive"),
        (["forecast", "--r", "x"], 1, "rank must be 'auto' or an integer"),
        *[(["pace", "--threshold", t], 2, "threshold must lie in [0, 1]")
          for t in ("nan", "2", "-0.5")],
        (["pace", "--target", "-1"], 2, "target_total must be non-negative"),
        (["pace", "--horizon", "-5"], 2, "horizon_requests must be non-negative"),
        *[(["pace", "--gamma", g], 2, "gamma must be non-negative and finite")
          for g in ("nan", "-1", "inf")],
        *[(["survival", f"--guard-days={g}"], 2, "guard_days must be non-negative")
          for g in ("nan", "-1", "-inf")],
        # a negative float literal as a separate argument is a value too
        *[(["survival", "--guard-days", g], 2, "guard_days must be non-negative")
          for g in ("-inf", "-nan", "-Infinity", "-1e5")],
        *[(["pace", *gamma], 2, "gamma must be non-negative and finite")
          for gamma in (["--gamma", "-inf"], ["--gamma=-inf"], ["--gamma", "-nan"])],
        # 2 * 1e308 overflows, and 20 + 1e-20 rounds to 20 (chrome: 20 of 20)
        *[(["train", f"--beta={beta}"], 2, "rounds a smoothed rate to 0 or 1")
          for beta in ("1e308", "1e-20")],
        *[(["alarm", f"--R={r}"], 2, "residual_window must lie in [10, 1000000]")
          for r in ("99999999999999999999", "1000001", "9")],
        *[(["forecast", f"--horizon={h}"], 2, "horizon must lie in [0, 1000000]")
          for h in ("99999999999999999999", "1000001", "-1")],
        # expm1 overflowed at a large order, and a block's rate ratio to the
        # power gamma, or a window bound converted to float
        (["rank", "--method", "renyi", "--alpha=1e308"], 2, "at most 16"),
        (["pace", "--gamma=17", "--block=1"], 2, "at most 16"),
        (["pace", f"--horizon={2**63}", "--block=1"], 2, "below 2**63"),
        (["survival", f"--window=0:{10**400}"], 2, "window bounds must lie in int64"),
    ])
    def test_bad_numeric_flag_keeps_the_exit_code(self, workdir, capsys, argv, code,
                                                  message):
        d = workdir
        (d / "requests.csv").write_text(
            "browser,os,label\n" + "chrome,win,1\nsafari,mac,0\nff,win,0\n" * 20)
        run("build-tables", "--schema", d / "schema.json",
            "--input", d / "requests.csv", "--out", d / "tables.json")
        run("rank", "--tables", d / "tables.json", "--out", d / "importance.json")
        run("train", "--tables", d / "tables.json", "--importance", d / "importance.json",
            "--out", d / "model.json")
        (d / "hourly.csv").write_text(
            "hour,count\n" + "".join(f"{h},{10 + h % 3}\n" for h in range(48)))
        (d / "forecast.csv").write_text(
            "hour,actual,forecast\n" + "".join(f"{h},,11.0\n" for h in range(48)))
        (d / "events.csv").write_text("cookie_id,browser,timestamp\nc,chrome,50\n")
        inputs = {"train": ["--tables", d / "tables.json",
                            "--importance", d / "importance.json"],
                  "rank": ["--tables", d / "tables.json"],
                  "alarm": ["--series", d / "hourly.csv", "--forecast", d / "forecast.csv"],
                  "forecast": ["--series", d / "hourly.csv"],
                  "pace": ["--model", d / "model.json", "--input", d / "requests.csv",
                           "--target", "10"],
                  "survival": ["--events", d / "events.csv", "--window", "0:100"]}
        capsys.readouterr()
        command, *flags = argv
        assert run(command, *inputs[command], *flags, "--out", d / "out") == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (d / "out").exists()

    @pytest.mark.parametrize("importance, message", [
        ((math.inf, 1.0), "importances must be finite and non-negative"),
        ((math.nan, 1.0), "importances must be finite and non-negative"),
        ((-1.0, 1.0), "importances must be finite and non-negative"),
        ((1e308, 1e308), "active importances sum to inf"),
    ])
    def test_bad_model_importance_is_data_error(self, workdir, capsys, importance,
                                                message):
        # a model file with a valid checksum line: the check is the model's own
        d = workdir
        model = _train_small_model(d)
        doc = json.loads(model.read_text().splitlines()[0])
        for factor, value in zip(doc["factors"], importance):
            factor["importance"] = value
        body = json.dumps(doc)
        model.write_text(f"{body}\nsha256:{hashlib.sha256(body.encode()).hexdigest()}\n")
        capsys.readouterr()
        assert run("score", "--model", model, "--input", d / "requests.csv",
                   "--out", d / "scores.csv") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (d / "scores.csv").exists()

    @pytest.mark.parametrize("importance", [(math.inf, 1.0), (1e308, 1e308),
                                            (math.nan, -3.0), (1.0, -3.0), (math.nan, 0.5)])
    def test_bad_importance_file_is_data_error(self, workdir, capsys, importance):
        d = workdir
        _train_small_model(d)
        doc = json.loads((d / "importance.json").read_text())
        for entry, value in zip(doc["entries"], importance):
            entry["value"] = value
        (d / "importance.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--tables", d / "tables.json", "--importance",
                   d / "importance.json", "--out", d / "model2.json") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (d / "model2.json").exists()
        # a NaN, infinite or negative importance is named by its factor
        bad = [name for name, value in zip(SCHEMA["factors"], importance)
               if not 0 <= value < math.inf]
        if bad:
            assert ("importances must be finite and non-negative: "
                    f"factor {bad[0]!r}") in err

    def test_pace_block_below_one_closes_every_block(self, workdir):
        d = workdir
        model = _train_small_model(d)
        reports = []
        for block in ("1", "0", "-3"):
            assert run("pace", "--model", model, "--input", d / "requests.csv",
                       "--target", "5", "--threshold", "0.5", "--block", block,
                       "--out", d / "decisions.csv") == 0
            reports.append((d / "decisions.csv").read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]


class TestLoaderErrors:
    @pytest.mark.parametrize("text, line", [
        ("n,count\n1,100\n2\n", 3),          # short row
        ("n,count\nx,100\n", 2),              # non-numeric cell
        ("n,count\n1,100\n\n2,40,7\n", 4),    # long row after a blank line
        ("n,count\n1,100\n2,40\n1,5\n", 4),   # repeated n
        # n above MAX_VISITS: past 2^53 a float lookup missed it, and 10^10
        # asked the goodness of fit for a 74.5 GiB pmf
        ("n,count\n1,100\n1000001,5\n", 3),
        ("n,count\n1,100\n10000000000,5\n", 3),
        ("n,count\n1,100\n2,40\n9007199254740993,5\n", 4),
        ("n,count\n1,9223372036854775808\n", 2),   # count past int64
    ])
    def test_bad_freq_row_is_data_error(self, workdir, capsys, text, line):
        (workdir / "freq.csv").write_text(text)
        assert run("fit-nbd", "--freq", workdir / "freq.csv",
                   "--out", workdir / "nbd.json") == 2
        assert f"freq.csv: line {line}:" in capsys.readouterr().err
        assert not (workdir / "nbd.json").exists()

    def test_count_past_int64_is_data_error_in_adjust_churn(self, workdir, capsys):
        (workdir / "freq.csv").write_text(f"n,count\n1,60\n2,{10**400}\n3,12\n")
        (workdir / "survival.csv").write_text(
            "browser,tau_days,deaths,censored\nchrome,6,10,2\n")
        assert run("adjust-churn", "--freq", workdir / "freq.csv",
                   "--survival", workdir / "survival.csv", "--window-hours", "720",
                   "--out", workdir / "adjusted.json") == 2
        assert "freq.csv: line 3: n must be at most" in capsys.readouterr().err
        assert not (workdir / "adjusted.json").exists()

    def test_bad_survival_row_is_data_error(self, workdir, capsys):
        (workdir / "freq.csv").write_text("n,count\n1,100\n2,40\n")
        for bad_row, message in (("safari,x,50,5", "tau_days must be float"),
                                 ("chrome,7.0,50,5", "browser 'chrome' repeats line 2"),
                                 ("safari,0,50,5", "tau_days must be positive"),
                                 ("safari,-5,50,5", "tau_days must be positive"),
                                 ("safari,nan,50,5", "tau_days must be finite"),
                                 ("safari,9.5,-1,5", "deaths and censored must be "
                                                     "non-negative")):
            (workdir / "survival.csv").write_text(
                f"browser,tau_days,deaths,censored\nchrome,6.0,100,10\n{bad_row}\n")
            assert run("adjust-churn", "--freq", workdir / "freq.csv",
                       "--survival", workdir / "survival.csv", "--window-hours", "720",
                       "--out", workdir / "adjusted.json") == 2
            assert f"survival.csv: line 3: {message}" in capsys.readouterr().err

    CHURN_FREQ = "n,count\n1,60\n2,25\n3,12\n4,6\n5,3\n7,1\n"

    @pytest.mark.parametrize("survival, flags, code, message", [
        ("chrome,6,0,0\nsafari,9,0,0", [], 2, "no cookies (deaths + censored)"),
        ("chrome,6,10,2", ["--window-hours=-5"], 2, "window must be finite and positive"),
        ("chrome,6,10,2", ["--window-hours=inf"], 2, "window must be finite and positive"),
        ("chrome,6,10,2", ["--mix", "chrome:nan"], 2, "browser mix must be finite"),
        ("chrome,6,10,2", ["--mix", "chrome:abc"], 1, "usage:"),
        ("chrome,6,10,2", ["--mix", "chrome"], 1, "usage:"),
        ("chrome,1e-300,10,2", [], None, ""),
        ("chrome,6,10,2", [], 3, "is in the Poisson regime"),
    ])
    def test_churn_inputs_keep_the_exit_codes(self, workdir, capsys, survival, flags,
                                              code, message):
        (workdir / "freq.csv").write_text(self.CHURN_FREQ)
        (workdir / "survival.csv").write_text(
            f"browser,tau_days,deaths,censored\n{survival}\n")
        exit_code = run("adjust-churn", "--freq", workdir / "freq.csv",
                        "--survival", workdir / "survival.csv", "--window-hours=720",
                        *flags, "--out", workdir / "adjusted.json")
        assert exit_code == code if code is not None else exit_code in (0, 3)
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if exit_code == 0:
            doc = (workdir / "adjusted.json").read_text()
            assert "NaN" not in doc and "Infinity" not in doc

    def test_fit_at_the_log_series_boundary_is_degenerate(self, workdir, capsys):
        # a churned 20k-user table plus one outlying count drags the fit to
        # k = 3e-18, where 1 - P(0) rounds to 0 and the goodness of fit is NaN
        counts = {1: 18094, 2: 5916, 3: 2380, 4: 1072, 5: 577, 6: 297, 7: 157, 8: 117,
                  9: 57, 10: 40, 11: 22, 12: 13, 13: 12, 14: 4, 16: 1, 17: 3, 19: 1,
                  20: 3, 21: 2, 22: 1, 1_000_000: 1}
        (workdir / "freq.csv").write_text(
            "n,count\n" + "".join(f"{n},{c}\n" for n, c in counts.items()))
        assert run("fit-nbd", "--freq", workdir / "freq.csv",
                   "--out", workdir / "nbd.json") == 3
        assert "at the log-series boundary" in capsys.readouterr().err
        assert not (workdir / "nbd.json").exists()

    @pytest.mark.parametrize("name, argv", [
        ("requests.csv", ("build-tables", "--schema", "{d}/schema.json",
                          "--input", "{bad}", "--out", "{d}/t.json")),
        ("survival.csv", ("adjust-churn", "--freq", "{d}/freq.csv", "--survival", "{bad}",
                          "--window-hours", "720", "--out", "{d}/a.json")),
        ("events.csv", ("survival", "--events", "{bad}", "--window", "0:3600",
                        "--out", "{d}/s.csv")),
    ])
    def test_cell_over_the_csv_field_limit_is_data_error(self, workdir, capsys, name,
                                                         argv):
        header = {"requests.csv": "browser,os,label\nchrome,win,1\n",
                  "survival.csv": "browser,tau_days,deaths,censored\nchrome,6,10,2\n",
                  "events.csv": "cookie_id,browser,timestamp\nc,win,1\n"}
        bad = workdir / name
        bad.write_text(header[name] + "x" * 200_000 + ",win,0\n")
        (workdir / "freq.csv").write_text(self.CHURN_FREQ)
        assert dispatch([a.format(bad=bad, d=workdir) for a in argv]) == 2
        assert f"{bad}: line 3: field larger than field limit" in capsys.readouterr().err

    TABLES = {"version": 1, "total": 4,
              "factors": [{"name": "browser", "levels": ["chrome", "safari"],
                           "counts": [[1, 2], [1, 0]]},
                          {"name": "os", "levels": ["win"], "counts": [[2, 2]]}]}

    @pytest.mark.parametrize("text, message", [
        ("not json", "not a JSON document"),
        ('{"version": 1, "total": 0}', "missing key 'factors'"),
        ('[1, 2]', "expected a JSON object, got list"),
        ('{"version": 1, "factors": []}', "missing key 'total'"),
        ('{"version": 1, "total": 4, "factors": [{"levels": [], "counts": []}]}',
         "missing key 'name'"),
        ('{"version": 1, "total": 4, "factors": [{"name": "b", "counts": []}]}',
         "missing key 'levels'"),
        ('{"version": 1, "total": 4, "factors": [{"name": "b", "levels": []}]}',
         "missing key 'counts'"),
        ('{"version": 1, "total": 4, "factors": [7]}', "'int' object is not subscriptable"),
        ('{"version": 1, "total": 1.5, "factors": [{"name": "b", "levels": ["x"], '
         '"counts": [[0.5, 1]]}]}', "total and counts must be integers, got 1.5"),
        ('{"version": 1, "total": 1, "factors": [{"name": "b", "levels": ["x"], '
         '"counts": [[0.5, 1]]}]}', "total and counts must be integers, got 0.5"),
        ('{"version": 1, "total": 2, "factors": [{"name": "b", "levels": ["x"], '
         '"counts": [[true, 1]]}]}', "total and counts must be integers, got True"),
    ])
    def test_bad_tables_file_is_data_error(self, workdir, capsys, text, message):
        (workdir / "tables.json").write_text(text)
        assert run("rank", "--tables", workdir / "tables.json",
                   "--out", workdir / "importance.json") == 2
        assert f"tables.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("not json", "not a JSON document"),
        ('{"method": "shannon"}', "missing key 'entries'"),
        ('{"method": "shannon", "entries": [{"value": 0.1}]}', "missing key 'index'"),
        ('{"method": "shannon", "entries": [{"index": 5, "value": 0.1}, '
         '{"index": 5, "value": 0.2}]}', "entry indices must be 0..1, each once"),
        ('{"method": "shannon", "entries": [{"index": 0, "value": 0.1}, '
         '{"index": 2, "value": 0.2}]}', "entry indices must be 0..1, each once"),
        # equal to 0 and 1 by value, but not integers
        ('{"method": "shannon", "entries": [{"index": false, "value": 0.1}, '
         '{"index": 1, "value": 0.2}]}', "entry indices must be 0..1, each once"),
        ('{"method": "shannon", "entries": [{"index": 0, "value": 0.1}, '
         '{"index": 1.0, "value": 0.2}]}', "entry indices must be 0..1, each once"),
    ])
    def test_bad_importance_file_is_data_error(self, workdir, capsys, text, message):
        (workdir / "tables.json").write_text(json.dumps(self.TABLES))
        (workdir / "importance.json").write_text(text)
        assert run("train", "--tables", workdir / "tables.json",
                   "--importance", workdir / "importance.json",
                   "--out", workdir / "model.json") == 2
        assert f"importance.json: {message}" in capsys.readouterr().err
        assert not (workdir / "model.json").exists()

    # one argv per loader; {bad} is the file under test, the rest are valid
    NON_UTF8 = {
        "freq": ("fit-nbd", "--freq", "{bad}", "--out", "{d}/nbd.json"),
        "model": ("score", "--model", "{bad}", "--input", "{d}/requests.csv",
                  "--out", "{d}/s.csv"),
        "input": ("score", "--model", "{d}/model.json", "--input", "{bad}",
                  "--out", "{d}/s.csv"),
        "schema": ("build-tables", "--schema", "{bad}", "--input", "{d}/requests.csv",
                   "--out", "{d}/t.json"),
        "events": ("survival", "--events", "{bad}", "--window", "0:3600",
                   "--out", "{d}/s.csv"),
    }

    @pytest.mark.parametrize("loader", sorted(NON_UTF8))
    def test_non_utf8_file_is_data_error(self, workdir, capsys, loader):
        d = workdir
        _train_small_model(d)
        valid = {"freq": "n,count\n1,100\n", "model": (d / "model.json").read_text(),
                 "input": "browser,os,label\nchrome,win,1\n",
                 "schema": json.dumps(SCHEMA),
                 "events": "cookie_id,browser,timestamp\nc,chrome,5\n"}[loader]
        # a Latin-1 byte deep in the file, after the first read buffer
        bad = d / "bad.txt"
        bad.write_bytes(valid.encode() + b" " * 70_000 + "caf\xe9\n".encode("latin-1"))
        argv = [a.format(bad=bad, d=d) for a in self.NON_UTF8[loader]]
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    MODEL_BODY = {"version": 1, "epsilon": 0.01, "beta": 0.5, "global_rate": 0.1,
                  "fingerprint": "x", "method": "shannon", "alpha": None,
                  "factors": [{"name": "browser", "importance": 0.5,
                               "levels": {"chrome": 0.2}}]}

    @pytest.mark.parametrize("flag, doc, message", [
        ("schema", "{", "schema.json: not a JSON document"),
        ("schema", '{"version": 1, "label": "label"}', "schema.json: missing key 'factors'"),
        ("model", {k: v for k, v in MODEL_BODY.items() if k != "factors"},
         "model.json: missing key 'factors'"),
        ("model", {**MODEL_BODY, "factors": [{"name": "browser", "importance": 0.5,
                                              "levels": {"chrome": 2.0}}]},
         "model.json: smoothed rates must lie strictly inside (0, 1)"),
        ("model", {**MODEL_BODY, "factors": [{"name": "browser", "importance": 0.5,
                                              "levels": ["chrome"]}]},
         "model.json: 'list' object has no attribute 'keys'"),
        ("model", MODEL_BODY, "model.json: fingerprint does not match the model's levels"),
        ("spec", "[1]", "spec.json: expected a JSON object, got list"),
        ("spec", '{"churn": {"tau_days": [1], "mix": {}}}',
         "spec.json: 'list' object has no attribute 'items'"),
    ])
    def test_malformed_json_is_data_error(self, workdir, capsys, flag, doc, message):
        d = workdir
        (d / "requests.csv").write_text("browser,os,label\nchrome,win,1\n")
        if isinstance(doc, dict):
            body = json.dumps(doc)
            doc = f"{body}\nsha256:{hashlib.sha256(body.encode()).hexdigest()}\n"
        (d / f"{flag}.json").write_text(doc)
        argv = {"schema": ("build-tables", "--schema", d / "schema.json",
                           "--input", d / "requests.csv", "--out", d / "t.json"),
                "model": ("score", "--model", d / "model.json",
                          "--input", d / "requests.csv", "--out", d / "s.csv"),
                "spec": ("synth", "--spec", d / "spec.json", "--out-freq", d / "f.csv")}
        assert run(*argv[flag]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"seed": -1, "intensity": {"n_hours": 3, "base": 1.0}},
         "seed must be non-negative, got -1"),
        ({"seed": float("inf")}, "spec.json: cannot convert float infinity to integer"),
        ({"intensity": {"n_hours": 3, "base": float("nan")}},
         "intensity base and trend must be finite"),
        ({"population": {"k": float("nan"), "m": 1, "users": 3, "window_hours": 5}},
         "k and m must be positive"),
        ({"requests": {"n": 3, "base_rate": 0.1, "factors": [
            {"name": "a", "levels": ["x", "y"], "probs": [float("nan"), 0.5],
             "effects": [0, 0]}]}},
         "probs must be non-negative and sum to 1"),
        ({"requests": {"n": 3, "base_rate": 0.1, "factors": [
            {"name": "a", "levels": ["x", "x"], "probs": [0.5, 0.5],
             "effects": [0, 0]}]}}, "duplicate levels"),
        ({"requests": {"n": 3, "base_rate": 0.1, "factors": [
            {"name": "label", "levels": ["x"], "probs": [1.0], "effects": [0]}]}},
         "factor names must be distinct"),
    ])
    def test_bad_synth_spec_is_data_error(self, workdir, capsys, spec, message):
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run("synth", "--spec", workdir / "spec.json", "--out-series",
                   workdir / "h.csv", "--out-requests", workdir / "r.csv") == 2
        assert message in capsys.readouterr().err

    # an integer past the bound is in tests/test_synth.py: through dispatch it
    # would generate that many rows if the bound were missing
    @pytest.mark.parametrize("value", [1e300, 2.5, 1e10, True, "5"])
    @pytest.mark.parametrize("section, key, flag", [("requests", "n", "--out-requests"),
                                                    ("population", "users", "--out-freq"),
                                                    ("intensity", "n_hours", "--out-series")])
    def test_synth_sizes_are_bounded_integers(self, workdir, capsys, value, section, key,
                                              flag):
        spec = json.loads(json.dumps(SYNTH_SPEC))
        spec[section][key] = value
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run("synth", "--spec", workdir / "spec.json", flag, workdir / "out.csv") == 2
        # hours are bounded by the longest series that forecast and virtualize read
        bound = 1_000_000 if key == "n_hours" else 1_000_000_000
        assert (f"{key} must be an integer no larger than {bound}, got {value!r}"
                in capsys.readouterr().err)
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize("section, key, value, flag, message", [
        ("intensity", "base", 1e20, "--out-series", "draws more than 1000000000 events"),
        ("intensity", "base", 9007199254740993, "--out-series",
         "draws more than 1000000000 events"),
        # more hours than forecast and virtualize read back
        ("intensity", "n_hours", 1_000_001, "--out-series",
         "n_hours must be an integer no larger than 1000000, got 1000001"),
        ("population", "m", 1e20, "--out-events", "more than 1000000000"),
        ("population", "m", 9007199254740993, "--out-events", "more than 1000000000"),
        ("population", "window_hours", 1e20, "--out-events",
         "window_hours must be below 2^63 seconds, got 1e+20"),
        # a Poisson mean past numpy's limit, and int64-wrapped segment ids
        ("churn", "tau_days", {"chrome": 1e-300, "safari": 10.0}, "--out-events",
         "expects more than 1000000000 deaths per user"),
        ("churn", "tau_days", {"chrome": 1e-15, "safari": 10.0}, "--out-events",
         "expects more than 1000000000 deaths per user"),
    ])
    def test_synth_magnitudes_are_bounded(self, workdir, capsys, section, key, value,
                                          flag, message):
        spec = json.loads(json.dumps(SYNTH_SPEC))
        spec[section][key] = value
        (workdir / "spec.json").write_text(json.dumps(spec))
        assert run("synth", "--spec", workdir / "spec.json", flag, workdir / "out.csv") == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "out.csv").exists()

    @pytest.mark.parametrize("start, code", [(2**63 - 100, 0), (2**63 - 10, 2),
                                             (10**30, 2)])
    def test_forecast_hours_stay_in_int64(self, workdir, capsys, start, code):
        (workdir / "hourly.csv").write_text("hour,count\n" + "".join(
            f"{start + h},{5 + (h * 7) % 4}\n" for h in range(40)))
        assert run("forecast", "--series", workdir / "hourly.csv", "--L", "12",
                   "--horizon", "6", "--out", workdir / "forecast.csv") == code
        if code:
            assert (f"forecast hours {start} to {start + 45} fall outside int64"
                    in capsys.readouterr().err)
            assert not (workdir / "forecast.csv").exists()
        else:
            lines = (workdir / "forecast.csv").read_text().splitlines()
            assert [int(line.split(",")[0]) for line in lines[1:]] == [
                start + h for h in range(46)]

    @pytest.mark.parametrize("text, message", [
        ("hour,count\n0,1\n1,nan\n", "line 3: count must be finite, got nan"),
        ("hour,count\n0,1\n1,-inf\n", "line 3: count must be finite, got -inf"),
        ("hour,count\n5,1\n1000005,2\n", "hours 5 to 1000005 span more than 1000000"),
    ])
    def test_bad_series_values_are_data_errors(self, workdir, capsys, text, message):
        (workdir / "hourly.csv").write_text(text)
        assert run("forecast", "--series", workdir / "hourly.csv",
                   "--out", workdir / "forecast.csv") == 2
        assert f"hourly.csv: {message}" in capsys.readouterr().err

    def test_levels_and_counts_of_different_length(self, workdir, capsys):
        (workdir / "tables.json").write_text(json.dumps(
            {"version": 1, "total": 4,
             "factors": [{"name": "b", "levels": ["x"], "counts": [[1, 2], [1, 0]]}]}))
        assert run("rank", "--tables", workdir / "tables.json",
                   "--out", workdir / "importance.json") == 2
        assert ("tables.json: factor 'b' has 1 levels but 2 rows of counts"
                in capsys.readouterr().err)

    def test_series_loaders(self, workdir, capsys):
        d = workdir
        (d / "hourly.csv").write_text("hour,count\n0,1\n\n2,5\n")
        start, values = _load_series(d / "hourly.csv")
        assert (start, values.tolist()) == (0, [1.0, 0.0, 5.0])
        for text, line in (("hour,count\n0,1\n0,5\n", 3),   # repeated hour
                           ("hour,count\n0,1\n1\n", 3)):
            (d / "hourly.csv").write_text(text)
            capsys.readouterr()
            assert run("forecast", "--series", d / "hourly.csv",
                       "--out", d / "forecast.csv") == 2
            assert f"hourly.csv: line {line}:" in capsys.readouterr().err
        (d / "hourly.csv").write_text(
            "hour,count\n" + "".join(f"{h},{10 + h % 3}\n" for h in range(20)))
        (d / "forecast.csv").write_text("hour,actual,forecast\n0,1,1.0\n1,,nan?\n")
        assert run("alarm", "--series", d / "hourly.csv",
                   "--forecast", d / "forecast.csv", "--out", d / "alarm.json") == 2
        assert "forecast.csv: line 3: forecast must be float" in capsys.readouterr().err


# One fault per report file: the file's text, the line the error names (None
# for a fault of the header or of the whole file) and the message after it.
# Each table covers a missing column, a short row, a long row after a blank
# row, a cell that does not convert, a non-finite float, a repeated key and
# the loader's own bounds.
SERIES_FAULTS = [
    ("hour,value\n0,1\n", None, "column 'count' or 'forecast' not found in header"),
    ("count\n1\n", None, "column 'hour' not found in header"),
    ("hour,count\n0,1\n1\n", 3, "expected 2 fields, got 1"),
    ("hour,count\n0,1\n\n2,5,7\n", 4, "expected 2 fields, got 3"),
    ("hour,count\n0,1\nx,5\n", 3, "hour must be int, got 'x'"),
    ("hour,count\n0,1\n1,1.5x\n", 3, "count must be float, got '1.5x'"),
    ("hour,count\n0,1\n1,inf\n", 3, "count must be finite, got inf"),
    ("hour,forecast\n0,1\n1,nan\n", 3, "forecast must be finite, got nan"),
    ("hour,count\n0,1\n0,5\n", 3, "hour 0 repeats line 2"),
    ("hour,count\n", None, "empty series"),
    ("hour,count\n5,1\n1000005,2\n", None,
     "hours 5 to 1000005 span more than 1000000 hours"),
]
FORECAST_FAULTS = [
    ("hour,actual\n0,1\n", None, "column 'forecast' not found in header"),
    ("hour,actual,forecast\n0,1,1.0\n1,1\n", 3, "expected 3 fields, got 2"),
    ("hour,actual,forecast\n0,1,1.0\n\n1,1,1.0,7\n", 4, "expected 3 fields, got 4"),
    ("hour,actual,forecast\n0,1,1.0\n1.5,1,1.0\n", 3, "hour must be int, got '1.5'"),
    ("hour,actual,forecast\n0,1,1.0\n1,1,-inf\n", 3, "forecast must be finite, got -inf"),
    ("hour,actual,forecast\n0,1,1.0\n1,1,1.0\n0,1,2.0\n", 4, "hour 0 repeats line 2"),
    ("hour,actual,forecast\n", None, "empty forecast"),
    ("hour,actual,forecast\n0,1,1.0\n2,1,1.0\n", None, "forecast hours must be contiguous"),
]
FREQ_FAULTS = [
    ("n,visits\n1,100\n", None, "column 'count' not found in header"),
    ("n,count\n1,100\n2\n", 3, "expected 2 fields, got 1"),
    ("n,count\n1,100\n\n2,40,7\n", 4, "expected 2 fields, got 3"),
    ("n,count\nx,100\n", 2, "n must be int, got 'x'"),
    # a quoted cell spans lines 2 and 3, so the bad row starts on line 4
    ('n,count\n1,"5\n"\nx,1\n', 4, "n must be int, got 'x'"),
    ("n,count\n1,100\n2,inf\n", 3, "count must be int, got 'inf'"),
    ("n,count\n1,100\n2,40\n1,5\n", 4, "n 1 repeats line 2"),
    ("n,count\n1,100\n1000001,5\n", 3, "n must be at most 1000000 and count below 2^63, "
                                       "got 1000001 and 5"),
    ("n,count\n1,9223372036854775808\n", 2, "n must be at most 1000000 and count below "
                                            "2^63, got 1 and 9223372036854775808"),
]
SURVIVAL_FAULTS = [
    ("browser,tau_days,deaths\nchrome,6.0,100\n", None,
     "column 'censored' not found in header"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\nsafari,9.5,4\n", 3,
     "expected 4 fields, got 3"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\n\nsafari,9.5,4,1,0\n", 4,
     "expected 4 fields, got 5"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\nsafari,9.5,four,1\n", 3,
     "deaths must be int, got 'four'"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\nsafari,inf,4,1\n", 3,
     "tau_days must be finite, got inf"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\nchrome,9.5,4,1\n", 3,
     "browser 'chrome' repeats line 2"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\nsafari,0,4,1\n", 3,
     "tau_days must be positive, got 0.0"),
    ("browser,tau_days,deaths,censored\nchrome,6.0,100,10\nsafari,9.5,4,-1\n", 3,
     "deaths and censored must be non-negative, got 4 and -1"),
]
# the subcommand that reads each file as X, with valid companion files
FAULT_COMMANDS = {
    "series": "forecast --series X --L 12 --horizon 6 --out OUT",
    "forecast": "alarm --series {d}/hourly.csv --forecast X --R 12 --out OUT",
    "freq": "fit-nbd --freq X --out OUT",
    "survival": "adjust-churn --freq {d}/freq.csv --survival X --window-hours 720 "
                "--out OUT",
}


@pytest.mark.parametrize("kind, text, line, message", [
    *(("series", *fault) for fault in SERIES_FAULTS),
    *(("forecast", *fault) for fault in FORECAST_FAULTS),
    *(("freq", *fault) for fault in FREQ_FAULTS),
    *(("survival", *fault) for fault in SURVIVAL_FAULTS),
])
def test_one_fault_in_a_report_file(workdir, capsys, kind, text, line, message):
    (workdir / "hourly.csv").write_text(
        "hour,count\n" + "".join(f"{h},{10 + h % 3}\n" for h in range(40)))
    (workdir / "freq.csv").write_text(TestLoaderErrors.CHURN_FREQ)
    bad, out = workdir / f"bad_{kind}.csv", workdir / "out"
    bad.write_text(text)
    argv = [str(bad) if a == "X" else str(out) if a == "OUT" else a.format(d=workdir)
            for a in FAULT_COMMANDS[kind].split()]
    assert dispatch(argv) == 2
    where = f"{bad}: line {line}: " if line is not None else f"{bad}: "
    assert f"{PROG}: error: {where}{message}\n" in capsys.readouterr().err
    assert not out.exists()


def _train_small_model(d):
    run("synth", "--spec", d / "spec.json", "--out-requests", d / "requests.csv")
    run("build-tables", "--schema", d / "schema.json",
        "--input", d / "requests.csv", "--out", d / "tables.json")
    run("rank", "--tables", d / "tables.json", "--out", d / "importance.json")
    assert run("train", "--tables", d / "tables.json",
               "--importance", d / "importance.json", "--out", d / "model.json") == 0
    return d / "model.json"


def _factor(name, levels, probs, effects):
    return {"name": name, "levels": levels, "probs": probs, "effects": effects}


# "" cells parse to __missing__: in browser and os they are seen at training
# (os also holds a literal "__missing__"); in site they, like s_new, are not.
GOLDEN_TRAIN = [
    _factor("browser", ["chrome", "safari", "ff", ""], [0.45, 0.3, 0.15, 0.1],
            [0.6, -0.6, 0.2, 0.0]),
    _factor("os", ["win", "mac", "__missing__", ""], [0.5, 0.3, 0.1, 0.1],
            [-0.4, 0.5, 0.0, 0.1]),
    _factor("site", ["s0", "s1", "s2", "s3"], [0.4, 0.3, 0.2, 0.1],
            [0.8, -0.8, 0.3, -0.3]),
]
GOLDEN_HELDOUT = [*GOLDEN_TRAIN[:2], _factor(
    "site", ["s0", "s1", "s2", "s3", "s_new", ""],
    [0.36, 0.27, 0.18, 0.09, 0.05, 0.05], [0.8, -0.8, 0.3, -0.3, 0.0, 0.0])]

# sha256 of the request reports, recorded before the columnar request path
GOLDEN_DIGESTS = {
    "tables.json": "7c07ebb7d6e13760482a72c58621d944939cdbea227e0fcac562e68c31869742",
    "scores.csv": "a342eb78a6dafba43d4e52d56d14633fe277c85ce90d94e148b96bb30b951ec7",
    "decisions.csv": "4cf6f51c8d5d00a0b8bb5a5192be610bcc50622d840933ffab840c55124355ee",
}


def golden_request_reports(d):
    """Run synth -> build-tables -> rank -> train -> score -> pace on the
    golden spec in ``d``; returns {report: sha256}."""
    for name, factors in (("train", GOLDEN_TRAIN), ("heldout", GOLDEN_HELDOUT)):
        (d / f"{name}_spec.json").write_text(json.dumps(
            {"requests": {"n": 20000, "base_rate": 0.1, "factors": factors}}))
    (d / "schema.json").write_text(json.dumps(
        {"version": 1, "factors": ["browser", "os", "site"], "label": "label"}))
    stages = [
        ("synth", "--spec", d / "train_spec.json", "--seed", 7,
         "--out-requests", d / "requests.csv"),
        ("synth", "--spec", d / "heldout_spec.json", "--seed", 8,
         "--out-requests", d / "heldout.csv"),
        ("build-tables", "--schema", d / "schema.json", "--input", d / "requests.csv",
         "--out", d / "tables.json"),
        ("rank", "--tables", d / "tables.json", "--out", d / "importance.json"),
        ("train", "--tables", d / "tables.json", "--importance", d / "importance.json",
         "--epsilon", "0.0001", "--out", d / "model.json"),
        ("score", "--model", d / "model.json", "--input", d / "heldout.csv",
         "--out", d / "scores.csv"),
        ("pace", "--model", d / "model.json", "--input", d / "heldout.csv",
         "--target", 2000, "--block", 500, "--out", d / "decisions.csv"),
    ]
    for argv in stages:
        assert run(*argv) == 0, argv[0]
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS}


class TestGoldenDigests:
    def test_request_reports_match_recorded_digests(self, tmp_path):
        assert golden_request_reports(tmp_path) == GOLDEN_DIGESTS


GOLDEN_VISITS_SPEC = {
    "population": {"k": 0.8, "m": 2.5, "users": 4000, "window_hours": 720},
    "churn": {"tau_days": {"chrome": 6.0, "safari": 10.0},
              "mix": {"chrome": 0.7, "safari": 0.3}},
    "intensity": {"n_hours": 720, "base": 40.0,
                  "harmonics": [{"period_hours": 24, "amplitude": 20.0}]},
}

# sha256 of the visit inputs and reports, recorded before the columnar event path
GOLDEN_VISITS_DIGESTS = {
    "events.csv": "fcd6c6274c106e4d4a625d70a9120c4fc9ac251970f8d92bc3e51f64ead05cad",
    "freq.csv": "a8c25b4add33145df43e402a4a06d0d818113a084a36231eaaefb79cd4a29c55",
    "hourly.csv": "66f7e2b93391a71214a96cf27ac8fc91bbcf8912ad2f4b98c3a45694e5e7d5b7",
    "survival.csv": "df141463f9d2770a61726ac6042ac45bea46e9513b349cdeec9a0bacfaae4f8d",
    "virtual.csv": "0be2f8d141801b5a037bb0f6bd12fe83663ef790540cab6b1dcee4f2e5e29d1a",
}


class TestGoldenVisitDigests:
    def test_visit_reports_match_recorded_digests(self, tmp_path):
        d = tmp_path
        (d / "visits_spec.json").write_text(json.dumps(GOLDEN_VISITS_SPEC))
        stages = [
            ("synth", "--spec", d / "visits_spec.json", "--seed", 11,
             "--out-events", d / "events.csv", "--out-freq", d / "freq.csv",
             "--out-series", d / "hourly.csv"),
            ("survival", "--events", d / "events.csv", "--window", "0:2592000",
             "--guard-days", "3", "--out", d / "survival.csv"),
            ("virtualize", "--series", d / "hourly.csv", "--events", d / "events.csv",
             "--out", d / "virtual.csv"),
        ]
        for argv in stages:
            assert run(*argv) == 0, argv[0]
        assert {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
                for name in GOLDEN_VISITS_DIGESTS} == GOLDEN_VISITS_DIGESTS

    def test_survival_decodes_no_cookie_id(self, tmp_path, monkeypatch):
        # a plain event file keeps its cookie ids as bytes: survival decodes
        # the two browser labels and nothing else
        d = tmp_path
        (d / "visits_spec.json").write_text(json.dumps(GOLDEN_VISITS_SPEC))
        assert run("synth", "--spec", d / "visits_spec.json", "--seed", 11,
                   "--out-events", d / "events.csv", "--out-freq", d / "freq.csv",
                   "--out-series", d / "hourly.csv") == 0
        decode = ingest._decoded

        def browsers_only(keys, errors):
            if len(keys) > 2:
                raise AssertionError(f"{len(keys)} labels decoded")
            return decode(keys, errors)

        monkeypatch.setattr(ingest, "_decoded", browsers_only)
        assert run("survival", "--events", d / "events.csv", "--window", "0:2592000",
                   "--guard-days", "3", "--out", d / "survival.csv") == 0
        assert hashlib.sha256((d / "survival.csv").read_bytes()).hexdigest() \
            == GOLDEN_VISITS_DIGESTS["survival.csv"]
