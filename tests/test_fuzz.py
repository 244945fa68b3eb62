"""Every loader, fed mutated valid files and random bytes through ``dispatch``,
exits 0, 2 or 3: no input escapes as a traceback or as the usage code 1.
Every value flag, given extreme and malformed values, exits 0-3, with 1 only
from argparse and no output file after a failure."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adlift import cli

SCHEMA = {"version": 1, "factors": ["browser", "os"], "label": "label"}
REQUESTS = ("browser,os,label\nchrome,win,1\nsafari,mac,0\nff,win,0\n"
            "chrome,mac,0\nsafari,win,1\n")
SPEC = {"seed": 3,
        "requests": {"n": 20, "base_rate": 0.2, "factors": [
            {"name": "browser", "levels": ["a", "b"], "probs": [0.5, 0.5],
             "effects": [0.1, -0.1]}]},
        "population": {"k": 0.8, "m": 2.5, "users": 30, "window_hours": 48},
        "churn": {"tau_days": {"chrome": 1.0}, "mix": {"chrome": 1.0}},
        "intensity": {"n_hours": 48, "base": 4.0,
                      "harmonics": [{"period_hours": 24, "amplitude": 2.0}]}}
SERIES = "hour,count\n" + "".join(f"{h},{5 + (h * 7) % 4}\n" for h in range(40))
VALID_TEXT = {
    "schema": json.dumps(SCHEMA),
    "requests": REQUESTS,
    "freq": "n,count\n1,60\n2,25\n3,12\n4,6\n5,3\n7,1\n",
    "survival": "browser,tau_days,deaths,censored\nchrome,6.0,10,2\nsafari,9.5,4,1\n",
    "events": "cookie_id,browser,timestamp\nc1,chrome,10\nc2,safari,3700\n"
              "c1,chrome,7300\n",
    "series": SERIES,
    "forecast": "hour,actual,forecast\n" + "".join(
        f"{h},{5 + h % 4},{5.5 + h % 3}\n" for h in range(40)),
    "spec": json.dumps(SPEC),
}

# one argv per (loader, subcommand); X is the fuzzed file, other {names} the
# valid files, OUT the output
ARGV = [
    ("schema", "build-tables --schema X --input {requests} --out OUT"),
    ("requests", "build-tables --schema {schema} --input X --out OUT"),
    ("requests", "score --model {model} --input X --out OUT"),
    ("requests", "pace --model {model} --input X --target 2 --block 2 --out OUT"),
    ("tables", "rank --tables X --out OUT"),
    ("tables", "train --tables X --importance {importance} --out OUT"),
    ("importance", "train --tables {tables} --importance X --out OUT"),
    ("model", "score --model X --input {requests} --out OUT"),
    ("freq", "fit-nbd --freq X --out OUT"),
    ("events", "survival --events X --window 0:86400 --out OUT"),
    ("events", "virtualize --series {series} --events X --out OUT"),
    ("series", "forecast --series X --L 12 --horizon 6 --out OUT"),
    ("series", "alarm --series X --forecast {forecast} --R 12 --out OUT"),
    ("series", "virtualize --series X --events {events} --out OUT"),
    ("forecast", "alarm --series {series} --forecast X --R 12 --out OUT"),
    ("spec", "synth --spec X"),
    ("survival", "adjust-churn --freq {freq} --survival X --window-hours 720 --out OUT"),
    ("freq", "adjust-churn --freq X --survival {survival} --window-hours 720 --out OUT"),
]

# bytes a mutation inserts: no digits, so that no number grows past the
# small values of the valid files; letters that spell nan and inf
NOISE = b'\x00\x80\xe9\xff \t\r\n,";:{}[]-+.eEnaifNI'

# numbers that take the place of one digit run: past int64, past 2^53, past
# float64, and each above every size cap, so that none asks for memory
LARGE = [b"99999999999999999999", b"9223372036854775808", b"9007199254740993",
         b"1" + b"0" * 400, b"1e400", b"1e308"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    files = {}
    for name, text in VALID_TEXT.items():
        files[name] = d / f"{name}.txt"
        files[name].write_text(text)
    for name in ("tables", "importance", "model"):
        files[name] = d / f"{name}.json"
    for argv in (f"build-tables --schema {files['schema']} --input {files['requests']} "
                 f"--out {files['tables']}",
                 f"rank --tables {files['tables']} --out {files['importance']}",
                 f"train --tables {files['tables']} --importance {files['importance']} "
                 f"--out {files['model']}"):
        assert cli.dispatch(argv.split()) == 0
    return files


@st.composite
def mutated(draw, valid: bytes):
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate", "line"]))
        if op == "delete":
            del data[i:draw(st.integers(i, i + 8))]
        elif op == "insert":
            data[i:i] = bytes(draw(st.lists(st.sampled_from(NOISE), min_size=1,
                                            max_size=4)))
        elif op == "replace" and i < len(data):
            data[i] = draw(st.sampled_from(NOISE))
        elif op == "truncate":
            del data[i:]
        elif op == "line":  # repeat the line holding byte i
            start = data.rfind(b"\n", 0, i) + 1
            end = data.find(b"\n", i)
            if end >= 0:
                data[start:start] = data[start:end + 1]
    return bytes(data)


@st.composite
def renumbered(draw, valid: bytes):
    """``valid`` with one maximal run of digits replaced by a LARGE number."""
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(rb"\d+", valid)]))
    return valid[:start] + draw(st.sampled_from(LARGE)) + valid[end:]


def _run(argv, valid_files, path, out):
    names = {name: str(p) for name, p in valid_files.items()}
    return cli.dispatch([a.format(**names) if "{" in a else
                         {"X": str(path), "OUT": str(out)}.get(a, a)
                         for a in argv.split()])


def fuzzed(valid: bytes):
    """Random bytes, the valid header line and random bytes, a mutation, or
    one number made large."""
    header = valid.split(b"\n", 1)[0] + b"\n"
    return st.one_of(st.binary(max_size=200),
                     st.binary(max_size=200).map(header.__add__), mutated(valid),
                     renumbered(valid))


@given(data=st.data(), target=st.sampled_from(ARGV))
@settings(max_examples=500, deadline=None)
def test_every_loader_exits_0_2_or_3(valid_files, tmp_path_factory, data, target):
    loader, argv = target
    blob = data.draw(fuzzed(valid_files[loader].read_bytes()))
    d = tmp_path_factory.mktemp("fuzz")
    (d / "x").write_bytes(blob)
    assert _run(argv, valid_files, d / "x", d / "out") in (0, 2, 3)


# one argv per (subcommand, value flag): the flag and its value come last
FLAGS = [
    ("synth --spec {spec} --out-requests OUT", "--seed"),
    ("rank --tables {tables} --out OUT", "--method"),
    ("rank --tables {tables} --method renyi --out OUT", "--alpha"),
    *(("train --tables {tables} --importance {importance} --out OUT", flag)
      for flag in ("--epsilon", "--beta")),
    ("pace --model {model} --input {requests} --out OUT", "--target"),
    # blocks of one request, so that every request moves the threshold
    *(("pace --model {model} --input {requests} --target 2 --block 1 --out OUT", flag)
      for flag in ("--horizon", "--threshold", "--block", "--gamma")),
    ("fit-nbd --freq {freq} --out OUT", "--window-hours"),
    ("survival --events {events} --out OUT", "--window"),
    ("survival --events {events} --window 0:86400 --out OUT", "--guard-days"),
    ("adjust-churn --freq {freq} --survival {survival} --out OUT", "--window-hours"),
    *(("adjust-churn --freq {freq} --survival {survival} --window-hours 720 --out OUT",
       flag) for flag in ("--threshold", "--mix")),
    *(("forecast --series {series} --out OUT", flag) for flag in ("--L", "--r", "--horizon")),
    *(("alarm --series {series} --forecast {forecast} --out OUT", flag)
      for flag in ("--c", "--h", "--R")),
]

# extreme and malformed values, and random numbers small enough that no
# accepted value asks for more than a few MB
VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "1e400",
                     "99999999999999999999", "-99999999999999999999", "1" + "0" * 400,
                     "", "x"]),
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["-inf", "-nan"]))

# the float flags whose range checks reject -inf and NaN with the data code,
# whether the value follows "=" or comes as an argument of its own
REJECTS_NEGATIVE = {("rank", "--alpha"), ("train", "--epsilon"), ("train", "--beta"),
                    ("pace", "--threshold"), ("pace", "--gamma"),
                    ("survival", "--guard-days"), ("adjust-churn", "--window-hours"),
                    ("alarm", "--c")}
GUARD_DAYS, GAMMA = (next(t for t in FLAGS if t[1] == flag)
                     for flag in ("--guard-days", "--gamma"))

# the value as it is, or inside a --window or --mix shaped value
SHAPES = ("{}", "0:{}", "{}:86400", "chrome:{}", "chrome:{},safari:0.5")


@given(target=st.sampled_from(FLAGS), value=VALUES, shape=st.sampled_from(SHAPES),
       joined=st.booleans())
@example(target=GUARD_DAYS, value="-inf", shape="{}", joined=False)
@example(target=GUARD_DAYS, value="-nan", shape="{}", joined=False)
@example(target=GAMMA, value="-inf", shape="{}", joined=False)
@example(target=GAMMA, value="-nan", shape="{}", joined=False)
@settings(max_examples=500, deadline=None)
def test_every_value_flag_keeps_the_exit_code(valid_files, tmp_path_factory, target,
                                              value, shape, joined):
    argv, flag = target
    rejected = (shape == "{}" and value in ("-inf", "-nan")
                and (argv.split()[0], flag) in REJECTS_NEGATIVE)
    value = shape.format(value)
    out = tmp_path_factory.mktemp("flag") / "out"
    names = {name: str(p) for name, p in valid_files.items()}
    args = [a.format(**names) if "{" in a else str(out) if a == "OUT" else a
            for a in argv.split()]
    args += [f"{flag}={value}"] if joined else [flag, value]
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = cli.dispatch(args)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 1:
        assert "usage:" in err, err
    if code:
        assert not out.exists(), err
    if rejected:
        assert code == 2, err
