"""Command-line pipeline: every stage is a subcommand reading and writing
plain files, so stages compose through the filesystem.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Diagnostics go to stderr; results go only to the named output files or
stdout. Reports are plot-ready CSVs with numbers at 12 significant digits,
byte-identical across runs with the same inputs.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import math
import re
import sys
from functools import cache

import numpy as np

from . import ingest, predictor, repeatbuy, synth, timeseries
from .errors import AdliftError, BadSpec, DataError, MissingColumn
from .features import ImportanceVector, rank_factors

PROG = "adlift"

COMMANDS = ("synth", "build-tables", "rank", "train", "score", "pace",
            "fit-nbd", "survival", "adjust-churn", "forecast", "virtualize",
            "alarm")


def emit_report(header, table: ingest.Columns, path) -> None:
    """Write a report: one column per header name, numbers at 12 significant
    digits, CSV quoting for strings (see ``ingest.write_columns``)."""
    ingest.write_columns(path, header, table)


def _write_json(doc, path) -> None:
    text = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with ingest.atomic_write(path) as fh:
            fh.write(text)


def _info(msg: str) -> None:
    print(f"{PROG}: {msg}", file=sys.stderr)


# --- file formats -----------------------------------------------------------


def _load_schema(path) -> ingest.Schema:
    return _read_json(path, ingest.Schema.from_doc)


def _save_tables(table: ingest.FactorTable, path) -> None:
    dictionary = table.dictionary
    doc = {
        "version": 1,
        "total": table.total,
        "factors": [
            {"name": name,
             "levels": dictionary.levels(i),
             "counts": table.counts[i].tolist()}
            for i, name in enumerate(dictionary.factor_names)],
    }
    _write_json(doc, path)


def _read_json(path, build):
    """``build`` applied to the JSON object in ``path`` (see ``ingest.load_json``)."""
    with ingest.open_text(path) as fh:
        text = fh.read()
    return ingest.load_json(path, text, build)


def _load_tables(path) -> ingest.FactorTable:
    def build(doc):
        if doc.get("version") != 1:
            raise AdliftError(f"{path}: unsupported tables version {doc.get('version')!r}")
        factors = doc["factors"]
        dictionary = ingest.FactorDictionary([f["name"] for f in factors],
                                             [f["levels"] for f in factors])
        for value in [doc["total"], *(x for f in factors for row in f["counts"]
                                      for x in row)]:
            if type(value) is not int:
                raise DataError(f"{path}: total and counts must be integers, "
                                f"got {value!r}")
        # a factor with no levels is written as "counts": [], a (0, 2) table
        counts = [np.asarray(f["counts"] if f["counts"] != [] else np.empty((0, 2)),
                             dtype=np.int64) for f in factors]
        return ingest.FactorTable(counts, doc["total"], dictionary)
    return _read_json(path, build)


def _load_importance(path) -> ImportanceVector:
    def build(doc):
        entries = sorted(doc["entries"], key=lambda e: e["index"])
        # by type too: False and 1.0 equal 0 and 1
        if [(type(e["index"]), e["index"]) for e in entries] \
                != [(int, k) for k in range(len(entries))]:
            raise DataError(f"{path}: entry indices must be 0..{len(entries) - 1}, "
                            f"each once")
        return ImportanceVector(method=doc["method"],
                                values=[e["value"] for e in entries],
                                alpha=doc.get("alpha"))
    return _read_json(path, build)


def _read_report(path, columns: dict, key: str) -> tuple[list[int], list[list]]:
    """The line on which each non-blank row of a small CSV report starts (a
    quoted cell may span lines), and one list per entry of ``columns``: a
    column name, or a tuple of names of which the first in the header is
    read, mapped to its cells' type (int, float, str).

    Raises DataError naming ``path: line N`` for a row that csv.reader cannot
    read or whose width differs from the header's, MissingColumn for a
    column the header lacks, and DataError naming the line of a cell that
    does not convert, a float that is not finite, or a ``key`` cell that
    repeats an earlier row's."""
    with ingest.open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header, rows, line = next(reader, []), [], reader.line_num + 1
            for cells in reader:  # a row starts on the line after the last one
                if cells:
                    rows.append((line, cells))
                line = reader.line_num + 1
        except csv.Error as exc:
            raise csv.Error(f"line {reader.line_num}: {exc}") from None
    for line, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{path}: line {line}: expected {len(header)} fields, "
                            f"got {len(cells)}")
    positions, picked = {name: j for j, name in enumerate(header)}, {}
    for names, convert in columns.items():
        names = (names,) if isinstance(names, str) else names
        name = next((n for n in names if n in positions), None)
        if name is None:
            raise MissingColumn(f"{path}: column {' or '.join(map(repr, names))} "
                                "not found in header")
        picked[name] = convert
    lines, values = [line for line, _ in rows], {name: [] for name in picked}
    for name, convert in picked.items():
        j, column = positions[name], values[name]
        for line, cells in rows:
            try:
                column.append(convert(cells[j]))
            except ValueError:
                raise DataError(f"{path}: line {line}: {name} must be "
                                f"{convert.__name__}, got {cells[j]!r}") from None
    for name, convert in picked.items():
        if convert is float:
            for line, value in zip(lines, values[name]):
                if not math.isfinite(value):
                    raise DataError(f"{path}: line {line}: {name} must be finite, "
                                    f"got {value!r}")
    first_line = {}
    for line, value in zip(lines, values[key]):
        if first_line.setdefault(value, line) != line:
            raise DataError(f"{path}: line {line}: {key} {value!r} repeats line "
                            f"{first_line[value]}")
    return lines, list(values.values())


def _load_series(path) -> tuple[int, np.ndarray]:
    """Read an hourly series (count or forecast column) as (start_hour, values).

    Missing hours are filled with zero so the series is contiguous.
    """
    _, (hours, values) = _read_report(path, {"hour": int, ("count", "forecast"): float},
                                      "hour")
    if not hours:
        raise AdliftError(f"{path}: empty series")
    start, end = min(hours), max(hours)
    if end - start >= timeseries.MAX_SERIES_HOURS:
        raise DataError(f"{path}: hours {start} to {end} span more than "
                        f"{timeseries.MAX_SERIES_HOURS} hours")
    series = np.zeros(end - start + 1)
    for hour, value in zip(hours, values):
        series[hour - start] = value
    return start, series


def _load_forecast_csv(path) -> tuple[int, np.ndarray]:
    _, (hours, forecast) = _read_report(path, {"hour": int, "forecast": float}, "hour")
    if not hours:
        raise AdliftError(f"{path}: empty forecast")
    start = min(hours)
    if max(hours) - start != len(hours) - 1:  # the hours are distinct
        raise AdliftError(f"{path}: forecast hours must be contiguous")
    return start, np.array([value for _, value in sorted(zip(hours, forecast))])


def _load_freq(path, window_hours: float | None) -> repeatbuy.FrequencyTable:
    lines, (ns, counts) = _read_report(path, {"n": int, "count": int}, "n")
    for line, n, count in zip(lines, ns, counts):
        if n > repeatbuy.MAX_VISITS or count >= 2**63:
            raise DataError(f"{path}: line {line}: n must be at most "
                            f"{repeatbuy.MAX_VISITS} and count below 2^63, "
                            f"got {n} and {count}")
    return repeatbuy.FrequencyTable(dict(zip(ns, counts)), window_hours)


def _load_survival(path) -> repeatbuy.SurvivalTable:
    lines, columns = _read_report(
        path, {"browser": str, "tau_days": float, "deaths": int, "censored": int},
        "browser")
    for line, _, t, d, c in zip(lines, *columns):
        if not t > 0:
            raise DataError(f"{path}: line {line}: tau_days must be positive, got {t!r}")
        if d < 0 or c < 0:
            raise DataError(f"{path}: line {line}: deaths and censored must be "
                            f"non-negative, got {d} and {c}")
    return repeatbuy.SurvivalTable(rows={
        b: repeatbuy.SurvivalRow(tau_days=t, deaths=d, censored=c)
        for b, t, d, c in zip(*columns)})


def _read_request_rows(path, factor_names) -> ingest.Rows:
    """Read the raw level labels of the given factors: one column per factor
    over the distinct rows, and each row's code (see ``ingest.read_columns``)."""
    with ingest.open_text(path) as fh:
        return ingest.read_columns(fh, factor_names)


def _encoded_batch(model: predictor.SparseRateModel,
                   path) -> tuple[ingest.Rows, ingest.RequestBatch]:
    """The rows of ``path`` and a batch of the model's ids of each distinct row."""
    rows = _read_request_rows(path, model.factor_names)
    matrix = model.dictionary.encode(rows.columns)
    return rows, ingest.RequestBatch(matrix, np.zeros(len(matrix), dtype=np.int8))


# --- subcommands ------------------------------------------------------------


def _cmd_synth(args) -> int:
    spec = _read_json(args.spec, synth.SynthSpec.from_doc)
    seed = args.seed if args.seed is not None else spec.seed
    if seed < 0:
        raise BadSpec(f"seed must be non-negative, got {seed}")
    if args.out_requests:
        if spec.requests is None:
            raise AdliftError("spec has no 'requests' section")
        dictionary, batch = synth.gen_requests(spec.requests, seed)
        ingest.write_requests_csv(args.out_requests, spec.requests.schema(),
                                  dictionary, batch)
        _info(f"wrote {len(batch)} requests to {args.out_requests}")
    events = None
    if args.out_events or args.out_freq:
        if spec.population is None or spec.churn is None:
            raise AdliftError("spec needs 'population' and 'churn' sections for events")
        sample = synth.gen_gamma_poisson(spec.population, seed + 1)
        events = synth.apply_churn(sample, spec.churn, seed + 2)
        if args.out_events:
            ingest.write_events_csv(args.out_events, events)
            _info(f"wrote {len(events)} events to {args.out_events}")
        if args.out_freq:
            freq = repeatbuy.build_frequency_table(events,
                                                   spec.population.window_hours)
            ns = sorted(freq.counts)
            emit_report(["n", "count"], ingest.Columns(ns, [freq.counts[n] for n in ns]),
                        args.out_freq)
            _info(f"wrote frequency table to {args.out_freq}")
    if args.out_series:
        if spec.intensity is None:
            raise AdliftError("spec has no 'intensity' section")
        times = synth.gen_inhomogeneous_poisson(spec.intensity, seed + 3)
        counts, _ = ingest.aggregate_hourly(
            (times * ingest.SECONDS_PER_HOUR).astype(np.int64),
            (0, spec.intensity.n_hours * ingest.SECONDS_PER_HOUR))
        emit_report(["hour", "count"], ingest.Columns(np.arange(len(counts)), counts),
                    args.out_series)
        _info(f"wrote {len(counts)} hourly counts to {args.out_series}")
    return 0


def _cmd_build_tables(args) -> int:
    schema = _load_schema(args.schema)
    with ingest.open_text(args.input) as fh:
        dictionary, batch = ingest.parse_requests(fh, schema)
    table = ingest.build_factor_table(batch, dictionary)
    _save_tables(table, args.out)
    _info(f"{table.total} records, {table.m} factors -> {args.out}")
    return 0


def _cmd_rank(args) -> int:
    table = _load_tables(args.tables)
    imp = rank_factors(table, method=args.method, alpha=args.alpha)
    rank_of = {int(f): pos + 1 for pos, f in enumerate(imp.ranking)}
    doc = {
        "method": imp.method,
        "alpha": imp.alpha,
        "entries": [{"factor": table.dictionary.factor_names[i],
                     "index": i,
                     "value": float(imp.values[i]),
                     "rank": rank_of[i]}
                    for i in range(imp.m)],
    }
    _write_json(doc, args.out)
    top = table.dictionary.factor_names[imp.ranking[0]]
    _info(f"ranked {imp.m} factors by {args.method}; strongest: {top}")
    return 0


def _cmd_train(args) -> int:
    table = _load_tables(args.tables)
    imp = _load_importance(args.importance)
    model = predictor.train(table, imp, epsilon=args.epsilon, beta=args.beta)
    predictor.save_model(model, args.out)
    active = int((model.importance > 0).sum())
    _info(f"trained model with {active}/{model.m} active factors -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    model = predictor.load_model(args.model)
    rows, batch = _encoded_batch(model, args.input)
    result = predictor.score_batch(model, batch)
    n = len(rows.codes)
    emit_report(["index", "score", "used_factors"],
                ingest.Columns(range(n), rows.coded(result.scores),
                               rows.coded(result.used_factors)), args.out)
    _info(f"scored {n} requests, {len(result)} distinct rows -> {args.out}")
    return 0


def _cmd_pace(args) -> int:
    """Pace the scored requests SCRATCH_ROWS at a time, gathering each block's
    scores from the row codes: beside them, only the decisions (bool, written
    as 0/1 through a uint8 view) and the threshold trace are full-length."""
    model = predictor.load_model(args.model)
    rows, batch = _encoded_batch(model, args.input)
    result = predictor.score_batch(model, batch)
    n = len(rows.codes)
    horizon = args.horizon if args.horizon is not None else n
    state = predictor.PacingState(target_total=args.target,
                                  horizon_requests=horizon,
                                  threshold=args.threshold,
                                  block_size=args.block, gamma=args.gamma)
    show, threshold = np.empty(n, dtype=bool), np.empty(n)
    for start in range(0, n, ingest.SCRATCH_ROWS):
        block = slice(start, start + ingest.SCRATCH_ROWS)
        show[block], threshold[block] = predictor.pace_batch(
            state, result.scores[rows.codes[block]])
    emit_report(["index", "score", "show", "threshold"],
                ingest.Columns(range(n), rows.coded(result.scores),
                               show.view(np.uint8), threshold), args.out)
    _info(f"showed {state.shown_so_far}/{args.target} over {n} requests "
          f"-> {args.out}")
    return 0


def _cmd_fit_nbd(args) -> int:
    freq = _load_freq(args.freq, args.window_hours)
    model = repeatbuy.fit_nbd_truncated(freq)
    doc = {"k": model.k, "m": model.m, "variance": model.variance,
           "fit_method": model.fit_method,
           "gof": {"chi2": model.gof.statistic, "dof": model.gof.dof,
                   "pvalue": model.gof.pvalue, "bins": model.gof.n_bins}}
    _write_json(doc, args.out)
    _info(f"k={model.k:.4g} m={model.m:.4g} "
          f"gof p={model.gof.pvalue:.3g} -> {args.out}")
    return 0


def _cmd_survival(args) -> int:
    t0, t1 = args.window
    with ingest.open_text(args.events) as fh:
        events = ingest.parse_cookie_events(fh)
    table = repeatbuy.estimate_survival(events, (t0, t1), guard_days=args.guard_days)
    browsers = sorted(table.rows)
    rows = [table.rows[b] for b in browsers]
    emit_report(["browser", "tau_days", "deaths", "censored"],
                ingest.Columns(browsers, [row.tau_days for row in rows],
                               [row.deaths for row in rows],
                               [row.censored for row in rows]), args.out)
    _info(f"estimated survival for {len(table.rows)} browsers -> {args.out}")
    return 0


def _cmd_adjust_churn(args) -> int:
    freq = _load_freq(args.freq, args.window_hours)
    survival = _load_survival(args.survival)
    mix = args.mix
    if mix is None:
        sizes = {b: row.deaths + row.censored for b, row in survival.rows.items()}
        total = sum(sizes.values())
        if not total:
            raise DataError(f"{args.survival}: no cookies (deaths + censored) to "
                            "weigh the browsers by; pass --mix")
        mix = {b: size / total for b, size in sizes.items()}
    adj = repeatbuy.adjust_for_churn(freq, survival, mix,
                                     loyalty_threshold=args.threshold)
    doc = {"k": adj.k, "m": adj.m, "true_users": adj.true_users,
           "missing_loyal": adj.missing_loyal,
           "identities_per_user": adj.identities_per_user,
           "objective": adj.objective, "n_evals": adj.n_evals,
           "loyalty_threshold": args.threshold}
    _write_json(doc, args.out)
    _info(f"adjusted k={adj.k:.4g} m={adj.m:.4g}, "
          f"missing loyal ~ {adj.missing_loyal:.0f} -> {args.out}")
    return 0


def _cmd_forecast(args) -> int:
    start, values = _load_series(args.series)
    model = timeseries.ssa_fit(values, L=args.L, r=args.r)
    future = timeseries.ssa_forecast(model, args.horizon)
    last = start + model.n + args.horizon - 1
    if not -2**63 <= start <= last < 2**63:
        raise DataError(f"{args.series}: forecast hours {start} to {last} fall "
                        "outside int64")
    emit_report(["hour", "actual", "forecast"],
                ingest.Columns(start + np.arange(model.n + args.horizon),
                               values.tolist() + [""] * args.horizon,
                               np.concatenate([model.reconstructed, future])),
                args.out)
    _info(f"SSA L={model.window} r={model.rank}; forecast {args.horizon}h "
          f"-> {args.out}")
    return 0


def _cmd_virtualize(args) -> int:
    start, values = _load_series(args.series)
    clock = timeseries.build_virtual_clock(values, start_hour=start)
    with ingest.open_text(args.events) as fh:
        events = ingest.parse_cookie_events(fh)
    virtual = timeseries.virtualize(clock, events.timestamps)
    emit_report([*ingest.EVENT_COLUMNS, "virtual"],
                ingest.Columns(*events.columns(), virtual), args.out)
    _info(f"virtualized {len(events)} events -> {args.out}")
    return 0


def _cmd_alarm(args) -> int:
    start, values = _load_series(args.series)
    fc_start, forecast = _load_forecast_csv(args.forecast)
    lo = max(start, fc_start)
    hi = min(start + len(values), fc_start + len(forecast))
    if lo >= hi:
        raise AdliftError("series and forecast hours do not overlap")
    actual = values[lo - start:hi - start]
    predicted = forecast[lo - fc_start:hi - fc_start]
    config = timeseries.AlarmConfig(sigma_multiplier=args.c,
                                    consecutive_hours=args.consecutive,
                                    residual_window=args.residual_window)
    report = timeseries.check_alarm(actual, predicted, config)
    doc = {"alarm_hour": None if report.alarm_hour is None
           else int(lo + report.alarm_hour),
           "fired": report.fired, "sigma": report.sigma,
           "hours_checked": report.hours_checked,
           "exceedances": [int(lo + t) for t in report.exceedances]}
    _write_json(doc, args.out)
    _info(f"ALARM at hour {doc['alarm_hour']}" if report.fired else "no alarm")
    return 0


# --- parser / dispatch -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a lone "-inf", "-nan" or "-1e5" for an option name;
        # read every negative float literal as a value, as "--flag=-inf" is
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _window_arg(text: str) -> tuple[int, int]:
    try:
        t0, t1 = text.split(":")
        return int(t0), int(t1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like t0:t1 in epoch seconds, got {text!r}") from None


def _rank_arg(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rank must be 'auto' or an integer, got {text!r}") from None


def _mix_arg(text: str) -> dict[str, float]:
    mix = {}
    try:
        for part in text.split(","):
            browser, weight = part.split(":")
            mix[browser.strip()] = float(weight)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mix must look like chrome:0.6,safari:0.4, got {text!r}") from None
    return mix


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as is."""
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[], help="generate seeded synthetic data")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-requests")
    p.add_argument("--out-events")
    p.add_argument("--out-freq")
    p.add_argument("--out-series")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-tables", help="parse requests into contingency tables")
    p.add_argument("--schema", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_tables)

    p = sub.add_parser("rank", help="rank factors by mutual information")
    p.add_argument("--tables", required=True)
    p.add_argument("--method", choices=["shannon", "renyi"], default="shannon")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("train", help="train the sparse rate model")
    p.add_argument("--tables", required=True)
    p.add_argument("--importance", required=True)
    p.add_argument("--epsilon", type=float, default=predictor.DEFAULT_EPSILON)
    p.add_argument("--beta", type=float, default=predictor.DEFAULT_BETA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score requests with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("pace", help="pace impressions toward a target total")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--block", type=int, default=1000)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pace)

    p = sub.add_parser("fit-nbd", help="fit a zero-truncated NBD to frequencies")
    p.add_argument("--freq", required=True)
    p.add_argument("--window-hours", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_nbd)

    p = sub.add_parser("survival", help="estimate cookie survival per browser")
    p.add_argument("--events", required=True)
    p.add_argument("--window", type=_window_arg, required=True,
                   metavar="T0:T1", help="epoch seconds, hour-aligned")
    p.add_argument("--guard-days", type=float, default=7.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_survival)

    p = sub.add_parser("adjust-churn", help="correct an NBD fit for cookie churn")
    p.add_argument("--freq", required=True)
    p.add_argument("--survival", required=True)
    p.add_argument("--window-hours", type=float, required=True)
    p.add_argument("--threshold", type=int, default=10,
                   help="loyalty threshold n0")
    p.add_argument("--mix", type=_mix_arg, default=None,
                   help="browser mix like chrome:0.6,safari:0.4 "
                        "(default: proportional to survival cookie counts)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_adjust_churn)

    p = sub.add_parser("forecast", help="SSA fit and forecast of an hourly series")
    p.add_argument("--series", required=True)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--r", type=_rank_arg, default="auto")
    p.add_argument("--horizon", type=int, default=168)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("virtualize", help="rescale event times to virtual time")
    p.add_argument("--series", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_virtualize)

    p = sub.add_parser("alarm", help="check actual vs forecast for change alarms")
    p.add_argument("--series", required=True)
    p.add_argument("--forecast", required=True)
    p.add_argument("--c", type=float, default=3.0, dest="c",
                   help="sigma multiplier")
    p.add_argument("--h", type=int, default=2, dest="consecutive",
                   help="consecutive hours")
    p.add_argument("--R", type=int, default=168, dest="residual_window",
                   help="trailing residual window")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_alarm)
    return parser


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    argv = list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        close = difflib.get_close_matches(argv[0], COMMANDS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        print(f"{PROG}: unknown subcommand {argv[0]!r}{hint}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except AdliftError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{PROG}: io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
