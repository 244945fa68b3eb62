"""Which adlift functions the traced run wraps, and the per-layer metric names.

The layers are the modules of ``src/adlift``: ``cli``, ``ingest``,
``features``, ``predictor``, ``repeatbuy``, ``timeseries`` and ``synth``.
In read -> parse/encode -> compute -> write terms, read/parse is ``ingest``
plus the ``cli`` loaders, compute is ``features``, ``predictor``,
``repeatbuy`` and ``timeseries``, and write is ``cli.emit_report`` and the
``ingest.write_*`` functions. A ``.s`` metric is a layer's self time in
seconds; the other names are counts or ratios. Every traced run prints every
name; a layer the workload does not use reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import WARNING_CATEGORIES

STAGES = ("synth", "build_tables", "rank", "train", "score", "pace", "fit_nbd",
          "survival", "adjust_churn", "forecast", "virtualize", "alarm")

CLI_LOADERS = ("_load_schema", "_load_tables", "_load_importance", "_load_series",
               "_load_forecast_csv", "_load_freq", "_load_survival")

BROWSERS = ("chrome", "safari")

PER_LAYER = (
    # ingest: read/parse and the input writers
    ("ingest.parse_requests.s", "s"),
    ("ingest.parse_requests.rows", "count"),
    ("ingest.build_factor_table.s", "s"),
    ("ingest.parse_cookie_events.s", "s"),
    ("ingest.parse_cookie_events.rows", "count"),
    ("ingest.write_requests_csv.s", "s"),
    ("ingest.write_events_csv.s", "s"),
    ("ingest.aggregate_hourly.s", "s"),
    ("ingest.aggregate_hourly.dropped", "count"),
    # cli: stage self time (dispatch minus every traced child), untraced
    # stage wall time, loaders, encode glue and the report writer
    *((f"cli.{stage}.self_s", "s") for stage in STAGES),
    *((f"cli.{stage}.wall_s", "s") for stage in STAGES),
    ("cli.loaders.s", "s"),
    ("cli.read_request_rows.s", "s"),
    ("cli.encoded_batch.s", "s"),
    ("cli.emit_report.s", "s"),
    ("cli.emit_report.rows", "count"),
    *((f"cli.warnings.{c}", "count") for c in (*WARNING_CATEGORIES, "other")),
    # features
    ("features.rank_factors.s", "s"),
    # predictor
    ("predictor.load_model.s", "s"),
    ("predictor.save_model.s", "s"),
    ("predictor.train.s", "s"),
    ("predictor.encode_labels.s", "s"),
    ("predictor.encode_labels.calls", "count"),
    ("predictor.score_batch.s", "s"),
    ("predictor.score_batch.rows", "count"),
    ("predictor.score_batch.errors", "count"),
    ("predictor.score_batch.fallback_ratio", "1"),
    ("predictor.score_batch.unseen_ratio", "1"),
    ("predictor.batch_iter.s", "s"),
    ("predictor.score.s", "s"),
    ("predictor.score.calls", "count"),
    ("predictor.pace.s", "s"),
    ("predictor.pace.calls", "count"),
    ("predictor.pace.shown_ratio", "1"),
    # predictor kernels timed untraced in the bidder workload
    ("predictor.decide.p50_us", "us"),
    ("predictor.decide.p99_us", "us"),
    ("predictor.decide.top_us", "us"),
    ("predictor.decide.top_pct", "%"),
    ("predictor.decide.samples", "count"),
    ("predictor.score_batch.rps_t1", "1/s"),
    ("predictor.score_batch.rps_t2", "1/s"),
    # repeatbuy
    ("repeatbuy.build_frequency_table.s", "s"),
    ("repeatbuy.estimate_survival.s", "s"),
    ("repeatbuy.estimate_survival.cookies", "count"),
    *((f"repeatbuy.estimate_survival.tau_rel_err.{b}", "1") for b in BROWSERS),
    ("repeatbuy.fit_nbd_truncated.s", "s"),
    ("repeatbuy.fit_nbd_truncated.calls", "count"),
    ("repeatbuy.fit_nbd_truncated.gof_p", "1"),
    ("repeatbuy.adjust_for_churn.s", "s"),
    ("repeatbuy.adjust_for_churn.n_evals", "count"),
    ("repeatbuy.adjust_for_churn.s_per_eval", "s"),
    ("repeatbuy.adjust_for_churn.k_rel_err", "1"),
    ("repeatbuy.adjust_for_churn.m_rel_err", "1"),
    ("repeatbuy.adjust_for_churn.true_users_rel_err", "1"),
    # timeseries
    ("timeseries.ssa_fit.s", "s"),
    ("timeseries.ssa_fit.rank", "count"),
    ("timeseries.ssa_fit.rank_reduced", "count"),
    ("timeseries.ssa_forecast.s", "s"),
    ("timeseries.build_virtual_clock.s", "s"),
    ("timeseries.virtualize.s", "s"),
    ("timeseries.check_alarm.s", "s"),
    ("timeseries.check_alarm.hours_checked", "count"),
    # synth
    ("synth.gen_requests.s", "s"),
    ("synth.gen_gamma_poisson.s", "s"),
    ("synth.apply_churn.s", "s"),
    ("synth.gen_inhomogeneous_poisson.s", "s"),
    ("synth.events_from_times.s", "s"),
    # the tracing itself
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "1"),
    ("trace.hooks_s", "s"),
)


# --- counters recorded after a wrapped call ---------------------------------


def _add(key, value):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += value(args, result)
    return hook


def _score_batch_hook(tracer, args, kwargs, result):
    model, records = args[0], args[1]
    factors = records.factors
    unseen = np.zeros(len(factors), dtype=bool)
    for i, rates in enumerate(model.rates):
        ids = factors[:, i]
        unseen |= (ids < 0) | (ids >= len(rates))
    c = tracer.counters
    c["predictor.score_batch.rows"] += len(result)
    c["predictor.score_batch.errors"] += len(result.errors)
    c["predictor.score_batch.fallback_rows"] += int((result.used_factors == 0).sum())
    c["predictor.score_batch.unseen_rows"] += int(unseen.sum())


def _fit_nbd_hook(tracer, args, kwargs, result):
    if tracer.stage == "fit_nbd" and result.gof is not None:
        tracer.counters["repeatbuy.fit_nbd_truncated.gof_p"] = result.gof.pvalue


def _ssa_fit_hook(tracer, args, kwargs, result):
    tracer.counters["timeseries.ssa_fit.rank"] = result.rank
    tracer.counters["timeseries.ssa_fit.rank_reduced"] = int(result.rank_reduced)


def _set(key, value):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] = value(result)
    return hook


def install(tracer, adlift):
    """Wrap the public functions of every adlift module that does work."""
    cli, ingest, features, predictor = (adlift.cli, adlift.ingest,
                                        adlift.features, adlift.predictor)
    repeatbuy, timeseries, synth = adlift.repeatbuy, adlift.timeseries, adlift.synth
    w = tracer.wrap
    w(ingest, "parse_requests", "ingest.parse_requests",
      hook=_add("ingest.parse_requests.rows", lambda a, r: len(r[1])))
    w(ingest, "build_factor_table", "ingest.build_factor_table")
    w(ingest, "parse_cookie_events", "ingest.parse_cookie_events",
      hook=_add("ingest.parse_cookie_events.rows", lambda a, r: len(r)))
    w(ingest, "write_requests_csv", "ingest.write_requests_csv")
    w(ingest, "write_events_csv", "ingest.write_events_csv")
    w(ingest, "aggregate_hourly", "ingest.aggregate_hourly",
      hook=_add("ingest.aggregate_hourly.dropped", lambda a, r: r[1]))

    for name in CLI_LOADERS:
        w(cli, name, "cli.loaders")
    w(cli, "_read_request_rows", "cli.read_request_rows")
    w(cli, "_encoded_batch", "cli.encoded_batch")
    w(cli, "emit_report", "cli.emit_report",
      hook=_add("cli.emit_report.rows", lambda a, r: len(a[1])))

    for owner in (features, cli):
        w(owner, "rank_factors", "features.rank_factors")

    w(predictor, "load_model", "predictor.load_model")
    w(predictor, "save_model", "predictor.save_model")
    w(predictor, "train", "predictor.train")
    w(predictor.SparseRateModel, "encode_labels", "predictor.encode_labels",
      per_row=True)
    w(predictor, "score_batch", "predictor.score_batch", hook=_score_batch_hook)
    tracer.wrap_iter(predictor.BatchScores, "__iter__", "predictor.batch_iter")
    w(predictor, "score", "predictor.score", per_row=True)
    w(predictor, "pace", "predictor.pace", per_row=True)

    w(repeatbuy, "build_frequency_table", "repeatbuy.build_frequency_table")
    w(repeatbuy, "estimate_survival", "repeatbuy.estimate_survival",
      hook=_add("repeatbuy.estimate_survival.cookies",
                lambda a, r: sum(row.deaths + row.censored for row in r.rows.values())))
    w(repeatbuy, "fit_nbd_truncated", "repeatbuy.fit_nbd_truncated", hook=_fit_nbd_hook)
    w(repeatbuy, "adjust_for_churn", "repeatbuy.adjust_for_churn",
      hook=_add("repeatbuy.adjust_for_churn.n_evals", lambda a, r: r.n_evals))

    w(timeseries, "ssa_fit", "timeseries.ssa_fit", hook=_ssa_fit_hook)
    w(timeseries, "ssa_forecast", "timeseries.ssa_forecast")
    w(timeseries, "build_virtual_clock", "timeseries.build_virtual_clock")
    w(timeseries, "virtualize", "timeseries.virtualize")
    w(timeseries, "check_alarm", "timeseries.check_alarm",
      hook=_set("timeseries.check_alarm.hours_checked", lambda r: r.hours_checked))

    for name in ("gen_requests", "gen_gamma_poisson", "apply_churn",
                 "gen_inhomogeneous_poisson", "events_from_times"):
        w(synth, name, f"synth.{name}")


def per_layer_metrics(tracer, extra):
    """{name: (value, unit)} for every per-layer metric, from the tracer's
    self times and counters plus the ``extra`` values."""
    c = tracer.counters
    values = {f"{name}.s": s for name, s in tracer.self_s.items()}
    for stage in STAGES:
        values[f"cli.{stage}.self_s"] = tracer.self_s.get(f"cli.{stage}", 0.0)
    values["predictor.encode_labels.calls"] = tracer.calls["predictor.encode_labels"]
    values["predictor.score.calls"] = tracer.calls["predictor.score"]
    values["predictor.pace.calls"] = tracer.calls["predictor.pace"]
    values["repeatbuy.fit_nbd_truncated.calls"] = tracer.calls["repeatbuy.fit_nbd_truncated"]
    evals = c["repeatbuy.adjust_for_churn.n_evals"]
    if evals:
        values["repeatbuy.adjust_for_churn.s_per_eval"] = (
            tracer.self_s["repeatbuy.adjust_for_churn"] / evals)
    rows = c["predictor.score_batch.rows"]
    if rows:
        values["predictor.score_batch.fallback_ratio"] = (
            c["predictor.score_batch.fallback_rows"] / rows)
        values["predictor.score_batch.unseen_ratio"] = (
            c["predictor.score_batch.unseen_rows"] / rows)
    values.update(c)
    values.update(extra)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
