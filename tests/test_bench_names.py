"""The traced benchmark (``bench/layers.py``) wraps adlift functions by name
and reads their results; every wrapped name must still resolve, and every
hook must still understand what its function returns."""

import importlib
import json
from pathlib import Path

import numpy as np

import adlift
from adlift.cli import dispatch

BENCH = Path(__file__).resolve().parents[1] / "bench"

SPEC = {
    "population": {"k": 0.8, "m": 2.5, "users": 500, "window_hours": 720},
    "churn": {"tau_days": {"chrome": 6.0}, "mix": {"chrome": 1.0}},
    "intensity": {"n_hours": 720, "base": 5.0},
}


def test_layers_install_run_and_restore(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    parse = adlift.ingest.parse_cookie_events
    d = tmp_path
    (d / "spec.json").write_text(json.dumps(SPEC))
    layers.install(tracer, adlift)
    try:
        assert adlift.ingest.parse_cookie_events is not parse
        for argv in (["synth", "--spec", d / "spec.json", "--out-events", d / "events.csv",
                      "--out-freq", d / "freq.csv", "--out-series", d / "hourly.csv"],
                     ["survival", "--events", d / "events.csv", "--window", "0:2592000",
                      "--out", d / "survival.csv"],
                     ["virtualize", "--series", d / "hourly.csv",
                      "--events", d / "events.csv", "--out", d / "virtual.csv"]):
            assert dispatch([str(a) for a in argv]) == 0
        assert len(adlift.synth.events_from_times([0.5, 1.5])) == 2
    finally:
        tracer.restore()
    assert adlift.ingest.parse_cookie_events is parse
    metrics = {name: value for name, (value, _) in
               layers.per_layer_metrics(tracer, {}).items()}
    n_events = sum(1 for _ in open(d / "events.csv")) - 1
    assert metrics["ingest.parse_cookie_events.rows"] == 2 * n_events
    assert metrics["ingest.aggregate_hourly.dropped"] == 0
    assert metrics["repeatbuy.estimate_survival.cookies"] > 0
    assert metrics["cli.emit_report.rows"] > n_events
    assert tracer.calls["synth.events_from_times"] == 1


def test_layers_install_score_and_pace(monkeypatch, tmp_path):
    """The predictor hooks of the traced bench: ``score_batch``'s counters and
    the wrapped ``BatchScores.__iter__``."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    score_batch = adlift.predictor.score_batch  # unwrapped: not counted as rows
    d = tmp_path
    (d / "schema.json").write_text(
        json.dumps({"version": 1, "factors": ["browser", "os"], "label": "label"}))
    rows = ["chrome,win,1", "safari,mac,0", "ff,win,0", "chrome,,0", "opera,mac,1"] * 40
    (d / "requests.csv").write_text("browser,os,label\n" + "\n".join(rows) + "\n")
    layers.install(tracer, adlift)
    try:
        for argv in (["build-tables", "--schema", d / "schema.json",
                      "--input", d / "requests.csv", "--out", d / "tables.json"],
                     ["rank", "--tables", d / "tables.json", "--out", d / "importance.json"],
                     ["train", "--tables", d / "tables.json",
                      "--importance", d / "importance.json", "--out", d / "model.json"],
                     ["score", "--model", d / "model.json", "--input", d / "requests.csv",
                      "--out", d / "scores.csv"],
                     ["pace", "--model", d / "model.json", "--input", d / "requests.csv",
                      "--target", "50", "--out", d / "decisions.csv"]):
            assert dispatch([str(a) for a in argv]) == 0
        model = adlift.predictor.load_model(d / "model.json")
        batch = adlift.ingest.RequestBatch(
            np.random.default_rng(3).integers(-1, 5, (300, 2)), np.zeros(300, dtype=np.int8))
        result = score_batch(model, batch)
        scored = list(result)
    finally:
        tracer.restore()
    metrics = {name: value for name, (value, _) in
               layers.per_layer_metrics(tracer, {}).items()}
    # score and pace each score the 5 distinct rows once
    assert metrics["predictor.score_batch.rows"] == 2 * len(set(rows))
    assert metrics["predictor.score_batch.errors"] == 0
    assert all(type(s) is adlift.ScoredRequest for s in scored)
    assert [s.score for s in scored] == result.scores.tolist()
    assert [s.used_factors for s in scored] == result.used_factors.tolist()
    # every row stepped through the wrapper (the exhausting step counts too)
    assert tracer.calls["predictor.batch_iter"] >= len(batch)


def test_bench_calls_outside_the_tracer(monkeypatch):
    """``bench/run.py`` records ``worker_count()`` in its environment, and the
    bidder workload scores one batch at threads 1 and 2 and requires equal
    results; neither call goes through ``layers.install``."""
    monkeypatch.syspath_prepend(str(BENCH))
    env = importlib.import_module("run").environment(adlift)
    assert env["worker_count"] == adlift.predictor.worker_count()
    rng = np.random.default_rng(5)
    model = adlift.predictor.SparseRateModel(
        adlift.FactorDictionary(["f", "g"], [["a", "b", "c"], ["x", "y"]]), [0.7, 0.2],
        [[0.2, 0.5, 0.7], [0.4, 0.6]], epsilon=0.0, beta=0.5, global_rate=0.3)
    batch = adlift.ingest.RequestBatch(rng.integers(-1, 4, (1000, 2)),
                                       np.zeros(1000, dtype=np.int8))
    one = adlift.predictor.score_batch(model, batch, threads=1)
    two = adlift.predictor.score_batch(model, batch, threads=2)
    assert not one.errors and not two.errors
    assert one.scores.tobytes() == two.scores.tobytes()
    assert one.used_factors.tobytes() == two.used_factors.tobytes()


def test_bidder_workload_passes_its_checks(monkeypatch):
    """A tiny ``bidder`` set-up and pass, as ``bench/run.py`` drives them: the
    pass checks that scalar and batch scores agree bit for bit, that threads
    1 and 2 agree, and that pacing meets its target."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    spec = json.loads((BENCH / "spec.json").read_text())
    ops = workloads.Ops()
    bidder = workloads.Bidder(spec, spec["bench_seed"], 0.005, None, ops, {})
    bidder.setup()
    bidder.run_pass()
    assert bidder.batch.factors.flags.f_contiguous
    # the bidder's 8 levels per factor are held in one byte per id
    assert bidder.batch.factors.itemsize == bidder.heldout.factors.itemsize == 1
    assert ops.attempted == bidder.decisions + 3
    assert ops.failed == 0, ops.failures
