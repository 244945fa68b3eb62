"""The benchmark workloads and their output checks.

``requests`` and ``visits`` drive the CLI stages through
``adlift.cli.dispatch`` in one process, as a closed loop of stages over
files generated in set-up; ``bidder`` drives the ``adlift.predictor``
kernels in memory. Every workload takes its inputs from the seed alone and
checks its outputs: each pass after the first must reproduce the first
pass's report digests byte for byte, and ``finish`` runs the content checks
on the latest reports once every pass is done, so that the checks'
own allocations never reach the peak RSS measured before them. Each stage,
decision or batch call is one attempted operation; a nonzero exit, a failed
check, a NaN or a raised score counts it as failed.

``setup`` and ``run_pass`` time only program work (``synth`` stages, or
generation and training; CLI stages, decisions and batch calls), so that
the benchmark's own file writes, hashing and checks stay out of the timed
figures; ``check_inputs`` hashes the inputs after the set-up. Each timed span
is returned both as wall seconds and scaled to a fixed machine speed by
``speedref.SpeedRef``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np

from adlift import cli, features, ingest, predictor, synth
from speedref import SpeedRef


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems, what, count=1, failed=None):
        """Count ``count`` operations; ``problems`` lists what went wrong."""
        self.attempted += count
        n_failed = (1 if problems else 0) if failed is None else failed
        self.failed += n_failed
        self.failures.extend(f"{what}: {p}" for p in problems)

    def fail(self, problems, what):
        """Count an operation already attempted as failed, if ``problems``."""
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)


def run_stage(stage, args, tracer=None):
    """Run one ``adlift`` subcommand; returns (exit code, wall seconds)."""
    argv = [stage.replace("_", "-"), *(str(a) for a in args)]
    if tracer is None:
        t0 = time.perf_counter()
        code = _dispatch(argv)
        return code, time.perf_counter() - t0
    with tracer.span(f"cli.{stage}", stage=stage) as span:
        code = _dispatch(argv)
    return code, span.wall_s


def _dispatch(argv):
    """Exit code of one subcommand; a traceback counts as a failed stage."""
    try:
        return cli.dispatch(argv)
    except Exception as exc:
        return f"traceback {type(exc).__name__}: {exc}"


def read_csv_columns(path):
    """Return {column: list of str} for a small-enough CSV report."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return {name: [r[j] for r in rows] for j, name in enumerate(header)}


def rel_err(estimate, truth) -> float:
    return abs(estimate - truth) / abs(truth)


class FilePipeline:
    """A workload whose stages are CLI subcommands reading and writing files."""

    name = ""
    inputs: tuple[str, ...] = ()

    def __init__(self, spec, seed, scale, workdir: Path, ops: Ops, digests):
        self.spec = spec[self.name]
        self.seed = seed
        self.scale = scale
        self.dir = workdir
        self.ops = ops
        self.recorded = digests
        self.first_digests = None
        self.last_codes: dict[str, object] = {}
        self.quality: dict[str, float] = {}
        self.clock = SpeedRef()

    def stages(self):
        """[(stage, args, output file)] in pipeline order."""
        raise NotImplementedError

    def checks(self):
        """{stage: [problems]} on the reports of the last pass."""
        raise NotImplementedError

    def input_digests(self):
        return {f: sha256(self.dir / f) for f in self.inputs}

    def check_inputs(self):
        """Compare the set-up's inputs with the digests recorded at the bench seed."""
        if self.recorded:
            self.ops.fail(self.check_recorded(self.input_digests()), "synth inputs")

    def check_recorded(self, digests):
        """Compare digests with those recorded at the bench seed, if any."""
        return [f"{f} sha256 {d[:12]} differs from the recorded {self.recorded[f][:12]}"
                for f, d in digests.items()
                if f in self.recorded and self.recorded[f] != d]

    def run_pass(self, tracer=None, skip=()):
        """Run every stage not in ``skip`` once; returns ({stage: wall s},
        {stage: scaled s}, {report: sha256})."""
        walls, scaled, codes, digests = {}, {}, {}, {}
        first = self.first_digests is None
        stages = [s for s in self.stages() if s[0] not in skip]
        self.clock.mark()
        for stage, args, out in stages:
            codes[stage], walls[stage] = run_stage(stage, args, tracer)
            scaled[stage] = self.clock.scaled(walls[stage])
            digests[out] = sha256(self.dir / out) if codes[stage] == 0 else None
        for stage, _, out in stages:
            found = []
            if codes[stage] != 0:
                found.append(f"exit code {codes[stage]}")
            elif first:
                found += self.check_recorded({out: digests[out]})
            elif digests[out] != self.first_digests[out]:
                found.append(f"{out} differs from the first pass")
            self.ops.record(found, stage)
        if first:
            self.first_digests = digests
        self.last_codes.update(codes)
        return walls, scaled, digests

    def finish(self):
        """Check the content of the latest report of every stage."""
        if any(self.last_codes.values()):
            return
        try:
            problems = self.checks()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = {stage: [f"unreadable report: {exc!r}"]
                        for stage, _, _ in self.stages()}
        for stage, found in problems.items():
            self.ops.fail(found, stage)


class Requests(FilePipeline):
    """synth -> build-tables -> rank -> train -> score -> pace on request CSVs."""

    name = "requests"
    inputs = ("requests.csv", "heldout.csv")

    def __init__(self, *args):
        super().__init__(*args)
        self.n = max(1, round(self.spec["n"] * self.scale))
        self.target = round(self.n * self.spec["pace_target_share"])
        factors = self.spec["factors"]
        self.train_spec = {"requests": {"n": self.n, "base_rate": self.spec["base_rate"],
                                        "factors": factors}}
        extra = self.spec["heldout_extra_level"]
        heldout = []
        for f in factors:
            f = dict(f)
            if f["name"] == extra["factor"]:
                keep = 1.0 - extra["share"]
                f["levels"] = [*f["levels"], extra["label"]]
                f["probs"] = [p * keep for p in f["probs"]] + [extra["share"]]
                f["effects"] = [*f["effects"], 0.0]
            heldout.append(f)
        self.heldout_spec = {"requests": {**self.train_spec["requests"],
                                          "factors": heldout}}
        self.names = [f["name"] for f in factors]

    def setup(self, tracer=None):
        d = self.dir
        (d / "train_spec.json").write_text(json.dumps(self.train_spec))
        (d / "heldout_spec.json").write_text(json.dumps(self.heldout_spec))
        (d / "schema.json").write_text(json.dumps(
            {"version": 1, "factors": self.names, "label": "label"}))
        self.synth_s = scaled = 0.0
        self.clock.mark()
        for spec, seed, out in (("train_spec.json", self.seed, "requests.csv"),
                                ("heldout_spec.json", self.seed + 1, "heldout.csv")):
            code, wall = run_stage("synth", ["--spec", d / spec, "--seed", seed,
                                             "--out-requests", d / out], tracer)
            self.synth_s += wall
            scaled += self.clock.scaled(wall)
            self.ops.record([f"exit code {code}"] if code else [], f"synth {out}")
        return self.synth_s, scaled

    def stages(self):
        d = self.dir
        return [
            ("build_tables", ["--schema", d / "schema.json", "--input", d / "requests.csv",
                              "--out", d / "tables.json"], "tables.json"),
            ("rank", ["--tables", d / "tables.json", "--out", d / "importance.json"],
             "importance.json"),
            ("train", ["--tables", d / "tables.json", "--importance", d / "importance.json",
                       "--out", d / "model.json"], "model.json"),
            ("score", ["--model", d / "model.json", "--input", d / "heldout.csv",
                       "--out", d / "scores.csv"], "scores.csv"),
            ("pace", ["--model", d / "model.json", "--input", d / "heldout.csv",
                      "--target", self.target, "--out", d / "decisions.csv"],
             "decisions.csv"),
        ]

    def checks(self):
        d = self.dir
        problems: dict[str, list[str]] = {}
        tables = json.loads((d / "tables.json").read_text())
        if tables["total"] != self.n:
            problems["build_tables"] = [f"tables total {tables['total']} != {self.n}"]
        model = json.loads((d / "model.json").read_text().splitlines()[0])
        active = [f["name"] for f in model["factors"] if f["importance"] > 0]
        if len(active) != len(self.names):
            problems["train"] = [f"only {active} of {self.names} stay active"]
        problems["score"] = self._check_scores(model)
        decisions = read_csv_columns(d / "decisions.csv")
        shown = sum(map(int, decisions["show"]))
        if len(decisions["show"]) != self.n or abs(shown - self.target) > 0.1 * self.target:
            problems["pace"] = [f"showed {shown} of target {self.target} "
                                f"over {len(decisions['show'])} rows"]
        self.quality["pace.shown"] = shown
        return problems

    def _check_scores(self, model):
        """Recompute every score from model.json and the held-out labels."""
        found = []
        labels = read_csv_columns(self.dir / "heldout.csv")
        scores = read_csv_columns(self.dir / "scores.csv")
        got = np.array(scores["score"], dtype=np.float64)
        used = np.array(scores["used_factors"], dtype=np.int64)
        if len(got) != self.n:
            return [f"{len(got)} score rows for {self.n} requests"]
        num = np.zeros(self.n)
        den = np.zeros(self.n)
        n_known = np.zeros(self.n, dtype=np.int64)
        unseen = np.zeros(self.n, dtype=bool)
        for f in model["factors"]:
            rates = f["levels"]
            column = labels[f["name"]]
            known = np.fromiter((lab in rates for lab in column), dtype=bool,
                                count=self.n)
            unseen |= ~known
            if f["importance"] > 0:
                q = np.fromiter((rates.get(lab, 0.0) for lab in column),
                                dtype=np.float64, count=self.n)
                num += np.where(known, f["importance"] * q, 0.0)
                den += np.where(known, f["importance"], 0.0)
                n_known += known
        expect = np.where(n_known > 0, num / np.where(den > 0, den, 1.0),
                          model["global_rate"])
        if np.isnan(got).any():
            found.append(f"{int(np.isnan(got).sum())} NaN scores")
        worst = float(np.max(np.abs(got - expect)))
        if not worst <= 1e-12:
            found.append(f"scores differ from the recomputation by up to {worst:.3g}")
        if not np.array_equal(used, n_known):
            found.append("used_factors differ from the recomputation")
        extra = self.spec["heldout_extra_level"]
        planted = int(sum(lab == extra["label"] for lab in labels[extra["factor"]]))
        share = extra["share"]
        tolerance = 5.0 * math.sqrt(share * (1.0 - share) / self.n)
        if int(unseen.sum()) != planted or abs(planted / self.n - share) > tolerance:
            found.append(f"{int(unseen.sum())} rows with an unseen level, "
                         f"{planted} planted ({share:.0%} expected)")
        self.quality["unseen_share"] = planted / self.n
        return found


class Visits(FilePipeline):
    """survival -> fit-nbd -> adjust-churn -> forecast -> virtualize -> alarm."""

    name = "visits"
    inputs = ("events.csv", "freq.csv", "hourly.csv")

    def __init__(self, *args):
        super().__init__(*args)
        population = dict(self.spec["population"])
        population["users"] = max(1, round(population["users"] * self.scale))
        self.population = population
        self.synth_spec = {"population": population, "churn": self.spec["churn"],
                           "intensity": self.spec["intensity"]}
        self.window_h = population["window_hours"]

    def setup(self, tracer=None):
        d = self.dir
        (d / "visits_spec.json").write_text(json.dumps(self.synth_spec))
        self.clock.mark()
        code, self.synth_s = run_stage(
            "synth", ["--spec", d / "visits_spec.json", "--seed", self.seed,
                      "--out-events", d / "events.csv", "--out-freq", d / "freq.csv",
                      "--out-series", d / "hourly.csv"], tracer)
        self.ops.record([f"exit code {code}"] if code else [], "synth events")
        return self.synth_s, self.clock.scaled(self.synth_s)

    def stages(self):
        d, wh = self.dir, self.window_h
        return [
            ("survival", ["--events", d / "events.csv",
                          "--window", f"0:{int(wh * ingest.SECONDS_PER_HOUR)}",
                          "--out", d / "survival.csv"], "survival.csv"),
            ("fit_nbd", ["--freq", d / "freq.csv", "--window-hours", wh,
                         "--out", d / "nbd.json"], "nbd.json"),
            ("adjust_churn", ["--freq", d / "freq.csv", "--survival", d / "survival.csv",
                              "--window-hours", wh,
                              "--threshold", self.spec["loyalty_threshold"],
                              "--out", d / "adjusted.json"], "adjusted.json"),
            ("forecast", ["--series", d / "hourly.csv", "--L", self.spec["forecast_L"],
                          "--r", "auto", "--horizon", self.spec["forecast_horizon"],
                          "--out", d / "forecast.csv"], "forecast.csv"),
            ("virtualize", ["--series", d / "hourly.csv", "--events", d / "events.csv",
                            "--out", d / "virtual.csv"], "virtual.csv"),
            ("alarm", ["--series", d / "hourly.csv", "--forecast", d / "forecast.csv",
                       "--out", d / "alarm.json"], "alarm.json"),
        ]

    def check_recorded(self, digests):
        # adjusted.json is expected to change with the churn model itself
        return super().check_recorded({f: v for f, v in digests.items()
                                       if f != "adjusted.json"})

    def checks(self):
        d = self.dir
        problems: dict[str, list[str]] = {}
        taus = self.spec["churn"]["tau_days"]
        survival = read_csv_columns(d / "survival.csv")
        est = dict(zip(survival["browser"], map(float, survival["tau_days"])))
        if sorted(est) != sorted(taus) or not all(
                math.isfinite(t) and t > 0 for t in est.values()):
            problems["survival"] = [f"survival rows {est} for browsers {sorted(taus)}"]
        for b, t in est.items():
            if b in taus:
                self.quality[f"tau_rel_err.{b}"] = rel_err(t, taus[b])
        nbd = json.loads((d / "nbd.json").read_text())
        if not all(math.isfinite(nbd[key]) for key in ("k", "m")):
            problems["fit_nbd"] = [f"non-finite fit {nbd}"]
        adjusted = json.loads((d / "adjusted.json").read_text())
        keys = ("k", "m", "true_users", "missing_loyal")
        if not all(isinstance(adjusted[key], (int, float)) and math.isfinite(adjusted[key])
                   for key in keys):
            problems["adjust_churn"] = [f"non-finite adjustment {adjusted}"]
        else:
            truth = {"k": self.population["k"], "m": self.population["m"],
                     "true_users": self.population["users"]}
            for key, value in truth.items():
                self.quality[f"{key}_rel_err"] = rel_err(adjusted[key], value)
        forecast = read_csv_columns(d / "forecast.csv")
        expect = self.spec["intensity"]["n_hours"] + self.spec["forecast_horizon"]
        if len(forecast["hour"]) != expect:
            problems["forecast"] = [f"{len(forecast['hour'])} forecast rows, expected {expect}"]
        virtual = read_csv_columns(d / "virtual.csv")
        ts = np.array(virtual["timestamp"], dtype=np.int64)
        vt = np.array(virtual["virtual"], dtype=np.float64)
        order = np.argsort(ts, kind="stable")
        n_events = sum(1 for _ in open(d / "events.csv", encoding="utf-8")) - 1
        if len(ts) != n_events or (np.diff(vt[order]) < 0).any():
            problems["virtualize"] = ["virtual time is not non-decreasing in "
                                      "timestamp order, or rows are missing"]
        alarm = json.loads((d / "alarm.json").read_text())
        if alarm["hours_checked"] <= 0:
            problems["alarm"] = [f"alarm checked {alarm['hours_checked']} hours"]
        return problems


class Bidder:
    """Online score+pace per request on one decision thread, plus batch scoring."""

    name = "bidder"

    def __init__(self, spec, seed, scale, workdir, ops, digests):
        self.spec = spec["bidder"]
        self.seed = seed
        self.ops = ops
        s = self.spec
        self.n = max(1, round(s["n"] * scale))
        self.decisions = max(1, round(s["decisions"] * scale))
        self.target = round(self.decisions * s["pace_target_share"])
        self.first_digests = None
        self.synth_s = 0.0
        self.latencies_ns: list[array] = []
        self.quality: dict[str, float] = {}
        self.clock = SpeedRef()

    def setup(self, tracer=None):
        # drop the previous set-up's data first, so that repeated set-ups
        # never hold two copies at once
        self.batch = self.heldout = self.records = self.model = None
        self.clock.mark()
        t0 = time.perf_counter()
        s = self.spec
        rng = np.random.default_rng(self.seed)
        levels = tuple(f"v{j}" for j in range(s["levels"]))
        spec = synth.RequestSpec(n=self.n, base_rate=s["base_rate"], factors=tuple(
            synth.FactorSpec(f"f{i}", levels, tuple([1.0 / len(levels)] * len(levels)),
                             tuple(rng.normal(0.0, s["effect_sd"], len(levels))))
            for i in range(s["factors"])))
        dictionary, self.batch = synth.gen_requests(spec, self.seed + 1)
        table = ingest.build_factor_table(self.batch, dictionary)
        self.model = predictor.train(table, features.rank_factors(table),
                                     epsilon=s["epsilon"])
        _, self.heldout = synth.gen_requests(replace(spec, n=self.decisions), self.seed + 2)
        self.records = list(self.heldout)
        wall = time.perf_counter() - t0
        return wall, self.clock.scaled(wall)

    def check_inputs(self):
        """The inputs live in memory; ``run_pass`` checks what it scores."""

    def finish(self):
        """The first pass already checked its scores and decisions."""

    def input_digests(self):
        h = hashlib.sha256(self.batch.factors.tobytes())
        h.update(self.batch.labels.tobytes())
        h.update(self.heldout.factors.tobytes())
        return {"inputs": h.hexdigest()}

    def run_pass(self, tracer=None, skip=()):
        """Decide every request, then score the batch at threads 1 and 2;
        returns ({stage: wall s}, {stage: scaled s}, digests). Every stage
        runs in every pass, so ``skip`` must be empty."""
        assert not skip
        model, score, pace = self.model, predictor.score, predictor.pace
        state = predictor.PacingState(target_total=self.target,
                                      horizon_requests=self.decisions)
        n = self.decisions
        latencies = array("q", bytes(8 * n))
        scores = array("d", [math.nan]) * n
        raised = 0
        clock = time.perf_counter_ns
        self.clock.mark()
        t_loop = time.perf_counter()
        for j, rec in enumerate(self.records):
            t0 = clock()
            try:
                scored = score(model, rec)
                pace(state, scored)
            except Exception:
                raised += 1
                continue
            latencies[j] = clock() - t0
            scores[j] = scored.score
        walls = {"decide": time.perf_counter() - t_loop}
        scaled = {"decide": self.clock.scaled(walls["decide"])}
        results = {}
        for threads in (1, 2):
            key = f"score_batch_t{threads}"
            t0 = time.perf_counter()
            results[threads] = predictor.score_batch(model, self.batch, threads=threads)
            walls[key] = time.perf_counter() - t0
            scaled[key] = self.clock.scaled(walls[key])
        if tracer is None:
            self.latencies_ns.append(latencies)

        scalar = np.frombuffer(scores, dtype=np.float64)
        n_nan = int(np.isnan(scalar).sum())
        self.ops.record([f"{raised} raised, {n_nan - raised} NaN scores"] if n_nan else [],
                        "decide", count=n, failed=n_nan)
        batch_problems = {t: [] for t in (1, 2)}
        for t, r in results.items():
            if r.errors or np.isnan(r.scores).any():
                batch_problems[t].append(f"{len(r.errors)} errors or NaN scores")
        if not (np.array_equal(results[1].scores, results[2].scores)
                and np.array_equal(results[1].used_factors, results[2].used_factors)):
            batch_problems[2].append("threads=2 scores differ from threads=1")
        digests = {"scalar": hashlib.sha256(scalar.tobytes()).hexdigest(),
                   "batch": hashlib.sha256(results[1].scores.tobytes()).hexdigest(),
                   "shown": state.shown_so_far}
        pace_problems = []
        if self.first_digests is None:
            held = predictor.score_batch(model, self.heldout, threads=1)
            if not np.array_equal(held.scores, scalar):
                batch_problems[1].append("scalar and batch scores differ")
            active = int((model.importance > 0).sum())
            if active != self.spec["factors"]:
                batch_problems[1].append(f"{active} active factors")
            if abs(state.shown_so_far - self.target) > 0.1 * self.target:
                pace_problems.append(f"showed {state.shown_so_far} of {self.target}")
            self.quality["pace.shown"] = state.shown_so_far
            self.first_digests = digests
        elif digests != self.first_digests:
            pace_problems.append("decisions or scores differ from the first pass")
        for t in (1, 2):
            self.ops.record(batch_problems[t], f"score_batch threads={t}")
        self.ops.record(pace_problems, "pacing")
        return walls, scaled, digests

    def kernel_numbers(self, walls_per_pass):
        """Decision percentiles over every untraced sample, and batch req/s."""
        lat_us = np.concatenate([np.frombuffer(a, dtype=np.int64)
                                 for a in self.latencies_ns]) / 1000.0
        out = {"decide.samples": len(lat_us)}
        if len(lat_us):
            out["decide.p50_us"] = float(np.percentile(lat_us, 50))
            out["decide.p99_us"] = float(np.percentile(lat_us, 99))
            top = max((p for p in (99.0, 99.9, 99.99, 99.999)
                       if len(lat_us) * (100.0 - p) / 100.0 >= 10), default=99.0)
            out["decide.top_pct"] = top
            out["decide.top_us"] = float(np.percentile(lat_us, top))
        for t in (1, 2):
            med = float(np.median([w[f"score_batch_t{t}"] for w in walls_per_pass]))
            out[f"score_batch.rps_t{t}"] = self.n / med
        return out


WORKLOADS = {w.name: w for w in (Requests, Visits, Bidder)}
