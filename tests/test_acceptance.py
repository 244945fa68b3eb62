"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line each (collected and echoed at session end)."""

import json
import math
import time

import numpy as np
from scipy import stats

from adlift.cli import dispatch
from adlift.features import rank_factors, renyi_mi, shannon_mi
from adlift.ingest import SECONDS_PER_HOUR, build_factor_table
from adlift.predictor import PacingState, pace, score, score_batch, train
from adlift.repeatbuy import (NbdModel, SurvivalRow, SurvivalTable,
                              adjust_for_churn, build_frequency_table,
                              compare_frequencies, fit_nbd_truncated)
from adlift.synth import (ChurnSpec, FactorSpec, Harmonic, IntensitySpec,
                          PopulationSpec, RequestSpec, apply_churn,
                          gen_gamma_poisson, gen_inhomogeneous_poisson,
                          gen_requests)
from adlift.timeseries import (AlarmConfig, build_virtual_clock, check_alarm,
                               ssa_fit, ssa_forecast, virtualize)

from conftest import acceptance_lines, make_table


def report(number, name, ok, detail):
    line = f"[{number:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_01_mi_correctness():
    t0 = time.perf_counter()
    gen = make_table([[30, 10], [20, 40]])
    ind = make_table([[25, 25], [25, 25]])
    det = make_table([[50, 0], [0, 50]])

    sh_expected = (0.3 * math.log2(0.3 / 0.2) + 0.1 * math.log2(0.1 / 0.2)
                   + 0.2 * math.log2(0.2 / 0.3) + 0.4 * math.log2(0.4 / 0.3))
    re2_expected = math.log2(0.09 / 0.2 + 0.01 / 0.2 + 0.04 / 0.3 + 0.16 / 0.3)

    ok = (abs(shannon_mi(gen, 0) - sh_expected) < 1e-10
          and abs(renyi_mi(gen, 0, 2.0) - re2_expected) < 1e-10
          and shannon_mi(det, 0) == 1.0
          and all(renyi_mi(ind, 0, a) == 0.0 for a in (1.0, 2.0, 5.0))
          and shannon_mi(ind, 0) == 0.0)
    elapsed = time.perf_counter() - t0
    report(1, "MI correctness", ok and elapsed < 1.0,
           f"hand-table errors < 1e-10, independence exact 0, {elapsed:.3f}s")


def test_02_renyi_shannon_limit():
    suite = [make_table([[30, 10], [20, 40]]),
             make_table([[5, 1], [1, 5], [3, 3]]),
             make_table([[80, 5], [10, 5]]),
             make_table([[7, 3], [2, 8], [5, 5], [1, 9]])]
    h = 1e-4
    worst = max(abs(renyi_mi(t, 0, 1.0 + s * h) - shannon_mi(t, 0))
                for t in suite for s in (+1, -1))
    report(2, "Renyi->Shannon limit", worst <= 1e-3,
           f"max |renyi(1±1e-4) - shannon| = {worst:.2e} bits")


def test_03_planted_factor_recovery():
    t0 = time.perf_counter()
    noise = tuple(FactorSpec(f"noise{i}", ("a", "b", "c"), (0.4, 0.35, 0.25),
                             (0.0, 0.0, 0.0)) for i in range(9))
    spec = RequestSpec(n=100_000, base_rate=0.1, factors=(
        FactorSpec("driver", ("lo", "hi"), (0.5, 0.5), (-0.4, 0.4)),) + noise)
    hits = 0
    for rep in range(100):
        dictionary, batch = gen_requests(spec, seed=1000 + rep)
        table = build_factor_table(batch, dictionary)
        if rank_factors(table).ranking[0] == 0:
            hits += 1
    elapsed = time.perf_counter() - t0
    report(3, "planted-factor recovery", hits >= 99 and elapsed < 30.0,
           f"{hits}/100 replications, {elapsed:.1f}s")


def test_04_predictor_calibration():
    spec = RequestSpec(n=100_000, base_rate=0.12, factors=(
        FactorSpec("a", ("x", "y", "z"), (0.4, 0.4, 0.2), (0.6, -0.6, 0.0)),
        FactorSpec("b", ("p", "q"), (0.5, 0.5), (0.3, -0.3)),
        FactorSpec("c", ("u", "v", "w"), (0.3, 0.3, 0.4), (0.0, 0.0, 0.0))))
    dictionary, train_batch = gen_requests(spec, seed=501)
    _, held_out = gen_requests(spec, seed=502)
    table = build_factor_table(train_batch, dictionary)
    model = train(table, rank_factors(table), epsilon=0.0001)
    result = score_batch(model, held_out)

    rate = held_out.labels.mean()
    se = math.sqrt(rate * (1 - rate) / len(held_out))
    mean_ok = abs(result.scores.mean() - rate) < 3 * se

    active = [(i, model.rates[i]) for i in range(model.m)
              if model.importance[i] > 0]
    lo = np.full(len(held_out), np.inf)
    hi = np.full(len(held_out), -np.inf)
    for i, rates in active:
        q = rates[held_out.factors[:, i]]
        lo = np.minimum(lo, q)
        hi = np.maximum(hi, q)
    bounds_ok = bool(np.all((result.scores >= lo - 1e-15)
                            & (result.scores <= hi + 1e-15)))
    report(4, "predictor calibration", mean_ok and bounds_ok,
           f"|mean - rate| = {abs(result.scores.mean() - rate):.5f} "
           f"(3se = {3 * se:.5f}), bounds exhaustively held: {bounds_ok}")


def _freq_from_hist(hist):
    from adlift.repeatbuy import FrequencyTable
    return FrequencyTable({n: int(c) for n, c in enumerate(hist) if n >= 1 and c})


def test_05_nbd_fitting():
    t0 = time.perf_counter()
    k_t, m_t = 0.8, 2.5

    # parameter recovery on ~1e5 observed (zero-truncated) cookies
    r = np.random.default_rng(9000)
    counts = r.poisson(r.gamma(k_t, m_t / k_t, size=150_000))
    counts = counts[counts > 0]
    fit = fit_nbd_truncated(_freq_from_hist(np.bincount(counts)))
    recover_ok = (abs(fit.k - k_t) / k_t < 0.10 and abs(fit.m - m_t) / m_t < 0.10)

    passes = 0
    for rep in range(100):
        r = np.random.default_rng(9100 + rep)
        counts = r.poisson(r.gamma(k_t, m_t / k_t, size=30_000))
        counts = counts[counts > 0]
        model = fit_nbd_truncated(_freq_from_hist(np.bincount(counts)))
        if model.gof.pvalue > 0.01:
            passes += 1
    elapsed = time.perf_counter() - t0
    report(5, "NBD fitting", recover_ok and passes >= 95 and elapsed < 60.0,
           f"k={fit.k:.3f} m={fit.m:.3f} (truth {k_t}, {m_t}), "
           f"gof pass {passes}/100, {elapsed:.1f}s")


def test_06_churn_effect_and_correction():
    t0 = time.perf_counter()
    k_t, m_t, users, window_h, n0 = 0.8, 2.5, 100_000, 720.0, 10
    churn = ChurnSpec(tau_days={"chrome": 6.0, "safari": 10.0, "firefox": 3.0},
                      mix={"chrome": 0.6, "safari": 0.3, "firefox": 0.1})
    sample = gen_gamma_poisson(
        PopulationSpec(k=k_t, m=m_t, users=users, window_hours=window_h), seed=101)
    events = apply_churn(sample, churn, seed=202)
    freq = build_frequency_table(events, window_hours=window_h)

    survival = SurvivalTable(rows={
        b: SurvivalRow(tau_days=tau, deaths=1000, censored=100)
        for b, tau in churn.tau_days.items()})
    adj = adjust_for_churn(freq, survival, churn.mix, loyalty_threshold=n0)

    # Fig. 3 signature: observed identity frequencies vs the de-churned NBD
    comp = compare_frequencies(freq, NbdModel(k=adj.k, m=adj.m,
                                              fit_method="moments"))
    excess_ok = comp.singleton_excess > 0

    k_ok = abs(adj.k - k_t) / k_t < 0.15
    m_ok = abs(adj.m - m_t) / m_t < 0.15

    true_hist = np.bincount(sample.counts)
    top = max(freq.max_n, len(true_hist) - 1)
    truth_missing = sum(
        max((true_hist[n] if n < len(true_hist) else 0) - freq.observed(n), 0)
        for n in range(n0, top + 1))
    missing_ok = abs(adj.missing_loyal - truth_missing) <= 0.25 * truth_missing
    elapsed = time.perf_counter() - t0
    report(6, "churn effect reproduction and correction",
           excess_ok and k_ok and m_ok and missing_ok and elapsed < 300.0,
           f"excess=+{comp.singleton_excess:.0f}, k={adj.k:.3f}, m={adj.m:.3f}, "
           f"missing {adj.missing_loyal:.0f} vs truth {truth_missing} "
           f"({abs(adj.missing_loyal - truth_missing) / truth_missing:.1%}), "
           f"{elapsed:.0f}s")


def test_07_virtual_time():
    spec = IntensitySpec(n_hours=240, base=44.0,
                         harmonics=(Harmonic(24.0, 33.0, 0.4),))
    times_h = gen_inhomogeneous_poisson(spec, seed=3)
    clock = build_virtual_clock(spec.hourly_integrals())
    virtual = virtualize(clock, times_h * SECONDS_PER_HOUR)

    gaps = np.diff(np.concatenate([[0.0], virtual]))
    ks = stats.kstest(gaps, "expon", args=(0, gaps.mean()))
    vh = np.clip((virtual / SECONDS_PER_HOUR).astype(int), 0, spec.n_hours - 1)
    counts = np.bincount(vh, minlength=spec.n_hours)
    dispersion = counts.var(ddof=1) / counts.mean()
    ok = len(times_h) >= 10_000 and ks.pvalue > 0.01 and 0.8 <= dispersion <= 1.2
    report(7, "virtual time", ok,
           f"n={len(times_h)}, KS p={ks.pvalue:.3f}, dispersion={dispersion:.3f}")


def test_08_ssa():
    t = np.arange(480.0)
    x = np.sin(2 * np.pi * t / 24.0 + 0.3)
    model = ssa_fit(x, L=48, r=2)
    recon_err = float(np.abs(model.reconstructed - x).max())
    forecast = ssa_forecast(model, 24)
    truth = np.sin(2 * np.pi * np.arange(480.0, 504.0) / 24.0 + 0.3)
    forecast_err = float(np.abs(forecast - truth).max())

    t2 = np.arange(720.0)
    x2 = 50.0 + 0.02 * t2 + 8.0 * np.sin(2 * np.pi * t2 / 168.0 + 1.0)
    model2 = ssa_fit(x2, L=168, r=4)
    fc2 = ssa_forecast(model2, 168)
    tt = np.arange(720.0, 888.0)
    truth2 = 50.0 + 0.02 * tt + 8.0 * np.sin(2 * np.pi * tt / 168.0 + 1.0)
    rel_rmse = float(np.sqrt(np.mean((fc2 - truth2) ** 2) / np.mean(truth2 ** 2)))

    ok = recon_err < 1e-8 and forecast_err < 1e-6 and rel_rmse < 0.05
    report(8, "SSA reconstruction and forecast", ok,
           f"recon {recon_err:.1e}, 24h forecast {forecast_err:.1e}, "
           f"trend+weekly 168h rel RMSE {rel_rmse:.2e}")


def test_09_alarm_calibration():
    config = AlarmConfig(sigma_multiplier=3.0, consecutive_hours=2,
                         residual_window=168)
    hours = alarms = 0
    rng = np.random.default_rng(777)
    for rep in range(50):
        actual = rng.normal(0.0, 1.0, 2000)
        rep_out = check_alarm(actual, np.zeros(2000), config)
        hours += rep_out.hours_checked - config.residual_window
        alarms += int(rep_out.fired)
    false_rate = alarms / hours

    detected = []
    for rep in range(20):
        r = np.random.default_rng(880 + rep)
        actual = r.normal(0.0, 1.0, 400)
        actual[300:] += 10.0
        out = check_alarm(actual, np.zeros(400), config)
        detected.append(out.fired and out.alarm_hour - 300
                        <= config.consecutive_hours + 1)
    ok = false_rate < 0.005 and all(detected)
    report(9, "alarm calibration", ok,
           f"false-alarm {false_rate:.2%}/h, 10-sigma step detected within "
           f"h+1 in {sum(detected)}/20 runs")


def test_10_pacing():
    spec = RequestSpec(n=100_000, base_rate=0.1, factors=(
        FactorSpec("a", ("x", "y", "z"), (0.4, 0.4, 0.2), (0.7, -0.7, 0.0)),
        FactorSpec("b", ("p", "q"), (0.5, 0.5), (0.2, -0.2))))
    dictionary, batch = gen_requests(spec, seed=601)
    table = build_factor_table(batch, dictionary)
    model = train(table, rank_factors(table), epsilon=0.0001)
    scored = score_batch(model, batch)
    state = PacingState(target_total=10_000, horizon_requests=len(batch),
                        threshold=0.5)
    for item in scored:
        pace(state, item)
    ok = abs(state.shown_so_far - 10_000) <= 1_000
    report(10, "pacing", ok,
           f"shown {state.shown_so_far} of target 10000 over 100000 requests")


def test_11_scoring_throughput():
    rng = np.random.default_rng(71)
    m = 20
    spec = RequestSpec(n=300_000, base_rate=0.1, factors=tuple(
        FactorSpec(f"f{i}", tuple(f"v{j}" for j in range(8)),
                   tuple([1.0 / 8] * 8), tuple(rng.normal(0, 0.3, 8)))
        for i in range(m)))
    dictionary, batch = gen_requests(spec, seed=701)
    table = build_factor_table(batch, dictionary)
    model = train(table, rank_factors(table), epsilon=0.0)

    result = score_batch(model, batch, threads=1)
    throughput = result.throughput_rps

    rec_pool = [batch[i] for i in range(2000)]
    for rec in rec_pool:
        score(model, rec)  # warm-up
    samples = np.empty(100_000)
    for i in range(len(samples)):
        t0 = time.perf_counter_ns()
        score(model, rec_pool[i % 2000])
        samples[i] = time.perf_counter_ns() - t0
    p99_us = float(np.percentile(samples, 99)) / 1000.0
    ok = throughput >= 1e5 and p99_us < 10.0
    report(11, "scoring throughput", ok,
           f"{throughput:,.0f} req/s single-threaded, p99 {p99_us:.2f} us")


def test_12_determinism(tmp_path):
    spec_doc = {
        "seed": 42,
        "requests": {"n": 30000, "base_rate": 0.1, "factors": [
            {"name": "browser", "levels": ["chrome", "safari", "ff"],
             "probs": [0.5, 0.3, 0.2], "effects": [0.5, -0.5, 0.0]},
            {"name": "os", "levels": ["win", "mac"],
             "probs": [0.6, 0.4], "effects": [0.0, 0.0]}]},
        "population": {"k": 0.8, "m": 2.5, "users": 30000, "window_hours": 720},
        "churn": {"tau_days": {"chrome": 6.0, "safari": 10.0},
                  "mix": {"chrome": 0.7, "safari": 0.3}},
        "intensity": {"n_hours": 400, "base": 40.0,
                      "harmonics": [{"period_hours": 24, "amplitude": 20.0}]},
    }
    schema_doc = {"version": 1, "factors": ["browser", "os"], "label": "label"}

    def produce(tag):
        d = tmp_path / tag
        d.mkdir()
        (d / "spec.json").write_text(json.dumps(spec_doc))
        (d / "schema.json").write_text(json.dumps(schema_doc))

        def run(*argv):
            code = dispatch([str(a) for a in argv])
            assert code == 0, argv
        run("synth", "--spec", d / "spec.json",
            "--out-requests", d / "requests.csv", "--out-events", d / "events.csv",
            "--out-freq", d / "freq.csv", "--out-series", d / "hourly.csv")
        run("build-tables", "--schema", d / "schema.json",
            "--input", d / "requests.csv", "--out", d / "tables.json")
        run("rank", "--tables", d / "tables.json", "--out", d / "importance.json")
        run("train", "--tables", d / "tables.json",
            "--importance", d / "importance.json", "--out", d / "model.json")
        run("score", "--model", d / "model.json", "--input", d / "requests.csv",
            "--out", d / "scores.csv")
        run("pace", "--model", d / "model.json", "--input", d / "requests.csv",
            "--target", "3000", "--out", d / "decisions.csv")
        run("fit-nbd", "--freq", d / "freq.csv", "--window-hours", "720",
            "--out", d / "nbd.json")
        run("survival", "--events", d / "events.csv", "--window", "0:2592000",
            "--guard-days", "3", "--out", d / "survival.csv")
        run("forecast", "--series", d / "hourly.csv", "--L", "96", "--r", "3",
            "--horizon", "48", "--out", d / "forecast.csv")
        run("alarm", "--series", d / "hourly.csv", "--forecast", d / "forecast.csv",
            "--out", d / "alarm.json")
        return d

    d1 = produce("a")
    d2 = produce("b")
    names = ["requests.csv", "events.csv", "freq.csv", "hourly.csv",
             "tables.json", "importance.json", "model.json", "scores.csv",
             "decisions.csv", "nbd.json", "survival.csv", "forecast.csv",
             "alarm.json"]
    diffs = [n for n in names if (d1 / n).read_bytes() != (d2 / n).read_bytes()]
    report(12, "end-to-end determinism", not diffs,
           f"{len(names)} report files byte-identical"
           + (f"; differing: {diffs}" if diffs else ""))
