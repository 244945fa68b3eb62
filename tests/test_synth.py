import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from adlift import synth
from adlift.cli import dispatch
from adlift.errors import BadSpec
from adlift.features import rank_factors
from adlift.ingest import (SCRATCH_ROWS, EventBatch, build_factor_table, id_dtype,
                           write_events_csv)
from adlift.repeatbuy import build_frequency_table, nbd_pmf
from adlift.synth import (MAX_COUNT, ChurnSpec, FactorSpec, Harmonic,
                          IntensitySpec, PopulationSpec, RequestSpec, SynthSpec,
                          apply_churn, gen_gamma_poisson,
                          gen_inhomogeneous_poisson, gen_requests)
from adlift.timeseries import MAX_SERIES_HOURS

from conftest import traced_peak

BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestGenRequests:
    SPEC = RequestSpec(n=40_000, base_rate=0.1, factors=(
        FactorSpec("driver", ("lo", "hi"), (0.5, 0.5), (-0.8, 0.8)),
        FactorSpec("noise", ("a", "b", "c"), (0.3, 0.3, 0.4), (0.0,) * 3)))

    def test_same_seed_identical_streams(self):
        _, b1 = gen_requests(self.SPEC, seed=99)
        _, b2 = gen_requests(self.SPEC, seed=99)
        assert np.array_equal(b1.factors, b2.factors)
        assert np.array_equal(b1.labels, b2.labels)

    def test_different_seed_differs(self):
        _, b1 = gen_requests(self.SPEC, seed=99)
        _, b2 = gen_requests(self.SPEC, seed=100)
        assert not np.array_equal(b1.labels, b2.labels)

    def test_zero_effects_match_base_rate(self):
        spec = RequestSpec(n=100_000, base_rate=0.2, factors=(
            FactorSpec("f", ("a", "b"), (0.5, 0.5), (0.0, 0.0)),))
        _, batch = gen_requests(spec, seed=4)
        se = np.sqrt(0.2 * 0.8 / spec.n)
        assert abs(batch.labels.mean() - 0.2) < 3 * se

    def test_dominant_factor_ranks_first(self):
        dictionary, batch = gen_requests(self.SPEC, seed=7)
        table = build_factor_table(batch, dictionary)
        assert rank_factors(table).ranking[0] == 0

    def test_bad_probs_rejected(self):
        with pytest.raises(BadSpec):
            FactorSpec("f", ("a", "b"), (0.5, 0.6), (0.0, 0.0))

    def test_bad_base_rate_rejected(self):
        with pytest.raises(BadSpec):
            RequestSpec(n=10, base_rate=0.0, factors=(
                FactorSpec("f", ("a",), (1.0,), (0.0,)),))


def oracle_sigmoid(x):
    """The logistic function by masks: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_requests(spec, seed):
    """(factors, labels) drawn with ``rng.choice`` one factor column at a time."""
    rng = np.random.default_rng(seed)
    n, m = spec.n, len(spec.factors)
    factors = np.empty((n, m), dtype=np.int32)
    logits = np.full(n, math.log(spec.base_rate / (1.0 - spec.base_rate)))
    for i, f in enumerate(spec.factors):
        ids = rng.choice(len(f.levels), size=n, p=np.asarray(f.probs))
        factors[:, i] = ids
        logits += np.asarray(f.effects)[ids]
    labels = (rng.random(n) < oracle_sigmoid(logits)).astype(np.int8)
    return factors, labels


@st.composite
def factor_specs(draw, name):
    """A factor of 1-5,000 levels: uniform, random, skewed or with a run of
    tiny probabilities, and zero-probability levels first, last or in the middle."""
    n_levels = draw(st.integers(1, 5000) | st.sampled_from([1, 2, 3, 8]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "random", "skewed", "tiny"]))
    if shape == "uniform":
        p = np.ones(n_levels)
    elif shape == "skewed":
        p = g.random(n_levels) ** draw(st.integers(4, 40))
    else:
        p = g.random(n_levels)
    if shape == "tiny":
        start = g.integers(n_levels)
        p[start:start + g.integers(1, n_levels + 1)] = 1e-12
    if n_levels > 1:
        if draw(st.booleans()):
            p[0] = 0.0
        if draw(st.booleans()):
            p[-1] = 0.0
        if draw(st.booleans()):
            p[g.random(n_levels) < draw(st.sampled_from([0.01, 0.3, 0.9]))] = 0.0
    if not p.sum():
        p[g.integers(n_levels)] = 1.0
    p /= p.sum()
    return FactorSpec(name, tuple(map(str, range(n_levels))), tuple(p.tolist()),
                      tuple(g.normal(0.0, 1.0, n_levels).tolist()))


class TestGenRequestsOracle:
    """``gen_requests`` draws exactly what ``rng.choice`` drew, bit for bit."""

    @given(factors=st.integers(1, 3).flatmap(
               lambda m: st.tuples(*(factor_specs(f"f{i}") for i in range(m)))),
           n=st.sampled_from([0, 1, 3000]) | st.integers(2, 40),
           base_rate=st.sampled_from([0.001, 0.1, 0.5, 0.97]),
           seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_rng_choice(self, factors, n, base_rate, seed):
        spec = RequestSpec(n=n, base_rate=base_rate, factors=factors)
        _, batch = gen_requests(spec, seed)
        factors, labels = oracle_requests(spec, seed)
        assert batch.factors.dtype == id_dtype(len(f.levels) for f in spec.factors)
        assert batch.labels.dtype == np.int8
        assert batch.factors.flags.f_contiguous
        assert np.array_equal(batch.factors, factors)
        assert np.array_equal(batch.labels, labels)

    def test_sigmoid_bits(self):
        x = np.concatenate([[0.0, -0.0, 745.2, -745.2, 800.0, -800.0, np.inf, -np.inf],
                            np.random.default_rng(5).normal(0.0, 8.0, 10_000)])
        assert np.array_equal(synth._sigmoid(x).view(np.uint64),
                              oracle_sigmoid(x).view(np.uint64))

    def test_factor_matrix_is_the_only_full_size_copy(self):
        # the level ids are drawn straight into the factor matrix, one byte
        # per id, and the uniforms, log-odds and labels are taken a block of
        # rows at a time, so the set-up holds the matrix and the labels once,
        # plus one block's scratch (40.3 SCRATCH_ROWS bytes measured) at
        # any n
        levels = tuple(f"v{j}" for j in range(8))
        spec = RequestSpec(n=200_000, base_rate=0.1, factors=tuple(
            FactorSpec(f"f{i}", levels, (0.3,) + (0.1,) * 7, (0.1,) * 8)
            for i in range(20)))
        (_, batch), peak = traced_peak(gen_requests, spec, 1)
        n, m = spec.n, len(spec.factors)
        assert batch.factors.nbytes == n * m
        assert batch.labels.nbytes == n
        assert peak < n * m + n + 48 * SCRATCH_ROWS


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_bench_request_inputs_are_reproduced(tmp_path):
    """The seed-42 request files of the benchmark hash to the recorded digests."""
    spec = json.loads((BENCH / "spec.json").read_text())
    recorded = json.loads((BENCH / "digests.json").read_text())["requests"]
    seed, r = spec["bench_seed"], spec["requests"]
    # the train and held-out specs, built as bench/workloads.py builds them
    train = {"n": r["n"], "base_rate": r["base_rate"], "factors": r["factors"]}
    extra = r["heldout_extra_level"]
    heldout = []
    for f in r["factors"]:
        f = dict(f)
        if f["name"] == extra["factor"]:
            keep = 1.0 - extra["share"]
            f["levels"] = [*f["levels"], extra["label"]]
            f["probs"] = [p * keep for p in f["probs"]] + [extra["share"]]
            f["effects"] = [*f["effects"], 0.0]
        heldout.append(f)
    for doc, seed, out in ((train, seed, "requests.csv"),
                           ({**train, "factors": heldout}, seed + 1, "heldout.csv")):
        (tmp_path / "spec.json").write_text(json.dumps({"requests": doc}))
        assert dispatch(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", str(seed),
                         "--out-requests", str(tmp_path / out)]) == 0
        assert sha256(tmp_path / out) == recorded[out], out


def test_bench_visit_inputs_are_reproduced(tmp_path):
    """The seed-42 visit files of the benchmark hash to the recorded digests."""
    spec = json.loads((BENCH / "spec.json").read_text())
    recorded = json.loads((BENCH / "digests.json").read_text())["visits"]
    doc = {key: spec["visits"][key] for key in ("population", "churn", "intensity")}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    outs = {"--out-events": "events.csv", "--out-freq": "freq.csv",
            "--out-series": "hourly.csv"}
    assert dispatch(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--seed", str(spec["bench_seed"]),
                     *(a for flag, out in outs.items() for a in (flag, str(tmp_path / out)))]) == 0
    for out in outs.values():
        assert sha256(tmp_path / out) == recorded[out], out


def test_freq_alone_makes_no_cookie_key(tmp_path):
    """``synth --out-freq`` alone writes the benchmark's frequency table."""
    spec = json.loads((BENCH / "spec.json").read_text())
    doc = {key: spec["visits"][key] for key in ("population", "churn")}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert dispatch(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--seed", str(spec["bench_seed"]),
                     "--out-freq", str(tmp_path / "freq.csv")]) == 0
    recorded = json.loads((BENCH / "digests.json").read_text())["visits"]
    assert sha256(tmp_path / "freq.csv") == recorded["freq.csv"]


def lexsort_population(spec: PopulationSpec, seed: int):
    """The counts and times of ``gen_gamma_poisson``, each user's times put in
    order by one lexsort over (user, time): the reference for its sort."""
    rng = np.random.default_rng(seed)
    means = rng.gamma(shape=spec.k, scale=spec.m / spec.k, size=spec.users)
    counts = rng.poisson(means)
    times = rng.random(counts.sum()) * spec.window_hours
    return counts, times[np.lexsort((times, np.repeat(np.arange(spec.users), counts)))]


def populations():
    return st.builds(PopulationSpec, k=st.floats(0.05, 20.0), m=st.floats(1e-3, 30.0),
                     users=st.integers(1, 300), window_hours=st.floats(1e-3, 1e4))


class TestGenGammaPoisson:
    def test_poisson_limit_dispersion(self):
        spec = PopulationSpec(k=1e9, m=2.0, users=100_000, window_hours=24.0)
        sample = gen_gamma_poisson(spec, seed=3)
        dispersion = sample.counts.var(ddof=1) / sample.counts.mean()
        assert abs(dispersion - 1.0) < 0.05

    def test_counts_match_nbd_pmf(self):
        k, m = 0.8, 2.5
        spec = PopulationSpec(k=k, m=m, users=100_000, window_hours=720.0)
        sample = gen_gamma_poisson(spec, seed=8)
        hist = np.bincount(sample.counts)
        n_max = len(hist) - 1
        probs = np.asarray(nbd_pmf(k, m, np.arange(0, n_max + 1)))
        probs[-1] += max(1.0 - probs.sum(), 0.0)
        # pool bins with expected >= 5
        exp = probs * spec.users
        obs_b, exp_b, acc_o, acc_e = [], [], 0.0, 0.0
        for o, e in zip(hist, exp):
            acc_o += o
            acc_e += e
            if acc_e >= 5:
                obs_b.append(acc_o)
                exp_b.append(acc_e)
                acc_o = acc_e = 0.0
        obs_b[-1] += acc_o
        exp_b[-1] += acc_e
        chi2 = sum((o - e) ** 2 / e for o, e in zip(obs_b, exp_b))
        pvalue = stats.chi2.sf(chi2, len(obs_b) - 1)
        assert pvalue > 0.01

    def test_zero_mean_forbidden(self):
        with pytest.raises(BadSpec):
            PopulationSpec(k=1.0, m=0.0, users=10, window_hours=24.0)

    @given(spec=populations(), seed=st.integers(0, 2**32))
    @example(spec=PopulationSpec(k=1.0, m=1e-9, users=3, window_hours=24.0), seed=0)
    @example(spec=PopulationSpec(k=0.1, m=0.5, users=50, window_hours=24.0), seed=1)
    @example(spec=PopulationSpec(k=1.0, m=40.0, users=1, window_hours=1.0), seed=2)
    @settings(max_examples=60, deadline=None)
    def test_times_match_the_lexsort_oracle(self, spec, seed):
        # each user's times in ascending order, bit for bit as lexsort puts them
        counts, times = lexsort_population(spec, seed)
        sample = gen_gamma_poisson(spec, seed)
        assert np.array_equal(sample.counts, counts)
        assert np.array_equal(sample.times.view(np.uint64), times.view(np.uint64))
        assert sample.offsets.tolist() == [0, *np.cumsum(counts).tolist()]


    def test_holds_its_sample_plus_a_few_event_vectors(self):
        # the times are scaled in place and the sort key is built in the
        # rank array: 5.2 vectors of 8 bytes per event measured at the
        # peak, the sample's 2.8 included (a first call in a process
        # allocates 1.6 more once, so it is left out)
        spec = PopulationSpec(k=0.8, m=2.5, users=20_000, window_hours=720.0)
        gen_gamma_poisson(spec, 5)
        sample, peak = traced_peak(gen_gamma_poisson, spec, 5)
        assert peak < 6.5 * 8 * len(sample.times)


class TestApplyChurn:
    def _sample(self, users=20_000):
        spec = PopulationSpec(k=0.8, m=2.5, users=users, window_hours=720.0)
        return gen_gamma_poisson(spec, seed=6)

    def test_no_churn_one_cookie_per_user(self):
        sample = self._sample()
        churn = ChurnSpec(tau_days={"chrome": 1e9}, mix={"chrome": 1.0})
        events = apply_churn(sample, churn, seed=7)
        assert len(np.unique(events.cookies)) == int((sample.counts > 0).sum())

    def test_rapid_churn_nearly_all_singletons(self):
        sample = self._sample(users=5_000)
        churn = ChurnSpec(tau_days={"chrome": 1e-4}, mix={"chrome": 1.0})
        events = apply_churn(sample, churn, seed=7)
        freq = build_frequency_table(events)
        assert freq.observed(1) / freq.total_cookies > 0.99

    def test_event_conservation(self):
        sample = self._sample()
        churn = ChurnSpec(tau_days={"chrome": 6.0, "safari": 12.0},
                          mix={"chrome": 0.7, "safari": 0.3})
        events = apply_churn(sample, churn, seed=9)
        assert len(events) == int(sample.counts.sum())

    def test_moderate_churn_raises_singleton_share(self):
        sample = self._sample()
        no_churn = apply_churn(sample, ChurnSpec({"c": 1e9}, {"c": 1.0}), seed=9)
        churned = apply_churn(sample, ChurnSpec({"c": 7.0}, {"c": 1.0}), seed=9)
        f0 = build_frequency_table(no_churn)
        f1 = build_frequency_table(churned)
        assert (f1.observed(1) / f1.total_cookies
                > f0.observed(1) / f0.total_cookies)

    def test_browser_mix_respected(self):
        sample = self._sample()
        churn = ChurnSpec(tau_days={"chrome": 6.0, "safari": 12.0},
                          mix={"chrome": 0.7, "safari": 0.3})
        events = apply_churn(sample, churn, seed=10)
        by_user = {}
        for cookie_id, browser in zip(np.array(events.cookie_labels)[events.cookies],
                                      np.array(events.browser_labels)[events.browsers]):
            user = cookie_id.split("s")[0]
            by_user.setdefault(user, set()).add(browser)
        assert all(len(browsers) == 1 for browsers in by_user.values())
        share = sum(1 for b in by_user.values() if b == {"chrome"}) / len(by_user)
        assert abs(share - 0.7) < 0.02

    def test_holds_its_events_plus_a_few_event_vectors(self):
        # gaps, death counts and codes are built in place, and the cookie
        # ids a block of keys at a time: 7.8 vectors of 8 bytes per event
        # measured at the peak, the 2.6 of the events returned included
        sample = gen_gamma_poisson(PopulationSpec(k=0.8, m=2.5, users=20_000,
                                                  window_hours=720.0), seed=5)
        churn = ChurnSpec(tau_days={"chrome": 6.0, "safari": 10.0},
                          mix={"chrome": 0.7, "safari": 0.3})
        events, peak = traced_peak(apply_churn, sample, churn, 6)
        assert events.cookies.dtype == events.browsers.dtype == np.int32
        assert peak < 9 * 8 * len(events)

    @given(keys=st.lists(st.tuples(st.integers(0, MAX_COUNT), st.integers(0, MAX_COUNT)),
                         max_size=40))
    @example(keys=[])
    @example(keys=[(0, 0), (MAX_COUNT, MAX_COUNT), (9, 10), (99_999, 7)])
    def test_cookie_keys_match_str_format(self, keys):
        pairs = np.array(keys, np.int64).reshape(-1, 2)
        ids = synth._cookie_keys(pairs[:, 0], pairs[:, 1])
        assert ids.dtype.kind == "S"
        assert ids.tolist() == [f"u{u}s{s}".encode() for u, s in keys]

    @given(spec=populations(), tau=st.floats(1e-4, 1e3), seed=st.integers(0, 2**32))
    @example(spec=PopulationSpec(k=1.0, m=1e-9, users=3, window_hours=24.0),
             tau=1.0, seed=0)
    @example(spec=PopulationSpec(k=0.1, m=0.5, users=50, window_hours=24.0),
             tau=0.01, seed=1)
    @example(spec=PopulationSpec(k=1.0, m=40.0, users=1, window_hours=1.0),
             tau=1e-3, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_events_file_matches_the_str_labels(self, tmp_path_factory, spec, tau, seed):
        # the byte keys are written as the per-cookie strings they replace
        events = apply_churn(gen_gamma_poisson(spec, seed),
                             ChurnSpec({"chrome": tau, "safari": 2 * tau},
                                       {"chrome": 0.6, "safari": 0.4}), seed + 1)
        d = tmp_path_factory.mktemp("events")
        write_events_csv(d / "keys.csv", events)
        write_events_csv(d / "strs.csv", EventBatch(
            events.cookies, events.cookie_labels, events.browsers, events.browser_labels,
            events.timestamps))
        assert (d / "keys.csv").read_bytes() == (d / "strs.csv").read_bytes()


class TestInhomogeneousPoisson:
    def test_constant_intensity_exponential_gaps(self):
        spec = IntensitySpec(n_hours=200, base=50.0)
        times = gen_inhomogeneous_poisson(spec, seed=5)
        gaps = np.diff(np.concatenate([[0.0], times]))
        ks = stats.kstest(gaps, "expon", args=(0, gaps.mean()))
        assert ks.pvalue > 0.01

    def test_zero_intensity_no_events(self):
        spec = IntensitySpec(n_hours=10, base=0.0)
        assert len(gen_inhomogeneous_poisson(spec, seed=1)) == 0

    def test_periodic_histogram_tracks_intensity(self):
        spec = IntensitySpec(n_hours=240, base=30.0,
                             harmonics=(Harmonic(24.0, 20.0),))
        times = gen_inhomogeneous_poisson(spec, seed=9)
        assert len(times) > 5000
        hist = np.bincount(times.astype(int), minlength=240)
        corr = np.corrcoef(hist, spec.hourly_integrals())[0, 1]
        assert corr > 0.9

    def test_negative_intensity_rejected(self):
        spec = IntensitySpec(n_hours=24, base=1.0,
                             harmonics=(Harmonic(24.0, 5.0),))
        with pytest.raises(BadSpec):
            gen_inhomogeneous_poisson(spec, seed=1)

    def test_determinism(self):
        spec = IntensitySpec(n_hours=100, base=10.0)
        t1 = gen_inhomogeneous_poisson(spec, seed=44)
        t2 = gen_inhomogeneous_poisson(spec, seed=44)
        assert np.array_equal(t1, t2)


class TestSynthSpecJson:
    def test_full_document_roundtrip(self):
        doc = """
        {
          "seed": 7,
          "requests": {"n": 100, "base_rate": 0.1,
                       "factors": [{"name": "b", "levels": ["x", "y"],
                                    "probs": [0.6, 0.4], "effects": [0.2, 0.0]}]},
          "population": {"k": 0.8, "m": 2.5, "users": 1000, "window_hours": 720},
          "churn": {"tau_days": {"chrome": 6.0}, "mix": {"chrome": 1.0}},
          "intensity": {"n_hours": 48, "base": 10.0,
                        "harmonics": [{"period_hours": 24, "amplitude": 5.0}]}
        }
        """
        spec = SynthSpec.from_doc(json.loads(doc))
        assert spec.seed == 7
        assert spec.requests.factors[0].levels == ("x", "y")
        assert spec.population.m == 2.5
        assert (spec.churn.tau_days, spec.churn.mix) == ({"chrome": 6.0}, {"chrome": 1.0})
        assert spec.intensity.harmonics[0].period_hours == 24.0
        # generators run off the parsed spec
        _, batch = gen_requests(spec.requests, spec.seed)
        assert len(batch) == 100

    @pytest.mark.parametrize("section, key", [("requests", "n"), ("population", "users"),
                                              ("intensity", "n_hours")])
    def test_sizes_past_the_bound_are_rejected(self, section, key):
        # a series is bounded below MAX_COUNT: forecast and virtualize read it
        bound = MAX_SERIES_HOURS if key == "n_hours" else MAX_COUNT
        doc = {"requests": {"n": 1, "base_rate": 0.1, "factors": [
                   {"name": "b", "levels": ["x"], "probs": [1.0], "effects": [0.0]}]},
               "population": {"k": 0.8, "m": 2.5, "users": 1, "window_hours": 720},
               "intensity": {"n_hours": 1, "base": 10.0}}
        doc[section][key] = bound
        assert SynthSpec.from_doc(doc) is not None
        doc[section][key] = bound + 1
        with pytest.raises(BadSpec, match=f"{key} must be an integer no larger than {bound},"):
            SynthSpec.from_doc(doc)
        if key == "n_hours":  # a spec built directly meets the same rule
            with pytest.raises(BadSpec, match=f"{key} must be an integer no larger than "
                                              f"{bound},"):
                IntensitySpec(n_hours=bound + 1, base=10.0)

    @pytest.mark.parametrize("tau_days, ok", [
        ({"chrome": 3.1e-8}, True), ({"chrome": 2.9e-8}, False),
        ({"chrome": 1.0, "safari": 1e-300}, True)])
    def test_churn_deaths_per_user_are_bounded(self, tau_days, ok):
        # 720 hours over a lifetime of 3e-8 days expect 1e9 deaths per user;
        # a browser of no share draws none
        doc = {"population": {"k": 0.8, "m": 2.5, "users": 1, "window_hours": 720},
               "churn": {"tau_days": {"safari": 1.0, **tau_days},
                         "mix": {"chrome": 1.0, "safari": 0.0}}}
        if ok:
            assert SynthSpec.from_doc(doc).churn is not None
        else:
            with pytest.raises(BadSpec, match="deaths per user"):
                SynthSpec.from_doc(doc)
