import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from adlift.errors import (DegenerateData, DomainError, InconsistentInputs,
                           NoDeathsWarning)
from adlift.ingest import EventBatch
from adlift.repeatbuy import (FrequencyTable, GofReport, SurvivalRow, SurvivalTable,
                              _identities_above, _pooled_chi_square,
                              _segment_quadrature,
                              adjust_for_churn, build_frequency_table,
                              compare_frequencies, estimate_survival,
                              fit_nbd_truncated, nbd_pmf,
                              nbd_zero_truncated_pmf)
from adlift.synth import (ChurnSpec, PopulationSpec, apply_churn,
                          gen_gamma_poisson)
from conftest import make_events

DAY = 86400


def freq_from_counts(counts, window_hours=None) -> FrequencyTable:
    hist = np.bincount(counts)
    return FrequencyTable({n: int(c) for n, c in enumerate(hist) if n >= 1 and c},
                          window_hours)


def sample_zero_truncated_nbd(k, m, n_users, rng):
    lam = rng.gamma(k, m / k, size=n_users)
    counts = rng.poisson(lam)
    return counts[counts > 0]


class TestNbdPmf:
    def test_geometric_case(self):
        assert nbd_pmf(1.0, 1.0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_poisson_limit_total_variation(self):
        n = np.arange(51)
        tv = 0.5 * np.abs(nbd_pmf(1e6, 2.0, n) - stats.poisson.pmf(n, 2.0)).sum()
        assert tv < 1e-4

    def test_moments_by_direct_summation(self):
        # oracle: expectation sums over the support until the tail is < 1e-12
        k, m = 2.0, 3.0
        n = np.arange(0, 3000)
        p = nbd_pmf(k, m, n)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        mean = (n * p).sum()
        var = (n * n * p).sum() - mean ** 2
        assert mean == pytest.approx(m, abs=1e-8)
        assert var == pytest.approx(m * (1 + m / k), abs=1e-8)

    def test_sums_to_one_across_parameters(self):
        n = np.arange(0, 8000)
        for k, m in ((0.3, 0.7), (0.8, 2.5), (5.0, 1.2), (2.0, 10.0)):
            assert abs(float(nbd_pmf(k, m, n).sum()) - 1.0) < 1e-10

    def test_zero_truncated_sums_to_one(self):
        n = np.arange(1, 8000)
        for k, m in ((0.3, 0.7), (0.8, 2.5), (5.0, 1.2)):
            assert abs(float(np.sum(nbd_zero_truncated_pmf(k, m, n))) - 1.0) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nbd_pmf(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            nbd_pmf(1.0, -2.0, 1)
        with pytest.raises(DomainError):
            nbd_pmf(1.0, 1.0, -1)


class TestFitNbdTruncated:
    def test_recovers_parameters(self, rng):
        observed = sample_zero_truncated_nbd(0.8, 2.5, 150_000, rng)
        model = fit_nbd_truncated(freq_from_counts(observed))
        assert abs(model.k - 0.8) / 0.8 < 0.10
        assert abs(model.m - 2.5) / 2.5 < 0.10
        assert model.gof.pvalue > 0.01

    def test_poisson_data_degenerate_with_fallback(self, rng):
        counts = rng.poisson(2.0, 100_000)
        freq = freq_from_counts(counts[counts > 0])
        with pytest.raises(DegenerateData) as excinfo:
            fit_nbd_truncated(freq)
        assert excinfo.value.poisson_mean == pytest.approx(2.0, rel=0.05)

    def test_insufficient_data(self):
        with pytest.raises(DegenerateData):
            fit_nbd_truncated(FrequencyTable({1: 30, 2: 20}))
        with pytest.raises(DegenerateData):
            fit_nbd_truncated(FrequencyTable({1: 10, 2: 5, 3: 2}))

    def test_count_scale_invariance(self, rng):
        observed = sample_zero_truncated_nbd(1.2, 1.8, 20_000, rng)
        freq = freq_from_counts(observed)
        m1 = fit_nbd_truncated(freq)
        m7 = fit_nbd_truncated(freq.scaled(7))
        assert m7.k == pytest.approx(m1.k, rel=1e-6)
        assert m7.m == pytest.approx(m1.m, rel=1e-6)

    def test_moments_fit_recovers_parameters(self, rng):
        from adlift.repeatbuy import fit_nbd_moments
        observed = sample_zero_truncated_nbd(0.8, 2.5, 150_000, rng)
        model = fit_nbd_moments(freq_from_counts(observed))
        assert model.fit_method == "moments"
        assert abs(model.k - 0.8) / 0.8 < 0.15
        assert abs(model.m - 2.5) / 2.5 < 0.15

    def test_bulk_anchored_fit_on_clean_data(self, rng):
        observed = sample_zero_truncated_nbd(0.8, 2.5, 150_000, rng)
        model = fit_nbd_truncated(freq_from_counts(observed), min_count=2)
        assert abs(model.k - 0.8) / 0.8 < 0.15
        assert abs(model.m - 2.5) / 2.5 < 0.15

    def test_self_consistency_gof_calibration(self, rng):
        # refit on data resampled from a fitted model: p > 0.01 in >= 95/100
        k0, m0 = 0.9, 2.0
        passes = 0
        for rep in range(100):
            observed = sample_zero_truncated_nbd(k0, m0, 20_000, rng)
            model = fit_nbd_truncated(freq_from_counts(observed))
            if model.gof.pvalue > 0.01:
                passes += 1
        assert passes >= 95


def pooled_chi_square_loop(observed, expected_probs, total, n_params) -> GofReport:
    """The pooled chi-square as one Python loop over every n: the oracle."""
    n_max = len(expected_probs)
    exp_counts = expected_probs * total
    tail = max(total - float(exp_counts.sum()), 0.0)
    obs_counts = np.array([observed.get(n, 0) for n in range(1, n_max + 1)], dtype=float)
    bins = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs_counts, exp_counts):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            bins.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if bins:
        last_o, last_e = bins[-1]
        bins[-1] = (last_o + acc_o, last_e + acc_e + tail)
    else:
        bins = [(acc_o, acc_e + tail)]
    stat = float(sum((o - e) ** 2 / e for o, e in bins if e > 0))
    dof = len(bins) - 1 - n_params
    pvalue = float(stats.chi2.sf(stat, dof)) if dof >= 1 else float("nan")
    return GofReport(statistic=stat, dof=dof, pvalue=pvalue, n_bins=len(bins))


class TestPooledChiSquare:
    @given(st.integers(1, 3000), st.floats(1e-3, 50.0), st.floats(1e-3, 20.0),
           st.integers(0, 10**6), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop(self, n_max, k, m, total, seed, sparse):
        # NBD-shaped and noisy expected tables with long, thin tails, and
        # observed counts that are dense, or sparse with keys beyond n_max
        rng = np.random.default_rng(seed)
        probs = np.asarray(nbd_pmf(k, m, np.arange(1, n_max + 1)))
        probs = probs * rng.uniform(0.5, 1.5, n_max) / max(probs.sum(), 1e-300)
        if sparse:
            ns = rng.integers(-2, 2 * n_max, rng.integers(0, 50))
        else:
            ns = np.arange(1, n_max + 1)
        observed = {int(n): int(c) for n, c in zip(ns, rng.integers(0, 1000, len(ns)))}
        new = _pooled_chi_square(observed, probs, total, 2)
        assert repr(new) == repr(pooled_chi_square_loop(observed, probs, total, 2))

    @pytest.mark.parametrize("nan_at", [None, 30])
    def test_sparse_million_tail_matches_the_loop(self, nan_at):
        probs = np.asarray(nbd_pmf(0.02, 0.05, np.arange(1, 10**6 + 1)))
        if nan_at is not None:
            probs[nan_at] = np.nan
        observed = {1: 9000, 2: 800, 3: 90, 7: 4, 10**6: 1}
        new = _pooled_chi_square(observed, probs, 9895, 2)
        assert repr(new) == repr(pooled_chi_square_loop(observed, probs, 9895, 2))


class TestCompareFrequencies:
    def test_exact_match_gives_zero_chi_square(self):
        from adlift.repeatbuy import NbdModel
        model = NbdModel(k=1.0, m=2.0, fit_method="moments")
        n = np.arange(1, 200)
        total = 100_000
        probs = np.asarray(nbd_zero_truncated_pmf(1.0, 2.0, n))
        observed = FrequencyTable(
            {int(i): int(round(p * total)) for i, p in zip(n, probs) if p * total >= 0.5})
        comp = compare_frequencies(observed, model)
        assert comp.gof.statistic < 1.0
        assert abs(comp.singleton_excess) < total * 5e-3

    def test_sampled_from_model_calibrated(self, rng):
        k0, m0 = 0.9, 2.0
        from adlift.repeatbuy import NbdModel
        model = NbdModel(k=k0, m=m0, fit_method="moments")
        passes = 0
        for rep in range(100):
            observed = sample_zero_truncated_nbd(k0, m0, 30_000, rng)
            comp = compare_frequencies(freq_from_counts(observed), model)
            if comp.gof.pvalue > 0.01:
                passes += 1
        assert passes >= 95

    def test_churned_data_shows_positive_singleton_excess(self):
        # the reference is the NBD of the true visit process: observed
        # identity frequencies then carry surplus singletons and a missing
        # tail (the cookie-churn signature)
        from adlift.repeatbuy import NbdModel
        pop = PopulationSpec(k=0.8, m=2.5, users=60_000, window_hours=720.0)
        churn = ChurnSpec(tau_days={"chrome": 5.0}, mix={"chrome": 1.0})
        sample = gen_gamma_poisson(pop, seed=13)
        events = apply_churn(sample, churn, seed=14)
        freq = build_frequency_table(events, window_hours=720.0)
        truth = NbdModel(k=0.8, m=2.5, fit_method="moments")
        comp = compare_frequencies(freq, truth)
        assert comp.singleton_excess > 0.2 * freq.observed(1)
        # and the tail is depleted: top counts fall short of the model
        tail = [r for r in comp.rows if r[0] >= 10]
        assert sum(r[3] for r in tail) < 0

    def test_report_rows_cover_observed_range(self):
        from adlift.repeatbuy import NbdModel
        freq = FrequencyTable({1: 500, 2: 200, 3: 80, 5: 10})
        comp = compare_frequencies(freq, NbdModel(k=1.0, m=1.0, fit_method="moments"))
        assert [r[0] for r in comp.rows] == [1, 2, 3, 4, 5]
        assert comp.rows[3][1] == 0  # unobserved n=4 still reported


class TestEstimateSurvival:
    def test_one_cookie_one_day(self):
        t0 = 0
        t1 = 100 * DAY
        events = make_events([("c", "chrome", 10 * DAY), ("c", "chrome", 11 * DAY)])
        table = estimate_survival(events, (t0, t1), guard_days=7.0)
        row = table.rows["chrome"]
        assert row.tau_days == pytest.approx(1.0)
        assert row.deaths == 1
        assert row.censored == 0

    def test_all_single_visits_degenerate(self):
        events = make_events((f"c{i}", "chrome", i * DAY) for i in range(10))
        table = estimate_survival(events, (0, 100 * DAY), guard_days=7.0)
        row = table.rows["chrome"]
        assert row.tau_days == 0.0
        assert row.degenerate

    def test_all_censored_flagged_lower_bound(self):
        t1 = 50 * DAY
        events = make_events([("c", "chrome", 10 * DAY), ("c", "chrome", t1 - DAY)])
        with pytest.warns(NoDeathsWarning):
            table = estimate_survival(events, (0, t1), guard_days=7.0)
        row = table.rows["chrome"]
        assert row.no_deaths
        assert row.tau_days == pytest.approx(39.0)

    def test_event_outside_window_rejected(self):
        with pytest.raises(DomainError):
            estimate_survival(make_events([("c", "chrome", -1)]), (0, DAY))

    def test_zero_censoring_equals_plain_mean(self):
        events = []
        lifetimes = [1.0, 3.0, 5.0]
        for i, life in enumerate(lifetimes):
            events.append((f"c{i}", "chrome", i * 10 * DAY))
            events.append((f"c{i}", "chrome", int((i * 10 + life) * DAY)))
        table = estimate_survival(make_events(events), (0, 1000 * DAY), guard_days=7.0)
        assert table.rows["chrome"].tau_days == pytest.approx(np.mean(lifetimes))

    def test_censored_simulation_recovers_mean(self, rng):
        # oracle: right-censored exponential MLE on 10^4 cookies. Cookies are
        # observed until the window end, so births near it yield ~25%
        # censoring; a small guard keeps death-in-guard misclassification
        # negligible.
        tau_true = 7.0
        t1 = 42 * DAY
        guard = 0.25
        events = []
        for i in range(10_000):
            birth = rng.uniform(20, 40) * DAY
            life = rng.exponential(tau_true) * DAY
            last = min(birth + life, t1 - 1.0)
            events.append((f"c{i}", "chrome", int(birth)))
            events.append((f"c{i}", "chrome", int(last)))
        table = estimate_survival(make_events(events), (0, t1), guard_days=guard)
        row = table.rows["chrome"]
        assert row.censored > 0.1 * 10_000
        assert abs(row.tau_days - tau_true) / tau_true < 0.05


@pytest.fixture(scope="module")
def churned_freq():
    pop = PopulationSpec(k=0.8, m=2.5, users=20_000, window_hours=720.0)
    churn = ChurnSpec(tau_days={"chrome": 6.0}, mix={"chrome": 1.0})
    events = apply_churn(gen_gamma_poisson(pop, seed=41), churn, seed=42)
    return build_frequency_table(events, window_hours=720.0)


class TestExpectedChurnTable:
    @pytest.mark.parametrize("lifetime", np.logspace(-4, 4, 17))
    def test_weights_sum_to_expected_segments(self, lifetime):
        _, weights = _segment_quadrature(lifetime)
        assert weights.sum() == pytest.approx(1.0 + 1.0 / lifetime, rel=1e-8)

    def test_matches_simulated_churn(self):
        # oracle: the generator's users and cookie deaths at the true parameters
        k, m, users, window_h = 0.8, 2.5, 100_000, 720.0
        churn = ChurnSpec(tau_days={"chrome": 6.0, "safari": 10.0},
                          mix={"chrome": 0.6, "safari": 0.4})
        sample = gen_gamma_poisson(PopulationSpec(k=k, m=m, users=users,
                                                  window_hours=window_h), seed=31)
        freq = build_frequency_table(apply_churn(sample, churn, seed=32), window_h)
        ns = np.arange(13.0)
        above = sum(p * _identities_above(k, m, *_segment_quadrature(
                        churn.tau_days[b] * 24.0 / window_h), ns)
                    for b, p in churn.mix.items())
        expected = users * (above[:-1] - above[1:])
        observed = np.array([freq.observed(n) for n in range(1, 13)])
        assert np.abs((observed - expected) / np.sqrt(expected)).max() < 4.0
        assert freq.total_cookies / users == pytest.approx(above[0], rel=0.01)


class TestAdjustForChurn:
    def test_deterministic(self, churned_freq):
        surv = SurvivalTable(rows={"chrome": SurvivalRow(6.0, 1, 0)})
        first, second = (adjust_for_churn(churned_freq, surv, {"chrome": 1.0},
                                          loyalty_threshold=10) for _ in range(2))
        assert first == second

    def test_missing_loyal_is_the_positive_part_of_the_model_excess(self, churned_freq):
        surv = SurvivalTable(rows={"chrome": SurvivalRow(6.0, 1, 0)})
        adj = adjust_for_churn(churned_freq, surv, {"chrome": 1.0}, loyalty_threshold=2)
        n = np.arange(2, 10_000)
        excess = (adj.true_users * nbd_pmf(adj.k, adj.m, n)
                  - [churned_freq.observed(int(i)) for i in n])
        assert adj.missing_loyal == pytest.approx(np.maximum(excess, 0.0).sum(), rel=1e-9)

    def test_cost_does_not_grow_with_the_largest_count(self, churned_freq):
        freq = FrequencyTable({**churned_freq.counts, 1_000_000: 1}, window_hours=720.0)
        surv = SurvivalTable(rows={"chrome": SurvivalRow(6.0, 1, 0)})
        start = time.perf_counter()
        adjust_for_churn(freq, surv, {"chrome": 1.0}, loyalty_threshold=10)
        assert time.perf_counter() - start < 2.0

    def test_no_churn_limit_matches_naive_fit(self):
        pop = PopulationSpec(k=0.8, m=2.5, users=60_000, window_hours=720.0)
        churn = ChurnSpec(tau_days={"chrome": 1.0e7}, mix={"chrome": 1.0})
        sample = gen_gamma_poisson(pop, seed=5)
        events = apply_churn(sample, churn, seed=6)
        freq = build_frequency_table(events, window_hours=720.0)
        naive = fit_nbd_truncated(freq)
        surv = SurvivalTable(rows={"chrome": SurvivalRow(1.0e7, 1, 0)})
        adj = adjust_for_churn(freq, surv, {"chrome": 1.0}, loyalty_threshold=10)
        assert adj.k == pytest.approx(naive.k, rel=0.05)
        assert adj.m == pytest.approx(naive.m, rel=0.05)
        assert adj.missing_loyal < 0.01 * freq.total_cookies

    def test_short_window_with_partial_churn_rejected(self):
        freq = FrequencyTable({1: 500, 2: 300, 3: 150, 4: 60}, window_hours=24.0)
        surv = SurvivalTable(rows={"chrome": SurvivalRow(7.0, 10, 2)})
        with pytest.raises(InconsistentInputs):
            adjust_for_churn(freq, surv, {"chrome": 1.0}, loyalty_threshold=5)

    def test_missing_window_length_rejected(self):
        freq = FrequencyTable({1: 500, 2: 300, 3: 150})
        surv = SurvivalTable(rows={"chrome": SurvivalRow(7.0, 10, 2)})
        with pytest.raises(InconsistentInputs):
            adjust_for_churn(freq, surv, {"chrome": 1.0}, loyalty_threshold=5)

    def test_threshold_validation(self):
        freq = FrequencyTable({1: 500}, window_hours=720.0)
        surv = SurvivalTable(rows={"chrome": SurvivalRow(7.0, 10, 2)})
        with pytest.raises(DomainError):
            adjust_for_churn(freq, surv, {"chrome": 1.0}, loyalty_threshold=1)

    def test_unknown_browser_in_mix(self):
        freq = FrequencyTable({1: 500}, window_hours=720.0)
        surv = SurvivalTable(rows={"chrome": SurvivalRow(7.0, 10, 2)})
        with pytest.raises(DomainError):
            adjust_for_churn(freq, surv, {"opera": 1.0}, loyalty_threshold=5)

    @pytest.mark.parametrize("window_h, tau_days, share", [
        (-5.0, 7.0, 1.0), (0.0, 7.0, 1.0), (np.inf, 7.0, 1.0), (np.nan, 7.0, 1.0),
        (720.0, 0.0, 1.0), (720.0, -5.0, 1.0), (720.0, np.inf, 1.0), (720.0, np.nan, 1.0),
        (720.0, 1e-310, 1.0), (720.0, 7.0, np.nan)])
    def test_non_finite_or_non_positive_inputs(self, window_h, tau_days, share):
        freq = FrequencyTable({1: 500, 2: 300, 3: 150}, window_hours=window_h)
        surv = SurvivalTable(rows={"chrome": SurvivalRow(tau_days, 10, 2)})
        with pytest.raises(DomainError):
            adjust_for_churn(freq, surv, {"chrome": share}, loyalty_threshold=5)


class TestChurnMonotonicity:
    def test_faster_death_never_decreases_singleton_excess(self):
        from adlift.repeatbuy import NbdModel
        pop = PopulationSpec(k=0.8, m=2.5, users=50_000, window_hours=720.0)
        sample = gen_gamma_poisson(pop, seed=21)
        truth = NbdModel(k=0.8, m=2.5, fit_method="moments")
        excesses = []
        singletons = []
        for tau in (1.0e6, 14.0, 7.0, 2.0):
            churn = ChurnSpec(tau_days={"chrome": tau}, mix={"chrome": 1.0})
            events = apply_churn(sample, churn, seed=22)
            freq = build_frequency_table(events, window_hours=720.0)
            singletons.append(freq.observed(1))
            excesses.append(compare_frequencies(freq, truth).singleton_excess)
        assert singletons == sorted(singletons)
        assert all(b >= a - 1e-9 for a, b in zip(excesses, excesses[1:]))


class TestFrequencyTable:
    def test_rejects_zero_counts(self):
        with pytest.raises(DomainError):
            FrequencyTable({0: 10, 1: 5})

    def test_build_from_events(self):
        events = make_events([("a", "c", 0), ("a", "c", 10), ("b", "c", 5)])
        freq = build_frequency_table(events, window_hours=1.0)
        assert freq.counts == {1: 1, 2: 1}
        assert freq.total_cookies == 2
        assert freq.total_events == 3


# --- columnar estimators against the per-event dict loops they replaced ----


def survival_oracle(events, window, guard_days):
    """The per-event dict loop over (cookie_id, browser, timestamp) triples."""
    t0, t1 = window
    guard_s = guard_days * 86400.0
    first, last, browser_of = {}, {}, {}
    for cid, browser, ts in events:
        if not (t0 <= ts < t1):
            raise DomainError(f"event at {ts} outside window {window}")
        if cid not in first:
            first[cid] = last[cid] = ts
            browser_of[cid] = browser
        else:
            first[cid] = min(first[cid], ts)
            last[cid] = max(last[cid], ts)
    acc = {}
    for cid in first:
        censored = last[cid] >= t1 - guard_s
        total = acc.setdefault(browser_of[cid], [0.0, 0, 0])
        total[0] += last[cid] - first[cid]
        total[1] += 0 if censored else 1
        total[2] += 1 if censored else 0
    rows = {}
    for b, (total_s, deaths, censored) in sorted(acc.items()):
        total_days = total_s / 86400.0
        if deaths == 0:
            warnings.warn(f"browser {b!r}: all cookies censored; lifetime is a "
                          "lower bound", NoDeathsWarning)
            rows[b] = SurvivalRow(tau_days=total_days, deaths=0, censored=censored,
                                  no_deaths=True)
        else:
            tau = total_days / deaths
            rows[b] = SurvivalRow(tau_days=tau, deaths=deaths, censored=censored,
                                  degenerate=(tau == 0.0))
    return SurvivalTable(rows=rows)


def frequency_oracle(events):
    per_cookie = {}
    for cid, _, _ in events:
        per_cookie[cid] = per_cookie.get(cid, 0) + 1
    hist = {}
    for n in per_cookie.values():
        hist[n] = hist.get(n, 0) + 1
    return hist


def outcome(fn, *args):
    """(result or error message, warnings) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except DomainError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


WINDOW = (0, 30 * DAY)
EVENTS = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                            st.sampled_from(["chrome", "safari", "ff"]),
                            st.integers(-DAY, 31 * DAY)), max_size=30)


class TestColumnarEstimatorsMatchDictLoops:
    # cookie "a" starts on safari, then visits from chrome: it counts as safari
    @example([("a", "safari", DAY), ("a", "chrome", 2 * DAY), ("b", "chrome", 0),
              ("b", "chrome", 3 * DAY)], 1.0)
    # every chrome cookie is censored: NoDeathsWarning, lower-bound row
    @example([("a", "chrome", 20 * DAY), ("a", "chrome", 29 * DAY),
              ("b", "safari", DAY), ("b", "safari", 2 * DAY)], 7.0)
    # the first out-of-window event in input order is the one named
    @example([("a", "chrome", DAY), ("b", "chrome", 31 * DAY), ("c", "ff", -5)], 7.0)
    # the window is [t0, t1)
    @example([("a", "chrome", 0), ("a", "chrome", 30 * DAY)], 7.0)
    @example([], 7.0)
    @given(EVENTS, st.floats(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_survival_and_frequency(self, events, guard_days):
        batch = make_events(events)
        assert outcome(estimate_survival, batch, WINDOW, guard_days) \
            == outcome(survival_oracle, events, WINDOW, guard_days)
        assert build_frequency_table(batch).counts == frequency_oracle(events)

    def test_unused_labels_count_nowhere(self):
        batch = EventBatch([1, 1], ["never", "c"], [1, 1], ["opera", "chrome"],
                           [0, DAY])
        assert build_frequency_table(batch).counts == {2: 1}
        assert list(estimate_survival(batch, WINDOW).rows) == ["chrome"]
