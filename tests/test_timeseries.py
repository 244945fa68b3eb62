import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided
from scipy import stats

from adlift import timeseries
from adlift.errors import (DimensionMismatch, DomainError, OutOfDomain,
                           RankDeficientWarning, TooShort, ZeroTotal)
from adlift.ingest import SCRATCH_ROWS, SECONDS_PER_HOUR
from adlift.synth import Harmonic, IntensitySpec, gen_inhomogeneous_poisson
from adlift.timeseries import (AlarmConfig, SsaModel, build_virtual_clock, check_alarm,
                               ssa_fit, ssa_forecast, virtualize)

from conftest import traced_peak

EPS = np.finfo(np.float64).eps


def reference_alarm(actual, forecast, config):
    """check_alarm as one sigma per hour over a deque of the trailing
    in-control residuals: the reference the stretch scan must match."""
    residuals = np.asarray(actual, dtype=np.float64) - np.asarray(forecast, dtype=np.float64)
    window = deque(maxlen=config.residual_window)
    run, sigma, exceedances = 0, 0.0, []
    for t, e in enumerate(residuals):
        if len(window) < config.residual_window:
            window.append(e)
            continue
        sigma = float(np.std(np.fromiter(window, dtype=np.float64), ddof=1))
        if abs(e) > config.sigma_multiplier * sigma:
            exceedances.append(t)
            run += 1
            if run >= config.consecutive_hours:
                return t, sigma, t + 1, exceedances
        else:
            run = 0
            window.append(e)
    return None, sigma, len(residuals), exceedances


def alarm_series(seed, n, size, pattern):
    """(actual, forecast) of ``n`` hours whose residuals are noise with
    spikes: none, a few, about half the hours, every other hour after the
    burn-in of ``size`` hours, or the benchmark's shape (Poisson counts about
    a daily harmonic, against that harmonic)."""
    rng = np.random.default_rng(seed)
    hours = np.arange(n)
    if pattern == "bench":
        forecast = 40.0 + 20.0 * np.sin(2 * np.pi * hours / 24)
        return rng.poisson(forecast).astype(np.float64), forecast
    actual = rng.normal(0.0, rng.uniform(0.1, 100.0), n) + rng.uniform(-1e3, 1e3)
    spikes = {"none": np.zeros(n, bool),
              "sparse": rng.random(n) < 0.02,
              "dense": rng.random(n) < 0.5,
              "alternate": (hours > size) & (hours % 2 == 0)}[pattern]
    actual[spikes] += rng.choice([-1.0, 1.0], int(spikes.sum())) * rng.uniform(
        1.0, 1e4, int(spikes.sum()))
    return actual, np.full(n, actual[:size].mean() if n else 0.0)


class TestSsaFit:
    def test_constant_series_rank_one(self):
        model = ssa_fit(np.full(100, 4.25), L=12, r=1)
        assert np.abs(model.reconstructed - 4.25).max() < 1e-10

    def test_constant_forecast(self):
        model = ssa_fit(np.full(100, 4.25), L=12, r=1)
        assert np.abs(ssa_forecast(model, 24) - 4.25).max() < 1e-10

    def test_noiseless_daily_harmonic(self):
        t = np.arange(480.0)
        x = np.sin(2 * np.pi * t / 24.0 + 0.3)
        model = ssa_fit(x, L=48, r=2)
        assert np.abs(model.reconstructed - x).max() < 1e-8

    def test_harmonic_forecast_exact(self):
        t = np.arange(480.0)
        x = np.sin(2 * np.pi * t / 24.0 + 0.3)
        model = ssa_fit(x, L=48, r=2)
        forecast = ssa_forecast(model, 24)
        truth = np.sin(2 * np.pi * np.arange(480.0, 504.0) / 24.0 + 0.3)
        assert np.abs(forecast - truth).max() < 1e-6

    def test_trend_plus_weekly_rank4(self):
        t = np.arange(720.0)
        x = 50.0 + 0.02 * t + 8.0 * np.sin(2 * np.pi * t / 168.0 + 1.0)
        model = ssa_fit(x, L=168, r=4)
        residual_var = np.var(x - model.reconstructed)
        assert residual_var <= 0.01 * np.var(x)

    def test_trend_plus_weekly_forecast(self):
        t = np.arange(720.0)
        x = 50.0 + 0.02 * t + 8.0 * np.sin(2 * np.pi * t / 168.0 + 1.0)
        model = ssa_fit(x, L=168, r=4)
        forecast = ssa_forecast(model, 168)
        tt = np.arange(720.0, 888.0)
        truth = 50.0 + 0.02 * tt + 8.0 * np.sin(2 * np.pi * tt / 168.0 + 1.0)
        rel_rmse = np.sqrt(np.mean((forecast - truth) ** 2) / np.mean(truth ** 2))
        assert rel_rmse < 0.05

    def test_full_numerical_rank_reproduces_series(self):
        t = np.arange(200.0)
        x = 5.0 + 2.0 * np.sin(2 * np.pi * t / 24.0)  # exact rank 3
        sv = ssa_fit(x, L=20).singular_values
        num_rank = int((sv > sv[0] * max(20, 181) * np.finfo(float).eps).sum())
        model = ssa_fit(x, L=20, r=num_rank)
        assert np.abs(model.reconstructed - x).max() < 1e-10

    def test_diagonal_averaging_preserves_mean_at_full_rank(self):
        t = np.arange(200.0)
        x = 5.0 + 2.0 * np.sin(2 * np.pi * t / 24.0)
        model = ssa_fit(x, L=20, r=3)
        assert abs(model.reconstructed.mean() - x.mean()) < 1e-10

    def test_rank_beyond_numerical_rank_reduced_with_warning(self):
        x = np.full(100, 3.0)  # numerical rank 1
        with pytest.warns(RankDeficientWarning):
            model = ssa_fit(x, L=10, r=5)
        assert model.rank == 1
        assert model.rank_reduced

    def test_too_short(self):
        with pytest.raises(TooShort):
            ssa_fit(np.arange(100.0), L=60)

    def test_rank_bounds_validated(self):
        with pytest.raises(DomainError):
            ssa_fit(np.arange(100.0), L=10, r=10)
        with pytest.raises(DomainError):
            ssa_fit(np.arange(100.0), L=10, r=0)

    def test_default_window_length(self):
        model = ssa_fit(np.sin(np.arange(400.0) / 5), L=None, r=2)
        assert model.window == 168
        model = ssa_fit(np.sin(np.arange(100.0) / 5), L=None, r=2)
        assert model.window == 50

    def test_forecast_horizon_zero(self):
        model = ssa_fit(np.full(50, 2.0), L=5, r=1)
        assert len(ssa_forecast(model, 0)) == 0


def svd_fit(x, L, r):
    """ssa_fit by the singular value decomposition of the trajectory matrix,
    with its rank rule s_i > s_1 max(L, K) eps: the reference for the fit
    from the lag covariance. Returns the model and its verticality nu^2."""
    K = len(x) - L + 1
    u, s, vt = np.linalg.svd(np.lib.stride_tricks.sliding_window_view(x, L).T,
                             full_matrices=False)
    tol = s[0] * max(L, K) * EPS if s[0] > 0 else 0.0
    num_rank = int((s > tol).sum())
    if num_rank == 0:
        raise DomainError("series is identically zero; nothing to fit")
    rank_reduced = False
    if r is None:
        energy = np.cumsum(s ** 2) / float((s ** 2).sum())
        r = min(int(np.searchsorted(energy, timeseries.RANK_ENERGY_TARGET) + 1), num_rank)
    elif r > num_rank:
        warnings.warn(f"requested rank {r} exceeds numerical rank {num_rank}; "
                      "reduced", RankDeficientWarning)
        r, rank_reduced = num_rank, True
    while r > 0:
        pi = u[L - 1, :r]
        nu2 = float(pi @ pi)
        if nu2 < 1.0 - 1.0e-10:
            break
        warnings.warn(f"signal subspace at rank {r} is vertical; reduced",
                      RankDeficientWarning)
        r, rank_reduced = r - 1, True
    if r == 0:
        raise DomainError("no usable components: signal subspace is vertical")
    model = SsaModel(window=L, rank=r, singular_values=s,
                     recurrence=u[:L - 1, :r] @ pi / (1.0 - nu2),
                     reconstructed=timeseries._diagonal_average((u[:, :r] * s[:r]) @ vt[:r]),
                     rank_reduced=rank_reduced)
    return model, nu2


def fitted(fit, x, L, r):
    """``fit(x, L, r)``, or the DomainError it raised, and the (category,
    message) of each warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fit(x, L, r)
        except DomainError as e:
            result = e
    return result, [(w.category, str(w.message)) for w in caught]


def drawn_series(kind, seed, n):
    rng = np.random.default_rng(seed)
    t = np.arange(float(n))
    if kind == "poisson":
        return rng.poisson(rng.uniform(0.1, 100.0), n).astype(np.float64)
    if kind == "harmonics":
        periods = rng.choice([7.5, 12.0, 24.0, 168.0], rng.integers(1, 4), replace=False)
        return (rng.uniform(-10.0, 100.0) + rng.normal(0.0, rng.uniform(0.01, 5.0), n)
                + sum(rng.uniform(0.1, 20.0) * np.sin(2 * np.pi * t / p + rng.uniform(0, 7))
                      for p in periods))
    if kind == "gaussian":
        return rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0), n)
    return np.full(n, rng.uniform(-1e3, 1e3))


@st.composite
def ssa_cases(draw):
    """(series, L, r): Poisson counts, harmonics plus noise, Gaussian noise or
    a constant, any window L in [2, n//2] and r None or in [1, L)."""
    n = draw(st.integers(4, 400))
    x = drawn_series(draw(st.sampled_from(["poisson", "harmonics", "gaussian", "constant"])),
                     draw(st.integers(0, 2**32 - 1)), n)
    L = draw(st.integers(2, n // 2))
    return x, L, draw(st.none() | st.integers(1, L - 1))


T480, T720 = np.arange(480.0), np.arange(720.0)
CONSTANT = (np.full(100, 4.25), 12, None)
SINUSOID = (np.sin(2 * np.pi * T480 / 24.0 + 0.3), 48, None)  # rank 2
TREND_WEEKLY = (50.0 + 0.02 * T720 + 8.0 * np.sin(2 * np.pi * T720 / 168.0 + 1.0), 168, 4)


class TestSsaFitMatchesSvd:
    @given(case=ssa_cases())
    @example(case=CONSTANT)
    @example(case=SINUSOID)
    @example(case=TREND_WEEKLY)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_svd_oracle(self, case):
        # where no singular value lies between the two rank rules and each
        # rank k the fit cuts at separates s_k^2 from s_(k+1)^2 by 1e-9 s_1^2
        # (at a tie neither decomposition fixes the subspace): the same ranks,
        # errors and warnings, and a fit within 1e-9 of max|x|; the forecast
        # within 1e-9 of the larger of max|x| and the forecast's own size
        # over 1 - nu^2, the recurrence's denominator
        x, L, r = case
        want, want_warnings = fitted(svd_fit, x, L, r)
        s = np.linalg.svd(np.lib.stride_tricks.sliding_window_view(x, L).T, compute_uv=False)
        K, rank = len(x) - L + 1, 0 if isinstance(want, DomainError) else want[0].rank
        vertical = sum("vertical" in message for _, message in want_warnings)
        cuts = range(max(rank, 1), min(rank + vertical, L - 1) + 1)
        if not (((s <= s[0] * max(L, K) * EPS) | (s >= 1e-5 * s[0])).all()
                and all(s[k - 1] ** 2 - s[k] ** 2 >= 1e-9 * s[0] ** 2 for k in cuts)):
            return
        got, got_warnings = fitted(ssa_fit, x, L, r)
        assert got_warnings == want_warnings
        if isinstance(want, DomainError):
            assert isinstance(got, DomainError) and str(got) == str(want)
            return
        want, nu2 = want
        assert (got.rank, got.rank_reduced) == (want.rank, want.rank_reduced)
        top = np.abs(x).max()
        assert np.abs(got.reconstructed - want.reconstructed).max() <= 1e-9 * top
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = ssa_forecast(want, 24)
            deviation = np.abs(ssa_forecast(got, 24) - expected).max()
        assert deviation <= 1e-9 * max(top, np.abs(expected).max()) / (1.0 - nu2)

    @given(case=ssa_cases(), k=st.integers(1, 1000) | st.integers(-1000, -1))
    @example(case=CONSTANT, k=1000)
    @example(case=SINUSOID, k=-1000)
    @example(case=TREND_WEEKLY, k=1)
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, case, k):
        def exact(values):  # no subnormal or infinite value, which would round
            values = np.abs(values[values != 0])
            return np.isfinite(values).all() and (values >= np.finfo(np.float64).tiny).all()

        x, L, r = case
        with np.errstate(over="ignore", under="ignore"):
            scaled = x * 2.0 ** k
        if not exact(scaled):
            return
        (base, warned), (other, other_warned) = fitted(ssa_fit, x, L, r), fitted(ssa_fit, scaled, L, r)
        assert other_warned == warned
        if isinstance(base, DomainError):
            assert str(other) == str(base)
            return
        with np.errstate(over="ignore", under="ignore"):
            want = base.reconstructed * 2.0 ** k
        if exact(np.concatenate([base.reconstructed, want])):
            assert other.rank == base.rank
            assert other.reconstructed.tobytes() == want.tobytes()

    @pytest.mark.parametrize("magnitude", [1e300, 1e-300, 1e-170])
    def test_extreme_magnitudes_match_the_oracle(self, magnitude):
        # X X^T of these overflows or underflows unless the series is scaled
        x = (1.0 + np.random.default_rng(3).random(400)) * magnitude
        (want, _), want_warnings = fitted(svd_fit, x, 168, 3)
        got, got_warnings = fitted(ssa_fit, x, 168, 3)
        assert (got.rank, got_warnings) == (want.rank, want_warnings)
        assert np.abs(got.reconstructed - want.reconstructed).max() <= 1e-9 * x.max()

    def test_rank_rule_spans_about_1e6_of_singular_values(self):
        # deliberately changed: a component below s_1 sqrt(max(L, K) eps), about
        # 6e-7 s_1 here, is numerically zero; the SVD rule kept all 47
        x = (1e3 + 0.01 * np.arange(972.0)
             + np.random.default_rng(2).normal(0.0, 1e-3, 972))
        (want, _), want_warnings = fitted(svd_fit, x, 191, 47)
        got, got_warnings = fitted(ssa_fit, x, 191, 47)
        assert (want.rank, want_warnings) == (47, [])
        assert (got.rank, got.rank_reduced) == (2, True)
        assert got_warnings == [(RankDeficientWarning,
                                 "requested rank 47 exceeds numerical rank 2; reduced")]
        assert (got.singular_values[2:] == 0).all()
        assert np.abs(got.reconstructed - want.reconstructed).max() <= 1e-5 * x.max()


class TestVirtualClock:
    def test_flat_intensity_identity_clock(self):
        clock = build_virtual_clock(np.full(10, 3.0))
        ts = np.array([0.0, 1800.0, 3600.0, 7200.0, 36000.0])
        assert np.allclose(virtualize(clock, ts), ts)

    def test_single_hot_hour_maps_to_full_range(self):
        clock = build_virtual_clock([0.0, 5.0, 0.0])
        # the hot hour's boundaries span the whole virtual range
        v = virtualize(clock, np.array([3600.0, 7200.0]))
        assert v[0] == 0.0
        assert v[1] == pytest.approx(3 * 3600.0)
        # events in the dead hours collapse onto the flat ends
        v2 = virtualize(clock, np.array([0.0, 1800.0, 9000.0]))
        assert v2[0] == v2[1] == 0.0
        assert v2[2] == pytest.approx(3 * 3600.0)

    def test_cumulative_matches_generator(self):
        spec = IntensitySpec(n_hours=48, base=10.0,
                             harmonics=(Harmonic(24.0, 4.0, 0.7),))
        clock = build_virtual_clock(spec.hourly_integrals())
        mass = spec.hourly_integrals()
        assert clock.total_mass == pytest.approx(float(mass.sum()))
        assert np.allclose(np.diff(clock.breakpoints), mass)

    @given(values=st.lists(st.sampled_from([0.0, 0.5, 3.0, 1e308, np.inf, np.nan])
                           | st.floats(0.0, 1e6), min_size=1, max_size=8),
           start=st.integers(-3, 3),
           stamps=st.lists(st.integers(0, 8).map(float) | st.floats(0.0, 8.0)
                           | st.sampled_from([-0.0, np.nan]), max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_cumulative_is_np_interp_bit_for_bit(self, values, start, stamps):
        with np.errstate(over="ignore"):
            bp = np.concatenate(([0.0], np.cumsum(values)))
        clock = timeseries.VirtualClock(start_hour=start, breakpoints=bp)
        ts = (np.array(stamps) + start) * SECONDS_PER_HOUR
        hours = ts / SECONDS_PER_HOUR - start
        ts = ts[~((hours < 0) | (hours > clock.n_hours))]
        want = np.interp(ts / SECONDS_PER_HOUR - start, np.arange(clock.n_hours + 1), bp)
        assert clock.cumulative(ts).tobytes() == want.tobytes()
        for t, w in zip(ts[:1], want):  # and a scalar timestamp
            assert np.float64(clock.cumulative(t)).tobytes() == w.tobytes()

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotal):
            build_virtual_clock(np.zeros(5))

    def test_negative_intensity_rejected(self):
        with pytest.raises(DomainError):
            build_virtual_clock(np.array([1.0, -0.5, 2.0]))

    def test_out_of_domain(self):
        clock = build_virtual_clock(np.full(2, 1.0))
        with pytest.raises(OutOfDomain):
            virtualize(clock, np.array([-1.0]))
        with pytest.raises(OutOfDomain):
            virtualize(clock, np.array([2 * 3600.0 + 1.0]))

    def test_empty_events(self):
        clock = build_virtual_clock(np.full(2, 1.0))
        assert len(virtualize(clock, np.empty(0))) == 0

    @pytest.mark.parametrize("n_hours", [720, SCRATCH_ROWS + 3])
    def test_blocks_give_the_bits_of_one_pass(self, rng, n_hours):
        # blocks of SCRATCH_ROWS events, or of one per hour of a longer
        # clock, and a partial last block
        clock = build_virtual_clock(rng.poisson(5.0, n_hours).astype(float) + 0.5)
        n = 2 * max(SCRATCH_ROWS, n_hours) + 17
        ts = rng.integers(0, n_hours * SECONDS_PER_HOUR + 1, n)
        want = n_hours * SECONDS_PER_HOUR * clock.cumulative(ts) / clock.total_mass
        assert virtualize(clock, ts).tobytes() == want.tobytes()
        ts[-1] = n_hours * SECONDS_PER_HOUR + 1
        with pytest.raises(OutOfDomain):
            virtualize(clock, ts)

    def test_holds_its_output_plus_one_block(self, rng):
        # 5.1 vectors of SCRATCH_ROWS floats measured beyond the output
        ts = np.sort(rng.integers(0, 720 * SECONDS_PER_HOUR, 4 * SCRATCH_ROWS))
        clock = build_virtual_clock(rng.poisson(5.0, 720).astype(float) + 0.5)
        virtual, peak = traced_peak(virtualize, clock, ts)
        assert peak < virtual.nbytes + 6 * 8 * SCRATCH_ROWS

    def test_monotone_nondecreasing(self, rng):
        values = rng.random(24) * np.array([1.0] * 20 + [0.0] * 4)
        clock = build_virtual_clock(values)
        ts = np.sort(rng.random(500) * 24 * 3600.0)
        v = virtualize(clock, ts)
        assert np.all(np.diff(v) >= 0)

    def test_time_rescaling_yields_exponential_gaps(self):
        spec = IntensitySpec(n_hours=240, base=42.0,
                             harmonics=(Harmonic(24.0, 33.0, 0.4),))
        times_h = gen_inhomogeneous_poisson(spec, seed=2)
        clock = build_virtual_clock(spec.hourly_integrals())
        virtual = virtualize(clock, times_h * SECONDS_PER_HOUR)
        gaps = np.diff(np.concatenate([[0.0], virtual]))
        ks = stats.kstest(gaps, "expon", args=(0, gaps.mean()))
        assert ks.pvalue > 0.01

    def test_virtual_hour_dispersion_homogenized(self):
        spec = IntensitySpec(n_hours=240, base=42.0,
                             harmonics=(Harmonic(24.0, 33.0, 0.4),))
        times_h = gen_inhomogeneous_poisson(spec, seed=2)
        clock = build_virtual_clock(spec.hourly_integrals())
        virtual = virtualize(clock, times_h * SECONDS_PER_HOUR)
        vh = np.clip((virtual / SECONDS_PER_HOUR).astype(int), 0, 239)
        counts = np.bincount(vh, minlength=240)
        dispersion = counts.var(ddof=1) / counts.mean()
        assert 0.8 <= dispersion <= 1.2


class TestCheckAlarm:
    def test_no_alarm_when_identical(self):
        actual = np.full(300, 10.0)
        report = check_alarm(actual, actual, AlarmConfig(residual_window=100))
        assert not report.fired

    def test_step_change_detected_next_hour(self, rng):
        n, step_at = 400, 300
        sigma = 2.0
        residuals = rng.normal(0, sigma, n)
        forecast = np.full(n, 50.0)
        actual = forecast + residuals
        actual[step_at:] += 10 * sigma
        report = check_alarm(actual, forecast,
                             AlarmConfig(sigma_multiplier=3.0, consecutive_hours=2,
                                         residual_window=168))
        assert report.fired
        assert report.alarm_hour == step_at + 1

    def test_single_spike_no_alarm_with_run_of_two(self, rng):
        n = 400
        forecast = np.full(n, 50.0)
        actual = forecast + rng.normal(0, 1.0, n) * 0.5
        actual[250] += 20.0
        report = check_alarm(actual, forecast,
                             AlarmConfig(sigma_multiplier=3.0, consecutive_hours=2,
                                         residual_window=168))
        assert not report.fired
        assert 250 in report.exceedances

    def test_flagged_hours_do_not_contaminate_sigma(self, rng):
        n = 500
        forecast = np.zeros(n)
        actual = rng.normal(0, 1.0, n)
        actual[300:] += 10.0
        report = check_alarm(actual, forecast, AlarmConfig(residual_window=168))
        assert report.fired
        assert report.sigma < 2.0  # estimated from in-control hours only

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_alarm(np.zeros(10), np.zeros(11))

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(10, 200),
           extra=st.one_of(st.integers(-10, 1), st.integers(2, 400)),
           consecutive=st.integers(1, 4), multiplier=st.sampled_from([0.5, 1.0, 3.0]),
           pattern=st.sampled_from(["none", "sparse", "dense", "alternate"]))
    @example(seed=42, size=168, extra=2000 - 168, consecutive=2, multiplier=3.0,
             pattern="bench")
    @example(seed=1, size=168, extra=2000 - 168, consecutive=1000, multiplier=3.0,
             pattern="alternate")
    @settings(max_examples=300, deadline=None)
    def test_matches_the_hourly_loop(self, seed, size, extra, consecutive, multiplier,
                                     pattern):
        # series of n <= W hours (nothing checked), n = W + 1, and longer ones
        # with no, sparse, dense and alternating flags, against one sigma per
        # hour over a deque: the same hours, exceedances and sigma bits
        n = max(size + extra, 0)
        actual, forecast = alarm_series(seed, n, size, pattern)
        config = AlarmConfig(sigma_multiplier=multiplier, consecutive_hours=consecutive,
                             residual_window=size)
        report = check_alarm(actual, forecast, config)
        alarm_hour, sigma, hours_checked, exceedances = reference_alarm(
            actual, forecast, config)
        assert report.alarm_hour == alarm_hour
        assert report.hours_checked == hours_checked
        assert list(report.exceedances) == exceedances
        assert np.float64(report.sigma).view(np.int64) == np.float64(sigma).view(np.int64)

    def test_stretches_stay_within_the_window_bound(self, monkeypatch):
        # with room for 2 windows of 50 hours, a series with few flags is
        # scanned 1 or 2 hours at a time and gives the same report
        actual, forecast = alarm_series(3, 600, 50, "sparse")
        config = AlarmConfig(residual_window=50, consecutive_hours=3)
        expected = check_alarm(actual, forecast, config)
        shapes = []

        def recorded(x, shape, strides, **kwargs):
            shapes.append(shape)
            return as_strided(x, shape, strides, **kwargs)

        monkeypatch.setattr(timeseries, "MAX_WINDOW_FLOATS", 2 * 50 + 49)
        monkeypatch.setattr(timeseries, "as_strided", recorded)
        assert check_alarm(actual, forecast, config) == expected
        assert {rows for rows, _ in shapes} == {1, 2}

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AlarmConfig(sigma_multiplier=0.0)
        with pytest.raises(DomainError):
            AlarmConfig(consecutive_hours=0)
        with pytest.raises(DomainError):
            AlarmConfig(residual_window=5)

    def test_false_alarm_rate_in_control(self, rng):
        # c=3, h=2 on clean gaussian residuals: well under 0.5%/hour
        hours = 0
        alarms = 0
        for rep in range(30):
            n = 1000
            actual = rng.normal(0, 1.0, n)
            report = check_alarm(actual, np.zeros(n),
                                 AlarmConfig(residual_window=168))
            hours += report.hours_checked - 168
            alarms += int(report.fired)
        assert alarms / hours < 0.005
