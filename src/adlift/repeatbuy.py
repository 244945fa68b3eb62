"""Gamma-Poisson (NBD) repeat-visit models, cookie survival estimation and
churn correction.

Visit counts per window follow the negative binomial in the classic
repeat-buying parameterization (shape k, window mean m). Because the total
population of potential visitors is undefined, every fit is zero-truncated:
only identities with at least one observed event enter the likelihood.
Cookie deletion splits one user into several observed identities, inflating
low-frequency counts; ``adjust_for_churn`` inverts that distortion under a
per-browser exponential lifetime model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy import optimize, stats
from scipy.special import betainc, gammaln

from .errors import (DegenerateData, DomainError, InconsistentInputs,
                     NoConvergence, NoDeathsWarning, NumericalError)
from .ingest import EventBatch

HOURS_PER_DAY = 24.0
SECONDS_PER_DAY = 86400.0

# beyond this shape the NBD is numerically Poisson and not identifiable
K_DEGENERATE = 1.0e4

OPT_TOL = 1.0e-6
OPT_MAX_EVALS = 10_000


class FrequencyTable:
    """Cookies by exact event count n >= 1 within an observation window."""

    def __init__(self, counts: Mapping[int, int], window_hours: float | None = None):
        self.counts = {int(n): int(c) for n, c in sorted(counts.items()) if c > 0}
        if any(n < 1 for n in self.counts):
            raise DomainError("frequency table is zero-truncated: n >= 1 only")
        if any(c < 0 for c in counts.values()):
            raise DomainError("frequency counts must be non-negative")
        self.window_hours = float(window_hours) if window_hours is not None else None

    @property
    def total_cookies(self) -> int:
        return sum(self.counts.values())

    @property
    def total_events(self) -> int:
        return sum(n * c for n, c in self.counts.items())

    @property
    def max_n(self) -> int:
        return max(self.counts) if self.counts else 0

    def observed(self, n: int) -> int:
        return self.counts.get(n, 0)

    def scaled(self, factor: int) -> "FrequencyTable":
        return FrequencyTable({n: c * factor for n, c in self.counts.items()},
                              self.window_hours)


def build_frequency_table(events: EventBatch,
                          window_hours: float | None = None) -> FrequencyTable:
    """Histogram events-per-cookie into a zero-truncated frequency table."""
    hist = np.bincount(np.bincount(events.cookies)).tolist()
    return FrequencyTable({n: c for n, c in enumerate(hist) if n}, window_hours)


@dataclass(frozen=True)
class GofReport:
    """Pooled chi-square goodness of fit (expected >= 5 per bin)."""

    statistic: float
    dof: int
    pvalue: float
    n_bins: int


@dataclass(frozen=True)
class NbdModel:
    """Fitted Gamma-Poisson parameters: shape k, events-per-window mean m."""

    k: float
    m: float
    fit_method: str
    gof: GofReport | None = None
    loglik: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.m)
                and self.k > 0 and self.m > 0):
            raise DomainError(f"k and m must be finite positive, got k={self.k}, m={self.m}")

    @property
    def variance(self) -> float:
        return self.m * (1.0 + self.m / self.k)


def nbd_pmf(k: float, m: float, n) -> float | np.ndarray:
    """Negative binomial pmf in the (shape k, mean m) parameterization.

    P(n) = Gamma(k+n)/(Gamma(k) n!) * (k/(k+m))^k * (m/(k+m))^n.
    """
    if not (k > 0 and m > 0) or not (math.isfinite(k) and math.isfinite(m)):
        raise DomainError(f"k and m must be finite positive, got k={k}, m={m}")
    n_arr = np.asarray(n)
    if (n_arr < 0).any() or not np.issubdtype(n_arr.dtype, np.integer) \
            and not np.allclose(n_arr, np.round(n_arr)):
        raise DomainError("n must be a non-negative integer")
    n_arr = n_arr.astype(np.float64)
    log_p = (gammaln(k + n_arr) - gammaln(k) - gammaln(n_arr + 1.0)
             + k * math.log(k / (k + m)) + n_arr * math.log(m / (k + m)))
    out = np.exp(log_p)
    return float(out) if np.isscalar(n) or out.ndim == 0 else out


def nbd_zero_truncated_pmf(k: float, m: float, n) -> float | np.ndarray:
    """Pmf conditioned on n >= 1."""
    p0 = float(nbd_pmf(k, m, 0))
    return nbd_pmf(k, m, n) / (1.0 - p0)


def _pooled_chi_square(observed: Mapping[int, int], expected_probs: np.ndarray,
                       total: int, n_params: int) -> GofReport:
    """Pearson chi-square with ascending-n pooling to expected >= 5.

    ``expected_probs[i]`` is the model probability of n = i + 1; leftover
    mass beyond the last index goes to the final bin. Bins are closed in
    Python only while the expected mass from n on can still close one; the
    rest is added into the last bin by cumulative sums, which add in the
    order of the loop and so give the same bits.
    """
    n_max = len(expected_probs)
    exp_counts = expected_probs * total
    tail = max(total - float(exp_counts.sum()), 0.0)
    obs_counts = np.zeros(n_max)
    ns = [n for n in observed if 1 <= n <= n_max]
    obs_counts[np.array(ns, dtype=np.int64) - 1] = [observed[n] for n in ns]
    # expected mass from each n on; the margin covers its rounding and that
    # of the loop's sums (about 1e-10 relative for 10^6 terms), and a NaN
    # scans on, as the loop would
    rest = np.cumsum(exp_counts[::-1])[::-1] * (1.0 + 1e-6)

    bins: list[tuple[float, float]] = []
    acc_o = acc_e = 0.0
    n = 0
    while n < n_max and not acc_e + rest[n] < 5.0:
        acc_o += obs_counts[n]
        acc_e += exp_counts[n]
        n += 1
        if acc_e >= 5.0:
            bins.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    acc_o = np.cumsum(np.r_[acc_o, obs_counts[n:]])[-1]
    acc_e = np.cumsum(np.r_[acc_e, exp_counts[n:]])[-1]
    # leftover accumulation and the infinite tail fold into the last bin
    if bins:
        last_o, last_e = bins[-1]
        bins[-1] = (last_o + acc_o, last_e + acc_e + tail)
    else:
        bins = [(acc_o, acc_e + tail)]

    stat = float(sum((o - e) ** 2 / e for o, e in bins if e > 0))
    dof = len(bins) - 1 - n_params
    pvalue = float(stats.chi2.sf(stat, dof)) if dof >= 1 else float("nan")
    return GofReport(statistic=stat, dof=dof, pvalue=pvalue, n_bins=len(bins))


def _zt_poisson_mle(mean_observed: float) -> float:
    """Solve lam / (1 - exp(-lam)) = mean_observed by Newton iteration."""
    if mean_observed <= 1.0:
        return 1.0e-9
    lam = mean_observed
    for _ in range(100):
        em = math.exp(-lam)
        f = lam / (1.0 - em) - mean_observed
        fp = ((1.0 - em) - lam * em) / (1.0 - em) ** 2
        step = f / fp
        lam -= step
        if abs(step) < 1.0e-12:
            break
    return max(lam, 1.0e-9)


def _detruncated_moments(freq: FrequencyTable) -> tuple[float, float] | None:
    """Method-of-moments (k, m) from zero-truncated data, or None if the
    implied untruncated variance never exceeds the mean."""
    total = freq.total_cookies
    mean_o = freq.total_events / total
    ex2_o = sum(n * n * c for n, c in freq.counts.items()) / total
    p0 = 0.0
    for _ in range(100):
        mean_u = mean_o * (1.0 - p0)
        var_u = ex2_o * (1.0 - p0) - mean_u ** 2
        if var_u <= mean_u:
            return None
        k = mean_u ** 2 / (var_u - mean_u)
        m = mean_u
        p0_new = float(nbd_pmf(k, m, 0))
        if abs(p0_new - p0) < 1.0e-10:
            return k, m
        p0 = p0_new
    return k, m


def fit_nbd_moments(freq: FrequencyTable) -> NbdModel:
    """De-truncated method-of-moments NBD fit.

    Matches the mean and variance implied by the zero-truncated sample.
    Less efficient than the likelihood fit but insensitive to the inflated
    singleton bin, which makes it the reference for churn-effect
    comparisons: on churned data the likelihood fit chases the singleton
    excess it is supposed to expose (down to the k -> 0 log-series
    boundary), while the moments fit keeps tracking the bulk shape.
    """
    if len(freq.counts) < 3 or freq.total_cookies < 100:
        raise DegenerateData(
            f"need >= 3 distinct counts and >= 100 cookies, got "
            f"{len(freq.counts)} distinct / {freq.total_cookies} cookies",
            poisson_mean=_zt_poisson_mle(freq.total_events / max(freq.total_cookies, 1))
            if freq.total_cookies else None)
    init = _detruncated_moments(freq)
    if init is None:
        raise DegenerateData(
            "variance does not exceed mean after de-truncation; NBD not "
            "identifiable, use the Poisson fallback",
            poisson_mean=_zt_poisson_mle(freq.total_events / freq.total_cookies))
    k, m = init
    p0 = float(nbd_pmf(k, m, 0))
    probs = np.asarray(nbd_pmf(k, m, np.arange(1, freq.max_n + 1))) / (1.0 - p0)
    gof = _pooled_chi_square(freq.counts, probs, freq.total_cookies, n_params=2)
    return NbdModel(k=float(k), m=float(m), fit_method="moments", gof=gof)


def fit_nbd_truncated(freq: FrequencyTable, min_count: int = 1) -> NbdModel:
    """Maximum-likelihood truncated NBD fit.

    The likelihood is prod_n [P(n)/P(N >= min_count)]^c_n over counts
    n >= min_count, maximized over (log k, log m) by Nelder-Mead and
    initialized from de-truncated method of moments. The default
    min_count=1 is the plain zero-truncated fit; min_count=2 anchors the
    fit on the bulk and is the reference for singleton-inflation
    diagnostics (the churn signature would otherwise drag the fit itself).
    Raises DegenerateData (with a zero-truncated Poisson fallback mean
    attached) when no overdispersion is identifiable, and DegenerateData
    when the fit is so far into the log-series boundary that
    P(N >= min_count) rounds to 0; NoConvergence on optimizer failure.
    """
    model = _truncated_mle(freq, min_count)
    pmf_low = np.asarray(nbd_pmf(model.k, model.m, np.arange(0, min_count)))
    norm = 1.0 - float(pmf_low.sum())
    if not norm > 0:
        # far into the log-series boundary (k -> 0, m -> 0) P(N < min_count)
        # rounds to 1, and the truncated pmf of the fit is 0/0
        raise DegenerateData(f"fitted shape k={model.k:.3g} is at the log-series "
                             f"boundary: P(N >= {min_count}) rounds to 0; NBD not "
                             "identifiable")
    probs = np.asarray(nbd_pmf(model.k, model.m,
                               np.arange(min_count, freq.max_n + 1))) / norm
    shifted = {n - min_count + 1: c for n, c in freq.counts.items() if n >= min_count}
    gof = _pooled_chi_square(shifted, probs, sum(shifted.values()), n_params=2)
    return replace(model, gof=gof)


def _truncated_mle(freq: FrequencyTable, min_count: int) -> NbdModel:
    """``fit_nbd_truncated`` without its goodness of fit, whose pmf runs
    over every n up to ``freq.max_n``."""
    if min_count < 1:
        raise DomainError("min_count must be at least 1")
    counts = {n: c for n, c in freq.counts.items() if n >= min_count}
    total = sum(counts.values())
    mean_all = freq.total_events / max(freq.total_cookies, 1)
    if len(counts) < 3 or total < 100:
        raise DegenerateData(
            f"need >= 3 distinct counts >= {min_count} and >= 100 cookies, got "
            f"{len(counts)} distinct / {total} cookies",
            poisson_mean=_zt_poisson_mle(mean_all) if total else None)

    if min_count == 1:
        init = _detruncated_moments(freq)
        if init is None:
            raise DegenerateData(
                "variance does not exceed mean after de-truncation; NBD not "
                "identifiable, use the Poisson fallback",
                poisson_mean=_zt_poisson_mle(mean_all))
    else:
        mean_r = sum(n * c for n, c in counts.items()) / total
        ex2_r = sum(n * n * c for n, c in counts.items()) / total
        var_r = ex2_r - mean_r ** 2
        init = ((mean_r ** 2 / (var_r - mean_r), mean_r) if var_r > mean_r
                else (1.0, mean_r))

    ns = np.array(sorted(counts), dtype=np.float64)
    cs = np.array([counts[int(n)] for n in ns], dtype=np.float64)
    below = np.arange(0, min_count)

    def nll(x: np.ndarray) -> float:
        k = math.exp(x[0])
        m = math.exp(x[1])
        log_ratio_k = math.log(k / (k + m))
        log_p = (gammaln(k + ns) - gammaln(k) - gammaln(ns + 1.0)
                 + k * log_ratio_k + ns * math.log(m / (k + m)))
        mass_below = float(np.exp(
            gammaln(k + below) - gammaln(k) - gammaln(below + 1.0)
            + k * log_ratio_k + below * math.log(m / (k + m))).sum())
        if mass_below >= 1.0:
            return 1.0e12
        log_trunc = math.log1p(-mass_below)
        # normalized per cookie so the objective is scale-free in counts
        return float(-(cs * (log_p - log_trunc)).sum() / total)

    x0 = np.array([math.log(init[0]), math.log(init[1])])
    res = optimize.minimize(nll, x0, method="Nelder-Mead",
                            options={"xatol": OPT_TOL, "fatol": OPT_TOL,
                                     "maxfev": OPT_MAX_EVALS})
    if not res.success:
        raise NoConvergence(f"truncated NBD fit did not converge: {res.message}")
    k_hat = float(math.exp(res.x[0]))
    m_hat = float(math.exp(res.x[1]))
    if k_hat > K_DEGENERATE:
        raise DegenerateData(
            f"fitted shape k={k_hat:.3g} is in the Poisson regime; NBD not "
            "identifiable", poisson_mean=_zt_poisson_mle(mean_all))

    return NbdModel(k=k_hat, m=m_hat, fit_method="truncated_mle",
                    loglik=-res.fun * total)


@dataclass(frozen=True)
class FrequencyComparison:
    """Observed vs model-expected cookies per visit count."""

    rows: tuple[tuple[int, int, float, float], ...]  # (n, observed, expected, residual)
    gof: GofReport
    singleton_excess: float


def compare_frequencies(observed: FrequencyTable, model: NbdModel) -> FrequencyComparison:
    """Compare an observed frequency table against a fitted NBD.

    Expected counts use the zero-truncated pmf. The chi-square here treats
    the model as externally given (dof = bins - 1); the signed singleton
    excess observed(1) - expected(1) is the churn signature.
    """
    total = observed.total_cookies
    n_max = observed.max_n
    probs = np.asarray(nbd_zero_truncated_pmf(model.k, model.m,
                                              np.arange(1, n_max + 1)))
    rows = []
    for i, n in enumerate(range(1, n_max + 1)):
        exp = float(probs[i] * total)
        obs = observed.observed(n)
        rows.append((n, obs, exp, obs - exp))
    gof = _pooled_chi_square(observed.counts, probs, total, n_params=0)
    singleton_excess = float(observed.observed(1) - probs[0] * total) if n_max >= 1 \
        else 0.0
    return FrequencyComparison(rows=tuple(rows), gof=gof,
                               singleton_excess=singleton_excess)


# --- cookie survival --------------------------------------------------------


@dataclass(frozen=True)
class SurvivalRow:
    tau_days: float
    deaths: int
    censored: int
    no_deaths: bool = False
    degenerate: bool = False


@dataclass
class SurvivalTable:
    """Per-browser mean cookie lifetime with censoring bookkeeping."""

    rows: dict[str, SurvivalRow]

    def mean_tau_days(self, mix: Mapping[str, float]) -> float:
        return sum(p * self.rows[b].tau_days for b, p in mix.items())


def estimate_survival(events: EventBatch, window: tuple[int, int],
                      guard_days: float = 7.0) -> SurvivalTable:
    """Censored-exponential cookie lifetime estimate per browser.

    A cookie's observed lifetime is last_seen - first_seen, and its browser
    is the browser of its first event in input order. Cookies last seen
    within ``guard_days`` of the window end are right-censored. The
    exponential MLE is total observed lifetime (censored included) divided
    by the number of deaths; with zero deaths the total itself is reported
    as a lower bound and flagged. DomainError names the first event outside
    the window.
    """
    t0, t1 = window
    guard_s = guard_days * SECONDS_PER_DAY
    ts = events.timestamps
    outside = np.flatnonzero((ts < t0) | (ts >= t1))
    if len(outside):
        raise DomainError(f"event at {int(ts[outside[0]])} outside window {window}")
    # a stable sort keeps each cookie's events in input order, and cookies in
    # code order, so the per-browser sums add lifetimes in first-seen order
    order = np.argsort(events.cookies, kind="stable")
    starts = np.flatnonzero(np.diff(events.cookies[order], prepend=-1))
    by_cookie = ts[order]
    first = np.minimum.reduceat(by_cookie, starts)
    last = np.maximum.reduceat(by_cookie, starts)
    browser = events.browsers[order[starts]]
    censored = last >= t1 - guard_s
    n_browsers = len(events.browser_labels)
    totals = np.bincount(browser, weights=last - first, minlength=n_browsers).tolist()
    deaths = np.bincount(browser[~censored], minlength=n_browsers).tolist()
    n_censored = np.bincount(browser[censored], minlength=n_browsers).tolist()

    rows: dict[str, SurvivalRow] = {}
    for label, b in sorted((label, b) for b, label in enumerate(events.browser_labels)
                           if deaths[b] + n_censored[b]):
        total_days = totals[b] / SECONDS_PER_DAY
        if deaths[b] == 0:
            warnings.warn(f"browser {label!r}: all cookies censored; lifetime is a "
                          "lower bound", NoDeathsWarning)
            rows[label] = SurvivalRow(tau_days=total_days, deaths=0,
                                      censored=n_censored[b], no_deaths=True)
        else:
            tau = total_days / deaths[b]
            rows[label] = SurvivalRow(tau_days=tau, deaths=deaths[b],
                                      censored=n_censored[b], degenerate=(tau == 0.0))
    return SurvivalTable(rows=rows)


# --- churn adjustment -------------------------------------------------------


@dataclass(frozen=True)
class ChurnAdjustment:
    """De-churned NBD parameters plus loyalty accounting."""

    k: float
    m: float
    true_users: float
    missing_loyal: float
    objective: float
    n_evals: int
    identities_per_user: float


# Gauss-Legendre nodes per browser for the segment-length integral, and the
# segment length, in mean lifetimes, where it is cut: longer segments are a
# fraction e^-40 of all
SEGMENT_NODES = 64
MAX_LIFETIMES = 40.0


def _segment_quadrature(lifetime: float) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths f (fractions of the window) and weights (expected
    segments per user) that integrate over one user's cookie segments when a
    cookie lives an exponential time of mean ``lifetime`` windows.

    With t = ``lifetime``, completed segments have density
    (1/t)e^(-f/t)(1 + (1-f)/t) on (0, 1), the window-censored last segments
    (1/t)e^(-f/t), and the first cookie outlives the window with probability
    e^(-1/t), an atom at f = 1. The nodes run over v = f/t, where the density
    is e^(-v)(2 + 1/t - v), up to min(1/t, MAX_LIFETIMES). The weights sum to
    1 + 1/t, the expected segments per user.
    """
    v, w = np.polynomial.legendre.leggauss(SEGMENT_NODES)
    half = min(1.0 / lifetime, MAX_LIFETIMES) / 2.0
    v = half * (v + 1.0)
    w = half * w * np.exp(-v) * (2.0 + 1.0 / lifetime - v)
    return np.append(lifetime * v, 1.0), np.append(w, math.exp(-1.0 / lifetime))


def _identities_above(k: float, m: float, lengths: np.ndarray, segments: np.ndarray,
                      ns: np.ndarray) -> np.ndarray:
    """Expected identities per user with more than n events, for each n in
    ``ns``: the ``segments``-weighted sum over segment ``lengths`` f of
    P(N > n) = I_q(n + 1, k) for N ~ NBD(k, m f), q = m f / (k + m f)."""
    mu = m * lengths
    return segments @ betainc(ns + 1.0, k, (mu / (k + mu))[:, None])


def adjust_for_churn(freq: FrequencyTable, survival: SurvivalTable,
                     browser_mix: Mapping[str, float],
                     loyalty_threshold: int) -> ChurnAdjustment:
    """Recover de-churned NBD parameters and count missing loyal users.

    Searches (k, m) so that the churn model's expected frequency table --
    cookies die at per-browser exponential times, each segment becoming a
    separate identity -- best matches the observed table in chi-square
    distance. A segment covering a fraction f of the window has an
    NBD(k, m f) count, so the expected identities above each pooled bin are
    a quadrature of NBD survival functions over the segment lengths of
    every browser (see ``_segment_quadrature``): exact up to the quadrature,
    with no simulation. The true-user count U is observed cookies divided
    by the model's visible identities per user; missing loyal users are the
    positive part of U * P_NBD(n) - observed(n) summed over n >= threshold.
    Raises DomainError for a window or lifetime that is not finite and
    positive or a mix that is not a distribution over the survival
    table's browsers, DegenerateData for a de-churned k above K_DEGENERATE
    (the Poisson regime), and NumericalError for a non-finite result.
    """
    if loyalty_threshold < 2:
        raise DomainError("loyalty_threshold must be at least 2")
    window_h = freq.window_hours
    if window_h is None:
        raise InconsistentInputs("frequency table has no window length")
    if not (math.isfinite(window_h) and window_h > 0):
        raise DomainError(f"window must be finite and positive, got {window_h} hours")
    if not freq.counts:
        raise DegenerateData("frequency table is empty")
    weights = list(browser_mix.values())
    # NaN fails p >= 0, and an infinite weight the sum
    if not all(p >= 0 for p in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise DomainError("browser mix must be finite, non-negative and sum to 1")
    lengths, segments = [], []
    for b in sorted(browser_mix):
        if b not in survival.rows:
            raise DomainError(f"browser {b!r} in mix but not in survival table")
        tau_h = survival.rows[b].tau_days * HOURS_PER_DAY
        if not (0 < tau_h < math.inf and window_h / tau_h < math.inf):
            raise DomainError(f"browser {b!r}: lifetime of {survival.rows[b].tau_days} "
                              f"days is not finite and positive, or too short for a "
                              f"{window_h}h window")
        f, w = _segment_quadrature(tau_h / window_h)
        lengths.append(f)
        segments.append(browser_mix[b] * w)
    lengths, segments = np.concatenate(lengths), np.concatenate(segments)

    tau_mean_h = survival.mean_tau_days(browser_mix) * HOURS_PER_DAY
    deaths_per_user = window_h / tau_mean_h
    # below one mean lifetime the correction is unreliable -- unless churn
    # is so slow it is absent altogether, in which case the search simply
    # degenerates to the plain zero-truncated fit
    if 0.05 < deaths_per_user < 1.0:
        raise InconsistentInputs(
            f"window of {window_h:.0f}h is shorter than the mean cookie "
            f"lifetime {tau_mean_h:.0f}h; churn is unidentifiable, adjustment skipped")

    total = freq.total_cookies
    n_cap = freq.max_n

    # fixed pooling (observed >= 5, ascending n) keeps the objective smooth;
    # the open tail beyond n_cap is observed empty
    pool_edges: list[int] = []
    obs_bins: list[int] = []
    acc = 0
    for n, c in freq.counts.items():
        acc += c
        if acc >= 5:
            pool_edges.append(n)
            obs_bins.append(acc)
            acc = 0
    if not pool_edges or pool_edges[-1] != n_cap:
        pool_edges.append(n_cap)
        obs_bins.append(acc)
    obs_arr = np.array(obs_bins + [0], dtype=np.float64)
    edges = np.array([0, *pool_edges], dtype=np.float64)

    eval_count = 0

    def objective(x: np.ndarray) -> float:
        nonlocal eval_count
        eval_count += 1
        s = _identities_above(*np.exp(x), lengths, segments, edges)
        exp_arr = np.maximum(np.append(s[:-1] - s[1:], s[-1]) * (total / s[0]),
                             1.0e-9)
        return float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())

    # the chi-square surface has a shallow spurious basin at the k -> 0
    # boundary (zero-truncation degeneracy), so pick the starting basin by
    # coarse grid search before the local simplex search
    mean_per_cookie = freq.total_events / total
    m_anchor = mean_per_cookie * (1.0 + deaths_per_user)
    candidates = [(k0, m_anchor * f)
                  for k0 in (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4)
                  for f in (0.125, 0.25, 0.5, 1.0, 2.0)]
    try:
        naive = _truncated_mle(freq, 1)
        candidates.append((min(max(naive.k, 0.05), 100.0),
                           naive.m * (1.0 + deaths_per_user)))
    except DegenerateData:
        pass
    best = min(candidates,
               key=lambda km: objective(np.log(np.asarray(km))))
    x0 = np.array([math.log(best[0]), math.log(best[1])])
    simplex = np.array([x0, x0 + [0.5, 0.0], x0 + [0.0, 0.5]])
    res = optimize.minimize(objective, x0, method="Nelder-Mead",
                            options={"xatol": OPT_TOL, "fatol": OPT_TOL,
                                     "maxfev": OPT_MAX_EVALS,
                                     "initial_simplex": simplex})
    if not res.success:
        raise NoConvergence(f"churn adjustment search did not converge: {res.message}")
    k_hat, m_hat = map(float, np.exp(res.x))
    if k_hat > K_DEGENERATE:
        raise DegenerateData(
            f"de-churned shape k={k_hat:.3g} is in the Poisson regime; NBD not "
            "identifiable", poisson_mean=_zt_poisson_mle(freq.total_events / total))
    identities_per_user = float(_identities_above(k_hat, m_hat, lengths, segments,
                                                  edges[:1])[0])
    true_users = total / identities_per_user if identities_per_user > 0 else math.inf
    if not all(map(math.isfinite, (k_hat, m_hat, true_users, res.fun))):
        raise NumericalError(f"churn adjustment is not finite: k={k_hat}, m={m_hat}, "
                             f"true users {true_users}, objective {res.fun}")

    # sum_{n >= threshold} max(U P(n) - observed(n), 0): the whole model mass
    # U P(N >= threshold) less min(U P(n), observed(n)) at each observed n
    loyal = np.array([(n, c) for n, c in freq.counts.items() if n >= loyalty_threshold],
                     dtype=np.float64).reshape(-1, 2)
    model = true_users * nbd_pmf(k_hat, m_hat, loyal[:, 0])
    missing = (true_users * float(betainc(loyalty_threshold, k_hat, m_hat / (k_hat + m_hat)))
               - float(np.minimum(model, loyal[:, 1]).sum()))
    return ChurnAdjustment(k=k_hat, m=m_hat, true_users=true_users,
                           missing_loyal=missing, objective=float(res.fun),
                           n_evals=eval_count, identities_per_user=identities_per_user)
