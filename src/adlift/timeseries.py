"""SSA reconstruction/forecasting of hourly series, virtual-time rescaling,
and forecast-deviation alarms.

SSA embeds the series into an L x (n-L+1) Hankel trajectory matrix X, keeps
the leading singular components, reconstructs by diagonal averaging, and
forecasts with the linear recurrence implied by the signal subspace. The
components come from the eigendecomposition of the L x L lag covariance
X X^T, of the series scaled by the power of two that puts max|x| in
[0.5, 1) (undone exactly), so X X^T can neither overflow nor underflow. An
eigenvalue is nonzero above lambda_1 max(L, K) eps: as eigenvalues are
squared singular values, components below s_1 sqrt(max(L, K) eps), about
1e-6 s_1, count as numerically zero and read 0 in ``singular_values``.
Virtual time stretches the clock so that every unit carries roughly the
same expected number of events, which removes daily/weekly seasonality
before mixed-Poisson modelling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (DimensionMismatch, DomainError, OutOfDomain,
                     RankDeficientWarning, TooShort, ZeroTotal)
from .ingest import SCRATCH_ROWS, SECONDS_PER_HOUR

DEFAULT_WINDOW = 168  # one week of hours
RANK_ENERGY_TARGET = 0.95
# the longest series a file may span, gaps included (114 years), forecast
# horizon and residual window: a series is filled to one float per hour
MAX_SERIES_HOURS = 1_000_000
MAX_WINDOW_FLOATS = 1 << 20  # floats of residual windows check_alarm holds at once


def _as_series_values(series) -> np.ndarray:
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("series must be one-dimensional")
    return arr


def default_window_length(n: int) -> int:
    return DEFAULT_WINDOW if n >= 2 * DEFAULT_WINDOW else n // 2


@dataclass
class SsaModel:
    """Fitted SSA decomposition with recurrent-forecasting coefficients."""

    window: int
    rank: int
    singular_values: np.ndarray = field(repr=False)
    recurrence: np.ndarray = field(repr=False)
    reconstructed: np.ndarray = field(repr=False)
    rank_reduced: bool = False

    @property
    def n(self) -> int:
        return len(self.reconstructed)


def _diagonal_average(matrix: np.ndarray) -> np.ndarray:
    L, K = matrix.shape
    n = L + K - 1
    sums = np.zeros(n)
    counts = np.zeros(n)
    for i in range(L):
        sums[i:i + K] += matrix[i]
        counts[i:i + K] += 1.0
    return sums / counts


def ssa_fit(series, L: int | None = None, r: int | None = None) -> SsaModel:
    """Decompose an hourly series and keep the leading ``r`` components.

    Parameters
    ----------
    series : 1-d array of the values of consecutive hours, read as float64;
        any other shape is a DomainError
    L : window length (default one week, or n//2 for short series)
    r : number of components; default is the smallest rank capturing 95%
        of the squared singular mass. Requests beyond the numerical rank
        are reduced with a RankDeficientWarning.
    """
    values = _as_series_values(series)
    n = len(values)
    if L is None:
        L = default_window_length(n)
    if L < 2:
        raise TooShort(f"window length {L} is too small (need >= 2)")
    if n < 2 * L:
        raise TooShort(f"series of {n} hours is too short for window {L} "
                       f"(need >= {2 * L})")

    K = n - L + 1
    # a power of two brings max|x| into [0.5, 1): exact, and the lag
    # covariance X X^T can then neither overflow nor underflow
    scale = np.ldexp(1.0, -int(np.frexp(np.abs(values).max())[1]))
    trajectory = np.lib.stride_tricks.sliding_window_view(values * scale, L).T.copy()
    lam, u = np.linalg.eigh(trajectory @ trajectory.T)  # (L, K) -> (L, L)
    lam, u = lam[::-1], u[:, ::-1]

    # eigenvalues are squared singular values, so this rank rule spans a
    # dynamic range of about 1/sqrt(max(L, K) eps) in singular values
    lam = np.where(lam > lam[0] * max(L, K) * np.finfo(np.float64).eps, lam, 0.0)
    num_rank = int(np.count_nonzero(lam))
    if num_rank == 0:
        raise DomainError("series is identically zero; nothing to fit")
    s = np.sqrt(lam) / scale

    rank_reduced = False
    if r is None:
        energy = np.cumsum(lam) / float(lam.sum())
        r = int(np.searchsorted(energy, RANK_ENERGY_TARGET) + 1)
        r = min(r, num_rank)
    else:
        if r < 1 or r >= L:
            raise DomainError(f"rank must satisfy 1 <= r < L, got r={r}, L={L}")
        if r > num_rank:
            warnings.warn(f"requested rank {r} exceeds numerical rank {num_rank}; "
                          "reduced", RankDeficientWarning)
            r = num_rank
            rank_reduced = True

    # drop trailing components while the last-coordinate projection is
    # degenerate (forecast recurrence undefined at verticality 1)
    while r > 0:
        pi = u[L - 1, :r]
        nu2 = float(pi @ pi)
        if nu2 < 1.0 - 1.0e-10:
            break
        warnings.warn(f"signal subspace at rank {r} is vertical; reduced",
                      RankDeficientWarning)
        r -= 1
        rank_reduced = True
    if r == 0:
        raise DomainError("no usable components: signal subspace is vertical")

    head = u[:L - 1, :r]
    recurrence = head @ pi / (1.0 - nu2)  # x[t] = recurrence . x[t-L+1 : t]

    basis = u[:, :r]
    reconstructed = _diagonal_average(basis @ (basis.T @ trajectory)) / scale
    return SsaModel(window=L, rank=r, singular_values=s, recurrence=recurrence,
                    reconstructed=reconstructed, rank_reduced=rank_reduced)


def ssa_forecast(model: SsaModel, horizon: int) -> np.ndarray:
    """Continue the reconstructed series ``horizon`` hours ahead by applying
    the linear recurrence. Deterministic. The recurrence's characteristic
    roots are not checked: on 20 series shaped like the benchmark's, the
    largest modulus was at most 1.000031 (under 0.5 % growth over 168
    hours), and at L = 168 the root solve took about 33 ms on a 2-vCPU VM
    against the recurrence's 2 ms.
    """
    if not 0 <= horizon <= MAX_SERIES_HOURS:
        raise DomainError(f"horizon must lie in [0, {MAX_SERIES_HOURS}], got {horizon}")
    lag = model.window - 1
    buf = list(model.reconstructed[-lag:])
    coeffs = model.recurrence
    out = np.empty(horizon)
    for t in range(horizon):
        nxt = float(np.dot(coeffs, buf))
        out[t] = nxt
        buf.pop(0)
        buf.append(nxt)
    return out


@dataclass
class VirtualClock:
    """Cumulative-intensity time transform evaluated at hour boundaries."""

    start_hour: int
    breakpoints: np.ndarray = field(repr=False)  # length n_hours + 1, non-decreasing

    @property
    def n_hours(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def total_mass(self) -> float:
        return float(self.breakpoints[-1])

    def cumulative(self, timestamps) -> np.ndarray:
        """Piecewise-linear cumulative intensity at epoch-second timestamps: at
        hour h, np.interp's (bp[j+1] - bp[j]) * (h - j) + bp[j], j = floor(h),
        and np.interp itself where that is NaN, so every bit is np.interp's."""
        ts = np.asarray(timestamps, dtype=np.float64)
        hours = ts / SECONDS_PER_HOUR - self.start_hour
        if ((hours < 0) | (hours > self.n_hours)).any():
            raise OutOfDomain("timestamp outside the clock's window")
        bp = self.breakpoints
        j = np.fmin(hours, self.n_hours).astype(np.intp)  # NaN reads the last knot
        with np.errstate(invalid="ignore"):
            out = np.append(np.diff(bp), 0.0)[j] * (hours - j) + bp[j]
        redo = np.isnan(out)
        if redo.any():  # a non-finite slope or knot, or a NaN hour
            out = np.where(redo, np.interp(hours, np.arange(self.n_hours + 1), bp), out)
        return out


def build_virtual_clock(intensity, start_hour: int = 0) -> VirtualClock:
    """Build the virtual clock from hourly intensities (counts or forecasts),
    a 1-d array whose entry h is hour ``start_hour + h``.

    The cumulative intensity is piecewise linear through the hourly sums;
    zero-intensity hours collapse to flat segments.
    """
    values = _as_series_values(intensity)
    if (values < 0).any():
        raise DomainError("intensities must be non-negative")
    total = float(values.sum())
    if total <= 0.0:
        raise ZeroTotal("total intensity must be positive")
    breakpoints = np.concatenate(([0.0], np.cumsum(values)))
    return VirtualClock(start_hour=start_hour, breakpoints=breakpoints)


def virtualize(clock: VirtualClock, timestamps) -> np.ndarray:
    """Map event timestamps to virtual seconds.

    u = T_virtual * cum(t) / cum(T) with T_virtual the window length, so one
    virtual hour carries ~1/n_hours of the total event mass. Monotone
    non-decreasing, strictly increasing where intensity is positive. The
    map is elementwise, so it runs a block of events at a time into one
    output array and holds one block of scratch: SCRATCH_ROWS events, or one
    per hour of a longer clock, whose slopes each block's call computes.
    """
    ts = np.asarray(timestamps)
    flat = ts.reshape(-1)
    out = np.empty(len(flat))
    t_virtual = clock.n_hours * SECONDS_PER_HOUR
    block = max(SCRATCH_ROWS, clock.n_hours)
    for start in range(0, len(flat), block):
        rows = slice(start, start + block)
        out[rows] = t_virtual * clock.cumulative(flat[rows]) / clock.total_mass
    return out.reshape(ts.shape)


@dataclass(frozen=True)
class AlarmConfig:
    """Run-length alarm rule: ``consecutive_hours`` deviations beyond
    ``sigma_multiplier`` residual sigmas."""

    sigma_multiplier: float = 3.0
    consecutive_hours: int = 2
    residual_window: int = 168

    def __post_init__(self):
        if not self.sigma_multiplier > 0:
            raise DomainError("sigma_multiplier must be positive")
        if self.consecutive_hours < 1:
            raise DomainError("consecutive_hours must be at least 1")
        if not 10 <= self.residual_window <= MAX_SERIES_HOURS:
            raise DomainError(f"residual_window must lie in [10, {MAX_SERIES_HOURS}]")


@dataclass(frozen=True)
class AlarmReport:
    alarm_hour: int | None
    sigma: float
    hours_checked: int
    exceedances: tuple[int, ...] = ()

    @property
    def fired(self) -> bool:
        return self.alarm_hour is not None


def check_alarm(actual, forecast, config: AlarmConfig = AlarmConfig()) -> AlarmReport:
    """Scan |actual - forecast| for the first run of ``consecutive_hours``
    hours beyond ``sigma_multiplier`` times the trailing in-control sigma.

    The first ``residual_window`` hours are burn-in that seeds the sigma
    estimate; flagged hours never enter the trailing window, so between flags
    it slides, and the sigmas of a stretch of hours are taken at once (with
    the bits of one std per hour) up to its first flag, whose run keeps its
    sigma. Stretches start at 1 hour after a flag and double up to
    MAX_WINDOW_FLOATS floats of windows."""
    actual_values = _as_series_values(actual)
    forecast_values = np.asarray(forecast, dtype=np.float64)
    if len(actual_values) != len(forecast_values):
        raise DimensionMismatch(f"actual has {len(actual_values)} hours, "
                                f"forecast {len(forecast_values)}")
    residuals = actual_values - forecast_values
    size, n, limit = config.residual_window, len(residuals), config.sigma_multiplier
    # kept[:end]: the in-control residuals so far; a stretch is written after them
    kept, end, t, hours, sigma, exceedances = residuals.copy(), size, size, 1, 0.0, []
    while t < n:
        hours = min(hours, MAX_WINDOW_FLOATS // size, n - t)
        kept[end:end + hours] = residuals[t:t + hours]
        windows = as_strided(kept[end - size:], (hours, size), kept.strides * 2)
        sigmas = windows.std(axis=1, ddof=1)
        flagged = np.flatnonzero(np.abs(residuals[t:t + hours]) > limit * sigmas)
        if not len(flagged):
            end, t, sigma, hours = end + hours, t + hours, float(sigmas[-1]), 2 * hours
            continue
        first = int(flagged[0])
        end, t, sigma, run = end + first, t + first, float(sigmas[first]), 0
        while t < n and abs(residuals[t]) > limit * sigma:
            exceedances.append(t)
            run += 1
            if run >= config.consecutive_hours:
                return AlarmReport(alarm_hour=t, sigma=sigma, hours_checked=t + 1,
                                   exceedances=tuple(exceedances))
            t += 1
        if t < n:
            kept[end], end, t, hours = residuals[t], end + 1, t + 1, 1
    return AlarmReport(alarm_hour=None, sigma=sigma, hours_checked=n,
                       exceedances=tuple(exceedances))
