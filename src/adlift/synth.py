"""Seeded generators for every statistical object in the system.

All generators are pure functions of (spec, seed) using numpy's PCG64
generator (``np.random.default_rng``) with 64-bit seeds, so streams are
reproducible across runs and platforms. These generators double as the
independent oracles for the estimator tests: planted effects, known
Gamma-Poisson parameters, known churn rates, known intensity profiles.

A spec is BadSpec when it asks for more than MAX_COUNT requests or users,
for more hours than timeseries.MAX_SERIES_HOURS (the longest series that
forecast and virtualize read), when a population's drawn means or an
intensity's envelope over its hours expect more than MAX_COUNT events, when
a cookie lifetime in the churn mix expects more than MAX_COUNT deaths per
user in the population's window, or when a population's window is 2^63
seconds or more; each is checked before any per-event array is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadSpec
from .ingest import (HOURS_PER_DAY, SCRATCH_ROWS, SECONDS_PER_HOUR, EventBatch,
                     FactorDictionary, RequestBatch, Schema, id_dtype)
from .timeseries import MAX_SERIES_HOURS

# the most requests, users, hours or expected events a spec may ask for:
# each costs memory
MAX_COUNT = 10**9


def _positive(value: float) -> bool:
    """Whether ``value`` is a positive finite number (NaN is not)."""
    return 0.0 < value < math.inf


def _count(value, key: str, bound: int) -> int:
    """``value`` of ``key``; BadSpec unless it is an integer up to ``bound``."""
    if type(value) is not int or value > bound:
        raise BadSpec(f"{key} must be an integer no larger than {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class FactorSpec:
    """One categorical factor: level probabilities and per-level log-odds effects."""

    name: str
    levels: tuple[str, ...]
    probs: tuple[float, ...]
    effects: tuple[float, ...]

    def __post_init__(self):
        if not self.levels:
            raise BadSpec(f"factor {self.name!r}: needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise BadSpec(f"factor {self.name!r}: duplicate levels")
        if len(self.probs) != len(self.levels) or len(self.effects) != len(self.levels):
            raise BadSpec(f"factor {self.name!r}: probs/effects length mismatch")
        if not (all(p >= 0 for p in self.probs) and abs(sum(self.probs) - 1.0) <= 1e-9):
            raise BadSpec(f"factor {self.name!r}: probs must be non-negative and sum to 1")
        if not all(map(math.isfinite, self.effects)):
            raise BadSpec(f"factor {self.name!r}: effects must be finite")


@dataclass(frozen=True)
class RequestSpec:
    """Request generator: independent factors, logistic link for the label."""

    n: int
    base_rate: float
    factors: tuple[FactorSpec, ...]

    def __post_init__(self):
        if self.n < 0:
            raise BadSpec("request count must be non-negative")
        if not 0.0 < self.base_rate < 1.0:
            raise BadSpec("base_rate must lie strictly inside (0, 1)")
        if not self.factors:
            raise BadSpec("at least one factor is required")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names) or "label" in names:
            raise BadSpec("factor names must be distinct and not 'label'")

    def schema(self) -> Schema:
        return Schema(factor_columns=tuple(f.name for f in self.factors),
                      label_column="label")


@dataclass(frozen=True)
class PopulationSpec:
    """Gamma-Poisson visit population: shape k, mean m events per window."""

    k: float
    m: float
    users: int
    window_hours: float

    def __post_init__(self):
        if not (_positive(self.k) and _positive(self.m)):
            raise BadSpec("k and m must be positive")
        if not (self.users > 0 and _positive(self.window_hours)):
            raise BadSpec("users and window_hours must be positive")
        if self.window_hours * SECONDS_PER_HOUR >= 2**63:
            raise BadSpec(f"window_hours must be below 2^63 seconds, got "
                          f"{self.window_hours}")


@dataclass(frozen=True)
class ChurnSpec:
    """Per-browser exponential cookie lifetimes and the browser mix."""

    tau_days: dict[str, float]
    mix: dict[str, float]

    def __post_init__(self):
        if not self.mix:
            raise BadSpec("browser mix must be non-empty")
        if set(self.mix) - set(self.tau_days):
            raise BadSpec("every browser in the mix needs a tau_days entry")
        if not all(map(_positive, self.tau_days.values())):
            raise BadSpec("cookie lifetimes must be positive")
        if not (all(p >= 0 for p in self.mix.values())
                and abs(sum(self.mix.values()) - 1.0) <= 1e-9):
            raise BadSpec("mix must be non-negative and sum to 1")

    @property
    def browsers(self) -> list[str]:
        return sorted(self.mix)


@dataclass(frozen=True)
class Harmonic:
    period_hours: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not _positive(self.period_hours):
            raise BadSpec("harmonic period must be positive")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.phase)):
            raise BadSpec("harmonic amplitude and phase must be finite")


@dataclass(frozen=True)
class IntensitySpec:
    """Hourly event intensity: base + linear trend + sinusoidal harmonics."""

    n_hours: int
    base: float
    trend: float = 0.0
    harmonics: tuple[Harmonic, ...] = ()

    def __post_init__(self):
        if _count(self.n_hours, "n_hours", MAX_SERIES_HOURS) <= 0:
            raise BadSpec("n_hours must be positive")
        if not (math.isfinite(self.base) and math.isfinite(self.trend)):
            raise BadSpec("intensity base and trend must be finite")

    def value(self, t: np.ndarray | float) -> np.ndarray | float:
        """Intensity (events/hour) at time t hours."""
        v = self.base + self.trend * np.asarray(t, dtype=np.float64)
        for h in self.harmonics:
            v = v + h.amplitude * np.sin(2.0 * math.pi * np.asarray(t) / h.period_hours
                                         + h.phase)
        return v

    def hourly_integrals(self) -> np.ndarray:
        """Exact integral of the intensity over each hour [h, h+1)."""
        h = np.arange(self.n_hours, dtype=np.float64)
        total = self.base + self.trend * (h + 0.5)
        for hm in self.harmonics:
            w = 2.0 * math.pi / hm.period_hours
            total = total + hm.amplitude / w * (np.cos(w * h + hm.phase)
                                                - np.cos(w * (h + 1) + hm.phase))
        return total

    def envelope(self) -> float:
        """Upper bound of the intensity over [0, n_hours]."""
        peak = self.base + max(0.0, self.trend * self.n_hours)
        peak += sum(abs(h.amplitude) for h in self.harmonics)
        return peak


@dataclass(frozen=True)
class SynthSpec:
    """Bundle of generator specs, loadable from a JSON document."""

    seed: int = 0
    requests: RequestSpec | None = None
    population: PopulationSpec | None = None
    churn: ChurnSpec | None = None
    intensity: IntensitySpec | None = None

    def __post_init__(self):
        if self.population is None or self.churn is None:
            return
        # a user's deaths in the window number MAX_COUNT or so at most, so no
        # Poisson mean passes numpy's limit and no cookie id wraps
        shortest = min(self.churn.tau_days[b] for b, p in self.churn.mix.items() if p > 0)
        if self.population.window_hours / (shortest * HOURS_PER_DAY) > MAX_COUNT:
            raise BadSpec(f"a cookie lifetime of {shortest:.3g} days expects more than "
                          f"{MAX_COUNT} deaths per user in {self.population.window_hours} "
                          f"hours")

    @classmethod
    def from_doc(cls, doc: dict) -> "SynthSpec":
        requests = population = churn = intensity = None
        if "requests" in doc:
            r = doc["requests"]
            requests = RequestSpec(
                n=_count(r["n"], "n", MAX_COUNT), base_rate=float(r["base_rate"]),
                factors=tuple(FactorSpec(name=f["name"], levels=tuple(f["levels"]),
                                         probs=tuple(float(p) for p in f["probs"]),
                                         effects=tuple(float(e) for e in f["effects"]))
                              for f in r["factors"]))
        if "population" in doc:
            p = doc["population"]
            population = PopulationSpec(k=float(p["k"]), m=float(p["m"]),
                                        users=_count(p["users"], "users", MAX_COUNT),
                                        window_hours=float(p["window_hours"]))
        if "churn" in doc:
            c = doc["churn"]
            churn = ChurnSpec(tau_days={b: float(t) for b, t in c["tau_days"].items()},
                              mix={b: float(x) for b, x in c["mix"].items()})
        if "intensity" in doc:
            i = doc["intensity"]
            intensity = IntensitySpec(
                n_hours=i["n_hours"], base=float(i["base"]),
                trend=float(i.get("trend", 0.0)),
                harmonics=tuple(Harmonic(period_hours=float(h["period_hours"]),
                                         amplitude=float(h["amplitude"]),
                                         phase=float(h.get("phase", 0.0)))
                                for h in i.get("harmonics", ())))
        return cls(seed=int(doc.get("seed", 0)), requests=requests,
                   population=population, churn=churn, intensity=intensity)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, computed as 1/(1+e^-x) for x >= 0 and as
    e^x/(1+e^x) below, so that no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# a level-draw table has at most 2^MAX_CELL_BITS cells (see _draw_levels)
MAX_CELL_BITS = 16


def _draw_levels(rng: np.random.Generator, probs: Sequence[float], edges: np.ndarray,
                 u: np.ndarray, cells: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with level ids drawn with ``probs``, consuming one
    ``rng.random(len(out))`` in blocks of SCRATCH_ROWS draws; ``u`` and
    ``cells`` are scratch buffers of one block, and ``edges`` are the
    k/size, k = 0..size, of a power-of-two size.

    A draw u takes level ``count(cdf <= u)``, the level that
    ``rng.choice(len(probs), p=probs)`` returns for the same stream. The
    draws are sorted into ``size`` equal cells of [0, 1) (the guide
    table of Chen & Asau's indexed search): ``lo`` holds each cell's level
    at its left edge, which is every draw's level in a cell that holds no
    cdf value, so only the draws in the other cells need a binary search.
    """
    cdf = np.array(probs).cumsum()
    cdf /= cdf[-1]
    size = len(edges) - 1
    lo = cdf.searchsorted(edges[:-1], side="right").astype(out.dtype)
    mixed = cdf.searchsorted(edges[1:], side="left") > lo
    search = np.count_nonzero(mixed)
    for start in range(0, len(out), SCRATCH_ROWS):
        ids = out[start:start + SCRATCH_ROWS]
        draws, cell = u[:len(ids)], cells[:len(ids)]
        rng.random(out=draws)
        # u * 2^k is exact, so its integer part is the draw's cell
        np.multiply(draws, size, out=cell, casting="unsafe")
        lo.take(cell, out=ids)
        if search:
            rows = mixed.take(cell).nonzero()[0]
            ids[rows] = cdf.searchsorted(draws[rows], side="right")


def gen_requests(spec: RequestSpec, seed: int) -> tuple[FactorDictionary, RequestBatch]:
    """Draw labeled requests: independent factor levels, logistic label link.

    Each factor's levels are inverse-CDF draws from one ``rng.random(n)``,
    identical to ``rng.choice(levels, size=n, p=probs)``, and the label is
    Bernoulli with log-odds logit(base_rate) plus the planted per-level
    effects of the drawn levels, so a spec and seed give the same requests
    as they always have. Each factor's ids are drawn straight into its
    contiguous column of the batch's column-major matrix, whose type is
    ``id_dtype`` of the level counts. The uniforms, the log-odds and the
    labels are taken ``ingest.SCRATCH_ROWS`` rows at a time: the stream is
    sequential, so blocks draw the values one draw of n would, and the
    set-up holds the matrix, the labels and one block of scratch.
    """
    rng = np.random.default_rng(seed)
    n, m = spec.n, len(spec.factors)
    widest = max(len(f.levels) for f in spec.factors)
    # a table of about sqrt(n * L) cells costs about as much to build as
    # the searches it saves
    size = 1 << min(MAX_CELL_BITS, (n * widest).bit_length() // 2)
    edges = np.arange(size + 1) / size
    factors = np.empty((n, m), dtype=id_dtype([widest]), order="F")
    block = min(n, SCRATCH_ROWS)
    u, logits, cells = np.empty(block), np.empty(block), np.empty(block, dtype=np.intp)
    for f, ids in zip(spec.factors, factors.T):
        _draw_levels(rng, f.probs, edges, u, cells, ids)
    del cells
    base = math.log(spec.base_rate / (1.0 - spec.base_rate))
    effects = [np.asarray(f.effects) for f in spec.factors]
    labels = np.empty(n, dtype=np.int8)
    for start in range(0, n, SCRATCH_ROWS):
        rows = slice(start, min(n, start + SCRATCH_ROWS))
        logit, draws = logits[:rows.stop - start], u[:rows.stop - start]
        logit.fill(base)
        for effect, ids in zip(effects, factors.T):
            logit += effect[ids[rows]]
        rng.random(out=draws)
        labels[rows] = draws < _sigmoid(logit)
    dictionary = FactorDictionary([f.name for f in spec.factors],
                                  [list(f.levels) for f in spec.factors])
    return dictionary, RequestBatch(factors, labels)


@dataclass
class PopulationSample:
    """Per-user event counts and flat event times (hours from window start).

    ``times[offsets[u]:offsets[u+1]]`` are user u's event times, sorted.
    """

    counts: np.ndarray
    times: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @property
    def users(self) -> int:
        return len(self.counts)


def gen_gamma_poisson(spec: PopulationSpec, seed: int) -> PopulationSample:
    """Simulate each user's homogeneous Poisson stream with Gamma intensity.

    Window totals lambda_u * T are Gamma(shape k, mean m), so per-window
    counts are marginally NBD(k, m). Event times are uniform on the window
    given the count.
    """
    rng = np.random.default_rng(seed)
    means = rng.gamma(shape=spec.k, scale=spec.m / spec.k, size=spec.users)
    if not means.sum() <= MAX_COUNT:
        raise BadSpec(f"the users' drawn means sum to {means.sum():.3g} events, "
                      f"more than {MAX_COUNT}")
    counts = rng.poisson(means).astype(np.int64)
    offsets = np.zeros(spec.users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    times = rng.random(total)
    times *= spec.window_hours
    # one int64 sort of user * total + (the time's rank among all times)
    # orders each user's times as lexsort((times, user)) does; both factors
    # are near MAX_COUNT at most, so the key cannot overflow
    order = times.argsort()
    key = np.empty(total, np.int64)
    key[order] = np.arange(total)
    times = times[order]
    del order
    base = np.repeat(np.arange(spec.users, dtype=np.int64) * total, counts)
    key += base
    key.sort()
    key -= base
    del base
    return PopulationSample(counts=counts, times=times[key], offsets=offsets)


def apply_churn(sample: PopulationSample, churn: ChurnSpec, seed: int) -> EventBatch:
    """Split each user's event stream into cookie identities at exponential
    death times.

    Each segment between consecutive deaths gets a fresh cookie id; events
    are conserved, only identities change. Timestamps are epoch seconds.
    The event columns are built in place where a step allows it: the cookie
    and browser codes come out int32, as the EventBatch stores them.
    """
    rng = np.random.default_rng(seed)
    browsers = churn.browsers
    mix = np.array([churn.mix[b] for b in browsers])
    taus_h = np.array([churn.tau_days[b] * HOURS_PER_DAY for b in browsers])

    users = sample.users
    browser_idx = rng.choice(len(browsers), size=users, p=mix)
    tau_user = taus_h[browser_idx]

    # users and events number MAX_COUNT at most, so int32 holds their indices
    ev_user = np.repeat(np.arange(users, dtype=np.int32), sample.counts)
    ev_time = sample.times
    active = sample.counts > 0
    heads = sample.offsets[:-1][active]  # each user's first event

    # deaths form a rate-1/tau Poisson process, so the death count in each
    # inter-event gap is Poisson(gap/tau); an event's segment index is the
    # cumulative death count up to it, less that before its user's first
    # event. A user's first gap runs from the window's start.
    gaps = np.empty(len(ev_time))
    np.subtract(ev_time[1:], ev_time[:-1], out=gaps[1:])
    gaps[heads] = ev_time[heads]
    gaps /= tau_user[ev_user]
    seg = rng.poisson(gaps)
    del gaps
    first_deaths = seg[heads]
    np.cumsum(seg, out=seg)
    seg -= np.repeat(seg[heads] - first_deaths, sample.counts[active])
    del heads, first_deaths

    # a user's segment is a run of consecutive events: cookie u{u}s{s}
    new_cookie = np.ones(len(seg), dtype=bool)
    np.not_equal(ev_user[1:], ev_user[:-1], out=new_cookie[1:])
    new_cookie[1:] |= seg[1:] != seg[:-1]
    cookies = np.cumsum(new_cookie, dtype=np.int32)
    cookies -= 1
    keys = _cookie_keys(ev_user[new_cookie], seg[new_cookie])
    del seg, new_cookie
    browser_codes = browser_idx.astype(np.int32)[ev_user]
    del ev_user
    ts = np.empty(len(ev_time), np.int64)
    np.multiply(ev_time, SECONDS_PER_HOUR, out=ts, casting="unsafe")
    return EventBatch(cookies, keys, browser_codes, browsers, ts)


# 10^1 .. 10^18: an int64 v >= 0 has 1 + count(_TENS <= v) decimal digits
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)


def _cookie_keys(users: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """The cookie ids ``u{user}s{segment}`` of non-negative integer ``users``
    and ``segments`` as an ``S`` array, its bytes written SCRATCH_ROWS keys
    at a time in place."""
    width = 2 + sum(len(str(int(v.max(initial=0)))) for v in (users, segments))
    keys = np.zeros((len(users), width), np.uint8)
    keys[:, 0] = ord("u")
    for start in range(0, len(keys), SCRATCH_ROWS):
        rows = slice(start, start + SCRATCH_ROWS)
        flat = keys[rows].reshape(-1)
        # a key's user digits follow its "u", its "s" follows them, and its
        # segment digits follow its "s"
        ends = np.arange(0, len(flat), width)
        ends += 1 + _TENS.searchsorted(users[rows], side="right")
        _put_digits(flat, ends, users[rows])
        flat[ends + 1] = ord("s")
        ends += 2 + _TENS.searchsorted(segments[rows], side="right")
        _put_digits(flat, ends, segments[rows])
    return keys.view(f"S{width}").ravel()


def _put_digits(flat: np.ndarray, ends: np.ndarray, values: np.ndarray) -> None:
    """Write the decimal digits of non-negative ``values`` into ``flat``,
    each value's last digit at its entry of ``ends``."""
    values = values.astype(np.int64)
    while len(values):
        flat[ends] = values % 10 + ord("0")
        values //= 10
        more = values > 0
        values, ends = values[more], ends[more] - 1


def gen_inhomogeneous_poisson(spec: IntensitySpec, seed: int) -> np.ndarray:
    """Simulate an inhomogeneous Poisson process by thinning.

    Candidates arrive at the constant envelope rate and are accepted with
    probability intensity(t)/envelope, which is exact for any bounded
    intensity. Returns sorted event times in hours.
    """
    rng = np.random.default_rng(seed)
    t_max = float(spec.n_hours)
    grid = np.linspace(0.0, t_max, 4 * spec.n_hours + 1)
    values = np.asarray(spec.value(grid))
    if (values < -1e-9).any():
        raise BadSpec("intensity must be non-negative over the whole window")
    lam_max = spec.envelope()
    if lam_max <= 0.0:
        return np.empty(0)
    if lam_max * t_max > MAX_COUNT:
        raise BadSpec(f"intensity envelope {lam_max:.3g}/h over {spec.n_hours} hours "
                      f"draws more than {MAX_COUNT} events")
    n_cand = rng.poisson(lam_max * t_max)
    cand = np.sort(rng.random(n_cand) * t_max)
    accept = rng.random(n_cand) * lam_max < np.maximum(np.asarray(spec.value(cand)), 0.0)
    return cand[accept]


def events_from_times(times_hours: Sequence[float]) -> EventBatch:
    """Wrap raw event times as single-visit chrome events, one cookie c{i}
    each (test plumbing)."""
    n = len(times_hours)
    ts = (np.asarray(times_hours, dtype=np.float64) * SECONDS_PER_HOUR).astype(np.int64)
    return EventBatch(np.arange(n), [f"c{i}" for i in range(n)],
                      np.zeros(n, dtype=np.int32), ["chrome"], ts)
