"""Sparse importance-weighted conversion-rate predictor and pacing control.

A trained model combines per-level smoothed positive rates with per-factor
importance weights: the score of a request is the importance-weighted mean
of the rates at the request's levels, over factors whose importance survived
the sparsity threshold. Rates use add-beta smoothing so they stay strictly
inside (0, 1); factors whose level was not seen at training drop out of the
combination and the weights renormalize. A trained model is immutable and
safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (AllPrunedWarning, CorruptFile, DimensionMismatch, DomainError,
                     FingerprintMismatch, VersionMismatch)
from .features import ImportanceVector
from .ingest import (FactorDictionary, FactorTable, RequestBatch, _unsigned_ids,
                     atomic_write, id_dtype, load_json, open_text)

MODEL_VERSION = 1

DEFAULT_EPSILON = 0.01
DEFAULT_BETA = 0.5

SCORER_TERMS = 8
"""Weighted rates added per statement of a model's generated scalar scorer."""


@dataclass(slots=True)
class ScoredRequest:
    """A request's score and the number of factors that made it; 0 factors
    means the score is the model's global rate."""

    score: float
    used_factors: int


class SparseRateModel:
    """Trained predictor over ``dictionary``, the FactorDictionary it was
    trained on: per-factor importances and ``rates[i][k]``, the smoothed rate
    of level k of factor i. ValueError unless there is one importance and
    one list of rates per factor, and one rate per level."""

    def __init__(self, dictionary: FactorDictionary, importance: Sequence[float],
                 rates: Sequence[Sequence[float]], epsilon: float, beta: float,
                 global_rate: float, method: str = "shannon", alpha: float | None = None):
        self.dictionary = dictionary
        self.factor_names = dictionary.factor_names
        self.importance = np.asarray(importance, dtype=np.float64)
        self.rates = [np.asarray(r, dtype=np.float64) for r in rates]
        self.epsilon = float(epsilon)
        self.beta = float(beta)
        self.global_rate = float(global_rate)
        self.method = method
        self.alpha = alpha
        if not dictionary.m == len(self.importance) == len(self.rates):
            raise ValueError("inconsistent per-factor field lengths")
        for i, r in enumerate(self.rates):
            if len(r) != dictionary.level_count(i):
                raise ValueError(f"factor {self.factor_names[i]!r} has "
                                 f"{dictionary.level_count(i)} levels but {len(r)} rates")
            if len(r) and not ((r > 0.0) & (r < 1.0)).all():
                raise ValueError("smoothed rates must lie strictly inside (0, 1)")
        bad = np.flatnonzero(~((self.importance >= 0.0) & (self.importance < math.inf)))
        if len(bad):
            raise ValueError(f"importances must be finite and non-negative: factor "
                             f"{self.factor_names[bad[0]]!r} has {self.importance[bad[0]]}")
        # Per active factor, in index order, the weighted rates rates[i][k] * imp:
        # a dict of python floats for the generated scorer of ``score`` (they
        # beat numpy scalars per call) and a float table with a trailing 0.0
        # for ``score_batch``. Both add the same products in the same order,
        # so their scores agree bit for bit. _dens[j] is the weight sum of the
        # first j active factors, added in index order; the last is _den.
        self._active, self._real, self._dens = [], [], [0.0]
        for i in np.flatnonzero(self.importance > 0.0).tolist():
            imp = float(self.importance[i])
            weighted = self.rates[i] * imp
            self._active.append((i, imp, dict(enumerate(weighted.tolist()))))
            self._real.append((i, imp, np.append(weighted, 0.0)))
            self._dens.append(self._dens[-1] + imp)
        self._den = self._dens[-1]
        self._n_active = len(self._active)
        if not math.isfinite(self._den):
            raise ValueError(f"active importances sum to {self._den}")
        self._scorer = self._build_scorer()

    def __getstate__(self):
        # pickle cannot name a generated function: leave the scorer out of
        # the state, and build it again on load
        return {k: v for k, v in self.__dict__.items() if k != "_scorer"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._scorer = self._build_scorer()

    def _build_scorer(self):
        """The scalar kernel of ``score``, generated from the active factors.
        Each factor's dict is bound as a default argument, so the source holds
        only indices and names, never a label."""
        active, global_rate, n = self._active, self.global_rate, self._n_active
        # per statement start: the weight sum before it and the factors from
        # it on; an all-pruned model resumes at 0 at once
        resume = {start: (self._dens[start], active[start:])
                  for start in range(0, max(n, 1), SCORER_TERMS)}

        def general(factors, num, used):
            den, rest = resume[used]
            for i, imp, weighted in rest:
                rate = weighted.get(factors[i])
                if rate is not None:
                    num += rate
                    den += imp
                    used += 1
            if used == 0:
                return ScoredRequest(global_rate, 0)
            return ScoredRequest(num / den, used)

        lines = [f"def scorer(factors, {''.join(f'w{j}, ' for j in range(n))}"
                 f"den, general, result):"]
        for start in range(0, n, SCORER_TERMS):
            terms = " + ".join(f"w{j}[factors[{active[j][0]}]]"
                               for j in range(start, min(n, start + SCORER_TERMS)))
            before = "num" if start else "0.0"
            lines += ["    try:", f"        num = {'num + ' if start else ''}{terms}",
                      "    except KeyError:",
                      f"        return general(factors, {before}, {start})"]
        lines.append(f"    return result(num / den, {n})" if n
                     else "    return general(factors, 0.0, 0)")
        namespace = {}
        exec("\n".join(lines), namespace)
        scorer = namespace["scorer"]
        scorer.__defaults__ = (*(w for _, _, w in active), self._den, general,
                               ScoredRequest)
        return scorer

    @property
    def m(self) -> int:
        return len(self.factor_names)

    @property
    def all_pruned(self) -> bool:
        return not self._active

    def encode_labels(self, labels: Sequence[str]) -> tuple[int, ...]:
        """One request's level labels as training ids, by ``FactorDictionary.encode``."""
        if len(labels) != self.m:
            raise DimensionMismatch(f"expected {self.m} labels, got {len(labels)}")
        return tuple(self.dictionary.encode([[label] for label in labels]).ravel().tolist())


def train(table: FactorTable, importance: ImportanceVector,
          epsilon: float = DEFAULT_EPSILON, beta: float = DEFAULT_BETA) -> SparseRateModel:
    """Fit the sparse rate model from contingency counts and importances.

    Level rates are (n_pos + beta) / (n + 2 beta); importances at or below
    epsilon are zeroed. If every factor is pruned the model degenerates to
    the smoothed global rate and an AllPrunedWarning is emitted. DomainError
    names a factor whose importance is NaN, infinite or negative."""
    if importance.m != table.m:
        raise DimensionMismatch(
            f"importance has {importance.m} entries for {table.m} factors")
    if not epsilon >= 0:
        raise DomainError(f"epsilon must be non-negative, got {epsilon}")
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    # a NaN or negative importance is kept, for the model to reject
    kept = np.where((importance.values >= 0) & (importance.values <= epsilon), 0.0,
                    importance.values)
    rates = []
    for counts in table.counts:
        totals = counts.sum(axis=1)
        rates.append((counts[:, 1] + beta) / (totals + 2.0 * beta))
        if not ((rates[-1] > 0.0) & (rates[-1] < 1.0)).all():
            raise DomainError(f"beta {beta} rounds a smoothed rate to 0 or 1")
    positives = int(table.counts[0][:, 1].sum())
    global_rate = (positives + beta) / (table.total + 2.0 * beta)
    try:
        model = SparseRateModel(
            table.dictionary, importance=kept, rates=rates, epsilon=epsilon, beta=beta,
            global_rate=global_rate, method=importance.method, alpha=importance.alpha)
    except ValueError as exc:  # an infinite importance, or a sum that overflows
        raise DomainError(str(exc)) from None
    if model.all_pruned:
        warnings.warn("every factor importance is at or below epsilon; "
                      "model degenerates to the global rate", AllPrunedWarning)
    return model


def score(model: SparseRateModel, factors: Sequence[int],
          dictionary: FactorDictionary | None = None) -> ScoredRequest:
    """Score one request, given as its per-factor level ids (``batch[i]``):
    the importance-weighted mean of its level rates. FingerprintMismatch
    for a ``dictionary`` unequal to the model's.

    An id matches a training level by value, as a dict key: numpy ints, bools
    and whole floats score as that level; any other hashable id (-1, 2**40,
    1.5, NaN) is unseen, and an unhashable one raises TypeError. Factors with
    unseen levels are excluded and the weights renormalize; if nothing
    contributes the score falls back to the global rate. Deterministic: same
    model and request give the same bits on every run. The model's generated
    scorer adds a row's weighted rates in index order, SCORER_TERMS to a
    statement, and divides by ``model._den``, the general loop's weight sum:
    the same bits. At an unseen level the general loop resumes at the first
    factor of that statement, with the sums of the statements before it.
    """
    if dictionary is not None and dictionary != model.dictionary:
        raise FingerprintMismatch("record dictionary does not match the model's")
    if len(factors) != len(model.factor_names):
        raise DimensionMismatch(f"record has {len(factors)} factors, model has {model.m}")
    return model._scorer(factors)


@dataclass
class BatchScores:
    """Element-wise scores for a batch, with measured throughput.

    Row i of ``scores`` and ``used_factors`` belongs to row i of the batch;
    iterating yields one ``ScoredRequest`` per row, for ``pace``.
    ``used_factors`` is in the narrowest integer type that holds the model's
    factor count (``ingest.id_dtype``), int8 below 128 factors. ``errors``
    is always empty: a batch is checked whole before it is scored.
    """

    scores: np.ndarray = field(repr=False)
    used_factors: np.ndarray = field(repr=False)
    errors: list[tuple[int, Exception]] = field(default_factory=list, init=False,
                                                repr=False)
    elapsed_s: float = 0.0

    @property
    def throughput_rps(self) -> float:
        return len(self.scores) / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return map(ScoredRequest, self.scores.tolist(), self.used_factors.tolist())


SCORE_BLOCK = 8192
"""Rows per block of ``score_batch``: a block's ids and its few scratch
vectors stay in cache while every factor passes over them."""


def worker_count() -> int:
    """The threads batch scoring uses: one, the calling thread."""
    return 1


def score_batch(model: SparseRateModel, batch: RequestBatch,
                dictionary: FactorDictionary | None = None,
                threads: int | None = None) -> BatchScores:
    """Score every row of ``batch``, preserving order and measuring throughput.

    DimensionMismatch unless the batch has the model's factor count, and
    FingerprintMismatch for a ``dictionary`` unequal to the model's.
    Scoring runs on the calling thread; ``threads`` is accepted and ignored.
    Walks the rows in blocks of SCORE_BLOCK; in a column-major matrix each
    factor's ids of a block are one contiguous run. Read as unsigned of their
    own width, or as uint32 where an active factor has more levels than half
    that width's range (see ``ingest.id_dtype``), every id outside
    [0, n_levels), -1 included, clips to its table's trailing 0.0, so
    each active factor adds its weighted rate or an exact 0.0, in index order
    as in ``score``: the same bits. A block whose ids were all seen divides by
    the model's ``_den``; a block with an unseen id also sums and counts each
    row's weights of seen levels in index order, and a row with none scores
    the global rate.
    """
    if dictionary is not None and dictionary != model.dictionary:
        raise FingerprintMismatch("record dictionary does not match the model's")
    if batch.m != model.m:
        raise DimensionMismatch(f"batch has {batch.m} factors, model has {model.m}")
    t_start = time.perf_counter()
    n = len(batch)
    scores = np.empty(n)
    # a row's count of factors used, 0 to m, is an id of m + 1 levels
    used = np.empty(n, dtype=id_dtype([model.m + 1]))
    widest = max((len(table) - 1 for _, _, table in model._real), default=0)
    size = min(n, SCORE_BLOCK)
    scratch = (np.empty(size), np.empty(size), np.empty(size, dtype=bool))
    for start in range(0, n, SCORE_BLOCK):
        rows = slice(start, min(n, start + SCORE_BLOCK))
        term, den, known = (a[:rows.stop - start] for a in scratch)
        block = _unsigned_ids(batch.factors[rows], widest)
        out, count = scores[rows], used[rows]
        out.fill(0.0)
        seen = model._n_active > 0
        for i, _, table in model._real:
            out += np.take(table, block[:, i], mode="clip", out=term)
            seen = seen and block[:, i].max() < len(table) - 1
        if seen:
            out /= model._den
            count.fill(model._n_active)
            continue
        den.fill(0.0)
        count.fill(0)
        for i, imp, table in model._real:
            np.less(block[:, i], len(table) - 1, out=known)
            den += np.multiply(known, imp, out=term)
            count += known
        np.greater(count, 0, out=known)
        np.divide(out, den, out=out, where=known)
        out[~known] = model.global_rate
    return BatchScores(scores, used, elapsed_s=time.perf_counter() - t_start)


@dataclass
class PacingState:
    """Feedback controller spending ``target_total`` impressions over a stream.

    Mutated in place by ``pace`` and ``pace_batch``; confine one state to one
    decision thread. DomainError unless 0 <= threshold <= 1, 0 <= gamma <= 16
    and target and horizon lie in [0, 2**63) (16 * log(2**63) < 709 keeps the
    threshold factor finite); a block size below 1 closes a block per request.
    The running counters start at 0 and are set only by the pacing.
    """

    target_total: int
    horizon_requests: int
    threshold: float = 0.0
    shown_so_far: int = field(default=0, init=False)
    seen_so_far: int = field(default=0, init=False)
    block_size: int = 1000
    gamma: float = 0.5
    block_seen: int = field(default=0, init=False)
    block_shown: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0 <= self.threshold <= 1:
            raise DomainError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not 0 <= self.gamma <= 16:
            raise DomainError(f"gamma must be non-negative and finite, at most 16, "
                              f"got {self.gamma}")
        for name in ("target_total", "horizon_requests"):
            if not 0 <= getattr(self, name) < 2**63:
                raise DomainError(f"{name} must be non-negative and below 2**63, "
                                  f"got {getattr(self, name)}")


def pace(state: PacingState, scored: ScoredRequest) -> bool:
    """Decide show/skip for one scored request and update the controller.

    Shows iff the score clears the current threshold and the target is not
    yet exhausted. After every block of ``block_size`` requests the threshold
    moves multiplicatively toward the pace that would spend the remaining
    target by the horizon: threshold *= (shown_rate / target_rate)^gamma,
    clamped to [0, 1].
    """
    show = (state.shown_so_far < state.target_total
            and scored.score >= state.threshold)
    if show:
        state.shown_so_far += 1
        state.block_shown += 1
    state.seen_so_far += 1
    state.block_seen += 1
    if state.block_seen >= state.block_size:
        _close_block(state)
    return show


def pace_batch(state: PacingState, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pace a stream of scores; returns (show, threshold after each request).

    Makes the same decisions, threshold trace and final state as one ``pace``
    call per score. The threshold is constant within a block, so a block is
    decided at once: a request is shown iff its score clears the threshold
    and the eligible requests up to it fit in the remaining target.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    show = np.zeros(n, dtype=bool)
    trace = np.empty(n)
    start = 0
    while start < n:
        stop = min(n, start + max(1, state.block_size - state.block_seen))
        shown = scores[start:stop] >= state.threshold
        room = state.target_total - state.shown_so_far
        if room < stop - start:
            shown &= np.cumsum(shown) <= room
        show[start:stop] = shown
        trace[start:stop] = state.threshold
        k = int(np.count_nonzero(shown))
        state.shown_so_far += k
        state.block_shown += k
        state.seen_so_far += stop - start
        state.block_seen += stop - start
        if state.block_seen >= state.block_size:
            _close_block(state)
            trace[stop - 1] = state.threshold
        start = stop
    return show, trace


def _close_block(state: PacingState) -> None:
    """Move the threshold multiplicatively toward the pace that would spend
    the remaining target by the horizon, then start a new block."""
    shown_rate = state.block_shown / state.block_seen
    remaining = state.target_total - state.shown_so_far
    horizon_left = state.horizon_requests - state.seen_so_far
    target_rate = remaining / horizon_left if horizon_left > 0 else 0.0
    if target_rate <= 0.0:
        state.threshold = 1.0
    else:
        state.threshold = min(1.0, max(0.0, state.threshold
                                       * (shown_rate / target_rate) ** state.gamma))
    state.block_seen = 0
    state.block_shown = 0


def save_model(model: SparseRateModel, path) -> None:
    """Write the model as one JSON line plus a trailing sha256 checksum line;
    the line holds the fingerprint of the model's dictionary."""
    doc = {
        "version": MODEL_VERSION,
        "epsilon": model.epsilon,
        "beta": model.beta,
        "global_rate": model.global_rate,
        "fingerprint": model.dictionary.fingerprint(),
        "method": model.method,
        "alpha": model.alpha,
        "factors": [
            {"name": name,
             "importance": float(model.importance[i]),
             "levels": {label: float(model.rates[i][k])
                        for k, label in enumerate(model.dictionary.levels(i))}}
            for i, name in enumerate(model.factor_names)],
    }
    body = json.dumps(doc, ensure_ascii=False)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with atomic_write(path) as fh:
        fh.write(body + "\n" + "sha256:" + digest + "\n")


def load_model(path) -> SparseRateModel:
    """Read a model file back, verifying version and checksum, and then that
    the stored fingerprint is that of the levels read (else CorruptFile)."""
    with open_text(path) as fh:
        text = fh.read()
    # split at the last "\n" only: str.splitlines would also split the body
    # at the U+2028, U+2029 and U+0085 that ensure_ascii=False leaves raw
    body, newline, last = text.removesuffix("\n").rpartition("\n")
    if not newline or not last.startswith("sha256:"):
        raise CorruptFile(f"{path}: missing checksum line")
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != last[len("sha256:"):]:
        raise CorruptFile(f"{path}: checksum mismatch")

    def build(doc):
        version = doc.get("version")
        if version != MODEL_VERSION:
            raise VersionMismatch(f"{path}: model version {version!r}, "
                                  f"expected {MODEL_VERSION}")
        factors = doc["factors"]
        model = SparseRateModel(
            FactorDictionary([f["name"] for f in factors],
                             [list(f["levels"].keys()) for f in factors]),
            importance=[f["importance"] for f in factors],
            rates=[list(f["levels"].values()) for f in factors],
            epsilon=doc["epsilon"], beta=doc["beta"], global_rate=doc["global_rate"],
            method=doc.get("method", "shannon"), alpha=doc.get("alpha"))
        if doc["fingerprint"] != model.dictionary.fingerprint():
            raise CorruptFile(f"{path}: fingerprint does not match the model's levels")
        return model
    return load_json(path, body, build)
