"""Per-factor relative influence via mutual information.

Both MI statistics are computed on raw empirical frequencies (count ratios),
in bits. The order-alpha variant is normalized so that it converges to the
Shannon statistic as alpha -> 1 and is exactly zero whenever the empirical
joint factorizes, for every alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadAlpha, EmptyTable, ZeroCellAtSmallAlpha
from .ingest import FactorTable

LN2 = math.log(2.0)

DEFAULT_ALPHA = 2.0


@dataclass
class ImportanceVector:
    """Factor influences in bits plus their descending ranking.

    ``ranking`` is a permutation of 0..m-1 sorted by decreasing value, ties
    broken by ascending factor index.
    """

    method: str
    values: np.ndarray = field(repr=False)
    alpha: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        order = np.lexsort((np.arange(len(self.values)), -self.values))
        self.ranking = order.astype(np.int64)

    @property
    def m(self) -> int:
        return len(self.values)


def _joint_and_marginals(table: FactorTable, factor: int):
    counts = table.counts[factor]
    if table.total == 0:
        raise EmptyTable("factor table holds no records")
    p = counts / table.total
    p_level = p.sum(axis=1)
    p_label = p.sum(axis=0)
    return p, p_level, p_label


def shannon_mi(table: FactorTable, factor: int) -> float:
    """Mutual information between one factor and the outcome, in bits.

    Uses the convention 0*log(0) = 0. The result lies in
    [0, min(log2(L_i), 1)] up to rounding.
    """
    p, p_level, p_label = _joint_and_marginals(table, factor)
    total = 0.0
    for k in range(p.shape[0]):
        for s in range(2):
            pj = p[k, s]
            if pj > 0.0:
                total += pj * math.log2(pj / (p_level[k] * p_label[s]))
    return max(total, 0.0)


def renyi_mi(table: FactorTable, factor: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Order-alpha mutual information between one factor and the outcome, in bits.

    Computes (1/(alpha-1)) * log2 sum_{k,s} p^alpha / (p_k p_s)^(alpha-1),
    which reduces to the plain log2-sum at alpha = 2 and tends to shannon_mi
    as alpha -> 1 (alpha = 1 dispatches there directly). Cells with an empty
    marginal are unused levels/labels and contribute nothing; for alpha < 1
    an empty joint cell with positive marginals has no agreed convention and
    raises ZeroCellAtSmallAlpha.
    """
    if not 0.0 < alpha <= 16.0:  # expm1 stays finite: 15 * log(2**63) < 709
        raise BadAlpha(f"alpha must be positive and finite, at most 16, got {alpha}")
    if alpha == 1.0:
        return shannon_mi(table, factor)
    p, p_level, p_label = _joint_and_marginals(table, factor)
    # sum - 1 accumulated via expm1 so values near alpha = 1 stay accurate
    sum_minus_one = 0.0
    for k in range(p.shape[0]):
        for s in range(2):
            pj = p[k, s]
            if pj > 0.0:
                log_ratio = math.log(pj / (p_level[k] * p_label[s]))
                sum_minus_one += pj * math.expm1((alpha - 1.0) * log_ratio)
            elif alpha < 1.0 and p_level[k] > 0.0 and p_label[s] > 0.0:
                raise ZeroCellAtSmallAlpha(
                    f"factor {factor}: empty joint cell (level {k}, label {s}) "
                    f"with positive marginals at alpha={alpha}")
    return math.log1p(sum_minus_one) / ((alpha - 1.0) * LN2)


def rank_factors(table: FactorTable, method: str = "shannon",
                 alpha: float = DEFAULT_ALPHA) -> ImportanceVector:
    """Score every factor by the chosen MI statistic and rank descending."""
    if table.total == 0:
        raise EmptyTable("factor table holds no records")
    if method == "shannon":
        stat = lambda i: shannon_mi(table, i)
        alpha_out = None
    elif method == "renyi":
        stat = lambda i: renyi_mi(table, i, alpha)
        alpha_out = alpha
    else:
        raise ValueError(f"unknown method {method!r} (expected 'shannon' or 'renyi')")
    values = np.empty(table.m)
    for i in range(table.m):
        try:
            values[i] = stat(i)
        except (EmptyTable, BadAlpha):
            raise
        except Exception as exc:
            name = table.dictionary.factor_names[i]
            raise type(exc)(f"factor {name!r} (index {i}): {exc}") from exc
    return ImportanceVector(method=method, values=values, alpha=alpha_out)
