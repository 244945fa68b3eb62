import math

import numpy as np
import pytest

from adlift.errors import BadAlpha, EmptyTable, ZeroCellAtSmallAlpha
from adlift.features import ImportanceVector, rank_factors, renyi_mi, shannon_mi
from adlift.ingest import build_factor_table
from adlift.synth import FactorSpec, RequestSpec, gen_requests

from conftest import make_table

# oracle: direct evaluation of the four-term definitions on [[30, 10], [20, 40]]
SHANNON_30_10_20_40 = (0.3 * math.log2(0.3 / (0.4 * 0.5))
                       + 0.1 * math.log2(0.1 / (0.4 * 0.5))
                       + 0.2 * math.log2(0.2 / (0.6 * 0.5))
                       + 0.4 * math.log2(0.4 / (0.6 * 0.5)))  # = 0.1245112497836532
RENYI2_30_10_20_40 = math.log2(0.09 / 0.2 + 0.01 / 0.2
                               + 0.04 / 0.3 + 0.16 / 0.3)  # = 0.2223924213364477


class TestShannonMi:
    def test_independence_exact_zero(self):
        assert shannon_mi(make_table([[25, 25], [25, 25]]), 0) == 0.0

    def test_perfect_dependence_one_bit(self):
        assert shannon_mi(make_table([[50, 0], [0, 50]]), 0) == 1.0

    def test_hand_evaluated_table(self):
        value = shannon_mi(make_table([[30, 10], [20, 40]]), 0)
        assert value == pytest.approx(SHANNON_30_10_20_40, abs=1e-12)
        assert value == pytest.approx(0.1245112497836532, abs=1e-12)

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            shannon_mi(make_table([[0, 0]]), 0)

    def test_bounds_on_random_tables(self, rng):
        for _ in range(50):
            levels = rng.integers(2, 6)
            counts = rng.integers(0, 40, size=(levels, 2))
            if counts.sum() == 0:
                continue
            v = shannon_mi(make_table(counts), 0)
            assert 0.0 <= v <= min(math.log2(levels), 1.0) + 1e-12

    def test_factorizing_integer_table_near_zero(self):
        # rows proportional: joint factorizes exactly in rationals
        v = shannon_mi(make_table([[2, 4], [1, 2], [3, 6]]), 0)
        assert abs(v) < 1e-12

    def test_relabel_invariance(self, rng):
        counts = rng.integers(1, 60, size=(4, 2))
        base = shannon_mi(make_table(counts), 0)
        perm = rng.permutation(4)
        assert shannon_mi(make_table(counts[perm]), 0) == pytest.approx(base, abs=1e-12)


class TestRenyiMi:
    def test_independence_zero_for_alphas(self):
        t = make_table([[25, 25], [25, 25]])
        for alpha in (1.0, 2.0, 5.0):
            assert renyi_mi(t, 0, alpha) == 0.0

    def test_hand_evaluated_alpha2(self):
        value = renyi_mi(make_table([[30, 10], [20, 40]]), 0, 2.0)
        assert value == pytest.approx(RENYI2_30_10_20_40, abs=1e-12)
        assert value == pytest.approx(0.2223924213364477, abs=1e-12)

    def test_alpha_one_dispatches_to_shannon(self):
        t = make_table([[30, 10], [20, 40]])
        assert renyi_mi(t, 0, 1.0) == shannon_mi(t, 0)

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_limit_to_shannon(self, h):
        tables = [make_table([[30, 10], [20, 40]]),
                  make_table([[5, 1], [1, 5], [3, 3]]),
                  make_table([[80, 5], [10, 5]])]
        for t in tables:
            sh = shannon_mi(t, 0)
            for alpha in (1.0 + h, 1.0 - h):
                assert abs(renyi_mi(t, 0, alpha) - sh) <= 10.0 * h

    def test_bad_alpha(self):
        t = make_table([[1, 1]])
        with pytest.raises(BadAlpha):
            renyi_mi(t, 0, 0.0)
        with pytest.raises(BadAlpha):
            renyi_mi(t, 0, -1.0)
        with pytest.raises(BadAlpha):
            renyi_mi(t, 0, 16.5)
        # the largest order stays finite at the largest log-ratio an int64
        # total allows: a label seen once in 2**62 records
        assert math.isfinite(renyi_mi(make_table([[2**62, 0], [0, 1]]), 0, 16.0))

    def test_zero_cell_small_alpha_raises(self):
        t = make_table([[50, 0], [10, 40]])
        with pytest.raises(ZeroCellAtSmallAlpha):
            renyi_mi(t, 0, 0.5)
        # alpha > 1 treats the same cell as a zero contribution
        assert renyi_mi(t, 0, 2.0) > 0.0

    def test_unused_level_is_skipped_any_alpha(self):
        t = make_table([[30, 10], [20, 40], [0, 0]])
        ref = make_table([[30, 10], [20, 40]])
        assert renyi_mi(t, 0, 0.5) == pytest.approx(renyi_mi(ref, 0, 0.5), abs=1e-12)

    def test_relabel_invariance(self, rng):
        counts = rng.integers(1, 60, size=(4, 2))
        base = renyi_mi(make_table(counts), 0, 2.0)
        perm = rng.permutation(4)
        assert renyi_mi(make_table(counts[perm]), 0, 2.0) == pytest.approx(base, abs=1e-12)


class TestRankFactors:
    def test_planted_factor_ranks_first(self):
        spec = RequestSpec(n=30_000, base_rate=0.1, factors=(
            FactorSpec("noise1", ("a", "b", "c"), (1 / 3,) * 3, (0.0,) * 3),
            FactorSpec("driver", ("lo", "hi"), (0.5, 0.5), (-0.6, 0.6)),
            FactorSpec("noise2", ("x", "y"), (0.5, 0.5), (0.0, 0.0))))
        dictionary, batch = gen_requests(spec, seed=5)
        table = build_factor_table(batch, dictionary)
        for method, alpha in (("shannon", None), ("renyi", 2.0)):
            imp = rank_factors(table, method=method, alpha=alpha or 2.0)
            assert imp.ranking[0] == 1

    def test_single_factor(self):
        imp = rank_factors(make_table([[30, 10], [20, 40]]))
        assert imp.ranking.tolist() == [0]

    def test_ties_broken_by_index(self):
        counts = [[30, 10], [20, 40]]
        imp = rank_factors(make_table(counts, counts, counts))
        assert imp.ranking.tolist() == [0, 1, 2]
        assert np.allclose(imp.values, imp.values[0])

    def test_scale_free(self):
        t1 = make_table([[30, 10], [20, 40]], [[25, 25], [25, 25]])
        t2 = make_table([[300, 100], [200, 400]], [[250, 250], [250, 250]])
        v1 = rank_factors(t1).values
        v2 = rank_factors(t2).values
        assert np.allclose(v1, v2, atol=1e-12)

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            rank_factors(make_table([[0, 0]]))

    def test_error_carries_factor_identity(self):
        t = make_table([[25, 25], [25, 25]], [[50, 0], [10, 40]])
        with pytest.raises(ZeroCellAtSmallAlpha, match="f1"):
            rank_factors(t, method="renyi", alpha=0.5)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            rank_factors(make_table([[1, 1]]), method="gbm")


class TestImportanceVector:
    def test_ranking_is_permutation_with_index_ties(self):
        imp = ImportanceVector(method="shannon", values=[0.3, 0.7, 0.3, 0.1])
        assert imp.ranking.tolist() == [1, 0, 2, 3]
