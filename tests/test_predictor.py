import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adlift.errors import (AllPrunedWarning, CorruptFile, DimensionMismatch,
                           FingerprintMismatch, VersionMismatch)
from adlift.features import ImportanceVector, rank_factors
from adlift.ingest import (MISSING_LEVEL, FactorDictionary, RequestBatch, Schema,
                           build_factor_table, id_dtype, parse_requests)
from adlift.predictor import (SCORE_BLOCK, SCORER_TERMS, PacingState, ScoredRequest,
                              SparseRateModel, load_model, pace, pace_batch, save_model,
                              score, score_batch, train)
from adlift.synth import FactorSpec, RequestSpec, gen_requests

from conftest import make_table, traced_peak


def _general_score(model, ids):
    """The reference loop: every active factor checks its level and adds its
    weighted rate, its weight and one used factor, in index order."""
    num, den, used = 0.0, 0.0, 0
    for i, imp in enumerate(model.importance.tolist()):
        if imp > 0.0 and 0 <= ids[i] < len(model.rates[i]):
            num += float(model.rates[i][ids[i]] * imp)
            den += imp
            used += 1
    return (num / den, used) if used else (model.global_rate, 0)


def _model(names, levels, importance, rates):
    """A model of the given factors, with epsilon 0, beta 0.5 and global rate 0.3."""
    return SparseRateModel(FactorDictionary(names, levels), importance, rates,
                           epsilon=0.0, beta=0.5, global_rate=0.3)


def _bits(scored):
    return np.float64(scored[0]).tobytes(), scored[1]


def _scored_bits(model, factors):
    got = score(model, factors)
    return _bits((got.score, got.used_factors))


def _model_from_counts(*factor_counts, importance=None, epsilon=0.0, beta=0.5):
    table = make_table(*factor_counts)
    if importance is None:
        importance = [1.0] * table.m
    imp = ImportanceVector(method="shannon", values=importance)
    return train(table, imp, epsilon=epsilon, beta=beta)


class TestTrain:
    def test_smoothing_arithmetic(self):
        # levels A: 3 of 4 positive, B: 0 of 4 positive, beta = 0.5
        model = _model_from_counts([[1, 3], [4, 0]], beta=0.5)
        assert model.rates[0][0] == pytest.approx(3.5 / 5.0)
        assert model.rates[0][1] == pytest.approx(0.5 / 5.0)
        assert model.global_rate == pytest.approx((3 + 0.5) / (8 + 1.0))

    def test_all_pruned_degenerates_with_warning(self):
        with pytest.warns(AllPrunedWarning):
            model = _model_from_counts([[30, 10], [20, 40]],
                                       importance=[0.001], epsilon=0.5)
        assert model.all_pruned
        x = (0,)
        assert score(model, x).score == model.global_rate
        assert score(model, x).used_factors == 0

    def test_threshold_is_inclusive(self):
        with pytest.warns(AllPrunedWarning):
            model = _model_from_counts([[30, 10], [20, 40]],
                                       importance=[0.25], epsilon=0.25)
        assert model.all_pruned

    def test_rates_strictly_inside_unit_interval(self):
        model = _model_from_counts([[100, 0], [0, 100]])
        assert all(0.0 < q < 1.0 for q in model.rates[0])

    def test_planted_rates_recovered(self, rng):
        # two levels with distinct true rates via logistic effects
        spec = RequestSpec(n=100_000, base_rate=0.2, factors=(
            FactorSpec("f", ("lo", "hi"), (0.5, 0.5), (-1.0, 1.0)),))
        dictionary, batch = gen_requests(spec, seed=7)
        table = build_factor_table(batch, dictionary)
        model = train(table, ImportanceVector(method="shannon", values=[1.0]))

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        base_logit = np.log(0.2 / 0.8)
        for level_id, effect in ((0, -1.0), (1, 1.0)):
            truth = sigmoid(base_logit + effect)
            n_level = table.counts[0][level_id].sum()
            se = np.sqrt(truth * (1 - truth) / n_level)
            assert abs(model.rates[0][level_id] - truth) < 3 * se

    def test_dimension_mismatch(self):
        table = make_table([[1, 1]])
        with pytest.raises(DimensionMismatch):
            train(table, ImportanceVector(method="shannon", values=[1.0, 2.0]))


class TestScore:
    def test_single_factor_returns_rate(self):
        model = _model_from_counts([[1, 3], [4, 0]])
        assert score(model, (0,)).score == model.rates[0][0]
        assert score(model, (1,)).score == model.rates[0][1]

    def test_equal_importance_is_arithmetic_mean(self):
        # with beta=1 these counts give smoothed rates of exactly 0.2 and 0.6
        model = _model_from_counts([[7, 1]], [[3, 5]], beta=1.0)
        assert model.rates[0][0] == 0.2
        assert model.rates[1][0] == 0.6
        got = score(model, (0, 0))
        assert got.score == pytest.approx(0.4)
        assert got.used_factors == 2

    def test_unseen_level_excluded_and_renormalized(self):
        model = _model_from_counts([[1, 3], [4, 0]], [[4, 4]],
                                   importance=[1.0, 3.0])
        # factor 0 unseen (id 7): only factor 1 contributes
        got = score(model, (7, 0))
        assert got.score == model.rates[1][0]
        assert got.used_factors == 1

    def test_all_unseen_falls_back_to_global(self):
        model = _model_from_counts([[1, 3]], [[2, 2]])
        got = score(model, (9, -1))
        assert got.score == model.global_rate
        assert got.used_factors == 0

    def test_convex_combination_bounds(self, rng):
        model = _model_from_counts([[10, 30], [40, 5]], [[25, 25], [18, 17]],
                                   importance=[0.7, 0.2])
        for _ in range(200):
            rec = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            got = score(model, rec)
            usable = [model.rates[i][rec[i]] for i in range(2)]
            assert min(usable) - 1e-15 <= got.score <= max(usable) + 1e-15

    def test_importance_scaling_invariance(self):
        table = make_table([[10, 30], [40, 5]], [[25, 25], [18, 17]])
        base = train(table, ImportanceVector(method="shannon", values=[0.3, 0.1]))
        scaled = train(table, ImportanceVector(method="shannon", values=[3.0, 1.0]))
        doubled = train(table, ImportanceVector(method="shannon", values=[0.6, 0.2]))
        recs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        s_base = [score(base, r).score for r in recs]
        s_scaled = [score(scaled, r).score for r in recs]
        for a, b in zip(s_base, s_scaled):
            assert a == pytest.approx(b, rel=1e-12)
        # ranking of requests by score is exactly invariant
        assert np.argsort(s_base).tolist() == np.argsort(s_scaled).tolist()
        # power-of-two scaling is bit-exact
        assert s_base == [score(doubled, r).score for r in recs]

    def test_epsilon_below_spectrum_is_noop(self):
        table = make_table([[10, 30], [40, 5]], [[25, 25], [18, 17]])
        imp = ImportanceVector(method="shannon", values=[0.5, 0.02])
        m0 = train(table, imp, epsilon=0.0)
        m1 = train(table, imp, epsilon=0.0199)
        for ids in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert score(m0, ids).score == score(m1, ids).score

    def test_determinism_bit_identical(self):
        model = _model_from_counts([[10, 30], [40, 5]])
        rec = (1,)
        values = {score(model, rec).score for _ in range(100)}
        assert len(values) == 1

    def test_fingerprint_checked_when_dictionary_given(self):
        table = make_table([[1, 3]])
        model = train(table, ImportanceVector(method="shannon", values=[1.0]))
        other = FactorDictionary(["f0"], [["x", "y"]])
        with pytest.raises(FingerprintMismatch):
            score(model, (0,), dictionary=other)
        # matching dictionary passes
        assert score(model, (0,), dictionary=table.dictionary).score > 0

    def test_dictionary_compared_by_value(self):
        table = make_table([[1, 3], [2, 2]], [[3, 1], [2, 2]])
        model = train(table, ImportanceVector(method="shannon", values=[1.0, 0.5]))
        batch = RequestBatch(np.array([[0, 1], [1, 0]]), np.zeros(2, dtype=np.int8))
        equal = FactorDictionary(["f0", "f1"], [["v0", "v1"], ["v0", "v1"]])
        assert equal is not model.dictionary
        assert score(model, (0, 1), dictionary=equal) == score(model, (0, 1))
        assert score_batch(model, batch, dictionary=equal).scores.tobytes() \
            == score_batch(model, batch).scores.tobytes()
        # the same names, with one factor's levels reordered
        reordered = FactorDictionary(["f0", "f1"], [["v0", "v1"], ["v1", "v0"]])
        with pytest.raises(FingerprintMismatch):
            score(model, (0, 1), dictionary=reordered)
        with pytest.raises(FingerprintMismatch):
            score_batch(model, batch, dictionary=reordered)

    @pytest.mark.parametrize("levels, rates", [
        (["a", "b"], [[0.2]]),
        (["a"], [[0.2, 0.4]]),
    ])
    def test_rates_must_match_levels(self, levels, rates):
        # one rate too few scored level b as unseen; one too many scored the
        # absent id 1
        message = f"factor 'f' has {len(levels)} levels but {len(rates[0])} rates"
        with pytest.raises(ValueError, match=message):
            _model(["f"], [levels], [0.5], rates)

    def test_wrong_arity(self):
        model = _model_from_counts([[1, 3]])
        with pytest.raises(DimensionMismatch):
            score(model, (0, 0))

    @pytest.mark.parametrize("where", ["none", "first", "middle", "last"])
    def test_unseen_level_resumes_the_general_loop(self, rng, where):
        # active factors 1, 2, 4, 6 and 7; factors 0, 3 and 5 are pruned
        importance = rng.exponential(1.0, 8) * [0, 1, 1, 0, 1, 0, 1, 1]
        model = _model([f"f{i}" for i in range(8)], [["a", "b", "c"]] * 8,
                       importance, [rng.uniform(0.01, 0.99, 3) for _ in range(8)])
        for _ in range(50):
            ids = rng.integers(0, 3, 8)
            ids[[0, 3, 5]] = -1
            if where != "none":
                ids[{"first": 1, "middle": 4, "last": 7}[where]] = rng.choice([-1, 3])
            got = score(model, ids.tolist())
            expected = _general_score(model, ids.tolist())
            assert _bits((got.score, got.used_factors)) == _bits(expected)
            assert got.used_factors == (5 if where == "none" else 4)

    # active factors 1, 2, 4, 6 and 7; the pruned factors 0, 3 and 5 lie between
    LAYOUT = (0, 1, 1, 0, 1, 0, 1, 1)
    AT = {"first": 1, "middle": 4, "last": 7}
    AS_KIND = {"int": int, "int32": np.int32, "int64": np.int64, "bool": bool,
               "float": float}

    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(sorted(AS_KIND)), min_size=8, max_size=8),
           unseen=st.dictionaries(st.sampled_from(["first", "middle", "last", "every"]),
                                  st.sampled_from([-1, "n_levels", 2**40, 1.5, math.nan])))
    @example(seed=0, kinds=["bool", "int32", "int64", "float"] * 2, unseen={})
    @example(seed=1, kinds=["float"] * 8, unseen={"every": math.nan})
    @example(seed=2, kinds=["int32"] * 8,
             unseen={"first": -1, "middle": "n_levels", "last": 2**40, "every": 1.5})
    @settings(max_examples=150, deadline=None)
    def test_ids_match_levels_by_value(self, seed, kinds, unseen):
        rng = np.random.default_rng(seed)
        levels = rng.integers(2, 6, len(self.LAYOUT))
        model = _model([f"f{i}" for i in range(len(levels))],
                       [[f"v{k}" for k in range(n)] for n in levels],
                       rng.exponential(1.0, len(levels)) * self.LAYOUT,
                       [rng.uniform(0.001, 0.999, n) for n in levels])
        # numpy ints, bools and whole floats name the level of their value
        ids = [int(rng.integers(0, 2 if kind == "bool" else n))
               for kind, n in zip(kinds, levels)]
        row = [self.AS_KIND[kind](k) for kind, k in zip(kinds, ids)]
        active = [i for i, on in enumerate(self.LAYOUT) if on]
        for where, value in unseen.items():
            for i in active if where == "every" else [self.AT[where]]:
                row[i] = int(levels[i]) if value == "n_levels" else value
                ids[i] = -1
        got = score(model, row)
        expected = _general_score(model, ids)
        assert _bits((got.score, got.used_factors)) == _bits(expected)
        assert got == score(model, tuple(ids))
        if "every" in unseen:
            assert (got.score, got.used_factors) == (model.global_rate, 0)

    @pytest.mark.parametrize("ids", [([0], 0, 0), (0, 0, [1]), (-1, [0], 0), (0, -1, [1])])
    def test_unhashable_id_raises_type_error(self, ids):
        model = _model_from_counts([[1, 3], [4, 0]], [[4, 4]], [[5, 1], [1, 1]])
        with pytest.raises(TypeError):
            score(model, ids)


class TestGeneratedScorer:
    """The scalar scorer generated from a model's active factors."""

    @staticmethod
    def _assert_scalar_equals_batch(model, rows):
        batch = RequestBatch(np.array(rows, dtype=np.int32).reshape(len(rows), model.m),
                             np.zeros(len(rows), dtype=np.int8))
        result = score_batch(model, batch)
        for row, expected, used in zip(rows, result.scores, result.used_factors):
            got = _scored_bits(model, row)
            assert got == _bits((expected, used))
            assert got == _bits(_general_score(model, row))

    def test_unseen_at_each_place_of_each_statement(self, rng):
        # 50 active factors, 7 statements; 10 pruned factors lie among them
        m = 60
        importance = rng.exponential(1.0, m)
        importance[rng.choice(m, 10, replace=False)] = 0.0
        levels = rng.integers(1, 5, m)
        model = _model([f"f{i}" for i in range(m)],
                       [[f"v{k}" for k in range(n)] for n in levels],
                       importance, [rng.uniform(0.001, 0.999, n) for n in levels])
        active = np.flatnonzero(importance > 0).tolist()
        assert len(active) == 50
        seen = [[int(rng.integers(0, n)) for n in levels] for _ in range(8)]
        rows = [list(row) for row in seen]
        for start in range(0, len(active), SCORER_TERMS):
            statement = active[start:start + SCORER_TERMS]
            for at in (statement[0], statement[len(statement) // 2], statement[-1]):
                for row in seen:
                    rows.append(list(row))
                    rows[-1][at] = int(rng.choice([-1, levels[at]]))
            # this statement's factors and every later one unseen
            rows.append(list(seen[0]))
            for i in active[start:]:
                rows[-1][i] = -1
        self._assert_scalar_equals_batch(model, rows)

    def test_all_pruned_model_scores_global_rate(self):
        with pytest.warns(AllPrunedWarning):
            model = _model_from_counts([[30, 10], [20, 40]], [[50, 50]],
                                       [[10, 20], [30, 40]],
                                       importance=[0.001, 0.0, 0.002], epsilon=0.01)
        for row in ([0, 0, 0], [1, 0, 1], [-1, 7, 2**31 - 1]):
            assert score(model, row) == ScoredRequest(model.global_rate, 0)
        self._assert_scalar_equals_batch(model, [[0, 0, 0], [-1, 7, 1]])

    def test_names_and_labels_never_reach_the_source(self, rng):
        hostile = ["'", '"', "'''", '"""', "\n", "a\nb", "# c", "\\", "{0}", "w0",
                   "__import__('os').system('exit 1')", "factors[0]", ")", "\x00"]
        model = _model(hostile, [[label, f"{label}!", f"#{label}\n"] for label in hostile],
                       rng.exponential(1.0, len(hostile)),
                       [rng.uniform(0.001, 0.999, 3) for _ in hostile])
        labels = [[str(rng.choice([label, f"{label}!", f"#{label}\n", "unseen"]))
                   for label in hostile]
                  for _ in range(200)]
        ids = model.dictionary.encode(list(zip(*labels)))
        assert (ids == -1).any()
        rows = ids.tolist()
        assert [model.encode_labels(row) for row in labels] == [tuple(r) for r in rows]
        self._assert_scalar_equals_batch(model, rows)

    @pytest.mark.parametrize("levels, ids", [
        (["x", "__missing__"], [0, -1, 1, 1]),
        (["x"], [0, -1, -1, -1]),
    ])
    def test_encode_labels_and_columns_agree(self, levels, ids):
        # seen, unseen, empty and __missing__ labels; "" is the __missing__ level
        model = _model(["f"], [levels], [1.0], [np.full(len(levels), 0.4)])
        labels = ["x", "y", "", "__missing__"]
        assert [model.encode_labels([label]) for label in labels] == [(k,) for k in ids]
        assert model.dictionary.encode([labels]).ravel().tolist() == ids

    @pytest.mark.parametrize("columns, message", [
        ([["x"], ["a", "b"]], "got lengths [1, 2]"),
        ([["x", "y"], ["a"]], "got lengths [2, 1]"),
        ([["x"]], "expected 2 columns, got 1"),
        ([["x"], ["a"], ["b"]], "expected 2 columns, got 3"),
    ])
    def test_encode_checks_the_columns(self, columns, message):
        dictionary = FactorDictionary(["f", "g"], [["x", "y"], ["a", "b"]])
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            dictionary.encode(columns)

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_model_round_trips_before_and_after_scoring(self, rng, clone):
        importance = rng.exponential(1.0, 12) * (rng.random(12) < 0.8)
        model = _model([f"f{i}" for i in range(12)], [["a", "b", "c"]] * 12,
                       importance, [rng.uniform(0.01, 0.99, 3) for _ in range(12)])
        rows = rng.integers(-1, 4, (300, 12)).tolist()
        before = clone(model)
        expected = [_scored_bits(model, row) for row in rows]
        after = clone(model)
        for copied in (before, after, clone(after)):
            assert [_scored_bits(copied, row) for row in rows] == expected


# the labels of a factor column: "", "__missing__", both, or neither
LABEL_POOLS = [["", "a", "b"], [MISSING_LEVEL, "a"], ["", MISSING_LEVEL, "é"], ["a", "b", "c"]]


@st.composite
def label_columns(draw):
    """One to three factor columns of one to 30 cells, each from one pool."""
    n = draw(st.integers(1, 30))
    return [draw(st.lists(st.sampled_from(draw(st.sampled_from(LABEL_POOLS))),
                          min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 3)))]


class TestOneLabelRule:
    """Training and scoring read a label cell by one rule: "" is the
    __missing__ level where the levels hold it, and -1 where they do not,
    as is every label the levels lack."""

    @given(columns=label_columns())
    @settings(max_examples=200, deadline=None)
    def test_parse_and_model_encode_alike(self, columns):
        names = tuple(f"f{i}" for i in range(len(columns)))
        rows = [[*names, "label"]] + [[*cells, str(r % 2)]
                                      for r, cells in enumerate(zip(*columns))]
        dictionary, batch = parse_requests("".join(",".join(row) + "\n" for row in rows),
                                           Schema(names, "label"))
        model = train(build_factor_table(batch, dictionary),
                      ImportanceVector(method="shannon", values=np.ones(len(names))))
        ids = model.dictionary.encode(columns)
        assert ids.dtype == batch.factors.dtype and np.array_equal(ids, batch.factors)
        queries = ["", MISSING_LEVEL, "unseen"]
        expected = [[levels.index(cell or MISSING_LEVEL)
                     if (cell or MISSING_LEVEL) in levels else -1
                     for levels in map(dictionary.levels, range(dictionary.m))]
                    for cell in queries]
        assert model.dictionary.encode([queries] * len(names)).tolist() == expected
        assert [list(model.encode_labels([cell] * len(names))) for cell in queries] \
            == expected


class TestScoreBatch:
    def test_empty_stream(self):
        model = _model_from_counts([[1, 3]])
        batch = RequestBatch(np.empty((0, 1)), np.empty(0, dtype=np.int8))
        result = score_batch(model, batch)
        assert len(result) == 0
        assert list(result) == []

    def test_identical_records_identical_scores(self):
        model = _model_from_counts([[1, 3], [4, 0]])
        batch = RequestBatch(np.ones((50, 1)), np.zeros(50, dtype=np.int8))
        result = score_batch(model, batch)
        assert len(set(result.scores.tolist())) == 1

    def test_matches_elementwise_score_bitwise(self, rng):
        spec = RequestSpec(n=100_000, base_rate=0.1, factors=tuple(
            FactorSpec(f"f{i}", ("a", "b", "c"), (0.5, 0.3, 0.2),
                       tuple(rng.normal(0, 0.4, 3)))
            for i in range(6)))
        dictionary, batch = gen_requests(spec, seed=23)
        table = build_factor_table(batch, dictionary)
        model = train(table, rank_factors(table), epsilon=0.0)
        result = score_batch(model, batch)
        single = np.array([score(model, batch[i]).score for i in range(len(batch))])
        assert np.array_equal(result.scores, single)

    def test_plain_tuple_and_list_match_batch_bits(self):
        model = _model_from_counts([[10, 30], [40, 5], [3, 3]], [[25, 25], [18, 23]],
                                   importance=[0.7, 0.2])
        ids = [[0, 1], [2, 0], [1, 5], [-1, 1], [9, -1]]
        result = score_batch(model, RequestBatch(ids, np.zeros(len(ids), dtype=np.int8)))
        for row, expected, used in zip(ids, result.scores, result.used_factors):
            for factors in (tuple(row), list(row)):
                got = score(model, factors)
                assert np.float64(got.score).tobytes() == expected.tobytes()
                assert got.used_factors == used

    def test_order_preserved(self):
        model = _model_from_counts([[1, 3], [4, 0]])
        batch = RequestBatch([[0], [1], [0], [1]], np.zeros(4, dtype=np.int8))
        result = score_batch(model, batch)
        expected = [model.rates[0][k] for k in (0, 1, 0, 1)]
        assert result.scores.tolist() == expected

    # sizes around the kernel's row blocks
    B = SCORE_BLOCK

    @given(n=st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 17]),
           seed=st.integers(0, 2**32 - 1),
           pruned=st.lists(st.booleans(), min_size=1, max_size=6),
           distinct=st.sampled_from([None, 1, 7]),
           unseen=st.sampled_from(["none", "quarter", "one block"]),
           pruned_unseen=st.booleans())
    @example(n=B + 1, seed=0, pruned=[True, True, True], distinct=None,
             unseen="quarter", pruned_unseen=True)
    @example(n=3 * B + 17, seed=1, pruned=[False, True, False, False], distinct=None,
             unseen="one block", pruned_unseen=False)
    # the only unseen id in the last row of the partial final block
    @example(n=3 * B + 17, seed=2, pruned=[True, False, False], distinct=None,
             unseen="last row", pruned_unseen=False)
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_scalar_bit_for_bit(self, n, seed, pruned, distinct, unseen,
                                             pruned_unseen):
        rng = np.random.default_rng(seed)
        levels = rng.integers(1, 6, len(pruned))
        model = _model([f"f{i}" for i in range(len(pruned))],
                       [[f"v{k}" for k in range(n_levels)] for n_levels in levels],
                       np.where(pruned, 0.0, rng.exponential(1.0, len(pruned))),
                       [rng.uniform(0.001, 0.999, n_levels) for n_levels in levels])
        factors = np.column_stack([rng.integers(0, n_levels, n) for n_levels in levels])
        # unseen cells: a quarter of them, a quarter of one row block's, or
        # none; a pruned factor's unseen cells when pruned_unseen
        cells = rng.random(factors.shape) < 0.25
        if unseen != "quarter":
            cells &= np.array(pruned) & pruned_unseen
        if distinct is not None and n:
            # rows repeated from a few distinct ones, as a request log's are
            pick = rng.integers(0, min(distinct, n), n)
            factors, cells = factors[pick], cells[pick]
        if unseen == "one block":
            in_block = np.arange(n) // SCORE_BLOCK == rng.integers(0, n // SCORE_BLOCK + 1)
            cells |= in_block[:, None] & (rng.random(factors.shape) < 0.25)
        if unseen == "last row":
            cells[-1, pruned.index(False)] = True
        for i, n_levels in enumerate(levels):
            # an unseen id is -1, n_levels or an int32 extreme
            factors[cells[:, i], i] = rng.choice([-1, n_levels, 2**31 - 1, -2**31],
                                                 cells[:, i].sum())
        batch = RequestBatch(factors, np.zeros(n, dtype=np.int8))
        expected = [score(model, rec) for rec in batch]
        assert [_bits((s.score, s.used_factors)) for s in expected] \
            == [_bits(_general_score(model, rec)) for rec in batch]
        scores = np.array([s.score for s in expected], dtype=np.float64)
        result = score_batch(model, batch)
        assert result.scores.tobytes() == scores.tobytes()
        # counts 0 to m in the narrowest type that holds m
        assert result.used_factors.dtype == id_dtype([model.m + 1])
        assert result.used_factors.tolist() == [s.used_factors for s in expected]

    @pytest.mark.parametrize("m, dtype", [(127, np.int8), (128, np.int16)])
    def test_used_factor_counts_widen_only_past_int8(self, m, dtype):
        # a count of m factors takes int8 up to 127 factors
        model = _model([f"f{i}" for i in range(m)], [["a", "b"]] * m,
                       np.ones(m), [np.array([0.25, 0.75])] * m)
        ids = np.zeros((3, m), dtype=np.int8)
        ids[1, 0] = 2
        result = score_batch(model, RequestBatch(ids, np.zeros(3, dtype=np.int8)))
        assert result.used_factors.dtype == dtype
        assert result.used_factors.tolist() == [m, m - 1, m]

    @given(n=st.sampled_from([0, 1, 7, B + 1]), seed=st.integers(0, 2**32 - 1),
           m=st.integers(1, 4), unseen_share=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=30, deadline=None)
    def test_c_and_f_order_inputs_give_identical_bits(self, n, seed, m, unseen_share):
        rng = np.random.default_rng(seed)
        levels = rng.integers(1, 6, m)
        names = [f"f{i}" for i in range(m)]
        labels = [[f"v{k}" for k in range(n_levels)] for n_levels in levels]
        model = _model(names, labels, rng.exponential(1.0, m),
                       [rng.uniform(0.001, 0.999, n_levels) for n_levels in levels])
        dictionary = FactorDictionary(names, labels)
        ids = np.column_stack([rng.integers(0, n_levels, n) for n_levels in levels])
        for i, n_levels in enumerate(levels):
            unseen = rng.random(n) < unseen_share
            ids[unseen, i] = rng.choice([-1, n_levels, 2**31 - 1, -2**31], unseen.sum())
        shown = rng.integers(0, 2, n).astype(np.int8)
        outcomes = []
        for factors in (np.ascontiguousarray(ids, dtype=np.int32),
                        np.asfortranarray(ids, dtype=np.int32)):
            batch = RequestBatch(factors, shown)
            try:
                table = [c.tobytes() for c in build_factor_table(batch, dictionary).counts]
            except ValueError as exc:
                table = str(exc)
            result = score_batch(model, batch)
            outcomes.append((table, result.scores.tobytes(), result.used_factors.tobytes()))
        assert outcomes[0] == outcomes[1]

    def test_blocked_kernel_allocates_only_its_outputs(self, rng):
        n, m = 200_000, 20
        model = _model([f"f{i}" for i in range(m)], [[f"v{k}" for k in range(8)]] * m,
                       rng.exponential(1.0, m), [rng.uniform(0.01, 0.99, 8) for _ in range(m)])
        # ids -1 and 8 are unseen; a batch of seen ids takes the seen-levels path
        for low, high in ((-1, 9), (0, 8)):
            batch = RequestBatch(rng.integers(low, high, (n, m)), np.zeros(n, dtype=np.int8))
            result, peak = traced_peak(score_batch, model, batch)
            outputs = result.scores.nbytes + result.used_factors.nbytes
            assert peak <= outputs + 4 * 2**20

    # ids of a narrow type read as unsigned: an int8 -1 is 255 and -128 is
    # 128, real levels of a factor of 129 or 257 levels, so such a model
    # must read a narrower batch as int32
    @given(dtype=st.sampled_from(["int8", "int16", "int32"]),
           wide=st.sampled_from([None, 129, 257, 32_769]),
           n=st.sampled_from([1, 7, B + 1]), seed=st.integers(0, 2**32 - 1))
    @example(dtype="int8", wide=129, n=B + 1, seed=0)
    @example(dtype="int8", wide=257, n=7, seed=1)
    @example(dtype="int8", wide=32_769, n=7, seed=2)
    @example(dtype="int16", wide=32_769, n=B + 1, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_scalar_equals_batch_at_every_id_width(self, dtype, wide, n, seed):
        rng = np.random.default_rng(seed)
        levels = rng.integers(1, 6, 3)
        if wide is not None:
            levels[rng.integers(3)] = wide
        model = _model([f"f{i}" for i in range(3)],
                       [[f"v{k}" for k in range(L)] for L in levels],
                       rng.exponential(1.0, 3), [rng.uniform(0.001, 0.999, L) for L in levels])
        info = np.iinfo(dtype)
        ids = np.column_stack([rng.integers(0, min(L, info.max + 1), n) for L in levels])
        for i, L in enumerate(levels):
            # an unseen id is -1, L where the type holds it, or an extreme
            unseen = rng.random(n) < 0.3
            ids[unseen, i] = rng.choice([-1, info.min, info.max, min(int(L), info.max)],
                                        unseen.sum())
        batch = RequestBatch(np.asfortranarray(ids, dtype=dtype), np.zeros(n, dtype=np.int8))
        assert batch.factors.dtype == dtype
        expected = [score(model, rec) for rec in batch]
        assert [_bits((s.score, s.used_factors)) for s in expected] \
            == [_bits(_general_score(model, rec)) for rec in batch]
        result = score_batch(model, batch)
        assert result.scores.tobytes() == np.array([s.score for s in expected]).tobytes()
        assert result.used_factors.tolist() == [s.used_factors for s in expected]


class TestPace:
    def test_zero_threshold_shows_until_target(self):
        state = PacingState(target_total=5, horizon_requests=100)
        decisions = [pace(state, ScoredRequest(0.5, 1)) for _ in range(10)]
        assert decisions == [True] * 5 + [False] * 5
        assert state.shown_so_far == 5

    def test_zero_target_never_shows(self):
        state = PacingState(target_total=0, horizon_requests=100)
        assert not any(pace(state, ScoredRequest(0.99, 1)) for _ in range(50))

    def test_controller_hits_target_within_ten_percent(self, rng):
        n, target = 100_000, 10_000
        state = PacingState(target_total=target, horizon_requests=n)
        scores = rng.random(n)
        for s in scores:
            pace(state, ScoredRequest(float(s), 1))
        assert abs(state.shown_so_far - target) <= 0.1 * target

    def test_controller_recovers_from_high_threshold(self, rng):
        n, target = 50_000, 5_000
        state = PacingState(target_total=target, horizon_requests=n, threshold=0.9)
        scores = rng.random(n) * 0.5  # all below the initial threshold
        for s in scores:
            pace(state, ScoredRequest(float(s), 1))
        assert abs(state.shown_so_far - target) <= 0.1 * target

    def test_threshold_rises_when_overshowing(self):
        state = PacingState(target_total=10_000, horizon_requests=100_000,
                            threshold=0.2, block_size=100)
        for _ in range(100):
            pace(state, ScoredRequest(0.9, 1))
        # block shown rate 1.0 vs target rate ~0.1: threshold must increase
        assert state.threshold > 0.2

    @given(n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1),
           decimals=st.sampled_from([1, 3, 17]),
           block_size=st.one_of(st.sampled_from([0, 1]), st.integers(2, 700)),
           target_share=st.floats(0.0, 1.2), horizon_share=st.floats(0.0, 2.0),
           threshold=st.floats(0.0, 1.0), gamma=st.floats(0.1, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_scalar_bit_for_bit(self, n, seed, decimals, block_size,
                                              target_share, horizon_share,
                                              threshold, gamma):
        # rounded scores tie with rounded thresholds; target 0 and a horizon
        # shorter than the stream are in range
        scores = np.round(np.random.default_rng(seed).random(n), decimals)
        threshold = round(threshold, decimals)

        def fresh():
            return PacingState(target_total=int(target_share * n),
                               horizon_requests=int(horizon_share * n),
                               threshold=threshold, block_size=block_size, gamma=gamma)

        scalar = fresh()
        decisions, trace = [], []
        for s in scores.tolist():
            decisions.append(pace(scalar, ScoredRequest(s, 1)))
            trace.append(scalar.threshold)
        batch = fresh()
        show, thresholds = pace_batch(batch, scores)
        assert show.dtype == bool and show.tolist() == decisions
        assert thresholds.tobytes() == np.array(trace, dtype=np.float64).tobytes()
        assert batch == scalar
        assert np.float64(batch.threshold).tobytes() \
            == np.float64(scalar.threshold).tobytes()

    def test_batch_continues_a_started_block(self, rng):
        scores = rng.random(2500)
        scalar = PacingState(target_total=300, horizon_requests=2500, threshold=0.3,
                             block_size=100)
        expected = [pace(scalar, ScoredRequest(s, 1)) for s in scores.tolist()]
        batch = PacingState(target_total=300, horizon_requests=2500, threshold=0.3,
                            block_size=100)
        parts = [pace_batch(batch, scores[a:b])[0]
                 for a, b in ((0, 37), (37, 37), (37, 1290), (1290, 2500))]
        assert np.concatenate(parts).tolist() == expected
        assert batch == scalar

    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(0, 2000), max_size=8),
           block_size=st.one_of(st.sampled_from([0, 1]), st.integers(2, 300)),
           target_share=st.floats(0.0, 1.2), threshold=st.floats(0.0, 1.0),
           gamma=st.floats(0.1, 2.0))
    @example(n=1000, seed=0, cuts=[5, 5, 130, 999], block_size=100, target_share=0.1,
             threshold=0.3, gamma=0.5)
    @settings(max_examples=150, deadline=None)
    def test_any_split_paces_as_one_call(self, n, seed, cuts, block_size, target_share,
                                         threshold, gamma):
        # pace's report paces a stream a block of rows at a time: the parts,
        # empty ones and cuts inside a pacing block included, give the
        # decisions, threshold trace and final state of one call, bit for bit
        scores = np.round(np.random.default_rng(seed).random(n), 2)

        def fresh():
            return PacingState(target_total=int(target_share * n), horizon_requests=n,
                               threshold=round(threshold, 2), block_size=block_size,
                               gamma=gamma)

        whole = fresh()
        show, trace = pace_batch(whole, scores)
        split = fresh()
        bounds = [0, *sorted(min(cut, n) for cut in cuts), n]
        parts = [pace_batch(split, scores[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate([p[0] for p in parts]).tobytes() == show.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == trace.tobytes()
        assert split == whole
        assert np.float64(split.threshold).tobytes() == np.float64(whole.threshold).tobytes()


class TestPersistence:
    def _trained(self):
        table = make_table([[10, 30], [40, 5]], [[25, 25], [18, 17]])
        return train(table, ImportanceVector(method="shannon", values=[0.4, 0.1]))

    def test_roundtrip_scores_bit_identical(self, tmp_path, rng):
        model = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(1000):
            rec = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            assert score(model, rec).score == score(loaded, rec).score
        assert loaded.dictionary == model.dictionary
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_fingerprint_must_match_the_levels(self, tmp_path):
        # a valid checksum over levels that the stored fingerprint does not name
        import hashlib
        import json
        path = tmp_path / "model.json"
        save_model(self._trained(), path)
        doc = json.loads(path.read_text().splitlines()[0])
        levels = doc["factors"][1]["levels"]
        doc["factors"][1]["levels"] = dict(reversed(levels.items()))
        body = json.dumps(doc, ensure_ascii=False)
        path.write_text(body + "\nsha256:" + hashlib.sha256(body.encode()).hexdigest() + "\n")
        with pytest.raises(CorruptFile, match="fingerprint does not match the model's levels"):
            load_model(path)

    def test_line_separators_in_labels_round_trip(self, tmp_path):
        # JSON keeps U+2028, U+2029 and U+0085 raw; str.splitlines splits at them
        model = _model([f"f{c}" for c in "\u2028\u2029\x85"],
                       [[f"a{c}", f"{c}", f"b{c}c"] for c in "\u2028\u2029\x85"],
                       [0.5, 0.25, 0.125], [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.factor_names == model.factor_names
        assert loaded.dictionary == model.dictionary
        assert loaded.importance.tobytes() == model.importance.tobytes()
        assert [r.tobytes() for r in loaded.rates] == [r.tobytes() for r in model.rates]
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._trained(), path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_tampered_body_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._trained(), path)
        text = path.read_text().replace('"beta": 0.5', '"beta": 0.9')
        path.write_text(text)
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        import hashlib
        import json
        doc = {"version": 99, "factors": []}
        body = json.dumps(doc, ensure_ascii=False)
        digest = hashlib.sha256(body.encode()).hexdigest()
        path = tmp_path / "model.json"
        path.write_text(body + "\nsha256:" + digest + "\n")
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_different_dictionary_mismatch_at_score_time(self, tmp_path):
        model = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        other = FactorDictionary(["f0", "f1"], [["p", "q"], ["r", "s"]])
        with pytest.raises(FingerprintMismatch):
            score(loaded, (0, 0), dictionary=other)


class TestCalibration:
    def test_mean_score_matches_positive_rate(self):
        spec = RequestSpec(n=100_000, base_rate=0.15, factors=(
            FactorSpec("a", ("x", "y", "z"), (0.4, 0.4, 0.2), (0.5, -0.5, 0.0)),
            FactorSpec("b", ("p", "q"), (0.5, 0.5), (0.25, -0.25)),
            FactorSpec("c", ("u", "v"), (0.5, 0.5), (0.0, 0.0))))
        dictionary, batch = gen_requests(spec, seed=31)
        table = build_factor_table(batch, dictionary)
        model = train(table, rank_factors(table))
        result = score_batch(model, batch)
        rate = batch.labels.mean()
        se = np.sqrt(rate * (1 - rate) / len(batch))
        assert abs(result.scores.mean() - rate) < 3 * se
