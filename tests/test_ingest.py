import numpy as np
import pytest

from adlift.errors import (BadLabel, MissingColumn, RaggedRow, UnalignedWindow)
from adlift.ingest import (CookieEvent, FactorDictionary, MISSING_LEVEL,
                           RequestBatch, RequestRecord, Schema,
                           aggregate_hourly, build_factor_table,
                           parse_cookie_events, parse_requests, read_columns,
                           write_requests_csv)
from adlift.synth import FactorSpec, RequestSpec, gen_requests

SCHEMA1 = Schema(factor_columns=("browser",), label_column="label")


class TestSchema:
    def test_from_json_roundtrip(self):
        schema = Schema(("browser", "os"), "label", timestamp_column="ts")
        again = Schema.from_json(schema.to_json())
        assert again == schema

    def test_rejects_duplicate_factors(self):
        with pytest.raises(ValueError):
            Schema(("a", "a"), "label")

    def test_rejects_label_overlap(self):
        with pytest.raises(ValueError):
            Schema(("a", "label"), "label")

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            Schema.from_json('{"version": 2, "factors": ["a"], "label": "y"}')


class TestParseRequests:
    def test_two_line_file(self):
        text = "browser,label\nchrome,1\nsafari,0\n"
        dictionary, records = parse_requests(text, SCHEMA1)
        assert dictionary.level_count(0) == 2
        assert dictionary.levels(0) == ["chrome", "safari"]
        assert len(records) == 2
        assert records[0] == RequestRecord((0,), 1)
        assert records[1] == RequestRecord((1,), 0)

    def test_header_only(self):
        dictionary, records = parse_requests("browser,label\n", SCHEMA1)
        assert len(records) == 0
        assert dictionary.level_count(0) == 0

    def test_first_seen_order(self):
        text = "browser,label\nz,0\na,0\nz,1\n"
        dictionary, _ = parse_requests(text, SCHEMA1)
        assert dictionary.levels(0) == ["z", "a"]

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_requests("device,label\nx,1\n", SCHEMA1)

    def test_bad_label_reports_line(self):
        with pytest.raises(BadLabel, match="line 3"):
            parse_requests("browser,label\nchrome,0\nchrome,2\n", SCHEMA1)

    def test_ragged_row(self):
        with pytest.raises(RaggedRow, match="line 2"):
            parse_requests("browser,label\nchrome\n", SCHEMA1)

    def test_empty_value_becomes_missing_level(self):
        dictionary, records = parse_requests("browser,label\n,1\n", SCHEMA1)
        assert dictionary.levels(0) == [MISSING_LEVEL]
        assert records[0].factors == (0,)

    def test_empty_and_literal_missing_share_one_level(self):
        text = "browser,label\nz,0\n__missing__,1\n,0\na,1\n,1\n"
        dictionary, records = parse_requests(text, SCHEMA1)
        assert dictionary.levels(0) == ["z", MISSING_LEVEL, "a"]
        assert records.factors[:, 0].tolist() == [0, 1, 1, 2, 1]
        dictionary, records = parse_requests("browser,label\n,0\n__missing__,1\n",
                                             SCHEMA1)
        assert dictionary.levels(0) == [MISSING_LEVEL]
        assert records.factors[:, 0].tolist() == [0, 0]

    @pytest.mark.parametrize("text, error, line", [
        ("browser,label\nchrome,0\nchrome,2\nchrome\n", BadLabel, 3),
        ("browser,label\nchrome,0\nchrome\nchrome,2\n", RaggedRow, 3),
        ("browser,label\nchrome,x\n\nchrome,1\n", BadLabel, 2),
        ("browser,label\nchrome,1\n\nchrome,x\n", RaggedRow, 3),
    ])
    def test_earliest_bad_line_wins(self, text, error, line):
        with pytest.raises(error, match=f"line {line}:"):
            parse_requests(text, SCHEMA1)

    def test_earliest_bad_line_wins_across_read_chunks(self):
        rows = ["chrome,0"] * 70_000
        rows[65_999] = "chrome,7"
        rows[69_999] = "chrome"
        with pytest.raises(BadLabel, match="line 66001:"):
            parse_requests("browser,label\n" + "\n".join(rows) + "\n", SCHEMA1)
        rows[65_999] = "chrome,0"
        with pytest.raises(RaggedRow, match="line 70001:"):
            parse_requests("browser,label\n" + "\n".join(rows) + "\n", SCHEMA1)

    def test_extra_columns_ignored(self):
        text = "junk,browser,label\nx,chrome,1\n"
        _, records = parse_requests(text, SCHEMA1)
        assert len(records) == 1

    def test_synth_roundtrip_1000(self, tmp_path):
        spec = RequestSpec(n=1000, base_rate=0.2, factors=(
            FactorSpec("browser", ("chrome", "safari", "ff"), (0.5, 0.3, 0.2),
                       (0.4, 0.0, -0.2)),
            FactorSpec("os", ("win", "mac"), (0.7, 0.3), (0.0, 0.0))))
        dictionary, batch = gen_requests(spec, seed=11)
        path = tmp_path / "requests.csv"
        write_requests_csv(path, spec.schema(), dictionary, batch)
        with open(path) as fh:
            dic2, batch2 = parse_requests(fh, spec.schema())
        # ids may be permuted (first-seen order); decoded labels must agree
        assert np.array_equal(batch2.labels, batch.labels)
        for i in range(spec.factors.__len__()):
            orig = [dictionary.label_of(i, k) for k in batch.factors[:, i]]
            back = [dic2.label_of(i, k) for k in batch2.factors[:, i]]
            assert back == orig

    def test_parse_serialize_parse_identity(self, tmp_path):
        spec = RequestSpec(n=500, base_rate=0.2, factors=(
            FactorSpec("browser", ("chrome", "safari", "ff"), (0.5, 0.3, 0.2),
                       (0.0, 0.0, 0.0)),))
        dictionary, batch = gen_requests(spec, seed=12)
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        write_requests_csv(p1, spec.schema(), dictionary, batch)
        with open(p1) as fh:
            d1, b1 = parse_requests(fh, spec.schema())
        write_requests_csv(p2, spec.schema(), d1, b1)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p2) as fh:
            d2, b2 = parse_requests(fh, spec.schema())
        assert d2 == d1
        assert np.array_equal(b2.factors, b1.factors)
        assert np.array_equal(b2.labels, b1.labels)


class TestReadColumns:
    def test_columns_in_requested_order(self):
        text = "a,b,c\n1,2,3\n4,5,6\n"
        assert read_columns(text, ["c", "a"]) == [["3", "6"], ["1", "4"]]

    def test_quoted_cells_and_tabs(self):
        assert read_columns('a,b\n"x,y",2\n', ["a"]) == [["x,y"]]
        assert read_columns("a\tb\nx\t2\n", ["b"], delimiter="\t") == [["2"]]

    def test_blank_line_is_ragged(self):
        with pytest.raises(RaggedRow, match="line 3: expected 2 fields, got 0"):
            read_columns("a,b\n1,2\n\n3,4\n", ["a"])

    def test_empty_input_and_missing_column(self):
        with pytest.raises(MissingColumn):
            read_columns("", ["a"])
        with pytest.raises(MissingColumn, match="'b'"):
            read_columns("a\n1\n", ["a", "b"])


class TestFactorTable:
    def test_hand_count(self):
        dictionary = FactorDictionary(["f"], [["A", "B"]])
        records = [RequestRecord((0,), 1), RequestRecord((0,), 0),
                   RequestRecord((1,), 0), RequestRecord((1,), 0)]
        table = build_factor_table(records, dictionary)
        assert table.total == 4
        assert table.counts[0].tolist() == [[1, 1], [2, 0]]

    def test_empty_records(self):
        dictionary = FactorDictionary(["f"], [["A"]])
        table = build_factor_table([], dictionary)
        assert table.total == 0
        assert table.counts[0].tolist() == [[0, 0]]

    def test_row_sums_equal_total(self):
        spec = RequestSpec(n=5000, base_rate=0.1, factors=(
            FactorSpec("a", ("x", "y", "z"), (0.2, 0.3, 0.5), (0.0,) * 3),
            FactorSpec("b", ("p", "q"), (0.6, 0.4), (0.0, 0.0))))
        dictionary, batch = gen_requests(spec, seed=3)
        table = build_factor_table(batch, dictionary)
        for counts in table.counts:
            assert int(counts.sum()) == table.total == 5000

    def test_marginals_match_generator(self):
        probs = (0.5, 0.3, 0.2)
        spec = RequestSpec(n=100_000, base_rate=0.1, factors=(
            FactorSpec("a", ("x", "y", "z"), probs, (0.0,) * 3),))
        dictionary, batch = gen_requests(spec, seed=8)
        table = build_factor_table(batch, dictionary)
        level_totals = table.counts[0].sum(axis=1)
        for k, p in enumerate(probs):
            se = np.sqrt(p * (1 - p) * spec.n)
            assert abs(level_totals[k] - p * spec.n) < 3 * se


class TestAggregateHourly:
    def test_three_events_one_hour(self):
        events = [CookieEvent("a", "chrome", 10),
                  CookieEvent("b", "chrome", 3599),
                  CookieEvent("c", "chrome", 1800)]
        series, dropped = aggregate_hourly(events, (0, 7200))
        assert series.counts.tolist() == [3, 0]
        assert dropped == 0

    def test_no_events(self):
        series, dropped = aggregate_hourly([], (0, 3600 * 5))
        assert series.counts.tolist() == [0] * 5
        assert dropped == 0

    def test_event_conservation_with_drops(self):
        events = [CookieEvent("a", "c", -5), CookieEvent("b", "c", 100),
                  CookieEvent("c", "c", 3600 * 3)]
        series, dropped = aggregate_hourly(events, (0, 3600 * 2))
        assert int(series.counts.sum()) + dropped == 3
        assert dropped == 2

    def test_unaligned_window(self):
        with pytest.raises(UnalignedWindow):
            aggregate_hourly([], (0, 5000))
        with pytest.raises(UnalignedWindow):
            aggregate_hourly([], (3600, 3600))

    def test_poisson_simulation_mean(self, rng):
        lam, hours = 50.0, 100
        ts = []
        for h in range(hours):
            n = rng.poisson(lam)
            ts.extend(h * 3600 + rng.integers(0, 3600, n))
        events = [CookieEvent(str(i), "c", int(t)) for i, t in enumerate(ts)]
        series, _ = aggregate_hourly(events, (0, hours * 3600))
        assert abs(series.counts.mean() - lam) < 3 * np.sqrt(lam / hours)


class TestCookieEvents:
    def test_parse(self):
        text = "cookie_id,browser,timestamp\nc1,chrome,1000\nc2,safari,2000\n"
        events = parse_cookie_events(text)
        assert events == [CookieEvent("c1", "chrome", 1000),
                          CookieEvent("c2", "safari", 2000)]

    def test_bad_timestamp(self):
        with pytest.raises(BadLabel, match="line 2"):
            parse_cookie_events("cookie_id,browser,timestamp\nc1,chrome,xx\n")

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_cookie_events("cookie,browser,timestamp\n")


class TestRequestBatch:
    def test_sequence_protocol(self):
        batch = RequestBatch(np.array([[0, 1], [1, 0]], dtype=np.int32),
                             np.array([1, 0], dtype=np.int8))
        assert len(batch) == 2
        assert batch[1] == RequestRecord((1, 0), 0)
        assert list(batch)[0] == RequestRecord((0, 1), 1)
        assert len(batch[:1]) == 1

    def test_from_records_roundtrip(self):
        records = [RequestRecord((2, 0), 1), RequestRecord((0, 1), 0)]
        batch = RequestBatch.from_records(records)
        assert list(batch) == records
