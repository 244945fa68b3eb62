import tracemalloc

import numpy as np
import pytest

from adlift.ingest import EventBatch, FactorDictionary, FactorTable

acceptance_lines: list[str] = []


def make_table(*factor_counts) -> FactorTable:
    """Build a FactorTable straight from (L_i, 2) count arrays."""
    counts = [np.asarray(c, dtype=np.int64) for c in factor_counts]
    total = int(counts[0].sum())
    dictionary = FactorDictionary(
        [f"f{i}" for i in range(len(counts))],
        [[f"v{k}" for k in range(c.shape[0])] for c in counts])
    return FactorTable(counts, total, dictionary)


def make_events(rows) -> EventBatch:
    """Build an EventBatch from (cookie_id, browser, timestamp) triples, with
    labels numbered in first-seen order as parse_cookie_events numbers them."""
    rows = list(rows)
    columns = []
    for j in (0, 1):
        index = {}
        codes = [index.setdefault(row[j], len(index)) for row in rows]
        columns += [codes, list(index)]
    return EventBatch(*columns, [row[2] for row in rows])


def traced_peak(call, *args):
    """``call(*args)`` and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_sessionfinish(session, exitstatus):
    if acceptance_lines:
        print("\n" + "=" * 70)
        print("ACCEPTANCE CRITERIA")
        print("=" * 70)
        for line in acceptance_lines:
            print(line)
