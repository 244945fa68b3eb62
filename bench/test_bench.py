"""Reduced-size self-test of the benchmark: ``python3 -m pytest bench``.

Runs every workload untraced and traced at a fifth of the bench sizes,
exactly as the benchmark is invoked, and checks that each run prints every
declared metric with its unit, that the output checks pass, and that the
traced run writes the same reports as the untraced one.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.2"


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, *DECLARED["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=[w["name"] for w in DECLARED["workloads"]])
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = run_bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        out[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return out


def test_declared_per_layer_metrics_match_the_tracer():
    sys.path.insert(0, str(BENCH))
    import layers
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, trace, key):
    _, result = runs[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expect = {m["name"]: m["unit"] for m in DECLARED[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expect
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_output_checks_pass(runs, trace):
    detail, result = runs[trace]
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_traced_reports_match_untraced(runs):
    untraced, traced = runs[0][0]["digests"], runs[1][0]["traced_digests"]
    assert traced and all(untraced[name] == d for name, d in traced.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(DECLARED["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
