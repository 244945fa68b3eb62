"""What each CLI process imports before it does any work.

Only ``fit-nbd`` and ``adjust-churn`` need scipy, and of it only
``scipy.special``; ``import adlift.cli`` loads none of it. These tests count
modules in a fresh interpreter rather than timing the import, so load on the
machine cannot make them flake.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SPEC = {
    "seed": 7,
    "requests": {
        "n": 2000,
        "base_rate": 0.1,
        "factors": [
            {"name": "browser", "levels": ["chrome", "safari", "ff"],
             "probs": [0.5, 0.3, 0.2], "effects": [0.5, -0.5, 0.0]},
            {"name": "os", "levels": ["win", "mac"],
             "probs": [0.6, 0.4], "effects": [0.3, -0.3]},
        ],
    },
    "population": {"k": 0.8, "m": 2.5, "users": 3000, "window_hours": 240},
    "churn": {"tau_days": {"chrome": 6.0, "safari": 10.0},
              "mix": {"chrome": 0.7, "safari": 0.3}},
    "intensity": {"n_hours": 300, "base": 40.0,
                  "harmonics": [{"period_hours": 24, "amplitude": 20.0}]},
}
SCHEMA = {"version": 1, "factors": ["browser", "os"], "label": "label"}

# runs each argv list of sys.argv[1] through dispatch, then prints the exit
# codes and the scipy modules loaded
DISPATCH = """
import json, sys
{prelude}
import adlift, adlift.cli
codes = [adlift.cli.dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_fresh(argvs, prelude=""):
    proc = subprocess.run(
        [sys.executable, "-c", DISPATCH.format(prelude=prelude), json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    return codes, scipy_modules


def write_inputs(d):
    (d / "spec.json").write_text(json.dumps(SPEC))
    (d / "schema.json").write_text(json.dumps(SCHEMA))
    return d


@pytest.fixture
def d(tmp_path):
    return write_inputs(tmp_path)


def synth(d):
    return ["synth", f"--spec={d / 'spec.json'}",
            f"--out-requests={d / 'requests.csv'}", f"--out-events={d / 'events.csv'}",
            f"--out-freq={d / 'freq.csv'}", f"--out-series={d / 'hourly.csv'}"]


def survival(d):
    return ["survival", f"--events={d / 'events.csv'}", "--window=0:864000",
            "--guard-days=3", f"--out={d / 'survival.csv'}"]


def fit_nbd(d):
    return ["fit-nbd", f"--freq={d / 'freq.csv'}", "--window-hours=240",
            f"--out={d / 'nbd.json'}"]


def adjust_churn(d):
    return ["adjust-churn", f"--freq={d / 'freq.csv'}", f"--survival={d / 'survival.csv'}",
            "--window-hours=240", f"--out={d / 'churn.json'}"]


class TestImportGuard:
    def test_import_loads_no_scipy(self):
        assert run_fresh([]) == ([], [])

    def test_fit_nbd_loads_no_scipy_stats(self, d):
        codes, scipy_modules = run_fresh([synth(d), fit_nbd(d)])
        assert codes == [0, 0]
        assert json.loads((d / "nbd.json").read_text())["gof"]["dof"] >= 1
        assert "scipy.special" in scipy_modules
        assert not [m for m in scipy_modules if m.startswith(("scipy.stats",
                                                              "scipy.optimize"))]

    def test_adjust_churn_loads_no_scipy_stats(self, d):
        codes, scipy_modules = run_fresh([synth(d), survival(d), adjust_churn(d)])
        assert codes == [0, 0, 0]
        assert not [m for m in scipy_modules if m.startswith(("scipy.stats",
                                                              "scipy.optimize"))]

    def test_every_stage_in_one_process_loads_no_scipy_optimize(self, d):
        argvs = [*stages(d), fit_nbd(d), adjust_churn(d)]
        codes, scipy_modules = run_fresh(argvs)
        assert codes == [0] * len(argvs)
        assert "scipy.special" in scipy_modules
        assert not [m for m in scipy_modules if m.startswith("scipy.optimize")]


def stages(d):
    return [
        synth(d),
        ["build-tables", f"--schema={d / 'schema.json'}", f"--input={d / 'requests.csv'}",
         f"--out={d / 'tables.json'}"],
        ["rank", f"--tables={d / 'tables.json'}", f"--out={d / 'importance.json'}"],
        ["train", f"--tables={d / 'tables.json'}", f"--importance={d / 'importance.json'}",
         "--epsilon=0.001", f"--out={d / 'model.json'}"],
        ["score", f"--model={d / 'model.json'}", f"--input={d / 'requests.csv'}",
         f"--out={d / 'scores.csv'}"],
        ["pace", f"--model={d / 'model.json'}", f"--input={d / 'requests.csv'}",
         "--target=200", f"--out={d / 'decisions.csv'}"],
        survival(d),
        ["forecast", f"--series={d / 'hourly.csv'}", "--L=48", "--r=3",
         "--horizon=24", f"--out={d / 'forecast.csv'}"],
        ["virtualize", f"--series={d / 'hourly.csv'}", f"--events={d / 'events.csv'}",
         f"--out={d / 'virtual.csv'}"],
        ["alarm", f"--series={d / 'hourly.csv'}", f"--forecast={d / 'forecast.csv'}",
         f"--out={d / 'alarm.json'}"],
    ]


STAGES = [argv[0] for argv in stages(Path("."))]


@pytest.fixture(scope="module")
def codes_without_scipy(tmp_path_factory):
    """Exit code of each stage, all run in one fresh interpreter where
    scipy cannot be imported."""
    d = write_inputs(tmp_path_factory.mktemp("no_scipy"))
    # a None entry makes every import of scipy raise ImportError
    codes, _ = run_fresh(stages(d), prelude='sys.modules["scipy"] = None')
    return dict(zip(STAGES, codes))


@pytest.mark.parametrize("stage", STAGES)
def test_stage_runs_without_scipy(codes_without_scipy, stage):
    assert codes_without_scipy[stage] == 0


def test_calls_in_one_process_match_fresh_processes(d):
    """The parser is built once per process: neither a usage error nor a
    call with non-default flags leaves a value for the next call to read."""
    setup = stages(d)[:4]
    assert run_fresh(setup)[0] == [0] * len(setup)
    tables = f"--tables={d / 'tables.json'}"

    def calls(tag):
        return [["rank", "--method=renyi", "--alpha=0.5", tables],
                ["rank", "--method=renyi", "--alpha=0.5", tables,
                 f"--out={d / f'renyi_{tag}.json'}"],
                ["rank", tables, f"--out={d / f'importance_{tag}.json'}"]]

    fresh = [run_fresh([argv])[0][0] for argv in calls("fresh")]
    shared = run_fresh(calls("shared"))[0]
    assert fresh == shared == [1, 0, 0]
    assert (d / "renyi_shared.json").read_bytes() == (d / "renyi_fresh.json").read_bytes()
    assert (d / "renyi_shared.json").read_bytes() != (d / "importance.json").read_bytes()
    for tag in ("fresh", "shared"):
        assert (d / f"importance_{tag}.json").read_bytes() \
            == (d / "importance.json").read_bytes()
