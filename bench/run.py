"""adlift benchmark: drives the request, visit and bidder pipelines end to end.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {requests,visits,bidder} --seed N \
        --seconds S --trace {0,1} [--scale X]

Workloads (sizes in ``bench/spec.json``, scaled by ``--scale``):

- ``requests``: ``adlift synth`` writes a training and a held-out request
  file in set-up; each pass runs build-tables -> rank -> train -> score ->
  pace through ``adlift.cli.dispatch``.
- ``visits``: ``adlift synth`` writes cookie events, a frequency table and
  an hourly series in set-up; each pass runs survival -> fit-nbd ->
  adjust-churn -> forecast -> virtualize -> alarm.
- ``bidder``: a model is trained in memory in set-up; each pass makes one
  score+pace decision per request on one thread, then scores the training
  batch with ``score_batch`` at threads 1 and 2.

With ``--trace 0`` the import and the set-up run several times, and passes
repeat while the next one is expected to end within ``--seconds`` (at least
``min_passes`` of them); the last stdout line carries the end-to-end
metrics: median import plus median set-up time, the sum over the stages of
each stage's time over the passes, peak RSS before the output checks, and
the share of operations that succeeded. The stages a workload's
``first_pass_only`` lists in ``spec.json`` (the 20-s churn Monte-Carlo of
``visits``) run and are checked in the first pass only, and their time goes
into the detail record, not into ``pipeline_s``: on a shared machine the
time of one such call moves by +-20 % with phases that last minutes and
that no reference kernel measured beside it tracks. Other tenants of a shared machine
slow interpreter-bound work by more than the bounds for minutes at a time,
so the import, the set-up and the stages are scaled to a fixed machine
speed (see ``speedref.py``), and a scaled stage counts its median over the
passes. The stages a workload's ``unscaled_stages`` lists in ``spec.json``
run in numpy/scipy kernels that do not track the reference; they count with
their wall time, and since interference only ever lengthens a wall time,
with their fastest pass. Every raw wall time goes into the detail record.

With ``--trace 1`` one untraced and one traced pass run, and the last line
carries every per-layer metric plus the tracing overhead. The line before
it is a detail record: per-stage medians, decision percentiles, ground-truth
errors, report digests and the environment. The exit code is 0 when the run
completed, even if checks failed; ``correct`` says whether they passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["requests", "visits", "bidder"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every row and user count (self-test uses < 1)")
    return p.parse_args(argv)


def environment(adlift):
    import numpy
    import scipy
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "adlift").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "worker_count": adlift.predictor.worker_count(), "src_lines": lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_walls(walls_per_pass):
    return {stage: statistics.median(w[stage] for w in walls_per_pass if stage in w)
            for stage in walls_per_pass[0]}


def import_time(clock):
    """(wall s, scaled s) to import ``adlift.cli`` in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import adlift.cli; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    clock.mark()
    wall = float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=120).stdout)
    return wall, clock.scaled(wall)


def run_untraced(workload, args, spec):
    wspec = spec[workload.name]
    imports = [import_time(workload.clock) for _ in range(spec["import_repeats"])]
    setups = [workload.setup() for _ in range(spec["setup_repeats"])]
    workload.check_inputs()
    walls, scaled = [], []
    t_start = time.perf_counter()
    pass_s = 0.0
    while (len(walls) < wspec["min_passes"]
           or time.perf_counter() - t_start + pass_s <= args.seconds):
        t0 = time.perf_counter()
        skip = wspec["first_pass_only"] if walls else ()
        pass_walls, pass_scaled, _ = workload.run_pass(skip=skip)
        pass_s = time.perf_counter() - t0
        walls.append(pass_walls)
        scaled.append(pass_scaled)
    rss_mb = peak_rss_mb()
    workload.finish()
    ops = workload.ops
    stage_s = {**median_walls(scaled),
               **{k: min(w[k] for w in walls) for k in wspec["unscaled_stages"]}}
    for stage in wspec["first_pass_only"]:
        del stage_s[stage]
    metrics = {
        "setup_s": (statistics.median(s for _, s in imports)
                    + statistics.median(s for _, s in setups), "s"),
        "pipeline_s": (sum(stage_s.values()), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_ratio": (1.0 - ops.failed / ops.attempted, "1"),
    }
    detail = {"import_runs_s": imports, "setup_runs_s": setups,
              "pass_s": [sum(w.values()) for w in walls], "stage_s": median_walls(walls),
              "stage_scaled_s": median_walls(scaled),
              "peak_rss_after_checks_mb": peak_rss_mb()}
    if workload.name == "bidder":
        detail["kernel"] = workload.kernel_numbers(walls)
    return metrics, detail


def run_traced(workload, adlift):
    import layers
    from tracer import Tracer

    workload.setup()
    workload.check_inputs()
    untraced_inputs = workload.input_digests()
    synth_s = workload.synth_s
    tracer = Tracer()
    layers.install(tracer, adlift)
    try:
        workload.setup(tracer)
    finally:
        tracer.restore()
    problems = []
    if workload.input_digests() != untraced_inputs:
        problems.append("set-up inputs differ between traced and untraced runs")

    plain_walls, _, _ = workload.run_pass()
    layers.install(tracer, adlift)
    try:
        # run_pass fails every report that differs from the untraced pass
        traced_walls, _, traced_digests = workload.run_pass(tracer)
    finally:
        tracer.restore()
    workload.finish()
    # a self-check of the tracer's own accounting, not of the program
    for stage, wall in traced_walls.items():
        if stage in layers.STAGES and not tracer.check_stage_sums(stage, wall):
            problems.append(f"self times inside {stage} exceed its wall time")
    workload.ops.record(problems, "tracing")

    plain_s, traced_s = sum(plain_walls.values()), sum(traced_walls.values())
    extra = {f"cli.{stage}.wall_s": wall for stage, wall in plain_walls.items()
             if stage in layers.STAGES}
    if synth_s:
        extra["cli.synth.wall_s"] = synth_s
    extra["trace.overhead_s"] = traced_s - plain_s
    extra["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    for key, value in workload.quality.items():
        if key == "pace.shown":
            extra["predictor.pace.shown_ratio"] = value / workload.target
        elif key.startswith("tau_rel_err."):
            extra["repeatbuy.estimate_survival." + key] = value
        elif key.endswith("_rel_err"):
            extra["repeatbuy.adjust_for_churn." + key] = value
    if workload.name == "bidder":
        extra.update({f"predictor.{k}": v
                      for k, v in workload.kernel_numbers([plain_walls]).items()})
    detail = {"untraced_stage_s": plain_walls, "traced_stage_s": traced_walls,
              "traced_digests": traced_digests}
    return layers.per_layer_metrics(tracer, extra), detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adlift" / "cli.py").is_file():
        print(f"bench: no adlift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    t0 = time.perf_counter()
    import adlift
    import adlift.cli
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS, Ops

    spec = json.loads((BENCH / "spec.json").read_text())
    recorded = {}
    if args.seed == spec["bench_seed"] and args.scale == 1.0:
        recorded = json.loads((BENCH / "digests.json").read_text())[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ops = Ops()
    workload = WORKLOADS[args.workload](spec, args.seed, args.scale, workdir, ops, recorded)
    try:
        if args.trace:
            metrics, detail = run_traced(workload, adlift)
        else:
            metrics, detail = run_untraced(workload, args, spec)
        digests = workload.input_digests()
        digests.update(workload.first_digests or {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "scale": args.scale, "import_s": import_s,
                   "quality": workload.quality, "digests": digests,
                   "failures": ops.failures[:20], "env": environment(adlift)})
    print(json.dumps(detail))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
