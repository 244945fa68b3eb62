"""The ledger of options: every parameter of a public adlift callable that
has a default (dataclass fields included), and every flag of every
subcommand. Each is a value a caller may set, so a new one shows up here as
a diff of the lists below, to be weighed against the configurations it adds
for tests and benchmarks to cover."""

import argparse
import importlib
import inspect
import pkgutil

import adlift
from adlift import cli

DEFAULTED = """
errors.DegenerateData(poisson_mean)
features.ImportanceVector(alpha)
features.rank_factors(alpha)
features.rank_factors(method)
features.renyi_mi(alpha)
ingest.Schema(timestamp_column)
ingest.read_columns(check)
predictor.BatchScores(elapsed_s)
predictor.PacingState(block_size)
predictor.PacingState(gamma)
predictor.PacingState(threshold)
predictor.SparseRateModel(alpha)
predictor.SparseRateModel(method)
predictor.score_batch(threads)
predictor.train(beta)
predictor.train(epsilon)
repeatbuy.FrequencyTable(window_hours)
repeatbuy.NbdModel(gof)
repeatbuy.build_frequency_table(window_hours)
repeatbuy.estimate_survival(guard_days)
synth.Harmonic(phase)
synth.IntensitySpec(harmonics)
synth.IntensitySpec(trend)
synth.SynthSpec(churn)
synth.SynthSpec(intensity)
synth.SynthSpec(population)
synth.SynthSpec(requests)
synth.SynthSpec(seed)
timeseries.AlarmConfig(consecutive_hours)
timeseries.AlarmConfig(residual_window)
timeseries.AlarmConfig(sigma_multiplier)
timeseries.AlarmReport(exceedances)
timeseries.SsaModel(rank_reduced)
timeseries.build_virtual_clock(start_hour)
timeseries.check_alarm(config)
timeseries.ssa_fit(L)
timeseries.ssa_fit(r)
""".split()

FLAGS = """
adjust-churn --freq, adjust-churn --mix, adjust-churn --out, adjust-churn --survival,
adjust-churn --threshold, adjust-churn --window-hours,
alarm --R, alarm --c, alarm --forecast, alarm --h, alarm --out, alarm --series,
build-tables --input, build-tables --out, build-tables --schema,
fit-nbd --freq, fit-nbd --out, fit-nbd --window-hours,
forecast --L, forecast --horizon, forecast --out, forecast --r, forecast --series,
pace --block, pace --gamma, pace --horizon, pace --input, pace --model, pace --out,
pace --target, pace --threshold,
rank --alpha, rank --method, rank --out, rank --tables,
score --input, score --model, score --out,
survival --events, survival --guard-days, survival --out, survival --window,
synth --out-events, synth --out-freq, synth --out-requests, synth --out-series,
synth --seed, synth --spec,
train --beta, train --epsilon, train --importance, train --out, train --tables,
virtualize --events, virtualize --out, virtualize --series
"""


def defaulted_parameters() -> list[str]:
    """``module.callable(parameter)`` for each parameter with a default of a
    public function, class or public method defined in an adlift module."""
    found = []
    for info in pkgutil.iter_modules(adlift.__path__):
        module = importlib.import_module(f"adlift.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                targets += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                            if not attr.startswith("_") and callable(getattr(obj, attr))]
            for qualname, target in targets:
                try:
                    parameters = inspect.signature(target).parameters.values()
                except (TypeError, ValueError):  # no signature to read
                    continue
                found += [f"{info.name}.{qualname}({p.name})" for p in parameters
                          if p.default is not p.empty]
    return sorted(found)


def subcommand_flags() -> list[str]:
    """``subcommand --flag`` for each flag of each subcommand but --help."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(f"{command} {action.option_strings[-1]}"
                  for command, subparser in sub.choices.items()
                  for action in subparser._actions
                  if action.option_strings and not isinstance(action, argparse._HelpAction))


def test_the_options_are_the_ledger():
    defaulted, flags = defaulted_parameters(), subcommand_flags()
    print(f"{len(defaulted)} defaulted parameters, {len(flags)} flags: "
          f"{len(defaulted) + len(flags)} options")
    assert defaulted == DEFAULTED
    assert flags == [flag.strip() for flag in FLAGS.split(",")]
