"""Command-line interface.

Subcommands: synth, frame, train, predict, evaluate, compare, experiment.
Exit codes: 0 success, 1 validation error or a lost fold process, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import evaluation, experiments, framing, ingest, knn, synth, tables, weights as weights_mod
from .config import _CHOICES, RunConfig, build_config, check_choices, given
from .errors import InputFault, PatsimError

logger = logging.getLogger(__name__)


def _config_from_args(args, fixed=()) -> RunConfig:
    return build_config(args.config, given(args, RunConfig), fixed)


def _build(cls, args, config):
    """`cls` with the run's value of each field RunConfig owns and the flags given for the rest."""
    return cls(**{**given(args, cls), **given(config, cls)})


def _cmd_synth(args) -> int:
    result = synth.generate(_build(synth.SynthSpec, args, _config_from_args(args)))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cohort = result.cohort()
    ingest.write_events(cohort, out / "events.csv")
    ingest.write_outcomes(cohort, out / "outcomes.csv")
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(result.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {cohort.n_patients} patients to {out} "
          f"(prevalence {cohort.labels.mean():.3f})")
    return 0


def _cmd_frame(args) -> int:
    config = _config_from_args(args)
    frames = framing.frame_cohort(ingest.load_cohort(args.events, args.outcomes),
                                  config.window_hours, config.horizon_hours)
    raw_sparsity = framing.sparsity(frames)
    n_buckets = frames.grid.shape[2]
    if args.stats_in:
        stats = framing.read_scaling_stats(args.stats_in)
        if stats.n_buckets != n_buckets:
            raise InputFault(f"stats for {stats.n_buckets} buckets, but the grid has {n_buckets}",
                             path=args.stats_in)
    else:
        stats = framing.fit_scaling(frames)
    dense = framing.scale_frames(frames, stats)
    framing.write_frames(dense, args.out_frames)
    if args.out_mask:
        framing.write_mask(frames, args.out_mask)
    if args.stats_out:
        framing.write_scaling_stats(stats, args.stats_out)
    print(f"framed {len(dense)} patients ({n_buckets} buckets, sparsity {raw_sparsity:.4f})")
    return 0


def _cmd_train(args) -> int:
    cfg = _build(weights_mod.TrainConfig, args, _config_from_args(args))
    frames = framing.read_frames(args.frames)
    if args.init_weights:
        cfg.initial_weights = weights_mod.load_manual_weights(args.init_weights)
    learned, trace = weights_mod.train_gd(weights_mod.Workspace(frames), cfg)
    weights_mod.save_weights(learned, args.weights_out)
    if args.trace_out:
        weights_mod.save_trace(trace, args.trace_out)
    print(f"trained for {trace.epochs_run} epochs ({trace.stop_reason}), "
          f"best error {trace.best_error:.6f} at epoch {trace.best_epoch}")
    return 0


def _cmd_predict(args) -> int:
    config = _config_from_args(args)
    train_frames = framing.read_frames(args.train_frames)
    w = weights_mod.read_weights(args.weights)
    model = knn.Model(train_frames, w, **given(config, knn.Model))
    loo = args.query_frames is None
    queries = model.frames if loo else framing.read_frames(args.query_frames)
    if queries.grid.shape[2] != train_frames.grid.shape[2]:
        raise InputFault(f"{queries.grid.shape[2]} buckets per variable, but the training "
                         f"frames have {train_frames.grid.shape[2]}", path=args.query_frames)
    labels, scores = knn.classify_batch(queries, model, leave_one_out=loo)
    tables.write_rows(args.out, "patient_id,score,label", (
        f"{pid},{repr(float(score))},{label}"
        for pid, score, label in zip(queries.ids, scores, labels)))
    print(f"scored {len(queries)} patients -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    if args.manual_weights and config.weighting != "manual":
        raise PatsimError(f"--manual-weights is for manual weighting, not {config.weighting}")
    manual = weights_mod.load_manual_weights(args.manual_weights) if args.manual_weights else None
    method = experiments.knn_method(config.weighting, config, manual_weights=manual)
    cohort = ingest.load_cohort(args.events, args.outcomes)
    if args.split == "validation":
        cohort = experiments.validation_half(cohort, config.seed)
    metrics = experiments.cross_validate_methods(cohort, [method], config)[method.name]
    evaluation.save_fold_metrics(metrics, args.out)
    mean_f = sum(m.f_measure for m in metrics) / len(metrics)
    print(f"{method.name}: mean F over {len(metrics)} folds = {mean_f:.4f}")
    return 0


def _cmd_compare(args) -> int:
    settings = given(args, evaluation.compare)
    check_choices(**settings)      # before any report is read
    fold_metrics, paths = {}, {}
    for item in args.reports:
        name, sep, path = item.partition("=")
        if not sep:
            raise PatsimError(f"expected NAME=PATH, got {item!r}")
        if name in fold_metrics:
            raise PatsimError(f"report name {name!r} given twice")
        fold_metrics[name], paths[name] = evaluation.load_fold_metrics(path), path
    if len({len(folds) for folds in fold_metrics.values()}) > 1:
        raise PatsimError("reports cover different numbers of folds: " + ", ".join(
            f"{name}={paths[name]} has {len(folds)}" for name, folds in fold_metrics.items()))
    report = evaluation.compare(fold_metrics, **settings)
    _write_report(report, Path(args.out_json), args.out_text and Path(args.out_text))
    print(evaluation.report_to_text(report), end="")
    return 0


def _write_report(report, json_path, text_path=None):
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(evaluation.report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if text_path:
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(evaluation.report_to_text(report))


def _experiment_cohort(args, config):
    """The cohort of the given files, else a synthetic one."""
    if args.events:
        return ingest.load_cohort(args.events, args.outcomes)
    return synth.generate(_build(synth.SynthSpec, args, config)).cohort()


def _cmd_experiment(args) -> int:
    if args.manual_weights and args.preset not in experiments.MANUAL_PRESETS:
        raise PatsimError(f"--manual-weights sets {'/'.join(experiments.MANUAL_PRESETS)}'s "
                          f"manual arm, which {args.preset} does not have")
    config = _config_from_args(args, experiments.fixed_settings(args.preset))
    if bool(args.events) != bool(args.outcomes):
        raise PatsimError("supply both --events and --outcomes, or neither")
    synthetic = [_FLAGS[dest][0] for dest in ("n_patients", "profile")
                 if getattr(args, dest) is not None]
    if args.events and synthetic:
        raise PatsimError(f"{synthetic[0]} sets the synthetic cohort, which --events and "
                          f"--outcomes replace")
    # the cohort goes in unnamed, so run_experiment frees it once it holds the validation half
    report = experiments.run_experiment(
        args.preset, config, _experiment_cohort(args, config),
        manual_weights=weights_mod.load_manual_weights(args.manual_weights)
        if args.manual_weights else None)
    out = Path(args.out_dir)
    _write_report(report, out / f"{args.preset}_report.json",
                  out / f"{args.preset}_report.txt")
    print(evaluation.report_to_text(report), end="")
    return 0


# Every flag once, keyed by its dest: the field or parameter it sets, or the file it
# names. An enum setting takes its choices from config._CHOICES, and a setting's help
# ends with the library's default.
_FLAGS = {
    "preset": ("preset", dict(choices=experiments.PRESETS, help="which comparison to run")),
    "reports": ("reports", dict(nargs="+", metavar="NAME=PATH",
                                help="fold metrics CSVs written by evaluate")),
    "events": ("--events", dict(help="events CSV: patient_id,minute,variable,value")),
    "outcomes": ("--outcomes", dict(help="outcomes CSV: patient_id,in_hospital_death")),
    "out_dir": ("--out-dir", dict(help="directory for the outputs")),
    "out_frames": ("--out-frames", dict(help="framed cohort CSV to write")),
    "out_mask": ("--out-mask", dict(help="0/1 observation mask CSV to write")),
    "stats_out": ("--stats-out", dict(help="write fitted scaling statistics here")),
    "stats_in": ("--stats-in", dict(help="reuse training statistics instead of fitting")),
    "frames": ("--frames", dict(help="framed cohort CSV written by frame")),
    "weights_out": ("--weights-out", dict(help="learned weights CSV to write")),
    "trace_out": ("--trace-out", dict(help="training error per epoch CSV to write")),
    "init_weights": ("--init-weights", dict(help="starting weights file")),
    "train_frames": ("--train-frames", dict(help="framed cohort the neighbors come from")),
    "query_frames": ("--query-frames", dict(help="patients to classify (default: leave-one-out "
                                                  "over the training frames)")),
    "weights": ("--weights", dict(help="feature weights CSV written by train")),
    "manual_weights": ("--manual-weights", dict(help="weights file for manual weighting")),
    "out": ("--out", dict(help="CSV to write: predictions (predict), fold metrics (evaluate)")),
    "out_json": ("--out-json", dict(help="comparison report JSON to write")),
    "out_text": ("--out-text", dict(help="comparison report text to write")),
    "split": ("--split", dict(help="validation: cross-validate only the held-out half of a "
                              "50/50 split (default none)")),
    "window_hours": ("--window-hours", dict(type=int, help="hours per time frame")),
    "horizon_hours": ("--horizon-hours", dict(type=int, help="hours of each stay to frame")),
    "representation": ("--representation", dict(help="time frames or per-variable aggregates")),
    "weighting": ("--weighting", dict(help="how the per-variable weights are set")),
    "features": ("--features", dict(help="variables the distance uses")),
    "k": ("--k", dict(type=int, help="neighbors that vote")),
    "mode": ("--mode", dict(help="how the neighbors vote")),
    "threshold": ("--threshold", dict(type=float, help="score at which a patient is positive")),
    "learning_rate": ("--lr", dict(type=float, help="gradient-descent learning rate")),
    "max_epochs": ("--max-epochs", dict(type=int, help="gradient-descent epoch cap")),
    "min_relative_improvement": ("--min-rel-improvement", dict(
        type=float, help="relative error drop below which an epoch is a plateau")),
    "patience": ("--patience", dict(type=int, help="plateau epochs in a row that stop training")),
    "folds": ("--folds", dict(type=int, help="cross-validation folds")),
    "n_patients": ("--n-patients", dict(type=int, help="size of the synthetic cohort")),
    "prevalence": ("--prevalence", dict(type=float, help="share of positive patients")),
    "n_informative_variables": ("--informative", dict(type=int, help="variables with signal")),
    "missing_rate": ("--missing-rate", dict(type=float, help="share of cells dropped")),
    "effect_size": ("--effect-size", dict(type=float, help="signal strength")),
    "profile": ("--profile", dict(help="synthetic cohort profile")),
    "alpha": ("--alpha", dict(type=float, help="significance level of the Friedman and "
                                               "Wilcoxon tests")),
    "seed": ("--seed", dict(type=int, help="master seed")),
    "config": ("--config", dict(help="key=value config file; flags take precedence")),
    "workers": ("--workers", dict(type=int, help="cross-validation fold processes, 0 = the "
                                  "available cores; train and predict run in one process")),
    "verbose": ("--verbose", dict(action="store_true", help="log progress to stderr")),
}

# Each subcommand: its handler, its help and the dests of the flags it reads; "!" marks
# a required flag. Every subcommand also takes --verbose.
_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic cohort",
              "out_dir! n_patients prevalence n_informative_variables missing_rate "
              "effect_size profile seed config"),
    "frame": (_cmd_frame, "standardize events into the time-frame grid",
              "events! outcomes! out_frames! out_mask stats_out stats_in window_hours "
              "horizon_hours config"),
    "train": (_cmd_train, "learn feature weights by gradient descent",
              "frames! weights_out! trace_out learning_rate max_epochs "
              "min_relative_improvement patience k init_weights config workers"),
    "predict": (_cmd_predict, "classify patients against a framed cohort",
                "train_frames! query_frames weights! k mode threshold out! config workers"),
    "evaluate": (_cmd_evaluate, "cross-validate one method configuration",
                 "events! outcomes! representation weighting features manual_weights k mode "
                 "threshold learning_rate folds split out! seed config workers"),
    "compare": (_cmd_compare, "compare methods from fold-metric files",
                "reports alpha out_json! out_text"),
    "experiment": (_cmd_experiment, "run a preset comparison end to end",
                   "preset events outcomes out_dir! n_patients profile manual_weights k "
                   "learning_rate folds seed config workers"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patsim",
        description="Patient-similarity ICU mortality prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for owner in (evaluation.ComparisonReport, synth.SynthSpec,
                                                weights_mod.TrainConfig, RunConfig)
                for f in fields(owner)}
    for command, (_, text, dests) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in dests.split() + ["verbose"]:
            dest = name.rstrip("!")
            option, kwargs = _FLAGS[dest]
            kwargs = dict(kwargs)
            if dest in _CHOICES:
                kwargs["choices"] = _CHOICES[dest]
            if dest in defaults:
                kwargs["help"] += f" (default {defaults[dest]})"
            if option.startswith("-"):
                kwargs.update(dest=dest, required=name.endswith("!"))
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command][0](args)
    except PatsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
