"""Command-line interface.

Subcommands: synth, frame, train, predict, evaluate, compare, experiment.
Exit codes: 0 success, 1 validation error or a lost fold process, 2 I/O error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys
from pathlib import Path

from . import evaluation, framing, ingest, knn, synth, tables, weights as weights_mod
from .config import (FEATURE_SETS, PREDICTION_MODES, REPRESENTATIONS, WEIGHTINGS, RunConfig,
                     build_config)
from .errors import InputFault, PatsimError
from .experiments import PRESETS, knn_method, represent, run_experiment, validation_ids

logger = logging.getLogger(__name__)


def _common_flags(parser):
    parser.add_argument("--seed", type=int, help=f"master seed (default {RunConfig.seed})")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--workers", type=int,
                        help="cross-validation fold processes, each on one BLAS thread "
                             "unless OPENBLAS_NUM_THREADS is set; memory grows by one "
                             "fold workspace per process (default: available cores)")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")


def _given(source, target) -> dict:
    """The values in `source` named after a parameter of `target`, None dropped.

    Every flag that sets a parameter takes its name as `dest`, so from the
    parsed arguments this is the flags given; from a RunConfig it is the
    run's value of every parameter that RunConfig owns.
    """
    return {name: getattr(source, name) for name in inspect.signature(target).parameters
            if getattr(source, name, None) is not None}


def _config_from_args(args) -> RunConfig:
    return build_config(file_path=args.config, overrides=_given(args, RunConfig))


def _build(cls, args, config):
    """`cls` with the run's value of each field RunConfig owns and the flags given for the rest."""
    return cls(**{**_given(args, cls), **_given(config, cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patsim",
        description="Patient-similarity ICU mortality prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-patients", type=int)
    p.add_argument("--prevalence", type=float)
    p.add_argument("--informative", type=int, dest="n_informative_variables")
    p.add_argument("--missing-rate", type=float)
    p.add_argument("--effect-size", type=float)
    p.add_argument("--profile", choices=synth.PROFILES)
    _common_flags(p)

    p = sub.add_parser("frame", help="standardize events into the time-frame grid")
    p.add_argument("--events", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--out-frames", required=True)
    p.add_argument("--out-mask")
    p.add_argument("--stats-out", help="write fitted scaling statistics here")
    p.add_argument("--stats-in", help="reuse training statistics instead of fitting")
    p.add_argument("--window-hours", type=int)
    p.add_argument("--horizon-hours", type=int)
    _common_flags(p)

    p = sub.add_parser("train", help="learn feature weights by gradient descent")
    p.add_argument("--frames", required=True)
    p.add_argument("--weights-out", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--min-rel-improvement", type=float, dest="min_relative_improvement")
    p.add_argument("--patience", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--init-weights", help="starting weights file")
    _common_flags(p)

    p = sub.add_parser("predict", help="classify patients against a framed cohort")
    p.add_argument("--train-frames", required=True)
    p.add_argument("--query-frames",
                   help="default: leave-one-out predictions on the training file")
    p.add_argument("--weights", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=PREDICTION_MODES)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    _common_flags(p)

    p = sub.add_parser("evaluate", help="cross-validate one method configuration")
    p.add_argument("--events", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--representation", choices=REPRESENTATIONS)
    p.add_argument("--weighting", choices=WEIGHTINGS)
    p.add_argument("--features", choices=FEATURE_SETS)
    p.add_argument("--manual-weights")
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=PREDICTION_MODES)
    p.add_argument("--threshold", type=float)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--folds", type=int)
    p.add_argument("--split", choices=("none", "validation"), default="none",
                   help="validation: cross-validate only the held-out half of a 50/50 split")
    p.add_argument("--out", required=True, help="fold metrics CSV")
    _common_flags(p)

    p = sub.add_parser("compare", help="compare methods from fold-metric files")
    p.add_argument("reports", nargs="+", metavar="NAME=PATH",
                   help="fold metrics CSVs written by evaluate")
    p.add_argument("--alpha", type=float)
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-text")
    _common_flags(p)

    p = sub.add_parser("experiment", help="run a preset comparison end to end")
    p.add_argument("preset", choices=PRESETS)
    p.add_argument("--events")
    p.add_argument("--outcomes")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-patients", type=int,
                   help="synthetic cohort size when no data files are given")
    p.add_argument("--profile", choices=synth.PROFILES,
                   help=f"synthetic profile (default: {synth.SynthSpec.profile})")
    p.add_argument("--manual-weights")
    p.add_argument("--k", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--folds", type=int)
    _common_flags(p)

    return parser


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
    cohort = ingest.load_cohort(args.events, args.outcomes)
    frames = framing.frame_cohort(cohort, config.window_hours, config.horizon_hours)
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
    framing.write_frames(dense, args.out_frames, args.out_mask)
    if args.stats_out:
        framing.write_scaling_stats(stats, args.stats_out)
    print(f"framed {len(dense)} patients ({n_buckets} buckets, sparsity {raw_sparsity:.4f})")
    return 0


def _cmd_train(args) -> int:
    cfg = _build(weights_mod.TrainConfig, args, _config_from_args(args))
    if args.init_weights:
        cfg.initial_weights = weights_mod.load_manual_weights(args.init_weights)
    frames = framing.read_frames(args.frames)
    learned, trace = weights_mod.train_gd(frames, cfg)
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
    model = knn.Model(train_frames, w, k=config.k,
                      prediction_mode=config.mode, threshold=config.threshold)
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
    cohort = ingest.load_cohort(args.events, args.outcomes)
    manual = None
    if args.manual_weights:
        manual = weights_mod.load_manual_weights(args.manual_weights)
    method = knn_method(config.weighting, config, features=config.features,
                        manual_weights=manual)
    ids = cohort.patient_ids
    if args.split == "validation":
        ids = validation_ids(cohort, config.seed)
    patients = represent(cohort, method.representation, config, ids)
    metrics = evaluation.cross_validate(patients, [method], k_folds=config.folds,
                                        seed=config.seed,
                                        workers=config.effective_workers())[method.name]
    evaluation.save_fold_metrics(metrics, args.out)
    mean_f = sum(m.f_measure for m in metrics) / len(metrics)
    print(f"{method.name}: mean F over {len(metrics)} folds = {mean_f:.4f}")
    return 0


def _cmd_compare(args) -> int:
    fold_metrics = {}
    for item in args.reports:
        name, sep, path = item.partition("=")
        if not sep:
            raise PatsimError(f"expected NAME=PATH, got {item!r}")
        if name in fold_metrics:
            raise PatsimError(f"report name {name!r} given twice")
        fold_metrics[name] = evaluation.load_fold_metrics(path)
    report = evaluation.compare(fold_metrics, **_given(args, evaluation.compare))
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


def _cmd_experiment(args) -> int:
    config = _config_from_args(args)
    if args.events and args.outcomes:
        cohort = ingest.load_cohort(args.events, args.outcomes)
    elif args.events or args.outcomes:
        raise PatsimError("supply both --events and --outcomes, or neither")
    else:
        cohort = synth.generate(_build(synth.SynthSpec, args, config)).cohort()
    manual = None
    if args.manual_weights:
        manual = weights_mod.load_manual_weights(args.manual_weights)
    report = run_experiment(args.preset, config, cohort, manual_weights=manual)
    out = Path(args.out_dir)
    _write_report(report, out / f"{args.preset}_report.json",
                  out / f"{args.preset}_report.txt")
    print(evaluation.report_to_text(report), end="")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "frame": _cmd_frame,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command](args)
    except PatsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
