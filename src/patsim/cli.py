"""Command-line interface.

Subcommands: synth, frame, train, predict, evaluate, compare, experiment.
Exit codes: 0 success, 1 validation error or a lost fold process, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import evaluation, framing, ingest, knn, synth, tables, weights as weights_mod
from .config import FEATURE_SETS, PREDICTION_MODES, REPRESENTATIONS, WEIGHTINGS, build_config
from .errors import PatsimError
from .experiments import (PRESETS, default_cohort, knn_method, represent, run_experiment,
                          validation_ids)

logger = logging.getLogger(__name__)


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 7)")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--workers", type=int, default=None,
                        help="cross-validation fold processes, each on one BLAS thread "
                             "unless OPENBLAS_NUM_THREADS is set; memory grows by one "
                             "fold workspace per process (default: available cores)")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")


def _config_from_args(args, **extra):
    overrides = {"seed": args.seed, "workers": args.workers}
    overrides.update(extra)
    return build_config(file_path=args.config, overrides=overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patsim",
        description="Patient-similarity ICU mortality prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-patients", type=int, default=1000)
    p.add_argument("--prevalence", type=float, default=0.18)
    p.add_argument("--informative", type=int, default=2)
    p.add_argument("--missing-rate", type=float, default=0.28)
    p.add_argument("--effect-size", type=float, default=1.0)
    p.add_argument("--profile", choices=synth.PROFILES, default="planted")
    _common_flags(p)

    p = sub.add_parser("frame", help="standardize events into the time-frame grid")
    p.add_argument("--events", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--out-frames", required=True)
    p.add_argument("--out-mask", default=None)
    p.add_argument("--stats-out", default=None, help="write fitted scaling statistics here")
    p.add_argument("--stats-in", default=None, help="reuse training statistics instead of fitting")
    p.add_argument("--window-hours", type=int, default=None)
    p.add_argument("--horizon-hours", type=int, default=None)
    _common_flags(p)

    p = sub.add_parser("train", help="learn feature weights by gradient descent")
    p.add_argument("--frames", required=True)
    p.add_argument("--weights-out", required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--min-rel-improvement", type=float, default=1e-6)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--init-weights", default=None, help="starting weights file")
    _common_flags(p)

    p = sub.add_parser("predict", help="classify patients against a framed cohort")
    p.add_argument("--train-frames", required=True)
    p.add_argument("--query-frames", default=None,
                   help="default: leave-one-out predictions on the training file")
    p.add_argument("--weights", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=PREDICTION_MODES, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    _common_flags(p)

    p = sub.add_parser("evaluate", help="cross-validate one method configuration")
    p.add_argument("--events", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--representation", choices=REPRESENTATIONS, default=None)
    p.add_argument("--weighting", choices=WEIGHTINGS, default=None)
    p.add_argument("--features", choices=FEATURE_SETS, default=None)
    p.add_argument("--manual-weights", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=PREDICTION_MODES, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--split", choices=("none", "validation"), default="none",
                   help="validation: cross-validate only the held-out half of a 50/50 split")
    p.add_argument("--out", required=True, help="fold metrics CSV")
    _common_flags(p)

    p = sub.add_parser("compare", help="compare methods from fold-metric files")
    p.add_argument("reports", nargs="+", metavar="NAME=PATH",
                   help="fold metrics CSVs written by evaluate")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-text", default=None)
    _common_flags(p)

    p = sub.add_parser("experiment", help="run a preset comparison end to end")
    p.add_argument("preset", choices=PRESETS)
    p.add_argument("--events", default=None)
    p.add_argument("--outcomes", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-patients", type=int, default=1000,
                   help="synthetic cohort size when no data files are given")
    p.add_argument("--profile", choices=synth.PROFILES, default=None,
                   help="synthetic profile (default: planted)")
    p.add_argument("--manual-weights", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--folds", type=int, default=None)
    _common_flags(p)

    return parser


def _cmd_synth(args) -> int:
    config = _config_from_args(args)
    spec = synth.SynthSpec(
        n_patients=args.n_patients,
        prevalence=args.prevalence,
        n_informative_variables=args.informative,
        missing_rate=args.missing_rate,
        effect_size=args.effect_size,
        seed=config.seed,
        profile=args.profile,
    )
    result = synth.generate(spec)
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
    config = _config_from_args(args, window_hours=args.window_hours,
                               horizon_hours=args.horizon_hours)
    cohort = ingest.load_cohort(args.events, args.outcomes)
    frames = framing.frame_cohort(cohort, config.window_hours, config.horizon_hours)
    raw_sparsity = framing.sparsity(frames)
    if args.stats_in:
        stats = framing.read_scaling_stats(args.stats_in)
    else:
        stats = framing.fit_scaling(frames)
    dense = framing.scale_frames(frames, stats)
    framing.write_frames(dense, args.out_frames, args.out_mask)
    if args.stats_out:
        framing.write_scaling_stats(stats, args.stats_out)
    print(f"framed {len(dense)} patients "
          f"({config.horizon_hours // config.window_hours} buckets, "
          f"sparsity {raw_sparsity:.4f})")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args, learning_rate=args.lr, k=args.k,
                               max_epochs=args.max_epochs)
    frames = framing.read_frames(args.frames)
    init = None
    if args.init_weights:
        init = weights_mod.load_manual_weights(args.init_weights)
    cfg = weights_mod.TrainConfig(
        learning_rate=config.learning_rate,
        max_epochs=config.max_epochs,
        min_relative_improvement=args.min_rel_improvement,
        patience=args.patience,
        k=config.k,
        initial_weights=init,
    )
    learned, trace = weights_mod.train_gd(frames, cfg)
    weights_mod.save_weights(learned, args.weights_out)
    if args.trace_out:
        weights_mod.save_trace(trace, args.trace_out)
    print(f"trained for {trace.epochs_run} epochs ({trace.stop_reason}), "
          f"best error {trace.best_error:.6f} at epoch {trace.best_epoch}")
    return 0


def _cmd_predict(args) -> int:
    config = _config_from_args(args, k=args.k, mode=args.mode, threshold=args.threshold)
    train_frames = framing.read_frames(args.train_frames)
    w = weights_mod.read_weights(args.weights)
    model = knn.Model(train_frames, w, k=config.k,
                      prediction_mode=config.mode, threshold=config.threshold)
    loo = args.query_frames is None
    queries = model.frames if loo else framing.read_frames(args.query_frames)
    queries = sorted(queries, key=lambda f: f.patient_id)
    labels, scores = knn.classify_batch(queries, model, leave_one_out=loo)
    tables.write_rows(args.out, "patient_id,score,label", (
        f"{q.patient_id},{repr(float(score))},{label}"
        for q, score, label in zip(queries, scores, labels)))
    print(f"scored {len(queries)} patients -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(
        args,
        representation=args.representation,
        weighting=args.weighting,
        features=args.features,
        k=args.k,
        mode=args.mode,
        threshold=args.threshold,
        learning_rate=args.lr,
        folds=args.folds,
    )
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
    metrics = evaluation.cross_validate(patients, method, k_folds=config.folds,
                                        seed=config.seed,
                                        workers=config.effective_workers())
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
        fold_metrics[name] = evaluation.load_fold_metrics(path)
    report = evaluation.compare(fold_metrics, alpha=args.alpha)
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
    config = _config_from_args(args, k=args.k, learning_rate=args.lr, folds=args.folds)
    if args.events and args.outcomes:
        cohort = ingest.load_cohort(args.events, args.outcomes)
    elif args.events or args.outcomes:
        raise PatsimError("supply both --events and --outcomes, or neither")
    else:
        result = default_cohort(config, n_patients=args.n_patients, profile=args.profile)
        cohort = result.cohort()
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
