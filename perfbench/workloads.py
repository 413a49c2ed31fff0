"""The benchmark's workloads: set-up, CLI command sequence and output checks.

Set-up runs in the benchmark process on patsim's own modules; the timed
commands run the real `patsim` CLI. Every check returns a list of
failure messages, empty when the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

PATIENTS = 400
K = 10
# Gradient descent stops at a data-dependent epoch, which would make a
# run's time depend on the seed far more than on the code. `train` runs a
# fixed number of epochs: its patience exceeds the cap, so it cannot stop
# early, and its check fails a run that does. exp3's config has no patience
# setting; its cap lies below the earliest fold convergence seen on seeds
# 1-59 (epoch 23), and weights.gd_epochs shows the count. The per-epoch cost,
# which engine changes move, is unchanged.
TRAIN_MAX_EPOCHS = 40
EXP3_MAX_EPOCHS = 15
EXP3_METHODS = ["gd", "chi2", "infogain", "gini", "none"]
EXP3_FOLDS = 20
SAMPLED_QUERIES = 24
TOLERANCE = 1e-12


@dataclass
class Inputs:
    """What set-up leaves for the commands and the checks."""

    files: dict = field(default_factory=dict)   # name -> Path
    n_patients: int = 0
    n_events: int = 0
    labels: dict = field(default_factory=dict)  # patient id -> synth label
    frames: list = None                         # parsed frames file, read once by a check


def _cohort(seed):
    from patsim import synth

    result = synth.generate(synth.SynthSpec(n_patients=PATIENTS, seed=seed, profile="planted"))
    return result, result.cohort()


def setup_frames(work: Path, seed: int) -> Inputs:
    """Synthesize a planted cohort and write its framed file, as `frame` would."""
    from patsim import framing

    result, cohort = _cohort(seed)
    frames = framing.frame_cohort(cohort)
    stats = framing.fit_scaling(frames)
    files = {"frames": work / "frames.csv"}
    framing.write_frames([framing.impute_and_scale(f, stats) for f in frames], files["frames"])
    return Inputs(files, PATIENTS, len(result.events), result.manifest["labels"])


def setup_exp3(work: Path, seed: int) -> Inputs:
    """Synthesize a planted cohort; write its events, outcomes and the run config."""
    from patsim import ingest

    result, cohort = _cohort(seed)
    files = {"events": work / "events.csv", "outcomes": work / "outcomes.csv",
             "config": work / "exp3.cfg"}
    ingest.write_events(cohort, files["events"])
    ingest.write_outcomes(cohort, files["outcomes"])
    files["config"].write_text(f"max_epochs={EXP3_MAX_EPOCHS}\n", encoding="utf-8")
    return Inputs(files, PATIENTS, len(result.events))


# ---------------------------------------------------------------------------
# checks


def _read_csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def _read_weights(path):
    from patsim import vocab

    _, rows = _read_csv_rows(path)
    names = [r[0] for r in rows]
    values = [float(r[1]) for r in rows]
    if names != list(vocab.ALL_VARIABLES):
        return None
    return values


def train_epochs(out: Path) -> int:
    """GD epochs `train` ran, from its trace file (one row per epoch, epoch 0 first)."""
    _, rows = _read_csv_rows(out / "trace.csv")
    return len(rows) - 1


def check_train(inputs: Inputs, out: Path, rng: random.Random) -> list:
    values = _read_weights(out / "weights.csv")
    if values is None:
        return ["weights: expected the 40 variables in canonical order"]
    if not all(math.isfinite(w) and w >= 0 for w in values):
        return ["weights: a weight is negative or not finite"]
    epochs = train_epochs(out)
    if epochs != TRAIN_MAX_EPOCHS:
        return [f"GD ran {epochs} epochs, not the {TRAIN_MAX_EPOCHS} of its cap"]
    return []


def check_predict(inputs: Inputs, out: Path, rng: random.Random) -> list:
    """Leave-one-out labels of sampled patients against a brute-force scan."""
    from patsim import framing, knn

    if inputs.frames is None:
        inputs.frames = framing.read_frames(inputs.files["frames"])
    frames = inputs.frames

    weights = _read_weights(out / "weights.csv")
    if weights is None:
        return ["predict: no usable weights file to check against"]
    _, rows = _read_csv_rows(out / "pred.csv")
    predicted = {r[0]: (float(r[1]), int(r[2])) for r in rows}
    if sorted(predicted) != sorted(inputs.labels):
        return [f"predict: {len(rows)} rows, expected one per patient"]
    failures = []
    for query in rng.sample(frames, SAMPLED_QUERIES):
        scan = sorted((knn.weighted_distance_sq(query, p, weights), p.patient_id, p.label)
                      for p in frames if p.patient_id != query.patient_id)
        positives = sum(label for _, _, label in scan[:K])
        expected = (positives / K, int(2 * positives >= K))
        if predicted[query.patient_id] != expected:
            failures.append(f"predict: {query.patient_id} gave {predicted[query.patient_id]}, "
                            f"brute force {expected}")
    return failures[:5]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_exp3(workers):
    """Check of the exp3 report written by the `--workers` run."""
    def check(inputs: Inputs, out: Path, rng: random.Random) -> list:
        path = out / f"exp3-w{workers}" / "exp3_report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        if report["methods"] != EXP3_METHODS:
            return [f"exp3: methods {report['methods']}, expected {EXP3_METHODS}"]
        folds = report["fold_f_measures"]
        if len(folds) != EXP3_FOLDS or any(len(row) != len(EXP3_METHODS) for row in folds):
            return [f"exp3: expected {EXP3_FOLDS} folds x {len(EXP3_METHODS)} methods"]
        failures = []
        for j, name in enumerate(EXP3_METHODS):
            column = [row[j] for row in folds]
            if not all(0.0 <= f <= 1.0 for f in column):
                failures.append(f"exp3: {name} has a fold F outside [0, 1]")
            if abs(sum(column) / len(column) - report["mean_f_measure"][name]) > TOLERANCE:
                failures.append(f"exp3: {name} mean F disagrees with its fold column")
        return failures
    return check


@dataclass
class Workload:
    name: str
    setup: object           # (work, seed) -> Inputs
    commands: object        # (inputs, out) -> [(label, cli args)]
    checks: dict            # label -> check(inputs, out, rng) -> failures
    # label -> report files that must be byte-identical across the run's commands
    reports: dict = field(default_factory=dict)
    # label -> (out) -> GD epochs the command ran, read from its outputs
    gd_epochs: dict = field(default_factory=dict)


def _fit_predict_commands(inputs, out):
    frames = str(inputs.files["frames"])
    return [
        ("train", ["train", "--frames", frames, "--weights-out", str(out / "weights.csv"),
                   "--trace-out", str(out / "trace.csv"),
                   "--max-epochs", str(TRAIN_MAX_EPOCHS),
                   "--patience", str(TRAIN_MAX_EPOCHS + 1), "--workers", "1"]),
        ("predict", ["predict", "--train-frames", frames, "--weights", str(out / "weights.csv"),
                     "--out", str(out / "pred.csv"), "--workers", "1"]),
    ]


def _exp3_commands(inputs, out):
    """exp3 at --workers 1, then at 2: the report must not depend on it."""
    return [(f"exp3-w{workers}", ["experiment", "exp3",
                                  "--events", str(inputs.files["events"]),
                                  "--outcomes", str(inputs.files["outcomes"]),
                                  "--config", str(inputs.files["config"]),
                                  "--out-dir", str(out / f"exp3-w{workers}"),
                                  "--workers", str(workers)])
            for workers in (1, 2)]


WORKLOADS = {
    "fit-predict": Workload("fit-predict", setup_frames, _fit_predict_commands,
                            {"train": check_train, "predict": check_predict},
                            gd_epochs={"train": train_epochs}),
    "exp3": Workload("exp3", setup_exp3, _exp3_commands,
                     {f"exp3-w{w}": check_exp3(w) for w in (1, 2)},
                     {f"exp3-w{w}": (f"exp3-w{w}/exp3_report.json", f"exp3-w{w}/exp3_report.txt")
                      for w in (1, 2)}),
}
