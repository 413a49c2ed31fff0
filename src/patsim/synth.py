"""Synthetic cohort generation for desk-scale verification.

Two profiles:

* "planted": the informative dynamic variables split into two kinds.
  "Level" variables shift their whole trajectory for positives, so any
  per-variable summary statistic sees them. "Shape" variables carry a
  strong mean-zero drift for positives (down early, up late) plus only a
  faint level shift, so per-variable summaries barely notice them while
  the bucket-wise trajectory separates the classes sharply. Age gets a
  mild positive shift; everything else is label-independent noise.
* "trend": both classes carry a transient bump on the informative
  variables, positives early and negatives late. The bump returns to
  baseline, so per-variable value distributions (and with them min, max,
  median, first, last, count) are class-matched; only the temporal
  position separates the classes. Statics carry no signal.

Cells are dropped uniformly at the configured missing rate. The manifest
records the informative variables (by kind), each patient's latent risk,
and the generator's own dropped-cell counter, which is the ground truth
for sparsity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vocab
from .config import RunConfig, check_choices
from .ingest import Cohort, Events, Outcomes, build_cohort
from .streams import substream

# signal strengths in units of the per-variable noise scale
LEVEL_SHIFT = 1.2         # level variables: whole-trajectory shift for positives
SHAPE_DRIFT = 3.2         # shape variables: peak-to-peak mean-zero drift
SHAPE_SHIFT = 0.5         # faint level component keeping shape variables
                          # detectable (but undervalued) by summary filters
AGE_SHIFT_YEARS = 12.0
WEIGHT_SHIFT_KG = 11.0
HEIGHT_SHIFT_CM = 4.0
MALE_RATE = {0: 0.48, 1: 0.64}
TREND_BUMP = 2.4          # trend profile: bump amplitude


@dataclass
class SynthSpec:
    n_patients: int = 1000
    prevalence: float = 0.18
    n_informative_variables: int = 2
    missing_rate: float = 0.28
    effect_size: float = 1.0
    seed: int = RunConfig.seed
    profile: str = "planted"

    def __post_init__(self):
        check_choices(**vars(self))


@dataclass
class SynthResult:
    events: Events
    outcomes: Outcomes
    manifest: dict

    def cohort(self) -> Cohort:
        return build_cohort(self.events, self.outcomes)


def _draw_statics(rng, label, spec) -> list:
    """Age, Gender, Height and Weight of one patient, observed at minute 0."""
    # trend profile keeps statics label-free so only temporal shape separates
    informative = spec.profile != "trend"
    shift = spec.effect_size * label if informative else 0.0
    age = 62.0 + AGE_SHIFT_YEARS * shift + 10.0 * rng.standard_normal()
    male_rate = MALE_RATE[label] if informative else 0.5
    gender = float(rng.random() < male_rate)
    height = 170.0 + HEIGHT_SHIFT_CM * shift + 10.0 * rng.standard_normal()
    weight = 80.0 + WEIGHT_SHIFT_KG * shift + 14.0 * rng.standard_normal()
    return [round(max(age, 16.0), 1), gender, round(max(height, 120.0), 1),
            round(max(weight, 30.0), 1)]


def _signal_rows(spec, labels, informative, rng) -> tuple:
    """(risk, rows, level variables, shape variables) of the profile.

    A patient of class y carries the signal risk[i] * rows[y], a
    (36, vocab.N_BUCKETS) array that is zero outside the informative variables.
    """
    t = np.arange(vocab.N_BUCKETS)
    rows = {y: np.zeros((vocab.N_DYNAMIC, vocab.N_BUCKETS)) for y in (0, 1)}
    if spec.profile == "planted":
        # the label enters through the risk, so both classes share one signal shape
        risk = labels * spec.effect_size * rng.uniform(0.75, 1.25, size=len(labels))
        drift = (t / (vocab.N_BUCKETS - 1)) - 0.5             # mean-zero ramp
        shape_vars = [int(v) for v in informative[1::2]]      # alternate: level, shape, ...
        level_vars = [int(v) for v in informative if v not in shape_vars]
        rows[0][level_vars] = LEVEL_SHIFT
        rows[0][shape_vars] = SHAPE_SHIFT + SHAPE_DRIFT * drift
        rows[1] = rows[0]
        return risk, rows, level_vars, shape_vars
    risk = spec.effect_size * rng.uniform(0.75, 1.25, size=len(labels))
    for y, center in ((0, 6.0), (1, 18.0)):                # bump at 12 h vs 36 h
        rows[y][informative] = TREND_BUMP * np.exp(-((t - center) / 3.0) ** 2)
    return risk, rows, [], [int(v) for v in informative]


def _round4(values) -> np.ndarray:
    """Python's `round(x, 4)` of every value, bit for bit.

    np.round takes rint(x * 1e4) / 1e4, and the product carries a rounding
    error of at most |x * 1e4| * 2**-53. Only where that product lies
    within a few such errors of a half-way point, or overflows, can
    np.round land on the other side of the point from Python's correctly
    rounded decimal; those values go through Python's `round`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.round(values, 4)
        scaled = values * 1e4
        clear = np.abs(scaled - np.floor(scaled) - 0.5) > np.abs(scaled) * 2.0 ** -50
    out[~clear] = [round(x, 4) for x in values[~clear].tolist()]
    return out


def generate(spec: SynthSpec) -> SynthResult:
    """Generate events (per patient: statics, then dynamic rows), outcomes and a manifest."""
    rng = substream(spec.seed, "synth")
    n = spec.n_patients
    width = len(str(max(n - 1, 1)))
    pids = [f"p{idx:0{width}d}" for idx in range(n)]

    labels = (rng.random(n) < spec.prevalence).astype(int)
    informative = np.sort(rng.choice(vocab.N_DYNAMIC, size=spec.n_informative_variables,
                                     replace=False))
    baselines = rng.uniform(40.0, 160.0, size=vocab.N_DYNAMIC)
    scales = 0.05 * baselines
    risk, signal_rows, level_vars, shape_vars = _signal_rows(spec, labels, informative, rng)

    shape = (vocab.N_DYNAMIC, vocab.N_BUCKETS, 2)      # variable, bucket, observation
    cell_variable = np.broadcast_to(np.arange(vocab.N_DYNAMIC)[:, None, None], shape)
    bucket_start = (np.arange(vocab.N_BUCKETS) * 60 * vocab.WINDOW_HOURS)[None, :, None]
    observation = np.arange(2)
    # each patient's rows go straight into columns sized for its statics and two
    # observations in every cell; pages past the rows written are never touched
    bound = n * (vocab.N_STATIC + np.prod(shape))
    patient, minutes = np.empty(bound, dtype=np.int32), np.empty(bound, dtype=np.int16)
    variables, values = np.empty(bound, dtype=np.int8), np.empty(bound, dtype=np.float64)
    end = 0
    total_cells = 0
    dropped_cells = 0
    for i in range(n):
        y = int(labels[i])
        static_values = _draw_statics(rng, y, spec)
        offsets = 0.5 * rng.standard_normal(vocab.N_DYNAMIC)
        keep = rng.random((vocab.N_DYNAMIC, vocab.N_BUCKETS)) >= spec.missing_rate
        total_cells += keep.size
        dropped_cells += int(keep.size - keep.sum())
        n_obs = rng.integers(1, 3, size=(vocab.N_DYNAMIC, vocab.N_BUCKETS))
        minute_noise = rng.integers(0, 60 * vocab.WINDOW_HOURS, size=shape)
        value_noise = rng.standard_normal(shape)

        cell_values = (baselines + scales * offsets)[:, None] + scales[:, None] * (
            risk[i] * signal_rows[y] + 0.6 * value_noise[:, :, 0])
        step = scales[:, None] * 0.1 * value_noise[:, :, 1]
        observed = keep[:, :, None] & (observation < n_obs[:, :, None])
        first, start = end, end + vocab.N_STATIC     # the statics, then the dynamic rows
        end = start + int(observed.sum())
        patient[first:end] = i
        minutes[first:start] = 0
        variables[first:start] = np.arange(vocab.N_DYNAMIC, vocab.N_VARIABLES)
        values[first:start] = static_values
        minutes[start:end] = (bucket_start + minute_noise)[observed]
        variables[start:end] = cell_variable[observed]
        values[start:end] = _round4((cell_values[:, :, None] + step[:, :, None] * observation)
                                    [observed])
    for column in (patient, minutes, variables, values):
        column.resize(end, refcheck=False)     # shrinks in place; no view of a column exists
    manifest = {
        "profile": spec.profile,
        "seed": spec.seed,
        "n_patients": n,
        "prevalence_requested": spec.prevalence,
        "prevalence_actual": float(labels.mean()),
        "effect_size": spec.effect_size,
        "missing_rate": spec.missing_rate,
        "informative_variables": [vocab.DYNAMIC_VARIABLES[v] for v in informative],
        "level_variables": [vocab.DYNAMIC_VARIABLES[v] for v in level_vars],
        "shape_variables": [vocab.DYNAMIC_VARIABLES[v] for v in shape_vars],
        "latent_risk": {pid: float(risk[i]) for i, pid in enumerate(pids)},
        "labels": {pid: int(labels[i]) for i, pid in enumerate(pids)},
        "total_cells": total_cells,
        "dropped_cells": dropped_cells,
    }
    events = Events(pids, patient, minutes, variables, values)
    return SynthResult(events, Outcomes(pids, labels), manifest)
