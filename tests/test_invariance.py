"""Outputs do not depend on how the work is cut up.

Each knob below changes only the shape of the execution. `predict`
(leave-one-out and `--query-frames`) and `evaluate` must write the same
bytes at every value of it as at its default, and so must every command
of the whole pipeline at any drawn combination of the knobs, which must
also exit the same way, refusals included.
"""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patsim import knn, tables
from patsim.cli import main

N_PATIENTS, FOLDS = 60, 4
# evaluate's training side: the cohort less one fold (the folds are equal at 60 and 4)
N_FOLD_TRAIN = N_PATIENTS - N_PATIENTS // FOLDS

# Queries per neighbor-search block, set through knn.SCREEN_ELEMENTS, the element
# budget of the screen's (block, n_train) arrays, and checked against its default.
SCREEN_BLOCKS = (1, 3)

# Bytes per columnar read, tables.BLOCK_BYTES, against its default of 1 MiB. A block
# is extended to the end of its last line, so an events file is then parsed about 150
# rows at a time and a frames file (about 17 KB a row) one row at a time.
READ_BLOCK_BYTES = 4096


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("invariance")
    for name, seed in (("train", "5"), ("query", "6")):
        assert main(["synth", "--out-dir", str(root / name), "--n-patients", str(N_PATIENTS),
                     "--seed", seed]) == 0
        assert main(["frame", "--events", str(root / name / "events.csv"),
                     "--outcomes", str(root / name / "outcomes.csv"),
                     "--out-frames", str(root / f"{name}_frames.csv")]) == 0
    assert main(["train", "--frames", str(root / "train_frames.csv"), "--weights-out",
                 str(root / "w.csv"), "--k", "5", "--max-epochs", "3"]) == 0
    (root / "run.cfg").write_text("max_epochs = 3\n")
    return root


def outputs(inputs, out_dir, block_queries):
    """The bytes of every output, with blocks of `block_queries` queries."""
    out_dir.mkdir()
    predict = ["predict", "--train-frames", str(inputs / "train_frames.csv"),
               "--weights", str(inputs / "w.csv"), "--k", "5", "--mode", "weighted"]
    runs = {
        "loo.csv": (predict, N_PATIENTS),
        "query.csv": (predict + ["--query-frames", str(inputs / "query_frames.csv")],
                      N_PATIENTS),
        "folds.csv": (["evaluate", "--events", str(inputs / "train" / "events.csv"),
                       "--outcomes", str(inputs / "train" / "outcomes.csv"), "--folds",
                       str(FOLDS), "--k", "5", "--workers", "1", "--config",
                       str(inputs / "run.cfg")], N_FOLD_TRAIN),
    }
    for name, (argv, n_train) in runs.items():
        budget = knn.SCREEN_ELEMENTS if block_queries is None else block_queries * n_train
        with mock.patch.object(knn, "SCREEN_ELEMENTS", budget):
            assert main(argv + ["--out", str(out_dir / name)]) == 0
    return {name: (out_dir / name).read_bytes() for name in runs}


@pytest.fixture(scope="module")
def default_outputs(inputs):
    return outputs(inputs, inputs / "default", None)


@pytest.mark.parametrize("block_queries", SCREEN_BLOCKS)
def test_outputs_do_not_depend_on_the_screen_block(inputs, default_outputs, block_queries):
    assert outputs(inputs, inputs / f"block_{block_queries}", block_queries) == default_outputs


def test_outputs_do_not_depend_on_the_read_block(inputs, default_outputs):
    with mock.patch.object(tables, "BLOCK_BYTES", READ_BLOCK_BYTES):
        assert outputs(inputs, inputs / "read_block", None) == default_outputs


# Every execution-shape knob with the values drawn for it, its default first:
# the screen's element budget (1: one query per block), the columnar read block
# (512: about 15 events rows, or one frames row, per np.loadtxt call) and the
# cross-validation fold processes.
KNOBS = [
    ("screen_elements", (knn.SCREEN_ELEMENTS, 1, 100)),
    ("block_bytes", (tables.BLOCK_BYTES, 512, 4096)),
    ("workers", (1, 2, 3)),
]
DEFAULT_SHAPE = {name: values[0] for name, values in KNOBS}


def pipeline(root, seed, screen_elements, block_bytes, workers) -> tuple:
    """The exit codes of synth, frame, train, predict in both modes, evaluate and
    exp3 on a 40-patient cohort in the given shape, up to the first that refuses,
    and the bytes of every file they write."""
    out = Path(root) / f"s{screen_elements}-b{block_bytes}-w{workers}"
    files = {name: str(out / name) for name in (
        "events.csv", "outcomes.csv", "frames.csv", "mask.csv", "stats.txt", "w.csv",
        "trace.csv", "majority.csv", "weighted.csv", "folds.csv", "run.cfg")}
    out.mkdir()
    Path(files["run.cfg"]).write_text("max_epochs = 3\n")
    run = ["--k", "3", "--workers", str(workers)]
    commands = [
        ["synth", "--out-dir", str(out), "--n-patients", "40", "--prevalence", "0.3",
         "--seed", str(seed)],
        ["frame", "--events", files["events.csv"], "--outcomes", files["outcomes.csv"],
         "--out-frames", files["frames.csv"], "--out-mask", files["mask.csv"],
         "--stats-out", files["stats.txt"]],
        ["train", "--frames", files["frames.csv"], "--weights-out", files["w.csv"],
         "--trace-out", files["trace.csv"], "--max-epochs", "3"] + run,
        *(["predict", "--train-frames", files["frames.csv"], "--weights", files["w.csv"],
           "--mode", mode, "--out", files[f"{mode}.csv"]] + run
          for mode in ("majority", "weighted")),
        ["evaluate", "--events", files["events.csv"], "--outcomes", files["outcomes.csv"],
         "--folds", "3", "--config", files["run.cfg"], "--out", files["folds.csv"]] + run,
        ["experiment", "exp3", "--events", files["events.csv"], "--outcomes",
         files["outcomes.csv"], "--folds", "3", "--config", files["run.cfg"],
         "--out-dir", str(out)] + run,
    ]
    with mock.patch.object(knn, "SCREEN_ELEMENTS", screen_elements), \
            mock.patch.object(tables, "BLOCK_BYTES", block_bytes):
        codes = []
        for argv in commands:
            codes.append(main(argv))
            if codes[-1]:
                break
    return codes, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def expected_codes(outcomes: bytes) -> list:
    """0 for each of the seven commands, up to the first that refuses the cohort
    with exit 1: evaluate when a class has fewer than 3 members for its 3 folds,
    exp3 when a class has fewer than 3 in the validation half, which gets the
    floor half of each class."""
    labels = [line.rsplit(b",", 1)[1] for line in outcomes.splitlines()[1:]]
    smaller = min(labels.count(b"0"), labels.count(b"1"))
    if smaller < 3:
        return [0] * 5 + [1]
    if smaller // 2 < 3:
        return [0] * 6 + [1]
    return [0] * 7


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 16),
       st.fixed_dictionaries({name: st.sampled_from(values) for name, values in KNOBS}))
@example(1, {"screen_elements": 1, "block_bytes": 512, "workers": 3})
@example(157, {"screen_elements": 100, "block_bytes": 4096, "workers": 2})  # 5 positives
def test_pipeline_outputs_do_not_depend_on_the_execution_shape(seed, shape):
    with tempfile.TemporaryDirectory() as root:
        codes, default = pipeline(root, seed, **DEFAULT_SHAPE)
        assert codes == expected_codes(default["outcomes.csv"])
        if codes[-1] == 0:
            assert len(default) == 14
        if shape != DEFAULT_SHAPE:
            assert pipeline(root, seed, **shape) == (codes, default)
