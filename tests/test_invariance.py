"""Outputs do not depend on how the work is cut up.

Each knob below changes only the shape of the execution. `predict`
(leave-one-out and `--query-frames`) and `evaluate` must write the same
bytes at every value of it as at its default.
"""

from unittest import mock

import pytest

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
