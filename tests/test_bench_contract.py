"""What the benchmark in `perfbench/` uses of patsim, checked from here.

The benchmark names patsim functions for its tracer and calls patsim in
its set-up and its output checks. A change that renames or reshapes what
it uses breaks the benchmark run, which no other test reads; these tests
load its modules from their files and change nothing in them.
"""

import importlib
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from patsim import evaluation
from patsim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def _load(name):
    """The benchmark's module `name`, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_target_resolves(tracer):
    # getattr only: Tracer.install would rebind patsim's module globals for the whole session
    for _, module_name, attr in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{module_name}.{attr}"
        assert callable(target), f"{module_name}.{attr}"


def test_cross_validate_takes_workers_fifth():
    """The tracer reads a cross_validate call's workers by position."""
    assert list(inspect.signature(evaluation.cross_validate).parameters)[4] == "workers"


def test_fit_predict_workload_checks_pass(workloads, tmp_path):
    inputs = workloads.setup_frames(tmp_path, 1)
    out = tmp_path / "out"
    out.mkdir()
    for label, args in workloads._fit_predict_commands(inputs, out):
        assert main(args) == 0, label
    rng = random.Random(1)
    assert workloads.check_train(inputs, out, rng) == []
    assert workloads.check_predict(inputs, out, rng) == []


def test_exp3_workload_checks_pass(workloads, tmp_path):
    """exp3 on the benchmark's cohort at --workers 1 and 2: both reports pass
    their checks, and they are byte-identical, as the benchmark requires."""
    inputs = workloads.setup_exp3(tmp_path, 1)
    out = tmp_path / "out"
    out.mkdir()
    for label, args in workloads._exp3_commands(inputs, out):
        assert main(args) == 0, label
    rng = random.Random(1)
    assert workloads.check_exp3(1)(inputs, out, rng) == []
    assert workloads.check_exp3(2)(inputs, out, rng) == []
    reports = workloads.WORKLOADS["exp3"].reports
    assert [workloads.sha256(out / name) for name in reports["exp3-w1"]] == \
        [workloads.sha256(out / name) for name in reports["exp3-w2"]]


def test_traced_commands_run_and_nest_their_spans(tracer, tmp_path):
    """The benchmark's traced CLI over one train, one predict and one exp3, small.

    traced_cli.py rebinds patsim's module globals, so each command runs in
    its own process, as the benchmark runs it. The tracer reads its
    targets' arguments and results (train_gd's first argument must support
    len()), so a change to them fails the command, which no other test sees.
    """
    frames, weights = tmp_path / "frames.csv", tmp_path / "w.csv"
    assert main(["synth", "--out-dir", str(tmp_path / "synth"), "--n-patients", "60",
                 "--seed", "5"]) == 0
    assert main(["frame", "--events", str(tmp_path / "synth" / "events.csv"),
                 "--outcomes", str(tmp_path / "synth" / "outcomes.csv"),
                 "--out-frames", str(frames)]) == 0
    (tmp_path / "run.cfg").write_text("max_epochs=2\n", encoding="utf-8")
    commands = {    # in this order: predict reads the weights train writes
        "train": ["train", "--frames", frames, "--weights-out", weights, "--max-epochs", "2"],
        "predict": ["predict", "--train-frames", frames, "--weights", weights,
                    "--out", tmp_path / "pred.csv"],
        "exp3": ["experiment", "exp3", "--n-patients", "60", "--folds", "3",
                 "--config", tmp_path / "run.cfg", "--out-dir", tmp_path / "exp3"],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for label, args in commands.items():
        spans_path = tmp_path / f"{label}.json"
        proc = subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path),
                               *map(str, args), "--workers", "1"],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{label}: {proc.stderr}"
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        assert "main" in {s["name"] for s in spans}, label
        assert tracer.span_errors(spans) == [], label
