"""What the benchmark in `perfbench/` uses of patsim, checked from here.

The benchmark names patsim functions for its tracer and calls patsim in
its set-up and its output checks. A change that renames or reshapes what
it uses breaks the benchmark run, which no other test reads; these tests
load its modules from their files and change nothing in them.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from pathlib import Path

import pytest

from patsim import evaluation
from patsim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
