import inspect
import pickle
import re

import numpy as np
import pytest

from patsim import errors, evaluation, framing, ingest, vocab, weights
from patsim.config import RunConfig
from patsim.knn import FeatureWeights
from util import random_dense_frames

# one instance of every exception class in errors.py, built as the package builds it
INSTANCES = [
    errors.PatsimError("plain message"),
    errors.InputFault("bad cell", 4, "frames.csv"),
    errors.InputFault("no location"),
]


def test_instances_cover_every_class():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.PatsimError)}
    assert classes == {type(e) for e in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip_keeps_type_message_and_fields(exc):
    """A fault raised in a fold process reaches its parent unchanged."""
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is type(exc)
    assert str(again) == str(exc)
    assert again.args == exc.args
    assert vars(again) == vars(exc)


def _file(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


EVENTS, OUTCOMES = ingest.EVENTS_HEADER + "\n", ingest.OUTCOMES_HEADER + "\n"

# a call that makes the package raise one of its faults, given a temporary
# directory, and a part of that fault's message
RAISERS = {
    "cell count": (lambda d: ingest.parse_events(_file(d, "e.csv", EVENTS + "p1,10,pH\n")),
                   "line 2: expected 4 cells, got 3"),
    "unknown variable": (lambda d: ingest.parse_events(_file(d, "e.csv", EVENTS + "p,1,Pulse,8\n")),
                         "line 2: unknown variable name: 'Pulse'"),
    "minute out of window": (
        lambda d: ingest.parse_events(_file(d, "e.csv", EVENTS + "p1,2880,pH,7.3\n")),
        "line 2: minute 2880 outside the observation window"),
    "outcome label": (lambda d: ingest.parse_outcomes(_file(d, "o.csv", OUTCOMES + "p1,yes\n")),
                      "line 2: outcome label must be 0 or 1, got 'yes'"),
    "duplicate outcome": (
        lambda d: ingest.parse_outcomes(_file(d, "o.csv", OUTCOMES + "p1,1\np1,0\n")),
        "line 3: duplicate outcome row for patient 'p1'"),
    "events without outcome": (
        lambda d: ingest.load_cohort(_file(d, "e.csv", EVENTS + "p1,1,pH,7.3\np2,5,pH,7.1\n"),
                                     _file(d, "o.csv", OUTCOMES + "p1,0\n")),
        "line 3: patient 'p2' has events but no outcome row"),
    "outcome without events": (
        lambda d: ingest.load_cohort(_file(d, "e.csv", EVENTS + "p1,1,pH,7.3\n"),
                                     _file(d, "o.csv", OUTCOMES + "p1,0\np2,1\n")),
        "line 3: patient 'p2' has an outcome but no events"),
    "negative weight in a file": (
        lambda d: weights.load_manual_weights(_file(d, "w.csv", "Heart rate,-1\n")),
        "line 1: weight for 'Heart rate' must be non-negative, got -1.0"),
    "weight sum overflow": (
        lambda d: weights.read_weights(_file(d, "w.csv", weights.WEIGHTS_HEADER + "\n" + "".join(
            f"{name},1.7e308\n" for name in vocab.ALL_VARIABLES))),
        "the weights sum past the largest float"),
    "negative weight": (lambda d: FeatureWeights([-1.0] * vocab.N_VARIABLES),
                        "weight for 'Invasive (diastolic)' must be non-negative"),
    "bad setting": (lambda d: RunConfig(k=0), "k must be at least 1"),
    "empty cohort": (lambda d: framing.stack([]), "cohort has no patients"),
    "k too large": (lambda d: weights.Workspace(
        framing.stack(random_dense_frames(4, np.random.default_rng(0)))).neighbor_sets(
        np.ones(vocab.N_VARIABLES), 5), "k=5 but only 3 leave-one-out candidates"),
    "single class": (lambda d: evaluation.split_dev_validation(["a", "b"], [1, 1], 0),
                     "both classes are required"),
    "too few per class": (lambda d: evaluation.kfold(list("abcdef"), [1, 0, 0, 0, 0, 0], k=2),
                          "class 1 has fewer than 2 members"),
    "unequal samples": (lambda d: evaluation.wilcoxon_signed_rank([1.0, 2.0], [1.0]),
                        "paired samples must have equal length"),
    "fold metrics without rows": (
        lambda d: evaluation.load_fold_metrics(
            _file(d, "f.csv", evaluation.FOLD_METRICS_HEADER + "\n")),
        "no fold rows"),
    "degenerate matrix": (lambda d: evaluation.friedman(np.ones((1, 3))),
                          "need at least 2 folds and 2 methods"),
}


@pytest.mark.parametrize("fault", RAISERS)
def test_raised_faults_survive_pickling(tmp_path, fault):
    """Each fault as the package raises it, a located one naming its file,
    comes back from pickling with its type, message, args and fields."""
    call, message = RAISERS[fault]
    with pytest.raises(errors.PatsimError, match=re.escape(message)) as caught:
        call(tmp_path)
    exc = caught.value
    if isinstance(exc, errors.InputFault):
        assert exc.path.parent == tmp_path
        assert str(exc).startswith(f"{exc.path}")
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is type(exc)
    assert str(again) == str(exc)
    assert again.args == exc.args
    assert vars(again) == vars(exc)
