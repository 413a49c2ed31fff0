import inspect
import pickle

import pytest

from patsim import errors

# one instance of every exception class in errors.py, built as the package builds it
INSTANCES = [
    errors.PatsimError("plain message"),
    errors.InputFault("bad cell", 4, "frames.csv"),
    errors.InputFault("no location"),
    errors.MalformedRow("expected 4 cells, got 3", 7, "events.csv"),
    errors.UnknownVariable("NotAVariable", 3, "events.csv"),
    errors.OutOfWindow(3000, 9, "events.csv"),
    errors.DuplicatePatient("p1", 3, "outcomes.csv"),
    errors.InvalidLabel("yes", 2, "outcomes.csv"),
    errors.MissingOutcome("p3", 5, "events.csv"),
    errors.MissingEvents("p2", 4, "outcomes.csv"),
    errors.NegativeWeight("hr", -1.0, 3, "w.csv"),
    errors.BadConfig("k must be >= 1 and folds >= 2"),
    errors.EmptyCohort("no patients"),
    errors.DimensionMismatch("paired samples must have equal length"),
    errors.KTooLarge("k=300 but only 189 leave-one-out candidates"),
    errors.SingleClassCohort("both classes are required"),
    errors.TooFewPerClass("class 1 has fewer than 20 members"),
    errors.TooFewPairs("only 3 non-zero differences"),
    errors.DegenerateMatrix("need at least 2 folds and 2 methods"),
    errors.FoldProcessDied("a fold process died"),
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
