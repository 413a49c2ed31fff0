"""Exceptions raised on invalid input data or configuration.

Everything derives from PatsimError so callers (and the CLI) can separate
validation failures from genuine I/O or programming errors.
"""


class PatsimError(Exception):
    """Base class for all validation errors raised by this package."""


class MalformedRow(PatsimError):
    def __init__(self, line_no, reason=""):
        self.line_no = line_no
        msg = f"malformed row at line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class UnknownVariable(PatsimError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown variable name: {name!r}")


class OutOfWindow(PatsimError):
    def __init__(self, minute):
        self.minute = minute
        super().__init__(f"minute {minute} outside the observation window")


class DuplicatePatient(PatsimError):
    def __init__(self, patient_id):
        self.patient_id = patient_id
        super().__init__(f"duplicate outcome row for patient {patient_id!r}")


class InvalidLabel(PatsimError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"outcome label must be 0 or 1, got {value!r}")


class MissingOutcome(PatsimError):
    def __init__(self, patient_id):
        self.patient_id = patient_id
        super().__init__(f"patient {patient_id!r} has events but no outcome row")


class MissingEvents(PatsimError):
    def __init__(self, patient_id):
        self.patient_id = patient_id
        super().__init__(f"patient {patient_id!r} has an outcome but no events")


class MalformedStats(PatsimError):
    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"scaling stats file {path}: {reason}")


class MalformedFrames(PatsimError):
    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"frames file {path}: {reason}")


class BadConfig(PatsimError):
    pass


class EmptyCohort(PatsimError):
    pass


class DimensionMismatch(PatsimError):
    pass


class KTooLarge(PatsimError):
    pass


class SingleClassCohort(PatsimError):
    pass


class TooFewPerClass(PatsimError):
    pass


class TooFewPairs(PatsimError):
    pass


class DegenerateMatrix(PatsimError):
    pass


class NegativeWeight(PatsimError):
    def __init__(self, name, value):
        self.name = name
        self.value = value
        super().__init__(f"weight for {name!r} must be non-negative, got {value}")


class BadSpec(PatsimError):
    pass
