"""Exceptions raised on invalid input data or configuration.

Everything derives from PatsimError so callers (and the CLI) can separate
validation failures from genuine I/O or programming errors.
"""


class PatsimError(Exception):
    """Base class for all validation errors raised by this package."""


def _rebuild(cls, args):
    return cls.__new__(cls, *args)


class InputFault(PatsimError):
    """A fault at one line of an input file.

    The message starts with the file (when the input came from a path) and
    the line number, when known.
    """

    def __init__(self, message, line_no=None, path=None):
        self.line_no = line_no
        self.path = path
        where = [str(path)] if path is not None else []
        if line_no is not None:
            where.append(f"line {line_no}")
        super().__init__(f"{' '.join(where)}: {message}" if where else message)

    def __reduce__(self):
        # Unpickling must not call a subclass __init__ on the finished message:
        # a fault raised in a fold process is re-raised in its parent.
        return _rebuild, (type(self), self.args), self.__dict__


class MalformedRow(InputFault):
    """A table row, header or missing row that its file format does not allow."""


class UnknownVariable(InputFault):
    def __init__(self, name, line_no=None, path=None):
        self.name = name
        super().__init__(f"unknown variable name: {name!r}", line_no, path)


class OutOfWindow(InputFault):
    def __init__(self, minute, line_no=None, path=None):
        self.minute = minute
        super().__init__(f"minute {minute} outside the observation window", line_no, path)


class DuplicatePatient(InputFault):
    def __init__(self, patient_id, line_no=None, path=None):
        self.patient_id = patient_id
        super().__init__(f"duplicate outcome row for patient {patient_id!r}", line_no, path)


class InvalidLabel(InputFault):
    def __init__(self, value, line_no=None, path=None):
        self.value = value
        super().__init__(f"outcome label must be 0 or 1, got {value!r}", line_no, path)


class MissingOutcome(InputFault):
    def __init__(self, patient_id, line_no=None, path=None):
        self.patient_id = patient_id
        super().__init__(f"patient {patient_id!r} has events but no outcome row", line_no, path)


class MissingEvents(InputFault):
    def __init__(self, patient_id, line_no=None, path=None):
        self.patient_id = patient_id
        super().__init__(f"patient {patient_id!r} has an outcome but no events", line_no, path)


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


class NegativeWeight(InputFault):
    def __init__(self, name, value, line_no=None, path=None):
        self.name = name
        self.value = value
        super().__init__(f"weight for {name!r} must be non-negative, got {value}", line_no, path)


class FoldProcessDied(PatsimError):
    """A cross-validation fold process ended before it returned its fold."""
