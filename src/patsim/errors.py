"""Exceptions raised on invalid input data or configuration.

Every refusal is a PatsimError, so callers (and the CLI) can separate
validation failures from genuine I/O or programming errors. A fault
located in an input file is an InputFault, which names the file and
line.
"""


class PatsimError(Exception):
    """Base class for all validation errors raised by this package."""


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
