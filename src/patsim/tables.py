"""Text tables: the row layout every patsim data file shares, and its one fault format.

Line 1 is the header where a format has one; lines end in LF or CRLF;
blank lines are skipped; every row has a fixed number of cells. A fault
reads "PATH line N: reason".
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from .errors import MalformedRow

# characters of a line that a header fault quotes; a frames header runs to kilobytes
QUOTE_CHARS = 60


def path_of(source):
    """`source` when it is a path, else None: the file a fault names."""
    return source if isinstance(source, (str, Path)) else None


def finite_number(text, kind=float):
    """`kind(text)` when that is a finite number, else None."""
    try:
        value = kind(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _clip(text) -> str:
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def read_rows(source, header=None, width=None, sep=",", comment=None):
    """Yield (line_no, cells) for each row of a table after its header.

    `source` is a path or an iterable of lines. `header` is the text line 1
    must hold, or a function of line 1 returning that text, for a format
    whose header carries a parameter (the frames bucket count); None means
    the table has no header and `width` is required. Every row must have
    `width` cells, by default the header's count; patsim tables have at
    least two. Lines starting with `comment` are skipped like blank ones.
    A fault raises MalformedRow naming the line, and the file when
    `source` is a path.
    """
    path = path_of(source)
    with open(path, "r", encoding="utf-8") if path is not None else nullcontext(source) as lines:
        numbered = enumerate(lines, start=1)
        if header is not None:
            first = next(numbered, (1, ""))[1].rstrip("\r\n")
            expected = header if isinstance(header, str) else header(first)
            if width is None:
                width = expected.count(sep) + 1
            if first != expected:
                raise MalformedRow(f"expected header {_clip(expected)} ({width} cells), "
                                   f"got {_clip(first)!r}", 1, path)
        if comment is not None:
            numbered = ((n, raw) for n, raw in numbered if not raw.lstrip().startswith(comment))
        for line_no, raw in numbered:
            cells = raw.rstrip("\r\n").split(sep)
            if len(cells) != width:
                # a blank line splits into one cell, so the check stays off the common path
                if not raw.strip():
                    continue
                raise MalformedRow(f"expected {width} cells, got {len(cells)}", line_no, path)
            yield line_no, cells


def write_rows(target, header, rows) -> None:
    """Write `header` and then each row, a string already formatted, one per line.

    `target` is a path or a text stream.
    """
    path = path_of(target)
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext(target) as fh:
        fh.write(header + "\n")
        rows = iter(rows)
        # a write per row made write_events 20 % slower; 256 frames rows are about 1.5 MB
        while block := list(islice(rows, 256)):
            fh.write("\n".join(block) + "\n")
