"""Text tables: the row layout every patsim data file shares, and its one fault format.

Line 1 is the header where a format has one; lines end in LF or CRLF;
blank lines are skipped; every row has a fixed number of cells. A fault
reads "PATH line N: reason".
"""

from __future__ import annotations

import io
import math
from itertools import islice

import numpy as np

from .errors import InputFault

# characters of a line that a header fault quotes; a frames header runs to kilobytes
QUOTE_CHARS = 60

# read_columns parses only these bytes (LF included)
PLAIN_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.+-(), \n"
# bytes of a frames file per np.loadtxt call (read_frames); the events parse sets its
# own, ingest.EVENT_BLOCK_BYTES. 256 KiB frames blocks raised train's peak RSS on 400
# planted patients from 64.2 to 64.7 MiB
BLOCK_BYTES = 1 << 20
# write_rows writes about this many bytes of text at a time: a write per row made
# write_events 20 % slower, and a block's text is held twice, as rows and joined
WRITE_BYTES = 1 << 16
_LF, _COMMA, _SPACE = b"\n, "


def finite_number(text, kind=float):
    """`kind(text)` when that is a finite number, else None."""
    try:
        value = kind(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _clip(text) -> str:
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def read_rows(path, header=None, width=None, sep=",", comment=None):
    """Yield (line_no, cells) for each row of the table at `path` after its header.

    `header` is the text line 1 must hold, or a function of line 1 returning
    that text, for a format whose header carries a parameter (the frames
    bucket count); None means the table has no header and `width` is
    required. Every row must have `width` cells, by default the header's
    count; patsim tables have at least two. Lines starting with `comment`
    are skipped like blank ones. A fault raises InputFault naming the file
    and the line; a line that is not UTF-8 text is a fault.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as lines:
        numbered = ((n, _utf8(raw, n, path)) for n, raw in enumerate(lines, start=1))
        if header is not None:
            first = next(numbered, (1, ""))[1].rstrip("\r\n")
            expected = header if isinstance(header, str) else header(first)
            if width is None:
                width = expected.count(sep) + 1
            if first != expected:
                raise InputFault(f"expected header {_clip(expected)} ({width} cells), "
                                 f"got {_clip(first)!r}", 1, path)
        if comment is not None:
            numbered = ((n, raw) for n, raw in numbered if not raw.lstrip().startswith(comment))
        for line_no, raw in numbered:
            cells = raw.rstrip("\r\n").split(sep)
            if len(cells) != width:
                # a blank line splits into one cell, so the check stays off the common path
                if not raw.strip():
                    continue
                raise InputFault(f"expected {width} cells, got {len(cells)}", line_no, path)
            yield line_no, cells


def _utf8(line, line_no, path) -> str:
    """`line`, unless surrogateescape made a byte of it that is not UTF-8 a lone surrogate."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise InputFault("not UTF-8 text", line_no, path) from None
    return line


def read_columns(path, header, fields, block_bytes):
    """Yield the rows of a well-formed comma table at `path` as structured arrays, by block.

    A block is the next `block_bytes` of the file, extended to the end of its last line.

    Well-formed: line 1 is `header` (as in read_rows), every byte is in PLAIN_BYTES, no line
    is blank, no space stands beside a comma or a line end, and np.loadtxt reads each row as
    field "id" (bytes, as wide as the longest) and then `fields` (a dtype list, or a function
    of the header text giving one). Row i is then on line i + 2. Otherwise it yields None and
    stops; read_rows then reads the file and reports any fault.
    """
    with open(path, "rb") as fh:
        first = fh.readline().decode("latin-1")
        expected = header if isinstance(header, str) else header(first.rstrip("\r\n"))
        if first != expected + "\n":
            yield None
            return
        fields = fields(expected) if callable(fields) else fields
        while block := fh.read(block_bytes):
            block += fh.readline()
            rows = _parse_block(block if block.endswith(b"\n") else block + b"\n", fields)
            del block       # the caller works on the rows without the text
            yield rows
            if rows is None:
                return
            del rows        # nor holds them while the next block is parsed


def _parse_block(block, fields):
    """The rows of `block`, whole lines ending in LF, or None if they are not well-formed."""
    text = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(text == _LF)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # spaces at a cell's edge: number parsers strip them and read_rows skips a line of
    # them, so such a file takes read_rows; text[-1] is LF, so a space at 0 sees LF before it
    spaces = np.flatnonzero(text == _SPACE)
    edges = np.concatenate((text[spaces - 1], text[spaces + 1]))
    commas = np.append(np.flatnonzero(text == _COMMA), len(block))   # a stop past the end
    width = int((commas[np.searchsorted(commas, starts)] - starts).max())
    # an id column larger than its text would mean a freak id: leave that to read_rows
    if block.translate(None, PLAIN_BYTES) or (starts == ends).any() \
            or ((edges == _LF) | (edges == _COMMA)).any() or width * len(starts) > len(block):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=1,
                          dtype=[("id", f"S{max(width, 1)}")] + fields)
    except ValueError:
        return None
    return rows if len(rows) == len(ends) else None


def write_rows(path, header, rows) -> None:
    """Write `header` and then each row, a string already formatted, one per line, to `path`.

    Rows go out in blocks of about WRITE_BYTES of text, one write each. A
    table's rows are about equally long, so the first row of a block sets
    how many rows it takes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        rows = iter(rows)
        for first in rows:
            block = [first, *islice(rows, WRITE_BYTES // (len(first) + 1)), ""]
            fh.write("\n".join(block))
