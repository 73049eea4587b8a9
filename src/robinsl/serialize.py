"""Byte-stable JSON and CSV emission.

Every float is printed by one rule, ``%.12g`` of the value plus 0.0: 12
significant digits, ``-0.0`` printed as ``0``, and ``nan``, ``inf`` and
``-inf`` as Python spells them.  Dict keys keep their insertion order, so
identical inputs produce identical bytes.

A 2-D float ndarray, such as an eigenfunction's ``(n, 2)`` table of
``[x, y]`` samples, is formatted by one ``%`` call over all its values, not
one call per value; the bytes are those of the same table as nested lists.
Every CSV table is such an array.

The x column of an eigenfunction table is ``eigensolver.DEFAULT_GRID`` plus
the breakpoints that ``lambda1`` adds.  The first time a table in one of the
two layouts (JSON or CSV) holds that grid exactly, the grid rows' template,
each row's x text in place and ``%.12g`` for its y, is formatted once and
kept for the process: one string of ~25-33 kB per layout, with each row's
offset in it.  A table that holds the grid is cut from that string, its
other rows take the generic template, and the one ``%`` call formats the y
values and those rows; the bytes are those of the generic template alone.
"""

import json
from functools import cache
from itertools import accumulate

import numpy as np

from .eigensolver import DEFAULT_GRID


def fmt_float(x) -> str:
    # adding 0.0 turns -0.0 into 0.0
    return format(float(x) + 0.0, ".12g")


@cache
def _grid_text(cell_sep, row_open, row_close, row_sep):
    """The default grid's rows as one template, and where each row starts in it.

    Row k is the text of grid[k] and ``%.12g`` for its y, followed by
    ``row_sep``; row k starts at offset k of the second array.
    """
    texts = ("%.12g " * len(DEFAULT_GRID) % tuple(DEFAULT_GRID.tolist())).split()
    rows = [row_open + x + cell_sep + "%.12g" + row_close + row_sep for x in texts]
    starts = np.fromiter(accumulate(map(len, rows), initial=0), np.intp, len(rows) + 1)
    starts.flags.writeable = False
    return "".join(rows), starts


def _grid_rows(col):
    """Where col holds the default grid's values, or None.

    None unless col is sorted and holds every grid value; the rows between
    them are the breakpoints ``lambda1`` adds.
    """
    if len(col) < len(DEFAULT_GRID) or not (col[1:] >= col[:-1]).all():
        return None
    at = np.searchsorted(col, DEFAULT_GRID)
    if at[-1] >= len(col) or not (col[at] == DEFAULT_GRID).all():
        return None
    return at


def _float_table(rows, cell_sep, row_open, row_close, row_sep) -> str:
    """A 2-D float array as text by the fmt_float rule, in one % call.

    Each row is its cells joined by ``cell_sep`` between ``row_open`` and
    ``row_close``; rows are joined by ``row_sep``.  Every row takes one
    generic template and gives all its values to the % call, except, in a
    two-column table whose first column holds the default grid, the grid
    rows: they take their kept template and give only their y.
    """
    n, m = rows.shape
    values = (rows + 0.0).ravel()
    generic = row_open + cell_sep.join(["%.12g"] * m) + row_close
    at = _grid_rows(values[::2]) if m == 2 else None
    if at is None:
        return row_sep.join([generic] * n) % tuple(values.tolist())
    text, starts = _grid_text(cell_sep, row_open, row_close, row_sep)
    keep = np.ones(2 * n, dtype=bool)
    keep[2 * at] = False
    # each other row goes in, with the generic template, before the grid row
    # that follows it
    parts, g = [], 0
    for k, i in enumerate(np.flatnonzero(keep[::2]).tolist()):
        parts += [text[starts[g] : starts[i - k]], generic + row_sep]
        g = i - k
    parts.append(text[starts[g] :])
    template = "".join(parts)
    return template[: len(template) - len(row_sep)] % tuple(values[keep].tolist())


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 2:
        return "[" + _float_table(obj, ", ", "[", "]", ", ") + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic JSON text with a trailing newline."""
    return _emit(obj) + "\n"


def csv_lines(header, rows) -> str:
    """CSV text of a 2-D float ndarray: '.' decimal separator, floats at 12
    significant digits."""
    out = [",".join(header)]
    if len(rows):
        out.append(_float_table(rows, ",", "", "", "\n"))
    return "\n".join(out) + "\n"
