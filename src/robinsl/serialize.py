"""Byte-stable JSON and CSV emission.

Every float is printed by one rule, ``%.12g`` of the value plus 0.0: 12
significant digits, ``-0.0`` printed as ``0``, and ``nan``, ``inf`` and
``-inf`` as Python spells them.  Dict keys keep their insertion order, so
identical inputs produce identical bytes.

A 1-D or 2-D float ndarray, such as an eigenfunction's ``(n, 2)`` table of
``[x, y]`` samples, is formatted by one ``%`` call over all its values, not
one call per value; the bytes are those of the same table as nested lists.
"""

import json

import numpy as np


def fmt_float(x) -> str:
    # adding 0.0 turns -0.0 into 0.0
    return format(float(x) + 0.0, ".12g")


def _float_table(rows, cell_sep, row_open, row_close, row_sep) -> str:
    """A 2-D float array as text by the fmt_float rule, in one % call.

    Each row is its cells joined by ``cell_sep`` between ``row_open`` and
    ``row_close``; rows are joined by ``row_sep``.
    """
    n, m = rows.shape
    template = row_open + cell_sep.join(["%.12g"] * m) + row_close
    return row_sep.join([template] * n) % tuple((rows + 0.0).ravel().tolist())


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
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim == 1:
            return "[" + _float_table(obj.reshape(1, -1), ", ", "", "", "") + "]"
        if obj.dtype.kind == "f" and obj.ndim == 2:
            return "[" + _float_table(obj, ", ", "[", "]", ", ") + "]"
        return _emit(obj.tolist())
    if hasattr(obj, "item"):  # numpy scalar
        return _emit(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic JSON text with a trailing newline."""
    return _emit(obj) + "\n"


def csv_lines(header, rows) -> str:
    """CSV text: '.' decimal separator, floats at 12 significant digits.

    ``rows`` is an iterable of rows, or a 2-D float ndarray.
    """
    out = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f" and rows.ndim == 2:
        if len(rows):
            out.append(_float_table(rows, ",", "", "", "\n"))
        return "\n".join(out) + "\n"
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, (int,)):
                cells.append(str(v))
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(fmt_float(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
