"""serialize: float ndarrays take the one-call path and print the bytes the
per-value formatter printed."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import robinsl.serialize
from robinsl import DeltaAtom, Potential, RobinBC, Segment, lambda1
from robinsl.cli import main
from robinsl.serialize import csv_lines, dumps, fmt_float

# ---- the per-value formatter, kept verbatim as the oracle -----------------


def old_fmt_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"  # normalize signed zero
    return format(x, ".12g")


def old_emit(obj) -> str:
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
        return old_fmt_float(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {old_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(old_emit(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalar
        return old_emit(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def old_csv_lines(header, rows) -> str:
    out = [",".join(header)]
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
                cells.append(old_fmt_float(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# ---- values and tables -----------------------------------------------------

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, 1e16, 123456789012345.0, 0.1, 1.0, -1.0, 1e-5, 1e-4, 1e11, 1e12]

FLOATS = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
TABLES = arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 3)), elements=FLOATS)


def _table_from(values, cols):
    n = len(values) // cols * cols
    return np.array(values[:n], dtype=float).reshape(-1, cols)


@pytest.mark.parametrize("x", SPECIAL)
def test_fmt_float_matches_oracle_on_special_values(x):
    assert fmt_float(x) == old_fmt_float(x)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@settings(max_examples=500, deadline=None)
def test_fmt_float_matches_oracle(x):
    assert fmt_float(x) == old_fmt_float(x)
    assert fmt_float(np.float64(x)) == old_fmt_float(x)


@given(TABLES)
@example(_table_from(SPECIAL, 1))
@example(_table_from(SPECIAL, 2))
@example(_table_from(SPECIAL, 3))
@example(np.empty((0, 2)))
@settings(max_examples=300, deadline=None)
def test_float_tables_match_oracle(table):
    # eigen formerly emitted [[float(x), float(y)], ...] and called
    # csv_lines over rows of numpy scalars
    assert dumps(table) == old_emit(table.tolist()) + "\n"
    assert dumps({"eigenfunction": table}) == old_emit({"eigenfunction": table.tolist()}) + "\n"
    assert dumps(table[:, 0]) == old_emit(table[:, 0].tolist()) + "\n"
    header = [f"c{j}" for j in range(table.shape[1])]
    assert csv_lines(header, table) == old_csv_lines(header, list(table))


README_CASES = [
    (Potential(segments=(Segment(0.0, 0.25, 2.0),), atoms=(DeltaAtom(0.5, -1.0),)), RobinBC(0.5, 0.5)),
    (Potential(segments=(Segment(0.1, 0.6, 3.0),), atoms=(DeltaAtom(0.7, -1.5),)), RobinBC(0.25, 0.5)),
]


@pytest.mark.parametrize("q, bc", README_CASES)
def test_eigenfunction_tables_match_oracle(q, bc):
    res = lambda1(q, bc)
    table = np.column_stack((res.xs, res.ys))
    doc = {"lambda1": res.lambda1, "residual": res.residual, "bracket_width": res.bracket_width}
    old_doc = dict(doc, eigenfunction=[[float(x), float(y)] for x, y in zip(res.xs, res.ys)])
    assert dumps(dict(doc, eigenfunction=table)) == old_emit(old_doc) + "\n"
    assert csv_lines(["x", "y"], table) == old_csv_lines(["x", "y"], zip(res.xs, res.ys))


# ---- dumps on arrays -------------------------------------------------------


@pytest.mark.parametrize(
    "arr, want",
    [
        (np.array([1.0, -0.0, 0.25]), "[1, 0, 0.25]"),
        (np.array([[1.0, 2.5], [-0.0, np.nan]]), "[[1, 2.5], [0, nan]]"),
        (np.array([[0.1, 1e-300, np.inf]]), "[[0.1, 1e-300, inf]]"),
        (np.array([3, -4]), "[3, -4]"),
        (np.array([[1, 2], [3, 4]]), "[[1, 2], [3, 4]]"),
        (np.array([True, False]), "[true, false]"),
        (np.empty((0, 2)), "[]"),
        (np.empty(0), "[]"),
        (np.array(2.5), "2.5"),
        (np.arange(8.0).reshape(2, 2, 2), "[[[0, 1], [2, 3]], [[4, 5], [6, 7]]]"),
    ],
)
def test_dumps_arrays(arr, want):
    assert dumps({"a": arr}) == '{"a": ' + want + "}\n"


def test_csv_lines_float_array():
    table = np.array([[0.0, 1.0], [0.5, -0.0], [1.0, np.nan]])
    assert csv_lines(["x", "y"], table) == "x,y\n0,1\n0.5,0\n1,nan\n"
    assert csv_lines(["x", "y"], np.empty((0, 2))) == "x,y\n"


# ---- the eigen command formats its table in one call ------------------------


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_eigen_formats_without_per_value_calls(tmp_path, capsys, monkeypatch, fmt):
    pot = tmp_path / "q.json"
    pot.write_text('{"segments": [{"l": 0.0, "r": 0.25, "v": 2.0}], "atoms": [{"z": 0.5, "w": -1.0}]}')
    calls = []
    real = robinsl.serialize.fmt_float
    monkeypatch.setattr(robinsl.serialize, "fmt_float", lambda x: calls.append(x) or real(x))
    code = main(["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "--format", fmt, str(pot)])
    assert code == 0 and len(capsys.readouterr().out) > 20000
    # the per-value path made one call per printed float, about 4000
    assert len(calls) < 10
