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
from robinsl.eigensolver import DEFAULT_GRID as GRID
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
        (np.array([[1.0, 2.5], [-0.0, np.nan]]), "[[1, 2.5], [0, nan]]"),
        (np.array([[0.1, 1e-300, np.inf]]), "[[0.1, 1e-300, inf]]"),
        (np.empty((0, 2)), "[]"),
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


# ---- the default grid's kept row templates ----------------------------------

# grid indices whose value is one ulp off k/2000, so union1d keeps both
ULP_OFF = [k for k in range(len(GRID)) if GRID[k] != k / 2000]


def one_percent(rows, cell_sep, row_open, row_close, row_sep):
    """Every table's text before the grid's was kept: one generic template, one % call."""
    n, m = rows.shape
    template = row_open + cell_sep.join(["%.12g"] * m) + row_close
    return row_sep.join([template] * n) % tuple((rows + 0.0).ravel().tolist())


def _assert_one_percent_bytes(table):
    assert dumps(table) == "[" + one_percent(table, ", ", "[", "]", ", ") + "]\n"
    assert dumps({"eigenfunction": table}) == old_emit({"eigenfunction": table.tolist()}) + "\n"
    assert csv_lines(["x", "y"], table) == "x,y\n" + one_percent(table, ",", "", "", "\n") + "\n"
    assert csv_lines(["x", "y"], table) == old_csv_lines(["x", "y"], list(table))


# first columns that hold the default grid, so the kept templates are used
ON_GRID = {
    "exact grid": GRID,
    "interior breakpoints": np.union1d(GRID, [1e-9, 0.123456789, 0.25 + 2**-40, 0.7777777, 1.0 - 1e-12]),
    "breakpoint equal to a grid value": np.union1d(GRID, [0.25, 0.5, GRID[1234]]),
    "breakpoint one ulp off a grid value": np.union1d(GRID, [ULP_OFF[0] / 2000, np.nextafter(GRID[1000], 0.0)]),
    "every k/2000": np.union1d(GRID, np.arange(2001) / 2000),
    "signed zero first": np.concatenate(([-0.0], GRID[1:])),
    "rows before and after the grid": np.union1d(GRID, [-0.5, -1e-300, 1.0 + 2**-52, 1.5]),
}
# first columns without it, which take the generic template throughout
OFF_GRID = {
    "coarser grid": np.linspace(0.0, 1.0, 1001),
    "one grid value moved by an ulp": np.concatenate((GRID[:700], [np.nextafter(GRID[700], 1.0)], GRID[701:])),
    "one grid value missing": np.delete(GRID, 1500),
    "grid reversed": GRID[::-1].copy(),
    "grid scaled": GRID * 3.0,
    "grid with nan": np.concatenate((GRID, [np.nan])),
    "one row": np.array([0.5]),
}


def _table(xs, seed=0):
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal(len(xs)) * 10.0 ** rng.integers(-20, 20, len(xs))
    ys[:: max(1, len(ys) // 7)] = -0.0
    special = [np.nan, np.inf, -np.inf, 0.0, 5e-324, 1e300]
    ys[1 : 1 + len(special)] = special[: max(0, len(ys) - 1)]
    return np.column_stack((xs, ys))


@pytest.mark.parametrize("name", list(ON_GRID) + list(OFF_GRID))
def test_grid_templates_print_the_one_percent_bytes(name):
    table = _table(ON_GRID.get(name, OFF_GRID.get(name)))
    # each case takes the path it is named for
    assert (robinsl.serialize._grid_rows(table[:, 0] + 0.0) is not None) == (name in ON_GRID)
    _assert_one_percent_bytes(table)


def test_one_ulp_breakpoints_print_the_same_x_twice():
    # kept as printed: union1d keeps k/2000 and its one-ulp neighbour on the
    # grid, and at 12 digits both rows read the same x
    table = _table(ON_GRID["every k/2000"])
    assert len(table) == len(GRID) + len(ULP_OFF)
    lines = csv_lines(["x", "y"], table).splitlines()[1:]
    xs = [line.split(",")[0] for line in lines]
    assert len(xs) - len(set(xs)) == len(ULP_OFF) == 282


@given(
    st.lists(
        st.floats(0.0, 1.0)
        | st.integers(0, len(GRID) - 1).map(lambda k: GRID[k])
        | st.integers(0, len(GRID) - 1).map(lambda k: k / 2000),
        max_size=12,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_with_breakpoints_prints_the_one_percent_bytes(extra, seed):
    table = _table(np.union1d(GRID, extra), seed)
    assert robinsl.serialize._grid_rows(table[:, 0]) is not None
    _assert_one_percent_bytes(table)


def test_grid_templates_are_built_once():
    tables = [_table(ON_GRID[name]) for name in ("exact grid", "interior breakpoints")]
    for fmt in (lambda t: dumps(t), lambda t: csv_lines(["x", "y"], t)):
        fmt(tables[0])
    before = robinsl.serialize._grid_text.cache_info()
    for t in tables:
        dumps(t)
        csv_lines(["x", "y"], t)
    after = robinsl.serialize._grid_text.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 4
    assert not robinsl.serialize.DEFAULT_GRID.flags.writeable
