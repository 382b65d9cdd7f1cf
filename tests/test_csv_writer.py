"""``artifacts._csv_texts``, the writer of the CSVs, against Python's own formatting.

Every float cell must print as ``'%.17g' % v`` and every other cell as
``str(v)``.  The oracle for whole tables is the writer the CLI had before
the array-wide one: one %-format per row, built from the row's cell types.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minenergy import artifacts


def _csv_text(header, rows):
    """The CSV text of one table, as ``artifacts._csv_texts`` writes it."""
    return artifacts._csv_texts([(header, rows)])[0]


def _csv_text_oracle(header, rows):
    lines = [",".join(header)]
    formats = {}
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                "%.17g" if issubclass(k, (float, np.floating)) else "%s" for k in kinds)
        lines.append(fmt % tuple(row))
    return "\n".join(lines) + "\n"


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _column(values):
    """Each value as a one-cell row, through the float-array path."""
    return _csv_text(["v"], np.asarray(values, dtype=float).reshape(-1, 1))


def _expected_column(values):
    return "v\n" + "".join("%.17g\n" % v for v in values)


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-323, 309)]
SPECIAL = (
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
     2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    + POWERS_OF_TEN
    + [math.nextafter(p, d) for p in POWERS_OF_TEN for d in (0.0, math.inf)]
    + [float(2 ** k) for k in range(-1074, 1024, 7)]
    # exact ties at the 18th digit: round half to even, and near 1e16 / 1e17
    + [2.0 ** 50 + q / 4 for q in (1, 3, 5, 7)]
    + [3 / 2 ** 24, 5 / 2 ** 24, 7 / 2 ** 25, 9.9999999999999995e16, 1e17 - 8]
)

bit_floats = st.integers(0, 2 ** 64 - 1).map(_from_bits)
subnormals = st.integers(1, 2 ** 52 - 1).map(_from_bits)
large_integers = st.integers(2 ** 53, 2 ** 63).map(float)
near_powers = st.tuples(st.sampled_from(POWERS_OF_TEN), st.integers(-3, 3)).map(
    lambda pk: pk[0] * (1 + pk[1] * 2.0 ** -52))
ties = st.tuples(st.integers(0, 2 ** 20), st.integers(1, 60)).map(
    lambda kj: (2 * kj[0] + 1) * 2.0 ** -kj[1])
cells = st.one_of(bit_floats, subnormals, large_integers, near_powers, ties,
                  st.sampled_from(SPECIAL))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(cells, cells.map(lambda v: -v)), min_size=1, max_size=64))
@example(SPECIAL)
def test_float_cells_print_as_percent_17g(values):
    assert _column(values) == _expected_column(values)


def test_float_cells_across_blocks():
    # several numpy blocks, with cells left to Python in each of them
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2 ** 64, 3 * artifacts._CSV_BLOCK + 6, dtype=np.uint64).view(float)
    values[::97] = np.nan
    values[5::211] = 1e23
    table = values.reshape(-1, 5)
    assert _csv_text(list("abcde"), table) == _csv_text_oracle(list("abcde"), table.tolist())


def test_samples_stay_on_the_array_path():
    # control and trajectory samples: no cell needs Python's formatting
    rng = np.random.default_rng(1)
    size = artifacts._CSV_BLOCK
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 6, size)
    values[:3] = 0.0, -0.0, 1.0
    sep = np.full(values.size, ord(","), np.uint8)
    _, nul = artifacts._csv_block(values, sep, np.zeros(values.size, bool))
    assert not nul.any()


MIXED_ROWS = [
    ["weighted", 0.5, 1.25e-12, 1e-6],
    ["plain", 2, np.float64(1 / 3), np.float32(0.1)],
    [np.int64(7), True, None, np.bool_(False), -0.0, math.inf, "x,y"],
    [3, 1, 2, np.float64(-2.5e-300), 4.0, "é", math.nan],
]


def test_mixed_rows_print_as_before():
    header = ["equation", "t", "residual", "tol_scaled"]
    assert _csv_text(header, MIXED_ROWS) == _csv_text_oracle(header, MIXED_ROWS)
    assert _csv_text(header, [tuple(r) for r in MIXED_ROWS[:2]]) == \
        _csv_text_oracle(header, MIXED_ROWS[:2])
    assert _csv_text(header, []) == "equation,t,residual,tol_scaled\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.one_of(cells, st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
                       st.text(max_size=4), cells.map(np.float64),
                       st.floats(width=32).map(np.float32)),
             min_size=1, max_size=6),
    max_size=12))
def test_any_rows_print_as_before(rows):
    assert _csv_text(["h"], rows) == _csv_text_oracle(["h"], rows)


def test_tables_formatted_together_print_as_alone():
    # small tables share numpy passes; a large one runs alone; none bleeds
    # into the next, empty tables included
    rng = np.random.default_rng(2)
    tables = [(["r", "u1"], rng.standard_normal((129, 2))),
              (["t", "i", "v"], [(0.5, 0, 1e23), (1.0, 1, math.nan)]),
              (["x"], []),
              (["y"], np.zeros((0, 1))),
              (list("abcde"), rng.standard_normal((artifacts._CSV_BLOCK // 2, 5))),
              (["e", "f"], [["w", 1.0], ["p", -0.0]])]
    texts = artifacts._csv_texts(tables)
    assert texts == [_csv_text_oracle(h, r.tolist() if isinstance(r, np.ndarray) else r)
                     for h, r in tables]


def test_a_row_needs_a_cell():
    with pytest.raises(ValueError):
        _csv_text(["h"], [[1.0], []])
