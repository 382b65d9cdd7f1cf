"""``artifacts._csv_texts``, the writer of the CSVs, against Python's own formatting.

A table is a header and a 2-d float array, and every cell must print as
``'%.17g' % v``.  The oracle for whole tables is the writer the CLI had
before the array-wide one: one %-format per row, built from the row's cell
types.
"""

import math
import struct

import numpy as np
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
    _, nul = artifacts._csv_block(values, sep)
    assert not nul.any()


def test_tables_formatted_together_print_as_alone():
    # every table's cells share the numpy passes, whose blocks straddle the
    # tables; none bleeds into the next, a zero-row table included
    rng = np.random.default_rng(2)
    tables = [(["r", "u1"], rng.standard_normal((129, 2))),
              (["t", "i", "v"], np.array([(0.5, 0, 1e23), (1.0, 1, math.nan)])),
              (["y"], np.zeros((0, 1))),
              (list("abcde"), rng.standard_normal((artifacts._CSV_BLOCK // 2 + 3, 5))),
              (["e", "f"], np.array([[2.0, 1.0], [3.0, -0.0]]))]
    assert tables[3][1].size > artifacts._CSV_BLOCK
    texts = artifacts._csv_texts(tables)
    assert texts == [_csv_text_oracle(h, r.tolist()) for h, r in tables]
