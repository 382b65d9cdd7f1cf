"""``cli._json_text``, the writer of ``report.json``, against ``json.dumps``.

The oracle is the conversion the CLI made before the writer existed: make
keys ``str``, numpy values Python ones, tuples lists and non-finite floats
the strings "inf", "-inf" and "nan", then ``json.dumps(..., sort_keys=True,
indent=2)``.  The writer must print the same bytes.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from minenergy.cli import _json_text


def _json_ready_oracle(obj):
    if type(obj) is float and math.isfinite(obj):
        return obj
    if isinstance(obj, dict):
        return {str(k): _json_ready_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready_oracle(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready_oracle(obj.tolist())
    if isinstance(obj, np.generic):  # a numpy float, int or bool
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


def _oracle_text(obj):
    return json.dumps(_json_ready_oracle(obj), sort_keys=True, indent=2)


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# NaNs with other payloads and signs, next to the one float("nan") makes
NANS = [_from_bits(b) for b in (0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000000)]
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 5e-324, 0.1, 1e300] + NANS

py_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
# numpy float scalars stay finite here: see test_numpy_non_finite_scalars_print_as_strings
np_scalars = st.one_of(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([0.0, -0.0, 1e-300])).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
float_arrays = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                      elements=py_floats)
other_arrays = st.one_of(
    arrays(np.int64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
    arrays(np.bool_, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
)
leaves = st.one_of(
    py_floats,
    np_scalars,
    st.booleans(),
    st.none(),
    st.integers(-10**40, 10**40),
    st.text(),  # non-ASCII and control characters, NUL among them
    st.lists(py_floats, max_size=5),  # a leaf list of floats
    float_arrays,
    other_arrays,
)
keys = st.one_of(st.text(max_size=5), st.integers(-3, 3), py_floats, st.booleans(), st.none())
reports = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reports)
@example({})
@example([])
@example({"a": [], "b": {}, "c": np.zeros((0, 2)), "d": np.zeros((2, 0))})
@example({"zeros": [0.0, -0.0, np.float64(-0.0)], "Q": np.array([[0.0, -0.0], [-0.0, 0.0]])})
@example([math.nan] + NANS + [math.inf, -math.inf, 1e-300])
@example({1: "int key", "1": "str key", None: True, 2.5: None, True: 10**30})
@example({"é": "ünïcødé ✓", "nul": "\x00", "t": (1, 2.0, np.bool_(False))})
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == _oracle_text(obj)


def test_numpy_non_finite_scalars_print_as_strings():
    """A numpy float that is not finite prints as the same string as a Python
    one.  The old conversion passed it to ``json.dumps`` unconverted, which
    printed a bare ``NaN`` or ``Infinity``, not JSON."""
    obj = {"a": np.float64(math.nan), "b": np.float64(-math.inf), "c": np.float32(math.inf)}
    assert json.loads(_json_text(obj)) == {"a": "nan", "b": "-inf", "c": "inf"}


@pytest.mark.parametrize("obj", [{1, 2}, object(), {"a": [1j]}])
def test_values_json_cannot_hold_are_a_type_error(obj):
    with pytest.raises(TypeError):
        _json_text(obj)
