"""The files a run writes: one CSV per emitted table, then ``report.json``.

This module alone knows their formats.  A float prints as its shortest
round-trip repr in the report and as ``'%.17g' % v`` in a CSV, every other
CSV cell as ``str(v)``; the report's keys are sorted and each file is
written atomically, so the same results give the same bytes.
"""

import json
import os

import numpy as np


def write_artifacts(out_dir, tables, report):
    """Write each ``(header, rows)`` of ``tables`` under its file name, then
    ``report`` as ``report.json``, into ``out_dir``, made if missing.

    The report goes last: once it is on disk, so is every file it names.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = sorted(tables)
    for name, text in zip(names, _csv_texts([tables[name] for name in names])):
        _atomic_write(os.path.join(out_dir, name), text)
    _atomic_write(os.path.join(out_dir, "report.json"), _json_text(report) + "\n")


def _atomic_write(path, text):
    """Write ``text`` to ``path`` through a new file beside it, renamed over it.

    The file takes a random name and is created with mode 0666 for the
    kernel to apply the umask.
    """
    tmp = os.path.join(os.path.dirname(path) or ".", ".tmp-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_BLOCK = 2048  # cells per numpy pass
# a bound on the error of an inexact scaled value, with tenfold room (8 u^2 1e17 < 1e-14)
_INEXACT = 1e-13
_X_MIN, _X_MAX = -324, 308  # the decimal exponents of finite nonzero doubles

# The bytes one cell may print, in print order, as six little-endian words.
# np.compress keeps a subset of them, chosen by the cell's layout: the sign;
# "0." and up to three zeros of a fixed-form value below 1; the 17 digits
# D0..D16, each followed by a decimal point slot; "e", the exponent's sign
# and three digits; a NUL standing in for a cell that Python prints; and the
# separator.
_DIGIT, _EXP, _NUL, _SEP = 6, 40, 45, 46  # D_j sits at _DIGIT + 2j, its point after it
_WIDTH = 48
# a layout is (form, significant digits, sign): form 0..20 is fixed notation
# with decimal exponent form - 4, 21 and 22 exponent notation with two and
# three exponent digits; the layout after them prints the NUL alone
_LAYOUTS = 23 * 17 * 2
_csv = {}  # the tables of _csv_tables


def _csv_tables():
    """The writer's tables, built on first use: each four-digit group as the
    word "d.d.d.d.", its trailing zeros, each decimal exponent's word
    "e+ddd" and first layout, the kept bytes of each layout, and room for
    the powers 5^s."""
    if not _csv:
        k = np.arange(100)
        two = np.full((100, 4), ord("."), np.uint8)  # "d.d." for each pair of digits
        two[:, 0], two[:, 2] = k // 10 + 48, k % 10 + 48
        two = two.view("<u4").ravel().astype("<u8")
        _csv["pairs"] = (two[:, None] | two << 32).ravel()
        tz = (k % 10 == 0) + (k == 0).astype(np.int64)
        _csv["tz"] = np.where(k == 0, 2 + tz[:, None], tz).ravel()
        _csv["base"] = np.frombuffer(b"-0.000\0.", "<u8")[0]
        X = np.arange(_X_MIN, _X_MAX + 1)
        exp = np.zeros((X.size, 8), np.uint8)
        exp[:, 0] = ord("e")
        exp[:, 1] = np.where(X < 0, ord("-"), ord("+"))
        exp[:, 2:5] = np.abs(X)[:, None] // np.array([100, 10, 1]) % 10 + 48
        _csv["exp"] = exp.view("<u8").ravel()
        form = np.where((X >= -4) & (X <= 16), X + 4, np.where(np.abs(X) < 100, 21, 22))
        _csv["first"] = 34 * form
        form, ndig = np.arange(23)[:, None, None], np.arange(1, 18)[:, None]
        X = form - 4
        fixed, whole = form <= 20, (form <= 20) & (X >= 0)
        col = np.arange(_WIDTH)
        j, odd = np.divmod(col - _DIGIT, 2)
        digit = (col >= _DIGIT) & (col < _EXP)
        point = np.where(whole, X, np.where(fixed, -1, 0))  # the digit the point follows
        keep = (
            (col >= 1) & (col <= 2) & fixed & (X < 0)
            | (col >= 3) & (col < _DIGIT) & fixed & (col - 3 < -X - 1)
            | (col >= _EXP) & (col < _NUL) & ~fixed & ((col != _EXP + 2) | (form == 22))
            | (col == _SEP)
            | (np.where(digit & (odd == 0), j, _WIDTH)
               < np.where(whole, np.maximum(ndig, X + 1), ndig))
            | (np.where(digit & (odd == 1), j, -2) == point) & (ndig > point + 1)
        )
        keep = np.stack([keep, keep | (col == 0)], axis=2).reshape(-1, _WIDTH)
        _csv["keep"] = np.vstack([keep, (col == _NUL) | (col == _SEP)])
        _csv["p5"] = np.full((2, 16 - _X_MIN - (16 - _X_MAX) + 1), np.nan)
    return _csv


def _pow5(s_lo, s_hi):
    """5^s for s in [s_lo, s_hi] as double-doubles hi + lo (rows 0 and 1, from
    column s - (16 - _X_MAX)), filled in where missing."""
    p5 = _csv_tables()["p5"]
    first = 16 - _X_MAX
    for i in np.flatnonzero(np.isnan(p5[0, s_lo - first:s_hi - first + 1])).tolist():
        s = s_lo + i
        if s >= 0:
            p = 5 ** s
            hi = float(p)
            lo = float(p - int(hi))
        else:
            q = 5 ** -s
            hi = 1 / q
            a, b = hi.as_integer_ratio()
            lo = (b - a * q) / (q * b)
        p5[:, s - first] = hi, lo
    return p5


def _split(a):
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _csv_block(v, sep, python):
    """The bytes of one block of cells, and which of them are NULs for Python.

    ``v`` holds the cells as doubles and ``python`` marks the cells that are
    not floats.  A finite nonzero |v| = f 2^e is scaled to S = |v| 10^s with
    s = 16 - floor(log10 |v|) in [1e16, 1e17) as the double-double
    (f 5^s) 2^(e+s); rounding S half to even gives the 17 digits.  For
    0 <= s <= 22, 5^s is a double and S is exact; otherwise S is within
    ``_INEXACT``, and a cell is left to Python when that cannot decide the
    rounding (a fraction near 1/2) or the decade (S near 1e16), or when
    log10 missed the decade, or when v is not finite.
    """
    t = _csv_tables()
    neg = np.signbit(v)
    a = np.abs(v)
    zero = (a == 0) & ~python
    ok = np.isfinite(a) & ~zero & ~python
    a = np.where(ok, a, 1.0)
    f, e = np.frexp(a)
    X = np.floor(np.log10(a)).astype(np.int64)
    s = 16 - X
    column = s - (16 - _X_MAX)
    p5 = _pow5(int(s.min()), int(s.max()))
    p5_hi, p5_lo = p5[0].take(column), p5[1].take(column)
    p = f * p5_hi
    fh, fl = _split(f)
    ph, pl = _split(p5_hi)
    lo = (((fh * ph - p) + fh * pl + fl * ph) + fl * pl) + f * p5_lo
    scale = ((e + s + 1023) << 52).view(np.float64)  # 2^(e+s), a normal double
    hi, lo = p * scale, lo * scale
    inexact = (s < 0) | (s > 22)
    rounded = np.rint(lo)
    ok &= ~inexact | (np.abs(lo - rounded) < 0.5 - _INEXACT)
    ok &= ((hi - 1e16) + lo >= inexact * _INEXACT) & (hi < 2e17)
    N = np.where(ok, hi, 0.0).astype(np.int64) + np.where(ok, rounded, 0.0).astype(np.int64)
    ok &= N <= 10 ** 17
    top = N == 10 ** 17
    N[top] = 10 ** 16
    X += top
    N[~ok] = 0
    X[~ok] = 0
    lead, rest = np.divmod(N, 10 ** 16)
    g1, rest = np.divmod(rest, 10 ** 12)
    g2, rest = np.divmod(rest, 10 ** 8)
    g3, g4 = np.divmod(rest, 10 ** 4)
    tz = t["tz"]
    zeros = tz.take(g4)
    short = np.flatnonzero(g4 == 0)
    if short.size:
        h1, h2, h3 = g1[short], g2[short], g3[short]
        zeros[short] = 4 + np.where(h3, tz.take(h3),
                                    4 + np.where(h2, tz.take(h2), 4 + tz.take(h1)))
    x = X - _X_MIN
    layout = t["first"].take(x) + 2 * (16 - zeros) + neg
    nul = ~ok & ~zero
    layout[nul] = _LAYOUTS
    pairs = t["pairs"]
    words = np.empty((v.size, _WIDTH // 8), "<u8")
    words[:, 0] = t["base"] + ((lead + 48) << 48).astype("<u8")
    for i, g in enumerate((g1, g2, g3, g4)):
        words[:, i + 1] = pairs.take(g)
    words[:, 5] = t["exp"].take(x) | (sep.astype("<u8") << 48)
    keep = t["keep"].take(layout, axis=0)
    return np.compress(keep.ravel(), words.view(np.uint8).ravel()).tobytes(), nul


def _csv_texts(tables):
    """The CSV text of each ``(header, rows)`` table: every float cell prints
    as ``'%.17g' % v`` and every other cell as ``str(v)``; rows end in a
    newline and hold at least one cell.

    Consecutive tables that fit in one block of ``_CSV_BLOCK`` cells are
    formatted together (``_csv_group``), so that small tables share the
    fixed cost of a numpy pass, and a larger table is formatted alone.
    """
    texts, group, cells = [], [], 0
    for header, rows in tables:
        size = len(header) * len(rows)
        if group and cells + size > _CSV_BLOCK:
            texts += _csv_group(group)
            group, cells = [], 0
        group.append((header, rows))
        cells += size
    return texts + _csv_group(group) if group else texts


def _csv_group(tables):
    """The CSV texts of ``tables``, whose float cells go through numpy together.

    A float array of rows is taken whole, a sequence of rows cell by cell.
    The float cells pass ``_CSV_BLOCK`` at a time (``_csv_block``); Python
    prints the other cells, and the floats numpy cannot certify.  Each
    table's last separator is a 0x01 byte, which no formatted cell holds,
    and the text is cut there.
    """
    values, python, seps, others, empty = [], [], [], [], []
    for header, rows in tables:
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == float:
            v, width = rows.ravel(), rows.shape[1]
            p = np.zeros(v.size, bool)
            ends = np.arange(width - 1, v.size, width)
        else:
            rows = list(rows)
            if not all(len(row) for row in rows):
                raise ValueError("every CSV row needs a cell")
            cells = [c for row in rows for c in row]
            p = np.array([not isinstance(c, (float, np.floating)) for c in cells], dtype=bool)
            v = np.array([0.0 if q else c for c, q in zip(cells, p)], dtype=float)
            others += [str(c) for c, q in zip(cells, p) if q]
            ends = np.cumsum([len(row) for row in rows], dtype=np.int64) - 1
        sep = np.full(v.size, ord(","), np.uint8)
        sep[ends] = ord("\n")
        sep[-1:] = 1
        empty.append(v.size == 0)
        values.append(v)
        python.append(p)
        seps.append(sep)
    values, python, sep = (np.concatenate(a) for a in (values, python, seps))
    blocks, nuls = [], [np.zeros(0, bool)]
    for start in range(0, values.size, _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        text, nul = _csv_block(values[start:stop], sep[start:stop], python[start:stop])
        blocks.append(text)
        nuls.append(nul)
    pieces = iter(b"".join(blocks).decode("ascii").split("\x01"))
    others = iter(others)
    where = np.flatnonzero(np.concatenate(nuls))
    own = iter([next(others) if python[i] else "%.17g" % values[i] for i in where.tolist()])
    texts = []
    for (header, _), no_rows in zip(tables, empty):
        body = "" if no_rows else next(pieces) + "\n"
        if "\0" in body:
            parts = body.split("\0")
            body = parts[0] + "".join(next(own) + part for part in parts[1:])
        texts.append(",".join(header) + "\n" + body)
    return texts



def _array_layout(shape, nl):
    """The JSON layout of a float array of ``shape``, with a NUL for each entry."""
    if not shape:
        return "\0"
    inner = nl + "  "
    rows = ("," + inner).join([_array_layout(shape[1:], inner)] * shape[0])
    return "[" + inner + rows + nl + "]" if shape[0] else "[]"


def _json_text(obj):
    """``json.dumps(obj, sort_keys=True, indent=2)`` once keys are ``str``, numpy
    values Python ones, tuples lists and non-finite floats "inf", "-inf" or "nan".

    One walk lays the text out with a NUL, which JSON text never holds, for
    each float.  The floats are told apart by their bits, which keeps -0.0
    apart from 0.0, and each distinct one is formatted once.
    """
    blocks, scalars = [], []  # the floats in order: arrays, and the scalars before each

    def text(obj, nl):  # nl: a newline and the indent of obj's line
        if isinstance(obj, float):
            scalars.append(obj)
            return "\0"
        if obj is None or isinstance(obj, (str, int)):
            return json.dumps(obj)
        inner = nl + "  "
        if isinstance(obj, dict):
            items = sorted({str(k): v for k, v in obj.items()}.items())
            body, brackets = [json.dumps(k) + ": " + text(v, inner) for k, v in items], "{}"
        elif isinstance(obj, (list, tuple)) and not all(type(v) is float for v in obj):
            body, brackets = [text(v, inner) for v in obj], "[]"
        elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray) and obj.dtype == float:
            blocks.extend((np.array(scalars, dtype=float), np.ravel(obj)))
            scalars.clear()
            return _array_layout(np.shape(obj), nl)
        elif isinstance(obj, (np.ndarray, np.generic)):
            return text(obj.tolist(), nl)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if not body:
            return brackets
        return brackets[0] + inner + ("," + inner).join(body) + nl + brackets[1]

    pieces = text(obj, "\n").split("\0")
    blocks.append(np.array(scalars, dtype=float))
    bits, where = np.unique(np.concatenate(blocks).view(np.int64), return_inverse=True)
    values = bits.view(float)
    formatted = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    nonfinite = ~np.isfinite(values)  # printed as the strings "inf", "-inf" and "nan"
    formatted[nonfinite] = '"' + formatted[nonfinite] + '"'
    out = [None] * (2 * len(pieces) - 1)
    out[::2], out[1::2] = pieces, formatted[where].tolist()
    return "".join(out)
