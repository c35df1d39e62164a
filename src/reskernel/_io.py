"""File formats: deterministic CSV writers, time-series files, flat configs.

All writers are atomic (write to a sibling temp file, then rename) and emit
LF line endings with floats at 17 significant digits, so identical inputs
produce byte-identical files.  CSV files are streamed to the temp file, a
file of numbers by :func:`write_table` one block of at most ``_BLOCK_FIELDS``
fields at a time, and one with text cells by :func:`write_csv` one row at a
time, so peak memory does not grow with the size of the file.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .numerics import as_number_array, is_flag, is_int, is_real
from .temporal_kernel import TimeSeries


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


# fmt_block's fast path covers nonzero |x| in [1e-270, 1e270]; there no
# power of ten it multiplies by, nor the low word of one, is subnormal or
# overflows.  K_MIN..K_MAX covers 16 - floor(log10|x|) over that range, and
# E_MIN..E_MAX the decimal exponents, each with a margin for log10's rounding.
_FAST_MIN, _FAST_MAX = 1e-270, 1e270
_K_MIN, _K_MAX = -260, 290
_E_MIN, _E_MAX = -280, 280
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# Under an inexact power the product is off by less than 2**-46, so a
# fraction this close to 1/2 could round either way.
_TIE_MARGIN = 2.0 ** -30
# write_table formats at most this many fields at once.  A field costs
# fmt_block about 300 bytes of temporaries, so a block peaks near 0.6 MB.
_BLOCK_FIELDS = 2048

# fmt_block lays a field out in 52 byte slots, as 13 four-byte words, and a
# mask row picks the slots the field prints:
#   0 "-" | 1-5 "0.000" | 7 d0 | 8-23 d1..d16 | 27 "." | 28-43 d1..d16 |
#   44-51 " e+ddd, " with the exponent sign at 46 and the separator at 50.
# Fixed notation prints d0..de from the first copy of the digits and the
# fraction from the second, so no byte is shifted and a mask row has at
# most five runs.  Slots 6, 24-26, 44 and 51 are never printed.
_WIDTH = 52
_SEP = 50
_MAX_TEXT = 24  # the longest fmt_float text, as of -2.2250738585072014e-308
_SLOTS_0_3 = np.frombuffer(b"-0.0", dtype=np.uint32)[0]
_SLOTS_24_27 = np.frombuffer(b"   .", dtype=np.uint32)[0]
# A mask row is chosen by (layout, significant digits, sign).  Layouts:
# exponential with a 2- or 3-digit exponent, fixed for each exponent from
# -4 to 16, and zero.
_EXP2, _EXP3, _ZERO = 0, 1, 23


def _layout(exponent: int) -> int:
    if -4 <= exponent <= 16:
        return exponent + 6
    return _EXP3 if abs(exponent) >= 100 else _EXP2


def _keep_row(layout: int, significant: int, negative: bool) -> np.ndarray:
    """The slots printed by a field with this layout, count of significant
    digits (1 to 17) and sign; trailing zeros of a fraction and a bare "."
    are left out, as ``%g`` does."""
    row = np.zeros(_WIDTH, dtype=bool)
    row[0] = negative
    row[_SEP] = True
    if layout == _ZERO:
        row[1] = True
    elif layout in (_EXP2, _EXP3):
        row[7] = True
        row[27] = significant > 1
        row[28:27 + significant] = True
        row[45:50] = True
        row[47] = layout == _EXP3
    elif layout < 6:  # 0.000d0d1...: "0." and -exponent - 1 zeros
        row[1:8 - layout] = True
        row[7:7 + significant] = True
    else:
        exponent = layout - 6
        row[7:8 + exponent] = True
        row[27] = significant > exponent + 1
        row[28 + exponent:27 + significant] = True
    return row


def _veltkamp(v):
    big = _VELTKAMP * v
    head = big - (big - v)
    return head, v - head


@functools.cache
def _fmt_tables() -> dict:
    """The constant tables of :func:`fmt_block`, built from exact integers
    on first use so that importing the package costs nothing: powers of ten
    as unevaluated sums ``hi + lo`` for k in K_MIN..K_MAX, the ASCII of every
    4-digit group, per exponent its layout and ``" e+ddd, "`` word, and the
    mask rows."""
    his, los = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi, lo = np.array(his), np.array(los)
    hi_head, hi_tail = _veltkamp(hi)
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    group_digits = np.arange(10_000, dtype=np.int16)[:, None] // places % 10
    nonzero = group_digits != 0
    # the place, 1 to 4, of a group's last nonzero digit; none in group 0
    last = (4 - np.argmax(nonzero[:, ::-1], axis=1)).astype(np.int8)
    last[0] = -100
    exponents = range(_E_MIN, _E_MAX + 1)
    keep = np.zeros((_ZERO + 1, 18, 2, _WIDTH), dtype=bool)
    for layout, significant, negative in itertools.product(range(_ZERO + 1), range(18), (0, 1)):
        keep[layout, significant, negative] = _keep_row(layout, significant, negative)
    return {
        "hi": hi, "hi_head": hi_head, "hi_tail": hi_tail, "lo": lo, "exact": lo == 0.0,
        "group": (group_digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        "last": last,
        "layout": np.array([_layout(e) for e in exponents]),
        "exp": np.frombuffer(b"".join(b" e%+04d, " % e for e in exponents), dtype=np.uint64),
        "keep": keep.reshape(-1, _WIDTH),
        "keep_text": ((np.arange(_WIDTH) < np.arange(_MAX_TEXT + 1)[:, None])
                      | (np.arange(_WIDTH) == _SEP)),
    }


def _decimal(x: np.ndarray):
    """``(digits, exponent, fast)``: ``|x|`` rounded half-even to the 17-digit
    int ``digits`` times ``10**(exponent - 16)``, wherever ``fast`` says the
    rounding is certain.  ``|x| * 10**k`` is a double-double product, exact
    where ``10**k`` is a double, so exact ties there are decided half-even.
    """
    t = _fmt_tables()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # false for 0, nan and inf
    a = np.where(fast, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    k = (16 - _K_MIN) - exponent
    hi = a * np.take(t["hi"], k)
    a_head, a_tail = _veltkamp(a)
    hi_head, hi_tail = np.take(t["hi_head"], k), np.take(t["hi_tail"], k)
    lo = (a_head * hi_head - hi) + a_head * hi_tail + a_tail * hi_head + a_tail * hi_tail
    lo += a * np.take(t["lo"], k)
    # hi >= 1e16 > 2**53 is an integer, so floor(hi + lo) = hi + floor(lo).
    whole = np.floor(lo)
    frac = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64)
    fast &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    fast &= np.take(t["exact"], k) | (np.abs(frac - 0.5) >= _TIE_MARGIN)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits % 2 == 1))
    carry = digits == 10 ** 17
    exponent += carry
    return np.where(carry | ~fast, 10 ** 16, digits), exponent, fast


def fmt_block(block: np.ndarray, row_end: str = "\n") -> str:
    """The text of a 2-D float array: each element as :func:`fmt_float`
    prints it, ``,`` between the fields of a row and ``row_end`` after each row.

    Elements whose 17-digit rounding :func:`_decimal` cannot decide, and
    those that are not finite, are formatted by :func:`fmt_float` itself.
    """
    t = _fmt_tables()
    x = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = x.shape
    x = x.ravel()
    digits, exponent, fast = _decimal(x)
    zero = x == 0.0

    # The ASCII of the lead digit and of the four 4-digit groups after it,
    # and the count of digits up to the last nonzero one.
    words = np.empty((x.size, _WIDTH // 4), dtype=np.uint32)
    words[:, 0] = _SLOTS_0_3
    rest = digits
    significant = np.ones_like(digits)
    for col in (5, 4, 3, 2):
        rest, group = np.divmod(rest, 10 ** 4)
        words[:, col] = np.take(t["group"], group)
        significant = np.maximum(significant, np.take(t["last"], group) + (4 * col - 7))
    words[:, 1] = np.take(t["group"], rest)  # "000" and the lead digit
    words[:, 6] = _SLOTS_24_27
    words[:, 7:11] = words[:, 2:6]
    words[:, 11:13] = np.take(t["exp"], exponent - _E_MIN).view(np.uint32).reshape(-1, 2)
    slots = words.view(np.uint8)
    slots.reshape(rows, cols, _WIDTH)[:, -1, _SEP] = ord(row_end)
    layout = np.where(zero, _ZERO, np.take(t["layout"], exponent - _E_MIN))
    keep = np.take(t["keep"], (layout * 18 + significant) * 2 + np.signbit(x), axis=0)

    slow = np.flatnonzero(~(fast | zero))
    texts = [fmt_float(v).encode() for v in x[slow].tolist()]
    slots[slow, :_MAX_TEXT] = np.array(texts, dtype=f"S{_MAX_TEXT}").view(
        np.uint8).reshape(-1, _MAX_TEXT)
    keep[slow] = t["keep_text"][[len(text) for text in texts]]
    return slots[keep].tobytes().decode("ascii")


def _cell(value) -> str:
    """A CSV cell under the package's scalar rules: an integer as itself, any
    other real number by :func:`fmt_float`, a flag rejected, anything else by ``str``."""
    if is_flag(value):
        raise ContractViolation("boolean cells are not part of any file format")
    if is_int(value):
        return str(value)
    if is_real(value):
        return fmt_float(value)
    return str(value)


def atomic_write_text(path, text) -> None:
    """Write ``text`` to ``path`` through a sibling temp file and a rename.

    ``text`` is one ``str`` or an iterable of ``str`` written in turn, so a
    caller can stream a file that it never holds whole.  If writing fails,
    the temp file is removed and an existing ``path`` keeps its old bytes.
    The file gets the mode a plain ``open`` would give it, ``0o666`` less
    the umask, not the temp file's private ``0o600``.
    """
    target = Path(path)
    chunks = [text] if isinstance(text, str) else text
    umask = os.umask(0)  # the only way to read the umask is to set it and restore it
    os.umask(umask)
    try:
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.",
                                       suffix=".tmp")
        except ValueError as exc:  # a NUL byte in the path
            raise OSError(exc) from exc
        try:
            with os.fdopen(fd, "w", newline="\n") as handle:
                handle.writelines(chunks)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc}") from exc


def write_csv(path, header: list[str], rows) -> None:
    """Write a header line, then one line per row, each ending in LF.

    ``rows`` may be any iterable, a generator included; each row is
    formatted and written before the next is read.  A row given as one
    ``str`` is text already formatted and is written as it is, so it ends
    its own lines.
    """
    lines = (row if isinstance(row, str) else ",".join(_cell(c) for c in row) + "\n"
             for row in rows)
    atomic_write_text(path, itertools.chain([",".join(header) + "\n"], lines))


def _read_text(path, what: str) -> str:
    """A UTF-8 input file's text, without a leading byte-order mark; failing
    to open or decode it is a ContractViolation.  The mark is dropped after
    decoding, so a decode error counts its position from the file's first
    byte."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"cannot read {what} {path}: {exc}") from exc
    return text.removeprefix("\ufeff")


def read_time_series(path) -> TimeSeries:
    """Parse a time-series file: one finite real per line, most recent first."""
    values = []
    for lineno, line in enumerate(_read_text(path, "time series").splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = float(stripped)
        except ValueError as exc:
            raise ContractViolation(
                f"{path}:{lineno}: not a real number: {stripped!r}"
            ) from exc
        # float() reads nan, inf and an out-of-range 1e400 as well.
        if not math.isfinite(value):
            raise ContractViolation(f"{path}:{lineno}: not a finite real number: {stripped!r}")
        values.append(value)
    if not values:
        raise ContractViolation(f"time series file {path} holds no samples")
    return TimeSeries(np.array(values))


def write_table(path, header: list[str], *columns) -> None:
    """A CSV file of numbers: ``header``, then one row per entry of the
    ``columns``, integer or float arrays of one length, each 1-D (one field)
    or 2-D (one field per column); a column of flags or text is refused.

    :func:`fmt_block` formats the table in blocks of whole rows, and a row
    longer than a block in pieces, of at most ``_BLOCK_FIELDS`` fields each,
    and each block's text goes to :func:`write_csv` in turn, so peak memory
    is bounded by one block whatever the size of the file.  Every field is
    formatted as a float, which prints an integer below 2**53 as ``%d``.
    """
    arrays = [as_number_array(column, "table column") for column in columns]
    width = sum(a.shape[1] if a.ndim == 2 else 1 for a in arrays)
    if (any(a.ndim not in (1, 2) for a in arrays) or len({len(a) for a in arrays}) != 1
            or len(header) != width):
        raise ContractViolation("a table needs 1-D or 2-D columns of one row count "
                                "and one header field per column")
    pieces = -(-width // _BLOCK_FIELDS)
    step = -(-width // pieces)
    rows = max(1, _BLOCK_FIELDS // width)

    def blocks():
        for start in range(0, len(arrays[0]), rows):
            block = np.column_stack([a[start:start + rows] for a in arrays])
            for first in range(0, width, step):
                yield fmt_block(block[:, first:first + step],
                                "\n" if first + step >= width else ",")

    write_csv(path, header, blocks())


def write_motifs_csv(vectors: np.ndarray, weights: np.ndarray, path) -> None:
    """One motif per row: index, weight, then the motif components."""
    header = ["index", "weight"] + [f"m_{j}" for j in range(1, vectors.shape[1] + 1)]
    write_table(path, header, np.arange(1, vectors.shape[0] + 1), weights, vectors)


_SWEEP_STAT_FIELDS = ("n_motifs", "cells_visited", "relative_area",
                      "weighted_relative_area", "discarded_points")

SWEEP_HEADER = ["nu", "regime", "input_kind", "trial", *_SWEEP_STAT_FIELDS]


def write_sweep_csv(reports, path) -> None:
    """Sweep rows in canonical order, plus mean/std rows per configuration.

    Aggregate rows reuse the trial column with the labels ``mean`` and
    ``std`` (population standard deviation).
    """
    rows = []
    groups: dict[tuple, list] = {}
    for r in reports:
        rows.append([getattr(r, name) for name in SWEEP_HEADER])
        groups.setdefault((r.nu, r.regime, r.input_kind), []).append(r)
    for key in sorted(groups):
        stats = {f: np.array([getattr(m, f) for m in groups[key]], dtype=float)
                 for f in _SWEEP_STAT_FIELDS}
        rows.append([*key, "mean"] + [float(np.mean(stats[f])) for f in _SWEEP_STAT_FIELDS])
        rows.append([*key, "std"] + [float(np.std(stats[f])) for f in _SWEEP_STAT_FIELDS])
    write_csv(path, SWEEP_HEADER, rows)


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path, "config").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ContractViolation(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ContractViolation(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ContractViolation(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out
