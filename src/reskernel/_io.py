"""File formats: deterministic CSV writers, time-series files, flat configs.

All writers are atomic (write to a sibling temp file, then rename) and emit
LF line endings with floats at 17 significant digits, so identical inputs
produce byte-identical files.  CSV files are streamed to the temp file one
row at a time, so the largest string alive is one row and peak memory does
not grow with the size of the file.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .numerics import is_flag, is_int, is_real
from .temporal_kernel import TimeSeries


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


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
    formatted and written before the next is read.
    """
    body = (",".join(_cell(c) for c in row) for row in rows)
    lines = itertools.chain([",".join(header)], body)
    atomic_write_text(path, (line + "\n" for line in lines))


def _read_text(path, what: str) -> str:
    """A UTF-8 input file's text; failing to open or decode it is a ContractViolation."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"cannot read {what} {path}: {exc}") from exc


def read_time_series(path) -> TimeSeries:
    """Parse a time-series file: one real per line, most recent first."""
    values = []
    for lineno, line in enumerate(_read_text(path, "time series").splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            values.append(float(stripped))
        except ValueError as exc:
            raise ContractViolation(
                f"{path}:{lineno}: not a real number: {stripped!r}"
            ) from exc
    if not values:
        raise ContractViolation(f"time series file {path} holds no samples")
    return TimeSeries(np.array(values))


def write_motifs_csv(vectors: np.ndarray, weights: np.ndarray, path) -> None:
    """One motif per row: index, weight, then the motif components.

    A motif file can hold millions of floats, so each row is formatted by
    one ``%`` over the whole row and handed to :func:`write_csv` as a
    single cell.  ``"%.17g" % x`` gives the same bytes as :func:`fmt_float`.
    The rows are a generator, so only one formatted row is alive at a time.
    """
    horizon = vectors.shape[1]
    header = ["index", "weight"] + [f"m_{j}" for j in range(1, horizon + 1)]
    row_format = "%d," + ",".join(["%.17g"] * (horizon + 1))
    weight_list = weights.tolist()
    rows = ([row_format % (i + 1, weight_list[i], *vectors[i].tolist())]
            for i in range(vectors.shape[0]))
    write_csv(path, header, rows)


def write_weights_csv(weights: np.ndarray, path) -> None:
    write_csv(path, ["index", "weight"],
              ([i + 1, float(w)] for i, w in enumerate(weights)))


def write_weights_mean_std_csv(mean: np.ndarray, std: np.ndarray, path) -> None:
    write_csv(path, ["index", "weight_mean", "weight_std"],
              ([i + 1, float(mean[i]), float(std[i])] for i in range(mean.shape[0])))


def write_comparison_csv(comparison, predicted_weights, empirical_weights, path) -> None:
    n = comparison.n_compared
    rows = ([i + 1, int(comparison.cluster_ids[i]), float(predicted_weights[i]),
             float(empirical_weights[i]), float(comparison.weight_rel_errors[i]),
             float(comparison.alignments[i])] for i in range(n))
    write_csv(path, ["index", "cluster", "predicted_weight", "empirical_weight",
                     "weight_rel_error", "alignment"], rows)


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
