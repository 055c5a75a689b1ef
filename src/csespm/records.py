"""Plain records shared by every layer: CSV files of named columns, and the
tally of numerical decisions (extrapolations, caps) a run takes."""
from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .errors import ConfigError


def read_csv_columns(path, header: tuple[str, ...], text: tuple[str, ...] = ()) -> dict:
    """Columns of a CSV file by header name: float arrays, and lists of
    strings for the ``text`` columns.

    The first row must start with ``header`` (case-insensitive); columns
    past it are ignored and blank lines skipped.  A bad header, a row that
    is short or not numeric, or no data row raises ConfigError naming the
    file (and the line).
    """
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    n = len(header)
    if not rows or [c.strip().lower() for c in rows[0][:n]] != [h.lower() for h in header]:
        raise ConfigError(f"{path}: expected header {','.join(header)!r}")
    data = []
    for line, r in enumerate(rows[1:], start=2):
        if not r:
            continue
        try:
            values = [v if h in text else float(v) for h, v in zip(header, r)]
        except ValueError:
            values = []
        if len(values) < n:
            raise ConfigError(f"{path}, line {line}: expected {n} values, "
                              f"got {','.join(r)!r}")
        data.append(values)
    if not data:
        raise ConfigError(f"{path}: no data rows after the header")
    return {h: list(col) if h in text else np.array(col, dtype=float)
            for h, col in zip(header, zip(*data))}


def write_csv_columns(path, columns: dict):
    """Write named columns as CSV: strings as they are, numbers to 10
    significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in zip(*columns.values()):
            w.writerow([v if isinstance(v, str) else f"{v:.10g}" for v in row])


def tally(counters: dict | None, key: str, n: int, log, message: str, *args):
    """Add n occurrences of a numerical decision to counters[key] and log
    ``message`` at the first one; without counters every call logs."""
    if counters is None or not counters.get(key):
        log.warning(message, *args)
    if counters is not None:
        counters[key] = counters.get(key, 0) + n
