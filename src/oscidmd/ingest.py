"""Loading, validation and normalization of raw measurement data.

Measurements arrive as UTF-8 CSV (optional byte-order mark, optional
header, comma delimiter, `.` decimal point). The sample interval comes
either from a configured ``dt`` or from a uniformly spaced time column;
when both are given they must agree. Missing samples are marked by an
empty cell or a case-insensitive ``nan`` token; they are kept visible
through a boolean mask and filled at load time so that every stored value
is finite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FILL_ZERO = "zero"
FILL_HOLD = "hold"
_FILL_POLICIES = (FILL_ZERO, FILL_HOLD)

# Allowed relative deviation of time-column spacing from the sample interval.
_DT_REL_TOL = 1e-6


class IngestError(ValueError):
    """Raised when an input file or ingest setting is rejected."""


@dataclass(frozen=True, eq=False)
class SignalRecord:
    """Uniformly sampled multichannel series with an explicit missing mask.

    ``data[c, k]`` is channel ``c`` at time ``t0 + k*dt``. Entries flagged
    in ``missing_mask`` were absent in the source and hold the fill value
    dictated by ``fill_policy``; all stored values are finite.
    """

    names: tuple[str, ...]
    data: np.ndarray
    missing_mask: np.ndarray
    dt: float
    t0: float = 0.0
    fill_policy: str = FILL_ZERO

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float, copy=True)
        mask = np.array(self.missing_mask, dtype=bool, copy=True)
        if not self.names:
            raise IngestError("a record needs at least one channel")
        if data.ndim != 2 or data.shape[0] != len(self.names):
            raise IngestError("data must be a (channels, samples) array matching names")
        if data.shape[1] < 2:
            raise IngestError("a record needs at least 2 samples per channel")
        if mask.shape != data.shape:
            raise IngestError("missing_mask must have the same shape as data")
        if not 0 < self.dt < np.inf:
            raise IngestError(f"dt must be finite and positive, got {self.dt!r}")
        if self.fill_policy not in _FILL_POLICIES:
            raise IngestError(f"unknown fill policy {self.fill_policy!r}")
        if not np.all(np.isfinite(data)):
            raise IngestError("record holds non-finite samples after fill")
        data.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "missing_mask", mask)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def length(self) -> int:
        return self.data.shape[1]

    def _row(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise IngestError(f"unknown channel {name!r}; have {self.names}") from None

    def channel(self, name: str) -> np.ndarray:
        return self.data[self._row(name)]

    def channel_mask(self, name: str) -> np.ndarray:
        return self.missing_mask[self._row(name)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignalRecord):
            return NotImplemented
        return (
            self.names == other.names
            and self.dt == other.dt
            and self.t0 == other.t0
            and self.fill_policy == other.fill_policy
            and np.array_equal(self.data, other.data)
            and np.array_equal(self.missing_mask, other.missing_mask)
        )


def _fill(values: np.ndarray, mask: np.ndarray, policy: str) -> np.ndarray:
    """Replace masked entries; leading gaps under hold fall back to 0.0."""
    filled = values.copy()
    if policy == FILL_ZERO:
        filled[mask] = 0.0
        return filled
    if policy == FILL_HOLD:
        n = values.shape[1]
        last_valid = np.where(~mask, np.arange(n)[None, :], -1)
        np.maximum.accumulate(last_valid, axis=1, out=last_valid)
        leading = last_valid < 0
        np.clip(last_valid, 0, None, out=last_valid)
        filled = np.take_along_axis(values, last_valid, axis=1)
        filled[leading] = 0.0
        return filled
    raise IngestError(f"unknown fill policy {policy!r}")


def _parse_cell(text: str, row: int, col: str) -> tuple[float, bool]:
    s = text.strip()
    if s == "" or s.lower() == "nan":
        return 0.0, True
    try:
        value = float(s)
    except ValueError:
        raise IngestError(f"row {row}, column {col}: cannot parse {s!r} as a number") from None
    if not np.isfinite(value):
        raise IngestError(f"row {row}, column {col}: non-finite value {s!r} is not allowed")
    return value, False


def _parse_column(rows: list[list[str]], c: int, values: np.ndarray, mask: np.ndarray) -> bool:
    """Parse column c of every row into values and mask as :func:`_parse_cell` does.

    False, with values and mask partly written, when a cell is unparseable
    or non-finite; :func:`_parse_cell` then finds and reports it.
    """
    cells = [row[c].strip() for row in rows]
    try:
        values[:] = [float(s or "nan") for s in cells]
    except ValueError:
        return False
    np.isnan(values, out=mask)
    for i in np.flatnonzero(mask).tolist():
        if cells[i] and cells[i].lower() != "nan":
            return False
    values[mask] = 0.0
    return bool(np.isfinite(values).all())


def load_csv(
    path: str | Path,
    *,
    dt: float | None = None,
    time_column: str | int | None = None,
    has_header: bool = True,
    fill_policy: str = FILL_ZERO,
) -> SignalRecord:
    """Read a CSV file into a :class:`SignalRecord`.

    The sample interval comes either from ``dt`` or from a uniformly spaced
    time column (``time_column`` is a header name or a 0-based column
    index). If both are given they must agree to within 1e-6 relative,
    otherwise the file is rejected rather than silently preferring one.
    Without a time column the record starts at t = 0. Missing samples are
    filled by ``fill_policy``.

    The settings are checked before the file is read. Rejects files with
    fewer than 2 data rows, a header that names a column twice, ragged
    rows, unparseable or non-finite cells, and non-uniform time columns
    (reporting the first offending row).
    """
    if fill_policy not in _FILL_POLICIES:
        raise IngestError(f"unknown fill policy {fill_policy!r}; expected one of {_FILL_POLICIES}")
    if dt is None and time_column is None:
        raise IngestError("either dt or a time column must be configured")
    if dt is not None and not 0 < dt < np.inf:
        raise IngestError(f"dt must be finite and positive, got {dt!r}")
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    # a blank line is a row of one empty cell: in single-column files that
    # is a missing sample, in wider files the width check rejects it.
    # utf-8-sig drops the byte-order mark that spreadsheet exports lead with.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row if row else [""] for row in csv.reader(fh)]
    if not rows:
        raise IngestError(f"{path}: file holds no data")

    if has_header:
        names = [c.strip() for c in rows[0]]
        if len(set(names)) < len(names):
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise IngestError(f"{path}: header names column {repeated!r} more than once")
        data_rows = rows[1:]
    else:
        names = [f"ch{i}" for i in range(len(rows[0]))]
        data_rows = rows
    ncols = len(names)
    if len(data_rows) < 2:
        raise IngestError(f"{path}: fewer than 2 data rows")
    for i, row in enumerate(data_rows):
        if len(row) != ncols:
            raise IngestError(f"{path}: row {i} has {len(row)} cells, expected {ncols}")

    time_idx: int | None = None
    if time_column is not None:
        if isinstance(time_column, int):
            time_idx = time_column
            if not 0 <= time_idx < ncols:
                raise IngestError(f"time column index {time_idx} out of range for {ncols} columns")
        else:
            if not has_header:
                raise IngestError("time column by name requires a header row")
            if time_column not in names:
                raise IngestError(f"time column {time_column!r} not found in header {names}")
            time_idx = names.index(time_column)

    values = np.empty((ncols, len(data_rows)))
    mask = np.zeros((ncols, len(data_rows)), dtype=bool)
    if not all(_parse_column(data_rows, c, values[c], mask[c]) for c in range(ncols)) or (
        time_idx is not None and mask[time_idx].any()
    ):
        # the cell by cell pass finds and raises the first problem in row-major order
        for i, row in enumerate(data_rows):
            for c, cell in enumerate(row):
                if _parse_cell(cell, i, names[c])[1] and c == time_idx:
                    raise IngestError(f"row {i}: time column cannot have missing samples")

    if time_idx is not None:
        t = values[time_idx]
        n = t.size
        dt_est = (t[-1] - t[0]) / (n - 1)
        if not dt_est > 0:
            raise IngestError("time column is not increasing")
        deviation = np.abs(np.diff(t) - dt_est)
        bad = np.flatnonzero(deviation > _DT_REL_TOL * dt_est)
        if bad.size:
            raise IngestError(
                f"non-uniform time column: first offending sample index {bad[0] + 1} "
                f"(spacing {t[bad[0] + 1] - t[bad[0]]:.9g}, expected {dt_est:.9g})"
            )
        if dt is not None and abs(dt_est - dt) > _DT_REL_TOL * dt:
            raise IngestError(
                f"configured dt {dt:.9g} disagrees with time column spacing {dt_est:.9g}"
            )
        if dt is None:
            dt = float(dt_est)
        t0 = float(t[0])
        keep = [c for c in range(ncols) if c != time_idx]
    else:
        dt = float(dt)  # checked present above
        t0 = 0.0
        keep = list(range(ncols))

    data = _fill(values[keep], mask[keep], fill_policy)
    return SignalRecord(
        names=tuple(names[c] for c in keep),
        data=data,
        missing_mask=mask[keep],
        dt=dt,
        t0=t0,
        fill_policy=fill_policy,
    )


def write_csv(rec: SignalRecord, path: str | Path) -> None:
    """Write a record back to CSV: a time column ``t``, then one column per channel.

    Masked samples become empty cells. Values use shortest round-trip
    formatting, so reading the file back with the record's dt and
    ``time_column="t"`` reproduces the record exactly.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", *rec.names])
        for k in range(rec.length):
            row = [repr(rec.t0 + k * rec.dt)]
            for c in range(len(rec.names)):
                row.append("" if rec.missing_mask[c, k] else repr(float(rec.data[c, k])))
            writer.writerow(row)


def inject_gap(rec: SignalRecord, start_index: int, gap_length: int) -> SignalRecord:
    """Return a copy with ``gap_length`` samples masked on every channel.

    The data is refilled from the new mask by the record's fill policy, the
    same rule :func:`load_csv` applies. Unmasked samples are bit-identical
    to the input; under hold, a masked sample after the gap that held a
    gap sample now holds the last sample before the gap.
    """
    if gap_length < 0 or start_index < 0 or start_index + gap_length > rec.length:
        raise IngestError(
            f"gap [{start_index}, {start_index + gap_length}) out of range "
            f"for record of length {rec.length}"
        )
    mask = rec.missing_mask.copy()
    mask[:, start_index : start_index + gap_length] = True
    return SignalRecord(
        names=rec.names,
        data=_fill(rec.data, mask, rec.fill_policy),
        missing_mask=mask,
        dt=rec.dt,
        t0=rec.t0,
        fill_policy=rec.fill_policy,
    )
