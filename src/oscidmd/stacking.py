"""Delay embedding (Hankel stacking) of scalar records into snapshot matrices.

A scalar series of length N embedded with depth m yields an m x n Hankel
matrix with n = N - m + 1 and entry(i, j) = sample(i + j). Stacking raises
the effective state dimension so that all significant modes of a single
measured channel become observable to the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .ingest import SignalRecord

# Row block of antidiagonal_sums. 64 rows bound the skew buffer to about
# 2 MB on a 1000 x 4000 matrix, which summed twice as fast as one buffer for
# all rows (2-vCPU x86-64 VM, numpy 2.4).
_SKEW_ROWS = 64


@dataclass(frozen=True)
class SnapshotMatrix:
    """Delay-embedded state snapshots: m stacked rows by n time columns.

    ``data`` is read-only. A read-only float array (such as the Hankel view
    ``delay_embed`` makes) is kept as given; anything else is copied.
    """

    data: np.ndarray
    dt: float
    t0: float
    stack_depth: int
    source_channel: str

    def __post_init__(self) -> None:
        data = self.data
        if not _read_only_float(data):
            data = np.array(data, dtype=float, copy=True)
        if data.ndim != 2:
            raise ValueError("snapshot data must be 2-D")
        m, n = data.shape
        if m < 1 or n < 2:
            raise ValueError(f"snapshot matrix must be at least 1x2, got {m}x{n}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _read_only_float(arr) -> bool:
    """True for a float64 array that neither it nor any array it views can write."""
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        return False
    base = arr
    while base is not None:
        if isinstance(base, np.ndarray) and base.flags.writeable:
            return False
        base = getattr(base, "base", None)
    return True


def default_stack_depth(length: int) -> int:
    """Default embedding depth: one fifth of the record, clamped feasible."""
    return min(max(length // 5, 1), length - 1)


def delay_embed(rec: SignalRecord, channel: str | None = None, stack_depth: int | None = None) -> SnapshotMatrix:
    """Hankel-embed one channel of a record.

    Produces an m x n matrix with m = stack_depth and n = length - m + 1;
    entry (i, j) equals the raw sample at index i + j. The matrix is a
    read-only view of the record's channel, so embedding copies nothing.
    """
    name = channel if channel is not None else rec.names[0]
    x = rec.channel(name)
    length = x.size
    depth = default_stack_depth(length) if stack_depth is None else stack_depth
    if depth < 1:
        raise ValueError("stack depth must be at least 1")
    if depth > length - 1:
        raise ValueError(
            f"stack depth {depth} too large for a record of {length} samples; "
            f"maximum feasible depth is {length - 1}"
        )
    data = sliding_window_view(x, length - depth + 1)
    return SnapshotMatrix(
        data=data, dt=rec.dt, t0=rec.t0, stack_depth=depth, source_channel=name
    )


def shifted_pair(snap: SnapshotMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split snapshots into the time-shifted pair (columns 0..n-2, 1..n-1)."""
    if snap.data.shape[1] < 2:
        raise ValueError("need at least 2 snapshot columns to form a shifted pair")
    return snap.data[:, :-1], snap.data[:, 1:]


def antidiagonal_counts(m: int, n: int) -> np.ndarray:
    """Number of entries on each of the m + n - 1 anti-diagonals of an m x n matrix."""
    k = np.arange(m + n - 1)
    return np.minimum(np.minimum(k + 1, m + n - 1 - k), min(m, n))


def antidiagonal_sums(matrix: np.ndarray) -> np.ndarray:
    """Sum of each anti-diagonal (entries with i + j = k) of an m x n matrix.

    Works along the longer side in blocks of ``_SKEW_ROWS`` rows: each
    block is skewed into a zeroed buffer with one strided write, row i
    shifted right by i, and the buffer's columns are summed. The buffer
    stays a few rows tall whatever the matrix size.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    rows, cols = mat.shape
    out = np.zeros(rows + cols - 1)
    for r0 in range(0, rows, _SKEW_ROWS):
        block = mat[r0 : r0 + _SKEW_ROWS]
        height = block.shape[0]
        buf = np.zeros((height, height + cols - 1))
        row_stride, col_stride = buf.strides
        as_strided(buf, shape=block.shape, strides=(row_stride + col_stride, col_stride))[...] = block
        out[r0 : r0 + height + cols - 1] += buf.sum(axis=0)
    return out


def unembed(matrix: np.ndarray) -> np.ndarray:
    """Collapse an m x n (approximately Hankel) matrix back to a series.

    Averages anti-diagonals, the least-squares inverse of the embedding;
    returns a series of length m + n - 1. Exact for true Hankel matrices.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("unembed expects a non-empty 2-D matrix")
    return antidiagonal_sums(mat) / antidiagonal_counts(*mat.shape)
