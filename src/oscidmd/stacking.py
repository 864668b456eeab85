"""Delay embedding (Hankel stacking) of scalar records into snapshot matrices.

A scalar series of length N embedded with depth m yields an m x n Hankel
matrix with n = N - m + 1 and entry(i, j) = sample(i + j). Stacking raises
the effective state dimension so that all significant modes of a single
measured channel become observable to the decomposition. The matrix is a
read-only view of the series, so the series stays the one copy of the data.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingest import SignalRecord


def default_stack_depth(length: int) -> int:
    """Default embedding depth: one fifth of the record, clamped feasible."""
    return min(max(length // 5, 1), length - 1)


def delay_embed(rec: SignalRecord, channel: str | None = None, stack_depth: int | None = None) -> np.ndarray:
    """Hankel-embed one channel of a record (default: the first).

    Returns the m x n matrix with m = stack_depth and n = length - m + 1;
    entry (i, j) equals the raw sample at index i + j. It is a read-only
    ``sliding_window_view`` of the record's channel, so embedding copies
    nothing; the depth is ``shape[0]``.
    """
    x = rec.channel(channel if channel is not None else rec.names[0])
    length = x.size
    depth = default_stack_depth(length) if stack_depth is None else stack_depth
    if depth < 1:
        raise ValueError("stack depth must be at least 1")
    if depth > length - 1:
        raise ValueError(
            f"stack depth {depth} too large for a record of {length} samples; "
            f"maximum feasible depth is {length - 1}"
        )
    return sliding_window_view(x, length - depth + 1)


def shifted_pair(hankel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split snapshots into the time-shifted pair (columns 0..n-2, 1..n-1)."""
    if hankel.shape[1] < 2:
        raise ValueError("need at least 2 snapshot columns to form a shifted pair")
    return hankel[:, :-1], hankel[:, 1:]


def antidiagonal_counts(m: int, n: int) -> np.ndarray:
    """Number of entries on each of the m + n - 1 anti-diagonals of an m x n matrix."""
    k = np.arange(m + n - 1)
    return np.minimum(np.minimum(k + 1, m + n - 1 - k), min(m, n))


def antidiagonal_sums(matrix: np.ndarray) -> np.ndarray:
    """Sum of each anti-diagonal (entries with i + j = k) of an m x n matrix.

    Loops over the shorter side: row i of the (transposed if taller than
    wide) matrix adds into ``out[i : i + cols]``.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    rows, cols = mat.shape
    out = np.zeros(rows + cols - 1)
    for i, row in enumerate(mat):
        out[i : i + cols] += row
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
