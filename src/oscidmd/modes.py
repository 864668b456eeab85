"""Mode reporting: continuous eigenvalues, damping classes, dominance ranking.

A discrete eigenvalue lambda expressed at subsample frequency f_sp maps to
the continuous eigenvalue omega = f_sp * ln(lambda); Re(omega) is the
growth rate in 1/s and |Im(omega)| / 2pi the frequency in Hz. The integral
contribution of a mode accumulates its amplitude envelope over the
analysis horizon and drives the dominant-mode ranking.

A decomposition's modes are one ``ModeTable``: a read-only numpy column
per field, made in one vectorized pass from the fits' eigenvalues and
amplitudes. Classification, ranking and clustering run on the columns. A
``ModeReport`` is only a row view, built when a row is read: by indexing
or iterating the table, or by ``ModeCluster.best`` and ``.members``.

:func:`classify` is the one place where the critical band ``eps_crit`` is
applied: the clusters read its ``damping_class`` and ``dominant_rank``
columns, and the strongest oscillatory mode is its rank-1 row.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .dmd import DmdResult, conjugate_pairs

DAMPING_DECAYING = "decaying"
DAMPING_CRITICAL = "critical"
DAMPING_GROWING = "growing"
# ModeTable.damping_class codes index this tuple; -1 marks an unclassified row
DAMPING_CLASSES = (DAMPING_DECAYING, DAMPING_CRITICAL, DAMPING_GROWING)

# Growth-rate band (1/s) treated as critically damped.
DEFAULT_EPS_CRIT = 0.5


@dataclass(frozen=True, slots=True)
class ModeReport:
    """One identified mode, conjugate pairs collapsed to a single row: a row of a ``ModeTable``.

    ``slow`` is None for plain single-window analyses, otherwise whether
    the mode passed the slow screen of its bin. ``damping_class`` and
    ``dominant_rank`` stay None until :func:`classify` assigns them;
    ranking covers retained oscillatory modes only, so zero-frequency
    baseline components are reported but never ranked.
    """

    level: int
    bin_index: int
    eigenvalue: complex
    omega: complex
    frequency_hz: float
    growth_rate: float
    amplitude_mag: float
    integral_contribution: float
    pair: bool
    slow: bool | None = None
    damping_class: str | None = None
    dominant_rank: int | None = None


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Modes as read-only numpy columns, one per ``ModeReport`` field; ``table[i]`` builds row i.

    ``slow`` is None for a single-window fit. ``damping_class`` (codes
    into ``DAMPING_CLASSES``) and ``dominant_rank`` (-1 for an unranked
    row) are None until :func:`classify`, whose table shares the other
    columns.
    """

    level: np.ndarray
    bin_index: np.ndarray
    eigenvalue: np.ndarray
    omega: np.ndarray
    frequency_hz: np.ndarray
    growth_rate: np.ndarray
    amplitude_mag: np.ndarray
    integral_contribution: np.ndarray
    pair: np.ndarray
    slow: np.ndarray | None = None
    damping_class: np.ndarray | None = None
    dominant_rank: np.ndarray | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) is not None:
                getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return self.level.size

    def __getitem__(self, i: int) -> ModeReport:
        i = range(len(self))[i]
        return self._rows(i, i + 1)[0]

    def __iter__(self) -> Iterator[ModeReport]:
        # rows are built 1024 at a time, each column converted by one tolist()
        return chain.from_iterable(self._rows(start, start + 1024) for start in range(0, len(self), 1024))

    def _rows(self, start: int, stop: int) -> list[ModeReport]:
        """Rows start..stop - 1 (fewer at the end of the table)."""
        rows = slice(start, stop)
        columns = [c[rows].tolist() for c in (self.level, self.bin_index, self.eigenvalue, self.omega,
                                               self.frequency_hz, self.growth_rate, self.amplitude_mag,
                                               self.integral_contribution, self.pair)]
        blank = [None] * len(columns[0])
        columns += [
            blank if self.slow is None else self.slow[rows].tolist(),
            blank if self.damping_class is None else
            [DAMPING_CLASSES[c] if c >= 0 else None for c in self.damping_class[rows].tolist()],
            blank if self.dominant_rank is None else [r if r >= 0 else None for r in self.dominant_rank[rows].tolist()],
        ]
        return list(map(ModeReport, *columns))


def _envelopes(mags: np.ndarray, horizon_steps: int) -> np.ndarray:
    """sum_{j=0..horizon-1} x^j = (x^horizon - 1) / (x - 1) for each magnitude x, in closed form.

    x^horizon - 1 = expm1(horizon * log1p(x - 1)) and x - 1 is exact near 1
    (Sterbenz), so the relative error stays about (3 + horizon |ln x|) eps
    as x -> 1. x = 1 gives horizon, and x = 0 (log1p(-1) = -inf) gives 1.
    """
    d = mags - 1.0
    flat = d == 0
    with np.errstate(divide="ignore"):
        out = np.expm1(horizon_steps * np.log1p(d)) / np.where(flat, 1.0, d)
    out[flat] = horizon_steps
    return out


def mode_table(fits: Sequence, f_sp: Sequence[float], horizon_steps: int, level: Sequence[int],
               bin_index: Sequence[int], slow_sets: Sequence[Collection[int]] | None = None) -> ModeTable:
    """The modes of ``fits`` (``DmdResult`` or ``mrdmd.BinFit``), fit after fit, as one table.

    ``f_sp``, ``level`` and ``bin_index`` give each fit's subsample rate and
    tags, and ``slow_sets`` the indices of each fit's slow modes (None when
    the fits were not screened). dmd() lists a conjugate pair as adjacent
    modes, positive-imaginary member first: mode k + 1 is k's partner
    exactly when k is in ``dmd.conjugate_pairs``. A pair is one
    ``pair=True`` row for mode k, slow when k is slow (conjugates have
    bit-identical |ln lambda|, so the screen takes both or neither). Each
    row's continuous eigenvalue is omega = f_sp * ln(lambda), with
    ``cmath.log`` (np.log can differ in the last bit). Modes with lambda = 0
    are omitted: they decay fully within one step and have no continuous
    image. The integral contribution takes ||Phi_k|| = 1, so no mode column
    is read. Magnitudes are ``np.hypot``, bit-equal to Python's abs (np.abs
    is not).
    """
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    f_sp = np.asarray(f_sp, dtype=float)
    if not np.all(f_sp > 0):
        raise ValueError("subsample frequency must be positive")
    sizes = np.array([fit.eigenvalues.size for fit in fits], dtype=int)
    lam = np.concatenate([np.empty(0, complex), *(fit.eigenvalues for fit in fits)])
    amplitudes = np.concatenate([np.empty(0, complex), *(fit.amplitudes for fit in fits)])
    starts = np.cumsum(sizes) - sizes
    first = np.zeros(lam.size, bool)
    first[conjugate_pairs(lam)] = True
    first[starts[1:] - 1] = False  # no pair spans two fits
    rows = np.flatnonzero((lam != 0) & ~np.concatenate([[False], first[:-1]]))
    slow = None
    if slow_sets is not None:
        slow = np.zeros(lam.size, bool)
        counts = [len(s) for s in slow_sets]
        slow[np.repeat(starts, counts) + np.fromiter(chain.from_iterable(slow_sets), int, sum(counts))] = True
        slow = slow[rows]
    lam = lam[rows]
    omega = np.repeat(f_sp, sizes)[rows] * np.array([cmath.log(z) for z in lam.tolist()], dtype=complex)
    b = amplitudes[rows]
    amplitude_mag = np.hypot(b.real, b.imag)
    return ModeTable(
        np.repeat(np.asarray(level, dtype=int), sizes)[rows], np.repeat(np.asarray(bin_index, dtype=int), sizes)[rows],
        lam, omega, np.abs(omega.imag) / (2.0 * math.pi), omega.real, amplitude_mag,
        amplitude_mag * _envelopes(np.hypot(lam.real, lam.imag), horizon_steps), first[rows], slow,
    )


def reports_from_dmd(result: DmdResult, f_sp: float, horizon_steps: int, level: int = 0, bin_index: int = 0,
                     slow_set: Collection[int] | None = None) -> ModeTable:
    """One fit's :func:`mode_table`; ``slow_set`` (None when not screened) indexes its slow modes."""
    return mode_table([result], [f_sp], horizon_steps, [level], [bin_index],
                      None if slow_set is None else [slow_set])


def classify(table: ModeTable, eps_crit: float = DEFAULT_EPS_CRIT) -> ModeTable:
    """Assign damping classes and dominance ranks; returns a new table sharing the other columns.

    The one place where ``eps_crit`` is applied: clusters and the verdict
    read the columns set here. Damping: growing if Re(omega) > eps_crit,
    critical if |Re(omega)| <= eps_crit, decaying otherwise. Ranks order
    retained oscillatory modes (slow is not False, frequency > 0) by
    descending integral contribution; ties break on ascending frequency,
    level, bin, then row order (one stable lexsort). Rank 1 is the
    strongest oscillatory mode, the dominant mode when no cluster is
    sustained.
    """
    if not eps_crit >= 0:
        raise ValueError(f"eps_crit must be non-negative, got {eps_crit!r}")
    growth = table.growth_rate
    code = DAMPING_CLASSES.index
    damping = np.select([growth > eps_crit, np.abs(growth) <= eps_crit],
                        [code(DAMPING_GROWING), code(DAMPING_CRITICAL)], code(DAMPING_DECAYING)).astype(np.int8)
    oscillatory = table.frequency_hz > 0
    rankable = np.flatnonzero(oscillatory if table.slow is None else oscillatory & table.slow)
    keys = (table.bin_index, table.level, table.frequency_hz, -table.integral_contribution)
    ranks = np.full(len(table), -1)
    ranks[rankable[np.lexsort([k[rankable] for k in keys])]] = np.arange(1, rankable.size + 1)
    return replace(table, damping_class=damping, dominant_rank=ranks)


@dataclass(frozen=True, eq=False)
class ModeCluster:
    """All instances of one physical mode at one level: rows ``indices`` of ``table``.

    A sustained mode shows up in every bin of the level where it is slow,
    so near-equal frequencies within a level are grouped and their
    contributions summed; isolated artifacts stay singleton clusters.
    """

    level: int
    table: ModeTable = field(repr=False)
    indices: np.ndarray
    aggregate_ic: float

    @property
    def best_index(self) -> int:
        """The member row with the largest integral contribution, the first of equals."""
        return int(self.indices[np.argmax(self.table.integral_contribution[self.indices])])

    @property
    def best(self) -> ModeReport:
        return self.table[self.best_index]

    @property
    def members(self) -> tuple[ModeReport, ...]:
        return tuple(map(self.table.__getitem__, self.indices.tolist()))

    @property
    def frequency_hz(self) -> float:
        return float(self.table.frequency_hz[self.best_index])


def cluster_sustained(table: ModeTable) -> list[ModeCluster]:
    """Group the sustained oscillatory modes of a :func:`classify` table into per-level frequency clusters.

    Candidates are the ranked (retained, oscillatory) rows that classify
    called critical. Sorted by (level, frequency, bin), neighbours within a
    level closer than max(0.5 Hz, 1%) merge, and a cluster's aggregate
    contribution is its members' sum, left to right. Clusters come back
    sorted by descending aggregate contribution, ties by (frequency, level)
    ascending.
    """
    if table.damping_class is None:
        raise ValueError("clusters read damping classes and ranks: pass the table through classify first")
    rows = np.flatnonzero((table.dominant_rank > 0) & (table.damping_class == DAMPING_CLASSES.index(DAMPING_CRITICAL)))
    rows = rows[np.lexsort((table.bin_index[rows], table.frequency_hz[rows], table.level[rows]))]
    level, freq = table.level[rows], table.frequency_hz[rows]
    splits = np.flatnonzero((level[1:] != level[:-1]) | (freq[1:] - freq[:-1] > np.maximum(0.5, 0.01 * freq[1:])))
    clusters = [
        ModeCluster(int(table.level[group[0]]), table, group, sum(table.integral_contribution[group].tolist()))
        for group in (np.split(rows, splits + 1) if rows.size else [])
    ]
    clusters.sort(key=lambda c: (-c.aggregate_ic, c.frequency_hz, c.level))
    return clusters


def dominant_cluster(table: ModeTable) -> ModeCluster | None:
    """The sustained-mode cluster of a :func:`classify` table with the largest aggregate contribution."""
    clusters = cluster_sustained(table)
    return clusters[0] if clusters else None
