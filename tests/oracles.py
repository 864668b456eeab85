"""Per-row mode reporting: the reference that the columnar ``ModeTable`` is checked against.

Each function builds, ranks or groups ``ModeReport`` rows one at a time,
in plain Python arithmetic, as the library did before its mode tables
became numpy columns. ``table_of`` turns rows into a ``ModeTable``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from oscidmd.dmd import conjugate_pairs
from oscidmd.modes import (
    DAMPING_CLASSES,
    DAMPING_CRITICAL,
    DAMPING_DECAYING,
    DAMPING_GROWING,
    DEFAULT_EPS_CRIT,
    ModeReport,
    ModeTable,
    _envelopes,
)


def integral_contribution(lam_k: complex, b_k: complex, horizon_steps: int) -> float:
    """Envelope importance |b_k| * sum_{j=1..horizon} |lambda_k|^(j-1) of a unit-norm mode.

    dmd()'s modes have ||Phi_k|| = 1, so the amplitude carries the mode's scale.
    """
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    return abs(b_k) * float(_envelopes(np.array([abs(lam_k)]), horizon_steps)[0])


def table_of(rows) -> ModeTable:
    """The table of ``rows``: slow is None when every row's is, and a None slow flag is False.

    A None damping class or rank is -1, which the table reads back as None.
    """
    rows = list(rows)
    slow = [r.slow for r in rows]
    return ModeTable(
        np.array([r.level for r in rows], dtype=int),
        np.array([r.bin_index for r in rows], dtype=int),
        np.array([r.eigenvalue for r in rows], dtype=complex),
        np.array([r.omega for r in rows], dtype=complex),
        np.array([r.frequency_hz for r in rows], dtype=float),
        np.array([r.growth_rate for r in rows], dtype=float),
        np.array([r.amplitude_mag for r in rows], dtype=float),
        np.array([r.integral_contribution for r in rows], dtype=float),
        np.array([r.pair for r in rows], dtype=bool),
        None if all(s is None for s in slow) else np.array([bool(s) for s in slow]),
        np.array([-1 if r.damping_class is None else DAMPING_CLASSES.index(r.damping_class) for r in rows],
                 dtype=np.int8),
        np.array([-1 if r.dominant_rank is None else r.dominant_rank for r in rows], dtype=int),
    )


def reports_from_dmd(result, f_sp, horizon_steps, level=0, bin_index=0, slow_set=None) -> list[ModeReport]:
    """One fit's mode rows, each with Python's cmath.log and abs."""
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    if not f_sp > 0:
        raise ValueError("subsample frequency must be positive")
    lams = result.eigenvalues.tolist()
    envelopes = _envelopes(np.array([abs(lam) for lam in lams]), horizon_steps).tolist()
    amplitude_mags = [abs(b) for b in result.amplitudes.tolist()]
    firsts = set(conjugate_pairs(result.eigenvalues).tolist())
    reports = []
    for k, lam in enumerate(lams):
        if lam == 0 or k - 1 in firsts:
            continue
        omega = f_sp * cmath.log(lam)
        reports.append(ModeReport(
            level, bin_index, lam, omega, abs(omega.imag) / (2.0 * math.pi), omega.real,
            amplitude_mags[k], amplitude_mags[k] * envelopes[k], k in firsts,
            None if slow_set is None else k in slow_set,
        ))
    return reports


def retained_oscillatory(r: ModeReport) -> bool:
    return r.slow is not False and r.frequency_hz > 0


def classify(reports: list[ModeReport], eps_crit: float = DEFAULT_EPS_CRIT) -> list[ModeReport]:
    """Damping classes, and ranks by (-IC, frequency, level, bin) with Python's stable sort."""

    def damping(r: ModeReport) -> str:
        if r.growth_rate > eps_crit:
            return DAMPING_GROWING
        if abs(r.growth_rate) <= eps_crit:
            return DAMPING_CRITICAL
        return DAMPING_DECAYING

    rankable = [i for i, r in enumerate(reports) if retained_oscillatory(r)]
    rankable.sort(key=lambda i: (-reports[i].integral_contribution, reports[i].frequency_hz,
                                 reports[i].level, reports[i].bin_index))
    ranks = {i: rank for rank, i in enumerate(rankable, start=1)}
    return [
        ModeReport(r.level, r.bin_index, r.eigenvalue, r.omega, r.frequency_hz, r.growth_rate,
                   r.amplitude_mag, r.integral_contribution, r.pair, r.slow, damping(r), ranks.get(i))
        for i, r in enumerate(reports)
    ]


@dataclass(frozen=True)
class Cluster:
    level: int
    members: tuple[ModeReport, ...]
    aggregate_ic: float

    @property
    def best(self) -> ModeReport:
        return max(self.members, key=lambda r: r.integral_contribution)


def cluster_sustained(reports: list[ModeReport], eps_crit: float = DEFAULT_EPS_CRIT) -> list[Cluster]:
    """Groups of critically damped retained oscillatory rows, merged one neighbour at a time."""
    candidates = [r for r in reports if retained_oscillatory(r) and abs(r.growth_rate) <= eps_crit]
    candidates.sort(key=lambda r: (r.level, r.frequency_hz, r.bin_index))
    groups: list[list[ModeReport]] = []
    for r in candidates:
        if not groups or r.level != groups[-1][-1].level or (
            r.frequency_hz - groups[-1][-1].frequency_hz > max(0.5, 0.01 * r.frequency_hz)
        ):
            groups.append([])
        groups[-1].append(r)
    clusters = [Cluster(g[-1].level, tuple(g), float(sum(r.integral_contribution for r in g))) for g in groups]
    clusters.sort(key=lambda c: (-c.aggregate_ic, c.best.frequency_hz, c.level))
    return clusters
