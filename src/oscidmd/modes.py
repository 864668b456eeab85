"""Mode reporting: continuous eigenvalues, damping classes, dominance ranking.

A discrete eigenvalue lambda expressed at subsample frequency f_sp maps to
the continuous eigenvalue omega = f_sp * ln(lambda); Re(omega) is the
growth rate in 1/s and |Im(omega)| / 2pi the frequency in Hz. The integral
contribution of a mode accumulates its amplitude envelope over the
analysis horizon and drives the dominant-mode ranking.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dmd import DmdResult, conjugate_pairs

DAMPING_DECAYING = "decaying"
DAMPING_CRITICAL = "critical"
DAMPING_GROWING = "growing"

# Growth-rate band (1/s) treated as critically damped.
DEFAULT_EPS_CRIT = 0.5


@dataclass(frozen=True, slots=True)
class ModeReport:
    """One identified mode, conjugate pairs collapsed to a single row.

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


def integral_contribution(lam_k: complex, b_k: complex, horizon_steps: int) -> float:
    """Envelope importance |b_k| * sum_{j=1..horizon} |lambda_k|^(j-1) of a unit-norm mode.

    dmd()'s modes have ||Phi_k|| = 1, so the amplitude carries the mode's scale.
    """
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    return abs(b_k) * float(_envelopes(np.array([abs(lam_k)]), horizon_steps)[0])


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


def reports_from_dmd(
    result: DmdResult,
    f_sp: float,
    horizon_steps: int,
    level: int = 0,
    bin_index: int = 0,
    slow_set: set[int] | frozenset[int] | None = None,
) -> list[ModeReport]:
    """Collapse a decomposition into mode reports.

    dmd() lists a conjugate pair as adjacent modes, positive-imaginary member
    first: mode k + 1 is k's partner exactly when k is in
    ``dmd.conjugate_pairs``. A pair is one ``pair=True`` row for mode k,
    slow when k is in ``slow_set`` (conjugates have bit-identical |ln lambda|,
    so the screen takes both or neither). Each row's continuous eigenvalue
    is omega = f_sp * ln(lambda). Modes with lambda = 0 are omitted: they
    decay fully within one step and have no continuous image. The integral
    contribution takes ||Phi_k|| = 1, so no mode column is read.
    """
    if horizon_steps < 1:
        raise ValueError("horizon must be at least one step")
    if not f_sp > 0:
        raise ValueError("subsample frequency must be positive")
    lams = result.eigenvalues.tolist()
    # Python abs, as integral_contribution takes it: np.abs can differ in the last bit
    envelopes = _envelopes(np.array([abs(lam) for lam in lams]), horizon_steps).tolist()
    amplitude_mags = [abs(b) for b in result.amplitudes.tolist()]
    firsts = set(conjugate_pairs(result.eigenvalues).tolist())
    kept = [k for k, lam in enumerate(lams) if lam != 0 and k - 1 not in firsts]
    reports: list[ModeReport] = []
    for k in kept:
        lam = lams[k]
        omega = f_sp * cmath.log(lam)
        # positional: keywords cost a frozen dataclass about 1 us more per report
        reports.append(
            ModeReport(
                level,
                bin_index,
                lam,
                omega,
                abs(omega.imag) / (2.0 * math.pi),  # frequency_hz
                omega.real,  # growth_rate
                amplitude_mags[k],
                amplitude_mags[k] * envelopes[k],  # integral_contribution, ||Phi_k|| = 1
                k in firsts,  # pair
                None if slow_set is None else k in slow_set,  # slow
            )
        )
    return reports


def retained_oscillatory(r: ModeReport) -> bool:
    """Whether a mode can be ranked: retained by its bin's slow screen and oscillatory."""
    return r.slow is not False and r.frequency_hz > 0


def classify(
    reports: list[ModeReport], eps_crit: float = DEFAULT_EPS_CRIT
) -> list[ModeReport]:
    """Assign damping classes and dominance ranks; returns a new list.

    Damping: growing if Re(omega) > eps_crit, critical if |Re(omega)| <=
    eps_crit, decaying otherwise. Ranks order retained oscillatory modes
    (slow is not False, frequency > 0) by descending integral
    contribution; ties break on ascending frequency, level, then bin.
    """
    if not eps_crit >= 0:
        raise ValueError(f"eps_crit must be non-negative, got {eps_crit!r}")

    def damping(r: ModeReport) -> str:
        if r.growth_rate > eps_crit:
            return DAMPING_GROWING
        if abs(r.growth_rate) <= eps_crit:
            return DAMPING_CRITICAL
        return DAMPING_DECAYING

    rankable = [i for i, r in enumerate(reports) if retained_oscillatory(r)]
    rankable.sort(
        key=lambda i: (
            -reports[i].integral_contribution,
            reports[i].frequency_hz,
            reports[i].level,
            reports[i].bin_index,
        )
    )
    ranks = {i: rank for rank, i in enumerate(rankable, start=1)}
    return [
        ModeReport(r.level, r.bin_index, r.eigenvalue, r.omega, r.frequency_hz, r.growth_rate,
                   r.amplitude_mag, r.integral_contribution, r.pair, r.slow, damping(r), ranks.get(i))
        for i, r in enumerate(reports)
    ]


@dataclass(frozen=True)
class ModeCluster:
    """All instances of one physical mode at one level.

    A sustained mode shows up in every bin of the level where it is slow,
    so near-equal frequencies within a level are grouped and their
    contributions summed; isolated artifacts stay singleton clusters.
    """

    level: int
    members: tuple[ModeReport, ...]
    aggregate_ic: float

    @property
    def best(self) -> ModeReport:
        return max(self.members, key=lambda r: r.integral_contribution)

    @property
    def frequency_hz(self) -> float:
        return self.best.frequency_hz


def _adjacency_tol(freq: float) -> float:
    return max(0.5, 0.01 * freq)


def cluster_sustained(
    reports: list[ModeReport], eps_crit: float = DEFAULT_EPS_CRIT
) -> list[ModeCluster]:
    """Group sustained oscillatory modes into per-level frequency clusters.

    Candidates are retained (slow is not False), oscillatory and critically
    damped (|growth rate| <= eps_crit); within a level, neighbours closer
    than max(0.5 Hz, 1%) merge. Clusters come back sorted by descending
    aggregate contribution, ties by (frequency, level) ascending.
    """
    candidates = [r for r in reports if retained_oscillatory(r) and abs(r.growth_rate) <= eps_crit]
    candidates.sort(key=lambda r: (r.level, r.frequency_hz, r.bin_index))
    clusters: list[ModeCluster] = []
    group: list[ModeReport] = []
    for r in candidates:
        if group and (
            r.level != group[-1].level
            or r.frequency_hz - group[-1].frequency_hz > _adjacency_tol(r.frequency_hz)
        ):
            clusters.append(_make_cluster(group[-1].level, group))
            group = []
        group.append(r)
    if group:
        clusters.append(_make_cluster(group[-1].level, group))
    clusters.sort(key=lambda c: (-c.aggregate_ic, c.frequency_hz, c.level))
    return clusters


def _make_cluster(level: int, members: list[ModeReport]) -> ModeCluster:
    return ModeCluster(
        level=level,
        members=tuple(members),
        aggregate_ic=float(sum(r.integral_contribution for r in members)),
    )


def dominant_cluster(
    reports: list[ModeReport], eps_crit: float = DEFAULT_EPS_CRIT
) -> ModeCluster | None:
    """The sustained-mode cluster with the largest aggregate contribution."""
    clusters = cluster_sustained(reports, eps_crit)
    return clusters[0] if clusters else None


def strongest_oscillatory(reports: list[ModeReport]) -> ModeReport | None:
    """Highest-contribution retained oscillatory mode, any damping.

    Fallback estimate when no sustained mode exists, e.g. when a gap has
    corrupted the damping of everything a single-window fit found.
    """
    pool = [r for r in reports if retained_oscillatory(r)]
    if not pool:
        return None
    return max(pool, key=lambda r: (r.integral_contribution, -r.frequency_hz))
