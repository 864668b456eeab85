"""Shared fixtures: the expensive flagship datasets are built once per session."""

from __future__ import annotations

import numpy as np
import pytest

import oscidmd as od
from oscidmd.dmd import ModeFactor
from oscidmd.mrdmd import _ROUNDING_FLOOR, DEFAULT_BIN_RULE, lineage_factor, subsample

GAP_START = 2000
GAP_LENGTH = 250  # 0.1 s at 2500 Hz


@pytest.fixture(scope="session")
def lfo_clean():
    rec, profile = od.generate_profile("lfo_udc", seed=0)
    return rec, profile


@pytest.fixture(scope="session")
def lfo_gapped(lfo_clean):
    rec, profile = lfo_clean
    return od.inject_gap(rec, GAP_START, GAP_LENGTH), profile


@pytest.fixture(scope="session")
def lfo_clean_embedded(lfo_clean):
    rec, _ = lfo_clean
    return od.delay_embed(rec, "u_dc", 1000)


@pytest.fixture(scope="session")
def lfo_gapped_embedded(lfo_gapped):
    rec, _ = lfo_gapped
    return od.delay_embed(rec, "u_dc", 1000)


@pytest.fixture(scope="session")
def lfo_clean_dmd(lfo_clean, lfo_clean_embedded):
    rec, _ = lfo_clean
    result = od.dmd(lfo_clean_embedded, od.DEFAULT_RULE)
    reports = od.classify(
        od.reports_from_dmd(result, f_sp=1.0 / rec.dt, horizon_steps=lfo_clean_embedded.shape[1] - 1)
    )
    return result, reports


@pytest.fixture(scope="session")
def lfo_gapped_dmd(lfo_gapped, lfo_gapped_embedded):
    rec, _ = lfo_gapped
    result = od.dmd(lfo_gapped_embedded, od.DEFAULT_RULE)
    reports = od.classify(
        od.reports_from_dmd(result, f_sp=1.0 / rec.dt, horizon_steps=lfo_gapped_embedded.shape[1] - 1)
    )
    return result, reports


@pytest.fixture(scope="session")
def lfo_gapped_mrdmd(lfo_gapped, lfo_gapped_embedded):
    rec, _ = lfo_gapped
    mrdmd_plan = od.plan(4000, rec.dt, mu=16, g=4)
    result = od.decompose(lfo_gapped_embedded[:, :4000], mrdmd_plan, DEFAULT_BIN_RULE)
    reports = od.classify(result.all_modes)
    return result, reports


@pytest.fixture(scope="session")
def ac_mrdmd():
    rec, profile = od.generate_profile("ac_in", seed=0)
    hankel = od.delay_embed(rec, "i_ac", 1000)
    mrdmd_plan = od.plan(4000, rec.dt, mu=50, g=4, termination_level=6)
    result = od.decompose(hankel[:, :4000], mrdmd_plan, DEFAULT_BIN_RULE)
    reports = od.classify(result.all_modes)
    return rec, profile, result, reports


def refit_bins(result, data, rule=DEFAULT_BIN_RULE):
    """Yield (node, bin input, refit, slow modes) for every fitted bin of a decomposition, root first.

    A bin's input is ``data[:, cols]`` at its subsample columns
    ``cols = subsample(node.col_span, mu)`` less the lineage factor it
    received at ``cols``, as ``decompose`` forms it. Each bin's slow modes
    are built here from its own refit,
    ``ModeFactor.of(refit, node.slow_set, node.col_span, result.plan.dt,
    node.f_sp)``, and a bin with slow modes passes
    ``lineage_factor(received, slow)`` to its halves, so the lineage is
    independent of the decomposition's. The refit must reproduce the node's
    eigenvalues and amplitudes bit for bit, and a zero-signal bin must have
    no signal energy left, or none above the rounding floor.
    """

    def walk(node, lineage):
        cols = subsample(node.col_span, result.plan.mu)
        xsub = data[:, cols]
        floor = _ROUNDING_FLOOR * np.linalg.norm(xsub)
        if lineage is not None:
            xsub -= lineage.at(cols)
        if node.dmd is None:
            if np.linalg.norm(xsub) > floor:
                with pytest.raises(od.ZeroSignalError):
                    od.dmd(xsub, rule)
        else:
            fit = od.dmd(xsub, rule)
            assert np.array_equal(fit.eigenvalues, node.dmd.eigenvalues)
            assert np.array_equal(fit.amplitudes, node.dmd.amplitudes)
            slow = ModeFactor.of(fit, node.slow_set, node.col_span, result.plan.dt, node.f_sp)
            yield node, xsub, fit, slow
            if node.slow_set:
                lineage = lineage_factor(lineage, slow)
        for child in node.children:
            yield from walk(child, lineage)

    yield from walk(result.root, None)


def one_mode_reports(lam: complex, f_sp: float, horizon_steps: int = 1) -> list:
    """The rows of ``reports_from_dmd`` of a one-mode fit with eigenvalue ``lam`` (unit mode and amplitude)."""
    fit = od.DmdResult(
        coefficients=np.ones((1, 1), dtype=complex),
        eigenvalues=np.array([lam], dtype=complex),
        amplitudes=np.ones(1, dtype=complex),
        rank=1,
        singular_values=np.ones(1),
        rank_clamped=False,
    )
    return list(od.reports_from_dmd(fit, f_sp, horizon_steps))


def rank_one(table):
    """The row classify ranked 1, the strongest oscillatory mode; None when no row is ranked."""
    top = np.flatnonzero(table.dominant_rank == 1)
    return table[int(top[0])] if top.size else None


def continuous_eigenvalue(lam: complex, f_sp: float) -> complex:
    """The continuous eigenvalue omega that a mode report gives a discrete eigenvalue ``lam``."""
    (report,) = one_mode_reports(lam, f_sp)
    return report.omega


def series_metrics(record, channel: str, series: np.ndarray) -> tuple[float, float]:
    """(rmse, signal_rms) over covered, non-missing samples."""
    raw = record.channel(channel)
    mask = record.channel_mask(channel)
    cover = min(series.size, raw.size)
    ok = ~mask[:cover]
    err = series[:cover][ok] - raw[:cover][ok]
    return float(np.sqrt(np.mean(err**2))), float(np.sqrt(np.mean(raw[:cover][ok] ** 2)))


# Records with no sustained oscillation (ROADMAP item 11): 2 s at 2500 Hz, seed 1, no gap.
# name -> (planted modes, dc, noise_std); `sustained-oscillation` is always the wrong verdict.
NEGATIVE_RECORDS = {
    "decaying 8.6 Hz": ([od.ModeSpec(8.6, -3.0, 6.0)], 170.0, 0.05),
    "growing 8.6 Hz": ([od.ModeSpec(8.6, 2.0, 1.0)], 170.0, 0.05),
    "decaying 50 Hz": ([od.ModeSpec(50.0, -5.0, 10.0)], 0.0, 0.05),
    "DC only, noise-free": ([], 170.0, 0.0),
}
# each oscillating record again without noise
NEGATIVE_RECORDS.update({
    f"{name}, noise-free": (modes, dc, 0.0) for name, (modes, dc, noise) in list(NEGATIVE_RECORDS.items()) if modes
})


def negative_record(name: str):
    """The ``NEGATIVE_RECORDS`` entry ``name`` as a one-channel record named ``u_dc``."""
    modes, dc, noise = NEGATIVE_RECORDS[name]
    return od.generate(modes, dc=dc, fs=2500.0, duration=2.0, noise_std=noise, seed=1, channel="u_dc")
