"""Shared fixtures: the expensive flagship datasets are built once per session."""

from __future__ import annotations

import numpy as np
import pytest

import oscidmd as od
from oscidmd.mrdmd import _ROUNDING_FLOOR, DEFAULT_BIN_RULE, SlowModes, lineage_factor, subsample

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
    x1, x2 = od.shifted_pair(lfo_clean_embedded)
    result = od.dmd(x1, x2, od.DEFAULT_RULE)
    reports = od.classify(
        od.reports_from_dmd(result, f_sp=1.0 / rec.dt, horizon_steps=x1.shape[1])
    )
    return result, reports


@pytest.fixture(scope="session")
def lfo_gapped_dmd(lfo_gapped, lfo_gapped_embedded):
    rec, _ = lfo_gapped
    x1, x2 = od.shifted_pair(lfo_gapped_embedded)
    result = od.dmd(x1, x2, od.DEFAULT_RULE)
    reports = od.classify(
        od.reports_from_dmd(result, f_sp=1.0 / rec.dt, horizon_steps=x1.shape[1])
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
    ``SlowModes.of(refit, node.slow_set, node.col_span, result.plan.dt,
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
                    od.dmd(xsub[:, :-1], xsub[:, 1:], rule)
        else:
            fit = od.dmd(xsub[:, :-1], xsub[:, 1:], rule)
            assert np.array_equal(fit.eigenvalues, node.dmd.eigenvalues)
            assert np.array_equal(fit.amplitudes, node.dmd.amplitudes)
            slow = SlowModes.of(fit, node.slow_set, node.col_span, result.plan.dt, node.f_sp)
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
