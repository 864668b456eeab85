"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS|FAIL` line. Criterion runs are
timed fresh inside this module so the stated runtime budgets are measured,
not inherited from cached fixtures.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oscidmd as od
from oscidmd.cli import RunConfig, run_compare, run_dmd, run_mrdmd
from oscidmd.mrdmd import DEFAULT_BIN_RULE
from oscidmd.dmd import TruncationRule, reconstruct_window
from oracles import integral_contribution
from oscidmd.mrdmd import screen_slow
from oscidmd.stacking import unembed
from conftest import GAP_LENGTH, GAP_START, continuous_eigenvalue, refit_bins, series_metrics


def _verdict(cid: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def timed_lfo_mrdmd():
    """Criterion-3 pipeline, timed end to end (generation through ranking).

    The time is this process's CPU time, which other processes' load does
    not stretch as it does the wall clock.
    """
    t0 = time.process_time()
    rec, profile = od.generate_profile("lfo_udc", seed=0)
    gapped = od.inject_gap(rec, GAP_START, GAP_LENGTH)
    hankel = od.delay_embed(gapped, "u_dc", 1000)
    plan = od.plan(4000, rec.dt, mu=16, g=4)
    result = od.decompose(hankel[:, :4000], plan, DEFAULT_BIN_RULE)
    reports = od.classify(result.all_modes)
    series = unembed(result.total_reconstruction)
    elapsed = time.process_time() - t0
    return gapped, profile, result, reports, series, elapsed


@pytest.fixture(scope="module")
def timed_ac_mrdmd():
    """Criterion-4 pipeline, timed end to end in CPU time, as criterion 3."""
    t0 = time.process_time()
    rec, profile = od.generate_profile("ac_in", seed=0)
    hankel = od.delay_embed(rec, "i_ac", 1000)
    plan = od.plan(4000, rec.dt, mu=50, g=4, termination_level=6)
    result = od.decompose(hankel[:, :4000], plan, DEFAULT_BIN_RULE)
    reports = od.classify(result.all_modes)
    elapsed = time.process_time() - t0
    return rec, profile, result, reports, elapsed


def test_c1_parameter_plan_reproduction():
    od.plan(4000, 4e-4, mu=16, g=4)  # warm up interpreter paths
    t0 = time.perf_counter()
    plan16 = od.plan(4000, 4e-4, mu=16, g=4)
    elapsed = time.perf_counter() - t0
    plan50 = od.plan(4000, 4e-4, mu=50, g=4)

    ok = plan16.termination_level == 8
    ok &= plan16.rho == math.pi / 4
    for lv in plan16.per_level:
        ok &= lv.f_m == Fraction(5 * 2 ** (lv.level - 1))
        ok &= lv.f_slow_max == lv.f_m / 4
    ok &= [float(lv.f_m) for lv in plan16.per_level] == [5, 10, 20, 40, 80, 160, 320, 640]
    for lv in plan50.per_level:
        ok &= lv.f_m == Fraction(125, 8) * 2 ** (lv.level - 1)
    ok &= elapsed < 1e-3
    _verdict("C1 parameter-plan reproduction", ok, f"runtime {elapsed * 1e6:.0f} us")


def test_c2_dmd_oracle_recovery():
    t0 = time.perf_counter()
    rec = od.generate(
        [od.ModeSpec(8.6, 0.0, 1.0), od.ModeSpec(3.0, -2.0, 1.0)],
        dc=0.0, fs=2500.0, duration=2.0, noise_std=0.0,
    )
    hankel = od.delay_embed(rec, "signal", 200)
    x1, x2 = od.shifted_pair(hankel)
    result = od.dmd(x1, x2, od.DEFAULT_RULE)
    reports = od.reports_from_dmd(result, f_sp=1.0 / rec.dt, horizon_steps=x1.shape[1])
    elapsed = time.perf_counter() - t0

    ok = elapsed < 5.0
    details = []
    for f_true, s_true in [(8.6, 0.0), (3.0, -2.0)]:
        best = min(reports, key=lambda r: abs(r.frequency_hz - f_true))
        freq_ok = abs(best.frequency_hz - f_true) <= 1e-3 * f_true
        growth_ok = abs(best.growth_rate - s_true) <= max(0.01 * abs(s_true), 0.05)
        ok &= freq_ok and growth_ok
        details.append(f"f={best.frequency_hz:.6f} sigma={best.growth_rate:.6f}")
    _verdict("C2 DMD oracle recovery", ok, "; ".join(details) + f"; {elapsed:.2f} s")


def test_c3_mrdmd_lfo_surrogate(timed_lfo_mrdmd):
    gapped, _, _, reports, series, elapsed = timed_lfo_mrdmd
    cluster = od.dominant_cluster(reports)
    ok = cluster is not None
    detail = "no dominant mode"
    if ok:
        ok &= cluster.level == 4
        ok &= abs(cluster.best.frequency_hz - 8.6) <= 0.2
        rmse, rms = series_metrics(gapped, "u_dc", series)
        ok &= rmse <= 0.05 * rms
        ok &= elapsed < 30.0
        detail = (
            f"level {cluster.level}, f={cluster.best.frequency_hz:.4f} Hz, "
            f"rmse/rms={rmse / rms:.4f}, {elapsed:.1f} CPU s"
        )
    _verdict("C3 MR-DMD LFO surrogate", ok, detail)


def test_c4_mrdmd_ac_surrogate(timed_ac_mrdmd):
    _, _, _, reports, elapsed = timed_ac_mrdmd
    lvl5 = [r for r in reports if r.level == 5 and r.slow]
    ok = elapsed < 30.0
    details = []
    for target in (50.0, 41.4, 58.6):
        hits = [r for r in lvl5 if abs(r.frequency_hz - target) <= 0.5]
        ok &= bool(hits)
        details.append(f"{target}:{len(hits)}")

    # sideband dominance among the level's sustained modes: both sideband
    # groups outrank every non-fundamental, non-sideband mode
    sustained5 = [r for r in lvl5 if r.frequency_hz > 0 and abs(r.growth_rate) <= od.DEFAULT_EPS_CRIT]
    def group_max(lo, hi):
        vals = [r.integral_contribution for r in sustained5 if lo <= r.frequency_hz <= hi]
        return max(vals, default=0.0)
    ic_414 = group_max(41.4 - 0.5, 41.4 + 0.5)
    ic_586 = group_max(58.6 - 0.5, 58.6 + 0.5)
    others = [
        r.integral_contribution
        for r in sustained5
        if abs(r.frequency_hz - 50.0) > 0.5
        and abs(r.frequency_hz - 41.4) > 0.5
        and abs(r.frequency_hz - 58.6) > 0.5
    ]
    ic_other = max(others, default=0.0)
    ok &= ic_414 > ic_other and ic_586 > ic_other
    details.append(f"IC 41.4={ic_414:.0f} 58.6={ic_586:.0f} other={ic_other:.0f}")
    _verdict("C4 MR-DMD AC surrogate", ok, "; ".join(details) + f"; {elapsed:.1f} CPU s")


def test_c5_robustness_comparison(timed_lfo_mrdmd):
    gapped, profile, _, mr_reports, mr_series, _ = timed_lfo_mrdmd
    truth = profile.dominant_truth()

    hankel = od.delay_embed(gapped, "u_dc", 1000)
    x1, x2 = od.shifted_pair(hankel)
    result = od.dmd(x1, x2, od.DEFAULT_RULE)
    dmd_reports = od.classify(
        od.reports_from_dmd(result, f_sp=1.0 / gapped.dt, horizon_steps=x1.shape[1])
    )
    dmd_series = unembed(reconstruct_window(result, hankel.shape[1]).real)

    def dominant_estimate(reports):
        cluster = od.dominant_cluster(reports)
        return cluster.best if cluster is not None else od.strongest_oscillatory(reports)

    mr_best = dominant_estimate(mr_reports)
    dmd_best = dominant_estimate(dmd_reports)
    mr_err = abs(mr_best.growth_rate - truth.growth_rate)
    dmd_err = abs(dmd_best.growth_rate - truth.growth_rate)
    mr_rmse, _ = series_metrics(gapped, "u_dc", mr_series)
    dmd_rmse, _ = series_metrics(gapped, "u_dc", dmd_series)

    ok = mr_err < dmd_err
    ok &= dmd_rmse >= 2.0 * mr_rmse
    _verdict(
        "C5 robustness comparison",
        ok,
        f"growth err mrdmd={mr_err:.4f} dmd={dmd_err:.4f}; "
        f"rmse mrdmd={mr_rmse:.3f} dmd={dmd_rmse:.3f} (x{dmd_rmse / mr_rmse:.2f})",
    )


class TestC6PropertySuites:
    def test_c6_conjugate_closure(self):
        rng = np.random.default_rng(101)
        ok = True
        for _ in range(120):
            m = int(rng.integers(3, 8))
            n = int(rng.integers(m + 8, 50))
            x = rng.normal(size=(m, n))
            result = od.dmd(x[:, :-1], x[:, 1:], TruncationRule.fixed(m))
            lam, phi, b = result.eigenvalues, result.modes, result.amplitudes
            scale_b = max(1.0, float(np.max(np.abs(b))))
            for k in range(lam.size):
                if lam[k].imag == 0:
                    continue
                diffs = np.abs(lam - np.conj(lam[k]))
                j = int(np.argmin(diffs))
                ok &= diffs[j] <= 1e-9 * (1.0 + abs(lam[k]))
                ok &= np.linalg.norm(phi[:, j] - np.conj(phi[:, k])) <= 1e-9 * np.linalg.norm(phi[:, k])
                ok &= abs(b[j] - np.conj(b[k])) <= 1e-9 * scale_b
            if not ok:
                break
        _verdict("C6.1 conjugate closure (120 cases)", ok)

    def test_c6_hankel_structure(self):
        rng = np.random.default_rng(102)
        ok = True
        for _ in range(120):
            length = int(rng.integers(4, 200))
            depth = int(rng.integers(1, length - 1))
            values = rng.normal(size=length)
            rec = od.SignalRecord(
                names=("x",), data=values[None, :],
                missing_mask=np.zeros((1, length), dtype=bool), dt=1.0,
            )
            hankel = od.delay_embed(rec, "x", depth)
            m, n = hankel.shape
            ok &= m + n - 1 == length
            i = rng.integers(0, m, size=10)
            j = rng.integers(0, n, size=10)
            ok &= bool(np.all(hankel[i, j] == values[i + j]))
            if not ok:
                break
        _verdict("C6.2 Hankel structure (120 cases)", ok)

    def test_c6_screening_brute_force(self):
        rng = np.random.default_rng(103)
        ok = True
        for _ in range(150):
            count = int(rng.integers(0, 12))
            radius = rng.uniform(0.0, 2.0, size=count)
            theta = rng.uniform(-np.pi, np.pi, size=count)
            lam = radius * np.exp(1j * theta)
            if count and rng.random() < 0.3:
                lam[rng.integers(0, count)] = 0.0
            rho = float(rng.uniform(0.05, 3.0))
            fake = od.DmdResult(
                coefficients=np.eye(max(count, 1), count, dtype=complex),
                eigenvalues=lam.astype(complex),
                amplitudes=np.ones(count, dtype=complex),
                rank=count,
                singular_values=np.ones(count), rank_clamped=False,
            )
            got = set(screen_slow(fake, rho))
            want = {k for k, v in enumerate(lam) if v != 0 and abs(cmath.log(v)) < rho}
            ok &= got == want
            if not ok:
                break
        _verdict("C6.3 screening brute-force equality (150 cases)", ok)

    def test_c6_per_level_additivity(self):
        rng = np.random.default_rng(104)
        ok = True
        for trial in range(100):
            modes = [
                od.ModeSpec(float(rng.uniform(0.5, 12.0)), float(rng.uniform(-1.0, 0.1)),
                            float(rng.uniform(0.2, 2.0)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            rec = od.generate(modes, dc=float(rng.uniform(-2, 2)), fs=32.0, duration=8.3,
                              noise_std=0.02, seed=trial)
            hankel = od.delay_embed(rec, "signal", 6)
            width = int(rng.integers(180, hankel.shape[1]))
            plan = od.plan(width, rec.dt, mu=8, g=4)
            rule = TruncationRule.energy(0.999)
            res = od.decompose(hankel[:, :width], plan, rule)
            # each level's layer, from its bins' refit blocks at their spans
            layers = np.zeros((plan.termination_level, *res.data.shape))
            placed = np.zeros(res.data.shape)
            for node, _, _, slow in refit_bins(res, hankel[:, :width], rule):
                start, stop = node.col_span
                block = slow.at(np.arange(start, stop))
                layers[node.level - 1][:, start:stop] += block
                placed[:, start:stop] += block
            total = np.zeros(res.data.shape)
            for layer in layers:
                total += layer
            ok &= np.array_equal(total, res.total_reconstruction)
            pairs = [(res.series, res.total_reconstruction), *zip(res.per_level_series, layers)]
            for series, dense in pairs:
                want = unembed(dense)
                ok &= np.max(np.abs(series - want)) <= 1e-12 * np.max(np.abs(want))
            ok &= np.allclose(placed, total, rtol=0, atol=1e-12)
            if not ok:
                break
        _verdict("C6.4 per-level additivity (100 cases)", ok)

    def test_c6_eigenvalue_map_round_trip(self):
        rng = np.random.default_rng(105)
        ok = True
        for _ in range(120):
            f_sp = float(rng.uniform(5.0, 5000.0))
            growth = float(rng.uniform(-0.4, 0.4)) * f_sp
            freq = float(rng.uniform(0.0, 0.45)) * f_sp
            omega = complex(growth, 2 * np.pi * freq)
            if abs(omega.imag) / f_sp >= np.pi:
                continue
            back = continuous_eigenvalue(cmath.exp(omega / f_sp), f_sp)
            ok &= abs(back - omega) <= 1e-9 * max(1.0, abs(omega))
            if not ok:
                break
        _verdict("C6.5 eigenvalue-map round trip (120 cases)", ok)

    def test_c6_ic_gauge_invariance(self):
        rng = np.random.default_rng(106)
        ok = True
        for _ in range(120):
            dim = int(rng.integers(1, 20))
            phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            lam = complex(rng.uniform(0.2, 1.2) * cmath.exp(1j * rng.uniform(-3, 3)))
            b = complex(rng.normal() + 1j * rng.normal())
            c = complex(rng.uniform(1e-3, 1e3) * cmath.exp(1j * rng.uniform(-np.pi, np.pi)))
            horizon = int(rng.integers(1, 60))
            # IC is defined on unit-norm modes: normalized, every gauge scores the same
            base = integral_contribution(lam, np.linalg.norm(phi) * b, horizon)
            gauged = integral_contribution(lam, np.linalg.norm(c * phi) * (b / c), horizon)
            ok &= abs(gauged - base) <= 1e-9 * max(base, 1e-30)
            if not ok:
                break
        _verdict("C6.6 IC gauge invariance (120 cases)", ok)

    def test_c6_golden_file_stability(self, tmp_path):
        ok = True
        configs = [
            ("mrdmd", run_mrdmd, dict(profile="lfo_udc", seed=3, stack_depth=200,
                                      gap_start=1000, gap_length=250, mu=16, g="4")),
            ("dmd", run_dmd, dict(profile="lfo_udc", seed=3, stack_depth=200)),
            ("compare", run_compare, dict(profile="lfo_udc", seed=3, stack_depth=200,
                                          gap_start=1000, gap_length=250)),
        ]
        for name, runner, kwargs in configs:
            dirs = []
            for attempt in range(2):
                out = tmp_path / f"{name}_{attempt}"
                cfg = RunConfig(out_dir=out, **kwargs)
                assert runner(cfg) == 0
                dirs.append(out)
            first = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
            second = {p.name: p.read_bytes() for p in dirs[1].iterdir()}
            ok &= first.keys() == second.keys()
            ok &= all(first[k] == second[k] for k in first)
            if not ok:
                break
        _verdict("C6.7 golden-file byte stability", ok)
