"""Eigenvalue mapping, integral contribution, classification and clustering."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscidmd as od
import oracles
from conftest import continuous_eigenvalue, one_mode_reports, refit_bins
from oracles import integral_contribution, retained_oscillatory, table_of
from oscidmd.modes import (
    DAMPING_CRITICAL,
    DAMPING_DECAYING,
    DAMPING_GROWING,
    ModeReport,
    _envelopes,
)


def make_report(level=1, bin_index=0, freq=5.0, growth=0.0, ic=1.0, slow=True, amp=1.0):
    omega = complex(growth, 2 * np.pi * freq)
    return ModeReport(
        level=level,
        bin_index=bin_index,
        eigenvalue=cmath.exp(omega / 100.0),
        omega=omega,
        frequency_hz=freq,
        growth_rate=growth,
        amplitude_mag=amp,
        integral_contribution=ic,
        pair=freq > 0,
        slow=slow,
    )


class TestContinuousEigenvalue:
    """The map omega = f_sp * ln(lambda), as the mode reports apply it."""

    def test_dc_maps_to_zero(self):
        assert continuous_eigenvalue(1.0 + 0j, 123.0) == 0.0

    def test_round_trip_identity(self):
        f_sp = 80.0
        omega = complex(-3.0, 2 * np.pi * 8.6)
        lam = cmath.exp(omega / f_sp)
        back = continuous_eigenvalue(lam, f_sp)
        assert abs(back - omega) <= 1e-12 * abs(omega)

    def test_zero_eigenvalue_not_reported(self):
        assert one_mode_reports(0.0, 10.0) == []

    def test_level4_mode_frequency(self, lfo_gapped_mrdmd):
        _, reports = lfo_gapped_mrdmd
        cluster = od.dominant_cluster(reports)
        assert cluster.level == 4
        assert cluster.best.frequency_hz == pytest.approx(8.6, abs=0.05)

    @settings(max_examples=120, deadline=None)
    @given(
        growth=st.floats(min_value=-50.0, max_value=50.0),
        freq=st.floats(min_value=-40.0, max_value=40.0),
        f_sp=st.floats(min_value=90.0, max_value=5000.0),
    )
    def test_round_trip_inside_principal_branch(self, growth, freq, f_sp):
        omega = complex(growth, 2 * np.pi * freq)
        assert abs(omega.imag) / f_sp < np.pi
        back = continuous_eigenvalue(cmath.exp(omega / f_sp), f_sp)
        assert abs(back - omega) <= 1e-9 * max(1.0, abs(omega))


class TestIntegralContribution:
    def test_unexcited_mode_is_zero(self):
        assert integral_contribution(0.9 + 0.1j, 0.0, 16) == 0.0

    def test_neutral_mode_closed_form(self):
        lam = cmath.exp(0.4j)
        assert integral_contribution(lam, 2.5, 20) == pytest.approx(2.5 * 20, rel=1e-12)

    def test_dominant_ranking_matches_generator(self, lfo_gapped_mrdmd):
        # mirrors the integral-contribution chart: the planted 8.6 Hz mode
        # dominates every other sustained cluster
        _, reports = lfo_gapped_mrdmd
        clusters = od.cluster_sustained(reports)
        assert clusters[0].best.frequency_hz == pytest.approx(8.6, abs=0.2)
        assert clusters[0].aggregate_ic > 2.0 * (clusters[1].aggregate_ic if len(clusters) > 1 else 0.0)

    def test_conjugate_pair_equal_ic(self):
        lam, b = 0.97 * cmath.exp(0.31j), 1.3 - 0.4j
        assert integral_contribution(lam, b, 16) == integral_contribution(lam.conjugate(), b.conjugate(), 16)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ValueError):
            integral_contribution(1.0, 1.0, 0)

    @settings(max_examples=120, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        phase=st.floats(min_value=-np.pi, max_value=np.pi),
    )
    def test_gauge_invariance(self, scale, phase):
        """A mode normalized to unit norm (phi, b) -> (phi / ||phi||, ||phi|| b) scores the same in any gauge."""
        rng = np.random.default_rng(17)
        phi = rng.normal(size=5) + 1j * rng.normal(size=5)
        lam, b = 0.99 * cmath.exp(0.2j), 0.7 + 0.2j
        c = scale * cmath.exp(1j * phase)
        base = integral_contribution(lam, np.linalg.norm(phi) * b, 12)
        gauged = integral_contribution(lam, np.linalg.norm(c * phi) * (b / c), 12)
        assert gauged == pytest.approx(base, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        mag=st.sampled_from([0.0, 1.0, 1 - 2**-52, 1 + 2**-52, 1 - 1e-9, 1 + 1e-9, 0.5, 2.0])
        | st.floats(0.0, 1.5),
        horizon=st.integers(1, 4000),
    )
    def test_envelope_closed_form_matches_the_sum(self, mag, horizon):
        """(x^h - 1) / (x - 1) by expm1/log1p is the exactly summed sum_{j<h} x^j to (4 + 2 h |ln x|) eps.

        The reference sums Python's powers (each within an ulp) with fsum,
        so it errs by about 1 eps. The closed form's log1p, product, expm1
        and quotient each add an eps or so, and expm1(y) passes the
        relative error of y = h ln x on multiplied by at most
        |y| e^y / |e^y - 1| <= 1 + |y|.
        """
        if horizon * math.log(max(mag, 1.0)) > 700:  # the sum overflows
            return
        want = math.fsum(mag**j for j in range(horizon))
        got = float(_envelopes(np.array([mag]), horizon)[0])
        ln = abs(math.log(mag)) if mag > 0 else 0.0
        assert abs(got - want) <= (4 + 2 * horizon * ln) * np.finfo(float).eps * want


class TestClassify:
    def test_reports_keep_no_instance_dict(self, ac_mrdmd):
        """Rows are slotted: a table builds one per row read (iteration here)."""
        *_, reports = ac_mrdmd
        assert not any(hasattr(r, "__dict__") for r in reports)

    def test_damping_classes(self):
        reports = [
            make_report(freq=3.0, growth=-50.0),
            make_report(freq=4.0, growth=0.0),
            make_report(freq=5.0, growth=2.0),
            make_report(freq=6.0, growth=0.5),
            make_report(freq=7.0, growth=-0.5),
        ]
        out = od.classify(table_of(reports), eps_crit=0.5)
        assert [r.damping_class for r in out] == [
            DAMPING_DECAYING,
            DAMPING_CRITICAL,
            DAMPING_GROWING,
            DAMPING_CRITICAL,
            DAMPING_CRITICAL,
        ]

    def test_rank_by_descending_ic(self):
        reports = [
            make_report(freq=3.0, ic=10.0),
            make_report(freq=9.0, ic=30.0),
            make_report(freq=6.0, ic=20.0),
        ]
        out = od.classify(table_of(reports))
        assert [r.dominant_rank for r in out] == [3, 1, 2]

    def test_zero_frequency_unranked(self):
        out = od.classify(table_of([make_report(freq=0.0, ic=1e9), make_report(freq=5.0, ic=1.0)]))
        assert out[0].dominant_rank is None
        assert out[1].dominant_rank == 1

    def test_screened_out_modes_unranked(self):
        out = od.classify(table_of([make_report(freq=5.0, ic=10.0, slow=False), make_report(freq=6.0, ic=1.0)]))
        assert out[0].dominant_rank is None
        assert out[1].dominant_rank == 1

    def test_tie_break_frequency_then_level(self):
        reports = [
            make_report(level=2, freq=9.0, ic=5.0),
            make_report(level=1, bin_index=3, freq=4.0, ic=5.0),
            make_report(level=1, freq=4.0, ic=5.0),
            make_report(level=1, freq=9.0, ic=5.0),
        ]
        out = od.classify(table_of(reports))
        assert [r.dominant_rank for r in out] == [4, 2, 1, 3]

    def test_sideband_pair_outranks_other_modes(self):
        reports = [
            make_report(level=5, freq=41.4, growth=0.01, ic=300.0),
            make_report(level=5, freq=58.6, growth=-0.02, ic=280.0),
            make_report(level=5, freq=50.0, growth=0.0, ic=900.0),
            make_report(level=5, freq=23.0, growth=-4.0, ic=400.0),
            make_report(level=3, freq=12.0, growth=0.1, ic=50.0),
        ]
        clusters = od.cluster_sustained(od.classify(table_of(reports)))
        non_fund = [c for c in clusters if abs(c.frequency_hz - 50.0) > 0.5]
        assert non_fund[0].frequency_hz == pytest.approx(41.4)
        assert non_fund[1].frequency_hz == pytest.approx(58.6)

    def test_returns_new_table(self):
        reports = table_of([make_report()])
        out = od.classify(reports)
        assert out is not reports
        assert reports[0].damping_class is None and out[0].damping_class == DAMPING_CRITICAL

    @pytest.mark.parametrize("eps_crit", [-0.1, float("nan")])
    def test_negative_or_nan_band_rejected(self, eps_crit):
        with pytest.raises(ValueError, match="eps_crit"):
            od.classify(table_of([make_report()]), eps_crit=eps_crit)


class TestReportsFromDmd:
    @pytest.mark.parametrize("f_sp", [0.0, -80.0, float("nan")])
    def test_subsample_frequency_not_positive_rejected(self, f_sp):
        with pytest.raises(ValueError, match="subsample frequency must be positive"):
            one_mode_reports(0.9 + 0.1j, f_sp)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be at least one step"):
            one_mode_reports(0.9 + 0.1j, 80.0, horizon)

    def test_conjugate_pairs_collapse_with_nonnegative_frequency(self, lfo_clean_dmd):
        result, reports = lfo_clean_dmd
        assert all(r.frequency_hz >= 0 for r in reports)
        n_complex = int(np.sum(np.iscomplex(result.eigenvalues)))
        n_pairs = sum(1 for r in reports if r.pair)
        assert n_complex == 2 * n_pairs

    def test_nyquist_bound(self, lfo_gapped_mrdmd):
        result, reports = lfo_gapped_mrdmd
        by_level = {lv.level: float(lv.f_m) for lv in result.plan.per_level}
        for r in reports:
            # nominal per-level ceiling, loosened for the extreme bin widths
            # of uneven splits
            assert r.frequency_hz <= by_level[r.level] * 1.05 + 1e-9

    def test_pair_rows_report_the_positive_imaginary_member(self, lfo_gapped_mrdmd):
        _, reports = lfo_gapped_mrdmd
        pairs = [r for r in reports if r.pair]
        assert len(pairs) > 100
        assert all(r.eigenvalue.imag > 0 and r.omega.imag > 0 for r in pairs)

    def test_pairs_are_read_by_adjacency(self):
        lam = cmath.exp(complex(-0.1, 0.5))
        eigenvalues = [lam, lam.conjugate(), 0.5, 0.5, 0.9 * lam, 0.2, 0.9 * lam.conjugate(), 0.0]
        r = len(eigenvalues)
        fit = od.DmdResult(
            coefficients=np.eye(r, dtype=complex),
            eigenvalues=np.array(eigenvalues),
            amplitudes=np.ones(r, dtype=complex),
            rank=r,
            singular_values=np.ones(r),
            rank_clamped=False,
        )
        reports = od.reports_from_dmd(fit, f_sp=10.0, horizon_steps=4, slow_set={0, 1, 4})
        got = [(r.eigenvalue, r.pair, r.slow) for r in reports]
        # a repeated real eigenvalue is no pair, and a conjugate that is not
        # next to its partner leaves both members unpaired
        assert got == [
            (lam, True, True),
            (0.5, False, False),
            (0.5, False, False),
            (0.9 * lam, False, True),
            (0.2, False, False),
            (0.9 * lam.conjugate(), False, False),
        ]

    def test_slow_flag_matches_screen(self, lfo_gapped_mrdmd):
        result, reports = lfo_gapped_mrdmd
        rho = result.plan.rho
        for r in reports:
            expected = abs(cmath.log(r.eigenvalue)) < rho if r.eigenvalue != 0 else False
            assert r.slow == expected


    def test_ic_equals_integral_contribution_bit_for_bit(
        self, lfo_gapped_mrdmd, lfo_gapped_embedded, lfo_gapped_dmd
    ):
        """The per-bin envelope array gives every report the scalar formula's IC."""
        res, _ = lfo_gapped_mrdmd
        bins = refit_bins(res, lfo_gapped_embedded[:, :4000])
        fits = itertools.chain(((fit, res.plan.mu) for _, _, fit, _ in bins), [(lfo_gapped_dmd[0], 4000)])
        checked = 0
        for fit, horizon in fits:
            first = {}
            for k, lam in enumerate(fit.eigenvalues):
                first.setdefault(complex(lam), k)
            for r in od.reports_from_dmd(fit, f_sp=100.0, horizon_steps=horizon):
                k = first[r.eigenvalue]
                want = integral_contribution(complex(fit.eigenvalues[k]), complex(fit.amplitudes[k]), horizon)
                assert r.integral_contribution == want
                checked += 1
        assert checked > 1000


class TestClusters:
    def test_cluster_merges_same_mode_across_bins(self, lfo_gapped_mrdmd):
        _, reports = lfo_gapped_mrdmd
        top = od.dominant_cluster(reports)
        assert top.level == 4
        assert len(top.members) >= 5
        freqs = [m.frequency_hz for m in top.members]
        assert max(freqs) - min(freqs) < 0.5

    def test_groups_match_a_per_level_pass(self):
        """Clusters equal grouping each level's candidates alone, sorted by (frequency, bin)."""
        rng = np.random.default_rng(3)
        reports = od.classify(table_of([
            make_report(
                level=int(rng.integers(1, 5)),
                bin_index=int(rng.integers(0, 8)),
                freq=float(rng.choice([0.0, 0.2, 0.9, 1.3, 5.0, 5.4, 5.9, 60.0, 60.5, 61.3])),
                growth=float(rng.uniform(-1.0, 1.0)),
                ic=float(rng.choice([1.0, 2.0, 3.0])),
                slow=bool(rng.random() < 0.9),
            )
            for _ in range(400)
        ]))
        candidates = [r for r in reports if retained_oscillatory(r) and abs(r.growth_rate) <= 0.5]
        want = []
        for level in sorted({r.level for r in candidates}):
            group = []
            level_candidates = [r for r in candidates if r.level == level]
            for r in sorted(level_candidates, key=lambda r: (r.frequency_hz, r.bin_index)):
                if group and r.frequency_hz - group[-1].frequency_hz > max(0.5, 0.01 * r.frequency_hz):
                    want.append((level, tuple(group)))
                    group = []
                group.append(r)
            want.append((level, tuple(group)))
        want.sort(key=lambda c: (
            -sum(r.integral_contribution for r in c[1]),
            max(c[1], key=lambda r: r.integral_contribution).frequency_hz,
            c[0],
        ))
        got = od.cluster_sustained(reports)
        assert len(got) > 10
        assert [(c.level, c.members) for c in got] == want

    def test_strongest_oscillatory_fallback(self):
        reports = od.classify(table_of([make_report(freq=4.0, growth=-9.0, ic=7.0)]))
        assert od.dominant_cluster(reports) is None
        fb = od.strongest_oscillatory(reports)
        assert fb is not None and fb.frequency_hz == 4.0

    def test_empty_reports(self):
        assert od.dominant_cluster(table_of([])) is None
        assert od.strongest_oscillatory(table_of([])) is None


def assert_bits(got: np.ndarray, want: list) -> None:
    want = np.array(want, dtype=got.dtype)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def per_row_oracle(name: str):
    """(classified table, oracle rows classified per row) of one CLI analysis."""
    from oscidmd.cli import RunConfig, _analyze_dmd_core, _analyze_mrdmd_core, _load_record

    gap = dict(gap_start=2000, gap_length=250)
    cfg = {
        "lfo_gap_mrdmd": RunConfig(profile="lfo_udc", mu=16, **gap),
        "ac_hold_mrdmd": RunConfig(profile="ac_in", stack_depth=200, mu=50, fill_policy="hold", **gap),
        "lfo_gap_dmd": RunConfig(profile="lfo_udc", **gap),
    }[name]
    cfg.validate()
    record, _ = _load_record(cfg)
    if name.endswith("_dmd"):
        table, _, fit, depth = _analyze_dmd_core(cfg, record)
        rows = oracles.reports_from_dmd(fit, 1.0 / record.dt, record.length - depth)
    else:
        table, _, result, mrdmd_plan, _ = _analyze_mrdmd_core(cfg, record)
        nodes, stack = [], [result.root]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].children)
        rows = [
            r
            for node in sorted(nodes, key=lambda node: (node.level, node.bin_index))
            if node.dmd is not None
            for r in oracles.reports_from_dmd(node.dmd, node.f_sp, mrdmd_plan.mu, node.level, node.bin_index,
                                              set(node.slow_set))
        ]
    return table, oracles.classify(rows, cfg.eps_crit)


@pytest.fixture(scope="module", params=["lfo_gap_mrdmd", "ac_hold_mrdmd", "lfo_gap_dmd"])
def table_and_oracle(request):
    return per_row_oracle(request.param)


class TestTableMatchesPerRowOracle:
    """The columnar table, ranks and clusters equal the per-row reference bit for bit."""

    def test_every_column(self, table_and_oracle):
        table, rows = table_and_oracle
        assert len(table) == len(rows) > 100
        for name in ("level", "bin_index", "eigenvalue", "omega", "frequency_hz", "growth_rate",
                     "amplitude_mag", "integral_contribution", "pair"):
            assert_bits(getattr(table, name), [getattr(r, name) for r in rows])
        if rows[0].slow is None:
            assert table.slow is None
        else:
            assert_bits(table.slow, [r.slow for r in rows])
            assert 0 < np.count_nonzero(table.slow) < len(table)
        assert list(table) == rows

    def test_damping_classes_and_ranks(self, table_and_oracle):
        table, rows = table_and_oracle
        assert [od.modes.DAMPING_CLASSES[c] for c in table.damping_class.tolist()] == [r.damping_class for r in rows]
        assert [None if k < 0 else k for k in table.dominant_rank.tolist()] == [r.dominant_rank for r in rows]
        assert np.count_nonzero(table.dominant_rank > 0) > 10

    def test_clusters(self, table_and_oracle):
        table, rows = table_and_oracle
        got, want = od.cluster_sustained(table), oracles.cluster_sustained(rows)
        assert [(c.level, c.members) for c in got] == [(c.level, c.members) for c in want]
        assert_bits(np.array([c.aggregate_ic for c in got]), [c.aggregate_ic for c in want])
        assert [c.best for c in got] == [c.best for c in want]
        assert od.strongest_oscillatory(table) == max(
            (r for r in rows if oracles.retained_oscillatory(r)), key=lambda r: (r.integral_contribution, -r.frequency_hz)
        )
