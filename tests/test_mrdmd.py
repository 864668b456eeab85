"""Planner arithmetic, subsampling, screening, slow reconstruction, recursion."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscidmd as od
import oscidmd.mrdmd as mrdmd_module
from conftest import refit_bins
from oscidmd.mrdmd import DEFAULT_BIN_RULE
from oscidmd.dmd import _TILE, ModeFactor, TruncationRule, _fast_length, conjugate_pairs
from oscidmd.mrdmd import (
    PlanError,
    _walk,
    lineage_factor,
    screen_slow,
    slow_reconstruction,
    subsample,
)
from oscidmd.stacking import antidiagonal_sums


class TestPlan:
    def test_dc_case_plan_values_exact(self):
        plan = od.plan(4000, 4e-4, mu=16, g=4)
        assert plan.termination_level == 8
        assert plan.rho == math.pi / 4
        assert plan.window_duration == Fraction(8, 5)
        for lv in plan.per_level:
            assert lv.bins == 2 ** (lv.level - 1)
            assert lv.f_m == Fraction(5 * 2 ** (lv.level - 1))
            assert lv.f_slow_max == lv.f_m / 4
            assert lv.f_sp == 2 * lv.f_m
            assert lv.bin_duration == lv.bin_size * plan.dt_exact

    def test_ac_case_plan_values_exact(self):
        plan = od.plan(4000, 4e-4, mu=50, g=4)
        for lv in plan.per_level:
            assert lv.f_m == Fraction(125, 8) * 2 ** (lv.level - 1)
        # the strict bin-size criterion permits 7 levels; the AC analysis
        # profile overrides down to 6
        assert plan.termination_level == 7
        assert od.plan(4000, 4e-4, mu=50, g=4, termination_level=6).termination_level == 6

    def test_termination_boundary(self):
        assert od.plan(4, 1.0, mu=2, g=2).termination_level == 1

    def test_binding_of_bin_size_criterion(self):
        # 4000 / 2^7 = 31.25 > 16 while 4000 / 2^8 = 15.625 <= 16
        assert 4000 // 2**7 > 16
        assert 4000 // 2**8 <= 16
        assert od.plan(4000, 4e-4, mu=16, g=4).termination_level == 8

    def test_mu_too_large_rejected(self):
        with pytest.raises(PlanError, match="cannot subsample level 1"):
            od.plan(4000, 4e-4, mu=5000, g=4)

    def test_override_violating_criterion_rejected(self):
        with pytest.raises(PlanError, match="bin-size criterion"):
            od.plan(4000, 4e-4, mu=16, g=4, termination_level=9)
        with pytest.raises(PlanError):
            od.plan(4000, 4e-4, mu=16, g=4, termination_level=0)

    def test_g_must_exceed_one(self):
        with pytest.raises(PlanError):
            od.plan(100, 0.1, mu=4, g=1)
        with pytest.raises(PlanError):
            od.plan(100, 0.1, mu=4, g="2/3")

    def test_mu_below_two_rejected(self):
        with pytest.raises(PlanError, match="mu must be at least 2"):
            od.plan(4000, 4e-4, mu=1, g=4)

    def test_g_must_be_a_finite_rational(self):
        with pytest.raises(PlanError, match="g must be finite"):
            od.plan(4000, 4e-4, mu=16, g=float("inf"))
        with pytest.raises(PlanError, match="g must be rational, got complex"):
            od.plan(4000, 4e-4, mu=16, g=4 + 0j)

    @pytest.mark.parametrize("g, dt", [("1e400", 4e-4), (4, 5e-324), (4, 1e308)])
    def test_plan_beyond_the_float_range_rejected(self, g, dt):
        # rho = pi / g, the window n * dt or the last level's f_sp would not be a float
        with pytest.raises(PlanError, match="beyond the float range"):
            od.plan(4000, dt, mu=16, g=g)

    def test_float_dt_snaps_only_within_one_part_per_million(self):
        assert od.plan(4000, 4e-4).dt_exact == Fraction(1, 2500)
        # the nearest ratio with a denominator of at most 10^9 is 1e-9 (+43 %) and 0
        for dt in (7e-10, 1e-300):
            plan = od.plan(4000, dt)
            assert plan.dt_exact == Fraction(dt)
            assert float(plan.window_duration) == 4000 * dt

    def test_g_accepts_rational_strings(self):
        plan = od.plan(100, 0.1, mu=4, g="8/3")
        assert plan.g == Fraction(8, 3)
        assert plan.rho == pytest.approx(math.pi * 3 / 8, rel=1e-15)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=20000),
        mu=st.integers(min_value=2, max_value=64),
        num=st.integers(min_value=5, max_value=40),
    )
    def test_level_doubling_exact(self, n, mu, num):
        if mu >= n:
            return
        plan = od.plan(n, Fraction(num, 10000), mu=mu, g=Fraction(7, 2))
        for a, b in zip(plan.per_level, plan.per_level[1:]):
            assert b.f_m == 2 * a.f_m
            assert b.f_sp == 2 * a.f_sp
            assert b.bins == 2 * a.bins
        # every level obeys the bin-size criterion with integer floors, and the next one would not
        for lv in plan.per_level:
            assert n // lv.bins > mu
        assert n // 2**plan.termination_level <= mu
        with pytest.raises(PlanError, match=f"max feasible L={plan.termination_level}"):
            od.plan(n, Fraction(num, 10000), mu=mu, g=Fraction(7, 2), termination_level=plan.termination_level + 1)


class TestSubsample:
    def test_stride_500_over_16(self):
        idx = subsample((0, 500), 16)
        want = [round(Fraction(i * 500, 16)) for i in range(16)]
        assert list(idx) == want
        assert np.all(np.diff(idx) > 0)
        assert idx[0] == 0 and idx[-1] < 500

    def test_identity_when_span_equals_mu(self):
        assert list(subsample((10, 18), 8)) == list(range(10, 18))

    def test_mu_two_first_and_middle(self):
        assert list(subsample((0, 500), 2)) == [0, 250]

    def test_short_span_rejected(self):
        with pytest.raises(ValueError, match="shorter than mu"):
            subsample((0, 5), 6)

    def test_mu_zero_rejected(self):
        with pytest.raises(ValueError, match="mu must be positive"):
            subsample((0, 10), 0)

    @settings(max_examples=120, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=1000),
        length=st.integers(min_value=2, max_value=4000),
        mu=st.integers(min_value=2, max_value=64),
    )
    def test_formula_monotone_and_in_range(self, start, length, mu):
        if length < mu:
            return
        idx = subsample((start, start + length), mu)
        assert len(idx) == mu
        assert idx[0] == start
        assert np.all(np.diff(idx) >= 1)
        assert idx[-1] < start + length
        for i, v in enumerate(idx):
            assert v == start + round(Fraction(i * length, mu))

    @settings(max_examples=120, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=10**6),
        half=st.integers(min_value=1, max_value=64),
        odd=st.integers(min_value=1, max_value=200),
    )
    def test_exact_half_ties_round_to_even(self, start, half, odd):
        # mu = 2h and length = h * (2q + 1): every odd i lands on exactly .5
        mu, length = 2 * half, half * (2 * odd + 1)
        idx = subsample((start, start + length), mu)
        want = [start + round(Fraction(i * length, mu)) for i in range(mu)]
        assert [int(v) for v in idx] == want
        assert Fraction(length, mu).denominator == 2


def fake_result(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=complex)
    r = lam.size
    return od.DmdResult(
        coefficients=np.eye(max(r, 1), r, dtype=complex),
        eigenvalues=lam,
        amplitudes=np.ones(r, dtype=complex),
        rank=r,
        singular_values=np.ones(r),
        rank_clamped=False,
    )


class TestScreenSlow:
    def test_dc_is_always_slow(self):
        assert list(screen_slow(fake_result([1.0]), math.pi / 4)) == [0]

    def test_boundary_is_strict(self):
        lam = cmath.exp(1j * math.pi / 4)
        assert list(screen_slow(fake_result([lam]), math.pi / 4)) == []

    def test_zero_eigenvalue_excluded_without_error(self):
        assert list(screen_slow(fake_result([0.0, 1.0]), 0.5)) == [1]

    def test_level4_mode_at_8p6_hz_is_slow(self):
        # level 4 of the mu=16 plan on the 1.6 s window: f_sp = 80 Hz
        plan = od.plan(4000, 4e-4, mu=16, g=4)
        f_sp = float(plan.per_level[3].f_sp)
        lam = cmath.exp(2j * math.pi * 8.6 / f_sp)
        assert list(screen_slow(fake_result([lam]), plan.rho)) == [0]
        # but not slow at levels 1..3
        for level in (1, 2, 3):
            f = float(plan.per_level[level - 1].f_sp)
            lam_l = cmath.exp(2j * math.pi * 8.6 / f)
            assert list(screen_slow(fake_result([lam_l]), plan.rho)) == []

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=-np.pi, max_value=np.pi),
            ),
            min_size=0,
            max_size=12,
        ),
        rho=st.floats(min_value=0.05, max_value=3.0),
    )
    def test_brute_force_equality(self, data, rho):
        lam = np.array([r * cmath.exp(1j * t) for r, t in data], dtype=complex)
        got = set(screen_slow(fake_result(lam), rho))
        want = {k for k, v in enumerate(lam) if v != 0 and abs(cmath.log(v)) < rho}
        assert got == want

    def test_takes_both_members_of_a_pair_or_neither(self, lfo_gapped_mrdmd):
        result, _ = lfo_gapped_mrdmd
        slow_pairs = 0
        stack = [result.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.dmd is None:
                continue
            lam = node.dmd.eigenvalues
            slow = set(screen_slow(node.dmd, result.plan.rho).tolist())
            for k in np.flatnonzero(lam.imag > 0):
                assert lam[k + 1] == np.conj(lam[k])
                assert (k in slow) == (k + 1 in slow)
                slow_pairs += k in slow
        assert slow_pairs > 0


class TestSlowReconstruction:
    def test_empty_slow_set_gives_zeros(self):
        res = fake_result([0.5, 0.9])
        out = slow_reconstruction(res, np.array([], dtype=int), (0, 7), 0.1, 10.0)
        assert out.shape == (2, 7)
        assert np.all(out == 0.0)

    def test_dc_hold(self):
        res = fake_result([1.0])
        out = slow_reconstruction(res, [0], (0, 9), 0.01, 100.0)
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)

    def test_planted_mode_matches_generator_within_1pct(self):
        rec = od.generate([od.ModeSpec(8.6, 0.0, 1.0)], dc=0.0, fs=2500, duration=2.0)
        hankel = od.delay_embed(rec, "signal", 1000)
        plan = od.plan(4000, rec.dt, mu=16, g=4)
        block = np.array(hankel[:, :500])  # one level-4 bin
        idx = subsample((0, 500), 16)
        f_sp = 16 / (500 * rec.dt)
        fit = od.dmd(block[:, idx], DEFAULT_BIN_RULE)
        slow = screen_slow(fit, plan.rho)
        recon = slow_reconstruction(fit, slow, (0, 500), rec.dt, f_sp)
        rel = np.sqrt(np.mean((recon - block) ** 2)) / np.sqrt(np.mean(block**2))
        assert rel < 0.01

    def test_span_offset_only_sets_width(self):
        res = fake_result([0.95 * cmath.exp(0.2j), 0.95 * cmath.exp(-0.2j)])
        a = slow_reconstruction(res, [0, 1], (0, 12), 0.05, 10.0)
        b = slow_reconstruction(res, [0, 1], (100, 112), 0.05, 10.0)
        assert np.array_equal(a, b)


def random_fit(rows, eigenvalues, seed):
    """A fit with random complex mode shapes and amplitudes.

    As dmd() writes them, the second member of a conjugate pair has the
    exact conjugate of its first member's mode; the amplitudes are not
    conjugate.
    """
    rng = np.random.default_rng(seed)
    r = len(eigenvalues)
    fit = fake_result(eigenvalues)
    modes = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
    pair = conjugate_pairs(fit.eigenvalues)
    modes[:, pair + 1] = modes[:, pair].conj()
    return replace(fit, coefficients=modes, amplitudes=rng.normal(size=r) + 1j * rng.normal(size=r))


EIGENVALUE_CASES = {
    "decaying": [0.9 * cmath.exp(0.3j), 0.9 * cmath.exp(-0.3j), 0.5],
    "growing": [1.2 * cmath.exp(0.7j), 1.2 * cmath.exp(-0.7j), 1.05],
    "dc": [1.0],
    "mixed": [1.0, 0.97 * cmath.exp(1.1j), 0.97 * cmath.exp(-1.1j), 1.1 * cmath.exp(0.05j), 0.2],
}


class TestSlowModesAntidiagonalSums:
    @pytest.mark.parametrize("case", sorted(EIGENVALUE_CASES))
    @pytest.mark.parametrize(
        "rows,width",
        [(1, 1), (1, 9), (9, 1), (7, 3), (3, 7), (64, 5), (5, 64), (33, 1000), (1000, 33),
         (13, 97), (97, 13), (200, 4951), (1000, 2000)],
    )
    def test_matches_dense_reconstruction(self, case, rows, width):
        lam = EIGENVALUE_CASES[case]
        fit = random_fit(rows, lam, seed=rows * 7919 + width)
        slow = np.arange(len(lam))
        dt, f_sp = 1e-3, 1000.0 / 16
        span = (40, 40 + width)
        want = antidiagonal_sums(slow_reconstruction(fit, slow, span, dt, f_sp))
        got = ModeFactor.of(fit, slow, span, dt, f_sp).antidiagonal_sums()
        assert got.shape == (rows + width - 1,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_empty_slow_set_gives_zeros(self):
        fit = random_fit(6, [0.5, 0.9], seed=1)
        got = ModeFactor.of(fit, (), (0, 11), 0.1, 10.0).antidiagonal_sums()
        assert got.shape == (16,)
        assert np.all(got == 0.0)

    def test_fast_length_is_smallest_5_smooth_bound(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in range(1, 3000):
            size = _fast_length(n)
            assert size >= n and smooth(size)
            assert not any(smooth(k) for k in range(n, size))


class TestSlowModesReadOnly:
    def test_arrays_reject_writes(self):
        fit = random_fit(4, EIGENVALUE_CASES["mixed"], seed=3)
        slow = ModeFactor.of(fit, [0, 1, 2], (0, 9), 0.01, 100.0)
        for arr in (slow.modes, slow.amplitudes, slow.omega):
            with pytest.raises(ValueError):
                arr[0] = 0


def received_lineages(res, data, rule=DEFAULT_BIN_RULE) -> dict:
    """(level, bin_index) -> (node, the lineage factor it subtracts, its refit slow modes).

    The factor is None at the root and the slow modes None for a
    zero-signal bin. The factor is built from ``refit_bins``' slow modes as
    the walk builds it: a bin with slow modes passes
    ``lineage_factor(received, slow)`` to its halves.
    """
    slows = {(node.level, node.bin_index): slow for node, _, _, slow in refit_bins(res, data, rule)}
    received = {}

    def walk(node, lineage):
        slow = slows.get((node.level, node.bin_index))
        received[node.level, node.bin_index] = node, lineage, slow
        if node.slow_set:
            lineage = lineage_factor(lineage, slow)
        for child in node.children:
            walk(child, lineage)

    walk(res.root, None)
    return received


class TestFoldedPairs:
    @staticmethod
    def check_pairs(fit):
        """Every non-real eigenvalue is in an adjacent pair with exactly conjugate eigenvalues and modes."""
        lam = fit.eigenvalues
        first = np.flatnonzero(lam.imag > 0)
        assert np.array_equal(np.flatnonzero(lam.imag != 0), np.sort(np.concatenate([first, first + 1])))
        assert np.array_equal(lam[first + 1], lam[first].conj())
        assert np.array_equal(fit.modes[:, first + 1], fit.modes[:, first].conj())
        norms = np.linalg.norm(fit.modes, axis=0)
        assert np.array_equal(norms[first + 1], norms[first])
        return first.size

    @staticmethod
    def check_fold(fit, idx, span, dt, f_sp):
        """Folded and two-member forms agree on columns and anti-diagonal sums."""
        folded = ModeFactor.of(fit, idx, span, dt, f_sp)
        unfolded = ModeFactor(
            span, fit.modes[:, idx], fit.amplitudes[idx], f_sp * np.log(fit.eigenvalues[idx]), dt
        )
        pairs = int(np.sum(fit.eigenvalues[idx].imag > 0))
        assert folded.modes.shape[1] == idx.size - pairs
        cols = np.arange(*span)
        for got, want in (
            (folded.at(cols), unfolded.at(cols)),
            (folded.antidiagonal_sums(), unfolded.antidiagonal_sums()),
        ):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        return pairs

    def test_every_bin_fit_folds_exactly(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        res, _ = lfo_gapped_mrdmd
        pairs = folded = 0
        for node, _, fit, _ in refit_bins(res, lfo_gapped_embedded[:, :4000]):
            pairs += self.check_pairs(fit)
            if node.slow_set:
                idx = np.array(node.slow_set)
                folded += self.check_fold(fit, idx, node.col_span, res.plan.dt, node.f_sp)
        assert pairs > 1000 and folded > 0

    def test_single_window_fit_folds_exactly(self, lfo_gapped, lfo_gapped_dmd):
        rec, _ = lfo_gapped
        fit, _ = lfo_gapped_dmd
        assert self.check_pairs(fit) > 0
        idx = np.flatnonzero(fit.eigenvalues != 0)
        assert self.check_fold(fit, idx, (0, 500), rec.dt, 1.0 / rec.dt) > 0

    @pytest.mark.parametrize("case", ["decaying", "growing"])
    def test_pair_folds_whatever_its_amplitudes(self, case):
        """A pair folds into b + conj(b') when b' is not conj(b), and evaluates as both members do."""
        fit = random_fit(5, EIGENVALUE_CASES[case], seed=4)
        idx = np.arange(fit.eigenvalues.size)
        pair = conjugate_pairs(fit.eigenvalues)
        assert np.all(fit.amplitudes[pair + 1] != fit.amplitudes[pair].conj())
        slow = ModeFactor.of(fit, idx, (0, 9), 0.01, 100.0)
        kept = np.delete(idx, pair + 1)
        want = fit.amplitudes[kept]
        want[np.searchsorted(kept, pair)] += fit.amplitudes[pair + 1].conj()
        assert np.array_equal(slow.amplitudes, want)
        assert self.check_fold(fit, idx, (0, 9), 0.01, 100.0) == pair.size


class TestSlowAtTiles:
    def test_whole_tile_columns_skip_the_tail_bit_for_bit(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        """Columns that all lie in whole tiles need not evaluate the bin's last tile."""
        res, _ = lfo_gapped_mrdmd
        checked = 0
        for node, _, _, slow in refit_bins(res, lfo_gapped_embedded[:, :4000]):
            if not node.slow_set:
                continue
            start, stop = node.col_span
            tail = (stop - start) - (stop - start) % _TILE
            for child in node.children:
                for grandchild in child.children or (child,):
                    cols = subsample(grandchild.col_span, res.plan.mu)
                    head = cols[cols < start + tail]
                    pad = -head.size % _TILE
                    padded = slow.at(
                        np.concatenate([head, np.full(pad, start), np.arange(start + tail, stop)])
                    )[:, : head.size]
                    assert np.array_equal(slow.at(head), padded)
                    checked += 1
        assert checked > 100

    def test_any_columns_match_the_full_width_product(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        res, _ = lfo_gapped_mrdmd
        rng = np.random.default_rng(7)
        for node, _, _, slow in refit_bins(res, lfo_gapped_embedded[:, :4000]):
            if not node.slow_set or node.level > 5:
                continue
            start, stop = node.col_span
            full = slow.at(np.arange(start, stop))
            for size in (1, 7, 16, 23):
                cols = np.sort(rng.choice(np.arange(start, stop), size=size, replace=False))
                assert np.array_equal(slow.at(cols), full[:, cols - start])
            # the bin's last, partial tile only
            cols = np.arange(stop - 3, stop)
            assert np.array_equal(slow.at(cols), full[:, cols - start])

    def test_lineage_columns_match_the_full_span_product(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        """A bin's one lineage product equals those columns of the factor's full-span product."""
        res, _ = lfo_gapped_mrdmd
        received = received_lineages(res, lfo_gapped_embedded[:, :4000])
        most = 0
        for node, lineage, _ in received.values():
            if lineage is None:
                continue
            ancestors = [received[level, node.bin_index >> (node.level - level)][0]
                         for level in range(1, node.level)]
            most = max(most, sum(bool(a.slow_set) for a in ancestors))
            cols = subsample(node.col_span, res.plan.mu)
            full = lineage.at(np.arange(*lineage.col_span))
            start, stop = node.col_span
            origin = lineage.col_span[0]
            assert np.array_equal(lineage.at(cols), full[:, cols - origin])
            assert np.array_equal(lineage.at(np.arange(start, stop)), full[:, start - origin : stop - origin])
        assert most == res.plan.termination_level - 1


def level_energies(res, data) -> np.ndarray:
    """Energy of each level's slow reconstruction, summed over its bins' refit blocks at their spans."""
    energy = np.zeros(res.plan.termination_level)
    for node, _, _, slow in refit_bins(res, data):
        start, stop = node.col_span
        energy[node.level - 1] += np.sum(slow.at(np.arange(start, stop)) ** 2)
    return energy


class TestDecompose:
    def test_pure_dc_captured_at_level_one(self):
        rec = od.generate([], dc=3.5, fs=2500, duration=2.0)
        hankel = od.delay_embed(rec, "signal", 1000)
        plan = od.plan(4000, rec.dt, mu=16, g=4)
        res = od.decompose(hankel[:, :4000], plan, DEFAULT_BIN_RULE)
        total_energy = np.sum(hankel[:, :4000] ** 2)
        residual = hankel[:, :4000] - res.total_reconstruction
        assert np.sum(residual**2) <= 1e-8 * total_energy
        for energy in level_energies(res, hankel[:, :4000])[1:]:
            assert energy <= 1e-8 * total_energy

    def test_dc_plus_lfo_captured_at_level_four(self):
        rec = od.generate([od.ModeSpec(8.6, 0.0, 6.0)], dc=170.0, fs=2500, duration=2.0)
        hankel = od.delay_embed(rec, "signal", 1000)
        plan = od.plan(4000, rec.dt, mu=16, g=4)
        res = od.decompose(hankel[:, :4000], plan, DEFAULT_BIN_RULE)
        osc_energy = np.sum((hankel[:, :4000] - 170.0) ** 2)
        energy = level_energies(res, hankel[:, :4000])
        for level in (2, 3):
            assert energy[level - 1] <= 1e-8 * osc_energy
        assert energy[3] >= 0.98 * osc_energy
        cluster = od.dominant_cluster(od.classify(res.all_modes))
        assert cluster.level == 4
        assert cluster.best.frequency_hz == pytest.approx(8.6, abs=0.05)

    def test_all_zero_input_yields_empty_decomposition(self):
        plan = od.plan(64, 0.5, mu=4, g=4)
        res = od.decompose(np.zeros((3, 64)), plan)
        assert len(res.all_modes) == 0
        assert np.all(res.total_reconstruction == 0.0)
        assert res.root.dmd is None

    def test_column_count_must_match_plan(self):
        plan = od.plan(64, 0.5, mu=4, g=4)
        with pytest.raises(ValueError, match="plan expects"):
            od.decompose(np.zeros((3, 60)), plan)

    def test_one_dimensional_data_rejected(self):
        plan = od.plan(64, 0.5, mu=4, g=4)
        with pytest.raises(ValueError, match="must be 2-D"):
            od.decompose(np.zeros(64), plan)

    def test_integer_input_is_kept_as_a_read_only_float_copy(self):
        rec = od.generate([od.ModeSpec(3.0, 0.0, 1.0)], dc=1.0, fs=64.0, duration=8.0, noise_std=0.05, seed=5)
        counts = np.round(100 * rec.data[0]).astype(np.int64)
        # the Hankel matrix of the integer series, a read-only view of it
        data = np.lib.stride_tricks.sliding_window_view(counts, 8).T[:, :504]
        plan = od.plan(504, rec.dt, mu=8, g=4)
        rule = TruncationRule.energy(0.999)
        res = od.decompose(data, plan, rule)
        assert res.data.dtype == np.float64
        assert not res.data.flags.writeable
        assert not np.shares_memory(res.data, counts)
        assert np.array_equal(res.data, data)
        as_float = od.decompose(data.astype(float), plan, rule)
        assert res.total_reconstruction.tobytes() == as_float.total_reconstruction.tobytes()

    def test_tree_geometry(self, lfo_gapped_mrdmd):
        res, _ = lfo_gapped_mrdmd
        levels = {}

        def walk(node):
            levels.setdefault(node.level, []).append(node)
            assert (not node.children) == (node.level == res.plan.termination_level)
            if node.children:
                left, right = node.children
                assert left.col_span[0] == node.col_span[0]
                assert right.col_span[1] == node.col_span[1]
                assert left.col_span[1] == right.col_span[0]
                assert left.bin_index == 2 * node.bin_index
                assert right.bin_index == 2 * node.bin_index + 1
                for child in node.children:
                    walk(child)

        walk(res.root)
        for level, nodes in levels.items():
            assert len(nodes) == 2 ** (level - 1)
            widths = {n.col_span[1] - n.col_span[0] for n in nodes}
            assert widths <= {4000 // 2 ** (level - 1), -(-4000 // 2 ** (level - 1))}

    def test_walk_yields_each_bin_as_it_is_fitted(self, monkeypatch):
        fits = []
        fit_bin = mrdmd_module.dmd
        monkeypatch.setattr(mrdmd_module, "dmd", lambda *args: fits.append(args) or fit_bin(*args))
        t = np.arange(200) * 0.01
        data = np.sin(2 * np.pi * 3 * t) + np.random.default_rng(5).normal(0.0, 0.1, (6, 200))
        plan = od.plan(200, 0.01, mu=16, g=4)
        depth = plan.termination_level

        walk = _walk(data, plan, DEFAULT_BIN_RULE)
        first, _ = next(walk)
        assert len(fits) == 1
        seen = [first, *(node for node, _ in walk)]

        def pre_order(level, bin_index):
            yield level, bin_index
            if level < depth:
                yield from pre_order(level + 1, 2 * bin_index)
                yield from pre_order(level + 1, 2 * bin_index + 1)

        assert depth == 4
        assert [(node.level, node.bin_index) for node in seen] == list(pre_order(1, 0))
        assert len(seen) == len(fits) == 2**depth - 1
        assert all(node.children == () for node in seen)

    def test_subsample_indices_inside_span(self, lfo_gapped_mrdmd):
        res, _ = lfo_gapped_mrdmd

        def walk(node):
            start, stop = node.col_span
            idx = subsample(node.col_span, res.plan.mu)
            assert len(idx) == res.plan.mu
            assert idx[0] == start and idx[-1] < stop
            assert np.all(np.diff(idx) >= 1)
            for child in node.children:
                walk(child)

        walk(res.root)

    def test_per_level_additivity(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        """The total is the sum of the level layers, each built from its bins' refit blocks."""
        res, _ = lfo_gapped_mrdmd
        total = np.zeros(res.data.shape)
        # refit_bins yields a bin's ancestors before it, so each column sums as
        # zeros + level 1 + level 2 + ...: the layers added in level order
        for node, _, _, slow in refit_bins(res, lfo_gapped_embedded[:, :4000]):
            start, stop = node.col_span
            total[:, start:stop] += slow.at(np.arange(start, stop))
        assert np.array_equal(total, res.total_reconstruction)

    def test_node_reconstructions_tile_levels(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        """Over each leaf, the total is its lineage's refit blocks summed root first."""
        res, _ = lfo_gapped_mrdmd
        lineage = {
            (node.level, node.bin_index): slow
            for node, _, _, slow in refit_bins(res, lfo_gapped_embedded[:, :4000])
        }
        covered = np.zeros(res.plan.n, dtype=int)
        tiled = 0

        def walk(node, above):
            nonlocal tiled
            start, stop = node.col_span
            slow = lineage.get((node.level, node.bin_index))
            # a zero-signal bin adds nothing to its layer
            here = above if slow is None else above + slow.at(np.arange(start, stop))
            tiled += 1
            if not node.children:
                assert np.array_equal(here, res.total_reconstruction[:, start:stop])
                covered[start:stop] += 1
            for child in node.children:
                lo, hi = child.col_span
                walk(child, here[:, lo - start : hi - start])

        walk(res.root, np.zeros(res.data.shape))
        assert tiled == 2**res.plan.termination_level - 1
        assert np.all(covered == 1)

    def test_residual_passing_bit_exact(self):
        """Each node's fit is reproducible from its dense residual: the data less its lineage factor."""
        rng = np.random.default_rng(23)
        rec = od.generate(
            [od.ModeSpec(3.0, 0.0, 1.0), od.ModeSpec(11.0, -0.5, 0.6)],
            dc=1.0, fs=64.0, duration=8.0, noise_std=0.05, seed=5,
        )
        hankel = od.delay_embed(rec, "signal", 8)
        data = np.array(hankel[:, :504])
        plan = od.plan(504, rec.dt, mu=8, g=4)
        rule = TruncationRule.energy(0.999)
        res = od.decompose(data, plan, rule)
        received = received_lineages(res, data, rule)
        scale = np.max(np.abs(data))

        def walk(node, textbook, above):
            start, stop = node.col_span
            width = stop - start
            _, lineage, slow = received[node.level, node.bin_index]
            block = data[:, start:stop]
            residual = block if lineage is None else block - lineage.at(np.arange(start, stop))
            # the level-by-level residual agrees with the dense one to rounding
            assert np.max(np.abs(textbook - residual)) <= 1e-12 * scale
            idx = subsample((0, width), plan.mu)
            f_sp = plan.mu / (width * plan.dt)
            xsub = residual[:, idx]
            refit = od.dmd(xsub, rule)
            assert np.array_equal(refit.eigenvalues, node.dmd.eigenvalues)
            assert np.array_equal(refit.amplitudes, node.dmd.amplitudes)
            recon = slow_reconstruction(
                refit, np.array(node.slow_set, dtype=int), (0, width), plan.dt, f_sp
            )
            assert np.array_equal(recon, slow.at(np.arange(start, stop)))
            # the levels' reconstructions over the bin, summed root first
            here = above + recon
            textbook = textbook - recon
            if node.children:
                half = (width + 1) // 2
                walk(node.children[0], textbook[:, :half], here[:, :half])
                walk(node.children[1], textbook[:, half:], here[:, half:])
            else:
                assert np.array_equal(here, res.total_reconstruction[:, start:stop])

        walk(res.root, data, np.zeros(data.shape))

    def test_peak_memory_a_few_hankel_sizes(self, lfo_gapped, lfo_gapped_embedded):
        """The recursion never holds per-level layers or residual copies."""
        data = lfo_gapped_embedded[:, :4000]
        plan = od.plan(4000, lfo_gapped[0].dt, mu=16, g=4)
        assert data.shape == (1000, 4000) and plan.termination_level == 8
        tracemalloc.start()
        try:
            od.decompose(data, plan, DEFAULT_BIN_RULE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * data.size * 8

    def test_peak_memory_under_a_fifth_of_the_matrix(self, lfo_gapped, lfo_gapped_embedded):
        """No bin's slow modes or fit outlive its subtree, so the recursion stays small."""
        data = lfo_gapped_embedded[:, :4000]
        plan = od.plan(4000, lfo_gapped[0].dt, mu=16, g=4)
        tracemalloc.start()
        try:
            od.decompose(data, plan, DEFAULT_BIN_RULE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * data.size * 8

    def test_result_retains_no_bin_mode_matrices(self, lfo_gapped, lfo_gapped_embedded):
        """A kept result holds no bin's m x r fit and no bin's slow-mode columns."""
        data = lfo_gapped_embedded[:, :4000]
        plan = od.plan(4000, lfo_gapped[0].dt, mu=16, g=4)
        tracemalloc.start()
        try:
            res = od.decompose(data, plan, DEFAULT_BIN_RULE)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.root.children
        assert retained < 0.1 * data.size * 8

    def test_read_only_input_is_kept_without_a_copy(self, lfo_gapped, lfo_gapped_embedded):
        """The CLI's read-only slice of the Hankel view is kept as given."""
        hankel = lfo_gapped_embedded
        n = hankel.shape[1] - 1  # the last column is reserved for the shifted pair
        plan = od.plan(n, lfo_gapped[0].dt, mu=16, g=4)
        tracemalloc.start()
        try:
            res = od.decompose(hankel[:, :n], plan, DEFAULT_BIN_RULE)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(res.data, hankel)
        assert retained < 0.1 * hankel.shape[0] * n * 8

    def test_writes_to_the_input_do_not_reach_the_dense_views(self):
        """A writable input is kept as a read-only copy, so the rebuild sees what was decomposed."""
        rec = od.generate(
            [od.ModeSpec(3.0, 0.0, 1.0), od.ModeSpec(11.0, -0.5, 0.6)],
            dc=1.0, fs=64.0, duration=8.0, noise_std=0.05, seed=5,
        )
        hankel = od.delay_embed(rec, "signal", 8)
        plan = od.plan(504, rec.dt, mu=8, g=4)
        rule = TruncationRule.energy(0.999)
        data = np.array(hankel[:, :504])
        res = od.decompose(data, plan, rule)
        data[:, 100:300] = 0.0
        untouched = od.decompose(np.array(hankel[:, :504]), plan, rule)
        assert not res.data.flags.writeable
        assert untouched.total_reconstruction.any()
        assert res.total_reconstruction.tobytes() == untouched.total_reconstruction.tobytes()

    def test_every_bin_fit_is_the_least_squares_fit(self, lfo_gapped_mrdmd, lfo_gapped_embedded):
        """Each bin's reduced-space amplitudes fit its residual first column like lstsq on Phi."""
        res, _ = lfo_gapped_mrdmd
        data = lfo_gapped_embedded[:, :4000]
        fits = 0
        for node, xsub, fit, _ in refit_bins(res, data):
            b = node.dmd.amplitudes
            want, *_ = np.linalg.lstsq(fit.modes, xsub[:, 0].astype(complex), rcond=None)
            assert np.max(np.abs(b - want)) <= 1e-10 * np.max(np.abs(b))
            fits += 1
        assert fits == 2**res.plan.termination_level - 1

    def test_reports_sorted_by_level_and_bin(self, lfo_gapped_mrdmd):
        res, _ = lfo_gapped_mrdmd
        keys = [(r.level, r.bin_index) for r in res.all_modes]
        assert keys == sorted(keys)


class TestBandMap:
    """A tone is captured at the level the plan's frequency bands put it in."""

    # 4.75 and 5.25 Hz sit 5 % either side of f_slow_max(3) = 5 Hz, 19 and 21 Hz of f_slow_max(5) = 20 Hz
    @pytest.mark.parametrize("f", [0.8, 2.0, 3.7, 4.75, 5.25, 6.1, 8.6, 13.0, 19.0, 21.0, 27.0, 55.0, 110.0])
    def test_dominant_cluster_sits_at_the_first_level_whose_band_holds_the_tone(self, f):
        """One tone on DC 170 with noise (2 s, stack 1000, mu 16): the dominant cluster is at the
        first level L with f < f_slow_max(L) = 1.25 * 2^(L-1) Hz.

        That a tone is slow nowhere deeper does not hold yet: 13 Hz has one slow row at L6,
        27 Hz 17 rows at L7-L8 and 55 Hz 8 rows at L8.
        """
        rec = od.generate([od.ModeSpec(f, 0.0, 6.0)], dc=170.0, fs=2500.0, duration=2.0, noise_std=0.05, seed=1)
        hankel = od.delay_embed(rec, "signal", 1000)
        n = hankel.shape[1] - 1
        plan = od.plan(n, rec.dt, mu=16, g=4)
        cluster = od.dominant_cluster(od.classify(od.decompose(hankel[:, :n], plan, DEFAULT_BIN_RULE).all_modes))
        want = next(lv.level for lv in plan.per_level if f < lv.f_slow_max)
        assert cluster is not None and cluster.level == want
        assert cluster.frequency_hz == pytest.approx(f, rel=0.05)
