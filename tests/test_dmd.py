"""Truncated SVD, reduced operator, eigen-modes, amplitudes, reconstruction."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscidmd as od
from oscidmd.dmd import (
    DecompositionError,
    TruncationRule,
    ZeroSignalError,
    _eigenvectors_independent,
    _gram_projection,
    _hankel_factor,
    _hankel_series,
    _lagged_gram,
    _mode_order,
    _powers,
    _projection,
    _residuals_within_tol,
    amplitudes,
    conjugate_pairs,
    eig_modes,
    product_antidiagonal_sums,
    reconstruct_series,
    reconstruct_window,
    reduced_operator,
    svd_truncated,
)
from oscidmd.mrdmd import DEFAULT_BIN_RULE
from oscidmd.stacking import antidiagonal_sums, unembed


def planted_pair(signal_modes, fs=2500.0, duration=2.0, depth=200, dc=0.0, noise=0.0, seed=0):
    rec = od.generate(signal_modes, dc=dc, fs=fs, duration=duration, noise_std=noise, seed=seed)
    hankel = od.delay_embed(rec, "signal", depth)
    return od.shifted_pair(hankel), rec


class TestSvdTruncated:
    def test_rank_two_outer_product_energy_rule(self):
        rng = np.random.default_rng(1)
        u = np.linalg.qr(rng.normal(size=(30, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(50, 2)))[0]
        x = 5.0 * np.outer(u[:, 0], v[:, 0]) + 1.0 * np.outer(u[:, 1], v[:, 1])
        out = svd_truncated(x, TruncationRule.energy(0.999))
        assert out.rank == 2
        np.testing.assert_allclose(out.sigma, [5.0, 1.0], rtol=1e-10)

    def test_diagonal_fixed_rank_one(self):
        out = svd_truncated(np.diag([1.0, 0.5, 0.3]), TruncationRule.fixed(1))
        assert out.rank == 1
        np.testing.assert_allclose(out.sigma, [1.0])

    def test_stacked_lfo_small_rank(self, lfo_clean_embedded, lfo_clean_dmd):
        result, _ = lfo_clean_dmd
        # oracle: smallest r capturing 99.99% of squared singular-value energy,
        # computed directly from the full spectrum
        s = result.singular_values
        energy = np.cumsum(s * s)
        expected = int(np.searchsorted(energy, 0.9999 * energy[-1])) + 1
        assert result.rank == expected
        assert result.rank <= 20  # r << 1000

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 30))
        out = svd_truncated(x, TruncationRule.energy(0.9))
        r = out.rank
        assert np.linalg.norm(out.u.T @ out.u - np.eye(r)) <= 1e-10
        assert np.linalg.norm(out.v.T @ out.v - np.eye(r)) <= 1e-10
        assert np.all(np.diff(out.sigma) <= 0) and np.all(out.sigma > 0)

    def test_truncation_error_bound(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 40))
        for frac in (0.5, 0.9, 0.999):
            out = svd_truncated(x, TruncationRule.energy(frac))
            approx = out.u @ np.diag(out.sigma) @ out.v.T
            rel = np.linalg.norm(x - approx) / np.linalg.norm(x)
            s2 = out.singular_values**2
            kept = s2[: out.rank].sum() / s2.sum()
            assert rel <= np.sqrt(1.0 - kept) + 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroSignalError, match="no signal energy"):
            svd_truncated(np.zeros((4, 6)), TruncationRule.fixed(1))

    def test_rank_clamped_with_flag(self):
        x = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0))  # rank 1
        out = svd_truncated(x, TruncationRule.fixed(3))
        assert out.rank == 1
        assert out.rank_clamped

    def test_sv_ratio_rule(self):
        x = np.diag([1.0, 0.1, 1e-5, 1e-9])
        out = svd_truncated(x, TruncationRule.sv_ratio(1e-3))
        assert out.rank == 2

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            TruncationRule.fixed(0)
        with pytest.raises(ValueError):
            TruncationRule.energy(0.0)
        with pytest.raises(ValueError):
            TruncationRule.sv_ratio(1.0)
        with pytest.raises(ValueError):
            TruncationRule("frobnicate", 1)


class TestReducedOperator:
    def test_constant_data_gives_identity(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=8)
        x = np.tile(col[:, None], (1, 10))
        out = svd_truncated(x, TruncationRule.energy(0.9999))
        a = reduced_operator(out.u, out.sigma, out.v, x)
        assert np.linalg.norm(a - np.eye(out.rank)) <= 1e-10

    def test_scalar_contraction(self):
        x = 0.5 ** np.arange(10.0)
        x1, x2 = x[None, :-1], x[None, 1:]
        out = svd_truncated(x1, TruncationRule.fixed(1))
        a = reduced_operator(out.u, out.sigma, out.v, x2)
        np.testing.assert_allclose(a, [[0.5]], rtol=1e-12)

    def test_two_mode_eigenvalues_match_closed_form(self):
        modes = [od.ModeSpec(8.6, 0.0, 1.0), od.ModeSpec(3.0, -2.0, 1.0)]
        (x1, x2), rec = planted_pair(modes)
        out = svd_truncated(x1, TruncationRule.fixed(4))
        a = reduced_operator(out.u, out.sigma, out.v, x2)
        got = np.sort_complex(np.linalg.eigvals(a))
        want = []
        for m in modes:
            z = (m.growth_rate + 2j * np.pi * m.frequency_hz) * rec.dt
            want += [np.exp(z), np.exp(np.conj(z))]
        np.testing.assert_allclose(got, np.sort_complex(want), rtol=1e-8)

    def test_shape_mismatch_rejected(self):
        out = svd_truncated(np.eye(3), TruncationRule.fixed(2))
        with pytest.raises(ValueError):
            reduced_operator(out.u, out.sigma, out.v, np.eye(4))


class TestEigModes:
    def test_diagonal_case(self):
        w, lam, phi = eig_modes(np.diag([0.9, 0.5]), np.eye(2))
        assert set(np.round(lam.real, 12)) == {0.9, 0.5}
        np.testing.assert_allclose(np.sort(np.abs(w), axis=0), [[0, 0], [1, 1]], atol=1e-12)

    def test_rotation_gives_unit_pair(self):
        theta = 0.3
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        _, lam, _ = eig_modes(rot, np.eye(2))
        np.testing.assert_allclose(np.sort_complex(lam), np.sort_complex([np.exp(1j * theta), np.exp(-1j * theta)]), rtol=1e-12)

    def test_critically_damped_8p6_hz(self):
        (x1, x2), rec = planted_pair([od.ModeSpec(8.6, 0.0, 1.0)])
        result = od.dmd(x1, x2, TruncationRule.fixed(2))
        want_angle = 2 * np.pi * 8.6 * 4e-4
        angles = np.sort(np.angle(result.eigenvalues))
        np.testing.assert_allclose(angles, [-want_angle, want_angle], rtol=1e-9)
        np.testing.assert_allclose(np.abs(result.eigenvalues), 1.0, atol=1e-9)

    def test_unit_norm_eigvec_columns(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        w, _, phi = eig_modes(a, np.eye(5))
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(phi, axis=0), 1.0, rtol=1e-12)

    def test_eigen_residuals_within_bound(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        w, lam, _ = eig_modes(a, np.eye(6))
        res = np.linalg.norm(a @ w - w * lam[None, :], axis=0)
        assert np.all(res <= 1e-8 * np.linalg.norm(a, 2))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 12),
        shape=st.sampled_from(["dense", "diagonal", "one-column", "tiny"]),
        place=st.sampled_from(["below", "slack", "at-column-norm", "at-norm", "above"]),
    )
    # computed, this column norm exceeds the computed ||A~||_2 by rounding
    @example(seed=0, size=5, shape="one-column", place="at-column-norm")
    def test_residual_rule_is_the_two_norm_rule(self, seed, size, shape, place):
        """The column-norm shortcut decides as 1e-8 * ||A~||_2 does, also inside its slack."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(size, size)) * 10.0 ** rng.uniform(-6, 6)
        if shape == "diagonal":  # largest column norm equals ||A~||_2
            a = np.diag(np.diag(a))
        elif shape == "one-column":
            a[:, 1:] = 0.0
        elif shape == "tiny":
            a *= 1e-300
        two_norm, col_max = np.linalg.norm(a, 2), np.linalg.norm(a, axis=0).max()
        edge = {
            "below": 1e-8 * (1 - 1e-6) * col_max * rng.uniform(0.0, 1.0),
            "slack": 1e-8 * rng.uniform((1 - 1e-6) * col_max, two_norm),
            "at-column-norm": 1e-8 * col_max,
            "at-norm": 1e-8 * two_norm * (1 + rng.choice([-1, 0, 1]) * 1e-15),
            "above": 1e-8 * two_norm * rng.uniform(1.0, 2.0),
        }[place]
        residuals = rng.uniform(0.0, 1.0, size=size) * edge
        residuals[rng.integers(size)] = edge
        want = not np.any(residuals > 1e-8 * two_norm)
        assert _residuals_within_tol(a, residuals) == want

    def test_typical_operator_skips_the_two_norm(self, monkeypatch):
        """An operator whose residuals sit far below the bound is accepted without an SVD."""
        a = np.random.default_rng(7).normal(size=(40, 40))
        norm = np.linalg.norm

        def no_two_norm(x, ord=None, **kw):
            assert ord != 2, "eig_modes took ||A~||_2"
            return norm(x, ord, **kw)

        monkeypatch.setattr(np.linalg, "norm", no_two_norm)
        eig_modes(a, np.eye(40))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        r=st.integers(1, 64),
        kind=st.sampled_from(["random", "orthogonal", "eigenvectors", "duplicate", "angle"]),
        angle_exponent=st.integers(3, 15),
    )
    @example(seed=1, r=400, kind="eigenvectors", angle_exponent=3)
    @example(seed=2, r=400, kind="angle", angle_exponent=9)
    def test_certificate_decides_as_the_singular_value_rule(self, seed, r, kind, angle_exponent):
        """The real certificate accepts W exactly when sigma_min(W) > 1e-12 sigma_max(W).

        W is drawn as eig gives it for a real operator: real columns, and
        conjugate pairs [a + ib, a - ib] made from two columns a, b of a real
        matrix. Near-singular W comes from two of those real columns at a
        small angle, or equal.
        """
        rng = np.random.default_rng(seed)
        if kind == "eigenvectors":
            lam, w = np.linalg.eig(rng.normal(size=(r, r)))
            w, pair = w.astype(complex), conjugate_pairs(lam.astype(complex))
        else:
            real = rng.normal(size=(r, r))
            if kind == "orthogonal":  # W unitary: pairs (a + ib) / sqrt(2) of orthonormal a, b
                real = np.linalg.qr(real)[0]
            if r > 1 and kind in ("duplicate", "angle"):
                i, j = rng.choice(r, size=2, replace=False)
                a = real[:, i] / np.linalg.norm(real[:, i])
                if kind == "duplicate":
                    real[:, j] = real[:, i]
                else:  # column j at angle 10^-angle_exponent from column i
                    v = real[:, j] - (a @ real[:, j]) * a
                    theta = 10.0**-angle_exponent
                    real[:, j] = np.cos(theta) * a + np.sin(theta) * v / np.linalg.norm(v)
            n_pairs = int(rng.integers(0, r // 2 + 1))
            pair = int(rng.integers(0, r - 2 * n_pairs + 1)) + 2 * np.arange(n_pairs)
            w = real.astype(complex)
            w[:, pair] = real[:, pair] + 1j * real[:, pair + 1]
            w[:, pair + 1] = w[:, pair].conj()
        w /= np.linalg.norm(w, axis=0)
        wsv = np.linalg.svd(w, compute_uv=False)
        assert _eigenvectors_independent(w, pair) == (wsv[-1] > 1e-12 * wsv[0])

    def test_typical_fit_skips_the_eigenvector_svd(self, monkeypatch):
        """Well-conditioned eigenvectors are accepted by the certificate, without singular values."""
        svd = np.linalg.svd

        def no_singular_values(a, *args, compute_uv=True, **kw):
            assert compute_uv, "eig_modes took the singular values of W"
            return svd(a, *args, compute_uv=compute_uv, **kw)

        monkeypatch.setattr(np.linalg, "svd", no_singular_values)
        eig_modes(np.random.default_rng(7).normal(size=(40, 40)), np.eye(40))
        (x1, x2), rec = planted_pair([od.ModeSpec(8.6, -0.2, 1.0), od.ModeSpec(31.0, 0.0, 0.5)], noise=0.01)
        assert od.dmd(x1, x2, TruncationRule.fixed(30)).rank == 30

    def test_defective_operator_rejected(self):
        with pytest.raises(DecompositionError, match="r-1"):
            eig_modes(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eig_modes(np.ones((2, 3)), np.eye(2))


class TestAmplitudes:
    def test_exact_representation(self):
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.normal(size=(10, 3)))[0]
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = amplitudes(u, np.eye(3, dtype=complex), u @ c)
        np.testing.assert_allclose(b, c, atol=1e-10)

    def test_orthogonal_x1_gives_zero(self):
        u = np.eye(4)[:, :2]
        b = amplitudes(u, np.eye(2, dtype=complex), np.array([0.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(b, 0.0, atol=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 12),
        extra=st.integers(0, 40),
        outside=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    )
    # x1 almost wholly off span(U): ||x1|| = 1000, ||want|| = 2.7e-4
    @example(seed=474, rank=1, extra=0, outside=1000.0)
    def test_reduced_solve_is_the_least_squares_fit_on_phi(self, seed, rank, extra, outside):
        """W b = U^T x1 minimizes ||U W b - x1||, also with x1 off span(U).

        Both solves are backward stable: each is exact for data perturbed by
        a relative eps_b <= 4 m r eps (Householder least squares and the
        product U^T x1 with an LU solve; Higham, 2002, Theorems 9.4 and
        20.3). The least-squares perturbation bound (Higham, 2002, Theorem
        20.1) then puts each within kappa eps_b (2 ||b|| + (kappa + 1) ||res|| / ||U W||)
        of the exact b, with kappa = cond(U W) = cond(W), the residual
        ||res|| <= ||x1|| and ||U W||_2 >= 1 (unit columns). So the two differ
        by at most 8 m r eps kappa (2 ||want|| + (kappa + 1) ||x1||). A bound
        relative to ||want|| alone fails when x1 lies almost wholly off
        span(U): both solves then err on the scale of eps ||x1||.
        """
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(rank + 1 + extra, rank + 1)))[0]
        u, off_span = q[:, :rank], q[:, rank]
        noise = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
        w = np.eye(rank) + 0.2 * noise / np.sqrt(rank)
        w /= np.linalg.norm(w, axis=0)
        assert np.linalg.cond(w) < 1e3
        x1 = u @ rng.normal(size=rank) + outside * off_span
        want, *_ = np.linalg.lstsq(u @ w, x1.astype(complex), rcond=None)
        got = amplitudes(u, w, x1)
        m, kappa = u.shape[0], np.linalg.cond(w)
        bound = 8 * m * rank * np.finfo(float).eps * kappa
        assert np.linalg.norm(got - want) <= bound * (2 * np.linalg.norm(want) + (kappa + 1) * np.linalg.norm(x1))

    def test_wide_hankel_fit_is_the_least_squares_fit(self, lfo_gapped_dmd, lfo_gapped_embedded):
        result, _ = lfo_gapped_dmd
        x1, _ = od.shifted_pair(lfo_gapped_embedded)
        assert x1.shape[1] > x1.shape[0] + 1 and result.rank > 300
        want, *_ = np.linalg.lstsq(result.modes, x1[:, 0].astype(complex), rcond=None)
        b = result.amplitudes
        assert np.max(np.abs(b - want)) <= 1e-10 * np.max(np.abs(b))

    def test_planted_two_mode_amplitudes(self):
        modes = [od.ModeSpec(5.0, 0.0, 2.0), od.ModeSpec(17.0, 0.0, 0.5)]
        (x1, x2), rec = planted_pair(modes, fs=200.0, duration=3.0, depth=60)
        result = od.dmd(x1, x2, TruncationRule.fixed(4))
        # oracle: least-squares fit of the known complex-exponential mode
        # vectors to the first snapshot
        i = np.arange(60)
        vmat = np.column_stack(
            [np.exp(s * 2j * np.pi * m.frequency_hz * i * rec.dt) for m in modes for s in (1, -1)]
        )
        coef, *_ = np.linalg.lstsq(vmat, x1[:, 0].astype(complex), rcond=None)
        want = {}
        for k, m in enumerate(modes):
            norm = np.linalg.norm(vmat[:, 2 * k])
            want[m.frequency_hz] = abs(coef[2 * k]) * norm
        reports = od.reports_from_dmd(result, 1.0 / rec.dt, x1.shape[1])
        for freq, expected in want.items():
            got = min(reports, key=lambda r: abs(r.frequency_hz - freq))
            assert got.amplitude_mag == pytest.approx(expected, rel=1e-6)
        # magnitudes scale like the planted amplitudes
        b_by_freq = sorted(reports, key=lambda r: -r.amplitude_mag)
        assert b_by_freq[0].frequency_hz == pytest.approx(5.0, abs=1e-6)


class TestReconstruct:
    def test_j1_is_phi_b(self):
        (x1, x2), rec = planted_pair([od.ModeSpec(4.0, -1.0, 1.0)], fs=100, duration=2, depth=20)
        result = od.dmd(x1, x2, TruncationRule.fixed(2))
        np.testing.assert_allclose(
            reconstruct_window(result, 1)[:, 0], result.modes @ result.amplitudes, rtol=1e-12
        )

    def test_dc_mode_constant(self):
        result = od.dmd(np.full((1, 9), 2.5), np.full((1, 9), 2.5), TruncationRule.fixed(1))
        window = reconstruct_window(result, 50)
        for j in (1, 5, 50):
            np.testing.assert_allclose(window[:, j - 1].real, [2.5], rtol=1e-12)

    def test_noiseless_window_rmse(self):
        modes = [od.ModeSpec(8.6, 0.0, 1.0), od.ModeSpec(3.0, -2.0, 1.0)]
        (x1, x2), rec = planted_pair(modes)
        result = od.dmd(x1, x2, od.DEFAULT_RULE)
        recon = reconstruct_window(result, x1.shape[1]).real
        rel = np.linalg.norm(recon - x1) / np.linalg.norm(x1)
        assert rel <= 1e-6

    def test_j_below_one_rejected(self):
        (x1, x2), rec = planted_pair([od.ModeSpec(4.0, 0.0, 1.0)], fs=100, duration=1, depth=10)
        result = od.dmd(x1, x2, TruncationRule.fixed(2))
        with pytest.raises(ValueError):
            reconstruct_window(result, 0)


class TestDmdComposition:
    def test_lfo_dominant_pair_near_unit_circle(self, lfo_clean_dmd):
        result, reports = lfo_clean_dmd
        osc = [r for r in reports if r.frequency_hz > 0]
        top = max(osc, key=lambda r: r.integral_contribution)
        assert top.frequency_hz == pytest.approx(8.6, abs=0.01)
        assert abs(top.eigenvalue) == pytest.approx(1.0, abs=1e-3)
        assert np.angle(top.eigenvalue) == pytest.approx(2 * np.pi * 8.6 * 4e-4, rel=1e-3)

    def test_gap_shifts_dominant_damping(self, lfo_clean_dmd, lfo_gapped_dmd):
        _, clean_reports = lfo_clean_dmd
        _, gapped_reports = lfo_gapped_dmd
        clean = max((r for r in clean_reports if r.frequency_hz > 0), key=lambda r: r.integral_contribution)
        gapped = max((r for r in gapped_reports if r.frequency_hz > 0), key=lambda r: r.integral_contribution)
        # planted growth rate is 0; the gap corrupts the damping estimate
        assert abs(gapped.growth_rate) > abs(clean.growth_rate)

    def test_zero_length_pair_rejected(self):
        with pytest.raises(DecompositionError, match="empty"):
            od.dmd(np.empty((3, 0)), np.empty((3, 0)), od.DEFAULT_RULE)

    def test_retained_operator_satisfies_eigen_residual(self, lfo_clean_dmd, lfo_clean_embedded):
        """The eigenpairs of the fit's reduced operator, from eig_modes, meet 1e-8 * ||A~||_2.

        The operator is rebuilt through the route dmd() takes (the lagged
        Gram here), so its eigenvalues are the fit's bit for bit.
        """
        result, _ = lfo_clean_dmd
        x1, x2 = od.shifted_pair(lfo_clean_embedded)
        fit = _projection(x1, x2, od.DEFAULT_RULE)
        gram = _gram_projection(_hankel_series(x1, x2), x1.shape[1], od.DEFAULT_RULE)
        assert gram is not None and all(np.array_equal(a, b) for a, b in zip(fit, gram))
        a_tilde = fit.a_tilde
        w, lam, _ = eig_modes(a_tilde, fit.u)
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(result.eigenvalues))
        res = np.linalg.norm(a_tilde @ w - w * lam[None, :], axis=0)
        assert np.all(res <= 1e-8 * np.linalg.norm(a_tilde, 2))
        assert 1 <= result.rank <= min(result.modes.shape[0], 4000)

    def test_mode_ordering_is_by_amplitude_score(self, lfo_clean_dmd):
        result, _ = lfo_clean_dmd
        score = np.abs(result.amplitudes) * np.linalg.norm(result.modes, axis=0)
        assert np.all(np.diff(score) <= 1e-9 * score[0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 10.0),
                st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.6, 0.8, 1.0]),
                st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.6, -0.6, 0.8, -0.8]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    # hypot ties these two magnitudes; np.abs rounds the complex one a bit lower on some builds
    @example([(1.0, 0.982344135219425, 0.0), (1.0, -0.95, 0.25)])
    def test_mode_order_is_the_five_key_order(self, modes):
        """lexsort gives the documented order, ties (equal scores and |lambda|, +-0.0) included."""
        score = np.array([m[0] for m in modes])
        eigvals = np.array([complex(m[1], m[2]) for m in modes])
        want = sorted(
            range(len(modes)),
            key=lambda k: (
                -score[k],
                -abs(eigvals[k]),
                0 if eigvals[k].imag >= 0 else 1,
                -eigvals[k].imag,
                eigvals[k].real,
            ),
        )
        assert _mode_order(score, eigvals).tolist() == want

    def test_conjugate_pairs_adjacent_with_positive_imag_first(self, lfo_clean_dmd):
        result, _ = lfo_clean_dmd
        lam = result.eigenvalues
        k = 0
        while k < lam.size:
            if lam[k].imag != 0:
                assert lam[k].imag > 0
                assert lam[k + 1] == np.conj(lam[k])
                k += 2
            else:
                k += 1

    def test_tall_fit_lists_positive_imaginary_member_first(self):
        h = np.lib.stride_tricks.sliding_window_view(np.random.default_rng(5).normal(size=100), 60).T
        x1, x2 = h[:, :-1], h[:, 1:]
        assert x1.shape[1] <= x1.shape[0] + 1  # tall, so the R route runs
        lam = od.dmd(x1, x2).eigenvalues
        assert np.sum(lam.imag > 0) >= 10
        for k in np.flatnonzero(lam.imag > 0):
            assert lam[k + 1] == np.conj(lam[k])
        for k in np.flatnonzero(lam.imag < 0):
            assert k > 0 and lam[k - 1] == np.conj(lam[k])


def assert_partners_exact(result) -> None:
    """Each pair's second mode is the exact conjugate of its first, with the same ||phi|| bit for bit."""
    pair = conjugate_pairs(result.eigenvalues)
    assert pair.size > 0
    assert np.array_equal(result.modes[:, pair + 1], result.modes[:, pair].conj())
    norms = np.linalg.norm(result.modes, axis=0)
    assert np.array_equal(norms[pair + 1], norms[pair])


class TestConjugatePartners:
    def test_tall_fit(self):
        (x1, x2), _ = planted_pair(
            [od.ModeSpec(8.6, -0.2, 1.0), od.ModeSpec(31.0, 0.0, 0.5)], duration=0.1, noise=0.01
        )
        assert x1.shape[1] <= x1.shape[0] + 1  # tall, so the R route runs
        assert_partners_exact(od.dmd(x1, x2))

    def test_hankel_wide_fit(self, lfo_gapped_dmd):
        assert_partners_exact(lfo_gapped_dmd[0])

    def test_lift_is_the_complex_product(self):
        """Phi from the real product on the first members equals U @ W to rounding, pairs conjugate."""
        rng = np.random.default_rng(12)
        u = np.linalg.qr(rng.normal(size=(30, 9)))[0]
        w, lam, phi = eig_modes(rng.normal(size=(9, 9)), u)
        pair = conjugate_pairs(lam)
        assert pair.size > 0
        assert np.max(np.abs(phi - u @ w)) <= 1e-14
        assert np.array_equal(phi[:, pair + 1], phi[:, pair].conj())

    def test_complex_operator_rejected(self):
        with pytest.raises(ValueError, match="real"):
            eig_modes(np.eye(2) * (1 + 1j), np.eye(2))


class TestProperties:
    def test_shift_invariance_sanity(self):
        """Planted diagonalizable dynamics are recovered to 1e-8 relative."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(3, 7))
            eigs = []
            while len(eigs) < m:
                if m - len(eigs) >= 2 and rng.random() < 0.6:
                    radius = rng.uniform(0.5, 1.05)
                    theta = rng.uniform(0.1, np.pi - 0.1)
                    eigs += [radius * np.exp(1j * theta), radius * np.exp(-1j * theta)]
                else:
                    eigs.append(complex(rng.uniform(0.3, 1.0)))
            eigs = np.array(eigs[:m])
            q = np.linalg.qr(rng.normal(size=(m, m)))[0]
            blocks = np.zeros((m, m))
            i = 0
            while i < m:
                if eigs[i].imag != 0:
                    a, b = eigs[i].real, eigs[i].imag
                    blocks[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
                    i += 2
                else:
                    blocks[i, i] = eigs[i].real
                    i += 1
            a0 = q @ blocks @ q.T
            x = np.empty((m, 60))
            x[:, 0] = rng.normal(size=m)
            for j in range(59):
                x[:, j + 1] = a0 @ x[:, j]
            result = od.dmd(x[:, :-1], x[:, 1:], TruncationRule.fixed(m))
            got = np.sort_complex(result.eigenvalues)
            want = np.sort_complex(eigs)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8

    def test_first_snapshot_residual_monotone_in_rank(self):
        """The fit of the snapshot the amplitudes target never worsens with rank.

        The whole-window RMSE is not monotone for first-snapshot amplitude
        fitting (adding a half pair can hurt later columns), so the
        monotonicity property is asserted where it mathematically holds:
        the j=1 residual over the growing truncation basis.
        """
        rng = np.random.default_rng(9)
        for trial in range(20):
            modes = [
                od.ModeSpec(float(rng.uniform(1, 40)), float(rng.uniform(-3, 0)), float(rng.uniform(0.5, 3)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            rec = od.generate(modes, dc=float(rng.uniform(0, 5)), fs=200, duration=1.0,
                              noise_std=0.01, seed=trial)
            hankel = od.delay_embed(rec, "signal", 40)
            x1, x2 = od.shifted_pair(hankel)
            prev = np.inf
            for r in range(1, 10):
                result = od.dmd(x1, x2, TruncationRule.fixed(r))
                res = np.linalg.norm(result.modes @ result.amplitudes - x1[:, 0])
                assert res <= prev + 1e-12
                prev = res


def direct_fit(x1, x2, rule=od.DEFAULT_RULE, first=None):
    """The composition on the pair itself: SVD of x1, then operator, eig, and amplitudes of ``first`` (x1[:, 0])."""
    svd = svd_truncated(x1, rule)
    a_tilde = reduced_operator(svd.u, svd.sigma, svd.v, x2)
    w, lam, phi = eig_modes(a_tilde, svd.u)
    return svd, a_tilde, lam, phi, amplitudes(svd.u, w, x1[:, 0] if first is None else first)


def assert_fit_bit_for_bit(result, y1, y2, first, rank):
    """result is direct_fit(y1, y2) at a fixed rank with amplitudes of ``first``, mode for mode in dmd's order."""
    svd, _, lam, phi, b = direct_fit(y1, y2, TruncationRule.fixed(rank), first)
    order = [int(np.flatnonzero(lam == v)[0]) for v in result.eigenvalues]
    assert sorted(order) == list(range(svd.rank))
    assert (result.rank, result.rank_clamped) == (svd.rank, svd.rank_clamped)
    assert np.array_equal(result.singular_values, svd.singular_values)
    assert np.array_equal(result.eigenvalues, lam[order])
    assert np.array_equal(result.modes, phi[:, order])
    assert np.array_equal(result.amplitudes, b[order])


def assert_direct_fit_bit_for_bit(x1, x2, rank=6):
    """dmd() of the pair is direct_fit, mode for mode in dmd's order."""
    assert_fit_bit_for_bit(od.dmd(x1, x2, TruncationRule.fixed(rank)), x1, x2, x1[:, 0], rank)


def qr_route(x1, x2, rule=od.DEFAULT_RULE):
    """The QR route of a wide Hankel pair as a DmdResult, modes in eig's order (pairs adjacent)."""
    low = _hankel_factor(_hankel_series(x1, x2), x1.shape[1])
    svd, _, lam, phi, b = direct_fit(low[:-1], low[1:], rule, x1[:, 0])
    return od.DmdResult(
        coefficients=phi, eigenvalues=lam, amplitudes=b, rank=svd.rank,
        singular_values=svd.singular_values, rank_clamped=svd.rank_clamped,
    )


def random_hankel_pair(seed=5, length=400, depth=30):
    series = np.random.default_rng(seed).normal(size=length)
    hankel = np.lib.stride_tricks.sliding_window_view(series, length - depth + 1)
    return hankel[:, :-1], hankel[:, 1:]


def hankel_source(source, request):
    """The shifted pair of a random series, or of an embedded fixture."""
    if source == "random":
        return random_hankel_pair()
    return od.shifted_pair(request.getfixturevalue(source))


class TestHankelCompression:
    @pytest.mark.parametrize("source", ["lfo_clean_embedded", "lfo_gapped_embedded", "random"])
    def test_matches_direct_fit(self, source, request):
        """The wide Hankel fit is the direct fit of the m x n pair to rounding.

        The retained singular values agree to 1e-12 sigma_1. The tail comes
        from sigma^2 on the Gram route, exact for X1 X1^T + E with
        ||E||_2 <= m eps sigma_1^2. Weyl's bound |s~_k^2 - s_k^2| <= ||E||_2
        then gives |s~_k - s_k| <= sqrt(m eps) sigma_1 for every k, since
        |a - b| <= sqrt(|a^2 - b^2|) for a, b >= 0.
        """
        x1, x2 = hankel_source(source, request)
        assert x1.shape[1] > x1.shape[0] + 1  # wide, so the compressed path runs
        result = od.dmd(x1, x2, od.DEFAULT_RULE)
        svd, _, lam, phi, b = direct_fit(x1, x2)

        assert result.rank == svd.rank
        s, r = svd.singular_values, svd.rank
        assert np.max(np.abs(result.singular_values[:r] - s[:r])) <= 1e-12 * s[0]
        weyl = np.sqrt(x1.shape[0] * np.finfo(float).eps) * s[0]
        assert np.max(np.abs(result.singular_values - s)) <= weyl
        got, want = np.sort_complex(result.eigenvalues), np.sort_complex(lam)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9
        dominant = np.max(np.abs(b) * np.linalg.norm(phi, axis=0))
        score = np.abs(result.amplitudes[0]) * np.linalg.norm(result.modes[:, 0])
        assert score == pytest.approx(dominant, rel=1e-8)

    def test_non_shift_wide_pair_is_the_direct_fit_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x1, x2 = rng.normal(size=(6, 40)), rng.normal(size=(6, 40))
        assert_direct_fit_bit_for_bit(x1, x2)

    @pytest.mark.parametrize("kind", ["rows of no one series", "x2 off the shift", "x1 off the view in its last row"])
    def test_wide_pair_that_is_not_one_series_is_the_direct_fit_bit_for_bit(self, kind):
        """Only the Hankel pair of one series is compressed; anything else is fitted directly."""
        rng = np.random.default_rng(9)
        if kind == "rows of no one series":  # X2[:-1] equals X1[1:]
            rows = rng.normal(size=(7, 40))
            x1, x2 = rows[:-1], rows[1:]
        elif kind == "x2 off the shift":  # X1 is a Hankel view, X2 differs from its shift in one entry
            x1, x2 = random_hankel_pair(seed=9, length=46, depth=6)
            x2 = x2.copy()
            x2[2, 5] += 1.0
        else:  # rows are compared in blocks; the last block differs
            x1, x2 = random_hankel_pair(seed=9, length=400, depth=30)
            x1 = x1.copy()
            x1[-1, 3] += 1.0
        assert _hankel_series(x1, x2) is None
        assert_direct_fit_bit_for_bit(x1, x2)

    def test_factor_of_the_view_is_the_factor_of_the_stacked_rows(self):
        x1, x2 = random_hankel_pair()
        want = np.linalg.qr(np.vstack([x1, x2[-1:]]).T, mode="r").T
        assert np.array_equal(_hankel_factor(_hankel_series(x1, x2), x1.shape[1]), want)

    def test_hankel_fit_lists_positive_imaginary_member_first(self, lfo_gapped_dmd):
        result, _ = lfo_gapped_dmd
        lam = result.eigenvalues
        assert np.sum(lam.imag != 0) >= 100
        k = 0
        while k < lam.size:
            if lam[k].imag != 0:
                assert lam[k].imag > 0
                assert lam[k + 1] == np.conj(lam[k])
                k += 2
            else:
                k += 1

    def test_dmd_imports_no_scipy(self):
        code = (
            "import sys, numpy as np, oscidmd as od\n"
            "from oscidmd.dmd import reconstruct_window\n"
            "x = np.sin(0.3 * np.arange(80.0)) + 0.5 * np.cos(2.1 * np.arange(80.0))\n"
            "h = np.lib.stride_tricks.sliding_window_view(x, 71)\n"
            "r = od.dmd(h[:, :-1], h[:, 1:])\n"
            "reconstruct_window(r, 71)\n"
            "sys.exit('scipy' in sys.modules)\n"
        )
        src = str(Path(od.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()


def shifted_trajectory(seed, m, mu, signal_rank, noise):
    """An m x mu snapshot matrix of a random linear system of ``signal_rank`` states seen through m rows, plus noise."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(signal_rank, signal_rank)))[0]
    a = q @ np.diag(rng.uniform(0.6, 1.0, size=signal_rank)) @ q.T
    a = a @ np.linalg.qr(rng.normal(size=(signal_rank, signal_rank)))[0]  # rotations give complex pairs
    states = np.empty((signal_rank, mu))
    states[:, 0] = rng.normal(size=signal_rank)
    for j in range(1, mu):
        states[:, j] = a @ states[:, j - 1]
    return rng.normal(size=(m, signal_rank)) @ states + noise * rng.normal(size=(m, mu))


class TestShiftRoute:
    """A shifted pair that is not a wide Hankel pair is fitted from the R factor of its columns."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["m = mu", "m >> mu", "m < mu"]),
        mu=st.sampled_from([8, 16]),
        noise=st.sampled_from([0.0, 1e-3, 1e-1]),
    )
    def test_matches_the_direct_fit(self, seed, shape, mu, noise):
        """Rank, clamping, sigma, eigenvalues and lifted modes of the direct m-row fit, to its conditioning.

        Householder QR and the SVDs are backward stable: each fit is exact
        for the pair perturbed by E with ||E|| <= delta = m mu eps ||X||_F,
        X = [X1 | x_last]. Weyl's bound puts each singular value within
        2 delta. The truncated projection moves A~ by at most
        eps_A = 2 delta (1 + ||A~||_2) (1 / sigma_r + 1 / (sigma_r - sigma_r+1)),
        the second term bounding the rotation of the retained subspace; the
        two A~ differ besides by a diagonal sign similarity, which moves no
        eigenvalue. Bauer-Fike then bounds each eigenvalue's move by
        kappa(W) eps_A, and each unit eigenvector's, after its phase is
        aligned, by 2 r kappa(W) eps_A / gap_k, with gap_k the distance to
        the nearest other eigenvalue; the lift adds m eps. Noise-free input
        is fitted at a fixed rank above the signal rank, so both fits clamp.
        """
        m = {"m = mu": mu, "m >> mu": 60 * mu, "m < mu": mu // 2}[shape]
        signal_rank = min(4, m, mu - 2)
        x = shifted_trajectory(seed, m, mu, signal_rank, noise)
        x1, x2 = x[:, :-1], x[:, 1:]
        rule = TruncationRule.fixed(signal_rank + 2) if noise == 0 else DEFAULT_BIN_RULE
        assert _projection(x1, x2, rule).basis is not None  # the R route runs
        result = od.dmd(x1, x2, rule)
        svd, a_tilde, lam, phi, _ = direct_fit(x1, x2, rule)

        assert (result.rank, result.rank_clamped) == (svd.rank, svd.rank_clamped)
        assert result.rank_clamped == (noise == 0)
        eps, r, s = np.finfo(float).eps, svd.rank, svd.singular_values
        delta = m * mu * eps * np.linalg.norm(x)
        assert np.max(np.abs(result.singular_values[:r] - s[:r])) <= 2 * delta
        below = s[r] if r < s.size else 0.0
        eps_a = 2 * delta * (1 + np.linalg.norm(a_tilde, 2)) * (1 / s[r - 1] + 1 / (s[r - 1] - below))
        w = np.linalg.eig(a_tilde)[1]
        kappa = np.linalg.cond(w)
        phi_r = result.modes
        for k, value in enumerate(result.eigenvalues):
            j = int(np.argmin(np.abs(lam - value)))
            assert abs(lam[j] - value) <= kappa * eps_a
            gap = np.min(np.abs(np.delete(lam, j) - lam[j])) if r > 1 else 1.0
            inner = np.vdot(phi[:, j], phi_r[:, k])
            aligned = phi[:, j] * inner / abs(inner)
            assert np.linalg.norm(phi_r[:, k] - aligned) <= 2 * r * kappa * eps_a / gap + m * eps

    @pytest.mark.parametrize("m", [16, 960])
    def test_all_zero_input_has_no_signal(self, m):
        x = np.zeros((m, 16))
        with pytest.raises(ZeroSignalError):
            od.dmd(x[:, :-1], x[:, 1:], DEFAULT_BIN_RULE)

    def test_modes_have_unit_norm(self):
        """Phi = Q U_R W: orthonormal Q and U_R and unit W columns, so ||phi_k|| = 1 to rounding."""
        x = shifted_trajectory(3, 1000, 16, 6, 0.05)
        result = od.dmd(x[:, :-1], x[:, 1:], DEFAULT_BIN_RULE)
        norms = np.linalg.norm(result.modes, axis=0)
        assert np.max(np.abs(norms - 1)) <= 100 * np.finfo(float).eps

    def test_lifted_columns_are_the_modes(self):
        """A slow set's lift, one real product on its coefficient columns, is those columns of Phi.

        Each entry is a sum of k = mu products of Q's entries with the
        coefficients, all at most 1 in magnitude, so any two BLAS orders of
        it agree to 2 k eps; the products' columns sit in different output
        tiles, so bits may differ.
        """
        x = shifted_trajectory(4, 500, 16, 6, 0.05)
        result = od.dmd(x[:, :-1], x[:, 1:], DEFAULT_BIN_RULE)
        pair = conjugate_pairs(result.eigenvalues)
        idx = np.delete(np.arange(result.rank), pair + 1)[::2]
        assert np.max(np.abs(result.lifted(idx) - result.modes[:, idx])) <= 2 * 16 * np.finfo(float).eps
        assert np.array_equal(result.modes[:, pair + 1], result.modes[:, pair].conj())


class TestGramRoute:
    @pytest.mark.parametrize("source", ["lfo_gapped_embedded", "random"])
    def test_lagged_gram_is_the_gram_of_the_rows(self, source, request):
        """G equals H H^T of the stacked m + 1 rows within 2 (m + n) eps n max|s|^2.

        Each entry of G takes at most m diagonal updates after its first-row
        correlation, so it errs by at most about (n + 2 m) eps n max|s|^2;
        the reference product errs by at most n eps n max|s|^2.
        """
        x1, x2 = hankel_source(source, request)
        m, n = x1.shape
        series = _hankel_series(x1, x2)
        rows = np.vstack([x1, x2[-1:]])
        g = _lagged_gram(series, n)
        bound = 2 * (m + n) * np.finfo(float).eps * n * np.max(np.abs(series)) ** 2
        assert np.max(np.abs(g - rows @ rows.T)) <= bound
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("source", ["lfo_gapped_embedded", "random"])
    def test_matches_qr_route(self, source, request):
        """The Gram route gives the QR route's rank, its retained sigma to 1e-12 sigma_1,
        its eigenvalues to 1e-9 relative and its series to 1e-9 x max."""
        x1, x2 = hankel_source(source, request)
        n = x1.shape[1]
        assert _gram_projection(_hankel_series(x1, x2), n, od.DEFAULT_RULE) is not None
        result, want = od.dmd(x1, x2, od.DEFAULT_RULE), qr_route(x1, x2)
        r = want.rank
        assert result.rank == r and not result.rank_clamped and not want.rank_clamped
        s = want.singular_values
        assert np.max(np.abs(result.singular_values[:r] - s[:r])) <= 1e-12 * s[0]
        got, lam = np.sort_complex(result.eigenvalues), np.sort_complex(want.eigenvalues)
        assert np.max(np.abs(got - lam) / np.abs(lam)) <= 1e-9
        series, reference = reconstruct_series(result, n), reconstruct_series(want, n)
        assert np.max(np.abs(series - reference)) <= 1e-9 * np.max(np.abs(reference))

    @pytest.mark.parametrize("case", ["noise-free above the signal rank", "squares overflow"])
    def test_unresolved_gram_takes_the_qr_route_bit_for_bit(self, case):
        """When sigma_r is not resolved from sigma^2, the fit is the QR route's, bit for bit.

        Noise-free input at a rank above its signal rank has sigma_r at
        rounding level, and the fit is clamped. Samples near 1e160 overflow
        G but not the QR.
        """
        if case == "noise-free above the signal rank":
            (x1, x2), _ = planted_pair([od.ModeSpec(8.6, -0.2, 1.0), od.ModeSpec(31.0, 0.0, 0.5)], dc=1.0)
            rank = 8
        else:
            x1, x2 = (1e160 * x for x in random_hankel_pair())
            rank = 6
        assert x1.shape[1] > x1.shape[0] + 1
        series = _hankel_series(x1, x2)
        assert _gram_projection(series, x1.shape[1], TruncationRule.fixed(rank)) is None
        result = od.dmd(x1, x2, TruncationRule.fixed(rank))
        assert result.rank_clamped == (case == "noise-free above the signal rank")
        low = _hankel_factor(series, x1.shape[1])
        assert_fit_bit_for_bit(result, low[:-1], low[1:], x1[:, 0], rank)

    def test_rank_above_depth_takes_the_qr_route(self):
        x1, x2 = random_hankel_pair()
        assert _gram_projection(_hankel_series(x1, x2), x1.shape[1], TruncationRule.fixed(31)) is None
        result = od.dmd(x1, x2, TruncationRule.fixed(31))
        assert result.rank_clamped and result.rank == 30

    def test_all_zero_window_raises(self):
        """A window that a gap covers entirely (compare's gap-covering case) has no signal."""
        hankel = np.lib.stride_tricks.sliding_window_view(np.zeros(600), 501)
        with pytest.raises(ZeroSignalError):
            od.dmd(hankel[:, :-1], hankel[:, 1:])

    def test_gram_fit_peak_does_not_grow_with_n(self):
        """numpy's tracked peak of a Gram fit is set by m, not by the record length n.

        At one depth m and a small rank, a record ten times longer raises
        the peak by less than two copies of its extra samples (the series
        is copied once), and the peak stays under 4 (m+1)^2 8 bytes: G and
        eigh's eigenvectors. An m x n copy of the rows, as the QR route
        makes, exceeds both.
        """
        m, rule, peaks = 200, TruncationRule.fixed(20), []
        for length in (4 * m, 40 * m):
            series = np.random.default_rng(3).normal(size=length)
            hankel = np.lib.stride_tricks.sliding_window_view(series, length - m + 1)
            x1, x2 = hankel[:, :-1], hankel[:, 1:]
            assert _gram_projection(_hankel_series(x1, x2), x1.shape[1], rule) is not None
            tracemalloc.start()
            try:
                od.dmd(x1, x2, rule)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 8 * 36 * m
        assert max(peaks) < 4 * (m + 1) ** 2 * 8


class TestReconstructSeries:
    @staticmethod
    def assert_matches_window(result, n):
        want = unembed(reconstruct_window(result, n).real)
        got = reconstruct_series(result, n)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_window_on_lfo(self, lfo_gapped_embedded, lfo_gapped_dmd):
        result, _ = lfo_gapped_dmd
        self.assert_matches_window(result, lfo_gapped_embedded.shape[1])

    def test_series_peak_below_one_real_window(self, lfo_gapped_embedded, lfo_gapped_dmd):
        """numpy's tracked peak stays below one real m x n array.

        The FFT blocks hold a bounded number of modes' spectra; a product
        of the whole window, or one block over every mode, exceeds it.
        """
        result, _ = lfo_gapped_dmd
        m, n = lfo_gapped_embedded.shape
        tracemalloc.start()
        try:
            reconstruct_series(result, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8

    def test_growing_mode_over_a_long_window(self):
        modes = [od.ModeSpec(7.0, 2.0, 1.0), od.ModeSpec(3.0, -1.0, 0.5)]
        (x1, x2), rec = planted_pair(modes, fs=500.0, duration=3.0, depth=50)
        n = x1.shape[1] + 1
        assert n > 1024
        result = od.dmd(x1, x2, TruncationRule.fixed(4))
        assert np.max(np.abs(result.eigenvalues)) > 1.0
        self.assert_matches_window(result, n)

    def test_zero_eigenvalue(self, lfo_clean_dmd):
        result, _ = lfo_clean_dmd
        lam = result.eigenvalues.copy()
        lam[0] = 0.0
        zeroed = dataclasses.replace(result, eigenvalues=lam)
        for n in (1, 2, 1027):
            self.assert_matches_window(zeroed, n)
        window = reconstruct_window(zeroed, 3)
        np.testing.assert_allclose(
            window[:, 1], zeroed.modes[:, 1:] @ (zeroed.amplitudes[1:] * lam[1:]), rtol=1e-12
        )

    @staticmethod
    def pair_fit(case: str) -> od.DmdResult:
        """A small fit with conjugate pairs, changed as ``case`` says."""
        if case == "real spectrum":
            t = np.arange(300.0)
            x = 1.0 * 0.99**t + 0.5 * 0.95**t + 0.3 * (-0.9) ** t
            h = np.lib.stride_tricks.sliding_window_view(x, 280)
            fit = od.dmd(h[:, :-1], h[:, 1:], TruncationRule.fixed(3))
            assert np.all(fit.eigenvalues.imag == 0)
            return fit
        (x1, x2), _ = planted_pair(
            [od.ModeSpec(8.6, -0.2, 1.0), od.ModeSpec(31.0, 0.3, 0.5)], fs=500.0, duration=1.0,
            depth=40, dc=1.0, noise=0.01,
        )
        fit = od.dmd(x1, x2, TruncationRule.fixed(12))
        pair = conjugate_pairs(fit.eigenvalues)
        assert pair.size >= 3
        if case == "unconjugate amplitudes":
            b = fit.amplitudes.copy()
            b[pair + 1] = b[pair].conj() * (1 + np.random.default_rng(13).normal(size=pair.size) * (0.5 + 0.5j))
            return dataclasses.replace(fit, amplitudes=b)
        lam = fit.eigenvalues.copy()
        lam[np.flatnonzero(lam.imag == 0)[0]] = 0.0
        zeroed = dataclasses.replace(fit, eigenvalues=lam)
        assert np.array_equal(conjugate_pairs(lam), pair)
        return zeroed

    @pytest.mark.parametrize("case", ["unconjugate amplitudes", "real spectrum", "zero eigenvalue"])
    @pytest.mark.parametrize("n", [1, 2, 1027])
    def test_folded_pairs_match_the_window(self, case, n):
        """One convolution per pair gives the window's series, whether or not b' = conj(b)."""
        self.assert_matches_window(self.pair_fit(case), n)

    def test_powers_match_integer_powers(self):
        lam = np.array([0.0, 1.0, -0.5, 0.9 + 0.3j, 1.02 - 0.1j, 1e-3j])
        j = np.arange(60)
        want = np.array([[complex(v) ** int(k) for k in j] for v in lam])
        np.testing.assert_allclose(_powers(lam, j), want, rtol=1e-12, atol=1e-300)

    def test_needs_a_column(self, lfo_clean_dmd):
        with pytest.raises(ValueError):
            reconstruct_series(lfo_clean_dmd[0], 0)

    @pytest.mark.parametrize("r", [0, 1, 64, 65, 150])
    def test_kernel_matches_dense_product_over_blocks(self, r):
        """Sums over one, several and partial mode blocks equal the dense product's."""
        rng = np.random.default_rng(r)
        rows, width = 37, 211
        modes = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
        coeff = rng.normal(size=(r, width)) + 1j * rng.normal(size=(r, width))
        got = product_antidiagonal_sums(modes, lambda k: coeff[k], width)
        want = antidiagonal_sums((modes @ coeff).real)
        assert got.shape == (rows + width - 1,)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
