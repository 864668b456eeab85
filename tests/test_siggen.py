"""Synthetic-signal generator: determinism and the recovery oracle contract."""

from __future__ import annotations

import numpy as np
import pytest

import oscidmd as od


def test_deterministic_for_fixed_seed():
    a = od.generate([od.ModeSpec(5.0, -0.2, 1.0)], dc=1.0, fs=100, duration=2, noise_std=0.3, seed=9)
    b = od.generate([od.ModeSpec(5.0, -0.2, 1.0)], dc=1.0, fs=100, duration=2, noise_std=0.3, seed=9)
    assert np.array_equal(a.data, b.data)


def test_seed_changes_noise():
    a = od.generate([], dc=0.0, fs=100, duration=1, noise_std=0.3, seed=1)
    b = od.generate([], dc=0.0, fs=100, duration=1, noise_std=0.3, seed=2)
    assert not np.array_equal(a.data, b.data)


def test_empty_mode_list_yields_constant():
    rec = od.generate([], dc=0.0, fs=50, duration=1)
    assert np.all(rec.data == 0.0)
    rec2 = od.generate([], dc=2.5, fs=50, duration=1)
    assert np.all(rec2.data == 2.5)


def test_sample_value_formula():
    mode = od.ModeSpec(frequency_hz=3.0, growth_rate=-0.7, amplitude=1.4, phase=0.6)
    rec = od.generate([mode], dc=0.2, fs=40, duration=1.0)
    t = np.arange(40) / 40.0
    want = 0.2 + 1.4 * np.exp(-0.7 * t) * np.cos(2 * np.pi * 3.0 * t + 0.6)
    np.testing.assert_allclose(rec.data[0], want, rtol=1e-12)


def test_aliasing_rejected():
    with pytest.raises(ValueError, match="alias"):
        od.generate([od.ModeSpec(30.0, 0.0, 1.0)], dc=0.0, fs=60.0, duration=1.0)


def test_too_short_rejected():
    with pytest.raises(ValueError):
        od.generate([], dc=0.0, fs=10.0, duration=0.05)


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        od.ModeSpec(frequency_hz=-1.0)


def test_recovery_oracle_contract():
    """Noiseless generation followed by DMD recovers every (f, sigma) to 1e-6."""
    modes = [
        od.ModeSpec(5.0, 0.0, 1.0),
        od.ModeSpec(12.0, -1.5, 0.7),
        od.ModeSpec(33.0, -4.0, 0.4),
    ]
    rec = od.generate(modes, dc=2.0, fs=200.0, duration=3.0)
    hankel = od.delay_embed(rec, "signal", 120)
    x1, x2 = od.shifted_pair(hankel)
    # rank covers DC plus the three conjugate pairs exactly
    result = od.dmd(x1, x2, od.TruncationRule.fixed(7), dt=rec.dt)
    reports = od.reports_from_dmd(result, f_sp=1.0 / rec.dt, horizon_steps=x1.shape[1])
    for m in modes:
        best = min(reports, key=lambda r: abs(r.frequency_hz - m.frequency_hz))
        assert abs(best.frequency_hz - m.frequency_hz) <= 1e-6 * m.frequency_hz
        assert abs(best.growth_rate - m.growth_rate) <= 1e-6 * max(1.0, abs(m.growth_rate))


def test_profiles_available():
    assert set(od.PROFILES) == {"lfo_udc", "ac_in"}
    lfo = od.PROFILES["lfo_udc"]
    assert lfo.dc == 170.0
    assert lfo.fs == 2500.0
    assert lfo.duration == 2.0
    assert [m.frequency_hz for m in lfo.modes] == [8.6]
    ac = od.PROFILES["ac_in"]
    assert sorted(m.frequency_hz for m in ac.modes) == [41.4, 50.0, 58.6]


def test_generate_profile_returns_truth(lfo_clean):
    rec, profile = lfo_clean
    assert rec.length == 5000
    assert rec.dt == pytest.approx(4e-4)
    assert rec.names == ("u_dc",)
    truth = profile.dominant_truth()
    assert truth.frequency_hz == 8.6
    assert truth.growth_rate == 0.0


def test_ac_truth_is_fundamental():
    _, profile = od.generate_profile("ac_in", seed=0)
    assert profile.dominant_truth().frequency_hz == 50.0


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        od.generate_profile("mystery")


def test_noise_override():
    rec, profile = od.generate_profile("lfo_udc", seed=0, noise_std=0.0)
    assert profile.noise_std == 0.0
    t = np.arange(5000) * rec.dt
    want = 170.0 + 6.0 * np.cos(2 * np.pi * 8.6 * t)
    np.testing.assert_allclose(rec.data[0], want, rtol=1e-12)


@pytest.mark.parametrize("noise_std", [-1.0, -1e-300, float("nan")])
def test_negative_or_nan_noise_rejected(noise_std):
    with pytest.raises(ValueError, match="noise_std"):
        od.generate([], dc=0.0, fs=100, duration=1, noise_std=noise_std)
    with pytest.raises(ValueError, match="noise_std"):
        od.generate_profile("lfo_udc", noise_std=noise_std)
