"""Synthetic test signals with exactly known modal content.

Every diagnostic in the test suite checks against signals produced here,
so generation is deterministic (bit-exact for a fixed seed) and each
profile records its ground-truth mode table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ingest import FILL_ZERO, SignalRecord


@dataclass(frozen=True)
class ModeSpec:
    """One planted mode: a * e^(sigma t) * cos(2 pi f t + phase)."""

    frequency_hz: float
    growth_rate: float = 0.0
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.frequency_hz < 0:
            raise ValueError("frequency must be non-negative")


@dataclass(frozen=True)
class SignalProfile:
    """Named generation recipe addressable from the CLI."""

    name: str
    channel: str
    modes: tuple[ModeSpec, ...]
    dc: float
    fs: float
    duration: float
    noise_std: float
    description: str = ""

    def dominant_truth(self) -> ModeSpec | None:
        """Highest-amplitude oscillatory mode, the reference for error metrics."""
        osc = [m for m in self.modes if m.frequency_hz > 0]
        return max(osc, key=lambda m: abs(m.amplitude)) if osc else None


def generate(
    modes: list[ModeSpec] | tuple[ModeSpec, ...],
    dc: float,
    fs: float,
    duration: float,
    noise_std: float = 0.0,
    seed: int = 0,
    channel: str = "signal",
) -> SignalRecord:
    """Synthesize one channel of modal content plus Gaussian noise.

    Rejects sample rates at or below twice the fastest planted frequency,
    and a noise level that is negative or NaN.
    """
    if not fs > 0:
        raise ValueError("sample rate must be positive")
    if not noise_std >= 0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std!r}")
    f_max = max((m.frequency_hz for m in modes), default=0.0)
    if f_max > 0 and not fs > 2.0 * f_max:
        raise ValueError(
            f"sample rate {fs} Hz aliases a planted {f_max} Hz mode; need fs > {2 * f_max} Hz"
        )
    n = round(duration * fs)
    if n < 2:
        raise ValueError("duration * fs must give at least 2 samples")
    t = np.arange(n) / fs
    x = np.full(n, float(dc))
    for m in modes:
        x += m.amplitude * np.exp(m.growth_rate * t) * np.cos(2.0 * np.pi * m.frequency_hz * t + m.phase)
    if noise_std > 0:
        x += np.random.default_rng(seed).normal(0.0, noise_std, n)
    return SignalRecord(
        names=(channel,),
        data=x[None, :],
        missing_mask=np.zeros((1, n), dtype=bool),
        dt=1.0 / fs,
        t0=0.0,
        fill_policy=FILL_ZERO,
    )


# DC-side surrogate: 170 V link voltage carrying a sustained 8.6 Hz
# low-frequency oscillation, 2 s at 2500 Hz.
_LFO_UDC = SignalProfile(
    name="lfo_udc",
    channel="u_dc",
    modes=(ModeSpec(frequency_hz=8.6, growth_rate=0.0, amplitude=6.0),),
    dc=170.0,
    fs=2500.0,
    duration=2.0,
    noise_std=0.05,
    description="DC-link voltage with a sustained 8.6 Hz low-frequency oscillation",
)

# AC-side surrogate: 50 Hz fundamental amplitude-modulated at 8.6 Hz,
# i.e. sidebands at 50 -/+ 8.6 Hz with equal amplitudes.
_AC_IN = SignalProfile(
    name="ac_in",
    channel="i_ac",
    modes=(
        ModeSpec(frequency_hz=50.0, growth_rate=0.0, amplitude=10.0),
        ModeSpec(frequency_hz=41.4, growth_rate=0.0, amplitude=3.0),
        ModeSpec(frequency_hz=58.6, growth_rate=0.0, amplitude=3.0),
    ),
    dc=0.0,
    fs=2500.0,
    duration=2.0,
    noise_std=0.05,
    description="grid current with 8.6 Hz sidebands around the 50 Hz fundamental",
)

PROFILES: dict[str, SignalProfile] = {p.name: p for p in (_LFO_UDC, _AC_IN)}


def generate_profile(
    name: str, seed: int = 0, noise_std: float | None = None
) -> tuple[SignalRecord, SignalProfile]:
    """Instantiate a named profile; returns the record and its ground truth."""
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    profile = PROFILES[name]
    if noise_std is not None:
        profile = replace(profile, noise_std=noise_std)
    rec = generate(
        profile.modes,
        dc=profile.dc,
        fs=profile.fs,
        duration=profile.duration,
        noise_std=profile.noise_std,
        seed=seed,
        channel=profile.channel,
    )
    return rec, profile
