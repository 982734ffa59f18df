"""Short-range multipath channel with a directive circularly polarized antenna.

The channel is a tapped delay line at symbol rate (integer sample delays).
Each tap carries a bounce count and a sidelobe flag; the antenna pattern
turns those into power penalties: paths arriving via the side lobe lose
(mainlobe - sidelobe) dB, and odd-bounce paths arrive cross-polarized and
lose a further ``crosspol_rejection`` dB.  The line-of-sight tap (bounce
count 0) is never scaled.  After convolution the waveform is rotated by a
carrier frequency offset and static phase, then AWGN is added at the
configured per-sample SNR relative to the received signal power.  The seed
fully determines the noise (and optional tap-phase) realization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class AntennaPattern:
    mainlobe_gain: float = 18.0        # dBi
    sidelobe_gain: float = 4.0         # dBi
    crosspol_rejection: float = 15.0   # dB applied to odd-bounce paths

    def __post_init__(self) -> None:
        if self.mainlobe_gain <= self.sidelobe_gain:
            raise ValueError("mainlobe_gain must exceed sidelobe_gain")
        if self.crosspol_rejection < 0:
            raise ValueError("crosspol_rejection must be >= 0")


@dataclass(frozen=True)
class ChannelTap:
    delay: int
    gain: complex
    bounce_count: int = 0
    via_sidelobe: bool = False

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.bounce_count < 0:
            raise ValueError("bounce_count must be >= 0")


@dataclass(frozen=True)
class ChannelModel:
    taps: tuple[ChannelTap, ...]
    antenna: AntennaPattern = field(default_factory=AntennaPattern)
    snr_db: float | None = None    # per-sample SNR of the added AWGN
    cfo: float = 0.0               # radians/sample
    phase_offset: float = 0.0      # radians
    seed: int = 0
    randomize_tap_phases: bool = False   # re-draw reflected-tap phases per call

    def __post_init__(self) -> None:
        if len(self.taps) == 0:
            raise ValueError("channel needs at least one tap")
        delays = [t.delay for t in self.taps]
        if any(b >= a for a, b in zip(delays[1:], delays[:-1])):
            raise ValueError("tap delays must be strictly increasing")
        if sum(1 for t in self.taps if t.bounce_count == 0) > 1:
            raise ValueError("at most one line-of-sight tap (bounce_count 0)")

    @property
    def max_delay(self) -> int:
        return self.taps[-1].delay


def _db_to_amplitude(db: float) -> float:
    return 10.0 ** (db / 20.0)


def effective_taps(model: ChannelModel) -> list[tuple[int, complex]]:
    """Tap gains after the antenna pattern is applied.

    Sidelobe paths are attenuated by (mainlobe - sidelobe) dB; odd-bounce
    paths by a further crosspol_rejection dB.  The LOS tap passes through
    unscaled.
    """
    ant = model.antenna
    out = []
    for tap in model.taps:
        gain = complex(tap.gain)
        if tap.bounce_count > 0:
            penalty_db = 0.0
            if tap.via_sidelobe:
                penalty_db += ant.mainlobe_gain - ant.sidelobe_gain
            if tap.bounce_count % 2 == 1:
                penalty_db += ant.crosspol_rejection
            gain *= _db_to_amplitude(-penalty_db)
        out.append((tap.delay, gain))
    return out


def impulse_response(model: ChannelModel,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    h = np.zeros(model.max_delay + 1, dtype=np.complex128)
    for tap, (delay, gain) in zip(model.taps, effective_taps(model)):
        if (model.randomize_tap_phases and rng is not None
                and tap.bounce_count > 0):
            gain *= np.exp(2j * np.pi * rng.random())
        h[delay] += gain
    return h


def apply_channel(tx: np.ndarray, model: ChannelModel | Sequence[ChannelModel]
                  ) -> np.ndarray | list[np.ndarray]:
    """Convolve, rotate and add noise; output length = input + max delay.

    A ``(frames, samples)`` group takes one model per row and returns the
    received rows as a list, since models of different delay spreads give
    rows of different lengths.  Each row is what it gets alone: its own
    generator, seeded by its model, draws its tap phases and then its noise.
    """
    tx = np.asarray(tx, dtype=np.complex128)
    if tx.ndim == 2:
        return [apply_channel(row, row_model)
                for row, row_model in zip(tx, model, strict=True)]
    if tx.size == 0:
        raise ValueError("input waveform must be non-empty")
    rng = np.random.default_rng(model.seed)
    rx = np.convolve(tx, impulse_response(model, rng))
    if model.cfo != 0.0 or model.phase_offset != 0.0:
        n = np.arange(len(rx))
        rx *= np.exp(1j * (model.cfo * n + model.phase_offset))
    if model.snr_db is not None:
        power = np.mean(np.abs(rx) ** 2)
        sigma2 = power / 10.0 ** (model.snr_db / 10.0)
        noise = rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx))
        noise *= math.sqrt(sigma2 / 2.0)
        rx += noise
    return rx


def estimate_frequency_response(model: ChannelModel, fft_size: int) -> np.ndarray:
    """DFT of the effective impulse response on ``fft_size`` bins."""
    if fft_size < model.max_delay:
        raise ValueError(
            f"fft_size {fft_size} smaller than max tap delay {model.max_delay}")
    k = np.arange(fft_size)
    h = np.zeros(fft_size, dtype=np.complex128)
    for delay, gain in effective_taps(model):
        h += gain * np.exp(-2j * np.pi * k * delay / fft_size)
    return h


def _tap(delay: int, gain_db: float, phase_deg: float, bounces: int,
         sidelobe: bool = False) -> ChannelTap:
    gain = _db_to_amplitude(gain_db) * np.exp(1j * np.deg2rad(phase_deg))
    return ChannelTap(delay, gain, bounces, sidelobe)


# Synthetic fixtures, not measurements: the coupling geometry is only
# described qualitatively in the literature, so these presets pin down
# deterministic tap sets with the right flavor (LOS-dominant, delay spread
# within the default CP of 32 samples).
_PRESET_TAPS = {
    "coupling-los": (_tap(0, 0.0, 0.0, 0),),
    "coupling-mild": (
        _tap(0, 0.0, 0.0, 0),
        _tap(3, -10.0, 120.0, 2),
        _tap(7, -15.0, -60.0, 2),
    ),
    "coupling-harsh": (
        _tap(0, 0.0, 0.0, 0),
        _tap(4, -6.0, 70.0, 1),
        _tap(9, -8.0, 160.0, 2),
        _tap(15, -10.0, -120.0, 2, sidelobe=True),
        _tap(24, -13.0, 40.0, 3, sidelobe=True),
    ),
}

CHANNEL_PRESETS = tuple(_PRESET_TAPS)


def make_preset(name: str, **overrides) -> ChannelModel:
    """Build a named preset channel; overrides go to the ChannelModel fields."""
    if name not in _PRESET_TAPS:
        raise ValueError(
            f"unknown channel preset {name!r}; available: {', '.join(CHANNEL_PRESETS)}")
    return ChannelModel(taps=_PRESET_TAPS[name], **overrides)

