"""Short-range multipath channel with a directive circularly polarized antenna.

The channel is a tapped delay line at symbol rate (integer sample delays).
Each tap carries a bounce count and a sidelobe flag; the antenna pattern
turns those into power penalties: paths arriving via the side lobe lose
(mainlobe - sidelobe) dB, and odd-bounce paths arrive cross-polarized and
lose a further ``crosspol_rejection`` dB.  The line-of-sight tap (bounce
count 0) is never scaled.  After convolution the waveform is rotated by a
carrier frequency offset and static phase, then AWGN is added at the
configured per-sample SNR relative to the received signal power.  A
model describes the channel; the seed passed with it picks one realization
and fully determines the noise (and optional tap-phase) draws.
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


#: rows whose noise power ``apply_channel`` computes in one call; it bounds
#: a buffer, not the results
_POWER_ROWS = 8


def apply_channel(tx: np.ndarray, models: ChannelModel | Sequence[ChannelModel],
                  seeds: int | Sequence[int] = 0) -> np.ndarray | list[np.ndarray]:
    """Convolve, rotate and add noise; output length = input + max delay.

    A ``(frames, samples)`` group takes one model and one noise seed per
    row and returns the received rows as a list, since models of different
    delay spreads give rows of different lengths; the rows of one-tap
    responses are views into one matrix.  A 1-D ``tx`` is a group of one:
    one model, one seed, one array back.  Each row is what it gets alone:
    its own generator, seeded by its seed, draws its tap phases and then
    its noise, the real part before the imaginary part.
    """
    tx = np.ascontiguousarray(tx, dtype=np.complex128)
    if tx.ndim == 1:
        return apply_channel(tx[None], [models], [seeds])[0]
    if tx.shape[1] == 0:
        raise ValueError("input waveform must be non-empty")
    if len(models) != len(tx) or len(seeds) != len(tx):
        raise ValueError(f"{len(tx)} frames need one model and one seed each, "
                         f"got {len(models)} models and {len(seeds)} seeds")
    if len(tx) == 0:
        return []
    rngs = [np.random.default_rng(seed) for seed in seeds]
    fixed: dict[int, np.ndarray] = {}   # id(model) -> response, no phase draws
    responses = []
    for model, rng in zip(models, rngs):
        if model.randomize_tap_phases:
            responses.append(impulse_response(model, rng))
        else:
            if id(model) not in fixed:
                fixed[id(model)] = impulse_response(model)
            responses.append(fixed[id(model)])
    rows = [np.convolve(row, h) if len(h) > 1 else None
            for row, h in zip(tx, responses)]
    one_tap = [r for r, h in enumerate(responses) if len(h) == 1]
    if one_tap:
        block = np.empty((len(one_tap), tx.shape[1]), dtype=np.complex128)
        _scale(tx if len(one_tap) == len(tx) else tx[one_tap],
               np.array([responses[r][0] for r in one_tap]), block)
        for r, row in zip(one_tap, block):
            rows[r] = row
    for row, model in zip(rows, models):
        if model.cfo != 0.0 or model.phase_offset != 0.0:
            n = np.arange(len(row))
            row *= np.exp(1j * (model.cfo * n + model.phase_offset))
    noisy = [r for r, m in enumerate(models) if m.snr_db is not None]
    for r, power in zip(noisy, _row_power(rows, noisy)):
        sigma2 = power / 10.0 ** (models[r].snr_db / 10.0)
        add_noise(rows[r], rngs[r], math.sqrt(sigma2 / 2.0))
    return rows


def add_noise(row: np.ndarray, rng: np.random.Generator, scale: float) -> None:
    """Add ``scale`` times complex white Gaussian noise to ``row`` in place.

    The result is ``row + (re + 1j * im) * scale``, bit for bit, with the
    real draws ``re`` taken before the imaginary ones.  Each part is drawn
    into one float buffer, scaled there and added to its half of ``row``:
    the scale's imaginary part is zero, so each part is rounded once, as in
    the complex product.
    """
    if scale == 0.0:
        # the complex product signs each zero noise sample from both draws,
        # which per-part products cannot
        noise = rng.standard_normal(len(row)) + 1j * rng.standard_normal(len(row))
        noise *= scale
        row += noise
        return
    part_noise = np.empty(len(row))
    for part in (row.real, row.imag):
        rng.standard_normal(out=part_noise)
        part_noise *= scale
        part += part_noise


def _scale(tx: np.ndarray, gains: np.ndarray, out: np.ndarray) -> None:
    """``np.convolve(tx[r], [gains[r]])`` for every row of finite samples,
    bit for bit, into ``out``.

    That convolution is one length-1 BLAS dot product per sample, whose
    real and imaginary accumulators start at 0.0: re = (0.0 + ar*gr) -
    (0.0 + ai*gi), im = (0.0 + ar*gi) + (0.0 + ai*gr).  Each product is
    rounded alone and the pair is added once.  Here the real product by gr
    gives (ar*gr, ai*gr), the complex product by 1j*gi gives (-ai*gi,
    ar*gi) plus exact zeros, and their sum gets the accumulators' 0.0,
    which only turns a -0.0 sum into 0.0.
    """
    floats = out.view(np.float64)
    np.multiply(tx.view(np.float64), gains.real[:, None], out=floats)
    cross = np.zeros(len(gains), dtype=np.complex128)
    cross.imag = gains.imag
    product = np.multiply(tx, cross[:, None])
    out += product
    floats += 0.0


def _row_power(rows: list[np.ndarray], picked: list[int]) -> list[float]:
    """``np.mean(np.abs(rows[r]) ** 2)`` for each picked row, bit for bit.

    Rows of one length go ``_POWER_ROWS`` at a time through one magnitude
    buffer and one ``np.mean`` along its rows (the pairwise sum along a
    matrix row is the 1-D sum), so no group-sized temporary is made.
    """
    by_length: dict[int, list[int]] = {}
    for r in picked:
        by_length.setdefault(len(rows[r]), []).append(r)
    buffer = np.empty((min(_POWER_ROWS, len(picked)), max(by_length, default=0)))
    power = {}
    for length, same in by_length.items():
        for start in range(0, len(same), _POWER_ROWS):
            block = same[start: start + _POWER_ROWS]
            mags = buffer[: len(block), :length]
            for j, r in enumerate(block):
                np.abs(rows[r], out=mags[j])
            np.square(mags, out=mags)
            power.update(zip(block, np.mean(mags, axis=1).tolist()))
    return [power[r] for r in picked]


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

