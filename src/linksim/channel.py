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

from .rng import SeededGenerators


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
            raise ValueError("taps must hold at least one tap")
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


def check_power_ratio(db: float, what: str) -> None:
    """A level the simulator scales or divides by needs a finite nonzero
    ``10 ** (db / 10)``; a ValueError naming ``what`` otherwise."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{what} is {db:g} dB, whose linear ratio {linear:g} "
                         "is not a finite nonzero number")


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


def apply_channel(tx: np.ndarray, models: Sequence[ChannelModel],
                  seeds: Sequence[int]) -> np.ndarray:
    """Convolve, rotate and add noise; output length = input + max delay.

    A ``(frames, samples)`` group takes one model and one noise seed per
    row, all models of one delay spread, and returns one ``(frames,
    samples + max_delay)`` matrix; a lone waveform is a group of one, a
    ``(1, samples)`` matrix.  Each row is what it gets alone: the
    generator ``np.random.default_rng`` makes of its seed draws its tap
    phases and then its noise, the real part before the imaginary part.
    The group's generator states are derived at once and played in turn on
    one generator (``rng.SeededGenerators``); a row that draws tap phases
    carries its state on to its noise.
    """
    tx = np.ascontiguousarray(tx, dtype=np.complex128)
    if tx.ndim != 2:
        raise ValueError("apply_channel takes a group of frames: a (frames, "
                         "samples) matrix")
    if tx.shape[1] == 0:
        raise ValueError("input waveform must be non-empty")
    if len(models) != len(tx) or len(seeds) != len(tx):
        raise ValueError(f"{len(tx)} frames need one model and one seed each, "
                         f"got {len(models)} models and {len(seeds)} seeds")
    spreads = {model.max_delay for model in models}
    if len(spreads) > 1:
        raise ValueError(f"a group's models must share one delay spread, "
                         f"got max delays {sorted(spreads)}")
    delay = max(spreads, default=0)
    rx = np.empty((len(tx), tx.shape[1] + delay), dtype=np.complex128)
    rngs = SeededGenerators(seeds)
    fixed: dict[int, np.ndarray] = {}   # id(model) -> response, no phase draws
    responses = []
    for r, model in enumerate(models):
        if model.randomize_tap_phases:
            responses.append(impulse_response(model, rngs[r]))
            rngs.keep(r)
        else:
            if id(model) not in fixed:
                fixed[id(model)] = impulse_response(model)
            responses.append(fixed[id(model)])
    if delay == 0:   # one-tap responses are scaled, not convolved
        _scale(tx, np.array([h[0] for h in responses]), rx)
    else:
        for row, frame, h in zip(rx, tx, responses):
            row[:] = np.convolve(frame, h)
    for row, model in zip(rx, models):
        if model.cfo != 0.0 or model.phase_offset != 0.0:
            n = np.arange(len(row))
            row *= np.exp(1j * (model.cfo * n + model.phase_offset))
    noisy = [r for r, m in enumerate(models) if m.snr_db is not None]
    for r, power in zip(noisy, _row_power(rx, noisy)):
        sigma2 = power / 10.0 ** (models[r].snr_db / 10.0)
        add_noise(rx[r], rngs[r], math.sqrt(sigma2 / 2.0))
    return rx


def add_noise(row: np.ndarray, rng: np.random.Generator, scale: float) -> None:
    """Add ``scale`` times complex white Gaussian noise to ``row`` in place.

    The result is ``row + (re + 1j * im) * scale``, bit for bit, with the
    real draws ``re`` taken before the imaginary ones.  Each part is drawn
    into one float buffer, scaled there and added to its half of ``row``:
    for a finite scale, whose imaginary part is zero, each part is rounded
    once, as in the complex product.
    """
    if scale == 0.0 or not math.isfinite(scale):
        # the complex product signs each zero noise sample from both draws,
        # and a non-finite scale's NaNs by its own order of operations,
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

    When every gain is real (gi is 0.0 or -0.0, as for coupling-los's
    1+0j), the complex product is skipped.  Its terms are then signed
    zeros, and adding a signed zero leaves a nonzero value as it is and
    changes only the sign of a zero, which the final 0.0 makes 0.0 either
    way.
    """
    floats = out.view(np.float64)
    np.multiply(tx.view(np.float64), gains.real[:, None], out=floats)
    if np.any(gains.imag):
        cross = np.zeros(len(gains), dtype=np.complex128)
        cross.imag = gains.imag
        product = np.multiply(tx, cross[:, None])
        out += product
    floats += 0.0


def _row_power(rows: np.ndarray, picked: list[int]) -> list[float]:
    """``np.mean(np.abs(rows[r]) ** 2)`` for each picked row, bit for bit.

    The rows go ``_POWER_ROWS`` at a time through one magnitude buffer and
    one ``np.mean`` along its rows (the pairwise sum along a matrix row is
    the 1-D sum), so no group-sized temporary is made.
    """
    buffer = np.empty((min(_POWER_ROWS, len(picked)), rows.shape[1]))
    power = []
    for start in range(0, len(picked), _POWER_ROWS):
        block = picked[start: start + _POWER_ROWS]
        mags = buffer[: len(block)]
        for j, r in enumerate(block):
            np.abs(rows[r], out=mags[j])
        np.square(mags, out=mags)
        power += np.mean(mags, axis=1).tolist()
    return power


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


def make_tap(delay: int, gain_db: float = 0.0, phase_deg: float = 0.0,
             bounce_count: int = 0, via_sidelobe: bool = False) -> ChannelTap:
    """A tap of amplitude gain ``gain_db`` and phase ``phase_deg``."""
    gain = _db_to_amplitude(gain_db) * np.exp(1j * np.deg2rad(phase_deg))
    return ChannelTap(delay, gain, bounce_count, via_sidelobe)


# Synthetic fixtures, not measurements: the coupling geometry is only
# described qualitatively in the literature, so these presets pin down
# deterministic tap sets with the right flavor (LOS-dominant, delay spread
# within the default CP of 32 samples).
_PRESET_TAPS = {
    "coupling-los": (make_tap(0, 0.0, 0.0, 0),),
    "coupling-mild": (
        make_tap(0, 0.0, 0.0, 0),
        make_tap(3, -10.0, 120.0, 2),
        make_tap(7, -15.0, -60.0, 2),
    ),
    "coupling-harsh": (
        make_tap(0, 0.0, 0.0, 0),
        make_tap(4, -6.0, 70.0, 1),
        make_tap(9, -8.0, 160.0, 2),
        make_tap(15, -10.0, -120.0, 2, via_sidelobe=True),
        make_tap(24, -13.0, 40.0, 3, via_sidelobe=True),
    ),
}

CHANNEL_PRESETS = tuple(_PRESET_TAPS)


def make_preset(name: str, **overrides) -> ChannelModel:
    """Build a named preset channel; overrides go to the ChannelModel fields."""
    if name not in _PRESET_TAPS:
        raise ValueError(
            f"unknown channel preset {name!r}; available: {', '.join(CHANNEL_PRESETS)}")
    return ChannelModel(taps=_PRESET_TAPS[name], **overrides)

