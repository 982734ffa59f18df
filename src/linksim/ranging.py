"""Two-way time-of-flight ranging and radar-style echo processing.

Two independent measurement paths:

* TWR: four timestamps from a packet exchange give the round trip minus
  the responder's reply time; a constant responder clock offset cancels
  algebraically, while clock drift leaves a residual error of about
  drift * reply_time * c / 2 (documented, not corrected).
* Echo: the node listens to its own transmission.  The known transmit
  waveform is first projected out at zero delay (self-interference
  cancellation), then cross-correlated; the peak gives the round-trip
  delay at sample granularity, so range error is bounded by
  c / (2 * sample_rate).  Doppler velocity comes from the slope of the
  per-block phase progression of the echo.

The correlation is a fast-convolution matched filter.  A search of the
delays 0 .. D zero-pads both N-sample waveforms to L, the smallest
2^a * 3^b * 5^c at or above N + D (the sizes a mixed-radix FFT transforms
fastest), so the circular correlation of their spectra has no wrap-around
at the D + 1 delays kept.  That costs O(L log L) per search instead of the
O(N^2) of the direct form, and the transmit spectrum is computed once per
measurement, however many cancellation passes reuse it.  A full search
keeps every delay (D = N - 1); ``echo_range`` given a ``max_range`` keeps
only the delays up to that range's round trip, the range gate of a radar
whose targets cannot lie farther.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import add_noise
from .errors import AmbiguousVelocityError, MeasurementError, NoTargetError

SPEED_OF_LIGHT = 299_792_458.0

DEFAULT_PEAK_THRESHOLD = 0.3


@dataclass(frozen=True)
class TwrExchange:
    """Timestamps of one two-way ranging exchange.

    t1/t4 are initiator clock, t2/t3 responder clock.  The offset and
    drift fields describe how the responder clock was generated; the range
    computation deliberately never reads them.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    responder_clock_offset: float = 0.0
    responder_clock_drift_ppm: float = 0.0

    def __post_init__(self) -> None:
        if self.t4 <= self.t1:
            raise ValueError("need t1 < t4")
        if self.t3 < self.t2:
            raise ValueError("need t2 <= t3 (non-negative reply time)")


@dataclass(frozen=True)
class EchoScene:
    """Geometry and impairments of a monostatic echo measurement.

    ``block_len`` and ``carrier_wavelength`` define the per-block Doppler
    rotation; ``echo_snr_db`` is the SNR of the echo after reflection
    (None means noiseless).  ``residual_si_power_db`` scales the zero-delay
    self-interference copy relative to the echo amplitude.
    """

    true_range: float                 # meters
    sample_rate: float                # Hz
    bandwidth: float                  # Hz
    relative_velocity: float = 0.0    # m/s, positive = closing
    reflection_gain_db: float = 0.0
    residual_si_power_db: float | None = None
    echo_snr_db: float | None = None
    block_len: int = 256              # samples per Doppler block
    carrier_wavelength: float = 0.05  # meters

    def __post_init__(self) -> None:
        if self.true_range <= 0:
            raise ValueError("true_range must be > 0")
        if self.sample_rate < self.bandwidth:
            raise ValueError("sample_rate must be >= bandwidth")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.carrier_wavelength <= 0:
            raise ValueError("carrier_wavelength must be > 0")

    @property
    def round_trip_samples(self) -> int:
        return _round_trip_samples(self.true_range, self.sample_rate)


def _round_trip_samples(distance: float, sample_rate: float) -> int:
    """The round trip of ``distance`` meters, to the nearest sample."""
    return round(2 * distance / SPEED_OF_LIGHT * sample_rate)


@dataclass(frozen=True)
class RangeEstimate:
    range: float
    peak_quality: float

    def __post_init__(self) -> None:
        if self.range < 0:
            raise ValueError("range must be >= 0")
        if not 0 <= self.peak_quality <= 1:
            raise ValueError("peak_quality must be in [0, 1]")


def twr_range(x: TwrExchange) -> float:
    """Range from a timestamp exchange: c * ((t4-t1) - (t3-t2)) / 2."""
    tof = ((x.t4 - x.t1) - (x.t3 - x.t2)) / 2.0
    if tof < 0:
        raise MeasurementError(f"computed time of flight {tof:.3e} s is negative")
    return SPEED_OF_LIGHT * tof


def simulate_twr_exchange(true_range: float, reply_time: float = 1e-6,
                          t1: float = 0.0, clock_offset: float = 0.0,
                          clock_drift_ppm: float = 0.0) -> TwrExchange:
    """Generate the timestamps a real exchange would produce.

    The responder clock reads R(t) = offset + (1 + drift) * t, with drift
    given in parts per million.  ``reply_time`` is t3 - t2 in the responder
    clock.
    """
    drift = clock_drift_ppm * 1e-6
    tof = true_range / SPEED_OF_LIGHT
    t2 = clock_offset + (1 + drift) * (t1 + tof)
    t3 = t2 + reply_time
    true_reply_end = (t3 - clock_offset) / (1 + drift)
    t4 = true_reply_end + tof
    return TwrExchange(t1=t1, t2=t2, t3=t3, t4=t4,
                       responder_clock_offset=clock_offset,
                       responder_clock_drift_ppm=clock_drift_ppm)


def generate_echo(tx: np.ndarray, scene: EchoScene,
                  seed: int | np.random.Generator = 0) -> np.ndarray:
    """Back-scattered waveform: delayed echo + self-interference + noise.

    ``seed`` seeds the noise, or is the generator it is drawn from.
    """
    tx = np.asarray(tx, dtype=np.complex128)
    if tx.size == 0:
        raise ValueError("transmit waveform must be non-empty")
    delay = scene.round_trip_samples
    if delay >= len(tx):
        raise ValueError(
            f"round-trip delay of {delay} samples exceeds waveform length {len(tx)}")
    echo_amp = 10.0 ** (scene.reflection_gain_db / 20.0)
    rx = np.zeros(len(tx), dtype=np.complex128)
    np.multiply(tx[: len(tx) - delay], echo_amp, out=rx[delay:])
    if scene.relative_velocity != 0.0:
        t_block = scene.block_len / scene.sample_rate
        dphi = 4 * np.pi * scene.relative_velocity * t_block / scene.carrier_wavelength
        block_idx = np.arange(len(tx)) // scene.block_len
        rotation = 1j * dphi * block_idx
        rx *= np.exp(rotation, out=rotation)
    if scene.residual_si_power_db is not None:
        si_amp = echo_amp * 10.0 ** (scene.residual_si_power_db / 20.0)
        rx += si_amp * tx
    if scene.echo_snr_db is not None:
        echo_power = np.mean(np.abs(tx) ** 2) * echo_amp ** 2
        sigma2 = echo_power / 10.0 ** (scene.echo_snr_db / 10.0)
        add_noise(rx, np.random.default_rng(seed), math.sqrt(sigma2 / 2.0))
    return rx


def _echo_pair(tx: np.ndarray, rx: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """``tx`` and ``rx`` as complex arrays, and ``vdot(tx, tx)``, the
    transmit energy; both must be sampled alike, and the transmit waveform
    must carry energy to correlate against."""
    tx = np.asarray(tx, dtype=np.complex128)
    rx = np.asarray(rx, dtype=np.complex128)
    if len(tx) != len(rx):
        raise ValueError("tx and rx must be sampled alike (equal lengths)")
    energy = np.vdot(tx, tx)
    if energy.real == 0.0:
        raise ValueError("transmit waveform has zero energy; there is no "
                         "echo to correlate against")
    return tx, rx, energy


def _cancel_self_interference(tx: np.ndarray, rx: np.ndarray,
                              energy: complex) -> np.ndarray:
    """rx minus the least-squares zero-delay projection of tx, in a new
    array; ``energy`` is ``vdot(tx, tx)``."""
    work = np.multiply(np.vdot(tx, rx) / energy, tx)
    return np.subtract(rx, work, out=work)


@lru_cache(maxsize=256)  # a run asks every trial for the same size
def _fft_size(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c at or above ``n`` (at least 1)."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:  # 3^b * 5^c, times the fewest twos reaching n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _matched_filter(tx: np.ndarray, lags: int) -> np.ndarray:
    """Conjugate spectrum of ``tx`` zero-padded to ``_fft_size(N + lags -
    1)``, the fewest points whose circular correlation leaves the delays
    0 .. lags-1 free of wrap-around."""
    spectrum = np.fft.fft(tx, _fft_size(len(tx) + lags - 1))
    return np.conj(spectrum, out=spectrum)


def _correlation(matched: np.ndarray, work: np.ndarray,
                 lags: int) -> np.ndarray:
    """sum_n work[n + d] * conj(tx[n]) at the delays d = 0 .. lags-1, for
    the ``tx`` whose ``_matched_filter`` for ``lags`` is ``matched``."""
    spectrum = np.fft.fft(work, len(matched))
    spectrum *= matched
    return np.fft.ifft(spectrum, out=spectrum)[:lags]


def _strongest_echo(tx: np.ndarray, matched: np.ndarray, work: np.ndarray,
                    sample_rate: float, lags: int
                    ) -> tuple[int, complex, RangeEstimate]:
    """Delay of the correlation peak of ``work`` against ``tx`` over the
    delays 0 .. lags-1 (``matched`` is the ``_matched_filter`` of ``tx``
    for ``lags``), the correlation there and the range estimate it
    gives."""
    corr = _correlation(matched, work, lags)
    mags = np.abs(corr)
    d = int(np.argmax(mags))
    quality = float(min(
        mags[d] / (np.linalg.norm(tx) * np.linalg.norm(work) + 1e-300), 1.0))
    return d, corr[d], RangeEstimate(
        range=SPEED_OF_LIGHT * d / (2.0 * sample_rate), peak_quality=quality)


def echo_range(tx: np.ndarray, rx: np.ndarray, sample_rate: float,
               cancel_si: bool = True,
               peak_threshold: float = DEFAULT_PEAK_THRESHOLD,
               max_range: float | None = None) -> RangeEstimate:
    """Range from the correlation peak of the (SI-cancelled) echo, to the
    nearest sample.

    Every delay of the waveform is searched, or, given ``max_range`` in
    meters, only the delays up to its round trip (``EchoScene``'s
    rounding, at most N - 1 samples): a peak beyond it is no target.
    """
    tx, rx, energy = _echo_pair(tx, rx)
    lags = len(tx)
    if max_range is not None:
        if not 0.0 <= max_range < math.inf:
            raise ValueError(f"max_range must be finite and >= 0, "
                             f"got {max_range!r}")
        lags = min(_round_trip_samples(max_range, sample_rate), lags - 1) + 1
    work = _cancel_self_interference(tx, rx, energy) if cancel_si else rx.copy()
    _, _, estimate = _strongest_echo(tx, _matched_filter(tx, lags), work,
                                     sample_rate, lags)
    if estimate.peak_quality < peak_threshold:
        raise NoTargetError(f"normalized correlation peak "
                            f"{estimate.peak_quality:.3f} below {peak_threshold}")
    return estimate


def resolve_echoes(tx: np.ndarray, rx: np.ndarray, sample_rate: float,
                   n_targets: int = 2, cancel_si: bool = True) -> list[RangeEstimate]:
    """Successive-cancellation multi-target ranging.

    Repeatedly finds the strongest correlation peak, subtracts the
    least-squares-scaled echo at that delay, and searches again.  With a
    full-bandwidth waveform this resolves targets separated by one sample,
    i.e. c / (2 * sample_rate) in range.
    """
    tx, rx, energy = _echo_pair(tx, rx)
    work = _cancel_self_interference(tx, rx, energy) if cancel_si else rx.copy()
    matched = _matched_filter(tx, len(tx))
    estimates = []
    for _ in range(n_targets):
        d, peak, estimate = _strongest_echo(tx, matched, work, sample_rate,
                                            len(tx))
        estimates.append(estimate)
        shifted = np.zeros_like(work)
        shifted[d:] = tx[: len(tx) - d]
        work = work - (peak / energy.real) * shifted
    return sorted(estimates, key=lambda e: e.range)


def doppler_velocity(per_block_phases: np.ndarray, block_period: float,
                     carrier_wavelength: float) -> float:
    """Velocity from the least-squares slope of unwrapped block phases."""
    phases = np.asarray(per_block_phases, dtype=np.float64)
    if phases.size < 2:
        raise ValueError("need at least two block phases")
    if block_period <= 0 or carrier_wavelength <= 0:
        raise ValueError("block_period and carrier_wavelength must be > 0")
    diffs = np.angle(np.exp(1j * np.diff(phases)))
    if np.any(np.abs(diffs) >= np.pi * (1 - 1e-12)):
        raise AmbiguousVelocityError(
            "per-block phase step at or beyond pi; velocity is aliased")
    unwrapped = np.unwrap(phases)
    slope = np.polyfit(np.arange(len(phases)), unwrapped, 1)[0]
    return carrier_wavelength * slope / (4 * np.pi * block_period)
