"""Monte Carlo driver for the echo-ranging scenario.

Each trial draws a true range uniformly from the configured window, builds
a random full-bandwidth QPSK chip waveform (chips are held for
sample_rate / bandwidth samples, at most the whole waveform), generates the
back-scattered signal and estimates the range, searching only the delays
up to the round trip of ``range_max_m`` (no drawn range lies farther, so a
peak beyond it could only be a false detection).  Rows of (trial,
true_range, est_range, error, peak_quality) make up the result CSV.

Trial t draws its range and chips from ``default_rng(stable_seed(master,
t, 0))`` and its echo noise from ``default_rng(stable_seed(master, t, 1))``.
The generators are derived a part of at most ``BLOCK_TRIALS`` trials at
a time, each set by one ``rng.SeededGenerators``; the part bounds the
states held, not the results.

A run maps its trials over the CPUs in parts of at most ``BLOCK_TRIALS``
trials on the package's one worker pool (``workers.imap``, whose
docstring states the split), the pool that link trials use too; the
records are joined in trial order.
Processes, not threads: a trial's generator blocks, ``EchoScene``,
records and small numpy calls hold the interpreter lock, as measured in
the README's CLI section.  No part holds another's generators, and a
trial's draws depend only on its seeds, so the rows are the same, bit for
bit, at any CPU count or part size.  A run of one trial, or on one CPU,
runs in the calling process and forks nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..channel import check_power_ratio
from ..errors import NoTargetError
from ..ranging import EchoScene, echo_range, generate_echo
from ..rng import SeededGenerators, raw_bits
from .seeding import stable_seed
from .workers import imap

BLOCK_TRIALS = 64

# the chip of real bit re and imaginary bit im at index re + 2 * im, by the
# formula of two integers(0, 2) draws
_CHIPS = (np.array([0, 1, 0, 1]) * 2 - 1 +
          1j * (np.array([0, 0, 1, 1]) * 2 - 1)) / np.sqrt(2)


@dataclass(frozen=True)
class RangingSpec:
    sample_rate_hz: float
    bandwidth_hz: float
    waveform_len: int
    trials: int
    range_min_m: float
    range_max_m: float
    reflection_gain_db: float = 0.0
    residual_si_power_db: float | None = None
    echo_snr_db: float | None = None
    relative_velocity_mps: float = 0.0
    block_len: int = 256
    carrier_wavelength_m: float = 0.05

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.range_min_m <= 0:
            raise ValueError("range_min_m must be > 0")
        if self.range_max_m <= self.range_min_m:
            raise ValueError("range_max_m must exceed range_min_m")
        if self.waveform_len < 2:
            raise ValueError("waveform_len must be >= 2")
        # the EchoScene limits, checked here so a config fails at parse time
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.sample_rate_hz < self.bandwidth_hz:
            raise ValueError("sample_rate_hz must be >= bandwidth_hz")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.carrier_wavelength_m <= 0:
            raise ValueError("carrier_wavelength_m must be > 0")
        # the echo scales and divides by these levels
        gain, si, snr = (self.reflection_gain_db, self.residual_si_power_db,
                         self.echo_snr_db)
        for name, db in (("reflection_gain_db", gain),
                         ("residual_si_power_db", si), ("echo_snr_db", snr)):
            if db is not None:
                check_power_ratio(db, name)
        # and by the levels it makes of them together: the noise (gain - SNR)
        # and the self-interference (gain + SI)
        for name, db, level, sign in (("echo_snr_db", snr, "noise", -1),
                                      ("residual_si_power_db", si,
                                       "self-interference", 1)):
            if db is not None:
                check_power_ratio(gain + sign * db, f"{name} {db:g} dB: the "
                                  f"{level} level at reflection_gain_db {gain:g} dB")
        # the received energy, waveform_len unit-modulus chips times the
        # squared sum of the echo, SI and noise amplitudes, must stay finite
        amplitudes = 1.0 + sum(10.0 ** (sign * db / 20.0) for db, sign in
                               ((si, 1), (snr, -1)) if db is not None)
        energy_db = (gain + 20.0 * math.log10(amplitudes)
                     + 10.0 * math.log10(self.waveform_len))
        check_power_ratio(energy_db, f"reflection_gain_db {gain:g} dB: the "
                          f"received energy of {self.waveform_len} samples")
        delay = EchoScene(self.range_max_m, self.sample_rate_hz,
                          self.bandwidth_hz).round_trip_samples
        if delay >= self.waveform_len:
            raise ValueError(
                f"range_max_m {self.range_max_m:g} needs a {delay}-sample round "
                f"trip, beyond waveform_len {self.waveform_len}")


@dataclass
class RangingTrialRecord:
    trial: int
    true_range_m: float
    est_range_m: float
    error_m: float
    peak_quality: float


@dataclass
class RangingResult:
    records: list[RangingTrialRecord]

    def csv_rows(self) -> tuple[list[dict], list[str]]:
        """One column per ``RangingTrialRecord`` field."""
        names = [f.name for f in fields(RangingTrialRecord)]
        return [{name: getattr(r, name) for name in names}
                for r in self.records], names


def ranging_waveform(n_samples: int, oversample: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Random QPSK chips, each held for ``oversample`` samples.

    The chips are ``(re * 2 - 1 + 1j * (im * 2 - 1)) / sqrt(2)`` for
    ``re`` and ``im`` two ``rng.integers(0, 2, n_chips)`` draws, bit for
    bit, when ``rng`` holds no spare 32-bit half (as after ``random()``).
    The bits are the ``rng.raw_bits`` of ``random_raw(n_chips)``; ``re``
    takes the first ``n_chips`` and ``im`` the next, because the second
    call starts on the half the first one left spare.
    """
    n_chips = -(-n_samples // oversample)
    bits = raw_bits(rng.bit_generator.random_raw(n_chips))
    chips = _CHIPS[bits[:n_chips] + 2 * bits[n_chips:]]
    return np.repeat(chips, oversample)[:n_samples]


def _ranging_share(trials: tuple[int, ...], spec: RangingSpec,
                   master_seed: int, oversample: int
                   ) -> list[RangingTrialRecord]:
    """The records of ``trials`` (at most ``BLOCK_TRIALS``), in order."""
    draws = SeededGenerators([stable_seed(master_seed, t, 0) for t in trials])
    noises = SeededGenerators([stable_seed(master_seed, t, 1) for t in trials])
    records = []
    for row, trial in enumerate(trials):
        rng = draws[row]
        true_range = spec.range_min_m + rng.random() * (
            spec.range_max_m - spec.range_min_m)
        scene = EchoScene(
            true_range=true_range,
            sample_rate=spec.sample_rate_hz,
            bandwidth=spec.bandwidth_hz,
            relative_velocity=spec.relative_velocity_mps,
            reflection_gain_db=spec.reflection_gain_db,
            residual_si_power_db=spec.residual_si_power_db,
            echo_snr_db=spec.echo_snr_db,
            block_len=spec.block_len,
            carrier_wavelength=spec.carrier_wavelength_m)
        tx = ranging_waveform(spec.waveform_len, oversample, rng)
        rx = generate_echo(tx, scene, seed=noises[row])
        try:
            est = echo_range(tx, rx, spec.sample_rate_hz,
                             max_range=spec.range_max_m)
            est_range, quality = est.range, est.peak_quality
        except NoTargetError:
            est_range, quality = float("nan"), 0.0
        records.append(RangingTrialRecord(
            trial=trial, true_range_m=true_range, est_range_m=est_range,
            error_m=est_range - true_range, peak_quality=quality))
    return records


def run_ranging(spec: RangingSpec, master_seed: int) -> RangingResult:
    """Every trial's record, in trial order, run over every CPU.

    An exception of a trial is raised here, with its own type, once every
    part of its round has ended.
    """
    # every chip at least as long as the waveform gives the same one-chip
    # waveform
    oversample = max(1, int(round(min(spec.sample_rate_hz / spec.bandwidth_hz,
                                      spec.waveform_len))))
    return RangingResult(records=[
        record for part in imap(_ranging_share, zip(range(spec.trials)),
                                BLOCK_TRIALS, spec, master_seed, oversample)
        for record in part])
