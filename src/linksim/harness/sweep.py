"""Monte Carlo BER/PER sweeps over a channel-quality axis.

Each sweep point runs ``trials`` independent frames through the full
tx -> channel -> rx pipeline.  Trial t of point i draws its payload from
seed stable_seed(master, i, t, 0) and its channel noise from
stable_seed(master, i, t, 1), so results are bit-identical regardless of
execution order or batching.

``link_trials`` is the one trial engine of the package; a sweep point
passes it all of its trials, and the baseband-backed mux simulation every
packet copy of a run, after scheduling.  It runs transmit, channel and
the receiver front end frame by frame, then decodes the codewords of the
surviving frames together, ``DECODE_ROWS`` codewords' worth of frames
at a time: one Viterbi call and one CRC check per chunk, which bounds
memory whatever the trial count.  A frame lost to sync failure or a
degenerate channel counts as a packet error with every payload bit wrong.

The axis is either the per-sample (= per-chip) SNR in dB, or Eb/N0 in dB,
which is converted per point via

    snr_db = ebn0_db + 10*log10(bits_per_symbol * code_rate / SF)

counting the convolutional rate only (CRC and tail overhead excluded,
documented here).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..baseband.chain import (ChainConfig, ChannelKnowledge, decode_frames,
                              rx_front_end, tx_chain)
from ..channel import ChannelModel, apply_channel, estimate_frequency_response
from ..errors import DegenerateChannelError, SyncError
from .seeding import stable_seed

Z_95 = 1.959963984540054   # two-sided 95% normal quantile

#: codeword rows ``link_trials`` decodes per chunk (at least one frame); it
#: bounds the memory of a batch, not its results
DECODE_ROWS = 32


@dataclass(frozen=True)
class SweepSpec:
    values: tuple[float, ...]
    trials: int
    axis: str = "ebn0_db"     # "snr_db" | "ebn0_db"

    def __post_init__(self) -> None:
        if self.axis not in ("snr_db", "ebn0_db"):
            raise ValueError("axis must be 'snr_db' or 'ebn0_db'")
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class SweepPoint:
    axis_value: float
    trials: int
    bits: int
    bit_errors: int
    ber: float
    ber_ci95: float
    packets: int
    packet_errors: int
    per: float
    per_ci95: float


@dataclass
class SweepResult:
    axis: str
    points: list[SweepPoint]
    wall_clock_s: float

    CSV_FIELDS = ("trials", "bits", "bit_errors", "ber", "ber_ci95",
                  "packets", "packet_errors", "per", "per_ci95")

    def csv_rows(self) -> tuple[list[dict], list[str]]:
        fields = [self.axis, *self.CSV_FIELDS]
        rows = []
        for p in self.points:
            row = {self.axis: p.axis_value}
            row.update({name: getattr(p, name) for name in self.CSV_FIELDS})
            rows.append(row)
        return rows, fields


def ci95_halfwidth(errors: int, n: int) -> float:
    """Normal-approximation 95% half-width: 1.96 * sqrt(p(1-p)/n)."""
    if n == 0:
        return 0.0
    p = errors / n
    return Z_95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def snr_for_axis(axis_value: float, axis: str, cfg: ChainConfig) -> float:
    if axis == "snr_db":
        return axis_value
    rate = 1.0 if cfg.codec is None else float(cfg.codec.code_rate)
    factor = cfg.modulation.bits_per_symbol * rate / cfg.spreading.sf
    return axis_value + 10.0 * math.log10(factor)


def genie_knowledge(cfg: ChainConfig,
                    model: ChannelModel) -> ChannelKnowledge | None:
    """What the genie estimator is told about ``model``; None for pilot-ls.

    The response does not depend on the noise seed, so one call serves
    every trial that shares the model's taps and SNR.
    """
    if cfg.channel_estimator != "genie":
        return None
    h = estimate_frequency_response(model, cfg.frame.fft_size)
    sigma2 = 0.0
    if model.snr_db is not None:
        # Parseval: sum of tap powers = mean of |H|^2 over the bins
        tap_power = float(np.mean(np.abs(h) ** 2))
        sigma2 = tap_power / 10.0 ** (model.snr_db / 10.0)
    return ChannelKnowledge(freq_response=h, noise_variance=sigma2)


def link_trials(payloads: np.ndarray, cfg: ChainConfig,
                models: Sequence[ChannelModel],
                knowledge: ChannelKnowledge | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Send a batch of frames tx -> channel -> rx.

    ``payloads`` is (frames, payload_bits) and frame f goes through
    ``models[f]``.  Returns per-frame (bit_errors, packet_errors); a packet
    is in error (1) when any payload bit differs or a codeword fails its
    CRC.  A frame the receiver cannot acquire (sync loss) or equalize (a
    channel response zero on every bin) is a counted outcome: every
    payload bit is wrong and the packet is in error.  The received frames
    of each run of ``DECODE_ROWS`` codewords' worth of frames are decoded
    together.
    """
    payloads = np.asarray(payloads, dtype=np.uint8)
    bit_errors = np.full(len(payloads), cfg.payload_bits, dtype=np.int64)
    packet_errors = np.ones(len(payloads), dtype=np.int64)
    chunk = max(1, DECODE_ROWS // max(1, cfg.n_codewords()))
    soft, received = [], []
    for f, (payload, model) in enumerate(zip(payloads, models, strict=True)):
        waveform = tx_chain(payload, cfg)
        try:
            soft_bits, _ = rx_front_end(apply_channel(waveform, model), cfg,
                                        knowledge)
        except (SyncError, DegenerateChannelError):
            pass
        else:
            soft.append(soft_bits)
            received.append(f)
        if received and (f % chunk == chunk - 1 or f == len(payloads) - 1):
            decoded = decode_frames(np.stack(soft), cfg)
            errors = np.count_nonzero(decoded.info_bits != payloads[received], axis=1)
            bit_errors[received] = errors
            packet_errors[received] = (errors > 0) | (decoded.codewords_failed > 0)
            soft, received = [], []
    return bit_errors, packet_errors


def _payload(seed: int, n_bits: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n_bits, dtype=np.int64).astype(np.uint8)


def run_sweep(cfg: ChainConfig, base_model: ChannelModel, spec: SweepSpec,
              master_seed: int, threads: int = 1) -> SweepResult:
    """Run every sweep point; aggregation is an order-independent fold.

    ``threads`` is accepted for compatibility and ignored.
    """
    start = time.perf_counter()
    points = []
    for i, axis_value in enumerate(spec.values):
        model = replace(base_model,
                        snr_db=snr_for_axis(axis_value, spec.axis, cfg))
        payloads = np.stack([
            _payload(stable_seed(master_seed, i, t, 0), cfg.payload_bits)
            for t in range(spec.trials)])
        models = [replace(model, seed=stable_seed(master_seed, i, t, 1))
                  for t in range(spec.trials)]
        frame_bits, frame_packets = link_trials(
            payloads, cfg, models, genie_knowledge(cfg, model))
        bit_errors = int(frame_bits.sum())
        packet_errors = int(frame_packets.sum())

        bits = spec.trials * cfg.payload_bits
        points.append(SweepPoint(
            axis_value=axis_value, trials=spec.trials, bits=bits,
            bit_errors=bit_errors, ber=bit_errors / bits,
            ber_ci95=ci95_halfwidth(bit_errors, bits),
            packets=spec.trials, packet_errors=packet_errors,
            per=packet_errors / spec.trials,
            per_ci95=ci95_halfwidth(packet_errors, spec.trials)))
    return SweepResult(axis=spec.axis, points=points,
                       wall_clock_s=time.perf_counter() - start)
