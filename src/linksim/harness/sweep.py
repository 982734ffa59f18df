"""Monte Carlo BER/PER sweeps over a channel-quality axis.

Each sweep point runs ``trials`` independent frames through the full
tx -> channel -> rx pipeline.  Trial t of point i draws its payload from
seed stable_seed(master, i, t, 0) and its channel noise from
stable_seed(master, i, t, 1), so results are bit-identical regardless of
execution order or batching.  The seeds are chained (``stable_seed`` of a
prefix, then the rest): the point is hashed once, each trial once, then
the two salts.

``link_trials`` is the one trial engine of the package.  A sweep makes one
call for all of its points, and the baseband-backed mux simulation one
for every packet copy of a run, after scheduling; both feed it a stream
of frames, each with its own payload, channel model, noise seed and genie
knowledge.
It runs transmit, channel and the receiver front end a group of frames at
a time, and decodes the received frames ``DECODE_ROWS`` codewords' worth
at a time: one Viterbi call and one CRC check per chunk.  A chunk counts
received frames, so it runs across sweep points.  A group is the next
``chunk - held`` frames of the stream, where ``held`` counts the received
frames waiting to be decoded, so no frame is drawn that the chunk could
not take; only one group's waveforms and one chunk's payloads and soft
bits are held, which bounds memory whatever the number of frames.  The
front end masks out a frame lost to sync failure or a degenerate channel,
and the engine counts it as a packet error with every payload bit wrong.

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
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ..baseband.chain import (ChainConfig, ChannelKnowledge, decode_frames,
                              rx_front_end, tx_chain)
from ..channel import ChannelModel, apply_channel, estimate_frequency_response
from .seeding import stable_seed

Z_95 = 1.959963984540054   # two-sided 95% normal quantile

#: codeword rows ``link_trials`` decodes per chunk of received frames (at
#: least one frame); it bounds the engine's memory, not its results
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


#: one frame for ``link_trials``: payload bits, the channel it goes
#: through, the seed of that channel's noise and what the genie estimator
#: is told about that channel
Frame = tuple[np.ndarray, ChannelModel, int, ChannelKnowledge | None]


def link_trials(frames: Iterable[Frame], cfg: ChainConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """Send a stream of frames tx -> channel -> rx.

    Returns per-frame (bit_errors, packet_errors) in stream order; a packet
    is in error (1) when any payload bit differs or a codeword fails its
    CRC.  A frame the receiver cannot acquire (sync loss) or equalize (a
    channel response zero on every bin) is a counted outcome: every
    payload bit is wrong and the packet is in error.

    Frames go through transmit, channel and the receiver front end a group
    at a time: the next ``chunk - held`` frames of the stream, where a chunk
    is ``DECODE_ROWS`` codewords' worth of frames and ``held`` the received
    frames waiting to be decoded.  A full chunk is decoded at once, and the
    rest at the end of the stream; only that chunk's payloads and soft bits
    are held, and no frame is drawn that the chunk could not take.
    """
    bit_errors: list[int] = []
    packet_errors: list[int] = []
    chunk = max(1, DECODE_ROWS // max(1, cfg.n_codewords()))
    stream = iter(frames)
    soft, sent, received = [], [], []   # the held frames, group by group

    def decode() -> None:
        index = np.concatenate(received)
        decoded = decode_frames(np.concatenate(soft), cfg)
        errors = np.count_nonzero(decoded.info_bits != np.concatenate(sent), axis=1)
        failed = (errors > 0) | (decoded.codewords_failed > 0)
        for f, e, p in zip(index.tolist(), errors.tolist(), failed.tolist()):
            bit_errors[f], packet_errors[f] = e, int(p)
        soft.clear()
        sent.clear()
        received.clear()

    held = 0
    while group := list(islice(stream, chunk - held)):
        first = len(bit_errors)
        bit_errors.extend([cfg.payload_bits] * len(group))
        packet_errors.extend([1] * len(group))
        payloads, models, seeds, knowledge = zip(*group)
        payloads = np.array(payloads, dtype=np.uint8)
        rx = apply_channel(tx_chain(payloads, cfg), models, seeds)
        soft_bits, _, found = rx_front_end(rx, cfg, knowledge)
        del rx   # the group's waveforms are not needed while decoding
        if len(soft_bits):
            soft.append(soft_bits)
            sent.append(payloads[found])
            received.append(first + np.flatnonzero(found))
            held += len(soft_bits)
        if held == chunk:
            decode()
            held = 0
    if held:
        decode()
    return (np.array(bit_errors, dtype=np.int64),
            np.array(packet_errors, dtype=np.int64))


def _payload(seed: int, n_bits: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n_bits, dtype=np.int64).astype(np.uint8)


def run_sweep(cfg: ChainConfig, base_model: ChannelModel, spec: SweepSpec,
              master_seed: int, threads: int = 1) -> SweepResult:
    """Run every sweep point through one engine call, then sum per point.

    ``threads`` is accepted for compatibility and ignored.
    """
    start = time.perf_counter()
    models = [replace(base_model, snr_db=snr_for_axis(v, spec.axis, cfg))
              for v in spec.values]

    def frames() -> Iterator[Frame]:
        for i, model in enumerate(models):
            knowledge = genie_knowledge(cfg, model)
            point = stable_seed(master_seed, i)
            for t in range(spec.trials):
                trial = stable_seed(point, t)
                yield (_payload(stable_seed(trial, 0), cfg.payload_bits),
                       model, stable_seed(trial, 1), knowledge)

    frame_bits, frame_packets = link_trials(frames(), cfg)
    shape = (len(models), spec.trials)
    bits = spec.trials * cfg.payload_bits
    points = []
    for axis_value, bit_errors, packet_errors in zip(
            spec.values, frame_bits.reshape(shape).sum(axis=1).tolist(),
            frame_packets.reshape(shape).sum(axis=1).tolist()):
        points.append(SweepPoint(
            axis_value=axis_value, trials=spec.trials, bits=bits,
            bit_errors=bit_errors, ber=bit_errors / bits,
            ber_ci95=ci95_halfwidth(bit_errors, bits),
            packets=spec.trials, packet_errors=packet_errors,
            per=packet_errors / spec.trials,
            per_ci95=ci95_halfwidth(packet_errors, spec.trials)))
    return SweepResult(axis=spec.axis, points=points,
                       wall_clock_s=time.perf_counter() - start)
