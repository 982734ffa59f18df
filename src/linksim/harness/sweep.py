"""Monte Carlo BER/PER sweeps over a channel-quality axis.

Each sweep point runs ``trials`` independent frames through the full
tx -> channel -> rx pipeline.  Trial t of point i draws its payload from
seed stable_seed(master, i, t, 0) and its channel noise from
stable_seed(master, i, t, 1), so results are bit-identical regardless of
execution order or batching.  The seeds are chained (``stable_seed`` of a
prefix, then the rest): the point is hashed once, each trial once, then
the two salts; the trials of a point and their salts are hashed an array
at a time (``seeding.stable_seeds``).  Each seed means the generator
``np.random.default_rng`` makes of it, but the generators' states are
derived a group of seeds at once (``linksim.rng``): the payloads of a
group of frames in one ``random_bits`` call, and their noise in one
``apply_channel`` call, both in the process that runs the group.

``link_trials`` is the one trial engine of the package.  A sweep makes one
call for all of its points, and the baseband-backed mux simulation one
for every packet copy of a run, after scheduling; both feed it a stream
of frames, each with its own payload, channel model, noise seed and genie
knowledge.  A sweep's frames carry the seeds of their payloads, which
the group's process draws, and a mux run's copies one shared zero bit row.
Its one unit of work is a group of frames, which ``_group`` sends through
transmit, the channel and the receiver front end and decodes in one
Viterbi call and one CRC check.  Frames of a group that carry one payload
share its transmitted row, and those that also share a channel model
share its noiseless channel row; only the noise is each frame's own.
The engine hands the stream to the package's worker pool
(``workers.imap``, whose docstring states the split), which draws a round
of frames at a time and runs it over the CPUs in groups, each share of at
least ``MIN_SHARE`` frames; the results come back in stream order, a round
before the next is drawn.
A group is bounded by what it costs to hold: at most ``GROUP_FRAMES``
frames, the rows of the front end's matrices, at most ``GROUP_SAMPLES``
samples of transmitted frames, which size those rows, and at most
``DECISION_BYTES`` of the decoder's decisions, one byte a trellis step and
state of its codewords (uncoded frames count against the first two bounds
only); it holds at least one frame.  A group runs across sweep points.
Each process holds only one group's waveforms, soft bits and payload
bits, and the caller one round of frames, which bounds memory whatever
the number of frames.
A frame's result depends only on its own seeds, so the results are the
same, bit for bit, at any CPU count.
The front end masks out a frame lost to sync failure or a degenerate
channel; it never reaches the decoder, and the engine counts it as a
packet error with every payload bit wrong.

The axis is either the per-sample (= per-chip) SNR in dB, or Eb/N0 in dB,
which is converted per point via

    snr_db = ebn0_db + 10*log10(bits_per_symbol * code_rate / SF)

counting the convolutional rate only (CRC and tail overhead excluded,
documented here).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator

import numpy as np

from ..baseband.chain import (ChainConfig, ChannelKnowledge, decode_frames,
                              rx_front_end, tx_chain)
from ..baseband.coding import DECISION_BYTES
from ..channel import ChannelModel, apply_channel, estimate_frequency_response
from ..rng import random_bits
from .seeding import stable_seed, stable_seeds
from .workers import imap, round_size

Z_95 = 1.959963984540054   # two-sided 95% normal quantile

# A group of frames is the unit ``link_trials`` draws, sends, decodes and
# records; its three bounds, these two and ``coding.DECISION_BYTES``, size
# the engine's memory, not its results.
#: frames in a group at most: the rows of the front end's group matrices
GROUP_FRAMES = 32
#: samples of a group's transmitted frames at most, 2 MiB of complex
#: samples a group matrix: above every shipped chain's group (coded-harsh's
#: 32 frames of 3008 samples are the largest), so only frames longer than
#: 4096 samples make smaller groups
GROUP_SAMPLES = GROUP_FRAMES * 4096
#: frames of a share at least, the engine's ``least``: below it a
#: worker's round trip (pickling the share, waking two processes) costs
#: more than the split saves.  On a 2-vCPU Xeon host two shares took 1.08
#: times one share's time for 14 uncoded-los frames and 0.93 times for 16,
#: and 1.06 and 0.95 times for 8 and 12 coded-harsh frames
MIN_SHARE = 8


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

    def csv_rows(self) -> tuple[list[dict], list[str]]:
        """One column per ``SweepPoint`` field, ``axis_value`` named after
        the axis."""
        names = [f.name for f in fields(SweepPoint)]
        columns = [self.axis, *names[1:]]
        rows = [{column: getattr(p, name) for column, name in zip(columns, names)}
                for p in self.points]
        return rows, columns


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


#: one frame for ``link_trials``: its payload, the channel it goes
#: through, the seed of that channel's noise and what the genie estimator
#: is told about that channel.  The payload is a ``uint8`` row of
#: ``payload_bits`` bits (one zero row shared by a mux-sim run's copies),
#: or the int seed ``random_bits`` draws that row from, in the process that
#: runs the frame's group; a stream's payloads are all rows or all seeds.
#: Frames of a group with equal payloads are transmitted once, and those
#: that also hold one model object share its noiseless channel row
Frame = tuple[np.ndarray | int, ChannelModel, int, ChannelKnowledge | None]


def link_trials(frames: Iterable[Frame], cfg: ChainConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """Send a stream of frames tx -> channel -> rx.

    Returns per-frame (bit_errors, packet_errors) in stream order; a packet
    is in error (1) when any payload bit differs or a codeword fails its
    CRC.  A frame the receiver cannot acquire (sync loss) or equalize (a
    channel response zero on every bin) is a counted outcome: every
    payload bit is wrong and the packet is in error.

    The stream goes to the package's worker pool (``workers.imap``), which
    draws it a round at a time and runs ``_group`` on groups of at most
    ``_chunk(cfg)`` frames, each of which transmits each distinct payload
    once and computes each noiseless (payload, model) row once; every
    frame draws its own noise.  A worker is a copy of the caller at its
    fork, so caller state set after it (a monkeypatch, a warning filter,
    ``np.errstate``) does not reach it, and an exception it raises is
    raised here with its own type.
    """
    bit_errors: list[int] = []
    packet_errors: list[int] = []
    for errors, failed in imap(_group, frames, _chunk(cfg), cfg,
                               least=MIN_SHARE):
        bit_errors += errors.tolist()
        packet_errors += failed.tolist()
    return (np.array(bit_errors, dtype=np.int64),
            np.array(packet_errors, dtype=np.int64))


def _group(payloads: tuple, models: tuple[ChannelModel, ...],
           seeds: tuple[int, ...],
           knowledge: tuple[ChannelKnowledge | None, ...], cfg: ChainConfig
           ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (bit errors, packet failed) of one group of frames, sent
    through transmit, the channel and the receiver front end, and its
    received frames through one ``decode_frames`` call (none when every
    frame is lost).  ``payloads`` is the group's bit rows or their int
    seeds, which one ``random_bits`` call draws here.

    Frames that carry one payload (one seed, or equal bit rows) share one
    ``tx_chain`` row, and those that also share a channel model share its
    noiseless channel work (``apply_channel``); each still draws its own
    noise, so the results are those of frames sent one at a time."""
    seeded = np.ndim(payloads[0]) == 0
    distinct: dict = {}   # a payload's seed or bytes -> (its row, the payload)
    rows = np.array([distinct.setdefault(p if seeded else p.tobytes(),
                                         (len(distinct), p))[0]
                     for p in payloads])
    unique = [p for _, p in distinct.values()]
    bits = random_bits(unique, cfg.payload_bits) if seeded else np.array(unique)
    rx = apply_channel(tx_chain(bits, cfg), models, seeds, rows)
    soft_bits, _, received = rx_front_end(rx, cfg, knowledge)
    del rx   # the group's waveforms are not needed while decoding
    errors = np.full(len(payloads), cfg.payload_bits)
    failed = ~received
    if len(soft_bits):
        decoded = decode_frames(soft_bits, cfg)
        wrong = np.count_nonzero(decoded.info_bits != bits[rows[received]],
                                 axis=1)
        errors[received] = wrong
        failed[received] = (wrong > 0) | (decoded.codewords_failed > 0)
    return errors, failed


def _chunk(cfg: ChainConfig) -> int:
    """Frames in a group: at most ``GROUP_FRAMES``, at most
    ``GROUP_SAMPLES`` samples and, coded, at most ``DECISION_BYTES`` of
    Viterbi decisions; at least one."""
    frames = min(GROUP_FRAMES, GROUP_SAMPLES // cfg.frame.frame_len)
    if cfg.codec is not None:
        frames = min(frames, DECISION_BYTES // (cfg.n_codewords()
                                                * cfg.codec.decision_bytes))
    return max(1, frames)


def run_sweep(cfg: ChainConfig, base_model: ChannelModel, spec: SweepSpec,
              master_seed: int, threads: int = 1) -> SweepResult:
    """Run every sweep point through one engine call, then sum per point.

    ``threads`` is accepted for compatibility and ignored.
    """
    models = [replace(base_model, snr_db=snr_for_axis(v, spec.axis, cfg))
              for v in spec.values]
    # a round's worth of trials' seeds at a time, so a long sweep holds no more
    block = round_size(_chunk(cfg))

    def frames() -> Iterator[Frame]:
        for i, model in enumerate(models):
            knowledge = genie_knowledge(cfg, model)
            point = stable_seed(master_seed, i)
            for start in range(0, spec.trials, block):
                trials = stable_seeds(point, np.arange(
                    start, min(start + block, spec.trials), dtype=np.uint64))
                for payload, noise in zip(stable_seeds(trials, 0).tolist(),
                                          stable_seeds(trials, 1).tolist()):
                    yield payload, model, noise, knowledge

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
    return SweepResult(axis=spec.axis, points=points)
