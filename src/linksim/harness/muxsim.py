"""Event-driven simulation of the dual-modem multiplexer.

Arrivals stream lazily in time order from one running sum (``t += period``)
per periodic source and from the trace, sorted by time (its rows may come in
any order); a heap holds the copies on the air, at most one a modem.  At an
equal time, periodic arrivals go first in channel order, then trace rows in
file order, then finishing copies in the order they started, and the mux
dispatches after every event.  Packets are pulled from the mux only when
every modem in their target set is idle, so copies of a redundant packet
start (and finish) together and the EDF expiry check in ``schedule_next``
really happens at transmission time.  After the last arrival the queues
are drained so every packet ends with a definite fate, and the conservation
identity

    enqueued = delivered + deadline_misses + overflow_drops + lost

(lost = all transmitted copies corrupt) is checked before returning.

A copy's CRC verdict never feeds back into scheduling, so the event loop
only records the copies it transmits.  Their verdicts come afterwards, all
at once, from an iid per-modem loss probability (a stable hash of (channel,
sequence, modem)) or from one ``link_trials`` call fed each key's seed and
the run's one all-zero payload row (the full baseband + channel pipeline),
and ``Mux.receive`` replays them in completion order.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Iterator

import numpy as np

from ..baseband.chain import ChainConfig
from ..channel import ChannelModel
from ..errors import ConfigError
from ..mux import (DEFAULT_MTU, DEFAULT_QUEUE_DEPTH, N_MODEMS, DataLinkPacket,
                   LogicalChannel, Mux)
from ..profiles import ModemCapacity, admit_channels
from .seeding import stable_seed, stable_uniform
from .sweep import genie_knowledge, link_trials

#: latency histogram bucket upper edges (seconds); the last bucket is open
LATENCY_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


@dataclass(frozen=True)
class PeriodicTraffic:
    period: float
    payload_size: int
    start_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if self.payload_size < 1:
            raise ValueError("payload_size must be >= 1")
        if self.start_offset < 0:
            raise ValueError("start_offset must be >= 0")


@dataclass(frozen=True)
class IidLossModel:
    per_modem: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.per_modem) != N_MODEMS:
            raise ValueError(
                f"per_modem needs one probability per modem ({N_MODEMS})")
        if any(not 0 <= p < 1 for p in self.per_modem):
            raise ValueError("per_modem probabilities must be in [0, 1)")


@dataclass(frozen=True)
class BasebandLossModel:
    chain: ChainConfig
    channel: ChannelModel


@dataclass(frozen=True)
class MuxSimSpec:
    channels: tuple[LogicalChannel, ...]
    traffic: dict[int, PeriodicTraffic]
    capacity: ModemCapacity
    duration_s: float
    loss: IidLossModel | BasebandLossModel
    trace: tuple[tuple[float, int, int], ...] = ()   # (time, channel, size)
    mtu: int = DEFAULT_MTU
    queue_depth: int = DEFAULT_QUEUE_DEPTH

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if any(size < 1 for _, _, size in self.trace):
            raise ValueError("trace packet sizes must be >= 1")
        if self.mtu < 1:
            raise ValueError("mtu must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        for ch_id, traffic in self.traffic.items():
            if traffic.payload_size > self.mtu:
                raise ValueError(
                    f"mtu {self.mtu} is below the {traffic.payload_size}-byte "
                    f"payload of channel {ch_id}")
            # t += period stops advancing once period is below half an ulp of
            # t, and every arrival time is below duration_s
            if traffic.period < math.ulp(self.duration_s):
                raise ValueError(
                    f"traffic of channel {ch_id}: period {traffic.period:g} s "
                    f"does not advance an arrival time below duration_s "
                    f"{self.duration_s:g} s")
        if any(size > self.mtu for _, _, size in self.trace):
            raise ValueError(f"trace packet sizes must be <= mtu {self.mtu}")
        if isinstance(self.loss, BasebandLossModel):
            largest = max([t.payload_size for t in self.traffic.values()] +
                          [size for _, _, size in self.trace], default=0)
            if 8 * largest > self.loss.chain.payload_bits:
                raise ValueError(
                    f"loss chain carries {self.loss.chain.payload_bits} "
                    f"payload bits, below the {8 * largest}-bit largest packet")
        known = {ch.id for ch in self.channels}
        if len(known) != len(self.channels):
            raise ValueError("channels must have unique ids")
        for name, ids in (("trace", {row[1] for row in self.trace}),
                          ("traffic", set(self.traffic))):
            if ids - known:
                raise ValueError(
                    f"{name} references unknown channel {min(ids - known)}")


@dataclass
class MuxChannelStats:
    channel_id: int
    sp_id: str
    redundancy: str
    enqueued: int
    delivered: int
    duplicate_drops: int
    deadline_misses: int
    corrupt_drops: int
    overflow_drops: int
    lost_packets: int
    e2e_per: float
    latency_min_s: float
    latency_mean_s: float
    latency_max_s: float
    latency_p95_s: float
    histogram: tuple[int, ...]


@dataclass
class MuxSimResult:
    stats: list[MuxChannelStats]
    modem_bytes: tuple[int, ...]

    def csv_rows(self) -> tuple[list[dict], list[str]]:
        """One column per ``MuxChannelStats`` field, ``histogram`` (the
        last) expanded into one ``hist_*`` column per bucket."""
        names = [f.name for f in fields(MuxChannelStats) if f.name != "histogram"]
        hist = [f"hist_le_{edge:g}" for edge in LATENCY_BUCKETS] + ["hist_gt"]
        rows = [{**{name: getattr(s, name) for name in names},
                 **dict(zip(hist, s.histogram))} for s in self.stats]
        return rows, names + hist


def check_admission(spec: MuxSimSpec) -> None:
    """Reject channel sets that overload either modem.

    Conservative accounting: a channel's load counts against every modem
    it may use (``LogicalChannel.modems``).
    """
    per_modem: list[list] = [[] for _ in range(N_MODEMS)]
    for ch in spec.channels:
        for m in ch.modems:
            per_modem[m].append((ch.sp, 1))
    for m, channels in enumerate(per_modem):
        if not channels:
            continue
        verdict = admit_channels(channels, spec.capacity)
        if not verdict.accepted:
            raise ConfigError(
                f"channel set overloads modem {m}: load "
                f"{verdict.load:.6g} > 1 at capacity {spec.capacity.capacity_c} Mbit/s")


def _latency_stats(latencies: list[float]) -> tuple[float, float, float, float]:
    if not latencies:
        return 0.0, 0.0, 0.0, 0.0
    arr = np.asarray(latencies)
    return (float(arr.min()), float(arr.mean()), float(arr.max()),
            _p95(np.sort(arr)))


def _p95(ordered: np.ndarray) -> float:
    """The 95th percentile of sorted values, bit for bit as
    ``np.percentile(values, 95)`` (its default "linear" method) gives it.
    ``np.percentile`` calls ``np.unique``, which imports ``numpy.ma``: 10-16
    ms and 1.6 MiB resident the first time in a process (numpy 2.4, a
    2-vCPU Xeon host)."""
    index = (len(ordered) - 1) * 0.95
    below = math.floor(index)
    t = index - below
    a = ordered[below]
    b = ordered[min(below + 1, len(ordered) - 1)]
    # numpy interpolates from the nearer of the two neighbours
    if t >= 0.5:
        return float(b - (b - a) * (1 - t))
    return float(a + (b - a) * t)


def _histogram(latencies: list[float]) -> tuple[int, ...]:
    """Counts per LATENCY_BUCKETS bucket; a latency on an edge counts in
    that edge's bucket."""
    buckets = np.searchsorted(LATENCY_BUCKETS, latencies, side="left")
    return tuple(np.bincount(buckets, minlength=len(LATENCY_BUCKETS) + 1).tolist())


def _copies_received(spec: MuxSimSpec, keys: list[tuple[int, int, int]],
                     master_seed: int) -> list[bool]:
    """The CRC verdict of every (channel, sequence, modem) copy; each draws
    from its own key's seed, so the batch does not matter."""
    if isinstance(spec.loss, IidLossModel):
        return [stable_uniform(master_seed, *key) >= spec.loss.per_modem[key[2]]
                for key in keys]
    cfg, channel = spec.loss.chain, spec.loss.channel
    knowledge = genie_knowledge(cfg, channel)
    # _transmit enqueues bytes(size), so this one row is every copy's payload
    # (a share pickles it once); item 11's fix for the bias of a constant
    # payload (ROADMAP) swaps it for a payload seed a copy
    zeros = np.zeros(cfg.payload_bits, dtype=np.uint8)
    _, packet_errors = link_trials(
        ((zeros, channel, stable_seed(master_seed, *key), knowledge)
         for key in keys), cfg)
    return (packet_errors == 0).tolist()


def _periodic(ch_id: int, traffic: PeriodicTraffic, end: float) -> Iterator:
    t = traffic.start_offset
    while t < end:
        yield t, ch_id, traffic.payload_size
        t += traffic.period


def _transmit(spec: MuxSimSpec, mux: Mux) -> list[tuple[float, int, DataLinkPacket]]:
    """Run the event loop; every transmitted copy as (done, modem, packet),
    in completion order."""
    arrivals = heapq.merge(
        *(_periodic(ch_id, traffic, spec.duration_s)
          for ch_id, traffic in spec.traffic.items()),
        sorted(spec.trace, key=itemgetter(0)), key=itemgetter(0))
    arrival = next(arrivals, None)
    on_air: list[tuple[float, int, int, DataLinkPacket]] = []
    order = itertools.count()
    copies: list[tuple[float, int, DataLinkPacket]] = []
    while arrival is not None or on_air:
        # an arrival goes before a copy finishing at the same instant
        if arrival is not None and (not on_air or arrival[0] <= on_air[0][0]):
            now, ch_id, size = arrival
            mux.enqueue(ch_id, bytes(size), now)
            arrival = next(arrivals, None)
        else:
            now, _, modem, packet = heapq.heappop(on_air)
            copies.append((now, modem, packet))
        while (peeked := mux.peek_next(now)) is not None \
                and not any(m in peeked[1] for _, _, m, _ in on_air):
            packet, targets = mux.schedule_next(now, peeked)
            # air time at the modem line rate (capacity in Mbit/s)
            done = now + len(packet.payload) * 8 / (spec.capacity.capacity_c * 1e6)
            for m in targets:
                heapq.heappush(on_air, (done, next(order), m, packet))
    return copies


def run_mux_sim(spec: MuxSimSpec, master_seed: int) -> MuxSimResult:
    """Simulate the dual-modem mux and return per-channel statistics."""
    check_admission(spec)
    mux = Mux(list(spec.channels), mtu=spec.mtu, queue_depth=spec.queue_depth)
    copies = _transmit(spec, mux)
    keys = [(packet.channel_id, packet.sequence_number, modem)
            for _, modem, packet in copies]

    # per-(channel, seq): [copies_sent, copies_corrupt, delivered]
    fates: dict[tuple[int, int], list[int]] = {}
    for (now, modem, packet), key, crc_ok in zip(
            copies, keys, _copies_received(spec, keys, master_seed)):
        fate = fates.setdefault(key[:2], [0, 0, 0])
        fate[0] += 1
        fate[1] += not crc_ok
        fate[2] |= mux.receive(packet, modem, crc_ok, now) is not None
    tallies = {ch_id: [0, 0] for ch_id in mux.channels}   # [lost, fully corrupt]
    for (ch_id, _), (sent, corrupt, delivered) in fates.items():
        tallies[ch_id][0] += not delivered
        tallies[ch_id][1] += corrupt == sent

    stats = []
    for ch in spec.channels:
        c = mux.counters[ch.id]
        lost, fully_corrupt = tallies[ch.id]
        if c.enqueued != c.delivered + c.deadline_misses + c.overflow_drops + lost \
                or lost != fully_corrupt:
            raise RuntimeError(
                f"conservation violated on channel {ch.id}: enqueued={c.enqueued} "
                f"delivered={c.delivered} misses={c.deadline_misses} "
                f"overflow={c.overflow_drops} lost={lost}")
        transmitted = c.enqueued - c.deadline_misses - c.overflow_drops
        e2e_per = lost / transmitted if transmitted else 0.0
        lmin, lmean, lmax, lp95 = _latency_stats(c.latencies)
        stats.append(MuxChannelStats(
            channel_id=ch.id, sp_id=ch.sp.id, redundancy=ch.redundancy.value,
            enqueued=c.enqueued, delivered=c.delivered,
            duplicate_drops=c.duplicate_drops,
            deadline_misses=c.deadline_misses, corrupt_drops=c.corrupt_drops,
            overflow_drops=c.overflow_drops, lost_packets=lost,
            e2e_per=e2e_per, latency_min_s=lmin, latency_mean_s=lmean,
            latency_max_s=lmax, latency_p95_s=lp95,
            histogram=_histogram(c.latencies)))
    return MuxSimResult(stats=stats, modem_bytes=tuple(mux.modem_bytes))
