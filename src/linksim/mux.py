"""Dual-modem multiplexer: deadline-stamped logical channels, EDF dispatch.

One ``Mux`` instance owns both halves of the data path of one station:

* transmit side: per-channel FIFO queues of deadline-stamped packets,
  earliest-deadline-first selection across channels, dispatch to one or
  both modems depending on the channel's redundancy mode (redundant
  duplicates onto both modems, distributive picks the modem with the
  smaller cumulative byte count, single always uses modem 0);
* receive side: CRC gating, at-most-once delivery per (channel, sequence
  number) via a delivered-set (cross-modem reordering means a plain
  next-expected counter would mis-drop late first copies), latency samples.

Expired packets are dropped at scheduling time and counted, so nothing is
ever transmitted past its deadline.  The state machine is single-owner:
callers advance it with explicit (event, now) calls from one timeline.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .profiles import ServiceProfile

DEFAULT_MTU = 1500
DEFAULT_QUEUE_DEPTH = 64
#: modems of a station; redundant channels duplicate onto all of them
N_MODEMS = 2


class Redundancy(Enum):
    REDUNDANT = "redundant"
    DISTRIBUTIVE = "distributive"
    SINGLE = "single"


@dataclass(frozen=True)
class LogicalChannel:
    id: int
    sp: ServiceProfile
    deadline: float                    # seconds, relative per packet
    redundancy: Redundancy = Redundancy.SINGLE

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        if self.id < 0:
            raise ValueError("id must be >= 0")

    @property
    def modems(self) -> tuple[int, ...]:
        """The modems this channel may load: every modem for redundant and
        distributive channels, modem 0 for a single one."""
        if self.redundancy is Redundancy.SINGLE:
            return (0,)
        return tuple(range(N_MODEMS))


@dataclass(frozen=True)
class DataLinkPacket:
    channel_id: int
    sequence_number: int
    payload: bytes
    created_at: float
    deadline_at: float


@dataclass
class ChannelCounters:
    enqueued: int = 0
    delivered: int = 0
    duplicate_drops: int = 0
    deadline_misses: int = 0
    corrupt_drops: int = 0
    overflow_drops: int = 0
    latencies: list[float] = field(default_factory=list)


class Mux:
    """Multiplexer state machine for one station (two modems)."""

    def __init__(self, channels: list[LogicalChannel], mtu: int = DEFAULT_MTU,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH):
        ids = [ch.id for ch in channels]
        if len(set(ids)) != len(ids):
            raise ValueError("channel ids must be unique within a mux")
        self.channels = {ch.id: ch for ch in channels}
        self.mtu = mtu
        self.queue_depth = queue_depth
        self._queues: dict[int, deque[DataLinkPacket]] = {
            ch.id: deque() for ch in channels}
        self._next_seq = {ch.id: 0 for ch in channels}
        self._delivered: dict[int, set[int]] = {ch.id: set() for ch in channels}
        self.counters = {ch.id: ChannelCounters() for ch in channels}
        self.modem_bytes = [0] * N_MODEMS   # cumulative bytes assigned

    # -- transmit side ----------------------------------------------------
    def enqueue(self, channel_id: int, payload: bytes,
                now: float) -> DataLinkPacket | None:
        """Stamp ``payload`` for channel ``channel_id`` at ``now`` and queue
        it; None if the queue overflowed."""
        channel = self.channels.get(channel_id)
        if channel is None:
            raise ValueError(f"channel {channel_id} not registered")
        if len(payload) > self.mtu:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds MTU {self.mtu}")
        seq = self._next_seq[channel_id]
        self._next_seq[channel_id] = seq + 1
        packet = DataLinkPacket(
            channel_id=channel_id, sequence_number=seq, payload=payload,
            created_at=now, deadline_at=now + channel.deadline)
        counters = self.counters[channel_id]
        counters.enqueued += 1
        if len(self._queues[channel_id]) >= self.queue_depth:
            counters.overflow_drops += 1
            return None
        self._queues[channel_id].append(packet)
        return packet

    def _edf_head(self, now: float) -> DataLinkPacket | None:
        """Earliest-deadline head packet, dropping expired ones as found."""
        while True:
            queue = min((q for q in self._queues.values() if q), default=None,
                        key=lambda q: (q[0].deadline_at, q[0].channel_id,
                                       q[0].sequence_number))
            if queue is None:
                return None
            head = queue[0]
            if head.deadline_at < now:
                queue.popleft()
                self.counters[head.channel_id].deadline_misses += 1
                continue
            return head

    def _targets(self, channel: LogicalChannel) -> tuple[int, ...]:
        if channel.redundancy is Redundancy.DISTRIBUTIVE:
            return (min(channel.modems, key=lambda m: (self.modem_bytes[m], m)),)
        return channel.modems

    def peek_next(self, now: float) -> tuple[DataLinkPacket, tuple[int, ...]] | None:
        """Next packet and its target modems without dequeuing it."""
        head = self._edf_head(now)
        if head is None:
            return None
        return head, self._targets(self.channels[head.channel_id])

    def schedule_next(self, now: float,
                      peeked: tuple[DataLinkPacket, tuple[int, ...]] | None = None
                      ) -> tuple[DataLinkPacket, tuple[int, ...]] | None:
        """Pop the EDF-next packet and assign its target modem set.

        ``peeked``, what ``peek_next(now)`` returned with no call on the mux
        since, spares a second EDF scan.
        """
        if peeked is None:
            peeked = self.peek_next(now)
            if peeked is None:
                return None
        packet, targets = peeked
        self._queues[packet.channel_id].popleft()
        for m in targets:
            self.modem_bytes[m] += len(packet.payload)
        return packet, targets

    # -- receive side -----------------------------------------------------
    def receive(self, packet: DataLinkPacket, from_modem: int, crc_ok: bool,
                now: float) -> tuple[bytes, float] | None:
        """Deliver the first valid copy of each sequence number.

        Returns (payload, latency) on delivery; None for corrupt copies and
        duplicates, which are counted.
        """
        counters = self.counters[packet.channel_id]
        if not crc_ok:
            counters.corrupt_drops += 1
            return None
        delivered = self._delivered[packet.channel_id]
        if packet.sequence_number in delivered:
            counters.duplicate_drops += 1
            return None
        delivered.add(packet.sequence_number)
        counters.delivered += 1
        latency = now - packet.created_at
        counters.latencies.append(latency)
        return packet.payload, latency
