import numpy as np
import pytest

from linksim.mux import LogicalChannel, Mux, Redundancy
from linksim.profiles import SP1, SP2


def channel(ch_id, deadline=1e-3, redundancy=Redundancy.SINGLE, sp=SP1):
    return LogicalChannel(id=ch_id, sp=sp, deadline=deadline,
                          redundancy=redundancy)


class TestEnqueue:
    def test_sequence_numbers_start_at_zero(self):
        ch = channel(0)
        mux = Mux([ch])
        p0 = mux.enqueue(ch.id, bytes(100), 0.0)
        p1 = mux.enqueue(ch.id, bytes(100), 0.1)
        assert (p0.sequence_number, p1.sequence_number) == (0, 1)

    def test_deadline_stamp(self):
        ch = channel(0, deadline=1e-3)
        mux = Mux([ch])
        packet = mux.enqueue(ch.id, bytes(100), 1.0)
        assert packet.created_at == 1.0
        assert packet.deadline_at == pytest.approx(1.001)

    def test_mtu_enforced(self):
        ch = channel(0)
        mux = Mux([ch], mtu=64)
        with pytest.raises(ValueError, match="MTU"):
            mux.enqueue(ch.id, bytes(65), 0.0)

    def test_overflow_drops_newest_and_counts(self):
        ch = channel(0)
        mux = Mux([ch], queue_depth=2)
        assert mux.enqueue(ch.id, bytes(100), 0.0) is not None
        assert mux.enqueue(ch.id, bytes(100), 0.0) is not None
        assert mux.enqueue(ch.id, bytes(100), 0.0) is None
        counters = mux.counters[0]
        assert counters.enqueued == 3
        assert counters.overflow_drops == 1
        # sequence numbers stay gapless at the source
        assert mux.enqueue(ch.id, bytes(100), 1.0) is None
        assert mux._next_seq[0] == 4

    def test_unregistered_channel(self):
        mux = Mux([channel(0)])
        with pytest.raises(ValueError, match="not registered"):
            mux.enqueue(5, bytes(100), 0.0)

    def test_unique_ids_required(self):
        with pytest.raises(ValueError):
            Mux([channel(1), channel(1)])


class TestScheduling:
    @pytest.mark.parametrize("redundancy, modems", [
        (Redundancy.REDUNDANT, (0, 1)), (Redundancy.DISTRIBUTIVE, (0, 1)),
        (Redundancy.SINGLE, (0,))])
    def test_modem_set_of_each_redundancy(self, redundancy, modems):
        assert channel(0, redundancy=redundancy).modems == modems

    def test_single_packet_redundant_goes_to_both(self):
        ch = channel(0, redundancy=Redundancy.REDUNDANT)
        mux = Mux([ch])
        mux.enqueue(ch.id, bytes(100), 0.0)
        packet, targets = mux.schedule_next(0.0)
        assert targets == (0, 1)
        assert mux.schedule_next(0.0) is None

    def test_edf_order(self):
        slow = channel(0, deadline=5e-3)
        fast = channel(1, deadline=2e-3)
        mux = Mux([slow, fast])
        mux.enqueue(slow.id, bytes(100), 0.0)
        mux.enqueue(fast.id, bytes(100), 0.0)
        packet, _ = mux.schedule_next(0.0)
        assert packet.channel_id == 1

    def test_tie_break_by_channel_then_seq(self):
        a = channel(0, deadline=1e-3)
        b = channel(1, deadline=1e-3)
        mux = Mux([a, b])
        mux.enqueue(b.id, bytes(100), 0.0)
        mux.enqueue(a.id, bytes(100), 0.0)
        packet, _ = mux.schedule_next(0.0)
        assert packet.channel_id == 0

    def test_distributive_joins_shorter_byte_count(self):
        ch = channel(0, redundancy=Redundancy.DISTRIBUTIVE)
        mux = Mux([ch])
        mux.modem_bytes = [1000, 200]
        mux.enqueue(ch.id, bytes(100), 0.0)
        _, targets = mux.schedule_next(0.0)
        assert targets == (1,)

    def test_distributive_tie_goes_to_modem_zero(self):
        ch = channel(0, redundancy=Redundancy.DISTRIBUTIVE)
        mux = Mux([ch])
        mux.enqueue(ch.id, bytes(100), 0.0)
        _, targets = mux.schedule_next(0.0)
        assert targets == (0,)

    def test_distributive_alternates_with_equal_sizes(self):
        # byte-count difference never exceeds one packet size
        ch = channel(0, redundancy=Redundancy.DISTRIBUTIVE)
        mux = Mux([ch])
        size = 100
        for i in range(20):
            mux.enqueue(ch.id, bytes(size), 0.0)
        for i in range(20):
            mux.schedule_next(0.0)
            assert abs(mux.modem_bytes[0] - mux.modem_bytes[1]) <= size

    def test_expired_packets_dropped_not_transmitted(self):
        ch = channel(0, deadline=1e-3)
        mux = Mux([ch])
        mux.enqueue(ch.id, bytes(100), 0.0)      # deadline at 1 ms
        mux.enqueue(ch.id, bytes(100), 0.005)    # deadline at 6 ms
        result = mux.schedule_next(0.005)
        assert result is not None
        packet, _ = result
        assert packet.sequence_number == 1
        assert mux.counters[0].deadline_misses == 1

    def test_deadline_boundary_still_transmits(self):
        ch = channel(0, deadline=1e-3)
        mux = Mux([ch])
        mux.enqueue(ch.id, bytes(100), 0.0)
        result = mux.schedule_next(0.001)   # exactly at the deadline
        assert result is not None

    def test_empty_queues_yield_none(self):
        mux = Mux([channel(0)])
        assert mux.schedule_next(0.0) is None

    def test_a_peeked_head_is_scheduled_without_a_second_scan(self, monkeypatch):
        # the expired head is dropped by the peek, and the packet it returns
        # is the one popped, with its modems charged
        a = channel(0, deadline=1e-3)
        b = channel(1, deadline=2e-3, redundancy=Redundancy.DISTRIBUTIVE)
        mux = Mux([a, b])
        mux.enqueue(a.id, bytes(100), 0.0)
        mux.enqueue(b.id, bytes(60), 0.0)
        mux.enqueue(a.id, bytes(100), 0.0015)
        scans = []
        edf_head = mux._edf_head
        monkeypatch.setattr(mux, "_edf_head",
                            lambda now: scans.append(now) or edf_head(now))
        peeked = mux.peek_next(0.0015)
        assert mux.schedule_next(0.0015, peeked) == peeked
        assert len(scans) == 1
        assert peeked[0].channel_id == 1 and peeked[1] == (0,)
        assert mux.modem_bytes == [60, 0]
        assert mux.counters[0].deadline_misses == 1
        packet, targets = mux.schedule_next(0.0015)
        assert (packet.channel_id, packet.sequence_number, targets) == (0, 1, (0,))


class TestReceive:
    def test_duplicate_dropped_after_first_delivery(self):
        ch = channel(0, redundancy=Redundancy.REDUNDANT)
        mux = Mux([ch])
        packet = mux.enqueue(ch.id, bytes(100), 0.0)
        assert mux.receive(packet, 0, True, 0.5) is not None
        assert mux.receive(packet, 1, True, 0.6) is None
        counters = mux.counters[0]
        assert counters.delivered == 1
        assert counters.duplicate_drops == 1

    def test_corrupt_copy_then_valid_copy(self):
        ch = channel(0, redundancy=Redundancy.REDUNDANT)
        mux = Mux([ch])
        packet = mux.enqueue(ch.id, bytes(100), 0.0)
        assert mux.receive(packet, 0, False, 0.5) is None
        delivered = mux.receive(packet, 1, True, 0.6)
        assert delivered is not None
        counters = mux.counters[0]
        assert counters.corrupt_drops == 1
        assert counters.delivered == 1

    def test_latency_sample(self):
        ch = channel(0)
        mux = Mux([ch])
        packet = mux.enqueue(ch.id, bytes(100), 1.0)
        payload, latency = mux.receive(packet, 0, True, 1.25)
        assert latency == pytest.approx(0.25)
        assert mux.counters[0].latencies == [pytest.approx(0.25)]

    def test_out_of_order_first_copies_both_delivered(self):
        # reordering across modems must not suppress late first copies
        ch = channel(0, redundancy=Redundancy.REDUNDANT)
        mux = Mux([ch])
        p0 = mux.enqueue(ch.id, bytes(100), 0.0)
        p1 = mux.enqueue(ch.id, bytes(100), 0.0)
        assert mux.receive(p1, 1, True, 0.5) is not None
        assert mux.receive(p0, 0, True, 0.6) is not None
        assert mux.counters[0].delivered == 2


class TestValidation:
    def test_channel_requires_positive_deadline(self):
        with pytest.raises(ValueError):
            channel(0, deadline=0.0)

    def test_redundancy_product_law(self):
        # per-modem loss p on independent modems: end-to-end loss ~ p^2
        rng = np.random.default_rng(12)
        ch = channel(0, redundancy=Redundancy.REDUNDANT, sp=SP2)
        mux = Mux([ch], queue_depth=10**9)
        n, p = 100_000, 0.1
        for i in range(n):
            packet = mux.enqueue(ch.id, bytes(10), float(i))
            for modem in (0, 1):
                mux.receive(packet, modem, bool(rng.random() >= p), float(i))
        lost = n - mux.counters[0].delivered
        sigma = (p * p * (1 - p * p) / n) ** 0.5
        assert abs(lost / n - p * p) < 3 * sigma
