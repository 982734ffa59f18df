import heapq
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cli_env
from linksim.baseband import (ChainConfig, CodecConfig, ModulationScheme,
                              SpreadingConfig)
from linksim.baseband.framing import FrameConfig
from linksim.channel import make_preset
from linksim.errors import ConfigError, NoTargetError
from linksim.harness import (IidLossModel, LatencySpec, MuxSimSpec,
                             PeriodicTraffic, SweepSpec, ci95_halfwidth,
                             emit_csv, latency_budget, manifest_path,
                             parse_config, run_mux_sim, run_ranging, run_sweep,
                             stable_seed, stable_uniform)
from linksim.harness import muxsim, rangingrun, workers
from linksim.harness.muxsim import LATENCY_BUCKETS, _histogram, _p95
from linksim.harness.rangingrun import (BLOCK_TRIALS, RangingSpec,
                                        ranging_waveform)
from linksim.harness.seeding import stable_seeds
from linksim.harness.workers import FORK
from linksim.mux import N_MODEMS, LogicalChannel, Mux, Redundancy
from linksim.profiles import (RP1, SP1, ModemCapacity, Robustness,
                              ServiceProfile)
from linksim.ranging import EchoScene, echo_range, generate_echo

REPO = Path(__file__).resolve().parent.parent
needs_fork = pytest.mark.skipif(not FORK, reason="no fork on this platform")


def eager_transmit(spec, mux):
    """Reference mux-sim event loop: every arrival of the run pushed onto
    one heap before the first packet is sent, then the copies in flight,
    all ranked at an equal time by one push counter."""
    events = []
    order = 0
    for ch_id, traffic in spec.traffic.items():
        t = traffic.start_offset
        while t < spec.duration_s:
            heapq.heappush(events, (t, order, "arrival",
                                    (ch_id, traffic.payload_size)))
            order += 1
            t += traffic.period
    for t, ch_id, size in spec.trace:
        heapq.heappush(events, (t, order, "arrival", (ch_id, size)))
        order += 1

    modem_busy = [False] * N_MODEMS
    copies = []

    def dispatch(now):
        nonlocal order
        while True:
            peeked = mux.peek_next(now)
            if peeked is None:
                return
            _, targets = peeked
            if any(modem_busy[m] for m in targets):
                return
            packet, targets = mux.schedule_next(now)
            done = now + len(packet.payload) * 8 / (spec.capacity.capacity_c * 1e6)
            for m in targets:
                modem_busy[m] = True
                heapq.heappush(events, (done, order, "tx_done", (m, packet)))
                order += 1

    while events:
        now, _, kind, data = heapq.heappop(events)
        if kind == "arrival":
            ch_id, size = data
            mux.enqueue(ch_id, bytes(size), now)
        else:
            modem, packet = data
            modem_busy[modem] = False
            copies.append((now, modem, packet))
        dispatch(now)
    return copies


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


def awgn_chain_config(payload_bits=1024, blocks=4):
    return ChainConfig.for_payload(
        payload_bits, codec=None, correct_cfo=False, track_pilot_phase=False,
        timing_search=8,
        frame=FrameConfig(n_payload_blocks=blocks, pilots_per_block=0))


class TestSeeding:
    def test_deterministic_and_distinct(self):
        a = stable_seed(42, 0, 0)
        assert a == stable_seed(42, 0, 0)
        assert a != stable_seed(42, 0, 1)
        assert a != stable_seed(42, 1, 0)
        assert a != stable_seed(43, 0, 0)

    def test_frozen_reference_values(self):
        # the mixing function is a documented contract; these freeze it
        assert stable_seed(0) == 0
        assert stable_seed(1, 2, 3) == 13592992832856903821
        assert stable_seed(2 ** 64 - 1, 7) == 9870940514099297810

    @settings(max_examples=200, deadline=None)
    @given(master=st.integers(-2 ** 70, 2 ** 70),
           indices=st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
           cut=st.integers(0, 6))
    def test_a_prefix_seed_chains_into_the_rest(self, master, indices, cut):
        # the sweep hashes (point) once and (trial) once per frame, then
        # each salt, instead of the whole (point, trial, salt) per frame
        head, tail = indices[:cut], indices[cut:]
        assert (stable_seed(stable_seed(master, *head), *tail)
                == stable_seed(master, *indices))

    @settings(max_examples=200, deadline=None)
    @given(masters=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                            max_size=20),
           index=st.integers(0, 2 ** 64 - 1))
    @example(masters=[0, 2 ** 64 - 1], index=0)
    @example(masters=[0, 2 ** 64 - 1], index=2 ** 64 - 1)
    @example(masters=[2 ** 64 - 1], index=2 ** 64 - 1)
    def test_an_array_of_seeds_is_stable_seed_of_each(self, masters, index):
        # the sweep hashes a point's trials and their salts an array at a
        # time; uint64 array arithmetic wraps as the Python ints are masked,
        # without a warning even for one item
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = np.array(masters, dtype=np.uint64)
            as_masters = stable_seeds(array, index)
            as_indices = stable_seeds(index, array)
            one = stable_seeds(masters[0], index)
        assert as_masters.dtype == as_indices.dtype == np.uint64
        assert as_masters.tolist() == [stable_seed(m, index) for m in masters]
        assert as_indices.tolist() == [stable_seed(index, m) for m in masters]
        assert one.tolist() == [stable_seed(masters[0], index)]

    def test_uniform_range(self):
        values = [stable_uniform(9, i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.45 < np.mean(values) < 0.55


class TestLatencyBudget:
    def test_default_serialization_time(self):
        stages = dict(latency_budget().stages)
        # (1024 + 32 CRC already inside + 6 tail) * 2 = 2060 coded bits
        assert stages["serialization"] == pytest.approx(2060 / 500e6)
        assert stages["serialization"] == pytest.approx(4.12e-6, rel=1e-3)

    def test_decode_equals_serialization(self):
        stages = dict(latency_budget().stages)
        assert stages["decoding"] == stages["serialization"]

    def test_propagation(self):
        stages = dict(latency_budget(LatencySpec(distance_m=0.5)).stages)
        assert stages["propagation"] == pytest.approx(1.6678e-9, rel=1e-3)

    def test_total_below_rp1(self):
        budget = latency_budget()
        assert budget.total < 50e-6
        assert budget.within_rp1
        assert budget.meets(RP1)

    def test_total_is_reorder_invariant(self):
        budget = latency_budget()
        shuffled = budget.stages[::-1]
        assert sum(d for _, d in shuffled) == pytest.approx(budget.total)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencySpec(coded_rate_bps=0.0)

    def test_the_chain_sets_frame_modulation_and_spreading(self):
        chain = ChainConfig.for_payload(
            992, modulation=ModulationScheme.QPSK, spreading=SpreadingConfig(2),
            frame=FrameConfig(cp_len=16))
        budget = latency_budget(LatencySpec(), chain)
        symbol_rate = 500e6 / 2
        stages = dict(budget.stages)
        assert stages["frame_assembly"] == chain.frame.header_len / symbol_rate
        # 2060 coded bits, 4120 chips: 2060 QPSK symbols in 9 blocks of 248
        assert stages["cp_overhead"] == 9 * 16 / symbol_rate
        # an uncoded chain is budgeted with the default codec
        assert latency_budget(LatencySpec(), replace(chain, codec=None)) == budget


class TestRunSweep:
    def test_awgn_point_matches_q_function(self):
        # >= 4e5 bits at Eb/N0 = 6 dB within 3 sigma of 2.39e-3
        cfg = awgn_chain_config()
        spec = SweepSpec(axis="ebn0_db", values=(6.0,), trials=400)
        result = run_sweep(cfg, make_preset("coupling-los"), spec, 2024)
        point = result.points[0]
        assert point.bits >= 4e5
        p = q_function(math.sqrt(2 * 10 ** 0.6))
        sigma = math.sqrt(p * (1 - p) / point.bits)
        assert abs(point.ber - p) < 3 * sigma

    def test_identical_runs_identical_points(self):
        cfg = awgn_chain_config()
        spec = SweepSpec(axis="snr_db", values=(5.0,), trials=20)
        a = run_sweep(cfg, make_preset("coupling-los"), spec, 7)
        b = run_sweep(cfg, make_preset("coupling-los"), spec, 7)
        assert a.points[0].__dict__ == b.points[0].__dict__

    def test_thread_count_does_not_change_results(self):
        cfg = awgn_chain_config()
        spec = SweepSpec(axis="snr_db", values=(4.0, 8.0), trials=24)
        serial = run_sweep(cfg, make_preset("coupling-los"), spec, 3, threads=1)
        threaded = run_sweep(cfg, make_preset("coupling-los"), spec, 3, threads=4)
        for a, b in zip(serial.points, threaded.points):
            assert a.__dict__ == b.__dict__

    def test_noiseless_point_is_error_free(self):
        cfg = awgn_chain_config(payload_bits=256, blocks=1)
        spec = SweepSpec(axis="snr_db", values=(float("inf"),), trials=5)
        result = run_sweep(cfg, make_preset("coupling-los"), spec, 5)
        assert result.points[0].ber == 0.0
        assert result.points[0].per == 0.0

    def test_confidence_honesty_meta(self):
        # the closed-form BER lies inside the reported 95% CI for >= 90%
        # of 20 master seeds (fixed seeds, deterministic outcome)
        cfg = awgn_chain_config()
        spec = SweepSpec(axis="ebn0_db", values=(6.0,), trials=100)
        p_true = q_function(math.sqrt(2 * 10 ** 0.6))
        covered = 0
        for seed in range(20):
            point = run_sweep(cfg, make_preset("coupling-los"), spec,
                              1000 + seed).points[0]
            if abs(point.ber - p_true) <= point.ber_ci95:
                covered += 1
        assert covered >= 18

    def test_ci_formula(self):
        assert ci95_halfwidth(0, 100) == 0.0
        assert ci95_halfwidth(10, 100) == pytest.approx(
            1.959963984540054 * math.sqrt(0.1 * 0.9 / 100))


class TestMuxSim:
    def _spec(self, loss, duration=0.02, redundancy=Redundancy.REDUNDANT):
        ch = LogicalChannel(0, SP1, deadline=1.0, redundancy=redundancy)
        return MuxSimSpec(
            channels=(ch,),
            traffic={0: PeriodicTraffic(period=2e-5, payload_size=125)},
            capacity=ModemCapacity(200.0), duration_s=duration, loss=loss)

    def test_a_period_below_one_ulp_of_the_duration_is_refused(self):
        ch = LogicalChannel(0, SP1, deadline=1.0)
        with pytest.raises(ValueError, match="period 1e-18 s does not advance"):
            MuxSimSpec(channels=(ch,), traffic={0: PeriodicTraffic(
                           period=1e-18, payload_size=125, start_offset=0.05)},
                       capacity=ModemCapacity(200.0), duration_s=0.1,
                       loss=IidLossModel((0.0, 0.0)))

    def test_lossless_single_mode_delivers_everything(self):
        spec = self._spec(IidLossModel((0.0, 0.0)), redundancy=Redundancy.SINGLE)
        result = run_mux_sim(spec, 1)
        s = result.stats[0]
        assert s.delivered == s.enqueued > 0
        assert s.lost_packets == 0 and s.e2e_per == 0.0

    def test_redundant_iid_loss_product(self):
        result = run_mux_sim(self._spec(IidLossModel((0.1, 0.1)), duration=0.4), 7)
        s = result.stats[0]
        assert s.enqueued >= 10_000
        sigma = math.sqrt(0.01 * 0.99 / s.enqueued)
        assert abs(s.e2e_per - 0.01) < 3 * sigma
        assert s.duplicate_drops > 0

    def test_distributive_balances_bytes(self):
        spec = self._spec(IidLossModel((0.0, 0.0)),
                          redundancy=Redundancy.DISTRIBUTIVE)
        result = run_mux_sim(spec, 2)
        assert abs(result.modem_bytes[0] - result.modem_bytes[1]) <= 125

    def test_deterministic(self):
        spec = self._spec(IidLossModel((0.2, 0.05)))
        a = run_mux_sim(spec, 99)
        b = run_mux_sim(spec, 99)
        assert [s.__dict__ for s in a.stats] == [s.__dict__ for s in b.stats]

    def test_inadmissible_set_names_load(self):
        ch = LogicalChannel(0, SP1, deadline=1.0,
                            redundancy=Redundancy.REDUNDANT)
        spec = MuxSimSpec(channels=(ch,),
                          traffic={0: PeriodicTraffic(period=1e-3,
                                                      payload_size=10)},
                          capacity=ModemCapacity(100.0), duration_s=0.01,
                          loss=IidLossModel((0.0, 0.0)))
        with pytest.raises(ConfigError, match="load"):
            run_mux_sim(spec, 0)

    def test_baseband_backed_losses(self):
        chain = ChainConfig.for_payload(
            1024, codec=CodecConfig(info_bits_per_codeword=512),
            timing_search=8, correct_cfo=False)
        loss = __import__("linksim.harness.muxsim",
                          fromlist=["BasebandLossModel"]).BasebandLossModel(
            chain=chain, channel=make_preset("coupling-mild", snr_db=8.0))
        ch = LogicalChannel(0, SP1, deadline=1.0,
                            redundancy=Redundancy.REDUNDANT)
        spec = MuxSimSpec(channels=(ch,),
                          traffic={0: PeriodicTraffic(period=1e-4,
                                                      payload_size=128)},
                          capacity=ModemCapacity(200.0), duration_s=5e-3,
                          loss=loss, mtu=128)
        result = run_mux_sim(spec, 5)
        s = result.stats[0]
        assert s.enqueued == 50
        assert s.delivered + s.lost_packets == s.enqueued

    def test_every_baseband_copy_carries_one_zero_payload_row(self,
                                                              monkeypatch):
        # packets carry zero bytes, so one all-zero row built once a run is
        # every copy's payload
        cfg = parse_config(json.loads(
            (REPO / "tests" / "golden" / "mux_baseband.json").read_text()),
            "mux-sim")
        payloads, link_trials = [], muxsim.link_trials

        def spy(frames, chain):
            frames = list(frames)
            payloads.extend(payload for payload, _, _, _ in frames)
            return link_trials(frames, chain)

        monkeypatch.setattr(muxsim, "link_trials", spy)
        run_mux_sim(cfg.mux, cfg.master_seed)
        row = payloads[0]
        assert len(payloads) > 1 and all(p is row for p in payloads)
        assert row.dtype == np.uint8 and row.shape == (cfg.chain.payload_bits,)
        assert not row.any()

    def test_deadline_pressure_counts_misses(self):
        ch = LogicalChannel(0, SP1, deadline=6e-6, redundancy=Redundancy.SINGLE)
        spec = MuxSimSpec(channels=(ch,),
                          traffic={0: PeriodicTraffic(period=1e-6,
                                                      payload_size=125)},
                          capacity=ModemCapacity(200.0), duration_s=1e-4,
                          loss=IidLossModel((0.0, 0.0)))
        result = run_mux_sim(spec, 3)
        s = result.stats[0]
        assert s.deadline_misses > 0
        assert s.enqueued == s.delivered + s.deadline_misses + s.lost_packets


    #: 2**20 bit/s: a byte takes 2**-17 s on the air, so air times, periods
    #: and their running sums are exact and ties between events are exact
    TICK = 2.0 ** -17
    LIGHT = ServiceProfile("light", Robustness.NORMAL, 0.01, 1)

    def _tie_spec(self, deadlines, redundancy, traffic, trace, queue_depth=2,
                  duration=64):
        channels = tuple(LogicalChannel(i, self.LIGHT, deadline=d * self.TICK,
                                        redundancy=r)
                         for i, (d, r) in enumerate(zip(deadlines, redundancy)))
        return MuxSimSpec(
            channels=channels,
            traffic={ch: PeriodicTraffic(period * self.TICK, size,
                                         offset * self.TICK)
                     for ch, (period, size, offset) in traffic.items()},
            capacity=ModemCapacity(1.048576), duration_s=duration * self.TICK,
            loss=IidLossModel((0.3, 0.3)), queue_depth=queue_depth,
            trace=tuple((t * self.TICK, ch, size) for t, ch, size in trace))

    def _assert_matches_eager_heap(self, spec, seed):
        result = run_mux_sim(spec, seed)
        with mock.patch.object(muxsim, "_transmit", eager_transmit):
            expected = run_mux_sim(spec, seed)
        assert result.csv_rows() == expected.csv_rows()
        assert result.modem_bytes == expected.modem_bytes

    def test_ties_keep_the_eager_heap_order(self):
        # channels 0 and 1 share period and offset; trace rows share instants
        # with them and with each other, out of time order; a 2-byte copy
        # started at an arrival finishes at the next one, 2 ticks later
        spec = self._tie_spec(
            deadlines=(24, 24, 3),
            redundancy=(Redundancy.SINGLE, Redundancy.SINGLE,
                        Redundancy.REDUNDANT),
            traffic={0: (2, 2, 0), 1: (2, 2, 0)},
            trace=[(6, 2, 1), (2, 2, 2), (2, 0, 3), (6, 1, 1), (4, 2, 2),
                   (0, 2, 1), (2, 2, 1), (10, 2, 1), (10, 0, 1)],
            duration=16)
        instants = {t for t, _, _ in spec.trace} | {2 * k * self.TICK
                                                    for k in range(8)}
        copies = eager_transmit(spec, Mux(list(spec.channels), queue_depth=2))
        assert sum(done in instants for done, _, _ in copies) >= 3
        self._assert_matches_eager_heap(spec, 11)

    @settings(max_examples=100, deadline=None)
    @given(deadlines=st.tuples(*[st.integers(1, 40)] * 3),
           redundancy=st.tuples(*[st.sampled_from(Redundancy)] * 3),
           traffic=st.dictionaries(
               st.integers(0, 2),
               st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(0, 4))),
           trace=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2),
                                    st.integers(1, 4)), max_size=30),
           queue_depth=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_any_ties_keep_the_eager_heap_order(self, deadlines, redundancy,
                                                traffic, trace, queue_depth,
                                                seed):
        self._assert_matches_eager_heap(
            self._tie_spec(deadlines, redundancy, traffic, trace, queue_depth),
            seed)

    def test_histogram_edges_count_in_their_bucket(self):
        assert _histogram([]) == (0,) * (len(LATENCY_BUCKETS) + 1)
        assert _histogram(list(LATENCY_BUCKETS)) == (1,) * len(LATENCY_BUCKETS) + (0,)
        assert _histogram([0.0, 1.1e-5, 0.1, 0.2]) == (1, 1, 0, 0, 0, 0, 0, 0, 1, 1)

    @settings(max_examples=500, deadline=None)
    @given(latencies=st.lists(
        st.sampled_from((1e-5, 3e-5, 1e-4)) | st.floats(1e-9, 1e-1),
        min_size=1, max_size=400))
    @example(latencies=[3e-5])
    @example(latencies=[3e-5, 1e-9])
    @example(latencies=[1e-4] * 21 + [2e-4])
    def test_p95_is_numpys_percentile(self, latencies):
        # mux-sim's p95 is numpy's "linear" 95th percentile, bit for bit,
        # computed without np.percentile; ties and the sampled edges make
        # equal neighbours, and eight decades make the interpolation round
        assert _p95(np.sort(latencies)) == np.percentile(latencies, 95)

    @settings(max_examples=200, deadline=None)
    @given(trace=st.lists(st.tuples(st.floats(0.0, 2e-5), st.integers(0, 1),
                                    st.integers(1, 200)), max_size=40),
           per_modem=st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 0.9)),
           redundancy=st.tuples(st.sampled_from(Redundancy),
                                st.sampled_from(Redundancy)),
           deadlines=st.tuples(st.floats(1e-7, 1e-5), st.floats(1e-7, 1e-5)),
           queue_depth=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_every_packet_has_one_fate(self, trace, per_modem, redundancy,
                                       deadlines, queue_depth, seed):
        channels = tuple(LogicalChannel(i, SP1, deadline=deadlines[i],
                                        redundancy=redundancy[i])
                         for i in range(2))
        spec = MuxSimSpec(channels=channels, traffic={},
                          capacity=ModemCapacity(1000.0), duration_s=1e-4,
                          loss=IidLossModel(per_modem), trace=tuple(trace),
                          queue_depth=queue_depth)
        for s in run_mux_sim(spec, seed).stats:
            assert s.enqueued == sum(1 for row in trace if row[1] == s.channel_id)
            assert s.enqueued == (s.delivered + s.deadline_misses
                                  + s.overflow_drops + s.lost_packets)


class TestEmitCsv:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], ["a", "b"], str(path))
        assert path.read_text() == "a,b\n"

    def test_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([{"a": 1, "b": 0.123456789123}], ["a", "b"], str(path))
        lines = path.read_text().splitlines()
        assert lines == ["a,b", "1,0.123456789"]

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv([{"x": 2.3883e-3}], ["x"], str(path))
        assert path.read_text().splitlines()[1] == "0.0023883"

    def test_unwritable_path_raises_oserror(self):
        with pytest.raises(OSError, match="cannot write"):
            emit_csv([], ["a"], "/nonexistent-dir/out.csv")


def two_draw_waveform(n_samples, oversample, rng):
    """QPSK chips from two ``integers(0, 2)`` draws, each held for
    ``oversample`` samples."""
    n_chips = -(-n_samples // oversample)
    chips = (rng.integers(0, 2, n_chips) * 2 - 1 +
             1j * (rng.integers(0, 2, n_chips) * 2 - 1)) / np.sqrt(2)
    return np.repeat(chips, oversample)[:n_samples]


def reference_ranging(spec, master_seed, full_search=False):
    """run_ranging's rows with one default_rng per seed, trial by trial;
    with ``full_search`` each trial searches every delay of the waveform,
    not only those up to ``range_max_m``'s round trip."""
    oversample = max(1, int(round(spec.sample_rate_hz / spec.bandwidth_hz)))
    rows = []
    for trial in range(spec.trials):
        rng = np.random.default_rng(stable_seed(master_seed, trial, 0))
        true_range = spec.range_min_m + rng.random() * (
            spec.range_max_m - spec.range_min_m)
        scene = EchoScene(
            true_range=true_range, sample_rate=spec.sample_rate_hz,
            bandwidth=spec.bandwidth_hz,
            relative_velocity=spec.relative_velocity_mps,
            reflection_gain_db=spec.reflection_gain_db,
            residual_si_power_db=spec.residual_si_power_db,
            echo_snr_db=spec.echo_snr_db, block_len=spec.block_len,
            carrier_wavelength=spec.carrier_wavelength_m)
        tx = two_draw_waveform(spec.waveform_len, oversample, rng)
        rx = generate_echo(tx, scene, seed=stable_seed(master_seed, trial, 1))
        max_range = None if full_search else spec.range_max_m
        try:
            est = echo_range(tx, rx, spec.sample_rate_hz, max_range=max_range)
            est_range, quality = est.range, est.peak_quality
        except NoTargetError:
            est_range, quality = float("nan"), 0.0
        rows.append((trial, true_range, est_range, est_range - true_range,
                     quality))
    return rows


class TestRanging:
    def test_run_ranging_records(self):
        spec = RangingSpec(sample_rate_hz=1e9, bandwidth_hz=5e8,
                           waveform_len=4096, trials=10, range_min_m=0.5,
                           range_max_m=20.0)
        result = run_ranging(spec, 3)
        assert len(result.records) == 10
        bound = 299792458.0 / (2 * 1e9)
        for record in result.records:
            assert abs(record.error_m) <= bound
            assert record.peak_quality > 0.5

    @settings(max_examples=80, deadline=None)
    @given(n_samples=st.integers(1, 3000), oversample=st.integers(1, 3),
           seed=st.integers(0, 2 ** 64 - 1))
    @example(n_samples=7, oversample=1, seed=0)      # odd chip count
    @example(n_samples=8, oversample=1, seed=0)      # even chip count
    @example(n_samples=4097, oversample=2, seed=5)   # 2049 chips
    @example(n_samples=8192, oversample=3, seed=11)  # 2731 chips
    def test_waveform_is_two_integers_draws(self, n_samples, oversample, seed):
        # run_ranging draws the range with random() just before the chips
        rng, reference = (np.random.default_rng(seed) for _ in range(2))
        rng.random()
        reference.random()
        got = ranging_waveform(n_samples, oversample, rng)
        expected = two_draw_waveform(n_samples, oversample, reference)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # both leave the generator at the same place, with no spare half
        state, ref_state = rng.bit_generator.state, reference.bit_generator.state
        assert state["state"] == ref_state["state"]
        assert state["has_uint32"] == ref_state["has_uint32"] == 0

    @pytest.mark.parametrize("changes", [
        {},
        {"relative_velocity_mps": -35.0, "block_len": 64},
        {"residual_si_power_db": None},
        {"echo_snr_db": None, "relative_velocity_mps": 12.0},
        # some trials find no target
        {"echo_snr_db": -22.0, "reflection_gain_db": -3.0},
    ])
    def test_rows_are_per_trial_default_rng_rows(self, changes):
        # more trials than one block of generators, and an odd chip count
        spec = RangingSpec(**{
            "sample_rate_hz": 1e9, "bandwidth_hz": 1e9 / 3, "waveform_len": 301,
            "trials": BLOCK_TRIALS + 5, "range_min_m": 0.5, "range_max_m": 9.0,
            "reflection_gain_db": -10.0, "residual_si_power_db": 20.0,
            "echo_snr_db": 20.0, **changes})
        got = [astuple(r) for r in run_ranging(spec, 2 ** 63 + 7).records]
        expected = reference_ranging(spec, 2 ** 63 + 7)
        np.testing.assert_array_equal(np.array(got), np.array(expected))
        if "reflection_gain_db" in changes:
            assert any(math.isnan(row[2]) for row in got)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 11])
    @pytest.mark.parametrize("changes", [
        {},
        # the detection edge: some trials find no target
        {"echo_snr_db": -10.0},
    ])
    def test_gate_prints_the_full_search_rows(self, seed, changes):
        # no range beyond range_max_m is drawn, and a noise peak there is far
        # below the detection threshold, so the gate moves no printed row
        raw = json.loads((REPO / "configs" / "ranging.json").read_text())
        raw["ranging"].update(changes)
        spec = parse_config(raw, "ranging").ranging
        got = [astuple(r) for r in run_ranging(spec, seed).records]
        expected = reference_ranging(spec, seed, full_search=True)
        assert [[f"{v:.9g}" for v in row] for row in got] == [
            [f"{v:.9g}" for v in row] for row in expected]
        if changes:
            assert any(math.isnan(row[2]) for row in got)

    # more trials than one block of generators, some finding no target
    SPLIT = RangingSpec(
        sample_rate_hz=1e9, bandwidth_hz=1e9 / 3, waveform_len=301,
        trials=BLOCK_TRIALS + 5, range_min_m=0.5, range_max_m=9.0,
        reflection_gain_db=-3.0, residual_si_power_db=20.0, echo_snr_db=-22.0)

    @pytest.fixture
    def fresh_pool(self):
        """The package's pool with no workers, closed again after the test.
        A worker is a copy of the caller at its fork, so a spy patched in
        before the run reaches it."""
        workers._POOL.close()
        yield workers._POOL
        workers._POOL.close()

    @needs_fork
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_rows_are_the_same_on_any_number_of_cpus(self, cpus, fresh_pool,
                                                     tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
        caller, log, slept = os.getpid(), tmp_path / "pids", []
        real_echo_range = rangingrun.echo_range

        def echo_range(*args, **kwargs):
            with log.open("a") as f:
                f.write(f"{os.getpid()}\n")
            # shares may outnumber the CPUs: the caller waits once, so every
            # worker starts its share before the caller could take it
            if os.getpid() == caller and not slept:
                slept.append(True)
                time.sleep(0.5)
            return real_echo_range(*args, **kwargs)

        monkeypatch.setattr(rangingrun, "echo_range", echo_range)
        got = [astuple(r) for r in run_ranging(self.SPLIT, 17).records]
        # one process a share, the caller running the first
        trials = self.SPLIT.trials
        shares = [trials * (k + 1) // cpus - trials * k // cpus
                  for k in range(cpus)]
        ran = Counter(int(pid) for pid in log.read_text().split())
        assert set(ran) == {caller} | {w.pid for w in fresh_pool._workers}
        assert ran[caller] == shares[0]
        assert sorted(ran.values()) == sorted(shares)
        expected = reference_ranging(self.SPLIT, 17)
        np.testing.assert_array_equal(np.array(got), np.array(expected))
        assert any(math.isnan(row[2]) for row in got)

    @needs_fork
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_share_raises_after_every_share_ends(self, failing,
                                                           fresh_pool,
                                                           monkeypatch):
        monkeypatch.setattr(workers, "cpu_count", lambda: 3)
        caller, slept = os.getpid(), []
        error = RuntimeError(f"a trial in the {failing} process")
        real_generate_echo = rangingrun.generate_echo

        def generate_echo(*args, **kwargs):
            if (os.getpid() == caller) == (failing == "caller"):
                raise error
            # the caller waits once, so the workers start their shares
            if os.getpid() == caller and not slept:
                slept.append(True)
                time.sleep(0.5)
            return real_generate_echo(*args, **kwargs)

        monkeypatch.setattr(rangingrun, "generate_echo", generate_echo)
        with pytest.raises(RuntimeError) as raised:
            run_ranging(self.SPLIT, 17)
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == str(error)
        # every worker answered, so none is left busy, and each serves on
        assert len(fresh_pool._workers) == 2
        assert all(not w.busy and w.conn is not None
                   for w in fresh_pool._workers)

    @needs_fork
    def test_one_trial_forks_no_worker(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(workers, "cpu_count", lambda: 4)
        forked = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        run_ranging(replace(self.SPLIT, trials=1), 17)
        assert forked == [] and fresh_pool._workers == []
        run_ranging(replace(self.SPLIT, trials=2), 17)
        [worker] = fresh_pool._workers
        assert forked == [worker.pid] and not worker.busy

    def test_a_one_trial_cli_run_does_not_import_multiprocessing(self,
                                                                 tmp_path):
        data = json.loads((REPO / "configs" / "ranging.json").read_text())
        data["ranging"]["trials"] = 1
        config = tmp_path / "ranging.json"
        config.write_text(json.dumps(data))
        code = ("import sys; from linksim.cli import main; "
                f"assert main(['ranging', '--config', {str(config)!r}, "
                f"'--out', {str(tmp_path / 'o.csv')!r}]) == 0; "
                "assert 'multiprocessing' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                       env=cli_env(), check=True)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_long_run_goes_a_round_of_blocks_at_a_time(self, cpus,
                                                         monkeypatch):
        # rounds of two 4-trial parts a CPU: 69 trials are five rounds on
        # two CPUs and three on three
        monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
        monkeypatch.setattr(rangingrun, "BLOCK_TRIALS", 4)
        monkeypatch.setattr(workers, "ROUND_PARTS", 2)
        rounds = []
        pool = workers._POOL
        run = pool._run

        def spy(fn, shares):
            rounds.append([[(trials[0], trials[-1] + 1) for trials, *_ in share]
                           for share in shares])
            assert all(trials == tuple(range(trials[0], trials[-1] + 1))
                       for share in shares for trials, *_ in share)
            return run(fn, shares)

        monkeypatch.setattr(pool, "_run", spy)
        got = [astuple(r) for r in run_ranging(self.SPLIT, 17).records]
        parts = [part for shares in rounds for share in shares
                 for part in share]
        assert [t for lo, hi in parts for t in range(lo, hi)] == list(
            range(self.SPLIT.trials))
        assert all(hi - lo <= 4 for lo, hi in parts)
        assert len(rounds) == {2: 5, 3: 3}[cpus]
        assert all(len(shares) == cpus and all(len(s) <= 2 for s in shares)
                   for shares in rounds)
        expected = reference_ranging(self.SPLIT, 17)
        np.testing.assert_array_equal(np.array(got), np.array(expected))

    def test_a_chip_is_at_most_the_whole_waveform(self):
        # a 1000-sample chip and a 1e21-sample one are the same waveform
        spec = RangingSpec(sample_rate_hz=1e9, bandwidth_hz=1e6,
                           waveform_len=1000, trials=3, range_min_m=0.5,
                           range_max_m=9.0, echo_snr_db=10.0)
        expected = [astuple(r) for r in run_ranging(spec, 4).records]
        for bandwidth in (1e-12, 5e-324, 1e9 / 1000.4):
            narrow = replace(spec, bandwidth_hz=bandwidth)
            got = [astuple(r) for r in run_ranging(narrow, 4).records]
            np.testing.assert_array_equal(np.array(got), np.array(expected))


class TestConfigParsing:
    def _base(self):
        return {
            "master_seed": 1,
            "baseband": {"payload_bits": 256, "codec": None,
                         "payload_blocks": 1, "pilots_per_block": 0},
            "channel": {"preset": "coupling-los"},
            "sweep": {"axis": "snr_db", "values": [5.0], "trials": 2},
        }

    def test_valid_config(self):
        cfg = parse_config(self._base(), "ber-sweep")
        assert cfg.master_seed == 1
        assert cfg.chain.payload_bits == 256
        assert cfg.sweep.values == (5.0,)

    def test_unknown_top_level_key(self):
        data = self._base()
        data["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            parse_config(data, "ber-sweep")

    def test_unknown_nested_key(self):
        data = self._base()
        data["sweep"]["bogus"] = True
        with pytest.raises(ConfigError, match="sweep.*bogus"):
            parse_config(data, "ber-sweep")

    def test_scenario_mismatch(self):
        data = self._base()
        data["scenario"] = "ranging"
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(data, "ber-sweep")

    def test_missing_section(self):
        data = self._base()
        del data["sweep"]
        with pytest.raises(ConfigError, match="sweep: section required"):
            parse_config(data, "ber-sweep")

    def test_missing_master_seed(self):
        data = self._base()
        del data["master_seed"]
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(data, "ber-sweep")

    def test_per_sweep_requires_codec(self):
        data = self._base()
        data["scenario"] = "per-sweep"
        with pytest.raises(ConfigError, match="codec"):
            parse_config(data, "per-sweep")

    def test_unknown_preset(self):
        data = self._base()
        data["channel"] = {"preset": "nope"}
        with pytest.raises(ConfigError, match="preset"):
            parse_config(data, "ber-sweep")

    def test_custom_taps(self):
        data = self._base()
        data["channel"] = {"taps": [
            {"delay": 0, "gain_db": 0.0},
            {"delay": 3, "gain_db": -10.0, "phase_deg": 45.0,
             "bounce_count": 2, "via_sidelobe": True},
        ]}
        cfg = parse_config(data, "ber-sweep")
        assert cfg.channel.max_delay == 3

    def test_custom_service_profile_usable_in_mux(self):
        data = {
            "master_seed": 3,
            "profiles": {"service": {"SPX": {
                "robustness": "normal", "max_bitrate_rb": 10.0,
                "spreading_factor_sf": 2}}},
            "mux": {
                "modem_capacity_mbps": 100.0,
                "duration_s": 0.001,
                "loss": {"mode": "iid", "per_modem": [0.0, 0.0]},
                "channels": [{"id": 0, "sp": "SPX", "deadline_s": 0.1,
                              "redundancy": "single",
                              "traffic": {"period_s": 1e-4,
                                          "payload_bytes": 50}}],
            },
        }
        cfg = parse_config(data, "mux-sim")
        assert cfg.mux.channels[0].sp.id == "SPX"

    def test_randomized_phases_need_ls_estimator(self):
        data = self._base()
        data["channel"]["randomize_tap_phases"] = True
        with pytest.raises(ConfigError, match="pilot-ls"):
            parse_config(data, "ber-sweep")

    def test_baseband_mux_randomized_phases_need_ls_estimator(self):
        data = self._base()
        del data["sweep"]
        data["channel"]["randomize_tap_phases"] = True
        data["mux"] = {
            "modem_capacity_mbps": 100.0, "duration_s": 0.001,
            "loss": {"mode": "baseband"},
            "channels": [{"id": 0, "sp": "SP1", "deadline_s": 0.1}],
        }
        with pytest.raises(ConfigError, match="pilot-ls"):
            parse_config(data, "mux-sim")
        data["baseband"]["receiver"] = {"channel_estimator": "pilot-ls"}
        assert parse_config(data, "mux-sim").mux.loss.channel.randomize_tap_phases

    def test_trace_file_loaded(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("# time,channel,size\n0.0,0,64\n1e-4,0,64\n")
        data = {
            "master_seed": 3,
            "mux": {
                "modem_capacity_mbps": 100.0, "duration_s": 0.001,
                "loss": {"mode": "iid", "per_modem": [0.0, 0.0]},
                "channels": [{"id": 0, "sp": "SP1", "deadline_s": 0.1}],
                "trace_file": str(trace),
            },
        }
        cfg = parse_config(data, "mux-sim")
        assert cfg.mux.trace == ((0.0, 0, 64), (1e-4, 0, 64))


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "linksim", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


class TestCli:
    def _write_config(self, tmp_path, trials=4):
        config = {
            "scenario": "ber-sweep",
            "master_seed": 77,
            "baseband": {"payload_bits": 256, "codec": None,
                         "payload_blocks": 1, "pilots_per_block": 0,
                         "receiver": {"timing_search": 8,
                                      "correct_cfo": False}},
            "channel": {"preset": "coupling-los"},
            "sweep": {"axis": "snr_db", "values": [6.0], "trials": trials},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_success_writes_csv_and_manifest(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "result.csv"
        proc = run_cli(["ber-sweep", "--config", str(config), "--out", str(out)],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("snr_db,trials,bits,")
        assert len(lines) == 2
        manifest = json.loads(Path(manifest_path(str(out))).read_text())
        assert manifest["master_seed"] == 77
        assert manifest["config"]["sweep"]["trials"] == 4
        wall = manifest["wall_clock_s"]
        assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0

    def test_seed_override(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "r.csv"
        proc = run_cli(["ber-sweep", "--config", str(config), "--out",
                        str(out), "--seed", "123"], tmp_path)
        assert proc.returncode == 0
        manifest = json.loads(Path(manifest_path(str(out))).read_text())
        assert manifest["master_seed"] == 123

    def test_config_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"master_seed": 1, "bogus": 2}))
        proc = run_cli(["ber-sweep", "--config", str(path), "--out",
                        str(tmp_path / "o.csv")], tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        proc = run_cli(["ber-sweep", "--config", str(path), "--out",
                        str(tmp_path / "o.csv")], tmp_path)
        assert proc.returncode == 2

    def test_missing_config_file_exit_3(self, tmp_path):
        proc = run_cli(["ber-sweep", "--config", str(tmp_path / "none.json"),
                        "--out", str(tmp_path / "o.csv")], tmp_path)
        assert proc.returncode == 3
        assert "i/o error" in proc.stderr

    def test_unwritable_output_exit_3(self, tmp_path):
        config = self._write_config(tmp_path)
        proc = run_cli(["ber-sweep", "--config", str(config), "--out",
                        "/nonexistent-dir/x.csv"], tmp_path)
        assert proc.returncode == 3

    def test_latency_budget_subcommand(self, tmp_path):
        config = tmp_path / "lat.json"
        config.write_text(json.dumps({
            "master_seed": 1,
            "latency": {"coded_rate_bps": 5e8, "distance_m": 0.5}}))
        out = tmp_path / "lat.csv"
        proc = run_cli(["latency-budget", "--config", str(config), "--out",
                        str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        assert "serialization,4.12e-06" in text
        assert "within_rp1,1" in text
        golden = Path(__file__).resolve().parent / "golden" / "latency_budget.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_per_sweep_subcommand(self, tmp_path):
        config = {
            "scenario": "per-sweep",
            "master_seed": 3,
            "baseband": {"payload_bits": 224,
                         "codec": {"info_bits_per_codeword": 256},
                         "receiver": {"timing_search": 8}},
            "channel": {"preset": "coupling-mild"},
            "sweep": {"axis": "ebn0_db", "values": [2.0, 6.0], "trials": 5},
        }
        path = tmp_path / "per.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "per.csv"
        proc = run_cli(["per-sweep", "--config", str(path), "--out", str(out)],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("ebn0_db,")
        assert len(lines) == 3

    def test_ranging_subcommand(self, tmp_path):
        config = tmp_path / "rng.json"
        config.write_text(json.dumps({
            "master_seed": 5,
            "ranging": {"sample_rate_hz": 1e9, "bandwidth_hz": 5e8,
                        "waveform_len": 2048, "trials": 3,
                        "range_min_m": 1.0, "range_max_m": 10.0}}))
        out = tmp_path / "rng.csv"
        proc = run_cli(["ranging", "--config", str(config), "--out", str(out)],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,true_range_m,est_range_m,error_m,peak_quality"
        assert len(lines) == 4

    def test_shipped_example_configs_parse(self, tmp_path):
        repo = Path(__file__).resolve().parent.parent
        for name, scenario in [("ber_sweep.json", "ber-sweep"),
                               ("per_sweep.json", "per-sweep"),
                               ("mux_sim.json", "mux-sim"),
                               ("ranging.json", "ranging"),
                               ("latency_budget.json", "latency-budget")]:
            data = json.loads((repo / "configs" / name).read_text())
            parse_config(data, scenario)
