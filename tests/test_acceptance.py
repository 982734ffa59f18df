"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime.
"""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env
from linksim.baseband import ChainConfig, ChannelKnowledge, CodecConfig
from linksim.baseband.framing import FrameConfig
from linksim.baseband.modulation import SpreadingConfig
from linksim.channel import estimate_frequency_response, make_preset
from linksim.harness import (IidLossModel, MuxSimSpec, PeriodicTraffic,
                             SweepSpec, latency_budget, run_mux_sim, run_sweep)
from linksim.harness.sweep import link_trials
from linksim.mux import LogicalChannel, Redundancy
from linksim.profiles import (SERVICE_PROFILES, ModemCapacity,
                              required_resources)
from linksim.ranging import (SPEED_OF_LIGHT, EchoScene, TwrExchange,
                             echo_range, generate_echo, resolve_echoes,
                             twr_range)


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


def report(criterion, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def awgn_chain(payload_bits, blocks, sf=1, sync_threshold=0.5,
               timing_search=8):
    # spread-spectrum points run below 0 dB per chip, where the normalized
    # preamble correlation tops out near sqrt(SNR/(1+SNR)) < 0.5
    return ChainConfig.for_payload(
        payload_bits, codec=None, spreading=SpreadingConfig(sf),
        correct_cfo=False, track_pilot_phase=False,
        timing_search=timing_search, sync_threshold=sync_threshold,
        frame=FrameConfig(n_payload_blocks=blocks, pilots_per_block=0))


def measured_ber(cfg, values, trials, axis="snr_db", seed=1):
    spec = SweepSpec(axis=axis, values=tuple(values), trials=trials)
    result = run_sweep(cfg, make_preset("coupling-los"), spec, seed)
    return result.points


def test_criterion_1_awgn_oracle():
    """Uncoded BPSK BER matches Q(sqrt(2 Eb/N0)) at 4/6/8 dB, >= 1e6 bits."""
    started = time.perf_counter()
    cfg = awgn_chain(payload_bits=1024, blocks=4)
    trials = 977                      # 977 * 1024 = 1,000,448 bits per point
    points = measured_ber(cfg, (4.0, 6.0, 8.0), trials, axis="ebn0_db", seed=8)
    details = []
    ok = True
    for point in points:
        theory = q_function(math.sqrt(2 * 10 ** (point.axis_value / 10)))
        sigma = math.sqrt(theory * (1 - theory) / point.bits)
        ok &= point.bits >= 1_000_000
        ok &= abs(point.ber - theory) < 3 * sigma
        details.append(f"{point.axis_value:g} dB: ber={point.ber:.3e} "
                       f"theory={theory:.3e} (3sigma={3 * sigma:.2e})")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 240.0
    report(1, ok, "; ".join(details) + f"; runtime {elapsed:.1f} s")


def test_criterion_2_cp_fde_exactness():
    """coupling-harsh (delay spread 24 <= CP 32), noiseless FDE: bit-exact
    over 1000 frames (short codec), plus 50 frames with the default codec."""
    model = make_preset("coupling-harsh")
    knowledge = ChannelKnowledge(estimate_frequency_response(model, 256), 0.0)
    rng = np.random.default_rng(20260810)

    def run_frames(cfg, frames):
        # a frame is exact when every payload bit is right and every
        # codeword passes its CRC (packet error 0)
        stream = ((rng.integers(0, 2, cfg.payload_bits).astype(np.uint8),
                   model, 0, knowledge) for _ in range(frames))
        _, packet_errors = link_trials(stream, cfg)
        return int(np.count_nonzero(packet_errors == 0))

    short_cfg = ChainConfig.for_payload(
        224, codec=CodecConfig(info_bits_per_codeword=256), timing_search=8)
    exact_short = run_frames(short_cfg, 1000)
    default_cfg = ChainConfig.for_payload(992, timing_search=8)
    exact_default = run_frames(default_cfg, 50)
    report(2, exact_short == 1000 and exact_default == 50,
           f"{exact_short}/1000 frames (256-bit codewords) and "
           f"{exact_default}/50 frames (default 1024-bit codewords) bit-exact "
           f"over coupling-harsh (delay spread {model.max_delay} <= CP 32)")


def _snr_at_ber(points, target):
    """Interpolate the per-chip SNR where the measured curve crosses target."""
    xs = [p.axis_value for p in points]
    ys = [p.ber for p in points]
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if y0 >= target >= y1:
            t = (math.log(target) - math.log(y0)) / (math.log(y1) - math.log(y0))
            return x0 + t * (x1 - x0)
    raise AssertionError(f"BER target {target} not bracketed by {ys}")


def test_criterion_3_spreading_gain():
    """SF=8 shifts the BER curve by 10 log10(8) = 9.03 +- 0.5 dB per-chip.

    Timing is pinned (timing_search=0): the duplex link acquires once and
    tracks, and per-frame re-acquisition misses at negative per-chip SNR
    would floor the curve with whole-frame errors unrelated to despreading.
    """
    target = 1e-2
    cfg_sf1 = awgn_chain(payload_bits=1024, blocks=4, sf=1, timing_search=0)
    pts_sf1 = measured_ber(cfg_sf1, (3.5, 4.0, 4.5, 5.0), trials=60, seed=31)
    cfg_sf8 = awgn_chain(payload_bits=128, blocks=4, sf=8, sync_threshold=0.2,
                         timing_search=0)
    pts_sf8 = measured_ber(cfg_sf8, (-5.5, -5.0, -4.5, -4.0), trials=480, seed=32)
    snr1 = _snr_at_ber(pts_sf1, target)
    snr8 = _snr_at_ber(pts_sf8, target)
    shift = snr1 - snr8
    expected = 10 * math.log10(8)
    report(3, abs(shift - expected) <= 0.5,
           f"measured shift {shift:.2f} dB vs {expected:.2f} dB "
           f"(snr@1e-2: sf1 {snr1:.2f}, sf8 {snr8:.2f})")


def test_criterion_4_redundancy_product_law():
    """Redundant mux over two modems at loss 0.1 each: e2e PER ~ 0.01."""
    ch = LogicalChannel(0, SERVICE_PROFILES["SP1"], deadline=1.0,
                        redundancy=Redundancy.REDUNDANT)
    spec = MuxSimSpec(channels=(ch,),
                      traffic={0: PeriodicTraffic(period=2e-5, payload_size=125)},
                      capacity=ModemCapacity(200.0), duration_s=2.0,
                      loss=IidLossModel((0.1, 0.1)))
    stats = run_mux_sim(spec, master_seed=44).stats[0]
    expected = 0.01
    sigma = math.sqrt(expected * (1 - expected) / stats.enqueued)
    ok = stats.enqueued >= 100_000 and abs(stats.e2e_per - expected) < 3 * sigma
    report(4, ok, f"{stats.enqueued} packets, e2e PER {stats.e2e_per:.5f} vs "
                  f"0.01 (3sigma={3 * sigma:.5f})")


def test_criterion_5_latency_budget_and_coding_gain():
    """Serialization ~4.1 us, total < 50 us; coded BER >= 10x below uncoded
    at the uncoded-1e-3 operating point."""
    budget = latency_budget()
    serialization = budget.stage("serialization")
    ok = abs(serialization - 4.12e-6) < 0.1e-6 and budget.total < 50e-6

    # uncoded BER hits 1e-3 at Eb/N0 = 6.79 dB
    ebn0 = 6.79
    uncoded_cfg = awgn_chain(payload_bits=1024, blocks=4)
    uncoded = measured_ber(uncoded_cfg, (ebn0,), trials=400, axis="ebn0_db",
                           seed=51)[0]
    coded_cfg = ChainConfig.for_payload(
        4 * 992, correct_cfo=False, track_pilot_phase=False, timing_search=8)
    coded = measured_ber(coded_cfg, (ebn0,), trials=120, axis="ebn0_db",
                         seed=52)[0]
    ok &= 3e-4 < uncoded.ber < 3e-3          # sanity: operating point correct
    ok &= coded.ber <= uncoded.ber / 10.0
    report(5, ok,
           f"serialization {serialization * 1e6:.2f} us, total "
           f"{budget.total * 1e6:.2f} us < 50 us; coded ber {coded.ber:.2e} "
           f"vs uncoded {uncoded.ber:.2e} at Eb/N0 {ebn0} dB "
           f"({coded.bits} coded bits)")


def test_criterion_6_resource_formula():
    """required_resources reproduces hand arithmetic for Table II at
    C in {200, 400, 800, 1000}, exactly."""
    expected = {
        ("SP1", 200): 1.0, ("SP1", 400): 0.5, ("SP1", 800): 0.25,
        ("SP1", 1000): 0.2,
        ("SP2", 200): 2.0, ("SP2", 400): 1.0, ("SP2", 800): 0.5,
        ("SP2", 1000): 0.4,
        ("SP3", 200): 5.0, ("SP3", 400): 2.5, ("SP3", 800): 1.25,
        ("SP3", 1000): 1.0,
    }
    mismatches = []
    for (sp_name, c), value in expected.items():
        got = required_resources(SERVICE_PROFILES[sp_name], ModemCapacity(float(c)))
        if got != value:
            mismatches.append(f"{sp_name}@{c}: {got!r} != {value!r}")
    report(6, not mismatches,
           "all 12 (profile, capacity) pairs exact" if not mismatches
           else "; ".join(mismatches))


def test_criterion_7_ranging():
    """Noiseless echo error <= c/(2 fs) for 20 random ranges; two-target
    resolution at c/(2B) with B = 500 MHz; TWR offset invariance exact."""
    fs = 1e9
    bound = SPEED_OF_LIGHT / (2 * fs)
    rng = np.random.default_rng(7001)
    chips = (rng.integers(0, 2, 8192) * 2 - 1 +
             1j * (rng.integers(0, 2, 8192) * 2 - 1)) / np.sqrt(2)
    worst = 0.0
    ok = True
    for _ in range(20):
        true_range = float(rng.uniform(0.5, 100.0))
        scene = EchoScene(true_range=true_range, sample_rate=fs, bandwidth=5e8)
        est = echo_range(chips, generate_echo(chips, scene), fs)
        err = abs(est.range - true_range)
        worst = max(worst, err)
        ok &= err <= bound

    # two targets separated by exactly c/(2B) at B = 500 MHz
    fs_b = 500e6
    separation = SPEED_OF_LIGHT / (2 * 500e6)
    tx = (rng.integers(0, 2, 16384) * 2 - 1 +
          1j * (rng.integers(0, 2, 16384) * 2 - 1)) / np.sqrt(2)
    s1 = EchoScene(true_range=3.0, sample_rate=fs_b, bandwidth=500e6)
    s2 = EchoScene(true_range=3.0 + separation, sample_rate=fs_b, bandwidth=500e6)
    estimates = resolve_echoes(tx, generate_echo(tx, s1) + generate_echo(tx, s2),
                               fs_b, n_targets=2)
    d1 = s1.round_trip_samples
    expected_ranges = [SPEED_OF_LIGHT * d1 / (2 * fs_b),
                       SPEED_OF_LIGHT * (d1 + 1) / (2 * fs_b)]
    resolved = np.allclose([e.range for e in estimates], expected_ranges)
    ok &= resolved

    base = TwrExchange(t1=0.25, t2=0.5, t3=0.75, t4=1.0)
    shifted = TwrExchange(t1=0.25, t2=0.5 + 2.0 ** -10, t3=0.75 + 2.0 ** -10,
                          t4=1.0)
    offset_exact = twr_range(base) == twr_range(shifted)
    ok &= offset_exact
    report(7, ok,
           f"20 ranges worst error {worst:.4f} m <= {bound:.4f} m; two targets "
           f"at {separation:.4f} m resolved: {resolved}; TWR offset "
           f"invariance exact: {offset_exact}")


def _cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "linksim", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


def test_criterion_8_determinism(tmp_path):
    """Same config + seed at different thread counts: byte-identical CSV."""
    config = {
        "scenario": "ber-sweep",
        "master_seed": 99,
        "baseband": {"payload_bits": 1024, "codec": None,
                     "payload_blocks": 4, "pilots_per_block": 0,
                     "receiver": {"correct_cfo": False, "timing_search": 8,
                                  "track_pilot_phase": False}},
        "channel": {"preset": "coupling-mild"},
        "sweep": {"axis": "ebn0_db", "values": [6.0, 9.0], "trials": 40},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for threads, name in [(1, "a.csv"), (4, "b.csv"), (1, "c.csv")]:
        out = tmp_path / name
        proc = _cli(["ber-sweep", "--config", str(cfg_path), "--out", str(out),
                     "--threads", str(threads)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    sweeps_identical = outputs[0] == outputs[1] == outputs[2]

    mux_config = {
        "scenario": "mux-sim", "master_seed": 5,
        "mux": {"modem_capacity_mbps": 200.0, "duration_s": 0.05,
                "loss": {"mode": "iid", "per_modem": [0.1, 0.1]},
                "channels": [{"id": 0, "sp": "SP1", "deadline_s": 0.01,
                              "redundancy": "redundant",
                              "traffic": {"period_s": 2e-05,
                                          "payload_bytes": 125}}]},
    }
    mux_path = tmp_path / "mux.json"
    mux_path.write_text(json.dumps(mux_config))
    mux_outputs = []
    for threads, name in [(1, "m1.csv"), (3, "m2.csv")]:
        out = tmp_path / name
        proc = _cli(["mux-sim", "--config", str(mux_path), "--out", str(out),
                     "--threads", str(threads)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        mux_outputs.append(out.read_bytes())
    mux_identical = mux_outputs[0] == mux_outputs[1]

    report(8, sweeps_identical and mux_identical,
           f"ber-sweep byte-identical across threads 1/4/1: {sweeps_identical}; "
           f"mux-sim byte-identical: {mux_identical}")
