import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from linksim.baseband import ChainConfig, CodecConfig
from linksim.baseband.framing import FrameConfig
from linksim.channel import make_preset
from linksim.errors import ConfigError
from linksim.harness import (IidLossModel, MuxSimSpec, PeriodicTraffic,
                             SweepSpec, ci95_halfwidth, emit_csv,
                             latency_budget, manifest_path, parse_config,
                             run_mux_sim, run_ranging, run_sweep, stable_seed,
                             stable_uniform)
from linksim.harness.config import RangingSpec
from linksim.harness.muxsim import LATENCY_BUCKETS, _histogram
from linksim.mux import LogicalChannel, Redundancy
from linksim.profiles import RP1, SP1, ModemCapacity


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

    def test_uniform_range(self):
        values = [stable_uniform(9, i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.45 < np.mean(values) < 0.55


class TestLatencyBudget:
    def test_default_serialization_time(self):
        budget = latency_budget()
        # (1024 + 32 CRC already inside + 6 tail) * 2 = 2060 coded bits
        assert budget.stage("serialization") == pytest.approx(2060 / 500e6)
        assert budget.stage("serialization") == pytest.approx(4.12e-6, rel=1e-3)

    def test_decode_equals_serialization(self):
        budget = latency_budget()
        assert budget.stage("decoding") == budget.stage("serialization")

    def test_propagation(self):
        budget = latency_budget(distance_m=0.5)
        assert budget.stage("propagation") == pytest.approx(1.6678e-9, rel=1e-3)

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
            latency_budget(coded_rate_bps=0.0)


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


    def test_histogram_edges_count_in_their_bucket(self):
        assert _histogram([]) == (0,) * (len(LATENCY_BUCKETS) + 1)
        assert _histogram(list(LATENCY_BUCKETS)) == (1,) * len(LATENCY_BUCKETS) + (0,)
        assert _histogram([0.0, 1.1e-5, 0.1, 0.2]) == (1, 1, 0, 0, 0, 0, 0, 0, 1, 1)

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
