"""Config parsing on malformed input, and counted outcomes for bad physics.

Every leaf of every shipped config is replaced in turn by a value of each
JSON type; the parser must either accept the result or raise ConfigError
whose message starts with the dotted path of the replaced key.
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env
from linksim.baseband import ChainConfig
from linksim.baseband.chain import ChannelKnowledge
from linksim.channel import make_preset
from linksim.cli import main
from linksim.errors import ConfigError
from linksim.harness import load_config, parse_config, run_mux_sim
from linksim.harness.sweep import link_trials

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.json")) + sorted(
    (REPO / "tests" / "golden").glob("*.json"))
SUBSTITUTES = ("x", True, [], {}, None, -1, 1.5, float("nan"), float("inf"))

# well-typed substitutes that break a constraint between several keys: the
# message names the constraint's owner, not the replaced key
CROSS_KEY = {
    # the default codec's codewords overflow the configured frame
    ("configs/ber_sweep.json", "baseband.codec", "{}"): "baseband: payload needs",
    ("golden/uncoded_los.json", "baseband.codec", "{}"): "baseband: payload needs",
    # the default genie estimator meets randomized tap phases
    ("golden/pilot_ls_td_lms_mild.json", "baseband.receiver", "{}"):
        "channel.randomize_tap_phases: requires the pilot-ls estimator",
}


def _paths(node, path=()):
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _dotted(path):
    """Dotted key path of a leaf, without its trailing list indices."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (
            f".{key}" if text else key)
    while text.endswith("]"):
        text = text[:text.rindex("[")]
    return text


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _config_id(path):
    return f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_every_malformed_leaf_parses_or_names_its_key(config):
    base = json.loads(config.read_text())
    wrong = []
    for path in _paths(base):
        key = _dotted(path)
        for value in SUBSTITUTES:
            try:
                parse_config(_replaced(base, path, value), base["scenario"])
            except ConfigError as exc:
                expected = CROSS_KEY.get((_config_id(config), key, repr(value)),
                                         key)
                if not str(exc).startswith(expected):
                    wrong.append(f"{key}={value!r}: {exc}")
    assert wrong == []


def _mux(**extra):
    mux = {"modem_capacity_mbps": 100.0, "duration_s": 0.001,
           "loss": {"mode": "iid", "per_modem": [0.0, 0.0]},
           "channels": [{"id": 0, "sp": "SP1", "deadline_s": 0.1}]}
    return {"master_seed": 3, "mux": {**mux, **extra}}


def _error(data, scenario):
    with pytest.raises(ConfigError) as info:
        parse_config(data, scenario)
    return str(info.value)


def test_trace_row_needs_three_fields():
    assert _error(_mux(trace=[[0.0, 0]]), "mux-sim").startswith(
        "mux.trace[0]: expected [time, channel, size]")


def test_non_numeric_trace_file_field(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.0,0,64\n1e-4,zero,64\n")
    assert _error(_mux(trace_file=str(trace)), "mux-sim").startswith(
        f"mux.trace_file: {trace}:2: expected time,channel,size")


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_non_finite_trace_file_time(time, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"0.0,0,64\n{time},0,64\n")
    assert _error(_mux(trace_file=str(trace)), "mux-sim") == (
        f"mux.trace_file: {trace}:2: time: expected a finite number, got {time}")


def test_service_profile_entry_must_be_an_object():
    data = _mux()
    data["profiles"] = {"service": {"SPX": "fast"}}
    assert _error(data, "mux-sim") == (
        "profiles.service.SPX: expected object, got str")


REQUIREMENT = {"max_latency": 1e-3, "max_bitrate": 5e6, "per_bound": 1e-4,
               "distance_min": 20, "distance_max": 200}


def _with_requirement(**entry):
    return {"master_seed": 1, "profiles": {"requirement": {"RPX": entry}}}


def test_requirement_profile_missing_key_names_its_path():
    entry = {k: v for k, v in REQUIREMENT.items() if k != "max_bitrate"}
    assert _error(_with_requirement(**entry), "latency-budget") == (
        "profiles.requirement.RPX.max_bitrate: required key missing")


def test_requirement_profile_flags_must_be_bools():
    parse_config(_with_requirement(**REQUIREMENT, los_required=False),
                 "latency-budget")
    assert _error(_with_requirement(**REQUIREMENT, los_required="no"),
                  "latency-budget").startswith(
        "profiles.requirement.RPX.los_required: expected bool")


def test_receiver_flag_is_not_coerced_from_a_string():
    data = json.loads((REPO / "configs" / "ber_sweep.json").read_text())
    data["baseband"]["receiver"]["correct_cfo"] = "no"
    assert _error(data, "ber-sweep").startswith(
        "baseband.receiver.correct_cfo: expected bool")


def test_numeric_strings_are_rejected():
    data = json.loads((REPO / "configs" / "ranging.json").read_text())
    data["ranging"]["sample_rate_hz"] = "1e9"
    assert _error(data, "ranging").startswith(
        "ranging.sample_rate_hz: expected number, got str")


def test_cli_malformed_value_exits_2_without_traceback(tmp_path):
    data = json.loads((REPO / "configs" / "ranging.json").read_text())
    data["ranging"]["trials"] = "x"
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim", "ranging", "--config", str(config),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 2
    assert "ranging.trials" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_integer_past_the_int_string_limit_is_invalid_json(tmp_path):
    # Python refuses to convert decimal strings of more than 4300 digits
    text = (REPO / "configs" / "ranging.json").read_text()
    config = tmp_path / "huge.json"
    config.write_text(text.replace("50.0", "1" + "0" * 5000))
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(config), "ranging")


def test_negative_timing_search_names_its_key():
    data = json.loads((REPO / "tests" / "golden" / "uncoded_los.json").read_text())
    data["baseband"]["receiver"]["timing_search"] = -1
    assert _error(data, "ber-sweep") == (
        "baseband.receiver.timing_search: timing_search must be >= 0")
    data["baseband"]["receiver"]["timing_search"] = 0
    parse_config(data, "ber-sweep")


def test_payloads_must_fit_the_mtu():
    traffic = {"period_s": 1e-4, "payload_bytes": 200}
    data = _mux(mtu=128)
    data["mux"]["channels"][0]["traffic"] = traffic
    assert _error(data, "mux-sim") == (
        "mux.mtu: mtu 128 is below the 200-byte payload of channel 0")
    assert _error(_mux(mtu=128, trace=[[0.0, 0, 129]]), "mux-sim") == (
        "mux.trace: trace packet sizes must be <= mtu 128")
    assert _error(_mux(mtu=0), "mux-sim") == "mux.mtu: mtu must be >= 1"
    parse_config(_mux(mtu=128, trace=[[0.0, 0, 128]]), "mux-sim")


# values that parse by type but used to fail inside the run (exit 1, or for
# the trace row exit 2 once the run had started)
HUGE = 10 ** 400   # a 401-digit JSON integer
RUN_TIME_LIMITS = [
    ("configs/ranging.json", ("ranging", "sample_rate_hz"), 1e8,
     "ranging.sample_rate_hz: sample_rate_hz must be >= bandwidth_hz"),
    ("configs/ranging.json", ("ranging", "bandwidth_hz"), 0,
     "ranging.bandwidth_hz: bandwidth_hz must be > 0"),
    ("configs/ranging.json", ("ranging", "block_len"), 0,
     "ranging.block_len: block_len must be >= 1"),
    ("configs/ranging.json", ("ranging", "carrier_wavelength_m"), -0.05,
     "ranging.carrier_wavelength_m: carrier_wavelength_m must be > 0"),
    ("configs/mux_sim.json", ("mux", "mtu"), -1, "mux.mtu: mtu must be >= 1"),
    ("configs/mux_sim.json", ("mux", "mtu"), 100,
     "mux.mtu: mtu 100 is below the 125-byte payload of channel 0"),
    ("tests/golden/uncoded_los.json", ("baseband", "receiver", "timing_search"),
     -1, "baseband.receiver.timing_search: timing_search must be >= 0"),
    ("configs/mux_sim.json", ("mux", "trace"), [[0.0, 5, 64]],
     "mux.trace: trace references unknown channel 5"),
    ("tests/golden/mux_baseband.json", ("baseband", "payload_bits"), 800,
     "mux.loss: loss chain carries 800 payload bits, below the 1000-bit "
     "largest packet"),
    ("configs/ranging.json", ("ranging", "range_max_m"), 2000,
     "ranging.range_max_m: range_max_m 2000 needs a 13343-sample round trip, "
     "beyond waveform_len 8192"),
    ("configs/ber_sweep.json", ("sweep", "values"), [float("nan")],
     "sweep.values[0]: expected a finite number, got nan"),
    # JSON integers have no size limit; a float field takes none it cannot hold
    ("configs/ber_sweep.json", ("sweep", "values"), [HUGE],
     "sweep.values[0]: expected a finite number, got an integer beyond the "
     "float range"),
    ("configs/ranging.json", ("ranging", "range_max_m"), HUGE,
     "ranging.range_max_m: expected a finite number, got an integer beyond "
     "the float range"),
]


@pytest.mark.parametrize("config, path, value, message", RUN_TIME_LIMITS,
                         ids=[f"{'.'.join(path)}={value}".replace(
                                  str(HUGE), "10**400")
                              for _, path, value, _ in RUN_TIME_LIMITS])
def test_cli_run_time_limit_exits_2_without_traceback(config, path, value,
                                                      message, tmp_path):
    data = json.loads((REPO / config).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replaced(data, path, value)))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim", data["scenario"], "--config", str(bad),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("receiver, snr_db, every_frame_missed", [
    ({}, -10.0, True),
    # no timing window and a low threshold: frames acquire on noise, at any
    # offset where the whole frame fits, and fail their payload
    ({"timing_search": None, "sync_threshold": 0.1}, -15.0, False),
], ids=["timing_search=8", "timing_search=null,sync_threshold=0.1"])
def test_sweep_below_sync_threshold_counts_every_packet_lost(
        receiver, snr_db, every_frame_missed, tmp_path):
    data = json.loads((REPO / "configs" / "ber_sweep.json").read_text())
    data["baseband"]["receiver"].update(receiver)
    data["sweep"] = {"axis": "snr_db", "values": [snr_db], "trials": 20}
    config = tmp_path / "low_snr.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "low_snr.csv"
    assert main(["ber-sweep", "--config", str(config), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    point = dict(zip(header.split(","), row.split(",")))
    assert point["per"] == "1" and point["packet_errors"] == "20"
    assert (point["ber"] == "1") == every_frame_missed


def test_degenerate_channel_is_a_lost_packet():
    cfg = ChainConfig.for_payload(256, codec=None, timing_search=8,
                                  correct_cfo=False)
    zero = ChannelKnowledge(freq_response=np.zeros(cfg.frame.fft_size),
                            noise_variance=0.0)
    payload = np.ones(256, dtype=np.uint8)
    errors, lost = link_trials([(payload, make_preset("coupling-los"), 0, zero)],
                               cfg)
    assert (errors.tolist(), lost.tolist()) == ([256], [1])


def test_baseband_mux_copy_that_loses_sync_is_corrupt():
    data = json.loads((REPO / "tests" / "golden" / "mux_baseband.json").read_text())
    data["channel"]["snr_db"] = -10.0
    data["mux"]["duration_s"] = 4e-05
    result = run_mux_sim(parse_config(data, "mux-sim").mux, 7)
    for s in result.stats:
        assert s.enqueued > 0
        assert s.delivered == 0 and s.lost_packets == s.enqueued
        assert s.corrupt_drops > 0
