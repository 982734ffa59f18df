"""Config parsing on malformed input, and counted outcomes for bad physics.

Every leaf of every shipped config is replaced in turn by a value of each
JSON type; the parser must either accept the result or raise ConfigError
whose message starts with the dotted path of the replaced key.
"""
import copy
import json
import subprocess
import sys
import time
import warnings
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
    ("golden/uncoded_los_sf4.json", "baseband.codec", "{}"):
        "baseband: payload needs",
    ("golden/uncoded_los_tap.json", "baseband.codec", "{}"):
        "baseband: payload needs",
    # the default genie estimator meets randomized tap phases
    ("golden/pilot_ls_td_lms_mild.json", "baseband.receiver", "{}"):
        "channel.randomize_tap_phases: requires the pilot-ls estimator",
    ("golden/pilot_ls_fd_mmse_mild.json", "baseband.receiver", "{}"):
        "channel.randomize_tap_phases: requires the pilot-ls estimator",
    # with no channels, the trace file's rows name unknown channels (an
    # empty channel row is still refused as its own key)
    ("golden/mux_trace.json", "mux.channels", "[]"):
        ("mux.channels[", "mux.trace_file: trace references unknown channel"),
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
def test_every_malformed_leaf_parses_or_names_its_key(config, monkeypatch):
    monkeypatch.chdir(REPO)   # a relative trace_file is read from here
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


@pytest.mark.parametrize("row, message", [
    ("1e-4,0,0", "trace packet sizes must be >= 1"),
    ("1e-4,0,129", "trace packet sizes must be <= mtu 128"),
    ("1e-4,5,64", "trace references unknown channel 5"),
])
def test_trace_file_rows_name_the_trace_file_key(row, message, tmp_path):
    # the rows came from the file, so their errors name its key
    trace = tmp_path / "trace.csv"
    trace.write_text(f"0.0,0,64\n{row}\n")
    assert _error(_mux(mtu=128, trace_file=str(trace)), "mux-sim") == (
        f"mux.trace_file: {message}")


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
    # the genie's response has fft_size bins; a tap delayed past them
    ("configs/ber_sweep.json", ("channel",), {"taps": [{"delay": 2000}]},
     "channel.taps: max tap delay 2000 is beyond the genie estimator's "
     "fft_size 256"),
    ("configs/mux_sim.json", ("mux", "queue_depth"), 0,
     "mux.queue_depth: queue_depth must be >= 1"),
    # 10 ** (snr_db / 10) overflows, or is 0.0 and divides the signal power
    ("configs/ber_sweep.json", ("sweep", "values"), [4.0, 1e12],
     "sweep.values[1]: 1e+12 ebn0_db as a per-sample SNR is 1e+12 dB, whose "
     "linear ratio inf is not a finite nonzero number"),
    ("configs/ber_sweep.json", ("sweep", "values"), [-1e12],
     "sweep.values[0]: -1e+12 ebn0_db as a per-sample SNR is -1e+12 dB, "
     "whose linear ratio 0 is not a finite nonzero number"),
    # a fixed channel SNR under the baseband loss model, by the same rule
    ("tests/golden/mux_baseband.json", ("channel", "snr_db"), 1e12,
     "channel.snr_db: snr_db is 1e+12 dB, whose linear ratio inf is not a "
     "finite nonzero number"),
    ("tests/golden/mux_baseband.json", ("channel", "snr_db"), -1e12,
     "channel.snr_db: snr_db is -1e+12 dB, whose linear ratio 0 is not a "
     "finite nonzero number"),
    # the echo scales by the gain and SI levels and divides by the SNR
    ("configs/ranging.json", ("ranging", "reflection_gain_db"), 1e12,
     "ranging.reflection_gain_db: reflection_gain_db is 1e+12 dB, whose "
     "linear ratio inf is not a finite nonzero number"),
    ("configs/ranging.json", ("ranging", "reflection_gain_db"), -1e12,
     "ranging.reflection_gain_db: reflection_gain_db is -1e+12 dB, whose "
     "linear ratio 0 is not a finite nonzero number"),
    ("configs/ranging.json", ("ranging", "residual_si_power_db"), 1e12,
     "ranging.residual_si_power_db: residual_si_power_db is 1e+12 dB, whose "
     "linear ratio inf is not a finite nonzero number"),
    ("configs/ranging.json", ("ranging", "echo_snr_db"), 1e12,
     "ranging.echo_snr_db: echo_snr_db is 1e+12 dB, whose linear ratio inf "
     "is not a finite nonzero number"),
    ("configs/ranging.json", ("ranging", "echo_snr_db"), -1e12,
     "ranging.echo_snr_db: echo_snr_db is -1e+12 dB, whose linear ratio 0 "
     "is not a finite nonzero number"),
    # levels that pass one at a time but overflow together in the echo (a
    # tuple of paths sets each to its value)
    ("configs/ranging.json", (("ranging", "reflection_gain_db"),
                              ("ranging", "echo_snr_db"), ("ranging", "trials")),
     (3080, -3080, 2),
     "ranging.echo_snr_db: echo_snr_db -3080 dB: the noise level at "
     "reflection_gain_db 3080 dB is 6160 dB, whose linear ratio inf is not a "
     "finite nonzero number"),
    ("configs/ranging.json", (("ranging", "reflection_gain_db"),
                              ("ranging", "residual_si_power_db"),
                              ("ranging", "trials")),
     (3000, 3000, 2),
     "ranging.residual_si_power_db: residual_si_power_db 3000 dB: the "
     "self-interference level at reflection_gain_db 3000 dB is 6000 dB, whose "
     "linear ratio inf is not a finite nonzero number"),
    # levels that pass together but whose received energy, 8192 samples of
    # the summed echo, SI and noise amplitudes, leaves the float range
    ("configs/ranging.json", (("ranging", "reflection_gain_db"),
                              ("ranging", "residual_si_power_db"),
                              ("ranging", "trials")),
     (3080, 0, 2),
     "ranging.reflection_gain_db: reflection_gain_db 3080 dB: the received "
     "energy of 8192 samples is 3125.58 dB, whose linear ratio inf is not a "
     "finite nonzero number"),
    ("configs/ranging.json", (("ranging", "reflection_gain_db"),
                              ("ranging", "residual_si_power_db"),
                              ("ranging", "echo_snr_db"), ("ranging", "trials")),
     (3080, None, None, 2),
     "ranging.reflection_gain_db: reflection_gain_db 3080 dB: the received "
     "energy of 8192 samples is 3119.13 dB, whose linear ratio inf is not a "
     "finite nonzero number"),
    # TD-LMS trains on the 416-symbol header, 10 symbols a tap
    ("configs/ber_sweep.json", ("baseband", "equalizer"),
     {"variant": "td-lms", "lms_taps": 51},
     "baseband.equalizer: equalizer lms_taps 51 needs a 510-symbol training "
     "header, above the frame's 416"),
    # a codeword's Viterbi decisions, one byte a trellis step and state,
    # beyond the decoder's budget: 65 GiB for 8 codewords at K 24, and at K
    # 40 a 2**40-entry trellis table before any decoding
    ("tests/golden/coded_harsh.json", ("baseband", "codec"),
     {"constraint_length": 24},
     "baseband.codec.constraint_length: constraint_length 24 needs "
     "8782872576 bytes of Viterbi decisions a codeword (1047 trellis steps x "
     "2**23 states), beyond the decoder's 2109440"),
    ("tests/golden/coded_harsh.json", ("baseband", "codec"),
     {"constraint_length": 40},
     "baseband.codec.constraint_length: constraint_length 40 needs"),
]


def _leaves(path, value):
    """The (path, value) pairs a RUN_TIME_LIMITS row sets."""
    return list(zip(path, value)) if isinstance(path[0], tuple) else [(path, value)]


@pytest.mark.parametrize("config, path, value, message", RUN_TIME_LIMITS,
                         ids=[",".join(f"{'.'.join(leaf)}={v}" for leaf, v in
                                       _leaves(path, value)).replace(
                                  str(HUGE), "10**400")
                              for _, path, value, _ in RUN_TIME_LIMITS])
def test_cli_run_time_limit_exits_2_without_traceback(config, path, value,
                                                      message, tmp_path):
    data = json.loads((REPO / config).read_text())
    for leaf, v in _leaves(path, value):
        data = _replaced(data, leaf, v)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim", data["scenario"], "--config", str(bad),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


# numeric leaves that only the goldens set, a custom tap's and FD-MMSE's, at
# the boundary scan's values (ROADMAP item 4); a tap gain also at the levels
# whose power, or its square in the channel, leaves the float range
SCAN_INTS = (0, -1, 1, 3, 4097)
SCAN_FLOATS = (0.0, -1.0, 1e-12, 1e12)
TAP_GOLDEN = "tests/golden/uncoded_los_tap.json"
BOUNDARY_SCAN = [
    (config, path, value)
    for config, path, values in [
        (TAP_GOLDEN, ("channel", "taps", 0, "delay"), SCAN_INTS),
        (TAP_GOLDEN, ("channel", "taps", 0, "bounce_count"), SCAN_INTS),
        (TAP_GOLDEN, ("channel", "taps", 0, "phase_deg"), SCAN_FLOATS),
        (TAP_GOLDEN, ("channel", "taps", 0, "gain_db"),
         SCAN_FLOATS + (-1e12, 6000.0, 6200.0)),
        ("tests/golden/pilot_ls_fd_mmse_mild.json",
         ("baseband", "equalizer", "noise_variance_hint"), SCAN_FLOATS)]
    for value in values]


@pytest.mark.parametrize("config, path, value", BOUNDARY_SCAN,
                         ids=[f"{Path(config).stem}:{_dotted(path)}={value!r}"
                              for config, path, value in BOUNDARY_SCAN])
def test_cli_boundary_value_exits_0_or_2_without_traceback(config, path, value,
                                                           tmp_path, capsys):
    data = _replaced(json.loads((REPO / config).read_text()), path, value)
    data["sweep"]["trials"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    # an overflow warns before it raises, so a warning fails the run too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([data["scenario"], "--config", str(bad),
                     "--out", str(tmp_path / "o.csv")])
    assert code in (0, 2)
    if code == 2:
        # the error names the leaf or a key it belongs to
        named = capsys.readouterr().err.removeprefix("config error: ")
        assert _dotted(path).startswith(named.split(":", 1)[0])


def test_a_sweep_replaces_the_channel_snr():
    # only the baseband loss model runs at the channel's own snr_db
    data = json.loads((REPO / "configs" / "ber_sweep.json").read_text())
    data["channel"]["snr_db"] = 1e12
    assert parse_config(data, "ber-sweep").channel.snr_db == 1e12


def test_genie_taps_may_reach_fft_size():
    # a tap at delay fft_size aliases onto bin 0 but runs; one past it cannot
    data = json.loads((REPO / "configs" / "ber_sweep.json").read_text())
    data["channel"] = {"taps": [{"delay": 256}]}
    parse_config(data, "ber-sweep")
    data["channel"] = {"taps": [{"delay": 257}]}
    assert _error(data, "ber-sweep").startswith("channel.taps: max tap delay 257")
    data["baseband"]["receiver"]["channel_estimator"] = "pilot-ls"
    data["baseband"].update(pilots_per_block=8, payload_blocks=None)
    parse_config(data, "ber-sweep")


def test_cli_duplicate_mux_channel_id_exits_2_without_traceback(tmp_path):
    # enough capacity for two copies of the channel to pass admission
    data = json.loads((REPO / "configs" / "mux_sim.json").read_text())
    data["mux"]["modem_capacity_mbps"] = 1000.0
    data["mux"]["channels"] *= 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim", "mux-sim", "--config", str(bad),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 2
    assert "config error: mux.channels: channels must have unique ids" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_period_that_cannot_advance_the_arrivals_exits_2_at_once(tmp_path):
    # 1e-18 s is below half an ulp of every arrival time from 0.05 s, so
    # t += period would never reach duration_s
    data = json.loads((REPO / "configs" / "mux_sim.json").read_text())
    data["mux"]["channels"][0]["traffic"].update(start_offset_s=0.05,
                                                 period_s=1e-18)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["mux-sim", "--config", str(bad),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert time.perf_counter() - start < 1.0
    assert _error(data, "mux-sim").startswith(
        "mux.channels[0].traffic.period_s: 1e-18 s is below one ulp of "
        "duration_s 0.1 s")


def test_cli_mux_traffic_source_is_an_unknown_key(tmp_path):
    # a frame's origin changed no result, so the key is gone, not ignored
    data = json.loads((REPO / "configs" / "mux_sim.json").read_text())
    data["mux"]["channels"][0]["traffic"]["source"] = "wtb"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim", "mux-sim", "--config", str(bad),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 2
    assert ("config error: mux.channels[0].traffic: unknown keys ['source']"
            in proc.stderr)
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


def test_a_diverging_td_lms_equalizer_loses_its_frames(tmp_path):
    # a step of 0.5 drives the LMS weights to NaN on every frame; each frame
    # is a counted loss with every bit wrong, not NaN samples sliced to 0
    data = json.loads((REPO / "tests" / "golden" /
                       "pilot_ls_td_lms_mild.json").read_text())
    data["baseband"]["equalizer"]["lms_step"] = 0.5
    data["sweep"]["trials"] = 2
    config = tmp_path / "lms.json"
    config.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim", "ber-sweep", "--config", str(config),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    header, *rows = (tmp_path / "o.csv").read_text().splitlines()
    for row in rows:
        point = dict(zip(header.split(","), row.split(",")))
        assert point["ber"] == "1" and point["per"] == "1"


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
