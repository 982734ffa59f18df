"""Configuration ingestion: strict JSON -> typed simulation objects.

The file is a JSON object with sections ``baseband``, ``channel``,
``sweep``, ``mux``, ``ranging``, ``latency`` and ``profiles`` next to the
top-level ``scenario``, ``master_seed`` and ``output`` keys.  Unknown keys
anywhere are errors; every validation failure raises ConfigError naming
the offending field.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from ..baseband.chain import ChainConfig
from ..baseband.coding import CodecConfig
from ..baseband.equalizers import EqualizerConfig, EqualizerVariant
from ..baseband.framing import FrameConfig
from ..baseband.modulation import ModulationScheme, SpreadingConfig
from ..channel import (AntennaPattern, ChannelModel, ChannelTap, make_preset)
from ..errors import ConfigError
from ..mux import FrameSource, LogicalChannel, Redundancy
from ..profiles import (SERVICE_PROFILES, ModemCapacity, RequirementProfile,
                        Robustness, SecurityLevel, ServiceProfile)
from .muxsim import (BasebandLossModel, IidLossModel, MuxSimSpec,
                     PeriodicTraffic)
from .sweep import SweepSpec

SCENARIOS = ("ber-sweep", "per-sweep", "mux-sim", "ranging", "latency-budget")

_TOP_KEYS = ("scenario", "master_seed", "output", "baseband", "channel",
             "sweep", "mux", "ranging", "latency", "profiles")


def _check_keys(section: str, data: Mapping[str, Any], allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")


def _require(data: Mapping[str, Any], section: str, key: str) -> Any:
    if key not in data:
        raise ConfigError(f"{section}.{key}: required key missing")
    return data[key]


def _expect(value: Any, section: str, key: str, kinds: tuple[type, ...]) -> Any:
    if isinstance(value, bool) and bool not in kinds:
        raise ConfigError(f"{section}.{key}: wrong type {type(value).__name__}")
    if not isinstance(value, kinds):
        raise ConfigError(f"{section}.{key}: wrong type {type(value).__name__}")
    return value


@dataclass(frozen=True)
class RangingSpec:
    sample_rate_hz: float
    bandwidth_hz: float
    waveform_len: int
    trials: int
    range_min_m: float
    range_max_m: float
    reflection_gain_db: float = 0.0
    residual_si_power_db: float | None = None
    echo_snr_db: float | None = None
    relative_velocity_mps: float = 0.0
    block_len: int = 256
    carrier_wavelength_m: float = 0.05

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("ranging.trials: must be >= 1")
        if not 0 < self.range_min_m < self.range_max_m:
            raise ConfigError("ranging: need 0 < range_min_m < range_max_m")
        if self.waveform_len < 2:
            raise ConfigError("ranging.waveform_len: must be >= 2")


@dataclass(frozen=True)
class LatencySpec:
    coded_rate_bps: float = 500e6
    distance_m: float = 0.5


@dataclass
class SimulationConfig:
    scenario: str
    master_seed: int
    output: str | None
    chain: ChainConfig | None = None
    channel: ChannelModel | None = None
    sweep: SweepSpec | None = None
    mux: MuxSimSpec | None = None
    ranging: RangingSpec | None = None
    latency: LatencySpec | None = None
    raw: dict | None = None


def _check_genie_response(chain: ChainConfig, channel: ChannelModel) -> None:
    """Genie knowledge is computed once per sweep point or mux run, so
    per-trial tap phases would leave the receiver decoding against a stale
    response."""
    if channel.randomize_tap_phases and chain.channel_estimator == "genie":
        raise ConfigError(
            "channel.randomize_tap_phases: requires the pilot-ls estimator "
            "(the genie response would be stale)")


def _parse_profiles(data: Mapping[str, Any]) -> dict[str, ServiceProfile]:
    """Custom profile definitions; built-ins stay addressable by name."""
    _check_keys("profiles", data, ("service", "requirement"))
    service = dict(SERVICE_PROFILES)
    for name, entry in _expect(data.get("service", {}), "profiles", "service",
                               (dict,)).items():
        _check_keys(f"profiles.service.{name}", entry,
                    ("robustness", "max_bitrate_rb", "spreading_factor_sf"))
        try:
            service[name] = ServiceProfile(
                id=name,
                robustness=Robustness(entry.get("robustness", "normal")),
                max_bitrate_rb=float(_require(entry, f"profiles.service.{name}",
                                              "max_bitrate_rb")),
                spreading_factor_sf=int(_require(entry, f"profiles.service.{name}",
                                                 "spreading_factor_sf")))
        except ValueError as exc:
            raise ConfigError(f"profiles.service.{name}: {exc}") from exc
    # requirement profiles are parsed for completeness even though no
    # scenario consumes them directly yet
    for name, entry in _expect(data.get("requirement", {}), "profiles",
                               "requirement", (dict,)).items():
        keys = ("max_latency", "max_bitrate", "per_bound", "distance_min",
                "distance_max", "los_required", "p2p_only", "security",
                "hw_redundancy")
        _check_keys(f"profiles.requirement.{name}", entry, keys)
        try:
            RequirementProfile(
                id=name,
                max_latency=float(_require(entry, name, "max_latency")),
                max_bitrate=float(_require(entry, name, "max_bitrate")),
                per_bound=float(_require(entry, name, "per_bound")),
                distance_min=float(_require(entry, name, "distance_min")),
                distance_max=float(_require(entry, name, "distance_max")),
                los_required=bool(entry.get("los_required", True)),
                p2p_only=bool(entry.get("p2p_only", True)),
                security=SecurityLevel(entry.get("security", "medium")),
                hw_redundancy=bool(entry.get("hw_redundancy", False)))
        except ValueError as exc:
            raise ConfigError(f"profiles.requirement.{name}: {exc}") from exc
    return service


def _parse_codec(data: Any) -> CodecConfig | None:
    if data is None:
        return None
    _check_keys("baseband.codec", data,
                ("info_bits_per_codeword", "code_rate", "constraint_length",
                 "crc_width"))
    kwargs: dict[str, Any] = {}
    if "info_bits_per_codeword" in data:
        kwargs["info_bits_per_codeword"] = _expect(
            data["info_bits_per_codeword"], "baseband.codec",
            "info_bits_per_codeword", (int,))
    if "code_rate" in data:
        rate = _expect(data["code_rate"], "baseband.codec", "code_rate", (list,))
        if len(rate) != 2:
            raise ConfigError("baseband.codec.code_rate: expected [num, den]")
        kwargs["code_rate"] = Fraction(int(rate[0]), int(rate[1]))
    if "constraint_length" in data:
        kwargs["constraint_length"] = _expect(
            data["constraint_length"], "baseband.codec", "constraint_length", (int,))
    if "crc_width" in data:
        kwargs["crc_width"] = _expect(data["crc_width"], "baseband.codec",
                                      "crc_width", (int,))
    try:
        return CodecConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"baseband.codec: {exc}") from exc


def _parse_baseband(data: Mapping[str, Any]) -> ChainConfig:
    _check_keys("baseband", data,
                ("modulation", "spreading_factor", "codec", "fft_size",
                 "cp_len", "payload_blocks", "pilots_per_block",
                 "payload_bits", "equalizer", "receiver"))
    try:
        modulation = ModulationScheme(_expect(
            data.get("modulation", "bpsk"), "baseband", "modulation", (str,)))
    except ValueError as exc:
        raise ConfigError(f"baseband.modulation: {exc}") from exc
    # "codec": null selects uncoded operation; omitting the key means defaults
    codec = _parse_codec(data["codec"]) if "codec" in data else CodecConfig()

    eq_data = _expect(data.get("equalizer", {}), "baseband", "equalizer", (dict,))
    _check_keys("baseband.equalizer", eq_data,
                ("variant", "lms_taps", "lms_step", "decision_directed",
                 "noise_variance_hint"))
    try:
        equalizer = EqualizerConfig(
            variant=EqualizerVariant(eq_data.get("variant", "fd-mmse")),
            lms_taps=eq_data.get("lms_taps", 15),
            lms_step=eq_data.get("lms_step", 0.01),
            decision_directed=eq_data.get("decision_directed", False),
            noise_variance_hint=eq_data.get("noise_variance_hint"))
    except ValueError as exc:
        raise ConfigError(f"baseband.equalizer: {exc}") from exc

    rx_data = _expect(data.get("receiver", {}), "baseband", "receiver", (dict,))
    _check_keys("baseband.receiver", rx_data,
                ("correct_cfo", "track_pilot_phase", "channel_estimator",
                 "timing_search", "sync_threshold"))

    payload_bits = _expect(_require(data, "baseband", "payload_bits"),
                           "baseband", "payload_bits", (int,))
    frame_kwargs = dict(
        fft_size=data.get("fft_size", 256),
        cp_len=data.get("cp_len", 32),
        pilots_per_block=data.get("pilots_per_block", 8),
    )
    chain_kwargs = dict(
        codec=codec, modulation=modulation,
        spreading=SpreadingConfig(data.get("spreading_factor", 1)),
        equalizer=equalizer,
        correct_cfo=rx_data.get("correct_cfo", True),
        track_pilot_phase=rx_data.get("track_pilot_phase", True),
        channel_estimator=rx_data.get("channel_estimator", "genie"),
        timing_search=rx_data.get("timing_search"),
        sync_threshold=rx_data.get("sync_threshold", 0.5),
    )
    try:
        if data.get("payload_blocks") is None:
            return ChainConfig.for_payload(
                payload_bits, frame=FrameConfig(n_payload_blocks=1, **frame_kwargs),
                **chain_kwargs)
        frame = FrameConfig(n_payload_blocks=data["payload_blocks"], **frame_kwargs)
        return ChainConfig(payload_bits=payload_bits, frame=frame, **chain_kwargs)
    except ValueError as exc:
        raise ConfigError(f"baseband: {exc}") from exc


def _parse_channel(data: Mapping[str, Any]) -> ChannelModel:
    _check_keys("channel", data,
                ("preset", "taps", "antenna", "cfo", "phase_offset", "snr_db",
                 "randomize_tap_phases"))
    if ("preset" in data) == ("taps" in data):
        raise ConfigError("channel: give exactly one of 'preset' or 'taps'")
    ant_data = _expect(data.get("antenna", {}), "channel", "antenna", (dict,))
    _check_keys("channel.antenna", ant_data,
                ("mainlobe_gain_dbi", "sidelobe_gain_dbi", "crosspol_rejection_db"))
    try:
        antenna = AntennaPattern(
            mainlobe_gain=ant_data.get("mainlobe_gain_dbi", 18.0),
            sidelobe_gain=ant_data.get("sidelobe_gain_dbi", 4.0),
            crosspol_rejection=ant_data.get("crosspol_rejection_db", 15.0))
    except ValueError as exc:
        raise ConfigError(f"channel.antenna: {exc}") from exc
    common = dict(
        antenna=antenna,
        snr_db=data.get("snr_db"),
        cfo=data.get("cfo", 0.0),
        phase_offset=data.get("phase_offset", 0.0),
        randomize_tap_phases=data.get("randomize_tap_phases", False))
    try:
        if "preset" in data:
            return make_preset(_expect(data["preset"], "channel", "preset", (str,)),
                               **common)
        taps = []
        for i, row in enumerate(_expect(data["taps"], "channel", "taps", (list,))):
            _check_keys(f"channel.taps[{i}]", row,
                        ("delay", "gain_db", "phase_deg", "bounce_count",
                         "via_sidelobe"))
            gain = 10.0 ** (row.get("gain_db", 0.0) / 20.0) * np.exp(
                1j * np.deg2rad(row.get("phase_deg", 0.0)))
            taps.append(ChannelTap(
                delay=_require(row, f"channel.taps[{i}]", "delay"),
                gain=gain,
                bounce_count=row.get("bounce_count", 0),
                via_sidelobe=row.get("via_sidelobe", False)))
        return ChannelModel(taps=tuple(taps), **common)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def _parse_sweep(data: Mapping[str, Any]) -> SweepSpec:
    _check_keys("sweep", data, ("axis", "values", "trials", "per_target"))
    values = _expect(_require(data, "sweep", "values"), "sweep", "values", (list,))
    if not values:
        raise ConfigError("sweep.values: must be non-empty")
    try:
        return SweepSpec(axis=data.get("axis", "ebn0_db"),
                         values=tuple(float(v) for v in values),
                         trials=_expect(_require(data, "sweep", "trials"),
                                        "sweep", "trials", (int,)),
                         per_target=data.get("per_target"))
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def _load_trace(path: str) -> tuple[tuple[float, int, int], ...]:
    rows = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ConfigError(
                        f"trace {path}:{lineno}: expected time,channel,size")
                rows.append((float(parts[0]), int(parts[1]), int(parts[2])))
    except OSError as exc:
        raise ConfigError(f"mux.trace_file: cannot read {path!r}: {exc}") from exc
    return tuple(rows)


def _parse_mux(data: Mapping[str, Any], service: dict[str, ServiceProfile],
               chain: ChainConfig | None,
               channel: ChannelModel | None) -> MuxSimSpec:
    _check_keys("mux", data,
                ("modem_capacity_mbps", "channels", "loss", "duration_s",
                 "mtu", "queue_depth", "trace", "trace_file"))
    try:
        capacity = ModemCapacity(float(_require(data, "mux", "modem_capacity_mbps")))
    except ValueError as exc:
        raise ConfigError(f"mux.modem_capacity_mbps: {exc}") from exc

    channels = []
    traffic = {}
    for i, entry in enumerate(_expect(_require(data, "mux", "channels"),
                                      "mux", "channels", (list,))):
        section = f"mux.channels[{i}]"
        _check_keys(section, entry, ("id", "sp", "deadline_s", "redundancy",
                                     "traffic"))
        sp_name = _expect(_require(entry, section, "sp"), section, "sp", (str,))
        if sp_name not in service:
            raise ConfigError(f"{section}.sp: unknown service profile {sp_name!r}")
        try:
            ch = LogicalChannel(
                id=_require(entry, section, "id"),
                sp=service[sp_name],
                deadline=float(_require(entry, section, "deadline_s")),
                redundancy=Redundancy(entry.get("redundancy", "single")))
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
        channels.append(ch)
        if "traffic" in entry:
            tr = entry["traffic"]
            _check_keys(f"{section}.traffic", tr,
                        ("period_s", "payload_bytes", "start_offset_s", "source"))
            try:
                traffic[ch.id] = PeriodicTraffic(
                    period=float(_require(tr, f"{section}.traffic", "period_s")),
                    payload_size=_require(tr, f"{section}.traffic", "payload_bytes"),
                    start_offset=float(tr.get("start_offset_s", 0.0)),
                    source=FrameSource(tr.get("source", "ethernet")))
            except ValueError as exc:
                raise ConfigError(f"{section}.traffic: {exc}") from exc

    loss_data = _expect(_require(data, "mux", "loss"), "mux", "loss", (dict,))
    mode = loss_data.get("mode")
    if mode == "iid":
        _check_keys("mux.loss", loss_data, ("mode", "per_modem"))
        per = _expect(_require(loss_data, "mux.loss", "per_modem"),
                      "mux.loss", "per_modem", (list,))
        try:
            loss: IidLossModel | BasebandLossModel = IidLossModel(
                tuple(float(p) for p in per))
        except ValueError as exc:
            raise ConfigError(f"mux.loss: {exc}") from exc
    elif mode == "baseband":
        _check_keys("mux.loss", loss_data, ("mode",))
        if chain is None or channel is None:
            raise ConfigError(
                "mux.loss: baseband mode needs 'baseband' and 'channel' sections")
        _check_genie_response(chain, channel)
        loss = BasebandLossModel(chain=chain, channel=channel)
    else:
        raise ConfigError("mux.loss.mode: must be 'iid' or 'baseband'")

    trace: tuple[tuple[float, int, int], ...] = ()
    if "trace" in data and "trace_file" in data:
        raise ConfigError("mux: give at most one of 'trace' and 'trace_file'")
    if "trace" in data:
        trace = tuple((float(t), int(c), int(s))
                      for t, c, s in _expect(data["trace"], "mux", "trace", (list,)))
    elif "trace_file" in data:
        trace = _load_trace(_expect(data["trace_file"], "mux", "trace_file", (str,)))

    try:
        return MuxSimSpec(
            channels=tuple(channels), traffic=traffic, capacity=capacity,
            duration_s=float(_require(data, "mux", "duration_s")), loss=loss,
            trace=trace, mtu=data.get("mtu", 1500),
            queue_depth=data.get("queue_depth", 64))
    except ValueError as exc:
        raise ConfigError(f"mux: {exc}") from exc


def _parse_ranging(data: Mapping[str, Any]) -> RangingSpec:
    _check_keys("ranging", data,
                ("sample_rate_hz", "bandwidth_hz", "waveform_len", "trials",
                 "range_min_m", "range_max_m", "reflection_gain_db",
                 "residual_si_power_db", "echo_snr_db",
                 "relative_velocity_mps", "block_len", "carrier_wavelength_m"))
    try:
        return RangingSpec(
            sample_rate_hz=float(_require(data, "ranging", "sample_rate_hz")),
            bandwidth_hz=float(_require(data, "ranging", "bandwidth_hz")),
            waveform_len=_require(data, "ranging", "waveform_len"),
            trials=_require(data, "ranging", "trials"),
            range_min_m=float(_require(data, "ranging", "range_min_m")),
            range_max_m=float(_require(data, "ranging", "range_max_m")),
            reflection_gain_db=float(data.get("reflection_gain_db", 0.0)),
            residual_si_power_db=data.get("residual_si_power_db"),
            echo_snr_db=data.get("echo_snr_db"),
            relative_velocity_mps=float(data.get("relative_velocity_mps", 0.0)),
            block_len=data.get("block_len", 256),
            carrier_wavelength_m=float(data.get("carrier_wavelength_m", 0.05)))
    except ValueError as exc:
        raise ConfigError(f"ranging: {exc}") from exc


def _parse_latency(data: Mapping[str, Any]) -> LatencySpec:
    _check_keys("latency", data, ("coded_rate_bps", "distance_m"))
    spec = LatencySpec(coded_rate_bps=float(data.get("coded_rate_bps", 500e6)),
                       distance_m=float(data.get("distance_m", 0.5)))
    if spec.coded_rate_bps <= 0:
        raise ConfigError("latency.coded_rate_bps: must be > 0")
    if spec.distance_m < 0:
        raise ConfigError("latency.distance_m: must be >= 0")
    return spec


def parse_config(data: Mapping[str, Any], scenario: str) -> SimulationConfig:
    """Validate a parsed JSON object against the given CLI scenario."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}")
    _check_keys("config", data, _TOP_KEYS)
    declared = data.get("scenario")
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"scenario: config declares {declared!r} but {scenario!r} was requested")
    master_seed = _expect(_require(data, "config", "master_seed"), "config",
                          "master_seed", (int,))
    output = data.get("output")
    if output is not None:
        _expect(output, "config", "output", (str,))

    service = _parse_profiles(_expect(data.get("profiles", {}), "config",
                                      "profiles", (dict,)))
    chain = None
    channel = None
    if "baseband" in data:
        chain = _parse_baseband(_expect(data["baseband"], "config", "baseband",
                                        (dict,)))
    if "channel" in data:
        channel = _parse_channel(_expect(data["channel"], "config", "channel",
                                         (dict,)))

    cfg = SimulationConfig(scenario=scenario, master_seed=master_seed,
                           output=output, chain=chain, channel=channel,
                           raw=dict(data))

    if scenario in ("ber-sweep", "per-sweep"):
        for section in ("baseband", "channel", "sweep"):
            if section not in data:
                raise ConfigError(f"{section}: section required for {scenario}")
        if scenario == "per-sweep" and chain.codec is None:
            raise ConfigError("baseband.codec: per-sweep requires a codec")
        _check_genie_response(chain, channel)
        cfg.sweep = _parse_sweep(data["sweep"])
    elif scenario == "mux-sim":
        if "mux" not in data:
            raise ConfigError("mux: section required for mux-sim")
        cfg.mux = _parse_mux(data["mux"], service, chain, channel)
    elif scenario == "ranging":
        if "ranging" not in data:
            raise ConfigError("ranging: section required for ranging")
        cfg.ranging = _parse_ranging(data["ranging"])
    else:
        cfg.latency = _parse_latency(_expect(data.get("latency", {}), "config",
                                             "latency", (dict,)))
    return cfg


def load_config(path: str, scenario: str) -> SimulationConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data, scenario)
