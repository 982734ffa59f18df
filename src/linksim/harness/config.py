"""Configuration ingestion: strict JSON -> typed simulation objects.

The file is a JSON object with sections ``baseband``, ``channel``,
``sweep``, ``mux``, ``ranging``, ``latency`` and ``profiles`` next to the
top-level ``scenario``, ``master_seed`` and ``output`` keys.  Every JSON
object is read through a field table (JSON key -> dataclass field, JSON
type): unknown keys are errors, a key whose field has no dataclass default
is required, and an omitted key is not passed, so each default lives in
its dataclass.  Every validation failure raises ConfigError whose message
starts with the dotted path of the offending key.

This module is the one that knows the schema, but it imports none of the
layers it builds.  Each section's parser imports the classes it makes
when it runs (a field table naming another layer's Enum is built there),
the service profiles are read only when a config has a ``profiles``
section or the scenario is mux-sim, and each scenario's runner imports
its engine when it runs.  So a ranging run loads no baseband, mux or
profiles module, and a sweep no ranging, mux or profiles module.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..errors import ConfigError

if TYPE_CHECKING:
    from ..baseband.chain import ChainConfig
    from ..channel import ChannelModel, ChannelTap
    from ..profiles import ServiceProfile
    from .latency import LatencySpec
    from .muxsim import BasebandLossModel, IidLossModel, MuxSimSpec
    from .rangingrun import RangingSpec
    from .sweep import SweepSpec


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


# -- the reader ---------------------------------------------------------------
# A field table maps each JSON key to (dataclass field, JSON type).  The JSON
# types are int, float (a number; ints are promoted), bool, str, list, dict
# (an object), an Enum (one of its string values) and Nullable(type).

@dataclass(frozen=True)
class Nullable:
    kind: Any


Table = Mapping[str, tuple[str, Any]]

_JSON_NAMES = {int: "int", float: "number", bool: "bool", str: "str",
               list: "list", dict: "object", type(None): "null"}


def _table(renamed: Mapping[str, str] | None = None, **kinds: Any) -> Table:
    """A field table; each key names its field unless ``renamed`` says
    otherwise."""
    renamed = renamed or {}
    return {key: (renamed.get(key, key), kind) for key, kind in kinds.items()}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(value: Any, path: str, kind: Any) -> Any:
    """``value`` checked against one JSON type; bool is not a number, a
    number is finite and strings are never coerced."""
    if isinstance(kind, Nullable):
        if value is None:
            return None
        kind = kind.kind
    if isinstance(kind, type) and issubclass(kind, Enum):
        choices = [member.value for member in kind]
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {choices}")
        return kind(value)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and kind is not bool):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ConfigError(f"{path}: expected {_JSON_NAMES[kind]}, got {got}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: expected a finite number, got an "
                              "integer beyond the float range") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value}")
    return value


def _items(values: list, path: str, kind: Any) -> tuple:
    return tuple(_value(v, f"{path}[{i}]", kind) for i, v in enumerate(values))


def _read(data: Any, path: str, table: Table,
          cls: type | None = None) -> dict[str, Any]:
    """Keyword arguments for ``cls`` from the JSON object ``data``."""
    data = _value(data, path, dict)
    unknown = sorted(set(data) - set(table))
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
    required = {f.name for f in fields(cls) if f.default is MISSING
                and f.default_factory is MISSING} if cls else set()
    for key, (name, _) in table.items():
        if name in required and key not in data:
            raise ConfigError(f"{_join(path, key)}: required key missing")
    return {table[key][0]: _value(value, _join(path, key), table[key][1])
            for key, value in data.items()}


def _make(cls: Callable, path: str, table: Table, *args: Any,
          **kwargs: Any) -> Any:
    """``cls(*args, **kwargs)``; a ValueError becomes a ConfigError naming
    the key whose field the message starts with, else ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        first = str(exc).split(" ", 1)[0]
        keys = [key for key, (name, _) in table.items() if name == first]
        where = _join(path, keys[0]) if keys else path
        raise ConfigError(f"{where}: {exc}") from exc


def _build(cls: type, path: str, table: Table, data: Any, **extra: Any) -> Any:
    """``cls`` made from the JSON object ``data`` read through ``table``,
    plus the fields ``extra`` gives."""
    return _make(cls, path, table, **extra, **_read(data, path, table, cls))


# -- field tables ---------------------------------------------------------------
# A table that names another layer's Enum is built by the one parser that
# reads it, so a run imports a layer only if its config needs it.

_TOP = _table(scenario=Nullable(str), master_seed=int, output=Nullable(str),
              baseband=dict, channel=dict, sweep=dict, mux=dict, ranging=dict,
              latency=dict, profiles=dict)

_PROFILES = _table(service=dict, requirement=dict)

_CODEC = _table(info_bits_per_codeword=int, constraint_length=int,
                crc_width=int)
_RECEIVER = _table(correct_cfo=bool, track_pilot_phase=bool,
                   channel_estimator=str, timing_search=Nullable(int),
                   sync_threshold=float)

_CHANNEL = _table(preset=str, taps=list, antenna=dict, cfo=float,
                  phase_offset=float, snr_db=Nullable(float),
                  randomize_tap_phases=bool)
_ANTENNA = _table({"mainlobe_gain_dbi": "mainlobe_gain",
                   "sidelobe_gain_dbi": "sidelobe_gain",
                   "crosspol_rejection_db": "crosspol_rejection"},
                  mainlobe_gain_dbi=float, sidelobe_gain_dbi=float,
                  crosspol_rejection_db=float)
_TAP = _table(delay=int, gain_db=float, phase_deg=float, bounce_count=int,
              via_sidelobe=bool)

_SWEEP = _table(axis=str, values=list, trials=int)

_MUX = _table({"modem_capacity_mbps": "capacity"},
              modem_capacity_mbps=float, channels=list, loss=dict,
              duration_s=float, mtu=int, queue_depth=int, trace=list,
              trace_file=str)
_TRAFFIC = _table({"period_s": "period", "payload_bytes": "payload_size",
                   "start_offset_s": "start_offset"},
                  period_s=float, payload_bytes=int, start_offset_s=float)
_IID_LOSS = _table(mode=str, per_modem=list)

_RANGING = _table(sample_rate_hz=float, bandwidth_hz=float, waveform_len=int,
                  trials=int, range_min_m=float, range_max_m=float,
                  reflection_gain_db=float,
                  residual_si_power_db=Nullable(float),
                  echo_snr_db=Nullable(float), relative_velocity_mps=float,
                  block_len=int, carrier_wavelength_m=float)

_LATENCY = _table(coded_rate_bps=float, distance_m=float)


# -- sections -------------------------------------------------------------------

def _check_genie_response(chain: ChainConfig, channel: ChannelModel) -> None:
    """Genie knowledge is computed once per sweep point or mux run and
    shared by every frame of it in the engine's stream (the receiver
    re-references its response once per knowledge object, too), so
    per-trial tap phases would leave the receiver decoding against a stale
    response.  The response is the taps' DFT on ``fft_size`` bins, which
    ``estimate_frequency_response`` refuses for a tap delayed past them."""
    if chain.channel_estimator != "genie":
        return
    if channel.randomize_tap_phases:
        raise ConfigError(
            "channel.randomize_tap_phases: requires the pilot-ls estimator "
            "(the genie response would be stale)")
    if channel.max_delay > chain.frame.fft_size:
        raise ConfigError(
            f"channel.taps: max tap delay {channel.max_delay} is beyond the "
            f"genie estimator's fft_size {chain.frame.fft_size}")


def _parse_profiles(data: Any) -> dict[str, ServiceProfile]:
    """Custom profile definitions; built-ins stay addressable by name."""
    from ..profiles import (SERVICE_PROFILES, RequirementProfile, Robustness,
                            SecurityLevel, ServiceProfile)
    service_table = _table(robustness=Robustness, max_bitrate_rb=float,
                           spreading_factor_sf=int)
    requirement_table = _table(
        max_latency=float, max_bitrate=float, per_bound=float,
        distance_min=float, distance_max=float, los_required=bool,
        p2p_only=bool, security=SecurityLevel, hw_redundancy=bool)
    kw = _read(data, "profiles", _PROFILES)
    service = dict(SERVICE_PROFILES)
    for name, entry in kw.get("service", {}).items():
        path = f"profiles.service.{name}"
        # robustness may be omitted from a file entry
        entry = {"robustness": "normal", **_value(entry, path, dict)}
        service[name] = _build(ServiceProfile, path, service_table, entry,
                               id=name)
    # requirement profiles are validated even though no scenario consumes
    # them yet
    for name, entry in kw.get("requirement", {}).items():
        _build(RequirementProfile, f"profiles.requirement.{name}",
               requirement_table, entry, id=name)
    return service


def _parse_baseband(data: Any) -> ChainConfig:
    from ..baseband import (ChainConfig, CodecConfig, EqualizerConfig,
                            EqualizerVariant, FrameConfig, ModulationScheme,
                            SpreadingConfig)
    baseband_table = _table(
        {"spreading_factor": "sf", "payload_blocks": "n_payload_blocks"},
        modulation=ModulationScheme, spreading_factor=int,
        codec=Nullable(dict), fft_size=int, cp_len=int,
        payload_blocks=Nullable(int), pilots_per_block=int, payload_bits=int,
        equalizer=dict, receiver=dict)
    equalizer_table = _table(variant=EqualizerVariant, lms_taps=int,
                             lms_step=float, decision_directed=bool,
                             noise_variance_hint=Nullable(float))
    # ChainConfig takes the receiver keys as its own fields
    chain_table = {**baseband_table, **{f"receiver.{key}": row
                                        for key, row in _RECEIVER.items()}}
    kw = _read(data, "baseband", baseband_table, ChainConfig)
    # "codec": null selects uncoded operation; omitting the key means defaults
    if kw.get("codec") is not None:
        kw["codec"] = _build(CodecConfig, "baseband.codec", _CODEC, kw["codec"])
    if "sf" in kw:
        kw["spreading"] = _make(SpreadingConfig, "baseband.spreading_factor",
                                {}, kw.pop("sf"))
    if "equalizer" in kw:
        kw["equalizer"] = _build(EqualizerConfig, "baseband.equalizer",
                                 equalizer_table, kw["equalizer"])
    kw.update(_read(kw.pop("receiver", {}), "baseband.receiver", _RECEIVER))
    frame = {name: kw.pop(name) for name in
             ("fft_size", "cp_len", "pilots_per_block", "n_payload_blocks")
             if name in kw}
    # payload_blocks null or absent: the frame is sized to fit the payload
    auto_size = frame.get("n_payload_blocks") is None
    if auto_size:
        frame["n_payload_blocks"] = 1
    kw["frame"] = _make(FrameConfig, "baseband", baseband_table, **frame)
    build = ChainConfig.for_payload if auto_size else ChainConfig
    return _make(build, "baseband", chain_table, **kw)


def _parse_tap(data: Any, path: str) -> ChannelTap:
    from ..channel import ChannelTap, make_tap
    return _make(make_tap, path, _TAP, **_read(data, path, _TAP, ChannelTap))


def _parse_channel(data: Any) -> ChannelModel:
    from ..channel import AntennaPattern, ChannelModel, make_preset
    kw = _read(data, "channel", _CHANNEL)
    if ("preset" in kw) == ("taps" in kw):
        raise ConfigError("channel: give exactly one of 'preset' or 'taps'")
    if "antenna" in kw:
        kw["antenna"] = _build(AntennaPattern, "channel.antenna", _ANTENNA,
                               kw["antenna"])
    if "preset" in kw:
        return _make(make_preset, "channel.preset", {}, kw.pop("preset"), **kw)
    kw["taps"] = tuple(_parse_tap(row, f"channel.taps[{i}]")
                       for i, row in enumerate(kw["taps"]))
    return _make(ChannelModel, "channel", _CHANNEL, **kw)


# The scenario sections below are parsed by (data, cfg, service): cfg holds
# the parsed baseband and channel, service the service profiles by name.

def _parse_sweep(data: Any, cfg: SimulationConfig,
                 service: dict[str, ServiceProfile]) -> SweepSpec:
    from ..channel import check_power_ratio
    from .sweep import SweepSpec, snr_for_axis
    if cfg.scenario == "per-sweep" and cfg.chain.codec is None:
        raise ConfigError("baseband.codec: per-sweep requires a codec")
    _check_genie_response(cfg.chain, cfg.channel)
    kw = _read(data, "sweep", _SWEEP, SweepSpec)
    kw["values"] = _items(kw["values"], "sweep.values", float)
    spec = _make(SweepSpec, "sweep", _SWEEP, **kw)
    for i, value in enumerate(spec.values):
        # the channel divides the signal power by the linear SNR
        _make(check_power_ratio, f"sweep.values[{i}]", {},
              snr_for_axis(value, spec.axis, cfg.chain),
              f"{value:g} {spec.axis} as a per-sample SNR")
    return spec


def _load_trace(path: str) -> tuple[tuple[float, int, int], ...]:
    rows = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    time, channel, size = line.split(",")
                    rows.append((float(time), int(channel), int(size)))
                except ValueError:
                    raise ConfigError(
                        f"mux.trace_file: {path}:{lineno}: expected "
                        "time,channel,size") from None
                _value(rows[-1][0], f"mux.trace_file: {path}:{lineno}: time", float)
    except OSError as exc:
        raise ConfigError(f"mux.trace_file: cannot read {path!r}: {exc}") from exc
    return tuple(rows)


def _trace_row(row: Any, path: str) -> tuple[float, int, int]:
    row = _value(row, path, list)
    if len(row) != 3:
        raise ConfigError(f"{path}: expected [time, channel, size]")
    return (_value(row[0], f"{path}[0]", float),
            _value(row[1], f"{path}[1]", int), _value(row[2], f"{path}[2]", int))


def _parse_loss(data: Any, cfg: SimulationConfig) -> IidLossModel | BasebandLossModel:
    from ..channel import check_power_ratio
    from .muxsim import BasebandLossModel, IidLossModel
    mode = data.get("mode")
    if mode == "iid":
        kw = _read(data, "mux.loss", _IID_LOSS, IidLossModel)
        return _make(IidLossModel, "mux.loss.per_modem", {},
                     _items(kw["per_modem"], "mux.loss.per_modem", float))
    if mode == "baseband":
        _read(data, "mux.loss", _table(mode=str))
        if cfg.chain is None or cfg.channel is None:
            raise ConfigError(
                "mux.loss: baseband mode needs 'baseband' and 'channel' sections")
        _check_genie_response(cfg.chain, cfg.channel)
        # the channel divides the signal power by the linear SNR
        if cfg.channel.snr_db is not None:
            _make(check_power_ratio, "channel.snr_db", {}, cfg.channel.snr_db,
                  "snr_db")
        return BasebandLossModel(chain=cfg.chain, channel=cfg.channel)
    raise ConfigError("mux.loss.mode: must be 'iid' or 'baseband'")


def _parse_mux(data: Any, cfg: SimulationConfig,
               service: dict[str, ServiceProfile]) -> MuxSimSpec:
    from ..mux import LogicalChannel, Redundancy
    from ..profiles import ModemCapacity
    from .muxsim import MuxSimSpec, PeriodicTraffic
    channel_table = _table({"deadline_s": "deadline"}, id=int, sp=str,
                           deadline_s=float, redundancy=Redundancy,
                           traffic=dict)
    kw = _read(data, "mux", _MUX, MuxSimSpec)
    kw["capacity"] = _make(ModemCapacity, "mux.modem_capacity_mbps", {},
                           kw["capacity"])
    channels = []
    traffic = {}
    for i, entry in enumerate(kw["channels"]):
        path = f"mux.channels[{i}]"
        ch = _read(entry, path, channel_table, LogicalChannel)
        if ch["sp"] not in service:
            raise ConfigError(f"{path}.sp: unknown service profile {ch['sp']!r}")
        ch["sp"] = service[ch["sp"]]
        tr = ch.pop("traffic", None)
        channels.append(_make(LogicalChannel, path, channel_table, **ch))
        if tr is not None:
            traffic[channels[-1].id] = periodic = _build(
                PeriodicTraffic, f"{path}.traffic", _TRAFFIC, tr)
            # below one ulp of duration_s, t += period can stop advancing
            # an arrival time, and the run would never end
            if periodic.period < math.ulp(kw["duration_s"]):
                raise ConfigError(
                    f"{path}.traffic.period_s: {periodic.period:g} s is below "
                    f"one ulp of duration_s {kw['duration_s']:g} s, so the "
                    "arrival times would stop advancing")
    kw["channels"] = tuple(channels)
    kw["traffic"] = traffic
    kw["loss"] = _parse_loss(kw["loss"], cfg)
    if "trace" in kw and "trace_file" in kw:
        raise ConfigError("mux: give at most one of 'trace' and 'trace_file'")
    table = _MUX
    if "trace" in kw:
        kw["trace"] = tuple(_trace_row(row, f"mux.trace[{i}]")
                            for i, row in enumerate(kw["trace"]))
    elif "trace_file" in kw:
        kw["trace"] = _load_trace(kw.pop("trace_file"))
        # the rows' errors name the key they were read from
        table = {**_MUX, "trace_file": ("trace", str)}
        del table["trace"]
    return _make(MuxSimSpec, "mux", table, **kw)


def _parse_ranging(data: Any, cfg: SimulationConfig,
                   service: dict[str, ServiceProfile]) -> RangingSpec:
    from .rangingrun import RangingSpec
    return _build(RangingSpec, "ranging", _RANGING, data)


def _parse_latency(data: Any, cfg: SimulationConfig,
                   service: dict[str, ServiceProfile]) -> LatencySpec:
    from .latency import LatencySpec
    return _build(LatencySpec, "latency", _LATENCY, data)


# -- scenarios --------------------------------------------------------------------

def _run_sweep(cfg: SimulationConfig) -> Any:
    from .sweep import run_sweep
    return run_sweep(cfg.chain, cfg.channel, cfg.sweep, cfg.master_seed)


def _run_mux_sim(cfg: SimulationConfig) -> Any:
    from .muxsim import run_mux_sim
    return run_mux_sim(cfg.mux, cfg.master_seed)


def _run_ranging(cfg: SimulationConfig) -> Any:
    from .rangingrun import run_ranging
    return run_ranging(cfg.ranging, cfg.master_seed)


def _run_latency(cfg: SimulationConfig) -> Any:
    from .latency import latency_budget
    return latency_budget(cfg.latency, cfg.chain)


@dataclass(frozen=True)
class Scenario:
    """A CLI scenario: the sections it requires, the section parsed into its
    spec (the SimulationConfig attribute of the same name) by ``parse``, and
    its runner, which returns a result with ``csv_rows()``."""
    requires: tuple[str, ...]
    section: str
    parse: Callable[[Any, SimulationConfig, dict[str, ServiceProfile]], Any]
    run: Callable[[SimulationConfig], Any]


_SWEEP_SCENARIO = Scenario(("baseband", "channel", "sweep"), "sweep",
                           _parse_sweep, _run_sweep)
SCENARIOS: dict[str, Scenario] = {
    "ber-sweep": _SWEEP_SCENARIO,
    "per-sweep": _SWEEP_SCENARIO,
    "mux-sim": Scenario(("mux",), "mux", _parse_mux, _run_mux_sim),
    "ranging": Scenario(("ranging",), "ranging", _parse_ranging, _run_ranging),
    "latency-budget": Scenario((), "latency", _parse_latency, _run_latency),
}


def parse_config(data: Mapping[str, Any], scenario: str) -> SimulationConfig:
    """Validate a parsed JSON object against the given CLI scenario."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}")
    top = _read(dict(data), "", _TOP)
    declared = top.get("scenario")
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"scenario: config declares {declared!r} but {scenario!r} was requested")
    if "master_seed" not in top:
        raise ConfigError("master_seed: required key missing")
    # only mux-sim reads service profiles; another scenario's config has
    # its profiles section checked, and loads no profiles otherwise
    service = (_parse_profiles(top.get("profiles", {}))
               if "profiles" in top or scenario == "mux-sim" else {})
    cfg = SimulationConfig(scenario=scenario, master_seed=top["master_seed"],
                           output=top.get("output"), raw=dict(data))
    if "baseband" in top:
        cfg.chain = _parse_baseband(top["baseband"])
    if "channel" in top:
        cfg.channel = _parse_channel(top["channel"])
    sc = SCENARIOS[scenario]
    for section in sc.requires:
        if section not in top:
            raise ConfigError(f"{section}: section required for {scenario}")
    setattr(cfg, sc.section, sc.parse(top.get(sc.section, {}), cfg, service))
    return cfg


def load_config(path: str, scenario: str) -> SimulationConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:   # also an integer past the int-string limit
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data, scenario)
