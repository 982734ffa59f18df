"""Monte Carlo orchestration, latency accounting, config and CSV reporting."""

from .config import SimulationConfig, load_config, parse_config
from .csvout import emit_csv, manifest_path, write_manifest
from .latency import (DEFAULT_CODED_RATE_BPS, LatencyBudget, LatencySpec,
                      latency_budget)
from .muxsim import (BasebandLossModel, IidLossModel, MuxSimResult, MuxSimSpec,
                     PeriodicTraffic, check_admission, run_mux_sim)
from .rangingrun import (RangingResult, RangingSpec, ranging_waveform,
                         run_ranging)
from .seeding import stable_seed, stable_uniform
from .sweep import SweepPoint, SweepResult, SweepSpec, ci95_halfwidth, run_sweep

__all__ = [
    "BasebandLossModel", "DEFAULT_CODED_RATE_BPS", "IidLossModel",
    "LatencyBudget", "LatencySpec", "MuxSimResult", "MuxSimSpec",
    "PeriodicTraffic", "RangingResult", "RangingSpec", "SimulationConfig",
    "SweepPoint", "SweepResult", "SweepSpec", "check_admission",
    "ci95_halfwidth", "emit_csv", "latency_budget", "load_config",
    "manifest_path", "parse_config", "ranging_waveform", "run_mux_sim",
    "run_ranging", "run_sweep", "stable_seed", "stable_uniform",
    "write_manifest",
]
