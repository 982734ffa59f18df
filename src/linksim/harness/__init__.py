"""Monte Carlo orchestration, latency accounting, config and CSV reporting.

Importing the package imports none of its modules.  Each name below is
imported from its module the first time it is used, and so is each module
(``linksim.harness.workers``), so a run loads the config reader, the
CSV writer and the modules of its own scenario only.
"""
from .. import _submodule

# the names the package exports, by the module that defines them
_EXPORTS = {
    "config": ("SimulationConfig", "load_config", "parse_config"),
    "csvout": ("emit_csv", "manifest_path", "write_manifest"),
    "latency": ("DEFAULT_CODED_RATE_BPS", "LatencyBudget", "LatencySpec",
                "latency_budget"),
    "muxsim": ("BasebandLossModel", "IidLossModel", "MuxSimResult",
               "MuxSimSpec", "PeriodicTraffic", "check_admission",
               "run_mux_sim"),
    "rangingrun": ("RangingResult", "RangingSpec", "ranging_waveform",
                   "run_ranging"),
    "seeding": ("stable_seed", "stable_uniform"),
    "sweep": ("SweepPoint", "SweepResult", "SweepSpec", "ci95_halfwidth",
              "run_sweep"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(_submodule(__name__, module), name)
            return value
    return _submodule(__name__, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
