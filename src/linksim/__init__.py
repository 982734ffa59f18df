"""linksim: deterministic link-level simulator for a highly reliable,
ultra-low-latency short-range wireless module.

Subpackages and modules map to the subsystems of the simulated device:
``profiles`` (QoS contracts and admission), ``baseband`` (single-carrier
transceivers with time-domain and frequency-domain equalization),
``channel`` (multipath + directive circularly polarized antenna model),
``mux`` (redundant dual-modem multiplexer), ``ranging`` (two-way ToF and
radar-style echo processing) and ``harness`` (Monte Carlo orchestration,
latency budgets, CSV reporting and the ``sim`` CLI).

``import linksim`` loads only this package and ``linksim.errors``; each
subpackage or module is imported the first time it is used, as an
attribute (``linksim.channel``) or by an import, so a run loads only the
modules of the scenario it runs.
"""

__version__ = "0.1.0"

import importlib

from .errors import (AmbiguousVelocityError, CapacityError, ConfigError,
                     DegenerateChannelError, MeasurementError, NoTargetError,
                     SyncError)

__all__ = [
    "AmbiguousVelocityError", "CapacityError", "ConfigError",
    "DegenerateChannelError", "MeasurementError", "NoTargetError",
    "SyncError", "__version__", "baseband", "channel", "harness", "mux",
    "profiles", "ranging",
]


def _submodule(package: str, name: str):
    """The submodule ``name`` of ``package``, imported on first use, for a
    package's module ``__getattr__`` (PEP 562); AttributeError if there is
    none.  A private name is never imported: ``__main__`` runs the CLI."""
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def __getattr__(name: str):
    return _submodule(__name__, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
