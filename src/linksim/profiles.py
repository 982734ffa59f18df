"""Requirement/service profiles, the modem resource formula and admission control.

Requirement profiles bound what an application may demand from the link
(latency, bitrate, error rate, distance window).  Service profiles describe
what a logical channel is configured to consume (bitrate and spreading
factor).  A modem of capacity C Mbit/s can carry a set of logical channels
as long as the summed resource fractions Rb / C * SF stay at or below one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

#: loads within this distance of 1.0 are still admitted, so exact-fit channel
#: sets (e.g. SP2 on a 400 Mbit/s modem) behave identically on every platform
ADMISSION_TOLERANCE = 1e-12


class SecurityLevel(Enum):
    HIGH = "high"
    MEDIUM = "medium"


class Robustness(Enum):
    IMPROVED = "improved"
    NORMAL = "normal"
    HIGH_DATA_RATE = "high-data-rate"


@dataclass(frozen=True)
class RequirementProfile:
    """Application-side QoS bounds.

    ``max_latency`` and ``per_bound`` are strict upper bounds; the distance
    window is inclusive on both ends.  ``security`` is carried as an inert
    label (no mechanism is enforced anywhere in the simulator).
    """

    id: str
    max_latency: float        # seconds
    max_bitrate: float        # bits/second
    per_bound: float          # packet error probability
    distance_min: float       # centimeters
    distance_max: float       # centimeters
    los_required: bool = True
    p2p_only: bool = True
    security: SecurityLevel = SecurityLevel.MEDIUM
    hw_redundancy: bool = False

    def __post_init__(self) -> None:
        if self.max_latency <= 0:
            raise ValueError("max_latency must be > 0")
        if self.max_bitrate <= 0:
            raise ValueError("max_bitrate must be > 0")
        if not 0 < self.per_bound < 1:
            raise ValueError("per_bound must be in (0, 1)")
        if not 0 <= self.distance_min < self.distance_max:
            raise ValueError("need 0 <= distance_min < distance_max")


@dataclass(frozen=True)
class ServiceProfile:
    """Configuration of one logical transmission channel; ``robustness``
    is an inert label, like a requirement profile's ``security``."""

    id: str
    robustness: Robustness
    max_bitrate_rb: float     # Mbit/s
    spreading_factor_sf: int

    def __post_init__(self) -> None:
        if self.max_bitrate_rb <= 0:
            raise ValueError("max_bitrate_rb must be > 0")
        if self.spreading_factor_sf < 1:
            raise ValueError("spreading_factor_sf must be >= 1")


@dataclass(frozen=True)
class ModemCapacity:
    """Modem capacity C in Mbit/s."""

    capacity_c: float

    def __post_init__(self) -> None:
        if self.capacity_c <= 0:
            raise ValueError("capacity_c must be > 0")


RP1 = RequirementProfile("RP1", 50e-6, 2e6, 1e-9, 20, 50, True, True,
                         SecurityLevel.HIGH, True)
RP2 = RequirementProfile("RP2", 1e-3, 5e6, 1e-9, 20, 200, True, True,
                         SecurityLevel.HIGH, True)
RP3 = RequirementProfile("RP3", 10e-3, 100e6, 1e-4, 20, 500, True, True,
                         SecurityLevel.MEDIUM, False)
RP4 = RequirementProfile("RP4", 100e-3, 1e9, 1e-4, 20, 200, True, True,
                         SecurityLevel.MEDIUM, False)

SP1 = ServiceProfile("SP1", Robustness.IMPROVED, 25.0, 8)
SP2 = ServiceProfile("SP2", Robustness.NORMAL, 200.0, 2)
SP3 = ServiceProfile("SP3", Robustness.HIGH_DATA_RATE, 1000.0, 1)

REQUIREMENT_PROFILES = {p.id: p for p in (RP1, RP2, RP3, RP4)}
SERVICE_PROFILES = {p.id: p for p in (SP1, SP2, SP3)}


def required_resources(sp: ServiceProfile, cap: ModemCapacity) -> float:
    """Fraction of one modem consumed by a channel: Rb / C * SF.

    Returned unclamped; a value above 1.0 means the channel cannot be
    carried by a single modem.
    """
    if cap.capacity_c <= 0:
        raise ValueError("modem capacity must be > 0")
    return sp.max_bitrate_rb / cap.capacity_c * sp.spreading_factor_sf


@dataclass(frozen=True)
class AdmissionVerdict:
    accepted: bool
    load: float


def admit_channels(channels: Sequence[tuple[ServiceProfile, int]],
                   cap: ModemCapacity) -> AdmissionVerdict:
    """Accept a channel set iff its total resource fraction fits one modem.

    ``channels`` lists (service profile, count) pairs.  Acceptance compares
    the summed load against 1.0 with ``ADMISSION_TOLERANCE`` slack.
    """
    if len(channels) == 0:
        raise ValueError("channel list must be non-empty")
    terms = []
    for sp, count in channels:
        if count < 1:
            raise ValueError(f"channel count must be >= 1, got {count}")
        terms.append(count * required_resources(sp, cap))
    # fsum is exactly rounded, which makes the verdict permutation-invariant
    load = math.fsum(terms)
    return AdmissionVerdict(accepted=load <= 1.0 + ADMISSION_TOLERANCE, load=load)


@dataclass(frozen=True)
class ComplianceReport:
    """Per-field verdicts of a measurement against a requirement profile."""

    profile_id: str
    latency_ok: bool
    per_ok: bool
    distance_ok: bool

    @property
    def passed(self) -> bool:
        return self.latency_ok and self.per_ok and self.distance_ok


def check_compliance(rp: RequirementProfile, latency_s: float, per: float,
                     distance_cm: float) -> ComplianceReport:
    """Compare measured latency / PER / distance against profile bounds.

    Latency and PER bounds are strict (the profile states "< bound"); the
    distance window is inclusive.
    """
    if latency_s < 0 or per < 0 or distance_cm < 0:
        raise ValueError("measured values must be >= 0")
    return ComplianceReport(
        profile_id=rp.id,
        latency_ok=latency_s < rp.max_latency,
        per_ok=per < rp.per_bound,
        distance_ok=rp.distance_min <= distance_cm <= rp.distance_max,
    )
