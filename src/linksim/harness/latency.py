"""Latency budget accounting for one codeword through the link.

Stage model (all deterministic functions of the configuration):

* frame assembly: air time of the frame header (preamble + CP'd pilot
  block) at the symbol rate implied by the coded bit rate;
* encoding: zero (the encoder is a shift register streaming into the
  serializer, so it adds pipeline fill only);
* serialization: coded bits of one codeword (tail included) divided by the
  coded bit rate;
* cp overhead: cyclic prefix samples of the payload blocks the codeword
  occupies;
* propagation: distance over the speed of light;
* decoding: modeled equal to serialization (the decoder is assumed to be
  pipelined at line rate; the paper gives no processing-time model).

``run_latency_budget`` runs the scenario on the configured baseband's
codec, frame, modulation and spreading (defaults where there is none).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from ..baseband.chain import ChainConfig
from ..baseband.coding import CodecConfig
from ..baseband.framing import FrameConfig
from ..baseband.modulation import ModulationScheme
from ..profiles import RP1, RequirementProfile
from ..ranging import SPEED_OF_LIGHT

DEFAULT_CODED_RATE_BPS = 500e6


@dataclass(frozen=True)
class LatencySpec:
    coded_rate_bps: float = DEFAULT_CODED_RATE_BPS
    distance_m: float = 0.5

    def __post_init__(self) -> None:
        if self.coded_rate_bps <= 0:
            raise ValueError("coded_rate_bps must be > 0")
        if self.distance_m < 0:
            raise ValueError("distance_m must be >= 0")


@dataclass(frozen=True)
class LatencyBudget:
    stages: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if any(duration < 0 for _, duration in self.stages):
            raise ValueError("stage durations must be >= 0")

    @property
    def total(self) -> float:
        return sum(duration for _, duration in self.stages)

    @property
    def within_rp1(self) -> bool:
        return self.meets(RP1)

    def meets(self, rp: RequirementProfile) -> bool:
        return self.total < rp.max_latency

    def stage(self, name: str) -> float:
        for stage_name, duration in self.stages:
            if stage_name == name:
                return duration
        raise KeyError(name)


def latency_budget(codec: CodecConfig = CodecConfig(),
                   coded_rate_bps: float = DEFAULT_CODED_RATE_BPS,
                   frame: FrameConfig = FrameConfig(),
                   distance_m: float = 0.5,
                   modulation: ModulationScheme = ModulationScheme.BPSK,
                   spreading_factor: int = 1) -> LatencyBudget:
    """Budget for one codeword at the given coded bit rate and distance."""
    LatencySpec(coded_rate_bps, distance_m)   # raises ValueError if invalid
    symbol_rate = coded_rate_bps / modulation.bits_per_symbol
    coded_bits = codec.coded_bits_per_codeword
    codeword_symbols = -(-coded_bits * spreading_factor
                         // modulation.bits_per_symbol)
    blocks = -(-codeword_symbols // frame.data_symbols_per_block)

    stages = (
        ("frame_assembly", frame.header_len / symbol_rate),
        ("encoding", 0.0),
        ("serialization", coded_bits / coded_rate_bps),
        ("cp_overhead", blocks * frame.cp_len / symbol_rate),
        ("propagation", distance_m / SPEED_OF_LIGHT),
        ("decoding", coded_bits / coded_rate_bps),
    )
    return LatencyBudget(stages=stages)


@dataclass
class LatencyResult:
    budget: LatencyBudget
    wall_clock_s: float

    def csv_rows(self) -> tuple[list[dict], list[str]]:
        rows = [{"stage": name, "seconds": seconds}
                for name, seconds in self.budget.stages]
        rows.append({"stage": "total", "seconds": self.budget.total})
        rows.append({"stage": "within_rp1",
                     "seconds": float(self.budget.within_rp1)})
        return rows, ["stage", "seconds"]


def run_latency_budget(spec: LatencySpec,
                       chain: ChainConfig | None) -> LatencyResult:
    start = time.perf_counter()
    link = {}
    if chain is not None:
        link = dict(frame=chain.frame, modulation=chain.modulation,
                    spreading_factor=chain.spreading.sf)
        if chain.codec is not None:
            link["codec"] = chain.codec
    budget = latency_budget(coded_rate_bps=spec.coded_rate_bps,
                            distance_m=spec.distance_m, **link)
    return LatencyResult(budget=budget,
                         wall_clock_s=time.perf_counter() - start)
