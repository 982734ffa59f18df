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

``latency_budget`` takes the codec, frame, modulation and spreading of a
baseband chain (defaults where there is none) and returns the budget, which
is also the latency-budget scenario's result.
"""
from __future__ import annotations

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

    def csv_rows(self) -> tuple[list[dict], list[str]]:
        rows = [{"stage": name, "seconds": seconds}
                for name, seconds in self.stages]
        rows.append({"stage": "total", "seconds": self.total})
        rows.append({"stage": "within_rp1", "seconds": float(self.within_rp1)})
        return rows, ["stage", "seconds"]


def latency_budget(spec: LatencySpec = LatencySpec(),
                   chain: ChainConfig | None = None) -> LatencyBudget:
    """Budget for one codeword at the spec's coded bit rate and distance,
    on ``chain``'s codec, frame, modulation and spreading.

    Without a chain: the default codec and frame, BPSK and no spreading;
    an uncoded chain is budgeted with the default codec.
    """
    if chain is None:
        codec, frame = CodecConfig(), FrameConfig()
        modulation, sf = ModulationScheme.BPSK, 1
    else:
        codec = chain.codec if chain.codec is not None else CodecConfig()
        frame, modulation, sf = chain.frame, chain.modulation, chain.spreading.sf

    symbol_rate = spec.coded_rate_bps / modulation.bits_per_symbol
    coded_bits = codec.coded_bits_per_codeword
    codeword_symbols = -(-coded_bits * sf // modulation.bits_per_symbol)
    blocks = -(-codeword_symbols // frame.data_symbols_per_block)

    stages = (
        ("frame_assembly", frame.header_len / symbol_rate),
        ("encoding", 0.0),
        ("serialization", coded_bits / spec.coded_rate_bps),
        ("cp_overhead", blocks * frame.cp_len / symbol_rate),
        ("propagation", spec.distance_m / SPEED_OF_LIGHT),
        ("decoding", coded_bits / spec.coded_rate_bps),
    )
    return LatencyBudget(stages=stages)
