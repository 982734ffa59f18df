"""Error control coding: CRC framing, rate-1/n convolutional code, Viterbi.

The default code is the classic constraint-length-7 feedforward
convolutional code with generators 133/171 (octal); any n generators give a
rate-1/n code.  Codes are trellis-terminated with K-1 zero tail bits.
Each codeword carries ``info_bits_per_codeword`` bits of which the last
``crc_width`` are a CRC over the rest, so the decoder can flag residual
errors.  Decoding is a full-trellis maximum-likelihood search over soft
values; ties between merging paths resolve to the branch whose departing
register bit is 0, which makes decoding bit-exactly reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CRC_POLYNOMIALS = {
    8: 0x07,
    16: 0x1021,
    32: 0x04C11DB7,
}


@dataclass(frozen=True)
class CodecConfig:
    info_bits_per_codeword: int = 1024
    code_rate: Fraction = Fraction(1, 2)
    constraint_length: int = 7
    crc_width: int = 32
    generators: tuple[int, ...] = (0o133, 0o171)

    def __post_init__(self) -> None:
        if self.info_bits_per_codeword < 1:
            raise ValueError("info_bits_per_codeword must be >= 1")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must be in (0, 1]")
        if self.code_rate != Fraction(1, len(self.generators)):
            raise ValueError("code_rate must equal 1/len(generators)")
        if self.crc_width not in CRC_POLYNOMIALS:
            raise ValueError(f"unsupported crc_width {self.crc_width}")
        if self.info_bits_per_codeword <= self.crc_width:
            raise ValueError("codeword must be longer than its CRC")
        if self.constraint_length < 2:
            raise ValueError("constraint_length must be >= 2")
        for g in self.generators:
            if g >= 1 << self.constraint_length:
                raise ValueError("generator wider than constraint length")

    @property
    def tail_bits(self) -> int:
        return self.constraint_length - 1

    @property
    def info_capacity(self) -> int:
        """Payload bits per codeword once the CRC is accounted for."""
        return self.info_bits_per_codeword - self.crc_width

    @property
    def coded_bits_per_codeword(self) -> int:
        """Transmitted bits per codeword including the termination tail."""
        n = len(self.generators)
        return (self.info_bits_per_codeword + self.tail_bits) * n


def crc_bits(bits: np.ndarray, width: int = 32) -> np.ndarray:
    """CRC over a bit array, MSB-first, init and final-xor all-ones."""
    out = crc_bits_batch(np.asarray(bits, dtype=np.uint8)[None, :], width)
    return out[0]


def crc_bits_batch(bits: np.ndarray, width: int = 32) -> np.ndarray:
    """CRC of each row of a (batch, n) bit matrix; returns (batch, width)."""
    poly = CRC_POLYNOMIALS[width]
    mask = (1 << width) - 1
    bits = np.asarray(bits, dtype=np.uint64)
    reg = np.full(bits.shape[0], mask, dtype=np.uint64)
    for i in range(bits.shape[1]):
        fb = ((reg >> np.uint64(width - 1)) & np.uint64(1)) ^ bits[:, i]
        reg = ((reg << np.uint64(1)) ^ (fb * np.uint64(poly))) & np.uint64(mask)
    reg ^= np.uint64(mask)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((reg[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def conv_encode(bits: np.ndarray, cfg: CodecConfig = CodecConfig()) -> np.ndarray:
    """Terminated convolutional encoding of a bit array."""
    return conv_encode_batch(np.asarray(bits, dtype=np.uint8)[None, :], cfg)[0]


def conv_encode_batch(bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Encode each row of a (batch, n) bit matrix; outputs are interleaved
    generator streams of length (n + tail) * n_generators."""
    bits = np.asarray(bits, dtype=np.uint8)
    k = cfg.constraint_length
    batch, n = bits.shape
    u = np.zeros((batch, n + cfg.tail_bits), dtype=np.uint8)
    u[:, :n] = bits
    steps = u.shape[1]
    out = np.zeros((batch, steps, len(cfg.generators)), dtype=np.uint8)
    for gi, g in enumerate(cfg.generators):
        acc = np.zeros((batch, steps), dtype=np.uint8)
        for tap in range(k):
            if (g >> (k - 1 - tap)) & 1:
                acc[:, tap:] ^= u[:, : steps - tap]
        out[:, :, gi] = acc
    return out.reshape(batch, -1)


@dataclass(frozen=True)
class _Trellis:
    n_states: int
    pred_state: np.ndarray    # (S, 2) predecessor of each state per branch
    branch_combo: np.ndarray  # (S, 2) row of combo_sign the branch expects
    combo_sign: np.ndarray    # (2**n_out, n_out) soft signs, +1 for bit 0
    input_bit: np.ndarray     # (S,) input bit consumed on entering the state


_TRELLIS_CACHE: dict[tuple[int, tuple[int, ...]], _Trellis] = {}


def _trellis(k: int, generators: tuple[int, ...]) -> _Trellis:
    key = (k, generators)
    cached = _TRELLIS_CACHE.get(key)
    if cached is not None:
        return cached
    n_states = 1 << (k - 1)
    parity = np.array([bin(i).count("1") & 1 for i in range(1 << k)], dtype=np.int8)
    t = np.arange(n_states)
    # branch j into state t corresponds to full register value 2t + j; the
    # newest input bit sits in the register MSB, so it equals t >> (k - 2)
    full = np.stack([2 * t, 2 * t + 1], axis=1)
    pred_state = (full & (n_states - 1)).astype(np.int64)
    # coded output o of a branch is bit (n_out - 1 - o) of its combo index
    combo = np.zeros_like(full)
    for g in generators:
        combo = 2 * combo + parity[full & g]
    n_out = len(generators)
    combo_bits = (np.arange(1 << n_out)[:, None]
                  >> np.arange(n_out - 1, -1, -1)) & 1
    input_bit = ((t >> (k - 2)) & 1).astype(np.uint8)
    trellis = _Trellis(n_states, pred_state, combo.astype(np.intp),
                       1.0 - 2.0 * combo_bits, input_bit)
    _TRELLIS_CACHE[key] = trellis
    return trellis


def viterbi_decode_batch(soft: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Maximum-likelihood decoding of a (batch, coded_len) soft-value matrix.

    Soft values are correlation metrics: positive means bit 0, matching the
    BPSK convention 0 -> +1.  Hard bits may be passed by mapping b -> 1-2b
    first.  Returns the (batch, info + crc) decoded bits, tail removed.
    """
    cfg_len = cfg.coded_bits_per_codeword
    soft = np.asarray(soft, dtype=np.float64)
    if soft.ndim != 2 or soft.shape[1] != cfg_len:
        raise ValueError(
            f"coded length {soft.shape[-1]} does not match codec "
            f"(expected {cfg_len})")
    n_out = len(cfg.generators)
    tr = _trellis(cfg.constraint_length, cfg.generators)
    batch = soft.shape[0]
    steps = cfg_len // n_out
    soft = soft.reshape(batch, steps, n_out)

    # branch metric of every sign combination per step, the outputs added
    # in order o = 0..n_out-1
    bm = soft[:, :, 0, None] * tr.combo_sign[:, 0]
    for o in range(1, n_out):
        bm = bm + soft[:, :, o, None] * tr.combo_sign[:, o]

    metric = np.full((batch, tr.n_states), -1e30)
    metric[:, 0] = 0.0
    decisions = np.empty((steps, batch, tr.n_states), dtype=np.uint8)
    pred0, pred1 = tr.pred_state[:, 0], tr.pred_state[:, 1]
    combo0, combo1 = tr.branch_combo[:, 0], tr.branch_combo[:, 1]
    for n in range(steps):
        cand0 = metric[:, pred0] + bm[:, n, combo0]
        cand1 = metric[:, pred1] + bm[:, n, combo1]
        # strict comparison keeps ties on the 0-branch
        take1 = cand1 > cand0
        metric = np.where(take1, cand1, cand0)
        decisions[n] = take1

    # terminated trellis: trace back from state 0
    state = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)
    bits = np.empty((batch, steps), dtype=np.uint8)
    for n in range(steps - 1, -1, -1):
        bits[:, n] = tr.input_bit[state]
        full = 2 * state + decisions[n][rows, state]
        state = full & (tr.n_states - 1)
    return bits[:, : steps - cfg.tail_bits]


def encode(info_bits: np.ndarray, cfg: CodecConfig = CodecConfig()) -> np.ndarray:
    """CRC-frame and convolutionally encode one codeword of payload bits.

    Inputs shorter than ``cfg.info_capacity`` are zero-padded before the
    CRC is computed, so the receiver always sees a full-length codeword.
    """
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.ndim != 1:
        raise ValueError("info_bits must be one-dimensional")
    if len(info_bits) > cfg.info_capacity:
        raise ValueError(
            f"payload of {len(info_bits)} bits exceeds codeword capacity "
            f"{cfg.info_capacity}")
    padded = np.zeros(cfg.info_capacity, dtype=np.uint8)
    padded[: len(info_bits)] = info_bits
    framed = np.concatenate([padded, crc_bits(padded, cfg.crc_width)])
    return conv_encode(framed, cfg)


def decode(coded: np.ndarray, cfg: CodecConfig = CodecConfig()) -> tuple[np.ndarray, bool]:
    """Decode one codeword of soft or hard values.

    Returns (payload bits without the CRC, crc_ok).  Hard bit arrays
    ({0,1}) are detected by dtype and mapped to +/-1 soft values.
    """
    coded = np.asarray(coded)
    if coded.dtype.kind in "ui" or coded.dtype == bool:
        coded = 1.0 - 2.0 * coded.astype(np.float64)
    framed = viterbi_decode_batch(coded[None, :], cfg)[0]
    info, rx_crc = framed[: cfg.info_capacity], framed[cfg.info_capacity:]
    crc_ok = bool(np.array_equal(crc_bits(info, cfg.crc_width), rx_crc))
    return info, crc_ok
