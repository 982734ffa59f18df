"""Error control coding: CRC framing, rate-1/n convolutional code, Viterbi.

``encode`` and ``decode`` own the codeword layout and work on batches of
rows: a row of payload bits fills ceil(n / info_capacity) codewords, the
last one zero-padded, each holding its info bits followed by a
``crc_width``-bit CRC over them, convolutionally encoded.

The default code is the classic constraint-length-7 feedforward
convolutional code with generators 133/171 (octal); any n generators give a
rate-1/n code.  Codes are trellis-terminated with K-1 zero tail bits.
The CRC is linear over GF(2) apart from its all-ones initial
value, so it is computed as the affine map ``(bits @ A + c) mod 2`` with
``A`` and ``c`` cached per (length, width): one matrix product for a whole
batch of rows.  Decoding is a full-trellis maximum-likelihood search over
soft values, the codewords of a batch in passes of at most
``DECISION_BYTES`` of decisions, each one add-compare-select loop over the
trellis steps; ties between merging paths resolve to the branch whose
departing register bit is 0, which makes decoding bit-exactly reproducible.
The traceback walks a table of int32 predecessors as flat (state, row)
indices (a pass's states x rows fit), built one block of steps at a time
from the end, so a step back is one ``take`` for every codeword of a pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modulation import thue_morse

CRC_POLYNOMIALS = {
    8: 0x07,
    16: 0x1021,
    32: 0x04C11DB7,
}

#: Viterbi decision bytes a decoder pass is sized for, those of 32 default
#: codewords (1030 trellis steps of 64 states): a code one codeword of which
#: needs more is refused, and the sweep engine sizes its groups to it
DECISION_BYTES = 32 * 1030 * 64


@dataclass(frozen=True)
class CodecConfig:
    info_bits_per_codeword: int = 1024
    constraint_length: int = 7
    crc_width: int = 32
    generators: tuple[int, ...] = (0o133, 0o171)

    def __post_init__(self) -> None:
        if self.info_bits_per_codeword < 1:
            raise ValueError("info_bits_per_codeword must be >= 1")
        if not self.generators:
            raise ValueError("generators must be non-empty")
        if self.crc_width not in CRC_POLYNOMIALS:
            raise ValueError(f"unsupported crc_width {self.crc_width}")
        if self.info_bits_per_codeword <= self.crc_width:
            raise ValueError("codeword must be longer than its CRC")
        if self.constraint_length < 2:
            raise ValueError("constraint_length must be >= 2")
        if self.decision_bytes > DECISION_BYTES:
            raise ValueError(
                f"constraint_length {self.constraint_length} needs "
                f"{self.decision_bytes} bytes of Viterbi decisions a codeword "
                f"({self.trellis_steps} trellis steps x "
                f"2**{self.constraint_length - 1} states), beyond the "
                f"decoder's {DECISION_BYTES}")
        for g in self.generators:
            if g >= 1 << self.constraint_length:
                raise ValueError("generator wider than constraint length")

    @property
    def code_rate(self) -> Fraction:
        return Fraction(1, len(self.generators))

    @property
    def tail_bits(self) -> int:
        return self.constraint_length - 1

    @property
    def info_capacity(self) -> int:
        """Payload bits per codeword once the CRC is accounted for."""
        return self.info_bits_per_codeword - self.crc_width

    def n_codewords(self, info_bits: int) -> int:
        """Codewords that a row of ``info_bits`` payload bits fills."""
        return -(-info_bits // self.info_capacity)

    @property
    def trellis_steps(self) -> int:
        """Trellis steps of a codeword: its info bits, CRC and tail."""
        return self.info_bits_per_codeword + self.tail_bits

    @property
    def decision_bytes(self) -> int:
        """Viterbi decision bytes of a codeword, one a trellis step and state."""
        return self.trellis_steps << (self.constraint_length - 1)

    @property
    def coded_bits_per_codeword(self) -> int:
        """Transmitted bits per codeword including the termination tail."""
        return self.trellis_steps * len(self.generators)


_CRC_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _crc_affine(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) with crc(bits) = (bits @ A + c) mod 2 for n-bit inputs.

    The register update is linear over GF(2): row i of ``A`` is the
    register that a lone 1 at input position i leaves after the n - 1 - i
    zero-input steps that follow it, and ``c`` is what the all-ones initial
    value leaves after n zero-input steps, final xor included.  Each is
    stepped as one Python int, O(n) in all.
    """
    key = (n, width)
    if key not in _CRC_CACHE:
        poly, mask = CRC_POLYNOMIALS[width], (1 << width) - 1

        def step(reg: int) -> int:
            return ((reg << 1) ^ (poly if reg >> (width - 1) else 0)) & mask

        rows, reg, init = [], poly, mask   # poly: a 1 fed into a zero register
        for _ in range(n):
            rows.append(reg)
            reg, init = step(reg), step(init)
        regs = np.array(rows[::-1] + [init ^ mask], dtype=np.uint64)[:, None]
        bits = (regs >> np.arange(width - 1, -1, -1, dtype=np.uint64)) & np.uint64(1)
        # a float matrix: the sums are integers <= n, exact in float64, and
        # the product runs in BLAS
        _CRC_CACHE[key] = bits[:-1].astype(np.float64), bits[-1].astype(np.uint8)
    return _CRC_CACHE[key]


def crc_bits_batch(bits: np.ndarray, width: int = 32) -> np.ndarray:
    """CRC of each row of a (batch, n) bit matrix; returns (batch, width).

    MSB-first, initial value and final xor all ones.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    a, c = _crc_affine(bits.shape[1], width)
    return ((bits @ a) % 2).astype(np.uint8) ^ c


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
    return out.reshape(batch, steps * len(cfg.generators))


@dataclass(frozen=True)
class _Trellis:
    n_states: int
    # row of combo_sign each branch expects, ordered (branch j, state t):
    # the predecessor of state t = h * n_states / 2 + u on branch j is 2u + j
    branch_combo: np.ndarray  # (2 * S,)
    combo_sign: np.ndarray    # (2**n_out, n_out) soft signs, +1 for bit 0


_TRELLIS_CACHE: dict[tuple[int, tuple[int, ...]], _Trellis] = {}

#: trellis steps handled as one block: the branch metrics gathered for the
#: add-compare-select loop, (16, 2 * states, batch), and the slice of the
#: predecessor table built for the traceback, (16, states * batch)
_STEP_CHUNK = 16


def _trellis(k: int, generators: tuple[int, ...]) -> _Trellis:
    key = (k, generators)
    cached = _TRELLIS_CACHE.get(key)
    if cached is not None:
        return cached
    n_states = 1 << (k - 1)
    parity = thue_morse(1 << k)   # parity of every register value
    t = np.arange(n_states)
    # branch j into state t corresponds to full register value 2t + j; the
    # newest input bit sits in the register MSB, so it equals t >> (k - 2)
    full = np.stack([2 * t, 2 * t + 1])
    # coded output o of a branch is bit (n_out - 1 - o) of its combo index
    combo = np.zeros_like(full)
    for g in generators:
        combo = 2 * combo + parity[full & g]
    n_out = len(generators)
    combo_bits = (np.arange(1 << n_out)[:, None]
                  >> np.arange(n_out - 1, -1, -1)) & 1
    trellis = _Trellis(n_states, combo.reshape(-1).astype(np.intp),
                       1.0 - 2.0 * combo_bits)
    _TRELLIS_CACHE[key] = trellis
    return trellis


def viterbi_decode_batch(soft: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Maximum-likelihood decoding of a (batch, coded_len) soft-value matrix.

    Soft values are correlation metrics: positive means bit 0, matching the
    BPSK convention 0 -> +1.  Hard bits may be passed by mapping b -> 1-2b
    first.  Returns the (batch, info + crc) decoded bits, tail removed.
    The rows go in passes of ``DECISION_BYTES // decision_bytes``, each one
    add-compare-select loop over the trellis steps; arrays are state-major,
    (states, rows), so each step is three whole-array operations.  The
    traceback turns the decisions into a table of predecessors, one
    ``_STEP_CHUNK`` slice at a time from the end, each entry the flat
    (state, row) index of the state before it, so a step back is one
    ``take`` for every row of a pass.
    """
    cfg_len = cfg.coded_bits_per_codeword
    soft = np.asarray(soft, dtype=np.float64)
    if soft.ndim != 2 or soft.shape[1] != cfg_len:
        raise ValueError(
            f"coded length {soft.shape[-1]} does not match codec "
            f"(expected {cfg_len})")
    rows = DECISION_BYTES // cfg.decision_bytes
    if len(soft) <= rows:
        return _viterbi_pass(soft, cfg)
    return np.concatenate([_viterbi_pass(soft[r:r + rows], cfg)
                           for r in range(0, len(soft), rows)])


def _viterbi_pass(soft: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """``viterbi_decode_batch`` on rows whose decisions fit ``DECISION_BYTES``."""
    batch = soft.shape[0]
    if not batch:
        return np.empty((0, cfg.info_bits_per_codeword), dtype=np.uint8)
    n_out = len(cfg.generators)
    tr = _trellis(cfg.constraint_length, cfg.generators)
    steps = cfg.trellis_steps
    half = tr.n_states // 2

    # branch metric of every sign combination per step, laid out
    # (steps, combos, batch), the outputs added in order o = 0..n_out-1 and
    # read through a (n_out, steps, batch) view of ``soft``; the signs are
    # +-1, so adding or subtracting an output is exactly adding its signed
    # product
    outputs = soft.reshape(batch, steps, n_out).transpose(2, 1, 0)
    bm = np.empty((steps, len(tr.combo_sign), batch))
    for c, signs in enumerate(tr.combo_sign):
        np.multiply(outputs[0], signs[0], out=bm[:, c])
        for o in range(1, n_out):
            (np.add if signs[o] > 0 else np.subtract)(
                bm[:, c], outputs[o], out=bm[:, c])

    metric = np.full((tr.n_states, batch), -1e30)
    metric[0] = 0.0
    # (j, 1, u, batch) view of the predecessor metrics 2u + j, which both
    # halves h of the states share
    pred = metric.reshape(half, 2, batch).transpose(1, 0, 2)[:, None]
    cand = np.empty((2, tr.n_states, batch))      # (branch, state, batch)
    cand_jhu = cand.reshape(2, 2, half, batch)
    cand0, cand1 = cand
    decisions = np.empty((steps, tr.n_states, batch), dtype=bool)
    gathered = np.empty((_STEP_CHUNK, 2 * tr.n_states, batch))
    for n0 in range(0, steps, _STEP_CHUNK):
        branches = gathered[: min(_STEP_CHUNK, steps - n0)]
        # "clip" gathers straight into the buffer ("raise" would buffer the
        # take); every index is in range
        np.take(bm[n0:n0 + _STEP_CHUNK], tr.branch_combo, axis=1,
                out=branches, mode="clip")
        for branch, decision in zip(branches.reshape(-1, 2, 2, half, batch),
                                    decisions[n0:n0 + _STEP_CHUNK]):
            np.add(pred, branch, out=cand_jhu)
            # strict comparison keeps ties on the 0-branch; the maximum is
            # the surviving metric (equal candidates are equal values)
            np.greater(cand1, cand0, out=decision)
            np.maximum(cand0, cand1, out=metric)

    # predecessor table, one _STEP_CHUNK slice at a time: state t of row r
    # on decision d came from state 2 * (t % half) + d, and every state is
    # held as its flat index state * batch + r into a step's slice
    base = ((np.arange(tr.n_states, dtype=np.int32) % half * 2 * batch)[:, None]
            + np.arange(batch, dtype=np.int32)).reshape(-1)
    table = np.empty((_STEP_CHUNK, tr.n_states * batch), dtype=np.int32)
    # terminated trellis: trace back from state 0
    flat = np.arange(batch, dtype=np.int32)
    states = np.empty((steps, batch), dtype=np.int32)
    for n0 in reversed(range(0, steps, _STEP_CHUNK)):
        block = table[: min(_STEP_CHUNK, steps - n0)]
        np.multiply(decisions[n0:n0 + _STEP_CHUNK].reshape(len(block), -1),
                    np.int32(batch), out=block)
        block += base
        for n in range(n0 + len(block) - 1, n0 - 1, -1):
            states[n] = flat
            flat = block[n - n0].take(flat)
    # the input bit of a state is its MSB: 1 from flat index half * batch on
    return (states[: steps - cfg.tail_bits].T >= half * batch).view(np.uint8)


def encode(info_bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """CRC-frame and convolutionally encode each row of payload bits.

    ``info_bits`` is (batch, n); returns (batch, n_codewords(n) *
    coded_bits_per_codeword), the codewords of a row back to back.  The
    last codeword is zero-padded before its CRC is computed, so the
    receiver always sees full-length codewords.
    """
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    batch, n = info_bits.shape
    cap = cfg.info_capacity
    padded = np.zeros((batch, cfg.n_codewords(n) * cap), dtype=np.uint8)
    padded[:, :n] = info_bits
    framed = np.empty((padded.size // cap, cfg.info_bits_per_codeword),
                      dtype=np.uint8)
    framed[:, :cap] = padded.reshape(-1, cap)
    framed[:, cap:] = crc_bits_batch(framed[:, :cap], cfg.crc_width)
    return conv_encode_batch(framed, cfg).reshape(
        batch, cfg.n_codewords(n) * cfg.coded_bits_per_codeword)


def decode(soft: np.ndarray, cfg: CodecConfig
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode each row of a (batch, n_cw * coded_bits_per_codeword) matrix.

    Soft values as for ``viterbi_decode_batch`` (positive means bit 0);
    an integer matrix of hard bits is rejected, not decoded as soft values.
    The codewords of every row go through one Viterbi call, one CRC check
    and one re-encode.  Returns ``(info, crc_ok, corrected)``: the
    (batch, n_cw * info_capacity) info bits, padding included; the
    (batch, n_cw) CRC verdicts; and per row the coded bits whose hard
    decision differs from the re-encoded decoder output, the channel bit
    errors the decoder corrected.
    """
    soft = np.asarray(soft)
    if not np.issubdtype(soft.dtype, np.floating):
        raise ValueError(f"soft values must be floats, got {soft.dtype} "
                         "(map hard bits b to 1 - 2b first)")
    batch, coded_len = soft.shape
    cw_len = cfg.coded_bits_per_codeword
    if coded_len == 0 or coded_len % cw_len:
        raise ValueError(f"coded length {coded_len} does not match codec "
                         f"(a multiple of {cw_len})")
    n_cw = coded_len // cw_len
    soft_cw = soft.reshape(-1, cw_len)
    framed = viterbi_decode_batch(soft_cw, cfg)
    cap = cfg.info_capacity
    crc_ok = np.all(crc_bits_batch(framed[:, :cap], cfg.crc_width)
                    == framed[:, cap:], axis=1)
    corrected = np.count_nonzero(conv_encode_batch(framed, cfg) != (soft_cw < 0),
                                 axis=1)
    return (framed[:, :cap].reshape(batch, n_cw * cap),
            crc_ok.reshape(batch, n_cw),
            corrected.reshape(batch, n_cw).sum(axis=1))
