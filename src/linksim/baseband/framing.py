"""Frame geometry: training sequences, cyclic prefix, block assembly.

A frame is laid out as::

    [ preamble | CP + pilot block | CP + payload block 0 | CP + block 1 ... ]

The preamble is two copies of a length-64 Chu sequence, giving it the
two-identical-halves structure the frequency offset estimator relies on.
The pilot block is a full-length Chu sequence used for channel estimation;
its flat spectrum keeps least-squares estimation well conditioned on every
bin.  Payload blocks embed a few known pilot symbols at fixed positions for
per-block phase tracking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PREAMBLE_HALF_LEN = 64

#: documented bound on the normalized periodic autocorrelation sidelobes of
#: the constructed preamble half (measured ~1e-15; Chu sequences are ideal)
PREAMBLE_SIDELOBE_BOUND = 1e-9


def chu_sequence(n: int, root: int = 1) -> np.ndarray:
    """Constant-amplitude zero-autocorrelation sequence of length n."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    k = np.arange(n)
    exponent = k * k if n % 2 == 0 else k * (k + 1)
    return np.exp(-1j * np.pi * root * exponent / n)


def build_preamble(half_len: int = PREAMBLE_HALF_LEN) -> np.ndarray:
    return np.tile(chu_sequence(half_len), 2)


def _filler_symbols(n: int) -> np.ndarray:
    # Thue-Morse BPSK filler keeps unused payload slots at unit modulus
    bits = np.array([bin(j).count("1") & 1 for j in range(n)], dtype=np.int8)
    return (1.0 - 2.0 * bits).astype(np.complex128)


def add_cyclic_prefix(block: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the block's last cp_len symbols."""
    block = np.asarray(block)
    if not 0 <= cp_len < len(block):
        raise ValueError(f"need 0 <= cp_len < block length, got {cp_len}")
    if cp_len == 0:
        return block.copy()
    return np.concatenate([block[-cp_len:], block])


def remove_cyclic_prefix(extended: np.ndarray, cp_len: int) -> np.ndarray:
    extended = np.asarray(extended)
    if not 0 <= cp_len < len(extended):
        raise ValueError("cp_len inconsistent with extended block length")
    return extended[cp_len:].copy()


@dataclass(frozen=True)
class FrameConfig:
    fft_size: int = 256
    cp_len: int = 32
    n_payload_blocks: int = 4
    pilots_per_block: int = 8

    def __post_init__(self) -> None:
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if not 0 <= self.cp_len < self.fft_size:
            raise ValueError("cp_len must be in [0, fft_size)")
        if self.n_payload_blocks < 1:
            raise ValueError("n_payload_blocks must be >= 1")
        if self.pilots_per_block < 0 or self.pilots_per_block >= self.fft_size:
            raise ValueError("pilots_per_block out of range")
        if self.pilots_per_block and self.fft_size % self.pilots_per_block:
            raise ValueError("pilots_per_block must divide fft_size")

    @property
    def pilot_positions(self) -> np.ndarray:
        if self.pilots_per_block == 0:
            return np.empty(0, dtype=int)
        step = self.fft_size // self.pilots_per_block
        return np.arange(self.pilots_per_block) * step

    @property
    def pilot_values(self) -> np.ndarray:
        # samples of a secondary Chu sequence at the pilot positions
        return chu_sequence(self.fft_size, root=3)[self.pilot_positions]

    @property
    def data_symbols_per_block(self) -> int:
        return self.fft_size - self.pilots_per_block

    @property
    def capacity_symbols(self) -> int:
        return self.n_payload_blocks * self.data_symbols_per_block

    @property
    def block_len(self) -> int:
        return self.fft_size + self.cp_len

    @property
    def frame_len(self) -> int:
        """Total samples: preamble + pilot block + payload blocks, CPs included."""
        return 2 * PREAMBLE_HALF_LEN + (1 + self.n_payload_blocks) * self.block_len


@dataclass
class BasebandFrame:
    """One assembled PHY frame.

    ``pilot_block`` is stored without its cyclic prefix; ``payload_blocks``
    are stored as transmitted, i.e. cp_len prefix samples plus fft_size
    block samples each.
    """

    preamble: np.ndarray
    pilot_block: np.ndarray
    payload_blocks: list[np.ndarray]
    fft_size: int
    cp_len: int

    def to_waveform(self) -> np.ndarray:
        parts = [self.preamble, add_cyclic_prefix(self.pilot_block, self.cp_len)]
        parts.extend(self.payload_blocks)
        return np.concatenate(parts)

    def validate(self) -> None:
        if len(self.pilot_block) != self.fft_size:
            raise ValueError("pilot block length != fft_size")
        for blk in self.payload_blocks:
            if len(blk) != self.fft_size + self.cp_len:
                raise ValueError("payload block length != fft_size + cp_len")
            if self.cp_len and not np.array_equal(blk[: self.cp_len],
                                                  blk[-self.cp_len:]):
                raise ValueError("cyclic prefix does not match block tail")


def build_frame(data_symbols: np.ndarray, cfg: FrameConfig) -> BasebandFrame:
    """Assemble payload symbols (plus pilots and filler) into a frame."""
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if len(data_symbols) > cfg.capacity_symbols:
        raise ValueError(
            f"{len(data_symbols)} payload symbols exceed frame capacity "
            f"{cfg.capacity_symbols}")
    padded = np.concatenate([
        data_symbols,
        _filler_symbols(cfg.capacity_symbols - len(data_symbols)),
    ])
    per_block = cfg.data_symbols_per_block
    blocks = []
    data_mask = np.ones(cfg.fft_size, dtype=bool)
    data_mask[cfg.pilot_positions] = False
    for b in range(cfg.n_payload_blocks):
        block = np.empty(cfg.fft_size, dtype=np.complex128)
        block[cfg.pilot_positions] = cfg.pilot_values
        block[data_mask] = padded[b * per_block:(b + 1) * per_block]
        blocks.append(add_cyclic_prefix(block, cfg.cp_len))
    return BasebandFrame(
        preamble=build_preamble(),
        pilot_block=chu_sequence(cfg.fft_size),
        payload_blocks=blocks,
        fft_size=cfg.fft_size,
        cp_len=cfg.cp_len,
    )


def extract_data_symbols(block: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Pull the data positions out of an equalized (CP-free) block."""
    mask = np.ones(cfg.fft_size, dtype=bool)
    mask[cfg.pilot_positions] = False
    return np.asarray(block)[mask]


def known_header(cfg: FrameConfig) -> np.ndarray:
    """Preamble plus CP'd pilot block: every transmitted header sample."""
    return np.concatenate([
        build_preamble(),
        add_cyclic_prefix(chu_sequence(cfg.fft_size), cfg.cp_len),
    ])
