"""Frame layout: training sequences, cyclic prefix, block assembly.

A frame is laid out as::

    [ preamble | CP + pilot block | CP + payload block 0 | CP + block 1 ... ]

The preamble is two copies of a length-64 Chu sequence, giving it the
two-identical-halves structure the frequency offset estimator relies on.
The pilot block is a full-length Chu sequence used for channel estimation;
its flat spectrum keeps least-squares estimation well conditioned on every
bin.  Payload blocks embed a few known pilot symbols at fixed positions for
per-block phase tracking.

Only this module knows the layout.  ``FrameConfig`` builds the constant
parts of a frame once per config, as read-only arrays shared by every
frame, and the helpers put the frame axis first and work along the last
axis: ``build_frame`` turns a ``(frames, symbols)`` matrix into one waveform
per row, and a receiver takes the payload blocks of a group of frames as
one ``(frames, n_payload_blocks, fft_size)`` array.  Both reach the data
slots of the blocks through the same views, in transmit order
(``extract_data_symbols``), so no group-sized symbol matrix is padded,
gathered or flattened on either side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modulation import thue_morse

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


def add_cyclic_prefix(block: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last cp_len symbols of each block (along the last axis)."""
    block = np.asarray(block)
    n = block.shape[-1]
    if not 0 <= cp_len < n:
        raise ValueError(f"need 0 <= cp_len < block length, got {cp_len}")
    return np.concatenate([block[..., n - cp_len:], block], axis=-1)


def remove_cyclic_prefix(extended: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the first cp_len symbols of each block (along the last axis)."""
    extended = np.asarray(extended)
    if not 0 <= cp_len < extended.shape[-1]:
        raise ValueError("cp_len inconsistent with extended block length")
    return extended[..., cp_len:].copy()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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

    @cached_property
    def pilot_positions(self) -> np.ndarray:
        step = self.fft_size // max(self.pilots_per_block, 1)
        return _read_only(np.arange(self.pilots_per_block) * step)

    @cached_property
    def pilot_values(self) -> np.ndarray:
        # samples of a secondary Chu sequence at the pilot positions
        return _read_only(chu_sequence(self.fft_size, root=3)[self.pilot_positions])

    @cached_property
    def data_mask(self) -> np.ndarray:
        """True at the positions of a payload block that carry data."""
        mask = np.ones(self.fft_size, dtype=bool)
        mask[self.pilot_positions] = False
        return _read_only(mask)

    @cached_property
    def preamble(self) -> np.ndarray:
        return _read_only(build_preamble())

    @cached_property
    def pilot_block(self) -> np.ndarray:
        """The channel-estimation block, without its cyclic prefix."""
        return _read_only(chu_sequence(self.fft_size))

    @cached_property
    def pilot_spectrum(self) -> np.ndarray:
        """DFT of ``pilot_block``, the reference of least-squares estimation."""
        return _read_only(np.fft.fft(self.pilot_block))

    @cached_property
    def header(self) -> np.ndarray:
        """Preamble plus CP'd pilot block: every transmitted header sample."""
        return _read_only(np.concatenate([
            self.preamble, add_cyclic_prefix(self.pilot_block, self.cp_len)]))

    @cached_property
    def filler(self) -> np.ndarray:
        # Thue-Morse BPSK filler keeps unused payload slots at unit modulus
        return _read_only(
            (1.0 - 2.0 * thue_morse(self.capacity_symbols)).astype(np.complex128))

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
    def header_len(self) -> int:
        return 2 * PREAMBLE_HALF_LEN + self.block_len

    @property
    def frame_len(self) -> int:
        """Total samples: preamble + pilot block + payload blocks, CPs included."""
        return self.header_len + self.n_payload_blocks * self.block_len


def build_frame(data_symbols: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """The waveform of each frame carrying a row of ``data_symbols`` (then
    filler): ``(frames, symbols)`` gives ``(frames, frame_len)``, and one
    row of symbols one waveform.  The symbols, then the filler, are written
    straight into the data slots, a run of whole blocks or pilot runs at a
    time."""
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    n = data_symbols.shape[-1]
    if n > cfg.capacity_symbols:
        raise ValueError(
            f"{n} payload symbols exceed frame capacity {cfg.capacity_symbols}")
    lead = data_symbols.shape[:-1]
    waveform = np.empty(lead + (cfg.frame_len,), dtype=np.complex128)
    waveform[..., : cfg.header_len] = cfg.header
    blocks = waveform[..., cfg.header_len:].reshape(
        lead + (cfg.n_payload_blocks, cfg.block_len))
    payload = blocks[..., cfg.cp_len:]
    payload[..., cfg.pilot_positions] = cfg.pilot_values
    data = _data_slots(payload, cfg)
    for slots, start, stop in _spans(data, 3, 0, n):
        slots[...] = data_symbols[..., start:stop].reshape(slots.shape)
    # the filler starts afresh after the symbols
    for slots, start, stop in _spans(data, 3, n, cfg.capacity_symbols):
        slots[...] = cfg.filler[start - n: stop - n].reshape(
            slots.shape[len(lead):])
    # the cyclic prefix repeats the last cp_len symbols of its block
    blocks[..., : cfg.cp_len] = blocks[..., cfg.fft_size:]
    return waveform


def extract_data_symbols(blocks: np.ndarray, cfg: FrameConfig,
                         stop: int | None = None
                         ) -> list[tuple[np.ndarray, int, int]]:
    """The first ``stop`` data symbols (all when None) of equalized
    (CP-free) blocks, in transmit order, as views of ``blocks``: no copy.

    ``(n_payload_blocks, fft_size)`` blocks are one frame's and ``(frames,
    n_payload_blocks, fft_size)`` a group's.  Returns a list of ``(slots,
    first, last)``: the leading axes of ``slots`` are those of ``blocks``,
    and its trailing axes hold symbols ``first`` to ``last``, row-major.
    Whole blocks come as one view, and a part of a block as its whole
    pilot runs and a part of one.
    """
    blocks = np.asarray(blocks)
    total = blocks.shape[-2] * cfg.data_symbols_per_block
    stop = total if stop is None else stop
    if not 0 <= stop <= total:
        raise ValueError(f"{stop} data symbols of blocks holding {total}")
    return _spans(_data_slots(blocks, cfg), 3, 0, stop)


def _data_slots(blocks: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """A view of the ``data_mask`` positions of blocks (along the last axis),
    in order: a block is ``pilots_per_block`` equal runs, each led by its
    pilot, so the data are every run but its first slot.  Row-major over
    its last three axes (block, run, slot), the view is in transmit order."""
    if not cfg.pilots_per_block:
        return blocks[..., None, :]
    runs = blocks.reshape(blocks.shape[:-1] + (
        cfg.pilots_per_block, cfg.fft_size // cfg.pilots_per_block))
    return runs[..., 1:]


def _spans(view: np.ndarray, axes: int, start: int, stop: int, offset: int = 0
           ) -> list[tuple[np.ndarray, int, int]]:
    """Positions ``start`` to ``stop``, row-major over the last ``axes``
    axes of ``view``, as rectangular views, each with its first and last
    position plus ``offset``: the whole sub-arrays of the first of those
    axes as one view, and a part of one at either end split the same way
    one axis down."""
    if start >= stop:
        return []
    if axes == 1:
        return [(view[..., start:stop], offset + start, offset + stop)]
    inner = math.prod(view.shape[view.ndim - axes + 1:])
    rest = (slice(None),) * (axes - 1)
    first, last = -(-start // inner), stop // inner   # the whole sub-arrays
    if first > last:   # start and stop fall inside one sub-array
        i = start // inner
        return _spans(view[(..., i) + rest], axes - 1, start - i * inner,
                      stop - i * inner, offset + i * inner)
    spans = []
    if start < first * inner:
        i = first - 1
        spans += _spans(view[(..., i) + rest], axes - 1, start - i * inner,
                        inner, offset + i * inner)
    if first < last:
        spans.append((view[(..., slice(first, last)) + rest],
                      offset + first * inner, offset + last * inner))
    if last * inner < stop:
        spans += _spans(view[(..., last) + rest], axes - 1, 0,
                        stop - last * inner, offset + last * inner)
    return spans
