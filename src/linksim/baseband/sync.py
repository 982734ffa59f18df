"""Frame acquisition and phase tracking.

The caller says where a frame may start: offsets ``0 .. search_window``.
Timing comes from the peak of the normalized cross-correlation against the
known preamble at those offsets, computed over their samples only.  The
carrier frequency offset estimate starts from the phase of the
correlation between the two identical preamble halves divided by the half
length, and is refined over the full known header (preamble plus pilot
block), which is what brings the error down to a few 1e-5 rad/sample at
moderate SNR.  The residual common phase is read off the header after CFO
removal.

``acquire_sync`` takes a group of frames as a ``(frames, samples)`` matrix
with one search window for the group, and gives each row what that row
alone would give.  A row that misses the threshold is marked in the
result, never raised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SYNC_THRESHOLD = 0.5


@dataclass(frozen=True)
class SyncState:
    """Acquisition of a group of frames, one value per row in each field.

    A row whose correlation peak misses the threshold has ``timing_offset``
    -1 and a CFO and phase of 0.
    """

    timing_offset: np.ndarray
    cfo_estimate: np.ndarray   # radians/sample
    phase: np.ndarray          # radians, wrapped to (-pi, pi]

    def __post_init__(self) -> None:
        phase = np.asarray(self.phase)
        if not np.all((-np.pi < phase) & (phase <= np.pi)):
            raise ValueError("phase must be wrapped to (-pi, pi]")


def wrap_phase(phi: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle, or each of an array of angles, to (-pi, pi]."""
    wrapped = (np.asarray(phi) + np.pi) % (2 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)[()]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` elementwise as numpy multiplies two complex scalars.

    The SIMD loop of an array product fuses a multiply-add, so it rounds
    differently from the scalar product a one-frame receiver took.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def acquire_sync(rx_waveforms: np.ndarray, preamble: np.ndarray,
                 header: np.ndarray, search_window: int,
                 threshold: float = DEFAULT_SYNC_THRESHOLD,
                 estimate_cfo: bool = True) -> SyncState:
    """Locate the preamble of each row of a ``(frames, samples)`` matrix at
    offsets ``0 .. search_window`` and estimate its CFO and common phase.

    ``header`` holds all known samples from the preamble start (preamble +
    CP'd pilot block); it must fit at every candidate offset.  With
    ``estimate_cfo`` off the CFO is pinned to zero and the phase estimate
    is not conditioned on it; receivers that will not apply CFO correction
    must pin it, otherwise estimator noise leaks into the phase reference.

    Each field of the result holds one value per row, a missed row marked
    as ``SyncState`` says.
    """
    rx = np.asarray(rx_waveforms, dtype=np.complex128)
    if rx.ndim != 2:
        raise ValueError("acquire_sync takes a (frames, samples) matrix")
    p = np.asarray(preamble, dtype=np.complex128)
    ref = np.asarray(header, dtype=np.complex128)
    if search_window < 0 or rx.shape[1] < search_window + len(ref):
        raise ValueError(
            f"the {len(ref)}-sample header does not fit at every offset "
            f"0..{search_window} of a {rx.shape[1]}-sample waveform")
    half = len(p) // 2
    rows = np.arange(len(rx))

    # every candidate window of every row; vecdot takes the same dot
    # product per window as np.correlate / np.convolve over one waveform
    head = rx[:, : search_window + len(p)]
    corr = np.vecdot(p, np.lib.stride_tricks.sliding_window_view(head, len(p), axis=-1))
    power = np.abs(head) ** 2
    window_energy = np.vecdot(
        np.lib.stride_tricks.sliding_window_view(power, len(p), axis=-1), np.ones(len(p)))
    norm = np.sqrt(window_energy * np.sum(np.abs(p) ** 2))
    metric = np.abs(corr) / np.maximum(norm, 1e-300)
    offset = np.argmax(metric, axis=-1)
    locked = metric[rows, offset] >= threshold

    # a pinned CFO is the same 0.0 on every row, so one row of it serves all
    cfo = np.zeros(1)
    segment = rx[rows[:, None], offset[:, None] + np.arange(len(ref))]
    n = np.arange(len(ref))
    conj_ref = np.conj(ref)
    if estimate_cfo:
        first = np.conj(segment[:, :half])
        halves = np.sum(segment[:, half: 2 * half] * first, axis=-1)
        cfo = np.angle(halves) / half
        # two-segment refinement over every known header sample
        z = segment * conj_ref * np.exp(-1j * cfo[:, None] * n)
        h2 = len(ref) // 2
        baseline = len(ref) - h2
        cfo += np.angle(_product(np.sum(z[:, h2:], axis=-1),
                                 np.conj(np.sum(z[:, :h2], axis=-1)))) / baseline
    phase = wrap_phase(np.angle(np.sum(
        segment * conj_ref * np.exp(-1j * cfo[:, None] * n), axis=-1)))
    return SyncState(timing_offset=np.where(locked, offset, -1),
                     cfo_estimate=np.where(locked, cfo, 0.0),
                     phase=np.where(locked, phase, 0.0))


def track_phase(block: np.ndarray, pilot_values: np.ndarray,
                pilot_positions: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Remove the common phase of each block (along the last axis),
    estimated over its pilots.

    The rotated blocks go to ``out`` when given (``block`` itself rotates
    it in place), else to a new array.
    """
    block = np.asarray(block, dtype=np.complex128)
    pilot_positions = np.asarray(pilot_positions, dtype=int)
    if pilot_positions.size == 0:
        raise ValueError("at least one pilot is required")
    # a running sum adds the pilots in order whatever the shape (np.sum does
    # not), so each row of a block matrix gets exactly its one-block result
    terms = block[..., pilot_positions] * np.conj(pilot_values)
    rotation = np.cumsum(terms, axis=-1)[..., -1:]
    return np.multiply(block, np.exp(-1j * np.angle(rotation)), out=out)
