"""Frame acquisition and phase tracking.

Timing comes from the peak of the normalized cross-correlation against the
known preamble.  The carrier frequency offset estimate starts from the
phase of the correlation between the two identical preamble halves divided
by the half length; when the caller also passes the full known header
(preamble plus pilot block) the estimate is refined over that longer
baseline, which is what brings the error down to a few 1e-5 rad/sample at
moderate SNR.  The residual common phase is read off the known reference
after CFO removal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SyncError

DEFAULT_SYNC_THRESHOLD = 0.5


@dataclass(frozen=True)
class SyncState:
    timing_offset: int
    cfo_estimate: float   # radians/sample
    phase: float          # radians, wrapped to (-pi, pi]

    def __post_init__(self) -> None:
        if not -np.pi < self.phase <= np.pi:
            raise ValueError("phase must be wrapped to (-pi, pi]")


def wrap_phase(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = (phi + np.pi) % (2 * np.pi) - np.pi
    return np.pi if wrapped == -np.pi else wrapped


def acquire_sync(rx_waveform: np.ndarray, preamble: np.ndarray,
                 threshold: float = DEFAULT_SYNC_THRESHOLD,
                 search_window: int | None = None,
                 header: np.ndarray | None = None,
                 estimate_cfo: bool = True) -> SyncState:
    """Locate the preamble and estimate CFO and common phase.

    ``search_window`` limits the candidate offsets (None searches every
    position).  ``header`` optionally holds all known samples from
    the preamble start (preamble + CP'd pilot block) for CFO refinement
    and phase estimation.  With ``estimate_cfo`` off the CFO is pinned to
    zero and the phase estimate is not conditioned on it; receivers that
    will not apply CFO correction must pin it, otherwise estimator noise
    leaks into the phase reference.
    """
    rx = np.asarray(rx_waveform, dtype=np.complex128)
    p = np.asarray(preamble, dtype=np.complex128)
    if len(rx) < len(p):
        raise ValueError("waveform shorter than preamble")
    half = len(p) // 2

    corr = np.correlate(rx, p, mode="valid")
    window_energy = np.convolve(np.abs(rx) ** 2, np.ones(len(p)), mode="valid")
    norm = np.sqrt(window_energy * np.sum(np.abs(p) ** 2))
    metric = np.abs(corr) / np.maximum(norm, 1e-300)
    if search_window is not None:
        metric = metric[: search_window + 1]
    offset = int(np.argmax(metric))
    peak = float(metric[offset])
    if peak < threshold:
        raise SyncError(
            f"normalized correlation peak {peak:.3f} below threshold {threshold}")

    cfo = 0.0
    if estimate_cfo:
        halves = np.sum(rx[offset + half: offset + 2 * half] *
                        np.conj(rx[offset: offset + half]))
        cfo = float(np.angle(halves)) / half

    ref = p if header is None else np.asarray(header, np.complex128)
    segment = rx[offset: offset + len(ref)]
    if len(segment) < len(ref):
        ref = ref[: len(segment)]
    n = np.arange(len(ref))
    if estimate_cfo and header is not None:
        # two-segment refinement over every known header sample
        z = segment * np.conj(ref) * np.exp(-1j * cfo * n)
        h2 = len(ref) // 2
        baseline = len(ref) - h2
        cfo += float(np.angle(np.sum(z[h2:]) * np.conj(np.sum(z[:h2])))) / baseline
    phase = float(np.angle(np.sum(segment * np.conj(ref) * np.exp(-1j * cfo * n))))
    return SyncState(timing_offset=offset, cfo_estimate=cfo,
                     phase=wrap_phase(phase))


def track_phase(block: np.ndarray, pilot_values: np.ndarray,
                pilot_positions: np.ndarray) -> np.ndarray:
    """Remove the common phase of each block (along the last axis),
    estimated over its pilots."""
    block = np.asarray(block, dtype=np.complex128)
    pilot_positions = np.asarray(pilot_positions, dtype=int)
    if pilot_positions.size == 0:
        raise ValueError("at least one pilot is required")
    # a running sum adds the pilots in order whatever the shape (np.sum does
    # not), so each row of a block matrix gets exactly its one-block result
    terms = block[..., pilot_positions] * np.conj(pilot_values)
    rotation = np.cumsum(terms, axis=-1)[..., -1:]
    return block * np.exp(-1j * np.angle(rotation))
