"""Receive-side equalization: per-block frequency-domain MMSE and LMS FIR.

The FD equalizer assumes the cyclic prefix already turned the channel into
a circular convolution per block: weights conj(H) / (|H|^2 + sigma^2) are
applied between DFT and inverse DFT.  With sigma^2 = 0 this reduces to
zero-forcing (bins where H is exactly zero get weight zero instead of a
division by zero).

The TD equalizer is a least-mean-squares adaptive FIR with its reference
tap at the filter center, trained on known symbols and then either frozen
or switched to decision-directed updates over the payload.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import DegenerateChannelError


class EqualizerVariant(Enum):
    TIME_DOMAIN_LMS = "td-lms"
    FREQUENCY_DOMAIN_MMSE = "fd-mmse"


@dataclass(frozen=True)
class EqualizerConfig:
    variant: EqualizerVariant = EqualizerVariant.FREQUENCY_DOMAIN_MMSE
    lms_taps: int = 15
    lms_step: float = 0.01
    noise_variance_hint: float | None = None
    decision_directed: bool = False

    def __post_init__(self) -> None:
        if self.lms_taps < 1 or self.lms_taps % 2 == 0:
            raise ValueError("lms_taps must be odd and >= 1")
        if self.lms_step <= 0:
            raise ValueError("lms_step must be > 0")
        if self.noise_variance_hint is not None and self.noise_variance_hint < 0:
            raise ValueError("noise_variance_hint must be >= 0")


def fd_equalize(rx_block: np.ndarray, channel_freq_response: np.ndarray,
                noise_variance: float | np.ndarray = 0.0) -> np.ndarray:
    """MMSE-equalize CP-free blocks (along the last axis) given the per-bin
    channel response.

    One response and noise variance serve every block; for a group of
    frames, ``(frames, blocks, fft_size)``, a ``(frames, fft_size)`` response
    and a ``(frames,)`` noise variance give each frame its own.
    """
    rx_block = np.asarray(rx_block, dtype=np.complex128)
    h = np.asarray(channel_freq_response, dtype=np.complex128)
    noise_variance = np.asarray(noise_variance, dtype=np.float64)
    if rx_block.shape[-1] != h.shape[-1]:
        raise ValueError("block and channel response lengths differ")
    if np.any(noise_variance < 0):
        raise ValueError("noise_variance must be >= 0")
    if not np.all(np.any(h, axis=-1)):
        raise DegenerateChannelError("channel response is zero on every bin")
    denom = np.abs(h) ** 2 + noise_variance[..., None]
    weights = np.zeros_like(h)
    nonzero = denom > 0
    weights[nonzero] = np.conj(h[nonzero]) / denom[nonzero]
    # a frame's weights serve each of its blocks
    weights = weights.reshape(
        h.shape[:-1] + (1,) * (rx_block.ndim - h.ndim) + h.shape[-1:])
    spectrum = np.fft.fft(rx_block)
    spectrum *= weights
    return np.fft.ifft(spectrum, out=spectrum)


def _regression_matrix(samples: np.ndarray, n_taps: int) -> np.ndarray:
    """Row n holds the tap-aligned window so the center tap sees sample n."""
    half = n_taps // 2
    padded = np.concatenate([
        np.zeros(half, dtype=np.complex128),
        np.asarray(samples, dtype=np.complex128),
        np.zeros(half, dtype=np.complex128),
    ])
    idx = np.arange(len(samples))[:, None] + (n_taps - 1 - np.arange(n_taps))[None, :]
    return padded[idx]


def lms_train(rx: np.ndarray, training: np.ndarray,
              cfg: EqualizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Adapt the FIR weights over the training span.

    ``rx[:len(training)]`` must be the received counterpart of ``training``.
    Returns (converged weights, per-symbol a-priori errors).
    """
    training = np.asarray(training, dtype=np.complex128)
    if len(training) < 10 * cfg.lms_taps:
        raise ValueError(
            f"training length {len(training)} below required "
            f"{10 * cfg.lms_taps} (10x taps)")
    rows = _regression_matrix(np.asarray(rx)[: len(training)], cfg.lms_taps)
    w = np.zeros(cfg.lms_taps, dtype=np.complex128)
    errors = np.empty(len(training), dtype=np.complex128)
    for n in range(len(training)):
        x = rows[n]
        e = training[n] - w @ x
        w = w + cfg.lms_step * e * np.conj(x)
        errors[n] = e
    return w, errors


def _slice_to(points: np.ndarray, value: complex) -> complex:
    return points[np.argmin(np.abs(points - value))]


def td_equalize(rx_symbols: np.ndarray, training: np.ndarray,
                cfg: EqualizerConfig,
                constellation: np.ndarray | None = None) -> np.ndarray:
    """Equalize the payload that follows the training span of ``rx_symbols``.

    In decision-directed mode a constellation must be supplied; the filter
    keeps adapting against sliced decisions.  Otherwise the converged
    weights are frozen and applied as a plain FIR.
    """
    rx_symbols = np.asarray(rx_symbols, dtype=np.complex128)
    w, _ = lms_train(rx_symbols, training, cfg)
    payload = rx_symbols[len(training):]
    if payload.size == 0:
        return np.empty(0, dtype=np.complex128)
    # windows over the full stream so payload edges see real history
    rows = _regression_matrix(rx_symbols, cfg.lms_taps)[len(training):]
    if not cfg.decision_directed:
        return rows @ w
    if constellation is None:
        raise ValueError("decision-directed mode needs a constellation")
    out = np.empty(len(payload), dtype=np.complex128)
    for n in range(len(payload)):
        y = w @ rows[n]
        out[n] = y
        e = _slice_to(constellation, y) - y
        w = w + cfg.lms_step * e * np.conj(rows[n])
    return out
