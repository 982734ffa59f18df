"""End-to-end transmit and receive chains, a group of frames at a time.

Every stage puts the frame axis first and gives each row what that frame
alone gets, bit for bit.  No stage pads, stacks or flattens a group-sized
copy on the way: the mapper writes each symbol once, the framer each
waveform sample, and the demapper each soft chip, read straight from the
data slots of the equalized blocks.

Transmit (``tx_chain``, a ``(frames, payload_bits)`` matrix, returns one
waveform per row): payload bits -> ``coding.encode`` (codewords of info
bits + CRC, convolutionally encoded) -> spreading -> BPSK/QPSK mapping
(into one complex symbol matrix) -> ``framing.build_frame``, which writes
the symbols, then the filler, straight into the data slots of the
waveform.  Uncoded operation (codec=None) maps payload bits straight to
chips.

Receive, in two steps.  The front end (``rx_front_end``) takes a group of
received waveforms as one ``(frames, samples)`` matrix and alone decides
where a frame may start: at every offset where the whole frame fits, up to
``timing_search`` when set.  It acquires every preamble in one
``acquire_sync`` call (timing / CFO / phase), corrects, estimates each
frame's channel (genie response handed in, or least squares from the pilot
block), cuts each frame at its offset and derotates it in one pass,
equalizes the payload blocks laid out by ``FrameConfig`` (FD-MMSE reads
them as a strided view of the frames; the sequential TD-LMS recursion runs
row by row) and phase-tracks them on the pilots in one call each, then
demaps the data from views of the blocks' data slots
(``framing.extract_data_symbols``) into the soft matrix, and despreads.  A
lost frame is an outcome, never an exception: one whose preamble misses
the sync threshold, whose channel response is zero on every bin, or whose
TD-LMS equalizer diverges to non-finite samples, is masked out of the
result and marked in the returned mask and ``SyncState``.  The decode step
(``decode_frames``) takes the soft bits of any number of frames as one
matrix and hands them to ``coding.decode``, which decodes every codeword
of the batch at once; uncoded frames are sliced.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import CapacityError
from . import coding
from .coding import CodecConfig
from .equalizers import EqualizerConfig, EqualizerVariant, fd_equalize, td_equalize
from .framing import (FrameConfig, build_frame, extract_data_symbols,
                      remove_cyclic_prefix)
from .modulation import (ModulationScheme, SpreadingConfig,
                         constellation_points, demodulate, despread,
                         hard_decisions, modulate, spread)
from .sync import (DEFAULT_SYNC_THRESHOLD, SyncState, acquire_sync,
                   track_phase)


def _coded_bits(payload_bits: int, codec: CodecConfig | None) -> int:
    if codec is None:
        return payload_bits
    return codec.n_codewords(payload_bits) * codec.coded_bits_per_codeword


@dataclass(frozen=True)
class ChainConfig:
    payload_bits: int
    codec: CodecConfig | None = field(default_factory=CodecConfig)
    modulation: ModulationScheme = ModulationScheme.BPSK
    spreading: SpreadingConfig = field(default_factory=SpreadingConfig)
    frame: FrameConfig = field(default_factory=FrameConfig)
    equalizer: EqualizerConfig = field(default_factory=EqualizerConfig)
    # receiver behavior
    correct_cfo: bool = True
    track_pilot_phase: bool = True
    channel_estimator: str = "genie"      # "genie" | "pilot-ls"
    timing_search: int | None = None
    sync_threshold: float = DEFAULT_SYNC_THRESHOLD

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise ValueError("payload_bits must be >= 1")
        if self.channel_estimator not in ("genie", "pilot-ls"):
            raise ValueError("channel_estimator must be 'genie' or 'pilot-ls'")
        if self.timing_search is not None and self.timing_search < 0:
            raise ValueError("timing_search must be >= 0")
        # the LMS filter trains on the frame header (lms_train's 10x rule)
        taps = self.equalizer.lms_taps
        if (self.equalizer.variant is EqualizerVariant.TIME_DOMAIN_LMS
                and self.frame.header_len < 10 * taps):
            raise ValueError(
                f"equalizer lms_taps {taps} needs a {10 * taps}-symbol training "
                f"header, above the frame's {self.frame.header_len}")
        self.required_symbols()   # validates capacity

    # -- derived geometry -------------------------------------------------
    def n_codewords(self) -> int:
        return 0 if self.codec is None else self.codec.n_codewords(self.payload_bits)

    def coded_bits_total(self) -> int:
        return _coded_bits(self.payload_bits, self.codec)

    def chip_count(self) -> int:
        return self.coded_bits_total() * self.spreading.sf

    def required_symbols(self) -> int:
        bps = self.modulation.bits_per_symbol
        symbols = -(-self.chip_count() // bps)
        if symbols > self.frame.capacity_symbols:
            raise CapacityError(
                f"payload needs {symbols} data symbols but the frame provides "
                f"{self.frame.capacity_symbols}")
        return symbols

    @classmethod
    def for_payload(cls, payload_bits: int, **kwargs) -> "ChainConfig":
        """Build a config whose frame is auto-sized to fit the payload."""
        frame = kwargs.pop("frame", FrameConfig())
        codec = kwargs["codec"] if "codec" in kwargs else CodecConfig()
        sf = kwargs.get("spreading", SpreadingConfig()).sf
        bps = kwargs.get("modulation", ModulationScheme.BPSK).bits_per_symbol
        symbols = -(-_coded_bits(payload_bits, codec) * sf // bps)
        blocks = max(1, -(-symbols // frame.data_symbols_per_block))
        return cls(payload_bits=payload_bits,
                   frame=replace(frame, n_payload_blocks=blocks), **kwargs)


@dataclass(frozen=True)
class ChannelKnowledge:
    """What the receiver is told about the channel (genie mode).

    One object serves every frame that shares the channel's taps and SNR
    (a sweep point, a mux run), so what the receiver derives from it is
    computed once per object; ``freq_response`` must not be written to
    after the first frame.
    """

    freq_response: np.ndarray | None = None   # fft_size bins
    noise_variance: float = 0.0

    @cached_property
    def timing_referenced_response(self) -> np.ndarray:
        """``freq_response`` re-referenced to the delay of its strongest tap.

        Preamble correlation locks onto the strongest tap, so the genie
        response must be re-referenced to that delay (derived from the
        response itself; tx-side padding does not shift the channel).
        """
        h_time = np.fft.ifft(self.freq_response)
        d0 = int(np.argmax(np.abs(h_time)))
        k = np.arange(len(h_time))
        response = self.freq_response * np.exp(2j * np.pi * k * d0 / len(h_time))
        response.setflags(write=False)
        return response


def tx_chain(info_bits: np.ndarray, cfg: ChainConfig) -> np.ndarray:
    """Build the transmit waveform of each row of payload bits:
    ``(frames, payload_bits)`` gives ``(frames, frame_len)``, and one row of
    bits one waveform."""
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.shape[-1] != cfg.payload_bits:
        raise ValueError(
            f"got {info_bits.shape[-1]} payload bits, config says {cfg.payload_bits}")
    rows = info_bits.reshape(-1, cfg.payload_bits)
    coded = rows if cfg.codec is None else coding.encode(rows, cfg.codec)
    chips = spread(coded, cfg.spreading)
    bps = cfg.modulation.bits_per_symbol
    if chips.shape[-1] % bps:
        pad = np.zeros((len(chips), bps - chips.shape[-1] % bps), dtype=np.uint8)
        chips = np.concatenate([chips, pad], axis=-1)
    waveform = build_frame(modulate(chips, cfg.modulation), cfg.frame)
    return waveform.reshape(info_bits.shape[:-1] + waveform.shape[-1:])


def rx_front_end(waveforms: np.ndarray, cfg: ChainConfig,
                 channel: Sequence[ChannelKnowledge | None]
                 ) -> tuple[np.ndarray, SyncState, np.ndarray]:
    """Sync, equalize, demap and despread a group of received frames.

    The group is a ``(frames, samples)`` matrix; ``channel`` holds one
    knowledge entry per frame (None where the receiver is told nothing).
    Returns the ``cfg.coded_bits_total()`` soft bits (positive means 0) of
    each received frame, one row each, every frame's ``SyncState`` and the
    ``(frames,)`` mask of the frames received.  A lost frame is marked, not
    raised: one whose preamble misses the sync threshold has
    ``timing_offset`` -1, and one whose channel response is zero on every
    bin, or whose TD-LMS equalizer diverges, is locked but not received.
    ``decode_frames`` takes it from there.
    """
    rx = np.asarray(waveforms, dtype=np.complex128)
    if rx.ndim != 2:
        raise ValueError("rx_front_end takes a group of frames: a (frames, "
                         "samples) matrix")
    if len(channel) != len(rx):
        raise ValueError(f"{len(channel)} channel knowledge entries for "
                         f"{len(rx)} frames")
    fcfg = cfg.frame
    fd = cfg.equalizer.variant is EqualizerVariant.FREQUENCY_DOMAIN_MMSE
    if fd and cfg.channel_estimator == "genie" and any(
            k is None or k.freq_response is None for k in channel):
        raise ValueError("genie estimator needs a ChannelKnowledge response")
    # a frame may start at any offset where it fits whole, up to timing_search
    last_start = rx.shape[1] - fcfg.frame_len
    if last_start < 0:
        raise ValueError(f"the {fcfg.frame_len}-sample frame does not fit in "
                         f"a {rx.shape[1]}-sample waveform")
    if cfg.timing_search is not None:
        last_start = min(last_start, cfg.timing_search)
    sync = acquire_sync(rx, fcfg.preamble, fcfg.header, last_start,
                        threshold=cfg.sync_threshold,
                        estimate_cfo=cfg.correct_cfo)
    received = sync.timing_offset >= 0
    kept = np.flatnonzero(received)
    if not len(kept):
        return np.empty((0, cfg.coded_bits_total())), sync, received

    # the frames found, each cut at its own offset and derotated in one pass
    cfo, phase = sync.cfo_estimate[kept], sync.phase[kept]
    if np.any(cfo != 0.0):
        n = np.arange(fcfg.frame_len)
        rotation = np.exp(-1j * (cfo[:, None] * n + phase[:, None]))
    else:
        # the per-sample form above in one scalar per frame, bit for bit
        # (acquire_sync wraps its phase with wrap_phase, never to -0.0)
        rotation = np.exp(-1j * phase)[:, None]
    seg = np.empty((len(kept), fcfg.frame_len), dtype=np.complex128)
    for row, (r, o) in enumerate(zip(kept.tolist(),
                                     sync.timing_offset[kept].tolist())):
        np.multiply(rx[r, o: o + fcfg.frame_len], rotation[row], out=seg[row])
    del rotation

    hdr_len = fcfg.header_len
    blocks = (fcfg.n_payload_blocks, fcfg.block_len)
    if fd:
        if cfg.channel_estimator == "pilot-ls":
            freq_response = np.fft.fft(seg[:, hdr_len - fcfg.fft_size: hdr_len])
            freq_response /= fcfg.pilot_spectrum
        else:
            freq_response = np.array(
                [channel[r].timing_referenced_response for r in kept],
                dtype=np.complex128)
        usable = np.any(freq_response, axis=-1)
        if not usable.all():
            received[kept[~usable]] = False
            kept, seg, freq_response = kept[usable], seg[usable], freq_response[usable]
        noise_var = cfg.equalizer.noise_variance_hint
        if noise_var is None:
            noise_var = np.array([0.0 if channel[r] is None else
                                  channel[r].noise_variance for r in kept])
        # the CP-free blocks as a strided view of the frames: the FFT reads
        # them in place
        payload = seg[:, hdr_len:].reshape(-1, *blocks)[..., fcfg.cp_len:]
        equalized = fd_equalize(payload, freq_response, noise_var)
        del payload
    else:
        constellation = (constellation_points(cfg.modulation)
                         if cfg.equalizer.decision_directed else None)
        # the LMS recursion runs sample by sample, so frame by frame too; a
        # step too large for its frame diverges, and the frame is lost
        with np.errstate(over="ignore", invalid="ignore"):
            stream = np.array([td_equalize(row, fcfg.header, cfg.equalizer,
                                           constellation) for row in seg],
                              dtype=np.complex128)
        finite = np.isfinite(stream).all(axis=-1)
        received[kept[~finite]] = False
        equalized = remove_cyclic_prefix(stream[finite].reshape(-1, *blocks),
                                         fcfg.cp_len)
    del seg

    # the front end owns ``equalized`` and the soft chips, so it rotates the
    # one in place and, unspread, takes the other as its soft bits
    if cfg.track_pilot_phase and fcfg.pilots_per_block:
        track_phase(equalized, fcfg.pilot_values, fcfg.pilot_positions,
                    out=equalized)
    soft_chips = _demap(equalized, cfg)
    if cfg.spreading.sf > 1:
        soft_chips = despread(soft_chips, cfg.spreading)
    return soft_chips, sync, received


def _demap(equalized: np.ndarray, cfg: ChainConfig) -> np.ndarray:
    """The ``(frames, chip_count)`` soft chips of equalized ``(frames,
    n_payload_blocks, fft_size)`` blocks, demapped straight from their data
    slots, a view at a time, into the one matrix they fill."""
    bps = cfg.modulation.bits_per_symbol
    soft = np.empty((len(equalized), bps * cfg.required_symbols()))
    for slots, start, stop in extract_data_symbols(equalized, cfg.frame,
                                                   cfg.required_symbols()):
        # a column range of ``soft``, its row split like ``slots``: a view
        demodulate(slots, cfg.modulation, out=soft[:, bps * start: bps * stop]
                   .reshape(slots.shape[:-1] + (bps * slots.shape[-1],)))
    return soft[:, : cfg.chip_count()]


@dataclass
class DecodedFrames:
    info_bits: np.ndarray          # (frames, payload_bits)
    codewords_failed: np.ndarray   # (frames,) codewords failing their CRC
    # (frames,) re-encoded bits that differ from the sliced soft bits, the
    # channel bit errors the decoder corrected; None when uncoded
    channel_bit_errors: np.ndarray | None


def decode_frames(soft_bits: np.ndarray, cfg: ChainConfig) -> DecodedFrames:
    """Decode a (frames, coded_bits_total) matrix of front-end soft bits.

    The codewords of every frame go through one ``coding.decode`` call;
    uncoded frames are sliced.
    """
    if cfg.codec is None:
        info = hard_decisions(soft_bits)[:, : cfg.payload_bits]
        return DecodedFrames(info, np.zeros(len(info), dtype=np.int64), None)
    info, crc_ok, corrected = coding.decode(soft_bits, cfg.codec)
    return DecodedFrames(info_bits=info[:, : cfg.payload_bits],
                         codewords_failed=np.count_nonzero(~crc_ok, axis=1),
                         channel_bit_errors=corrected)
