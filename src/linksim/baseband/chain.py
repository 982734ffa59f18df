"""End-to-end transmit and receive chains.

Transmit (``tx_chain``, one frame, returns the waveform): payload bits ->
``coding.encode`` (codewords of info bits + CRC, convolutionally encoded)
-> spreading -> BPSK/QPSK mapping -> ``framing.build_frame``.  Uncoded
operation (codec=None) maps payload bits straight to chips.

Receive, in two steps.  The per-frame front end (``rx_front_end``) alone
decides where a frame may start: at every offset where the whole frame
fits, up to ``timing_search`` when set.  It acquires the preamble there
(timing / CFO / phase), corrects, estimates the channel (genie response
handed in, or least squares from the pilot block), cuts the payload into
one ``(n_payload_blocks, block_len)`` matrix laid out by ``FrameConfig``,
and equalizes it (FD-MMSE or TD-LMS), phase-tracks it on the pilots and
extracts its data in one call each, then demaps and despreads.  The decode
step (``decode_frames``) takes the soft bits of any number of frames as one
matrix and hands them to ``coding.decode``, which decodes every codeword
of the batch at once; uncoded frames are sliced.  There is no one-frame
receive call: a single frame is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..errors import CapacityError
from . import coding
from .coding import CodecConfig
from .equalizers import EqualizerConfig, EqualizerVariant, fd_equalize, td_equalize
from .framing import (FrameConfig, build_frame, extract_data_symbols,
                      remove_cyclic_prefix)
from .modulation import (ModulationScheme, SpreadingConfig, demodulate,
                         despread, hard_decisions, modulate, spread)
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
    """Build the transmit waveform for one frame of payload bits."""
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if len(info_bits) != cfg.payload_bits:
        raise ValueError(
            f"got {len(info_bits)} payload bits, config says {cfg.payload_bits}")
    coded = info_bits
    if cfg.codec is not None:
        coded = coding.encode(info_bits[None, :], cfg.codec)[0]
    chips = spread(coded, cfg.spreading)
    bps = cfg.modulation.bits_per_symbol
    if chips.size % bps:
        pad = np.zeros(bps - chips.size % bps, dtype=np.uint8)
        chips = np.concatenate([chips, pad])
    symbols = modulate(chips, cfg.modulation)
    return build_frame(symbols, cfg.frame)


def rx_front_end(waveform: np.ndarray, cfg: ChainConfig,
                 channel: ChannelKnowledge | None = None
                 ) -> tuple[np.ndarray, SyncState]:
    """Sync, equalize, demap and despread one received frame.

    Returns the ``cfg.coded_bits_total()`` soft bits (positive means 0)
    and the acquisition state; ``decode_frames`` takes it from there.
    """
    waveform = np.asarray(waveform, dtype=np.complex128)
    fcfg = cfg.frame
    # a frame may start at any offset where it fits whole, up to timing_search
    last_start = len(waveform) - fcfg.frame_len
    if cfg.timing_search is not None:
        last_start = min(last_start, cfg.timing_search)
    sync = acquire_sync(waveform, fcfg.preamble, fcfg.header, last_start,
                        threshold=cfg.sync_threshold,
                        estimate_cfo=cfg.correct_cfo)

    seg = waveform[sync.timing_offset: sync.timing_offset + fcfg.frame_len]
    if sync.cfo_estimate == 0.0:
        # the per-sample form below in one scalar, bit for bit (acquire_sync
        # wraps its phase with wrap_phase, which never returns -0.0)
        seg = seg * np.exp(-1j * sync.phase)
    else:
        n = np.arange(len(seg))
        seg = seg * np.exp(-1j * (sync.cfo_estimate * n + sync.phase))

    hdr_len = fcfg.header_len
    block_shape = (fcfg.n_payload_blocks, fcfg.block_len)
    noise_var = cfg.equalizer.noise_variance_hint
    if noise_var is None:
        noise_var = channel.noise_variance if channel is not None else 0.0

    if cfg.equalizer.variant is EqualizerVariant.FREQUENCY_DOMAIN_MMSE:
        if cfg.channel_estimator == "pilot-ls":
            pilot_rx = seg[hdr_len - fcfg.fft_size: hdr_len]
            freq_response = np.fft.fft(pilot_rx) / np.fft.fft(fcfg.pilot_block)
        elif channel is None or channel.freq_response is None:
            raise ValueError("genie estimator needs a ChannelKnowledge response")
        else:
            freq_response = channel.timing_referenced_response
        payload = seg[hdr_len:].reshape(block_shape)
        equalized = fd_equalize(remove_cyclic_prefix(payload, fcfg.cp_len),
                                freq_response, noise_var)
    else:
        constellation = None
        if cfg.equalizer.decision_directed:
            bits = np.arange(2 ** cfg.modulation.bits_per_symbol)
            table = ((bits[:, None] >> np.arange(
                cfg.modulation.bits_per_symbol)[::-1]) & 1).astype(np.uint8)
            constellation = modulate(table.reshape(-1), cfg.modulation)
        stream = td_equalize(seg, fcfg.header, cfg.equalizer, constellation)
        equalized = remove_cyclic_prefix(stream.reshape(block_shape), fcfg.cp_len)

    if cfg.track_pilot_phase and fcfg.pilots_per_block:
        equalized = track_phase(equalized, fcfg.pilot_values, fcfg.pilot_positions)
    data = extract_data_symbols(equalized, fcfg)[: cfg.required_symbols()]

    soft_chips = demodulate(data, cfg.modulation)[: cfg.chip_count()]
    return despread(soft_chips, cfg.spreading), sync


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
