"""Single-carrier baseband transceivers (TD-LMS and FD-MMSE receive chains)."""

from .chain import (ChainConfig, ChannelKnowledge, DecodedFrames, decode_frames,
                    rx_front_end, tx_chain)
from .coding import CodecConfig, decode, encode
from .equalizers import (EqualizerConfig, EqualizerVariant, fd_equalize,
                         lms_train, td_equalize)
from .framing import (FrameConfig, add_cyclic_prefix, build_frame,
                      build_preamble, chu_sequence, remove_cyclic_prefix)
from .modulation import (ModulationScheme, SpreadingConfig, demodulate,
                         despread, hard_decisions, modulate, papr_db, spread)
from .sync import SyncState, acquire_sync, track_phase, wrap_phase

__all__ = [
    "ChainConfig", "ChannelKnowledge", "CodecConfig",
    "DecodedFrames", "EqualizerConfig", "EqualizerVariant", "FrameConfig",
    "ModulationScheme", "SpreadingConfig", "SyncState", "acquire_sync",
    "add_cyclic_prefix", "build_frame", "build_preamble", "chu_sequence",
    "decode", "decode_frames", "demodulate", "despread", "encode",
    "fd_equalize", "hard_decisions", "lms_train", "modulate", "papr_db",
    "remove_cyclic_prefix", "rx_front_end", "spread", "td_equalize",
    "track_phase", "tx_chain", "wrap_phase",
]
