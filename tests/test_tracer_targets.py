"""Every function the benchmark's tracer wraps still exists.

``bench/tracer.py`` times each layer by wrapping module attributes by name
and reports a target it cannot find as absent instead of failing, so a
change that renames or drops one of them would silently remove a layer
from the per-layer report.  The tracer module is loaded from its file;
nothing under ``bench/`` is imported as a package or changed.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# targets the tracer names that the program no longer has: the mux
# simulation reaches the chain and the channel through the sweep engine,
# and the sweep calls rx_front_end and decode_frames instead of the one-frame
# receive call the tracer still names
KNOWN_ABSENT = {
    "linksim.harness.muxsim:tx_chain",
    "linksim.harness.muxsim:rx_chain",
    "linksim.harness.muxsim:apply_channel",
    "linksim.harness.muxsim:estimate_frequency_response",
    "linksim.harness.sweep:rx_chain",
    # the chain takes the preamble and the known header from FrameConfig,
    # which builds them once per config, and build_frame returns the
    # waveform itself
    "linksim.baseband.chain:known_header",
    "linksim.baseband.chain:build_preamble",
    "linksim.baseband.chain:chu_sequence",
    "linksim.baseband.framing:BasebandFrame.to_waveform",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    targets = {t for ts in tracer.LAYER_TARGETS.values() for t in ts}
    targets |= set(tracer.PROBES)
    assert len(targets) > 40
    missing = {t for t in targets if tracer._resolve(t) is None}
    assert missing <= KNOWN_ABSENT
