"""Every function the benchmark's tracer wraps still exists and is called.

``bench/tracer.py`` times each layer by wrapping module attributes by name
and reports a target it cannot find as absent instead of failing, so a
change that renames or drops one of them would silently remove a layer
from the per-layer report; a change that stops calling one through the
attribute the tracer wraps would leave the layer empty.  The tracer and
the benchmark's entry points are loaded from their files; nothing under
``bench/`` is imported as a package or changed.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import linksim.harness
from linksim.harness import parse_config

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"

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


def _load_bench(name="tracer"):
    """``bench/<name>.py`` as the module ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_bench()
    targets = {t for ts in tracer.LAYER_TARGETS.values() for t in ts}
    targets |= set(tracer.PROBES)
    assert len(targets) > 40
    missing = {t for t in targets if tracer._resolve(t) is None}
    assert missing <= KNOWN_ABSENT


LINK = ("harness", "harness.seeding", "baseband.chain.tx_self",
        "baseband.modulation", "baseband.framing", "baseband.sync",
        "baseband.equalizers", "channel")
CODING = ("baseband.coding.crc", "baseband.coding.encode",
          "baseband.coding.viterbi")
# tiny runs: a config, the section cut to 2 trials and the layers the run
# must reach (baseband.chain.rx_self names only targets the program no
# longer has)
REACH = {
    "per-sweep": ("configs/per_sweep.json", "sweep", LINK + CODING),
    "ber-sweep": ("configs/ber_sweep.json", "sweep", LINK),
    "mux-baseband": ("tests/golden/mux_baseband.json", None,
                     LINK + CODING + ("mux", "profiles.admission")),
    "ranging": ("configs/ranging.json", "ranging",
                ("harness", "harness.seeding", "ranging.generate",
                 "ranging.estimate")),
}


@pytest.mark.parametrize("name", REACH)
def test_every_traced_layer_records_a_call(name):
    config, section, layers = REACH[name]
    data = json.loads((REPO / config).read_text())
    if section is not None:
        data[section]["trials"] = 2
    cfg = parse_config(data, data["scenario"])
    run_entry = _load_bench("workload").run_entry
    tracer = _load_bench().Tracer()
    tracer.install()
    try:
        run_entry(linksim.harness, cfg)
    finally:
        tracer.uninstall()
    assert [layer for layer in layers if not tracer.layer_calls(layer)] == []
