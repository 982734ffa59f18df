"""Traced mode: per-layer self time measured from the benchmark's own files.

Each layer's public functions are wrapped at the module attribute their
caller looks up (``linksim.harness.sweep.tx_chain``, not the defining
module), so no file of the program changes.  A span's self time is its
duration minus the durations of the spans it directly encloses, so self
times add up to at most the wall time of the outermost span.  Totals are
kept in memory per (parent layer, layer) edge and reported when the run
ends.  ``stable_uniform`` is deliberately not wrapped: it runs once per mux
event and its wrapper would swamp the mux numbers.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# layer -> wrapped targets, "module:attribute" or "module:Class.method"
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "harness": (
        "linksim.harness:run_sweep", "linksim.harness:run_mux_sim",
        "linksim.harness:run_ranging"),
    "harness.seeding": (
        "linksim.harness.sweep:stable_seed", "linksim.harness.muxsim:stable_seed",
        "linksim.harness.rangingrun:stable_seed"),
    "harness.output": (
        "linksim.harness:emit_csv", "linksim.harness:write_manifest"),
    "profiles.admission": (
        "linksim.harness.muxsim:check_admission",
        "linksim.harness.muxsim:admit_channels"),
    "baseband.chain.tx_self": (
        "linksim.harness.sweep:tx_chain", "linksim.harness.muxsim:tx_chain"),
    "baseband.chain.rx_self": (
        "linksim.harness.sweep:rx_chain", "linksim.harness.muxsim:rx_chain"),
    "baseband.coding.crc": ("linksim.baseband.coding:crc_bits_batch",),
    "baseband.coding.encode": ("linksim.baseband.coding:conv_encode_batch",),
    "baseband.coding.viterbi": ("linksim.baseband.coding:viterbi_decode_batch",),
    "baseband.modulation": tuple(
        f"linksim.baseband.chain:{name}" for name in
        ("spread", "modulate", "demodulate", "despread", "hard_decisions")),
    "baseband.framing": tuple(
        f"linksim.baseband.chain:{name}" for name in
        ("build_frame", "build_preamble", "known_header", "chu_sequence",
         "remove_cyclic_prefix", "extract_data_symbols")) + (
        "linksim.baseband.framing:BasebandFrame.to_waveform",),
    "baseband.sync": (
        "linksim.baseband.chain:acquire_sync", "linksim.baseband.chain:track_phase"),
    "baseband.equalizers": (
        "linksim.baseband.chain:fd_equalize", "linksim.baseband.chain:td_equalize"),
    "channel": tuple(
        f"linksim.harness.{mod}:{name}" for mod in ("sweep", "muxsim")
        for name in ("apply_channel", "estimate_frequency_response")),
    "mux": tuple(
        f"linksim.mux:Mux.{name}" for name in
        ("enqueue", "peek_next", "schedule_next", "receive")),
    "ranging.generate": (
        "linksim.harness.rangingrun:ranging_waveform",
        "linksim.harness.rangingrun:generate_echo"),
    "ranging.estimate": ("linksim.harness.rangingrun:echo_range",),
}

ROOT = "-"   # parent name of spans opened outside any other span


def _count_viterbi_rows(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["viterbi.rows"] += len(args[0])


def _read_rx_metrics(tracer: "Tracer", args: tuple, result: Any) -> None:
    metrics = getattr(result, "metrics", None)
    failed = getattr(metrics, "codewords_failed", None)
    pre_ber = getattr(metrics, "pre_decoder_ber_estimate", None)
    if failed is not None:
        tracer.counts["rx.codewords_failed"] += failed
    if pre_ber is not None:
        tracer.counts["rx.pre_ber_sum"] += pre_ber
        tracer.counts["rx.pre_ber_frames"] += 1


def _queue_high_water(tracer: "Tracer", args: tuple, result: Any) -> None:
    queues = getattr(args[0], "_queues", None)
    if queues is None:
        tracer.absent.add("mux.queue_hwm")
        return
    depth = max((len(q) for q in queues.values()), default=0)
    tracer.counts["mux.queue_hwm"] = max(tracer.counts["mux.queue_hwm"], depth)


# target -> hook reading counts from a call's arguments and result
PROBES: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "linksim.baseband.coding:viterbi_decode_batch": _count_viterbi_rows,
    "linksim.harness.sweep:rx_chain": _read_rx_metrics,
    "linksim.harness.muxsim:rx_chain": _read_rx_metrics,
    "linksim.mux:Mux.enqueue": _queue_high_water,
}


def _resolve(target: str) -> tuple[Any, str] | None:
    """(owner object, attribute name) of a target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers and accumulates self time per layer edge."""

    def __init__(self) -> None:
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.target_calls: Counter = Counter()
        self.raised: Counter = Counter()     # (target, exception name) -> count
        self.counts: Counter = Counter()     # values read by PROBES
        self.absent: set[str] = set()
        self._stack: list[list] = []         # open spans: [layer, child seconds]
        self._installed: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for layer, targets in LAYER_TARGETS.items():
            found = 0
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.absent.add(target)
                    continue
                owner, attr = resolved
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, target, original))
                self._installed.append((owner, attr, original))
                found += 1
            if not found:
                self.absent.add(layer)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, target: str, fn: Callable) -> Callable:
        stack, self_s, calls = self._stack, self.self_s, self.calls
        target_calls, probe = self.target_calls, PROBES.get(target)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[target, type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf() - t0
                stack.pop()
                self_s[parent, layer] += elapsed - frame[1]
                calls[parent, layer] += 1
                target_calls[target] += 1
                if stack:
                    stack[-1][1] += elapsed
            if probe is not None:
                probe(self, args, result)
            return result

        return span

    def layer_self_s(self, *layers: str) -> float:
        """Total self seconds of the named layers, wherever they were called."""
        return sum(t for (_, layer), t in self.self_s.items() if layer in layers)

    def layer_calls(self, layer: str) -> int:
        return sum(n for (_, name), n in self.calls.items() if name == layer)

    def table(self) -> list[str]:
        """One line per (parent, layer) edge, largest self time first."""
        lines = []
        for (parent, layer), t in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {parent:>24} > {layer:<24} calls {self.calls[parent, layer]:>8}"
                         f"  self {t * 1e3:10.1f} ms")
        return lines
