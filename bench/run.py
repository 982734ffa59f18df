"""linksim benchmark: host throughput of one caller on four workloads.

    python3 bench/run.py --workload coded-harsh --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
load model is a closed loop of one caller in one process and one thread
(``threads=1``, no pool): each trial starts after the previous one ends.

A run first checks the workload at its recorded seed against the CSV
digest in ``bench/digests.json``, then repeats one round (a fixed number of
trials, see ``workloads/``) at ``--seed`` for ``--seconds``; every round must
write the same CSV bytes.  A trial that raises, or belongs to a round whose
CSV differs, counts as failed; a digest mismatch fails every trial of the
run.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``trials_per_s`` (median over rounds), ``setup_s`` (median over fresh
processes, from interpreter start through import, config parsing and one
warm-up trial that fills lazy caches) and ``peak_rss_mb``.

``trials_per_s`` is scaled to a reference host speed.  On a shared 2-vCPU
Intel Xeon host the same round ran up to 1.6 times slower from one second
to the next, in spells that no run length averages out.  So a fixed reference
kernel (numpy and interpreter work, no linksim code) is timed before and
after every round, and a round's throughput is multiplied by (mean kernel
time around it) / ``REFERENCE_KERNEL_S``.  The unscaled throughput is
printed too.  Set-up time did not follow the kernel's swings (process
start and imports dominate it), so ``setup_s`` is not scaled.

``--trace 1`` spends a third of the time on untraced rounds and the rest on
traced ones and reports the per-layer metrics of ``tracer.py``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workload import (REPO_ROOT, SRC_DIR, WORKLOADS, Workload,  # noqa: E402
                      count_trials, digest, load_workload, recorded_digest,
                      run_entry, write_outputs)

SETUP_PROBES = 7
UNTRACED_SHARE = 1 / 3        # of a traced run, spent on untraced rounds
PROBE_TIMEOUT_S = 60

END_TO_END = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "profiles.admission.ms": "ms",
    "baseband.coding.share": "ratio",
    "baseband.coding.crc.ms_per_trial": "ms/trial",
    "baseband.coding.crc.calls_per_trial": "calls/trial",
    "baseband.coding.encode.ms_per_trial": "ms/trial",
    "baseband.coding.viterbi.ms_per_trial": "ms/trial",
    "baseband.coding.viterbi.calls_per_trial": "calls/trial",
    "baseband.coding.viterbi.rows_per_call": "rows/call",
    "baseband.coding.crc_fail_share": "ratio",
    "baseband.modulation.ms_per_trial": "ms/trial",
    "baseband.framing.ms_per_trial": "ms/trial",
    "baseband.sync.ms_per_trial": "ms/trial",
    "baseband.sync.miss_share": "ratio",
    "baseband.equalizers.ms_per_trial": "ms/trial",
    "baseband.chain.tx_self.ms_per_trial": "ms/trial",
    "baseband.chain.rx_self.ms_per_trial": "ms/trial",
    "baseband.chain.pre_decoder_ber": "ratio",
    "channel.ms_per_trial": "ms/trial",
    "mux.us_per_packet": "us/packet",
    "mux.duplicate_share": "ratio",
    "mux.corrupt_share": "ratio",
    "mux.deadline_misses": "count",
    "mux.queue_hwm": "packets",
    "ranging.generate.ms_per_trial": "ms/trial",
    "ranging.estimate.ms_per_trial": "ms/trial",
    "ranging.estimate.share": "ratio",
    "ranging.no_target_share": "ratio",
    "harness.self.ms_per_trial": "ms/trial",
    "harness.seeding.ms_per_trial": "ms/trial",
    "harness.output.ms": "ms",
    "trace.wall_ms_per_trial": "ms/trial",
    "trace.self_sum_share": "ratio",
    "trace.overhead_share": "ratio",
}

CODING = ("baseband.coding.crc", "baseband.coding.encode", "baseband.coding.viterbi")

#: median reference_kernel() time on the host that recorded the baseline
#: (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6)
REFERENCE_KERNEL_S = 0.020


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work, small-array numpy
    calls, 256-point FFTs, a direct correlation and streaming array ops,
    the kinds of work the four workloads spend their time on."""
    start = time.perf_counter()
    x = 0x1234
    for _ in range(10000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    rng = np.random.default_rng(1)
    small = rng.standard_normal((1, 64))
    idx = np.arange(64)[::-1].copy()
    for _ in range(1000):
        cand = small[:, idx] + 0.5
        small = np.where(cand > small, cand, small) * 0.999
    a = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    for _ in range(100):
        b = np.fft.ifft(np.fft.fft(a) * a)
        a = b / np.abs(b).max()
    w = rng.standard_normal(3072) + 1j * rng.standard_normal(3072)
    np.correlate(w, w, mode="full")
    big = rng.standard_normal(200_000)
    for _ in range(5):
        big = big * 0.5 + 1.0
    return time.perf_counter() - start


@dataclass
class Round:
    wall_s: float
    trials: int
    rows: list[dict]
    kernel_s: float = REFERENCE_KERNEL_S   # reference kernel time around it

    @property
    def scaled_wall_s(self) -> float:
        """Wall time on a host as fast as the reference host."""
        return self.wall_s * REFERENCE_KERNEL_S / self.kernel_s

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.scaled_wall_s


class Run:
    """Rounds of one workload in this process, with their failure tally."""

    def __init__(self, harness, workload: Workload, out_dir: Path):
        self.harness = harness
        self.workload = workload
        self.csv_path = out_dir / "result.csv"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.expected_csv: bytes | None = None   # first round at --seed
        self.round_trials = 1                    # charged to a round that raised

    def parse(self, data: dict):
        return self.harness.parse_config(data, self.workload.scenario)

    def round(self, cfg) -> Round | None:
        """Run one round and check its CSV; None if it raised."""
        start = time.perf_counter()
        try:
            result = run_entry(self.harness, cfg)
            rows, fields = result.csv_rows()
        except Exception as exc:   # a harness failure is a counted outcome
            self.attempted += self.round_trials
            self.failed += self.round_trials
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        trials = count_trials(self.workload.scenario, rows)
        self.round_trials = trials
        self.attempted += trials
        csv = write_outputs(self.harness, cfg, rows, fields, self.csv_path, wall)
        if self.expected_csv is None:
            self.expected_csv = csv
        elif csv != self.expected_csv:
            self.failed += trials
            self.errors.append("round CSV differs from the first round at this seed")
        return Round(wall, trials, rows)

    def gate(self) -> bool:
        """Compare the round CSV at the recorded seed with its digest."""
        seed, expected = recorded_digest(self.workload.name)
        cfg = self.parse(self.workload.round_config(seed))
        if self.round(cfg) is None:
            return False
        got = digest(self.csv_path.read_bytes())
        self.expected_csv = None
        if got != expected:
            self.errors.append(f"digest {got} != recorded {expected} at seed {seed}")
        print(f"gate         {'digest ok' if got == expected else 'DIGEST MISMATCH'}"
              f" (seed {seed}, sha256 {got[:16]})")
        return got == expected

    def rounds_for(self, cfg, seconds: float) -> list[Round]:
        """Repeat the round until ``seconds`` have passed, timing the
        reference kernel between rounds; successful rounds only."""
        done = []
        deadline = time.perf_counter() + seconds
        before = reference_kernel()
        while time.perf_counter() < deadline:
            out = self.round(cfg)
            after = reference_kernel()
            if out is not None:
                out.kernel_s = (before + after) / 2
                done.append(out)
            before = after
        return done


def median_and_tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered) * 1e3:.1f} ms over {n} rounds"
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        text += f", p{pct} {ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)] * 1e3:.1f} ms"
    return text


def measure_setup(workload: Workload, seed: int) -> tuple[list[float], int]:
    """Wall time of fresh processes that set up and run one warm-up trial."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    times, failed = [], 0
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failed += 1
            print(proc.stderr.strip().splitlines()[-1:] or ["setup probe failed"],
                  file=sys.stderr)
    return times, failed


def setup_probe(workload: Workload, seed: int) -> int:
    """Body of one set-up process: import, parse, one warm-up trial."""
    harness = import_harness()
    cfg = harness.parse_config(workload.warmup_config(seed), workload.scenario)
    run_entry(harness, cfg).csv_rows()
    return 0


def import_harness():
    sys.path.insert(0, str(SRC_DIR))
    import linksim.harness as harness
    if not Path(harness.__file__).resolve().is_relative_to(SRC_DIR):
        raise ImportError(f"linksim imported from {harness.__file__}, not {SRC_DIR}")
    return harness


def layer_metrics(tracer: Tracer, traced: list[Round],
                  untraced: list[Round]) -> dict[str, float]:
    trials = sum(r.trials for r in traced)
    rounds = len(traced)
    wall = sum(r.wall_s for r in traced)
    rows = [row for r in traced for row in r.rows]

    def ms_per_trial(*layers: str) -> float:
        return 1e3 * tracer.layer_self_s(*layers) / trials

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = tracer.target_calls
    viterbi_calls = tracer.layer_calls("baseband.coding.viterbi")
    viterbi_rows = tracer.counts["viterbi.rows"]
    copies = sum(int(r.get("delivered", 0)) + int(r.get("duplicate_drops", 0)) +
                 int(r.get("corrupt_drops", 0)) for r in rows)
    enqueued = sum(int(r.get("enqueued", 0)) for r in rows)
    acquire = "linksim.baseband.chain:acquire_sync"
    echo = "linksim.harness.rangingrun:echo_range"
    inner = sum(t for (_, layer), t in tracer.self_s.items() if layer != "harness.output")
    return {
        "profiles.admission.ms": 1e3 * tracer.layer_self_s("profiles.admission") / rounds,
        "baseband.coding.share": tracer.layer_self_s(*CODING) / wall,
        "baseband.coding.crc.ms_per_trial": ms_per_trial("baseband.coding.crc"),
        "baseband.coding.crc.calls_per_trial": tracer.layer_calls("baseband.coding.crc") / trials,
        "baseband.coding.encode.ms_per_trial": ms_per_trial("baseband.coding.encode"),
        "baseband.coding.viterbi.ms_per_trial": ms_per_trial("baseband.coding.viterbi"),
        "baseband.coding.viterbi.calls_per_trial": viterbi_calls / trials,
        "baseband.coding.viterbi.rows_per_call": ratio(viterbi_rows, viterbi_calls),
        "baseband.coding.crc_fail_share": ratio(tracer.counts["rx.codewords_failed"], viterbi_rows),
        "baseband.modulation.ms_per_trial": ms_per_trial("baseband.modulation"),
        "baseband.framing.ms_per_trial": ms_per_trial("baseband.framing"),
        "baseband.sync.ms_per_trial": ms_per_trial("baseband.sync"),
        "baseband.sync.miss_share": ratio(tracer.raised[acquire, "SyncError"], calls[acquire]),
        "baseband.equalizers.ms_per_trial": ms_per_trial("baseband.equalizers"),
        "baseband.chain.tx_self.ms_per_trial": ms_per_trial("baseband.chain.tx_self"),
        "baseband.chain.rx_self.ms_per_trial": ms_per_trial("baseband.chain.rx_self"),
        "baseband.chain.pre_decoder_ber": ratio(tracer.counts["rx.pre_ber_sum"],
                                                tracer.counts["rx.pre_ber_frames"]),
        "channel.ms_per_trial": ms_per_trial("channel"),
        "mux.us_per_packet": ratio(1e6 * tracer.layer_self_s("mux"), enqueued),
        "mux.duplicate_share": ratio(sum(int(r.get("duplicate_drops", 0)) for r in rows), copies),
        "mux.corrupt_share": ratio(sum(int(r.get("corrupt_drops", 0)) for r in rows), copies),
        "mux.deadline_misses": sum(int(r.get("deadline_misses", 0)) for r in rows) / rounds,
        "mux.queue_hwm": tracer.counts["mux.queue_hwm"],
        "ranging.generate.ms_per_trial": ms_per_trial("ranging.generate"),
        "ranging.estimate.ms_per_trial": ms_per_trial("ranging.estimate"),
        "ranging.estimate.share": tracer.layer_self_s("ranging.estimate") / wall,
        "ranging.no_target_share": ratio(tracer.raised[echo, "NoTargetError"], calls[echo]),
        "harness.self.ms_per_trial": ms_per_trial("harness"),
        "harness.seeding.ms_per_trial": ms_per_trial("harness.seeding"),
        "harness.output.ms": 1e3 * tracer.layer_self_s("harness.output") / rounds,
        "trace.wall_ms_per_trial": 1e3 * wall / trials,
        "trace.self_sum_share": inner / wall,
        "trace.overhead_share": (statistics.median(r.scaled_wall_s for r in traced) /
                                 statistics.median(r.scaled_wall_s for r in untraced) - 1.0),
    }


def measure(run: Run, args: argparse.Namespace) -> dict[str, float]:
    """Timed rounds at ``--seed``; the metrics of the chosen mode."""
    cfg = run.parse(run.workload.round_config(args.seed))
    if not args.trace:
        done = run.rounds_for(cfg, args.seconds)
        if not done:
            return {}
        print(f"rounds       {median_and_tail([r.wall_s for r in done])}")
        print(f"unscaled     {statistics.median(r.trials / r.wall_s for r in done):.6g} trials/s,"
              f" reference kernel {statistics.median(r.kernel_s for r in done) * 1e3:.1f} ms"
              f" (reference {REFERENCE_KERNEL_S * 1e3:.1f} ms)")
        return {
            "trials_per_s": statistics.median(r.trials_per_s for r in done),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    untraced = run.rounds_for(cfg, args.seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.rounds_for(cfg, args.seconds * (1 - UNTRACED_SHARE))
    finally:
        tracer.uninstall()
    if not (untraced and traced):
        return {}
    print(f"untraced     {median_and_tail([r.wall_s for r in untraced])}")
    print(f"traced       {median_and_tail([r.wall_s for r in traced])}")
    print("spans (parent > layer), self time over all traced rounds:")
    print("\n".join(tracer.table()))
    if tracer.absent:
        print(f"absent       {', '.join(sorted(tracer.absent))}")
    return layer_metrics(tracer, traced, untraced)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "linksim" / "__init__.py").is_file():
        print(f"no linksim sources under {SRC_DIR}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    if args.setup_probe:
        return setup_probe(workload, args.seed)

    print(f"workload     {workload.name}  seed {args.seed}  trace {args.trace}")
    reference_kernel()   # first call pays numpy's one-time costs
    setup_times, setup_failed = ([], 0) if args.trace else measure_setup(workload, args.seed)
    harness = import_harness()
    out_dir = REPO_ROOT / ".bench_out" / f"{workload.name}-{time.time_ns()}"
    out_dir.mkdir(parents=True)
    try:
        run = Run(harness, workload, out_dir)
        gate_ok = run.gate()
        values = measure(run, args)
    finally:
        shutil.rmtree(out_dir)
        if not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()

    attempted = run.attempted + len(setup_times)
    failed = attempted if not gate_ok else run.failed + setup_failed
    if setup_times:
        values["setup_s"] = statistics.median(setup_times)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"trials       attempted {attempted}  failed {failed}")
    for error in dict.fromkeys(run.errors):
        print(f"error        {error}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
