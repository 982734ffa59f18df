"""Link and ranging trials on every CPU: forked workers each take a share.

``workers.imap`` draws a stream of items in rounds of up to ``cpu_count()
* ROUND_PARTS`` parts, splits each round into contiguous shares of parts,
runs the first in the calling process and each other, whole, in a forked
worker, and yields the results in order.  ``link_trials`` maps its frames
in groups of ``_chunk(cfg)`` frames, and ``run_ranging`` its trials, on
the package's one pool (the ranging split and spies are tested in
``test_harness.py::TestRanging``).
A frame's or trial's result depends only on its own seeds, so the CSV
bytes may not depend on the CPU count; a worker that dies or raises may
not change what the caller returns or raises; no worker may outlive the
process that forked it; and each benchmark workload keeps the shares and
parts it was given when the split moved into the pool.

A worker is a copy of the caller at its fork, so a test that patches what a
worker runs closes the pool before and after (``fresh_pool``).
"""
import ctypes
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env
from linksim.baseband import ChainConfig, CodecConfig
from linksim.channel import make_preset
from linksim.cli import main
from linksim.errors import ConfigError
from linksim.harness import (parse_config, rangingrun, run_mux_sim,
                             run_ranging, run_sweep, sweep, workers)
from linksim.harness.rangingrun import RangingSpec
from linksim.harness.seeding import stable_seed

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "golden"
RECEIVER = {"correct_cfo": False, "timing_search": 8}
CHAINS = {
    "coded": ChainConfig.for_payload(
        960, codec=CodecConfig(info_bits_per_codeword=512), **RECEIVER),
    "uncoded": ChainConfig.for_payload(960, codec=None, **RECEIVER),
}

needs_fork = pytest.mark.skipif(not workers.FORK, reason="no fork on this platform")


@pytest.fixture
def fresh_pool():
    """The package's pool with no workers, closed again after the test."""
    workers._POOL.close()
    yield workers._POOL
    workers._POOL.close()


class ShareSpy:
    """Records what each round's shares are given, in the caller, then
    runs them on the package's pool: patched in as the pool's ``_run``."""

    def __init__(self, pool):
        self.run = pool._run
        self.rounds = []   # the noise seeds of each group of each share

    def __call__(self, fn, shares):
        self.rounds.append([[list(seeds) for _, _, seeds, _, _ in share]
                            for share in shares])
        return self.run(fn, shares)


def _frames(cfg, n):
    """``n`` frames mixing sync losses, errored and clean frames, the noise
    seed of frame f being f."""
    harsh = make_preset("coupling-harsh")
    knowledge = sweep.genie_knowledge(cfg, replace(harsh, snr_db=2.0))
    return [(np.random.default_rng(stable_seed(8, f)).integers(
                 0, 2, cfg.payload_bits, dtype=np.uint8),
             replace(harsh, snr_db=(-10.0, 0.0, 1.0, 2.0, 20.0)[f % 5]), f,
             knowledge) for f in range(n)]


def _state(pid):
    """The /proc state letter of ``pid``, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _gone_within(pid, seconds):
    """Whether ``pid`` exits (or is a zombie) within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if _state(pid) in (None, "Z", "X"):
            return True
        time.sleep(0.01)
    return False


@needs_fork
@pytest.mark.parametrize("name", ["coded_harsh", "uncoded_los", "mux_baseband"])
def test_golden_csv_bytes_at_one_two_and_three_shares(name, tmp_path,
                                                      monkeypatch):
    # the shares floor is lowered so the small golden runs split three ways
    config = GOLDEN_DIR / f"{name}.json"
    scenario = json.loads(config.read_text())["scenario"]
    monkeypatch.setattr(sweep, "MIN_SHARE", 1)
    spy = ShareSpy(workers._POOL)
    monkeypatch.setattr(workers._POOL, "_run", spy)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "cpu_count", lambda cpus=cpus: cpus)
        spy.rounds.clear()
        out = tmp_path / f"{name}-{cpus}.csv"
        assert main([scenario, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
        assert max(len(shares) for shares in spy.rounds) == cpus


@needs_fork
@pytest.mark.parametrize("name", CHAINS)
def test_each_frame_goes_to_exactly_one_share_in_order(name, monkeypatch):
    cfg = CHAINS[name]
    chunk = sweep._chunk(cfg)
    frames = _frames(cfg, 6 * chunk + 10)
    monkeypatch.setattr(workers, "cpu_count", lambda: 3)
    monkeypatch.setattr(workers, "ROUND_PARTS", 2)
    spy = ShareSpy(workers._POOL)
    monkeypatch.setattr(workers._POOL, "_run", spy)
    errors, lost = sweep.link_trials(frames, cfg)
    groups = [group for shares in spy.rounds for share in shares
              for group in share]
    assert [f for group in groups for f in group] == list(range(len(frames)))
    # a round of three CPUs' two groups each splits three ways, two groups
    # a share; the 10 frames left, fewer than 2 * MIN_SHARE, stay in the
    # caller as one group
    assert [[len(g) for g in share] for shares in spy.rounds
            for share in shares] == [[chunk, chunk]] * 3 + [[10]]
    assert [len(shares) for shares in spy.rounds] == [3, 1]


@needs_fork
def test_a_seven_frame_call_starts_no_worker(fresh_pool, monkeypatch):
    cfg = CHAINS["uncoded"]
    monkeypatch.setattr(workers, "cpu_count", lambda: 3)
    spy = ShareSpy(fresh_pool)
    monkeypatch.setattr(fresh_pool, "_run", spy)
    sweep.link_trials(_frames(cfg, 7), cfg)
    assert spy.rounds == [[[list(range(7))]]]
    assert fresh_pool._workers == []


@needs_fork
def test_a_worker_killed_between_calls_changes_no_result(fresh_pool,
                                                         monkeypatch):
    cfg = CHAINS["uncoded"]
    frames = _frames(cfg, 40)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    expected = [r.tolist() for r in sweep.link_trials(frames, cfg)]
    [worker] = fresh_pool._workers
    os.kill(worker.pid, signal.SIGKILL)
    assert _gone_within(worker.pid, 2.0)
    # the dead worker's share runs in the caller, and the next call forks
    # a new worker
    assert [r.tolist() for r in sweep.link_trials(frames, cfg)] == expected
    assert worker.conn is None
    assert [r.tolist() for r in sweep.link_trials(frames, cfg)] == expected
    [replacement] = fresh_pool._workers
    assert replacement.pid != worker.pid


@needs_fork
def test_a_ranging_worker_killed_between_runs_changes_no_row(monkeypatch):
    # some trials find no target, so rows hold NaNs
    spec = RangingSpec(sample_rate_hz=1e9, bandwidth_hz=1e9 / 3,
                       waveform_len=301, trials=40, range_min_m=0.5,
                       range_max_m=9.0, echo_snr_db=-22.0)

    def rows():
        return np.array([astuple(r) for r in
                         rangingrun.run_ranging(spec, 5).records])

    pool = workers._POOL
    pool.close()
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    try:
        expected = rows()
        [worker] = pool._workers
        os.kill(worker.pid, signal.SIGKILL)
        assert _gone_within(worker.pid, 2.0)
        # the dead worker's share runs in the caller, and the next run
        # forks a new worker
        np.testing.assert_array_equal(rows(), expected)
        assert worker.conn is None
        np.testing.assert_array_equal(rows(), expected)
        [replacement] = pool._workers
        assert replacement.pid != worker.pid
    finally:
        pool.close()


@needs_fork
def test_an_exception_in_a_worker_is_raised_with_its_type(fresh_pool,
                                                          monkeypatch):
    # the caller's own share decodes; only the worker's raises
    cfg = CHAINS["uncoded"]
    caller = os.getpid()
    decode = sweep.decode_frames

    def decode_in_caller_only(soft_bits, *args):
        if os.getpid() != caller:
            raise ConfigError("baseband: raised in a worker")
        return decode(soft_bits, *args)

    monkeypatch.setattr(sweep, "decode_frames", decode_in_caller_only)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    frames = _frames(cfg, 40)
    with pytest.raises(ConfigError, match="raised in a worker"):
        sweep.link_trials(frames, cfg)
    # the worker answered, so it stays in step and serves the next call
    [worker] = fresh_pool._workers
    with pytest.raises(ConfigError, match="raised in a worker"):
        sweep.link_trials(frames, cfg)
    assert fresh_pool._workers == [worker]


@needs_fork
def test_a_sweep_sends_its_workers_payload_seeds_not_bits(monkeypatch):
    # a sweep's frames carry the seeds of their payloads, and the process
    # that runs a group draws its bits: a worker's share holds one seed a
    # frame, each the stable_seed(master, point, trial, 0) of its noise
    # seed's trial, and no payload matrix
    cfg = CHAINS["uncoded"]
    spec = sweep.SweepSpec(values=(4.0, 9.0), trials=40, axis="snr_db")
    seeds = {stable_seed(7, i, t, 1): stable_seed(7, i, t, 0)
             for i in range(2) for t in range(40)}
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    sent = []
    send = workers._Worker.send

    def spy(worker, fn, parts):
        sent.extend(parts)
        return send(worker, fn, parts)

    monkeypatch.setattr(workers._Worker, "send", spy)
    run_sweep(cfg, make_preset("coupling-los"), spec, 7)
    for payloads, _, noise, _, _ in sent:
        assert all(type(p) is int for p in payloads)
        assert len(payloads) == len(noise)
        assert list(payloads) == [seeds[n] for n in noise]
    assert sum(len(part[2]) for part in sent) == 40


@needs_fork
def test_a_share_holds_at_most_a_rounds_parts_a_cpu(monkeypatch):
    # parts of one item: 200 items on two CPUs go in rounds of two shares
    # of ROUND_PARTS parts
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    sent = []
    send = workers._Worker.send

    def spy(worker, fn, parts):
        sent.append(len(parts))
        return send(worker, fn, parts)

    monkeypatch.setattr(workers._Worker, "send", spy)
    try:
        assert list(workers.imap(list, zip(range(200)), 1)) == [
            [k] for k in range(200)]
    finally:
        workers._POOL.close()
    assert len(sent) == 7 and max(sent) <= workers.ROUND_PARTS


@needs_fork
def test_an_unpicklable_share_is_refused_and_the_worker_serves_on(
        fresh_pool, monkeypatch):
    # a share is pickled before it is sent, so a local lambda is refused
    # before any worker is busy, and the same worker serves the next call
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    items = list(zip(range(40)))
    expected = [[k] for k in range(40)]
    assert list(workers.imap(list, items, 1)) == expected
    [worker] = fresh_pool._workers
    # pickle refuses a local lambda with AttributeError or PicklingError,
    # by Python version
    with pytest.raises((pickle.PicklingError, AttributeError)):
        list(workers.imap(lambda k: [k], items, 1))
    assert fresh_pool._workers == [worker] and not worker.busy
    assert list(workers.imap(list, items, 1)) == expected
    assert fresh_pool._workers == [worker] and not worker.busy


@needs_fork
def test_one_worker_serves_both_engines(fresh_pool, monkeypatch):
    # the package has one pool: a sweep and then a ranging run on two CPUs
    # fork one worker between them, and it answers both
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    forked, answered = [], []
    real_fork, reply = os.fork, workers._Worker.reply

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def spy(worker):
        got = reply(worker)
        if got is not None:
            answered.append(worker.pid)
        return got

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(workers._Worker, "reply", spy)
    spec = sweep.SweepSpec(values=(4.0,), trials=16, axis="snr_db")
    run_sweep(CHAINS["uncoded"], make_preset("coupling-los"), spec, 7)
    by_sweep, answered[:] = answered[:], []
    run_ranging(RangingSpec(sample_rate_hz=1e9, bandwidth_hz=1e9 / 3,
                            waveform_len=301, trials=2, range_min_m=0.5,
                            range_max_m=9.0, echo_snr_db=10.0), 5)
    assert len(forked) == 1
    assert by_sweep == answered == forked


# the sizes of the parts of every share of every round that one round of
# each benchmark workload hands its pool, at 1, 2 and 3 CPUs, as the
# engines cut them before the split moved into ``workers.Pool``: a change
# to the split that moves any workload's work fails here
BENCH_PARTS = {
    ("coded-harsh", 1): [[[30]]],
    ("coded-harsh", 2): [[[15], [15]]],
    ("coded-harsh", 3): [[[10], [10], [10]]],
    ("uncoded-los", 1): [[[32]]] * 18 + [[[24]]],
    ("uncoded-los", 2): [[[30] * 10] * 2],
    ("uncoded-los", 3): [[[28, 29, 28, 29, 28, 29, 29]] * 3],
    ("mux-baseband", 1): [[[21]], [[10]]],
    ("mux-baseband", 2): [[[15], [16]]],
    ("mux-baseband", 3): [[[10], [10], [11]]],
    ("ranging-echo", 1): [[[25]]],
    ("ranging-echo", 2): [[[12], [13]]],
    ("ranging-echo", 3): [[[8], [8], [9]]],
}


@needs_fork
@pytest.mark.parametrize("workload, cpus", BENCH_PARTS)
def test_each_benchmark_round_keeps_its_shares_and_parts(workload, cpus,
                                                         monkeypatch):
    data = json.loads(
        (REPO / "bench" / "workloads" / f"{workload}.json").read_text())
    raw = dict(data["config"])
    for key, overrides in data["round"].items():
        raw[key] = {**raw[key], **overrides}
    cfg = parse_config(raw, data["scenario"])
    rounds = []
    pool = workers._POOL

    def spy(fn, shares, run=pool._run):
        rounds.append([[len(part[0]) for part in share] for share in shares])
        return run(fn, shares)
    monkeypatch.setattr(pool, "_run", spy)
    monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
    if cfg.scenario == "mux-sim":
        run_mux_sim(cfg.mux, cfg.master_seed)
    elif cfg.scenario == "ranging":
        run_ranging(cfg.ranging, cfg.master_seed)
    else:
        run_sweep(cfg.chain, cfg.channel, cfg.sweep, cfg.master_seed)
    assert rounds == BENCH_PARTS[workload, cpus]


def _interrupted_in(ks, owner):
    """``ks`` as a list, or an interrupt where process ``owner`` runs
    item 0."""
    if os.getpid() == owner and 0 in ks:
        raise KeyboardInterrupt
    return list(ks)


@needs_fork
def test_an_interrupt_in_the_callers_share_reaches_it(fresh_pool,
                                                      monkeypatch):
    # the interrupt leaves the worker's reply unread: whether the pool
    # keeps that worker or replaces it, the next call gets the right
    # results from idle workers, and no worker it let go is left unreaped
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    items = list(zip(range(40)))
    with pytest.raises(KeyboardInterrupt):
        list(workers.imap(_interrupted_in, items, 1, os.getpid()))
    pids = [worker.pid for worker in fresh_pool._workers]
    assert pids
    assert list(workers.imap(list, items, 1)) == [[k] for k in range(40)]
    assert fresh_pool._workers and not any(w.busy for w in fresh_pool._workers)
    for pid in set(pids) - {w.pid for w in fresh_pool._workers}:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@needs_fork
def test_threads_sharing_the_pool_each_get_their_own_results(monkeypatch):
    # four threads, each a stream of its own, on three shares a round: a
    # run that read another's reply would return the wrong frames' results
    cfg = CHAINS["uncoded"]
    frames = _frames(cfg, 80)
    streams = [frames[k::4] + frames[:k] for k in range(4)]
    expected = [[r.tolist() for r in sweep.link_trials(s, cfg)] for s in streams]
    monkeypatch.setattr(workers, "cpu_count", lambda: 3)
    monkeypatch.setattr(sweep, "MIN_SHARE", 2)
    got = [None] * len(streams)

    def run(k):
        got[k] = [[r.tolist() for r in sweep.link_trials(streams[k], cfg)]
                  for _ in range(3)]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got == [[e] * 3 for e in expected]


# one fresh interpreter: it frees a 1.6 MB array, as the benchmark's
# reference kernel does, then runs four rounds of a mux-baseband-like
# call on two CPUs and prints its worker's minor faults and VmHWM (kB)
# after each round
KEEP_HEAP = """
import json, sys
from pathlib import Path
import numpy as np
from linksim.harness import parse_config, run_mux_sim, workers

def stat(pid):
    minflt = int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[7])
    status = Path(f"/proc/{pid}/status").read_text()
    return minflt, int(status.split("VmHWM:")[1].split()[0])

np.random.default_rng(1).standard_normal(200_000)
workers.cpu_count = lambda: 2
data = json.loads(Path(sys.argv[1]).read_text())
data["mux"]["duration_s"] = 0.0003   # 31 copies, a share of 15 or 16
cfg = parse_config(data, data["scenario"])
after = []
for _ in range(4):
    run_mux_sim(cfg.mux, cfg.master_seed)
    [worker] = workers._POOL._workers
    after.append(stat(worker.pid))
print(json.dumps(after))
"""

needs_mallopt = pytest.mark.skipif(
    not (workers.FORK and Path("/proc/self/stat").exists()
         and hasattr(ctypes.CDLL(None), "mallopt")),
    reason="needs fork, /proc and the C library's mallopt")


@needs_mallopt
def test_a_worker_keeps_its_heap_between_shares():
    # with the C library's default policy the worker gave its share's
    # arrays back at the end of most shares and faulted about 700-940
    # pages back in at the next
    out = subprocess.run(
        [sys.executable, "-c", KEEP_HEAP, str(GOLDEN_DIR / "mux_baseband.json")],
        capture_output=True, text=True, env=cli_env(), timeout=120, check=True)
    (faults1, _), (_, hwm2), _, (faults4, hwm4) = json.loads(out.stdout)
    assert faults4 - faults1 < 3 * 50   # rounds 2-4, under 50 a round
    assert hwm4 - hwm2 <= 1024


def _children(pid):
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except FileNotFoundError:
        return []
    return [int(child) for child in text.split()]


needs_children = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<pid>/children")


def _no_worker_outlives(scenario, data, ending, tmp_path):
    """Run ``data`` as a ``sim <scenario>`` subprocess, for ``ending``
    "sigkill" SIGKILL it once its workers are forked, and check that every
    worker it had is gone within 2 s."""
    config = tmp_path / f"{scenario}.json"
    config.write_text(json.dumps(data))
    proc = subprocess.Popen(
        [sys.executable, "-m", "linksim", scenario, "--config", str(config),
         "--out", str(tmp_path / "o.csv")],
        cwd=tmp_path, env=cli_env(), stderr=subprocess.PIPE, text=True)
    try:
        # with one CPU no worker is forked, so there is none to wait for
        found, deadline = [], time.monotonic() + 60
        while workers.cpu_count() > 1 and not (found := _children(proc.pid)) \
                and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        if ending == "sigkill":
            proc.kill()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == (-signal.SIGKILL if ending == "sigkill"
                                   else 0), stderr
    finally:
        proc.kill()
        proc.wait()
    if workers.cpu_count() > 1:
        assert found
    for worker in found:
        assert _gone_within(worker, 2.0)


@needs_fork
@needs_children
@pytest.mark.parametrize("ending", ["sigkill", "exit"])
def test_no_worker_outlives_a_sim_run(ending, tmp_path):
    # per_sweep.json sends 300 coded frames; 6000 take seconds, long enough
    # to kill the run while its worker is alive
    data = json.loads((REPO / "configs" / "per_sweep.json").read_text())
    if ending == "sigkill":
        data["sweep"]["trials"] = 2000
    _no_worker_outlives("per-sweep", data, ending, tmp_path)


@needs_fork
@needs_children
@pytest.mark.parametrize("ending", ["sigkill", "exit"])
def test_no_worker_outlives_a_sim_ranging_run(ending, tmp_path):
    # ranging.json runs 50 trials; 4000 take seconds
    data = json.loads((REPO / "configs" / "ranging.json").read_text())
    if ending == "sigkill":
        data["ranging"]["trials"] = 4000
    _no_worker_outlives("ranging", data, ending, tmp_path)
