"""A run loads only the modules of its own scenario.

``linksim`` and ``linksim.harness`` import their names and modules on first
use, the config reader imports each section's classes when it parses the
section, and each scenario's runner its engine when it runs.  Each test
runs ``linksim.cli.main`` in a fresh interpreter, where nothing else has
imported the package, and reads ``sys.modules`` afterwards.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env
from linksim.harness.workers import FORK

REPO = Path(__file__).resolve().parent.parent

# a shipped or golden config of each scenario, shrunk to a fraction of a
# second; the sweep's 16 frames split into two shares at two CPUs
CONFIGS = {
    "ranging": ("configs/ranging.json", {"ranging": {"trials": 2}}),
    "per-sweep": ("configs/per_sweep.json",
                  {"sweep": {"values": [4.0], "trials": 16}}),
    "mux-sim": ("tests/golden/mux_baseband.json", {"mux": {"duration_s": 4e-05}}),
    "latency-budget": ("configs/latency_budget.json", {}),
}

# what each scenario may not load: a name or any module under it
NOT_LOADED = {
    "ranging": ("linksim.baseband", "linksim.mux", "linksim.profiles",
                "linksim.harness.sweep", "linksim.harness.muxsim",
                "linksim.harness.latency"),
    "per-sweep": ("linksim.ranging", "linksim.harness.rangingrun",
                  "linksim.mux", "linksim.profiles", "linksim.harness.muxsim",
                  "linksim.harness.latency"),
    "mux-sim": ("linksim.ranging", "linksim.harness.rangingrun",
                "linksim.harness.latency", "numpy.ma"),
    "latency-budget": ("linksim.mux", "linksim.harness.sweep",
                       "linksim.harness.muxsim", "linksim.harness.rangingrun",
                       "linksim.harness.workers"),
}

# argv: (scenario, config, out) triples.  Runs each through the CLI in turn
# and prints, after each, the modules loaded so far and the workers that
# answered a share of that run; with "2cpus" first, the pool splits as at
# two CPUs.
RUNS = """
import json, sys
from linksim.cli import main

args = sys.argv[1:]
answered = set()
if args[0] == "2cpus":
    from linksim.harness import workers
    workers.cpu_count = lambda: 2
    reply = workers._Worker.reply

    def spy(worker):
        got = reply(worker)
        if got is not None:
            answered.add(worker.pid)
        return got

    workers._Worker.reply = spy
    args = args[1:]
for scenario, config, out in zip(args[::3], args[1::3], args[2::3]):
    assert main([scenario, "--config", config, "--out", out]) == 0
    print(json.dumps({
        "modules": sorted(m for m in sys.modules
                          if m.startswith("linksim") or m == "numpy.ma"),
        "answered": sorted(answered)}))
    answered.clear()
"""


def _config(tmp_path, scenario):
    path, override = CONFIGS[scenario]
    data = json.loads((REPO / path).read_text())
    for section, keys in override.items():
        data[section].update(keys)
    out = tmp_path / f"{scenario}.json"
    out.write_text(json.dumps(data))
    return out


def _runs(tmp_path, runs, two_cpus=False):
    """What ``RUNS`` printed after each of ``runs`` ((scenario, csv name)
    pairs), and the CSV bytes each wrote."""
    argv = ["2cpus"] if two_cpus else []
    for scenario, name in runs:
        argv += [scenario, str(_config(tmp_path, scenario)), str(tmp_path / name)]
    out = subprocess.run([sys.executable, "-c", RUNS, *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=cli_env(),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return ([json.loads(line) for line in out.stdout.splitlines()],
            [(tmp_path / name).read_bytes() for _, name in runs])


@pytest.mark.parametrize("scenario", sorted(NOT_LOADED))
def test_a_run_loads_only_its_own_scenario(tmp_path, scenario):
    [printed], _ = _runs(tmp_path, [(scenario, "out.csv")])
    loaded = printed["modules"]
    assert "linksim.harness.config" in loaded
    assert [m for m in loaded for name in NOT_LOADED[scenario]
            if m == name or m.startswith(name + ".")] == []


def test_importing_the_package_loads_only_its_errors():
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, linksim; print(json.dumps("
         "sorted(m for m in sys.modules if m.startswith('linksim'))))"],
        capture_output=True, text=True, env=cli_env(), timeout=60, check=True)
    assert json.loads(out.stdout) == ["linksim", "linksim.errors"]


@pytest.mark.skipif(not FORK, reason="no fork on this platform")
def test_a_worker_forked_before_ranging_was_loaded_runs_its_shares(tmp_path):
    # the sweep forks the pool's one worker before anything has imported
    # harness.rangingrun; the worker imports it when it unpickles its first
    # ranging share, and answers with the rows a run alone gives
    (after_sweep, after_ranging), both = _runs(
        tmp_path, [("per-sweep", "sweep.csv"), ("ranging", "ranging.csv")],
        two_cpus=True)
    assert "linksim.harness.rangingrun" not in after_sweep["modules"]
    assert len(after_sweep["answered"]) == 1
    assert after_ranging["answered"] == after_sweep["answered"]
    _, [sweep_alone] = _runs(tmp_path, [("per-sweep", "alone.csv")], two_cpus=True)
    _, [ranging_alone] = _runs(tmp_path, [("ranging", "alone.csv")], two_cpus=True)
    assert both == [sweep_alone, ranging_alone]
