"""The benchmark's workloads: their inputs, one timed round, and the CSV gate.

A workload file under ``workloads/`` holds a scenario config (three mirror
files in ``configs/``; the fourth is the baseband-backed mux-sim), the
overrides that size one timed round and one warm-up trial, and a one-line
reason for the workload.  The benchmark seed replaces ``master_seed``, so
the program sees only the generated inputs.  Every round goes through the
public entry points: ``parse_config`` -> ``run_sweep`` / ``run_mux_sim`` /
``run_ranging`` -> ``csv_rows`` -> ``emit_csv``.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
WORKLOAD_DIR = BENCH_DIR / "workloads"
DIGESTS_FILE = BENCH_DIR / "digests.json"

WORKLOADS = ("coded-harsh", "uncoded-los", "mux-baseband", "ranging-echo")
SWEEPS = ("ber-sweep", "per-sweep")


def merged(base: dict, override: dict) -> dict:
    """Deep copy of ``base`` with the nested keys of ``override`` replaced."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    config: dict
    round: dict
    warmup: dict

    def round_config(self, seed: int) -> dict:
        """Config of one timed round, with the benchmark seed as master seed."""
        return merged(self.config, {**self.round, "master_seed": seed})

    def warmup_config(self, seed: int) -> dict:
        """Config of the single trial that fills lazy caches during set-up."""
        return merged(self.round_config(seed), self.warmup)


def load_workload(name: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    data = json.loads((WORKLOAD_DIR / f"{name}.json").read_text())
    return Workload(name=name, why=data["why"], scenario=data["scenario"],
                    config=data["config"], round=data["round"],
                    warmup=data["warmup"])


def recorded_digest(name: str) -> tuple[int, str]:
    """(seed, SHA-256 of the round CSV) recorded for a workload."""
    data = json.loads(DIGESTS_FILE.read_text())
    entry = data["workloads"][name]
    return entry["seed"], entry["sha256"]


def digest(csv_bytes: bytes) -> str:
    return hashlib.sha256(csv_bytes).hexdigest()


def count_trials(scenario: str, rows: list[dict]) -> int:
    """Trials in a result: frames for sweeps, PHY copies for mux-sim
    (every received copy is delivered, a duplicate or corrupt), echoes
    for ranging."""
    if scenario in SWEEPS:
        return sum(int(r["trials"]) for r in rows)
    if scenario == "mux-sim":
        return sum(int(r["delivered"]) + int(r["duplicate_drops"]) +
                   int(r["corrupt_drops"]) for r in rows)
    return len(rows)


def run_entry(harness: ModuleType, cfg: Any) -> Any:
    """Run a parsed config through its harness entry point, single-threaded.

    Entry points are looked up on the package at call time, so the traced
    mode can wrap them.
    """
    if cfg.scenario in SWEEPS:
        return harness.run_sweep(cfg.chain, cfg.channel, cfg.sweep,
                                 cfg.master_seed, threads=1)
    if cfg.scenario == "mux-sim":
        return harness.run_mux_sim(cfg.mux, cfg.master_seed)
    if cfg.scenario == "ranging":
        return harness.run_ranging(cfg.ranging, cfg.master_seed)
    raise ValueError(f"scenario {cfg.scenario!r} has no benchmark entry point")


def write_outputs(harness: ModuleType, cfg: Any, rows: list[dict],
                  fields: list[str], path: Path, wall_clock_s: float) -> bytes:
    """Write the result CSV and manifest as ``sim`` does; return the CSV bytes."""
    harness.emit_csv(rows, fields, str(path))
    harness.write_manifest(str(path), cfg.raw, cfg.master_seed, wall_clock_s)
    return path.read_bytes()
