"""Tests of the benchmark itself: the digest gate, seeding and traced self time.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json

import pytest

import run as bench
import tracer as tracer_mod
from tracer import Tracer
from workload import (REPO_ROOT, WORKLOADS, digest, load_workload, merged,
                      recorded_digest)

harness = bench.import_harness()
from linksim.errors import SyncError  # noqa: E402

# overrides that shrink a round to a fraction of a second
TINY = {
    "coded-harsh": {"sweep": {"trials": 1, "values": [4.0]}},
    "uncoded-los": {"sweep": {"trials": 5}},
    "mux-baseband": {"mux": {"duration_s": 4e-05}},
    "ranging-echo": {"ranging": {"trials": 2}},
}


def tiny_config(name: str, seed: int):
    workload = load_workload(name)
    data = merged(workload.round_config(seed), TINY[name])
    return harness.parse_config(data, workload.scenario)


@pytest.fixture
def make_run(tmp_path):
    return lambda name: bench.Run(harness, load_workload(name), tmp_path)


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_sum_to_at_most_traced_wall(name, make_run):
    run = make_run(name)
    cfg = tiny_config(name, seed=3)
    tracer = Tracer()
    tracer.install()
    try:
        rounds = [run.round(cfg) for _ in range(2)]
    finally:
        tracer.uninstall()
    assert None not in rounds and run.failed == 0
    wall = sum(r.wall_s for r in rounds)
    inner = sum(t for (_, layer), t in tracer.self_s.items()
                if layer != "harness.output")
    assert 0.5 * wall < inner <= wall
    assert tracer.layer_calls("harness") == 2
    assert not tracer.absent


def test_uninstall_restores_every_target():
    before = {t: tracer_mod._resolve(t) for ts in tracer_mod.LAYER_TARGETS.values()
              for t in ts}
    originals = {t: getattr(owner, attr) for t, (owner, attr) in before.items()}
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    for t, (owner, attr) in before.items():
        assert getattr(owner, attr) is originals[t]


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer_mod.LAYER_TARGETS, "ghost",
                        ("linksim.baseband.coding:no_such_function",
                         "linksim.no_such_module:f"))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert {"ghost", "linksim.baseband.coding:no_such_function"} <= tracer.absent


def test_recorded_digest_matches_and_one_changed_byte_is_rejected(make_run, monkeypatch):
    run = make_run("ranging-echo")
    assert run.gate()
    csv = run.csv_path.read_bytes()
    seed, expected = recorded_digest("ranging-echo")
    assert digest(csv) == expected
    changed = bytearray(csv)
    changed[len(changed) // 2] ^= 0x01
    monkeypatch.setattr(bench, "recorded_digest",
                        lambda name: (seed, digest(bytes(changed))))
    assert not make_run("ranging-echo").gate()


def test_digest_mismatch_fails_every_trial(monkeypatch, capsys):
    monkeypatch.setattr(bench, "recorded_digest", lambda name: (11, "0" * 64))
    bench.main(["--workload", "ranging-echo", "--seed", "1", "--seconds", "0.1",
                "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_harness_exception_counts_failed_trials(make_run, monkeypatch):
    run = make_run("ranging-echo")
    cfg = tiny_config("ranging-echo", seed=1)
    assert run.round(cfg) is not None

    def lose_sync(*args, **kwargs):
        raise SyncError("no preamble")

    monkeypatch.setattr(harness, "run_ranging", lose_sync)
    assert run.round(cfg) is None
    assert run.failed == 2 and run.attempted == 4
    assert run.errors == ["SyncError: no preamble"]


def test_same_seed_same_csv_and_other_seed_other_inputs(make_run):
    workload = load_workload("uncoded-los")
    assert workload.round_config(1) == workload.round_config(1)
    assert workload.round_config(1) != workload.round_config(2)
    run = make_run("uncoded-los")
    first = run.round(tiny_config("uncoded-los", seed=1))
    again = run.round(tiny_config("uncoded-los", seed=1))
    assert first is not None and again is not None and run.failed == 0
    same = run.expected_csv
    other = make_run("uncoded-los")
    other.round(tiny_config("uncoded-los", seed=2))
    assert digest(other.expected_csv) != digest(same)


def test_changed_round_csv_fails_its_trials(make_run):
    run = make_run("uncoded-los")
    run.round(tiny_config("uncoded-los", seed=1))
    run.round(tiny_config("uncoded-los", seed=2))
    assert run.failed == 15 and run.attempted == 30


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_mirrors_its_config(name):
    mirror = json.loads((REPO_ROOT / "bench" / "workloads" / f"{name}.json").read_text())
    if "mirrors" not in mirror:
        pytest.skip("workload has no mirrored config")
    original = REPO_ROOT / mirror["mirrors"]
    if not original.is_file():
        pytest.skip(f"{original} not in this checkout")
    assert mirror["config"] == json.loads(original.read_text())


def test_benchmark_json_matches_what_runs_report():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == load_workload(entry["name"]).why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
