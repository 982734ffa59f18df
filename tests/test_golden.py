"""Byte-exact result CSVs, one small config per scenario family.

Each ``golden/<name>.csv`` was written from the repository root, which a
relative ``trace_file`` is read from (``mux_trace`` reads
``tests/golden/mux_trace_rows.txt``), by

    python -m linksim <scenario> --config tests/golden/<name>.json --out tests/golden/<name>.csv

and committed.  The files pin what the simulator computes: a change that
alters any of them changes results, not only speed, and must not simply
regenerate them.  The CSVs of the shipped ``configs/*.json`` are pinned
the same way, by their SHA-256 digests.
"""
import hashlib
import json
from pathlib import Path

import pytest

from linksim.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
REPO = GOLDEN_DIR.parent.parent
CONFIG_DIR = REPO / "configs"
CONFIG_DIGESTS = {
    "ber_sweep": "03ab217477ad52682c9b2add393f441c4d061f4f956feef5ae27f77a4510de22",
    "latency_budget":
        "3636f408d9feb276cae7b23eddd328393fb0e8ee5ccfddca28aae0cced6e56f9",
    "mux_sim": "f935ced9ac172094f305681dc609fd96cba9f037eb4ead050549d21c80bea70f",
    "per_sweep": "14e9a4ceb36cbdc80fc915afe04b2b16e58baf45561fc4540bb2c0e9b18f90a5",
    "ranging": "576ca2dfacda6b1b17e0a932ae8ae41679bfcfd1860c81d746ac02dc15a3daa0",
}


def _csv(config, tmp_path):
    """The CSV bytes a CLI run of ``config`` writes."""
    scenario = json.loads(config.read_text())["scenario"]
    out = tmp_path / f"{config.stem}.csv"
    assert main([scenario, "--config", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_csv_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    assert (_csv(GOLDEN_DIR / f"{name}.json", tmp_path)
            == (GOLDEN_DIR / f"{name}.csv").read_bytes())


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(CONFIG_DIGESTS)


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_shipped_config_csv_matches_its_digest(name, tmp_path):
    csv = _csv(CONFIG_DIR / f"{name}.json", tmp_path)
    assert hashlib.sha256(csv).hexdigest() == CONFIG_DIGESTS[name]
