"""Byte-exact result CSVs, one small config per scenario family.

Each ``golden/<name>.csv`` was written by

    python -m linksim <scenario> --config golden/<name>.json --out golden/<name>.csv

and committed.  The files pin what the simulator computes: a change that
alters any of them changes results, not only speed, and must not simply
regenerate them.
"""
import json
from pathlib import Path

import pytest

from linksim.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize("name", CASES)
def test_csv_matches_golden(name, tmp_path):
    config = GOLDEN_DIR / f"{name}.json"
    scenario = json.loads(config.read_text())["scenario"]
    out = tmp_path / f"{name}.csv"
    assert main([scenario, "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
