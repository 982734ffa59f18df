"""Command line entry point.

    sim ber-sweep|per-sweep|mux-sim|ranging|latency-budget
        --config <file> [--seed N] [--out <path>] [--threads N]

Exit codes: 0 success, 2 configuration error, 3 I/O error.  A scenario
takes its parsed spec and returns its result; ``_run`` is the one place
that times it and writes the files: the result CSV plus a JSON manifest
(config echo, seed, version, and the wall clock of the scenario call)
alongside it.  ``--threads`` is accepted for compatibility and has no
effect.  Every scenario that runs trials already uses every CPU the
process may run on (``taskset`` limits them), with the same bytes at any
count; ``linksim.harness.workers`` states how a run is split.
"""
from __future__ import annotations

import argparse
import sys
import time

from .errors import ConfigError
from .harness.config import SCENARIOS, SimulationConfig, load_config
from .harness.csvout import emit_csv, write_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Link-level simulator: BER/PER sweeps, mux simulation, "
                    "ranging and latency budgets.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's master_seed")
        cmd.add_argument("--out", default=None,
                         help="override the config's output path")
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; no effect "
                              "(every scenario that runs trials uses every "
                              "CPU the process may run on)")
    return parser


def _run(cfg: SimulationConfig, args: argparse.Namespace) -> None:
    out = args.out or cfg.output
    if not out:
        raise ConfigError("output: give --out or the config 'output' key")
    start = time.perf_counter()
    rows, fields = SCENARIOS[cfg.scenario].run(cfg).csv_rows()
    wall_clock_s = time.perf_counter() - start
    emit_csv(rows, fields, out)
    write_manifest(out, cfg.raw, cfg.master_seed, wall_clock_s)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.scenario)
        if args.seed is not None:
            cfg.master_seed = args.seed
        _run(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
