"""Command line front end: `pnc-sim run` and `pnc-sim sweep-c`."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="experiment file (key = value sections)")
    sub.add_argument("--snr", help="comma-separated SNR list in dB, overrides the file")
    sub.add_argument("--seed", type=int, help="master seed, overrides the file")
    sub.add_argument("--out", help="output CSV path (prefix for sweep-c)")
    sub.add_argument("--trials", type=int, help="trial cap per SNR point")
    sub.add_argument("--jobs", type=int, help="parallel worker processes")


def _parse_snr(raw: str | None):
    if raw is None:
        return None
    return tuple(float(s) for s in raw.split(",") if s.strip())


def _print_summary(result: harness.ExperimentResult) -> None:
    # errors arrive in frame-sized bursts, so a bit-level binomial interval
    # would be far too narrow; print the raw error count instead
    for row in result.rows:
        print(
            f"{row.receiver:>8} k={row.em_iters} snr={row.snr_db:5.1f} dB  "
            f"ber={row.ber:.3e} errors={row.errors}  "
            f"mse=({row.mse_a:.3e}, {row.mse_b:.3e})  "
            f"frames={row.frames} ({row.seconds:.1f}s)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pnc-sim",
        description="Monte Carlo simulator for two-way-relay OFDM network coding",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="run the sweep described by the config file")
    _add_common(run_p)
    sweep_p = subs.add_parser(
        "sweep-c",
        help="run the selective-fading sweep twice, with power decay 1/4 and 1",
    )
    _add_common(sweep_p)
    args = parser.parse_args(argv)

    # every config is built and checked before the first trial runs
    try:
        cfg = harness.load_config(args.config)
        cfg = harness.with_overrides(
            cfg,
            snr_db_list=_parse_snr(args.snr),
            master_seed=args.seed,
            output_path=args.out,
            trials_per_snr=args.trials,
            jobs=args.jobs,
        )
        runs = [(cfg, cfg.output_path)]
        if args.command == "sweep-c":
            stem = cfg.output_path.removesuffix(".csv")
            runs = [
                (replace(cfg, channel_kind="selective", decay=c), f"{stem}_c{c:g}.csv")
                for c in (0.25, 1.0)
            ]
        for _, path in runs:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"output directory of {path!r} does not exist")
    except (OSError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        for run_cfg, path in runs:
            result = harness.run_experiment(run_cfg)
            harness.emit_csv(result, path)
            if args.command == "sweep-c":
                print(f"# decay c = {run_cfg.decay:g}")
            _print_summary(result)
            print(f"wrote {path}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
