"""Command-line entry point: run one training config and write results."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ALGORITHMS, config_from_dict, load_config, config_to_dict
from .errors import ConfigError, FmmlError
from .orchestrator import Simulation
from .scheduler import METRIC_KINDS
from . import reporting


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmmlsim",
        description="Simulate personalized federated multi-modal training "
                    "over a modelled wireless network.")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--algo", choices=ALGORITHMS, default=None)
    parser.add_argument("--khat", type=int, default=None,
                        help="per-block upload quota")
    parser.add_argument("--metric", choices=METRIC_KINDS, default=None)
    parser.add_argument("--alpha", type=float, default=None,
                        help="latency weight of the linear metric")
    parser.add_argument("--ath", type=int, default=None,
                        help="staleness threshold forcing an upload")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    return parser


_FLAG_TO_KEY = {"seed": "seed", "rounds": "rounds", "algo": "algorithm",
                "khat": "quota", "metric": "metric", "alpha": "alpha",
                "ath": "staleness_threshold", "out": "out_dir"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            payload = config_to_dict(load_config(args.config))
        else:
            payload = {}
        for flag, key in _FLAG_TO_KEY.items():
            value = getattr(args, flag)
            if value is not None:
                payload[key] = value
        cfg = config_from_dict(payload)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        out_dir = Path(cfg.out_dir or "fmmlsim_out")
        out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the run
        sim = Simulation(cfg)
        result = sim.run()
        reporting.write_rounds_csv(out_dir / "rounds.csv", result.logs, cfg.num_devices)
        reporting.write_schedule_csv(out_dir / "schedule.csv", result.logs, sim.owners)
        logs = result.logs if cfg.record_coefficients else []
        reporting.write_coefficients_csv(out_dir / "coefficients.csv", logs, sim.owners)
        if cfg.record_gains:
            reporting.write_gains_csv(out_dir / "gains.csv", result.logs, cfg.num_devices)
        reporting.write_summary_json(out_dir / "summary.json", result.summary)
    except (FmmlError, OSError, ValueError) as exc:  # ValueError: a non-finite summary value
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    s = result.summary
    print(f"algo={s['algo']} seed={s['seed']} rounds={s['rounds']} "
          f"mean_personalized_accuracy={s['mean_personalized_accuracy']:.4f} "
          f"total_simulated_time_s={s['total_simulated_time_s']:.4f}")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
