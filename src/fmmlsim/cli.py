"""Command-line entry point: run one training config and write results."""

from __future__ import annotations

import argparse
import re
import reprlib
import sys
from pathlib import Path

from .config import ALGORITHMS, config_from_dict, read_config_file
from .errors import ConfigError, FmmlError
from .orchestrator import Simulation
from .scheduler import METRIC_KINDS
from . import reporting


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed flag is a config error (exit 1), not argparse's exit 2
        # argparse quotes a rejected value whole and lists unrecognized tokens bare;
        # a long one is abridged as config values are, and what follows it (the
        # choices --help lists, the other tokens) is dropped
        value = re.search(r"'([^']{31,})'|\"([^\"]{31,})\"|(\S{31,})", message)
        if value:
            message = message[:value.start()] + reprlib.repr(value[1] or value[2] or value[3])
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmmlsim",
        description="Simulate personalized federated multi-modal training "
                    "over a modelled wireless network.")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, default=None)
    parser.add_argument("--khat", dest="quota", metavar="KHAT", type=int, default=None,
                        help="per-block upload quota")
    parser.add_argument("--metric", choices=METRIC_KINDS, default=None)
    parser.add_argument("--alpha", type=float, default=None,
                        help="latency weight of the linear metric")
    parser.add_argument("--ath", dest="staleness_threshold", metavar="ATH", type=int,
                        default=None, help="staleness threshold forcing an upload")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", type=str, default=None,
                        help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
        path = flags.pop("config")
        # each flag's dest is its config key; a flag replaces the file's value
        # before the one validation, and a file that is not an object fails there
        payload = {} if path is None else read_config_file(path)
        if isinstance(payload, dict):
            payload.update((key, value) for key, value in flags.items() if value is not None)
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
        reporting.write_coefficients_csv(out_dir / "coefficients.csv", result.logs, sim.owners)
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
