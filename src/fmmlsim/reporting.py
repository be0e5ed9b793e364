"""CSV and JSON result writers with stable, documented schemas."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .orchestrator import RoundLog

ROUNDS_HEADER = ["round", "device", "t_download_s", "t_compute_s", "t_upload_s",
                 "round_time_s", "train_loss", "test_accuracy", "mean_accuracy"]
SCHEDULE_HEADER = ["round", "block", "device", "indicator", "staleness", "metric"]
COEFFS_HEADER = ["round", "block", "k", "k_prime", "raw", "effective"]
GAINS_HEADER = ["round", "device", "gain"]


def _fmt(x) -> str:
    return repr(float(x))


def write_rounds_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_HEADER)
        for log in logs:
            for k in range(num_devices):
                writer.writerow([
                    log.round, k, _fmt(log.t_download[k]), _fmt(log.t_compute[k]),
                    _fmt(log.t_upload[k]), _fmt(log.round_time),
                    _fmt(log.train_loss[k]), _fmt(log.test_accuracy[k]),
                    _fmt(log.mean_accuracy)])


def write_schedule_csv(path: str | Path, logs: Sequence[RoundLog],
                       owners: dict[int, np.ndarray]) -> None:
    """One row per (round, block, eligible device)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_HEADER)
        for log in logs:
            for b in sorted(log.scheduled):
                for k in np.flatnonzero(owners[b]):
                    metric = log.metric_values.get(b, {}).get(int(k), "")
                    writer.writerow([
                        log.round, b, int(k), int(log.scheduled[b][k]),
                        int(log.staleness[b][k]),
                        _fmt(metric) if metric != "" else ""])


def write_coefficients_csv(path: str | Path, logs: Sequence[RoundLog],
                           owners: dict[int, np.ndarray]) -> None:
    """Raw and structural (full-participation) weights per participant pair.

    Rows are formatted directly, in the bytes `csv.writer` would emit: no
    field can need quoting, and every line ends in "\\r\\n".
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(COEFFS_HEADER)
        for log in logs:
            if log.coeff_snapshot is None:
                continue
            for b in sorted(log.coeff_snapshot):
                raw, eff = log.coeff_snapshot[b]
                idx = np.flatnonzero(owners[b])
                cells = np.ix_(idx, idx)
                ids, head = idx.tolist(), f"{log.round},{b},"
                fh.writelines(f"{head}{k},{kp},{r!r},{e!r}\r\n"
                              for k, raw_row, eff_row in zip(ids, raw[cells].tolist(),
                                                             eff[cells].tolist())
                              for kp, r, e in zip(ids, raw_row, eff_row))


def write_gains_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    """Per-round channel realizations, enough to replay a latency trace."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GAINS_HEADER)
        for log in logs:
            for k in range(num_devices):
                writer.writerow([log.round, k, _fmt(log.gains[k])])


def write_summary_json(path: str | Path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
