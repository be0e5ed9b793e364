"""CSV and JSON result writers with stable, documented schemas.

Every CSV line is formatted directly, in the bytes `csv.writer` would emit:
no field can need quoting, floats are `repr(float)` and every line ends in
"\\r\\n". In `coefficients.csv` a device's weight row that is bit-equal to
the last row written for it reuses that row's formatted text.
"""

from __future__ import annotations

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


def _open_csv(path: str | Path, header: list[str]):
    fh = open(path, "w", newline="")
    fh.write(",".join(header) + "\r\n")
    return fh


def write_rounds_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    with _open_csv(path, ROUNDS_HEADER) as fh:
        for log in logs:
            head, round_time = f"{log.round},", repr(float(log.round_time))
            mean_acc = repr(float(log.mean_accuracy))
            columns = (log.t_download, log.t_compute, log.t_upload,
                       log.train_loss, log.test_accuracy)
            fh.writelines(
                f"{head}{k},{d!r},{c!r},{u!r},{round_time},{loss!r},{acc!r},{mean_acc}\r\n"
                for k, d, c, u, loss, acc in zip(range(num_devices),
                                                 *(a.tolist() for a in columns)))


def write_schedule_csv(path: str | Path, logs: Sequence[RoundLog],
                       owners: dict[int, np.ndarray]) -> None:
    """One row per (round, block, eligible device); the metric cell is empty
    for a device the scheduler gave no metric."""
    with _open_csv(path, SCHEDULE_HEADER) as fh:
        for log in logs:
            for b in sorted(log.scheduled):
                metrics = log.metric_values.get(b, {})
                head = f"{log.round},{b},"
                ind, stale = log.scheduled[b].tolist(), log.staleness[b].tolist()
                for k in np.flatnonzero(owners[b]).tolist():
                    metric = metrics.get(k)
                    cell = "" if metric is None else repr(float(metric))
                    fh.write(f"{head}{k},{ind[k]},{stale[k]},{cell}\r\n")


def write_coefficients_csv(path: str | Path, logs: Sequence[RoundLog],
                           owners: dict[int, np.ndarray]) -> None:
    """Raw and structural (full-participation) weights per participant pair.

    A device that uploads no block keeps its raw row, so most rows repeat
    the previous round's. For each (block, k) the writer keeps the bytes of
    the owners-only raw and effective rows it last wrote, with their
    formatted "k_prime,raw,effective" cells; a row bit-equal to both (so
    `-0.0` differs from `0.0`) reuses the cells under this round's prefix.
    """
    last: dict[tuple[int, int], tuple[bytes, bytes, list[str]]] = {}
    with _open_csv(path, COEFFS_HEADER) as fh:
        for log in logs:
            if log.coeff_snapshot is None:
                continue
            for b in sorted(log.coeff_snapshot):
                raw, eff = log.coeff_snapshot[b]
                idx = np.flatnonzero(owners[b])
                cells = np.ix_(idx, idx)
                raw_rows, eff_rows, ids = raw[cells], eff[cells], idx.tolist()
                for k, raw_row, eff_row in zip(ids, raw_rows, eff_rows):
                    raw_bits, eff_bits = raw_row.tobytes(), eff_row.tobytes()
                    kept = last.get((b, k))
                    if kept is None or kept[0] != raw_bits or kept[1] != eff_bits:
                        kept = (raw_bits, eff_bits,
                                [f"{kp},{r!r},{e!r}" for kp, r, e in
                                 zip(ids, raw_row.tolist(), eff_row.tolist())])
                        last[(b, k)] = kept
                    pre = f"{log.round},{b},{k},"
                    fh.write(pre + ("\r\n" + pre).join(kept[2]) + "\r\n")


def write_gains_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    """Per-round channel realizations, enough to replay a latency trace."""
    with _open_csv(path, GAINS_HEADER) as fh:
        for log in logs:
            fh.writelines(f"{log.round},{k},{g!r}\r\n"
                          for k, g in zip(range(num_devices), log.gains.tolist()))


def write_summary_json(path: str | Path, summary: dict) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError before the file is opened."""
    text = json.dumps(summary, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
