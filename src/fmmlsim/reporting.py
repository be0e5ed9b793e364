"""CSV and JSON result writers with stable, documented schemas.

Every CSV line is formatted directly, in the bytes `csv.writer` would emit:
no field can need quoting, floats are `repr(float)` and every line ends in
"\\r\\n". Floats go through `_float_texts`: the rounds, schedule and gains
writers format each float column across all rounds in one call. The
calling process writes every file; no writer starts another process.

`coefficients.csv` (about K² rows per block per round) is formatted from
the rounds' coefficient records (`RoundLog.coeff_record`), which hold only
the weight rows a round recomputed; its writer must be given the logs from
round 1 on. It formats each recorded block in two calls, the raw and the
effective rows over the block's owners, and repeats the last text of every
other row.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import orjson

from .orchestrator import RoundLog

ROUNDS_HEADER = ["round", "device", "t_download_s", "t_compute_s", "t_upload_s",
                 "round_time_s", "train_loss", "test_accuracy", "mean_accuracy"]
SCHEDULE_HEADER = ["round", "block", "device", "indicator", "staleness", "metric"]
COEFFS_HEADER = ["round", "block", "k", "k_prime", "raw", "effective"]
GAINS_HEADER = ["round", "device", "gain"]


def _float_texts(values) -> list[str]:
    """`repr(float(x))` of each entry of `values`, a float64 array, in C order.

    orjson writes the same shortest round-trip digits as `repr` where `repr`
    keeps positional notation: at 0 and at 1e-4 <= |x| < 1e16. Every other
    entry (smaller or larger magnitudes, which `repr` writes with an exponent,
    and nan and ±inf, which orjson writes as null) goes through `repr`.
    """
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return []
    texts = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(a)
    for j in np.flatnonzero((a != 0) & ~((size >= 1e-4) & (size < 1e16))).tolist():
        texts[j] = repr(float(a[j]))
    return texts


def _open_csv(path: str | Path, header: list[str]):
    fh = open(path, "w", newline="")
    fh.write(",".join(header) + "\r\n")
    return fh


def _column(logs: Sequence[RoundLog], field: str) -> list[str]:
    """The text of each entry of every log's `field`, round after round."""
    if not logs:
        return []
    return _float_texts(np.concatenate([np.ravel(getattr(log, field)) for log in logs]))


def write_rounds_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    columns = [_column(logs, name) for name in
               ("t_download", "t_compute", "t_upload", "train_loss", "test_accuracy")]
    round_times, mean_accs = _column(logs, "round_time"), _column(logs, "mean_accuracy")
    with _open_csv(path, ROUNDS_HEADER) as fh:
        for i, log in enumerate(logs):
            head, tail = f"{log.round},", f",{mean_accs[i]}\r\n"
            round_time = round_times[i]
            cells = (column[i * num_devices:(i + 1) * num_devices] for column in columns)
            fh.writelines(f"{head}{k},{d},{c},{u},{round_time},{loss},{acc}{tail}"
                          for k, d, c, u, loss, acc in zip(range(num_devices), *cells))


def write_schedule_csv(path: str | Path, logs: Sequence[RoundLog],
                       owners: dict[int, np.ndarray]) -> None:
    """One row per (round, block, eligible device); the metric cell is empty
    for a device the scheduler gave no metric."""
    lines = []  # (prefix, metric or None) per row
    for log in logs:
        for b in sorted(log.scheduled):
            metrics = log.metric_values.get(b, {})
            head = f"{log.round},{b},"
            ind, stale = log.scheduled[b].tolist(), log.staleness[b].tolist()
            lines.extend((f"{head}{k},{ind[k]},{stale[k]},", metrics.get(k))
                         for k in np.flatnonzero(owners[b]).tolist())
    texts = iter(_float_texts(np.array([m for _, m in lines if m is not None], dtype=np.float64)))
    with _open_csv(path, SCHEDULE_HEADER) as fh:
        fh.writelines(f"{pre}{'' if m is None else next(texts)}\r\n" for pre, m in lines)


def _coefficient_lines(logs: Sequence[RoundLog], owners: dict[int, np.ndarray]
                       ) -> Iterator[str]:
    """Lines of `coefficients.csv` after its header, one per (round, block, k)
    of `logs`, which start at round 1: a recorded row is formatted over the
    block's owners, any other repeats its last cells."""
    cells: dict[tuple[int, int], list[str]] = {}
    for log in logs:
        for b in sorted(log.coeff_record):
            rows, raw, eff = log.coeff_record[b]
            idx = np.flatnonzero(owners[b])
            ids, n = idx.tolist(), idx.size
            id_text = list(map(str, ids))
            raw_text, eff_text = _float_texts(raw[:, idx]), _float_texts(eff[:, idx])
            for i, k in enumerate(rows.tolist()):
                cells[(b, k)] = list(map(",".join, zip(id_text, raw_text[i * n:(i + 1) * n],
                                                       eff_text[i * n:(i + 1) * n])))
            for k in ids:
                pre = f"{log.round},{b},{k},"
                yield pre + ("\r\n" + pre).join(cells[(b, k)]) + "\r\n"


def write_coefficients_csv(path: str | Path, logs: Sequence[RoundLog],
                           owners: dict[int, np.ndarray]) -> None:
    """Raw and structural (full-participation) weights per participant pair,
    from the logs that hold a coefficient record (none: the header alone)."""
    recorded = [log for log in logs if log.coeff_record is not None]
    with _open_csv(path, COEFFS_HEADER) as fh:
        fh.writelines(_coefficient_lines(recorded, owners))


def write_gains_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    """Per-round channel realizations, enough to replay a latency trace."""
    gains = _column(logs, "gains")
    with _open_csv(path, GAINS_HEADER) as fh:
        for i, log in enumerate(logs):
            fh.writelines(f"{log.round},{k},{g}\r\n" for k, g in
                          zip(range(num_devices), gains[i * num_devices:(i + 1) * num_devices]))


def summary_text(summary: dict) -> str:
    """The text of `summary.json`, strict JSON: a NaN or infinity raises ValueError."""
    return json.dumps(summary, indent=2, allow_nan=False) + "\n"


def write_summary_json(path: str | Path, summary: dict) -> None:
    """`summary_text(summary)`, which raises before the file is opened."""
    Path(path).write_text(summary_text(summary))
