"""CSV and JSON result writers with stable, documented schemas.

Every CSV line is formatted directly, in the bytes `csv.writer` would emit:
no field can need quoting, floats are `repr(float)` and every line ends in
"\\r\\n".

`coefficients.csv` (about K² rows per block per round) is formatted from
the rounds' coefficient records (`RoundLog.coeff_record`), which hold only
the weight rows a round recomputed; its writer must be given the logs from
round 1 on. A raw entry of a recorded row is formatted only when its bits
changed since its row's last record; effective entries, which a new raw
row moves, are formatted afresh; a row of one bit pattern is formatted
once.
When `os.fork` exists, at least 2 CPUs are usable and at least 2 rounds
hold a record, one forked helper process replays the first half of those
rounds, formats the second half and sends the bytes through a pipe while
this process writes the first half; the file has the same bytes either
way. The helper is always reaped before the writer returns or raises, and
a helper that fails raises ChildProcessError, which the command line
reports as a failed run.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .orchestrator import RoundLog

ROUNDS_HEADER = ["round", "device", "t_download_s", "t_compute_s", "t_upload_s",
                 "round_time_s", "train_loss", "test_accuracy", "mean_accuracy"]
SCHEDULE_HEADER = ["round", "block", "device", "indicator", "staleness", "metric"]
COEFFS_HEADER = ["round", "block", "k", "k_prime", "raw", "effective"]
GAINS_HEADER = ["round", "device", "gain"]

_PIPE_CHUNK = 1 << 20  # bytes the parent copies from the helper's pipe per read


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


def _reprs(values: np.ndarray, last: tuple[np.ndarray, list[str]] | None
           ) -> tuple[np.ndarray, list[str]]:
    """The int64 bits and `repr` of each of `values`, reusing the string of
    every entry whose bits equal `last`'s (bits, not values: 0.0 == -0.0 but
    they print differently); a row of one bit pattern is formatted once."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return bits, [repr(float(values[0]))] * bits.size
    floats = values.tolist()
    if last is None:
        return bits, list(map(repr, floats))
    strings = last[1].copy()
    for j in np.flatnonzero(bits != last[0]).tolist():
        strings[j] = repr(floats[j])
    return bits, strings


def _coefficient_lines(logs: Sequence[RoundLog], owners: dict[int, np.ndarray],
                       skip: int = 0) -> Iterator[str]:
    """Lines of `coefficients.csv` after its header, one per (round, block, k)
    of `logs[skip:]`: a recorded row is formatted over the block's owners, any
    other repeats its last cells. `logs` start at round 1; `logs[:skip]` are
    replayed unformatted."""
    latest: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}  # not yet formatted
    cells: dict[tuple[int, int], list[str]] = {}
    # the bits and strings of each row's last formatted raw entries; effective
    # entries are formatted afresh, as a new raw row moves (nearly) all of them
    raw_texts: dict[tuple[int, int], tuple[np.ndarray, list[str]]] = {}
    for i, log in enumerate(logs):
        for b in sorted(log.coeff_record):
            rows, raw, eff = log.coeff_record[b]
            latest.update(((b, k), pair) for k, pair in zip(rows.tolist(), zip(raw, eff)))
            if i < skip:
                continue
            idx = np.flatnonzero(owners[b])
            ids = idx.tolist()
            id_text = list(map(str, ids))
            for k in ids:
                pair = latest.pop((b, k), None)
                if pair is not None:
                    raw_text = raw_texts[(b, k)] = _reprs(pair[0][idx], raw_texts.get((b, k)))
                    eff_text = _reprs(pair[1][idx], None)[1]
                    cells[(b, k)] = list(map(",".join, zip(id_text, raw_text[1], eff_text)))
                pre = f"{log.round},{b},{k},"
                yield pre + ("\r\n" + pre).join(cells[(b, k)]) + "\r\n"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _helper_pipe(lines: Iterable[str]) -> Iterator[int]:
    """Fork one helper that joins `lines` and writes them, ASCII-encoded,
    to a pipe; yield the pipe's read end.

    The helper opens no file, calls no BLAS routine and always leaves
    through `os._exit`. On the way out the parent closes the read end
    first, so a helper blocked on a full pipe gets EPIPE, then reaps it.
    A helper that exits non-zero raises ChildProcessError, unless the
    parent is already raising.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the helper
        code = 1
        try:
            os.close(read_fd)
            data = memoryview("".join(lines).encode("ascii"))
            while data:
                data = data[os.write(write_fd, data):]
            code = 0
        finally:
            os._exit(code)
    try:
        os.close(write_fd)
        yield read_fd
    finally:
        os.close(read_fd)
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ChildProcessError("the coefficients.csv helper exited with code "
                                f"{os.waitstatus_to_exitcode(status)}")


def write_coefficients_csv(path: str | Path, logs: Sequence[RoundLog],
                           owners: dict[int, np.ndarray]) -> None:
    """Raw and structural (full-participation) weights per participant pair,
    from the logs that hold a coefficient record (none: the header alone),
    written by one process or, as the module says, two; both give the same
    bytes. A helper that fails raises ChildProcessError (an OSError) once it
    is reaped; no helper outlives the call.
    """
    recorded = [log for log in logs if log.coeff_record is not None]
    cut = len(recorded) // 2
    if cut == 0 or not hasattr(os, "fork") or _usable_cpus() < 2:
        with _open_csv(path, COEFFS_HEADER) as fh:
            fh.writelines(_coefficient_lines(recorded, owners))
        return
    # fork first, so the helper holds neither the file nor its buffered header
    with (_helper_pipe(_coefficient_lines(recorded, owners, skip=cut)) as pipe,
          _open_csv(path, COEFFS_HEADER) as fh):
        fh.writelines(_coefficient_lines(recorded[:cut], owners))
        fh.flush()
        while chunk := os.read(pipe, _PIPE_CHUNK):
            fh.buffer.write(chunk)


def write_gains_csv(path: str | Path, logs: Sequence[RoundLog], num_devices: int) -> None:
    """Per-round channel realizations, enough to replay a latency trace."""
    with _open_csv(path, GAINS_HEADER) as fh:
        for log in logs:
            fh.writelines(f"{log.round},{k},{g!r}\r\n"
                          for k, g in zip(range(num_devices), log.gains.tolist()))


def summary_text(summary: dict) -> str:
    """The text of `summary.json`, strict JSON: a NaN or infinity raises ValueError."""
    return json.dumps(summary, indent=2, allow_nan=False) + "\n"


def write_summary_json(path: str | Path, summary: dict) -> None:
    """`summary_text(summary)`, which raises before the file is opened."""
    Path(path).write_text(summary_text(summary))
