"""The two-process `coefficients.csv` writer: the bytes of the split path
equal the single-process formatter's, both equal a plain formatter that
passes every recorded cell through `repr`, the split is taken only when it
can run, and every failure surfaces in the parent with no helper left
behind."""

import dataclasses
import errno
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from fmmlsim import desk_config
from fmmlsim.cli import main
from fmmlsim.orchestrator import RoundLog, Simulation
from fmmlsim.reporting import COEFFS_HEADER, _coefficient_lines, write_coefficients_csv

ROUND_COUNTS = (0, 1, 2, 3, 5)


@pytest.fixture(scope="module", params=[9, 90], ids=lambda k: f"K={k}")
def run(request):
    k = request.param
    sim = Simulation(desk_config(seed=4, num_devices=k, quota=min(k, 30), local_iters=1,
                                 rounds=max(ROUND_COUNTS), record_coefficients=True))
    return sim.run().logs, sim.owners


def single_process_bytes(logs, owners):
    recorded = [log for log in logs if log.coeff_record is not None]
    text = ",".join(COEFFS_HEADER) + "\r\n" + "".join(_coefficient_lines(recorded, owners))
    return text.encode("ascii")


def plain_bytes(logs, owners):
    """`coefficients.csv` as the README defines it, with every cell of every
    line formatted by `repr` from the row's latest record; nothing is reused."""
    lines, latest = [",".join(COEFFS_HEADER)], {}
    for log in logs:
        if log.coeff_record is None:
            continue
        for b in sorted(log.coeff_record):
            rows, raw, eff = log.coeff_record[b]
            for i, k in enumerate(rows.tolist()):
                latest[(b, k)] = (raw[i], eff[i])
            ids = np.flatnonzero(owners[b]).tolist()
            for k in ids:
                r, e = latest[(b, k)]
                lines.extend(f"{log.round},{b},{k},{kp},{float(r[kp])!r},{float(e[kp])!r}"
                             for kp in ids)
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the host has; the list of fork calls made."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rounds", ROUND_COUNTS)
def test_split_writer_bytes_equal_the_single_process_output(tmp_path, run, forks, rounds):
    logs, owners = run
    logs = logs[:rounds]
    write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert len(forks) == (1 if rounds >= 2 else 0)
    assert_no_child_left()
    assert (tmp_path / "c.csv").read_bytes() == single_process_bytes(logs, owners)
    assert (tmp_path / "c.csv").read_bytes() == plain_bytes(logs, owners)


def test_split_counts_only_rounds_that_hold_a_snapshot(tmp_path, run, forks):
    logs, owners = run
    logs = [logs[0], dataclasses.replace(logs[1], coeff_record=None), logs[2]]
    write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert len(forks) == 1
    assert_no_child_left()
    assert (tmp_path / "c.csv").read_bytes() == single_process_bytes(logs, owners)


def _no_fork():
    raise AssertionError("forked on a host that cannot run the helper")


@pytest.mark.parametrize("host", ["one usable CPU", "no os.fork"])
def test_single_process_path_when_the_helper_cannot_run(tmp_path, run, monkeypatch, host):
    logs, owners = run
    if host == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
    write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert (tmp_path / "c.csv").read_bytes() == plain_bytes(logs, owners)


def logs_of(records, num_devices):
    """One `RoundLog` per coefficient record, from round 1, with nothing else in it."""
    zeros = np.zeros(num_devices)
    return [RoundLog(round=r, gains=zeros, t_download=zeros, t_compute=zeros, t_upload=zeros,
                     round_time=0.0, scheduled={}, staleness={}, metric_values={},
                     train_loss=zeros, test_accuracy=zeros, mean_accuracy=0.0,
                     weight_rows_used=[], coeff_record=record)
            for r, record in enumerate(records, start=1)]


def recorded(rows, raw, eff):
    return np.array(rows, dtype=np.intp), np.array(raw, dtype=float), np.array(eff, dtype=float)


NAN, INF = float("nan"), float("inf")
# block 1 is owned by devices 0-2 of 4 (column 3 is never written), block 2 by all 4
SYNTHETIC_OWNERS = {1: np.array([True, True, True, False]), 2: np.ones(4, dtype=bool)}
SYNTHETIC_RECORDS = [
    # round 1: every owner row, each of one value
    {1: recorded([0, 1, 2], np.full((3, 4), 0.25), np.full((3, 4), 1 / 3)),
     2: recorded([0, 1, 2, 3], np.full((4, 4), 0.25), np.full((4, 4), 0.25))},
    # an entry at 0.0 and one at -0.0; a row of nan and infinities; a partial change
    {1: recorded([0, 2], [[0.0, -0.0, 0.5, 7.0], [NAN, INF, -INF, 0.0]],
                 [[0.5, 0.25, 0.25, 0.0], [NAN, INF, -INF, 0.0]]),
     2: recorded([3], [[0.25, 0.25, 0.3, 0.25]], [[0.25, 0.25, 0.2, 0.3]])},
    # the zeros swap signs; a row equal to 0.0 by value but not by bits; the
    # same row partly changed again in consecutive rounds; a block with no row
    {1: recorded([0, 1], [[-0.0, 0.0, 0.5, 7.0], [0.0, -0.0, 0.0, 1.0]],
                 [[0.5, 0.25, 0.25, 0.0], [-0.0, 0.0, 0.0, 0.0]]),
     2: recorded([3], [[0.25, 0.1, 0.3, 0.25]], [[0.25, 0.25, 0.2, 0.3]])},
    {1: recorded([0, 1, 2], [[0.0, -0.0, 0.5, 7.0], [0.0, 0.0, 0.0, 1.0], [NAN, INF, -INF, 2.0]],
                 [[0.5, 0.25, 0.25, 0.0], [0.0, 0.0, 0.0, 0.0], [NAN, -INF, INF, 0.0]]),
     2: recorded([], np.zeros((0, 4)), np.zeros((0, 4)))},
]


@pytest.mark.parametrize("split", [True, False], ids=["split", "single process"])
@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_reused_cells_match_the_plain_formatter_on_signed_zeros_and_non_finite_entries(
        tmp_path, forks, monkeypatch, split, rounds):
    if not split:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    logs = logs_of(SYNTHETIC_RECORDS[:rounds], 4)
    write_coefficients_csv(tmp_path / "c.csv", logs, SYNTHETIC_OWNERS)
    assert len(forks) == (1 if split and rounds >= 2 else 0)
    assert_no_child_left()
    text = (tmp_path / "c.csv").read_bytes()
    assert text == plain_bytes(logs, SYNTHETIC_OWNERS)
    if rounds >= 2:
        assert b",-0.0," in text and b",nan," in text


def test_a_failing_helper_makes_the_cli_exit_2(tmp_path, capsys, monkeypatch, forks):
    parent = os.getpid()
    real_write = os.write

    def write_fails_in_the_helper(fd, data):
        if os.getpid() != parent:
            raise OSError(errno.EIO, "injected write failure")
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write_fails_in_the_helper)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 2, "rounds": 3, "local_iters": 1, "record_coefficients": true}')
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "helper exited with code 1" in err
    assert "Traceback" not in err
    assert len(forks) == 1
    assert_no_child_left()


def test_a_parent_failing_mid_write_raises_and_leaves_no_helper(tmp_path, forks):
    # 60 owners, every row recorded each round: each round's rows are about
    # 160 kB, more than a pipe holds, so the helper is blocked on the pipe or
    # about to be when the parent fails
    owners = {1: np.ones(60, dtype=bool)}
    rng = np.random.default_rng(3)
    record = {1: (np.arange(60), rng.normal(size=(60, 60)), rng.random((60, 60)))}
    # block 2 has no owners entry: the parent's round 2 raises KeyError, while
    # the helper replays that round without looking its owners up
    broken = {**record, 2: record[1]}
    logs = logs_of([broken if r == 2 else record for r in range(1, 7)], 60)
    with deadline(20.0), pytest.raises(KeyError):
        write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert len(forks) == 1
    assert_no_child_left()
