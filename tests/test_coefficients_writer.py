"""The two-process `coefficients.csv` writer: its bytes equal a plain
`csv.writer` reference that formats every cell with `repr` and reuses
nothing, on both the split and the single-process path; the split is taken
only when it can run, and every failure surfaces in the parent with no
helper left behind."""

import csv
import dataclasses
import errno
import io
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from fmmlsim import desk_config
from fmmlsim.cli import main
from fmmlsim.orchestrator import Simulation
from fmmlsim.reporting import COEFFS_HEADER, write_coefficients_csv
from forms import synthetic_log

ROUND_COUNTS = (0, 1, 2, 3, 5)


@pytest.fixture(scope="module", params=[9, 90], ids=lambda k: f"K={k}")
def run(request):
    k = request.param
    sim = Simulation(desk_config(seed=4, num_devices=k, quota=min(k, 30), local_iters=1,
                                 rounds=max(ROUND_COUNTS), record_coefficients=True))
    assert any(not owners.all() for owners in sim.owners.values())
    return sim.run().logs, sim.owners


def coefficients_csv_reference(logs, owners):
    """`coefficients.csv` as one `csv.writer` row per owner pair of each
    recorded round's full matrices, rebuilt by replaying the records; every
    cell goes through `repr` and nothing is reused."""
    num_devices = len(next(iter(owners.values())))
    raw = {b: np.full((num_devices, num_devices), np.nan) for b in owners}
    eff = {b: m.copy() for b, m in raw.items()}
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(COEFFS_HEADER)
    for log in logs:
        if log.coeff_record is None:
            continue
        for b, (rows, raw_rows, eff_rows) in log.coeff_record.items():
            raw[b][rows], eff[b][rows] = raw_rows, eff_rows
        for b in sorted(log.coeff_record):
            idx = np.flatnonzero(owners[b])
            for k in idx:
                for kp in idx:
                    writer.writerow([log.round, b, int(k), int(kp),
                                     repr(float(raw[b][k, kp])), repr(float(eff[b][k, kp]))])
    return text.getvalue().encode("ascii")


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
def test_split_writer_bytes_equal_the_reference(tmp_path, run, forks, rounds):
    logs, owners = run
    logs = logs[:rounds]
    write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert len(forks) == (1 if rounds >= 2 else 0)
    assert_no_child_left()
    text = (tmp_path / "c.csv").read_bytes()
    assert text == coefficients_csv_reference(logs, owners)
    assert text.count(b"\r\n") == 1 + rounds * sum(int(o.sum()) ** 2 for o in owners.values())


def test_split_counts_only_rounds_that_hold_a_snapshot(tmp_path, run, forks):
    logs, owners = run
    logs = [logs[0], dataclasses.replace(logs[1], coeff_record=None), logs[2]]
    write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert len(forks) == 1
    assert_no_child_left()
    assert (tmp_path / "c.csv").read_bytes() == coefficients_csv_reference(logs, owners)


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
    assert (tmp_path / "c.csv").read_bytes() == coefficients_csv_reference(logs, owners)


NAN, INF = float("nan"), float("inf")
# every device owns block 1; device 1 does not own block 2, so no cell of its
# row or column of block 2 may be written
BLOCK_2_SKIPS_DEVICE_1 = {1: np.ones(4, dtype=bool), 2: np.array([True, False, True, True])}


def _coefficient_scenarios():
    """Per scenario, one coefficient record (or None) per round from round 1."""
    rng = np.random.default_rng(7)
    raw, eff = rng.normal(size=(4, 4)), rng.random((4, 4))
    raw[2, 3] = eff[3, 0] = 0.0
    signed = raw.copy()
    signed[2, 3] = -0.0                    # == raw, but not bit-equal
    eff_moved = eff.copy()
    eff_moved[0, 2] = np.nextafter(eff[0, 2], 2.0)
    other_raw, other_eff = rng.normal(size=(4, 4)), rng.random((4, 4))
    off_owners = raw.copy()
    off_owners[1, :] = off_owners[:, 1] = 9.0  # only cells of device 1, which block 2 skips
    uniform, third = np.full((4, 4), 0.25), np.full((4, 4), 1 / 3)
    odd = uniform.copy()
    odd[0] = [NAN, INF, -INF, 0.0]
    odd[2, 1] = 0.5                        # a partial change, outside block 2's owners
    zeros = odd.copy()
    zeros[0] = [-0.0, 0.0, 0.0, 0.0]       # one value by ==, not by bits
    zeros[2, 3] = 0.5                      # the same row partly changed again

    def rows(r, e, ks):
        ks = np.array(ks, dtype=np.intp)
        return ks, r[ks], e[ks]

    def both(r, e, ks=(0, 1, 2, 3)):
        return {1: rows(r, e, ks), 2: rows(r, e, [k for k in ks if k != 1])}

    return {
        "row unchanged across rounds": [both(raw, eff), both(raw, eff, ()),
                                        both(raw.copy(), eff.copy(), (1, 2))],
        "one cell flips between 0.0 and -0.0": [both(raw, eff), both(signed, eff, (2,)),
                                                both(raw, eff, (2,)), both(signed, eff, (2,))],
        "raw unchanged while effective changes": [both(raw, eff), both(raw, eff_moved, (0,)),
                                                  both(raw, eff, (0,))],
        "row changes then reverts": [both(raw, eff), both(other_raw, other_eff, (0, 3)),
                                     both(raw, eff, (0, 3))],
        "no snapshot between recorded rounds": [both(raw, eff), None,
                                                both(signed, eff_moved, (0, 2)), None,
                                                both(raw, eff, (2,))],
        "block owned by only some devices": [both(raw, eff),
                                             {1: rows(raw, eff, ()),
                                              2: rows(off_owners, eff, (0, 2, 3))},
                                             {2: rows(off_owners, eff_moved, (0,))},
                                             both(raw, eff, (0, 3))],
        "rows of one value, then nan, infinities and signed zeros": [
            both(uniform, third), both(odd, odd, (0, 2)), both(zeros, zeros, (0, 2)),
            both(uniform, third, (0,))],
    }


@pytest.mark.parametrize("split", [True, False], ids=["split", "single process"])
@pytest.mark.parametrize("scenario", list(_coefficient_scenarios()))
def test_coefficients_csv_reuses_only_bit_equal_cells(tmp_path, forks, monkeypatch, split,
                                                      scenario):
    if not split:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    logs = [synthetic_log(r, record=rec)
            for r, rec in enumerate(_coefficient_scenarios()[scenario], start=1)]
    write_coefficients_csv(tmp_path / "c.csv", logs, BLOCK_2_SKIPS_DEVICE_1)
    assert len(forks) == (1 if split else 0)
    assert_no_child_left()
    text = (tmp_path / "c.csv").read_bytes()
    assert text == coefficients_csv_reference(logs, BLOCK_2_SKIPS_DEVICE_1)


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
    logs = [synthetic_log(r, record=broken if r == 2 else record) for r in range(1, 7)]
    with deadline(20.0), pytest.raises(KeyError):
        write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    assert len(forks) == 1
    assert_no_child_left()
