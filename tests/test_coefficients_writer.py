"""The `coefficients.csv` writer and the float formatter of every CSV
writer: the file's bytes equal a plain `csv.writer` reference that formats
every cell with `repr` and reuses nothing, the formatter gives `repr`'s text
for every float64, and a failing write is a failed run."""

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fmmlsim import desk_config
from fmmlsim.cli import main
from fmmlsim.orchestrator import Simulation
from fmmlsim.reporting import COEFFS_HEADER, _float_texts, write_coefficients_csv
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


@pytest.mark.parametrize("rounds", ROUND_COUNTS)
def test_split_writer_bytes_equal_the_reference(tmp_path, run, rounds):
    logs, owners = run
    logs = logs[:rounds]
    write_coefficients_csv(tmp_path / "c.csv", logs, owners)
    text = (tmp_path / "c.csv").read_bytes()
    assert text == coefficients_csv_reference(logs, owners)
    assert text.count(b"\r\n") == 1 + rounds * sum(int(o.sum()) ** 2 for o in owners.values())


def test_split_counts_only_rounds_that_hold_a_snapshot(tmp_path, run):
    logs, owners = run
    logs = [logs[0], dataclasses.replace(logs[1], coeff_record=None), logs[2]]
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


@pytest.mark.parametrize("scenario", list(_coefficient_scenarios()))
def test_coefficients_csv_reuses_only_bit_equal_cells(tmp_path, scenario):
    logs = [synthetic_log(r, record=rec)
            for r, rec in enumerate(_coefficient_scenarios()[scenario], start=1)]
    write_coefficients_csv(tmp_path / "c.csv", logs, BLOCK_2_SKIPS_DEVICE_1)
    text = (tmp_path / "c.csv").read_bytes()
    assert text == coefficients_csv_reference(logs, BLOCK_2_SKIPS_DEVICE_1)


def test_a_failing_write_makes_the_cli_exit_2(tmp_path, capsys):
    (tmp_path / "out" / "coefficients.csv").mkdir(parents=True)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 2, "rounds": 3, "local_iters": 1, "record_coefficients": true}')
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "coefficients.csv" in err
    assert "Traceback" not in err


def test_a_parent_failing_mid_write_raises_and_leaves_no_helper(tmp_path):
    owners = {1: np.ones(60, dtype=bool)}
    rng = np.random.default_rng(3)
    record = {1: (np.arange(60), rng.normal(size=(60, 60)), rng.random((60, 60)))}
    # block 2 has no owners entry: round 2 raises KeyError after round 1's rows
    broken = {**record, 2: record[1]}
    logs = [synthetic_log(r, record=broken if r == 2 else record) for r in range(1, 7)]
    with pytest.raises(KeyError):
        write_coefficients_csv(tmp_path / "c.csv", logs, owners)


def _repr_texts(values):
    return [repr(float(x)) for x in np.ravel(values)]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_float_texts_are_the_reprs(values):
    assert _float_texts(values) == _repr_texts(values)


def _ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


_EDGE_GRID = np.arange(24.0).reshape(4, 6) / 7
EDGE_ARRAYS = {
    "empty": np.array([]),
    "signed zeros": np.array([0.0, -0.0, -0.0, 0.0]),
    "1e-4 at one ulp": np.array(_ulps(1e-4) + _ulps(-1e-4)),
    "1e16 at one ulp": np.array(_ulps(1e16) + _ulps(-1e16)),
    "smallest subnormal": np.array([5e-324, -5e-324]),
    "largest double": np.array([np.finfo(np.float64).max, -np.finfo(np.float64).max]),
    "nan and infinities": np.array([np.nan, np.inf, -np.inf, 1.5]),
    "non-contiguous column view": _EDGE_GRID[:, 3],
    "two-dimensional, in C order": _EDGE_GRID * 1e-5,
}


@pytest.mark.parametrize("name", list(EDGE_ARRAYS))
def test_float_texts_of_edge_arrays_are_the_reprs(name):
    values = EDGE_ARRAYS[name]
    assert _float_texts(values) == _repr_texts(values)
