"""Exact tier of the committed reference outputs: every CLI output file of
each golden run hashes to the value in tests/golden/output_hashes.json
(regenerated by tests/make_golden_hashes.py). The hashes hold only under the
OpenBLAS kernel recorded beside them; under any other, or where the active
kernel cannot be read, every run fails with one line naming both kernels,
not with a hash diff."""

import json

import pytest

from make_golden_hashes import GOLDEN, GOLDEN_CORE, active_blas_core, golden_runs, output_hashes

RUNS = golden_runs()
EXPECTED = json.loads(GOLDEN.read_text())
PINNED_CORE = GOLDEN_CORE.read_text().strip()
ACTIVE_CORE = active_blas_core()


def test_golden_file_covers_every_run():
    assert sorted(EXPECTED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_outputs_match_golden_hashes(name):
    if ACTIVE_CORE != PINNED_CORE:
        pytest.fail(f"golden hashes pin the OpenBLAS kernel {PINNED_CORE}, "
                    f"but the active kernel is {ACTIVE_CORE or 'unreadable'}", pytrace=False)
    expected = EXPECTED[name]
    assert set(expected) >= {"rounds.csv", "schedule.csv", "coefficients.csv", "summary.json"}
    assert output_hashes(RUNS[name]) == expected
