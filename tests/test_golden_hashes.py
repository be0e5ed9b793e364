"""Exact tier of the committed reference outputs: every CLI output file of
each golden run hashes to the value in tests/golden/output_hashes.json
(regenerated by tests/make_golden_hashes.py)."""

import json

import pytest

from make_golden_hashes import GOLDEN, golden_runs, output_hashes

RUNS = golden_runs()
EXPECTED = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_run():
    assert sorted(EXPECTED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_outputs_match_golden_hashes(name):
    expected = EXPECTED[name]
    assert set(expected) >= {"rounds.csv", "schedule.csv", "coefficients.csv", "summary.json"}
    assert output_hashes(RUNS[name]) == expected
