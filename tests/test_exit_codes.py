"""The command line's exit-code contract, one table row per input.

Every row runs `cli.main` on a written config file at 1–2 rounds and
asserts the whole contract: the exit code (0 success, 1 config error, 2
runtime error); a stderr that starts with `config error:` or `run failed:`
when the code is not 0; no traceback and no warning on stderr; and, for a
run that exits 0, a `summary.json` of strict JSON and no `nan` or `inf` in
any CSV cell.
"""

import csv
import json
import math

import pytest

from fmmlsim import config_to_dict, desk_config
from fmmlsim.cli import main

# the desk recipe at two rounds; each row patches it
BASE = config_to_dict(desk_config(rounds=2))


def patched(**overrides):
    """The base config file's bytes with `overrides`; a dict patches its section."""
    payload = {**BASE}
    for key, value in overrides.items():
        payload[key] = {**BASE[key], **value} if isinstance(value, dict) else value
    return json.dumps(payload).encode()


# (config file bytes, extra flags, expected exit code)
ROWS = {
    # extreme values that must still run, or fail as a runtime error
    "coeff_lr_1e300": (patched(coeff_lr=1e300), [], 0),
    "lr_denormal": (patched(lr=5e-324), [], 0),
    "batch_10000": (patched(batch_size=10000, local_iters=1, rounds=1), [], 0),
    "two_samples": (patched(data={"samples_per_device": 2}), [], 0),
    "one_device": (patched(num_devices=1, quota=1), [], 0),
    "one_modality": (patched(num_modalities=1, data={"input_dims": [16]}), [], 0),
    "fedprox_mu_1e300": (patched(algorithm="fedprox", fedprox_mu=1e300), [], 2),
    "transmit_power_1e300": (patched(link={"device_power_w": 1e300, "server_power_w": 1e300}),
                             [], 0),
    "transmit_power_snr_overflow": (patched(link={"device_power_w": 1e308}), [], 2),
    "noise_1e300": (patched(link={"noise_density": 1e300}), [], 2),
    # malformed files and values
    "not_utf8": (b"\xff\xfe{}", [], 1),
    "nested_too_deep": (b"[" * 200_000, [], 1),
    "not_an_object": (b"[1]", ["--rounds", "1"], 1),
    "unknown_key": (patched(bogus=1), [], 1),
    "wrong_json_type": (patched(rounds="2"), [], 1),
    "integer_beyond_float": (patched(lr=10 ** 400), [], 1),
    "quota_above_devices": (patched(quota=10), [], 1),
    "partition_5000_chars": (patched(partition="x" * 5000), [], 1),
    # malformed flags are config errors too, not argparse's exit 2
    "flag_algo_unknown": (patched(), ["--algo", "bogus"], 1),
    "flag_seed_not_an_integer": (patched(), ["--seed", "abc"], 1),
    "flag_rounds_not_an_integer": (patched(), ["--rounds", "1.5"], 1),
    "flag_unknown": (patched(), ["--bogus", "1"], 1),
    "flag_khat_without_value": (patched(), ["--khat"], 1),
    "flag_algo_5000_chars": (patched(), ["--algo", "x" * 5000], 1),
    "flag_seed_5000_chars": (patched(), ["--seed", "1" * 4999 + "x"], 1),
    "flag_unknown_5000_chars": (patched(), ["--" + "x" * 5000, "1"], 1),
    "positional_5000_chars": (patched(), ["x" * 5000], 1),
    # a flag replaces an invalid file value before validation
    "flag_replaces_rounds": (patched(rounds=-1), ["--rounds", "1"], 0),
    "flag_replaces_quota": (patched(quota=12), ["--khat", "3"], 0),
}
# a rejected value is echoed abridged or not at all, so a 401-digit integer or a
# 5000-character name, in the file, as a flag's value or as an unrecognized
# flag or positional, still leaves a short line
SHORT_ERROR_ROWS = {"integer_beyond_float", "partition_5000_chars",
                    "flag_algo_5000_chars", "flag_seed_5000_chars",
                    "flag_unknown_5000_chars", "positional_5000_chars"}


def _no_constants(name):
    raise ValueError(f"summary.json holds {name}")


@pytest.mark.parametrize("row", list(ROWS))
def test_exit_code_table(tmp_path, capsys, row):
    text, flags, expected = ROWS[row]
    (tmp_path / "cfg.json").write_bytes(text)
    out = tmp_path / "out"
    code = main(["--config", str(tmp_path / "cfg.json"), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == expected, err
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert err.startswith("config error:" if code == 1 else "run failed:")
        if row in SHORT_ERROR_ROWS:
            assert len(err.rstrip("\n")) < 100, err
        return
    json.loads((out / "summary.json").read_text(), parse_constant=_no_constants)
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for cells in rows[1:]:
            for cell in cells:
                assert cell == "" or math.isfinite(float(cell)), (path.name, cells)


def test_unwritable_out_is_a_runtime_error(tmp_path, capsys):
    (tmp_path / "cfg.json").write_bytes(patched())
    (tmp_path / "file").write_text("")
    code = main(["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "file" / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("run failed:")
    assert "Traceback" not in err and "Warning" not in err
