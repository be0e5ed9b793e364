"""Write tests/golden/output_hashes.json: the SHA-256 of each CLI output file.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_golden_hashes.py

Each golden run goes through `fmmlsim.cli.main`, as a user's run does, and
every file it writes is hashed. The summary's `out_dir` names a temporary
directory, so its value is blanked to `null` before hashing.
`tests/test_golden_hashes.py` reruns the same configs and compares. This
file pins outputs byte for byte: regenerate it only for a change that is
meant to change them, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fmmlsim import desk_config
from fmmlsim.cli import main
from fmmlsim.config import RunConfig, config_to_dict

GOLDEN = Path(__file__).parent / "golden" / "output_hashes.json"
OUTPUTS = ("rounds.csv", "schedule.csv", "coefficients.csv", "gains.csv", "summary.json")

# The benchmark's `wide_proposed` overrides (K=90, 3 modalities), cut to 5 rounds.
WIDE = {"rounds": 5, "num_devices": 90, "num_modalities": 3, "data": {"input_dims": [16, 24, 12]},
        "quota": 30, "local_iters": 1, "record_coefficients": True, "record_gains": True}


def golden_runs() -> dict[str, RunConfig]:
    runs = {}
    for seed in (0, 1009):
        runs[f"desk_proposed_seed{seed}"] = desk_config(
            seed, rounds=10, algorithm="proposed", record_coefficients=True, record_gains=True)
        for algo in ("fedavg", "fedprox", "local"):
            runs[f"desk_{algo}_seed{seed}"] = desk_config(seed, rounds=10, algorithm=algo)
    # the random baseline scheduler, the linear metric and the raw-delta weight update
    runs["desk_fedavg_random_seed0"] = desk_config(
        0, rounds=10, algorithm="fedavg", baseline_scheduler="random")
    runs["desk_fedprox_random_seed1009"] = desk_config(
        1009, rounds=10, algorithm="fedprox", baseline_scheduler="random")
    runs["desk_proposed_linear_seed0"] = desk_config(
        0, rounds=10, algorithm="proposed", metric="linear", alpha=1e-3,
        record_coefficients=True)
    runs["desk_proposed_raw_delta_seed1009"] = desk_config(
        1009, rounds=10, algorithm="proposed", gradient_estimate="raw_delta",
        record_coefficients=True)
    runs["wide_proposed_seed0"] = desk_config(0, algorithm="proposed", **WIDE)
    return runs


def output_hashes(cfg: RunConfig) -> dict[str, str]:
    """Run `cfg` through the CLI; SHA-256 of each output file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"fmmlsim exited with code {code}")
        hashes = {}
        for name in OUTPUTS:
            path = out / name
            if not path.exists():
                continue
            data = path.read_bytes()
            if name == "summary.json":
                where = b'"out_dir": ' + json.dumps(str(out)).encode()
                if data.count(where) != 1:
                    raise RuntimeError("summary.json does not name its out_dir once")
                data = data.replace(where, b'"out_dir": null')
            hashes[name] = hashlib.sha256(data).hexdigest()
        return hashes


def main_() -> int:
    table = {name: output_hashes(cfg) for name, cfg in golden_runs().items()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
