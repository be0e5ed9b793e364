"""Run one fmmlsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_proposed --seed 0 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped;
`--trace 1` alternates untraced and traced repeats and reports the
per-layer metrics. `--workload all` runs every workload in turn, each in
its own process. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. Run it from a
checkout: the simulator is imported from the checkout's `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
# Never used while the benchmark was tuned; a claimed gain must also hold here.
HELD_OUT_SEED = 1009

# One BLAS thread: the kernels are too small to gain from more, and extra
# threads only add scheduler noise on a small machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "FMML_SIM_THREADS": "1"}


def machine_info(loadavg: tuple[float, float, float]) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "loadavg_at_start": list(loadavg),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args, workloads) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    os.environ.update(PINNED_ENV)  # before numpy is imported
    if not (SRC / "fmmlsim" / "__init__.py").is_file():
        print(f"fmmlsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fmmlsim

    if Path(fmmlsim.__file__).resolve().parent != SRC / "fmmlsim":
        print(f"fmmlsim imported from {fmmlsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from tracer import Tracer

    args = parse_args(argv, harness.WORKLOADS)
    if args.workload == "all":
        return run_all(args, harness.WORKLOADS)

    work_dir = OUT / "tmp"
    work_dir.mkdir(parents=True, exist_ok=True)
    payloads = harness.workload_payloads(args.workload, args.seed)
    if args.trace:
        tracer = Tracer()
        report = harness.trace(payloads, args.seconds, work_dir, tracer)
        tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        units = harness.per_layer_units()
    else:
        report = harness.measure(payloads, args.seconds, work_dir)
        units = harness.END_TO_END_UNITS

    info = machine_info(loadavg)
    missing = sorted(set(units) - set(report.metrics))
    correct = report.failed == 0 and not report.problems and not missing
    for name, unit in units.items():
        if name in report.metrics:
            print(f"{name} = {report.metrics[name]!r} {unit}")
    for line in report.notes:
        print(f"# {line}")
    print(f"# machine: {json.dumps(info)}")
    for problem in report.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed if correct else max(report.failed, 1),
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in report.metrics},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "notes": report.notes,
              "problems": report.problems}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
