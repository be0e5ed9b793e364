"""Workloads, timed repeats, output checks and metrics of the fmmlsim benchmark.

A repeat runs every config of a workload once with the calls the command
line makes (`config_from_dict`, `Simulation`, `Simulation.run`, the
`reporting` writers), done in this process so that set-up, each round and
the writes are timed apart. Per-round time comes from wrapping the `step`
method of the one `Simulation` instance under test; the simulator itself is
not changed. Host times are scaled to a reference machine speed (see
`reference_work`). Every repeat's outputs are checked from outside (see
`check_outputs`), and every repeat of one config must give identical
simulated results.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from fmmlsim import config, nn_core, orchestrator, reporting
from fmmlsim.recipes import desk_config

from tracer import Target, Tracer, span_stats

SETUPS_PER_CONFIG = 3    # set-up is cheap and noisy: take several samples per repeat
MIN_REPEATS = 2          # the second repeat checks that results repeat exactly
MIN_STEP_SAMPLES = 100   # so that at least 10 rounds lie beyond the 90th percentile
HARD_LIMIT_S = 120.0     # never start a repeat that could end past this

# Median time of `reference_work()` on the machine the benchmark was defined
# on (2-core x86_64, Python 3.11, numpy 2.4, OpenBLAS, one thread).
REFERENCE_S = 1.5e-3
_REF_RNG = np.random.default_rng(12345)
_REF_X, _REF_W1, _REF_W2 = (_REF_RNG.normal(size=shape) for shape in ((32, 40), (16, 40), (8, 16)))

# 20 rounds, not the recipe's 50: one repeat then takes seconds, not tens of
# seconds, and a run holds enough repeats for stable medians.
_WIDE = {"rounds": 20, "num_devices": 90, "num_modalities": 3, "data": {"input_dims": [16, 24, 12]},
         "quota": 30, "local_iters": 1, "record_coefficients": True, "record_gains": True}

# Overrides of `desk_config(seed)` per workload; see README.md for why each exists.
WORKLOADS: dict[str, tuple[dict, ...]] = {
    "desk_proposed": ({"algorithm": "proposed"},),
    "desk_baselines": ({"algorithm": "fedavg"}, {"algorithm": "fedprox"}, {"algorithm": "local"}),
    "wide_proposed": ({"algorithm": "proposed", **_WIDE},),
}

# Headers as documented in the README's output table.
CSV_HEADERS = {
    "rounds.csv": "round,device,t_download_s,t_compute_s,t_upload_s,round_time_s,"
                  "train_loss,test_accuracy,mean_accuracy",
    "schedule.csv": "round,block,device,indicator,staleness,metric",
    "coefficients.csv": "round,block,k,k_prime,raw,effective",
    "gains.csv": "round,device,gain",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "device_rounds_per_s": "device-rounds/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "write_s": "s",
    "peak_rss_mb": "MiB",
}

_SPANS = {
    "config": ("config_from_dict",),
    "datagen": ("make_class_means", "assign_modalities", "partition_labels",
                "generate_device_data"),
    "nn_core": ("loss_and_grad", "sgd_step", "forward_batch", "init_full_params",
                "slice_device_params"),
    "wireless": ("sample_round_gains", "link_rate", "download_latency", "compute_latency"),
    "scheduler": ("schedule_round", "schedule_block"),
    "aggregation": ("softmax_row", "masked_renormalize", "build_round_mask", "aggregate",
                    "coeff_jacobian", "estimate_block_gradient", "coeff_grad", "coeff_update",
                    "effective_rows"),
    "orchestrator": ("local_update_phase", "evaluate_personalized"),
    "reporting": ("write_rounds_csv", "write_schedule_csv", "write_coefficients_csv",
                  "write_gains_csv", "write_summary_json"),
}

TRACE_TARGETS: tuple[Target, ...] = (
    *(Target(f"{module}.{fn}", f"fmmlsim.{module}", fn)
      for module, fns in _SPANS.items() for fn in fns),
    # scheduler imports it by name, so it is looked up on scheduler
    Target("wireless.cumulative_upload_latency", "fmmlsim.scheduler", "cumulative_upload_latency"),
    Target("orchestrator.step", "fmmlsim.orchestrator.Simulation", "step"),
    Target("nn_core.paramblock.builds", "fmmlsim.nn_core.ParamBlock", "__post_init__",
           count_only=True),
)

# Per-layer metrics beyond `<span>.calls` and `<span>.self_s`.
DERIVED_UNITS = {
    "orchestrator.step.total_s": "s",
    "orchestrator.local_update_phase.step_share": "fraction",
    "orchestrator.evaluate_personalized.step_share": "fraction",
    "aggregation.step_share": "fraction",
    "nn_core.loss_and_grad.gflop_per_s": "GFLOP/s",
    "aggregation.cache_use_ratio": "ratio",
    "scheduler.uploads": "count",
    "scheduler.forced_uploads": "count",
    "scheduler.upload_bits": "bits",
    "reporting.bytes": "bytes",
    "summary.sim_time_s": "s",
    "summary.mean_accuracy": "fraction",
    "trace.untraced_device_rounds_per_s": "device-rounds/s",
    "trace.traced_device_rounds_per_s": "device-rounds/s",
    "trace.overhead_share": "fraction",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for t in TRACE_TARGETS:
        if t.count_only:
            units[t.name] = "count"
        else:
            units[f"{t.name}.calls"] = "count"
            units[f"{t.name}.self_s"] = "s"
    return {**units, **DERIVED_UNITS}


def per_layer_exact() -> set[str]:
    """Per-layer metrics that are counts and must repeat exactly."""
    return {k for k, unit in per_layer_units().items() if unit in ("count", "bits", "bytes")} | {
        "aggregation.cache_use_ratio", "summary.sim_time_s", "summary.mean_accuracy"}


def reference_work() -> float:
    """Host seconds of a fixed piece of work shaped like the simulator's own.

    Small dense products, a tanh, dict building and float formatting: the
    mix that dominates a round. The machine's speed drifts by tens of
    percent within seconds with load on shared cores, and this work slows
    with it; see `scaled`.
    """
    t0 = perf_counter()
    for _ in range(60):
        h = np.tanh(_REF_X @ _REF_W1.T)
        g = (h @ _REF_W2.T).T @ h
        row = {j: float(g[j, j % 16]) for j in range(8)}
        ",".join(repr(v) for v in row.values())
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """Host seconds taken to the reference speed, from the reference times
    measured just before and just after the timed section."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


def workload_payloads(name: str, seed: int) -> list[dict]:
    """The config dicts a workload hands the simulator, made from the seed."""
    return [config.config_to_dict(desk_config(seed, **overrides))
            for overrides in WORKLOADS[name]]


# ------------------------------ one repeat ------------------------------

@dataclass
class Outcome:
    """Simulated results of one config: identical on every repeat."""

    sim_time_s: float
    mean_accuracy: float
    counters: dict[str, int]


@dataclass
class Repeat:
    """Host times of one repeat; all but `raw_step_s` are `scaled`."""

    setup_s: list[float]                 # per set-up pass, summed over the configs
    step_s: list[float] = field(default_factory=list)
    raw_step_s: list[float] = field(default_factory=list)
    device_rounds: int = 0
    write_s: float = 0.0
    rounds_attempted: int = 0
    failed_rounds: int = 0
    problems: list[str] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)

    @property
    def sim_time_s(self) -> float:
        return sum(o.sim_time_s for o in self.outcomes)

    @property
    def mean_accuracy(self) -> float:
        return statistics.fmean(o.mean_accuracy for o in self.outcomes)


def write_outputs(cfg, sim, result, out_dir: Path) -> None:
    """The writes `fmmlsim.cli.main` makes after a run."""
    reporting.write_rounds_csv(out_dir / "rounds.csv", result.logs, cfg.num_devices)
    reporting.write_schedule_csv(out_dir / "schedule.csv", result.logs, sim.owners)
    logs = result.logs if cfg.record_coefficients else []
    reporting.write_coefficients_csv(out_dir / "coefficients.csv", logs, sim.owners)
    if cfg.record_gains:
        reporting.write_gains_csv(out_dir / "gains.csv", result.logs, cfg.num_devices)
    reporting.write_summary_json(out_dir / "summary.json", result.summary)


def check_outputs(cfg, sim, result, out_dir: Path) -> tuple[set[int], list[str]]:
    """Rounds whose outputs break an invariant, and what broke.

    A run-level failure (the summary's simulated time, a CSV header) marks
    every round of the run.
    """
    bad: set[int] = set()
    problems: list[str] = []

    def fail(rounds, message):
        bad.update(rounds)
        problems.append(message)

    threshold = cfg.staleness_threshold
    for log in result.logs:
        r = log.round
        for b, k, row, mask in log.weight_rows_used:
            if abs(row.sum() - 1.0) > 1e-12 or (row < 0).any() or (row[mask == 0] != 0).any():
                fail([r], f"round {r}: weight row ({k}, block {b}) is not a masked simplex row")
        slowest = float(np.max(log.t_download + log.t_compute + log.t_upload))
        if not math.isclose(log.round_time, slowest, rel_tol=1e-12):
            fail([r], f"round {r}: round_time {log.round_time!r} != slowest device {slowest!r}")
        for b, stale in log.staleness.items():
            if (stale >= threshold).any():
                fail([r], f"round {r}: block {b} staleness reaches the threshold {threshold}")
        for b, ind in log.scheduled.items():
            if (ind[~sim.owners[b]] != 0).any():
                fail([r], f"round {r}: block {b} scheduled on a device that does not own it")
        if not np.isfinite(log.train_loss).all():
            fail([r], f"round {r}: non-finite train loss")

    every = [log.round for log in result.logs]
    summed = math.fsum(log.round_time for log in result.logs)
    if not math.isclose(result.summary["total_simulated_time_s"], summed, rel_tol=1e-12):
        fail(every, "summary total_simulated_time_s is not the sum of round times")
    expected = ["rounds.csv", "schedule.csv", "coefficients.csv"]
    expected += ["gains.csv"] if cfg.record_gains else []
    for name in expected:
        with open(out_dir / name) as fh:
            header = fh.readline().rstrip("\r\n")
        if header != CSV_HEADERS[name]:
            fail(every, f"{name} starts with {header!r}")
    return bad, problems


def round_counters(cfg, sim, result) -> dict[str, int]:
    """Exact counts read from the run's RoundLogs and summary."""
    uploads = forced = bits = 0
    quota = cfg.effective_quota()
    for log in result.logs:
        for b, ind in log.scheduled.items():
            chosen = [int(k) for k in np.flatnonzero(ind)]
            metrics = log.metric_values.get(b, {})
            top = set(sorted(metrics, key=lambda k: (-metrics[k], k))[:quota])
            uploads += len(chosen)
            forced += sum(1 for k in chosen if k not in top)
            bits += len(chosen) * int(sim.sizes_bits[b])
    flop_per_iter = sum(
        sum(nn_core.flops_per_iteration(sim.arch, owned, cfg.batch_size).values())
        for owned in result.summary["owned_modalities"])
    return {
        "scheduler.uploads": uploads,
        "scheduler.forced_uploads": forced,
        "scheduler.upload_bits": bits,
        "aggregation.cache_entries": sum(len(log.weight_rows_used) for log in result.logs),
        "nn_core.loss_and_grad.flop": flop_per_iter * cfg.local_iters * len(result.logs),
    }


def run_repeat(payloads: list[dict], work_dir: Path, tracer: Tracer | None = None) -> Repeat:
    """Set up, run, write and check every config of a workload once.

    With a tracer, set-up runs once per config so call counts describe one
    set-up; without, it runs SETUPS_PER_CONFIG times and the last one runs.
    Every timed section sits between two `reference_work()` calls.
    """
    setups = 1 if tracer is not None else SETUPS_PER_CONFIG
    rep = Repeat(setup_s=[0.0] * setups)
    refs = rep.reference_s
    for payload in payloads:
        if tracer is not None:
            tracer.run += 1
            tracer.round = 0
        refs.append(reference_work())
        for j in range(setups):
            sim = None  # free the previous set-up before timing the next
            t0 = perf_counter()
            cfg = config.config_from_dict(payload)
            sim = orchestrator.Simulation(cfg)
            seconds = perf_counter() - t0
            refs.append(reference_work())
            rep.setup_s[j] += scaled(seconds, refs[-2], refs[-1])

        raw, done = [], []
        step = sim.step

        def timed_step():
            if tracer is not None:
                tracer.round = len(raw) + 1
            t0 = perf_counter()
            log = step()
            raw.append(perf_counter() - t0)
            refs.append(reference_work())
            done.append(scaled(raw[-1], refs[-2], refs[-1]))
            return log

        sim.step = timed_step
        rep.rounds_attempted += cfg.rounds
        out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_dir))
        try:
            result = sim.run()
            if tracer is not None:
                tracer.round = -1
            refs.append(reference_work())
            t0 = perf_counter()
            write_outputs(cfg, sim, result, out_dir)
            seconds = perf_counter() - t0
            refs.append(reference_work())
            rep.write_s += scaled(seconds, refs[-2], refs[-1])
            bad, problems = check_outputs(cfg, sim, result, out_dir)
            counters = round_counters(cfg, sim, result)
            counters["reporting.bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        except Exception as exc:  # a failed run is counted and reported, not fatal
            traceback.print_exc(file=sys.stderr)
            rep.failed_rounds += cfg.rounds
            rep.problems.append(f"{cfg.algorithm}: {type(exc).__name__}: {exc}")
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        rep.step_s += done
        rep.raw_step_s += raw
        rep.device_rounds += cfg.num_devices * len(done)
        rep.failed_rounds += len(bad)
        rep.problems += problems
        rep.outcomes.append(Outcome(result.summary["total_simulated_time_s"],
                                    result.summary["mean_personalized_accuracy"], counters))
    return rep


def mark_if_differs(rep: Repeat, reference: Repeat, what: str) -> None:
    """Count every round of `rep` as failed if its simulated results differ."""
    if rep.outcomes != reference.outcomes:
        rep.failed_rounds = rep.rounds_attempted
        rep.problems.append(f"{what} gave different simulated results")


# ------------------------------ whole runs ------------------------------

@dataclass
class RunReport:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]


def _keep_going(started: float, last: float, seconds: float, enough: bool) -> bool:
    elapsed = perf_counter() - started
    if elapsed + last > HARD_LIMIT_S:
        return False
    return not enough or elapsed + last <= seconds


def _report(repeats: list[Repeat], metrics: dict, notes: list[str]) -> RunReport:
    return RunReport(metrics=metrics,
                     attempted=sum(r.rounds_attempted for r in repeats),
                     failed=sum(r.failed_rounds for r in repeats),
                     problems=[p for r in repeats for p in r.problems],
                     notes=notes)


def device_rounds_per_s(repeats: list[Repeat], raw: bool = False) -> float:
    seconds = math.fsum(s for r in repeats for s in (r.raw_step_s if raw else r.step_s))
    return sum(r.device_rounds for r in repeats) / seconds


def measure(payloads: list[dict], seconds: float, work_dir: Path) -> RunReport:
    """Untraced repeats for `seconds`; the end-to-end metrics."""
    repeats: list[Repeat] = []
    started, last = perf_counter(), 0.0
    while True:
        steps = sum(len(r.step_s) for r in repeats)
        enough = len(repeats) >= MIN_REPEATS and steps >= MIN_STEP_SAMPLES
        if repeats and not _keep_going(started, last, seconds, enough):
            break
        t0 = perf_counter()
        rep = run_repeat(payloads, work_dir)
        last = perf_counter() - t0
        if repeats:
            mark_if_differs(rep, repeats[0], f"repeat {len(repeats) + 1}")
        repeats.append(rep)

    steps = [s for r in repeats for s in r.step_s]
    if len(steps) < 2:
        return _report(repeats, {}, [])
    raw_steps = [s for r in repeats for s in r.raw_step_s]
    setups = [s for r in repeats for s in r.setup_s]
    p90 = statistics.quantiles(steps, n=10)[-1]
    metrics = {
        "setup_s": statistics.median(setups),
        "device_rounds_per_s": device_rounds_per_s(repeats),
        "round_ms_p50": 1e3 * statistics.median(steps),
        "round_ms_p90": 1e3 * p90,
        "write_s": statistics.median(r.write_s for r in repeats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reference = statistics.median(x for r in repeats for x in r.reference_s)
    notes = [f"repeats: {len(repeats)}; set-up samples: {len(setups)}",
             f"round samples: {len(steps)}, {sum(s > p90 for s in steps)} beyond p90",
             f"reference work: median {reference!r} s, {REFERENCE_S!r} s at reference speed",
             f"unscaled: round_ms_p50 {1e3 * statistics.median(raw_steps)!r}, "
             f"device_rounds_per_s {device_rounds_per_s(repeats, raw=True)!r}",
             f"simulated: sim_time_s {repeats[0].sim_time_s!r}, "
             f"mean_accuracy {repeats[0].mean_accuracy!r}"]
    return _report(repeats, metrics, notes)


def _layer_metrics(rep: Repeat, spans, counts) -> dict[str, float]:
    stats = span_stats(spans)
    out: dict[str, float] = {}
    for t in TRACE_TARGETS:
        if t.count_only:
            out[t.name] = counts.get(t.name, 0)
        else:
            calls, own, _ = stats.get(t.name, (0, 0.0, 0.0))
            out[f"{t.name}.calls"] = calls
            out[f"{t.name}.self_s"] = own
    step_total = stats.get("orchestrator.step", (0, 0.0, 0.0))[2]
    share = (lambda x: x / step_total) if step_total > 0 else (lambda x: 0.0)
    agg_self = sum(v[1] for k, v in stats.items() if k.startswith("aggregation."))
    grad_self = out["nn_core.loss_and_grad.self_s"]
    totals = {k: sum(o.counters[k] for o in rep.outcomes) for k in rep.outcomes[0].counters}
    entries = totals["aggregation.cache_entries"]
    out.update({
        "orchestrator.step.total_s": step_total,
        "orchestrator.local_update_phase.step_share":
            share(stats.get("orchestrator.local_update_phase", (0, 0.0, 0.0))[2]),
        "orchestrator.evaluate_personalized.step_share":
            share(stats.get("orchestrator.evaluate_personalized", (0, 0.0, 0.0))[2]),
        "aggregation.step_share": share(agg_self),
        "nn_core.loss_and_grad.gflop_per_s":
            totals["nn_core.loss_and_grad.flop"] / grad_self / 1e9 if grad_self > 0 else 0.0,
        "aggregation.cache_use_ratio":
            out["aggregation.coeff_grad.calls"] / entries if entries else 0.0,
        "scheduler.uploads": totals["scheduler.uploads"],
        "scheduler.forced_uploads": totals["scheduler.forced_uploads"],
        "scheduler.upload_bits": totals["scheduler.upload_bits"],
        "reporting.bytes": totals["reporting.bytes"],
        "summary.sim_time_s": rep.sim_time_s,
        "summary.mean_accuracy": rep.mean_accuracy,
    })
    return out


def trace(payloads: list[dict], seconds: float, work_dir: Path,
          tracer: Tracer) -> RunReport:
    """Alternate untraced and traced repeats for `seconds`; per-layer metrics.

    Counts must repeat exactly across traced repeats; timings are medians.
    """
    untraced: list[Repeat] = []
    traced: list[Repeat] = []
    per_repeat: list[dict[str, float]] = []
    started, last = perf_counter(), 0.0
    while not traced or _keep_going(started, last, seconds, True):
        t0 = perf_counter()
        plain = run_repeat(payloads, work_dir)
        first_span = len(tracer.spans)
        tracer.counts.clear()
        with tracer.installed(TRACE_TARGETS):
            rep = run_repeat(payloads, work_dir, tracer)
        last = perf_counter() - t0
        reference = untraced[0] if untraced else plain
        for r, what in ((plain, "untraced repeat"), (rep, "traced repeat")):
            mark_if_differs(r, reference, what)
        untraced.append(plain)
        traced.append(rep)
        if rep.outcomes:
            per_repeat.append(_layer_metrics(rep, tracer.spans[first_span:],
                                             dict(tracer.counts)))

    repeats = untraced + traced
    if len(per_repeat) < len(traced):
        return _report(repeats, {}, [])
    exact = per_layer_exact()
    for i, m in enumerate(per_repeat[1:], start=2):
        changed = [k for k in exact if m[k] != per_repeat[0][k]]
        if changed:
            traced[i - 1].failed_rounds = traced[i - 1].rounds_attempted
            traced[i - 1].problems.append(f"traced repeat {i}: counts differ: {changed[:5]}")
    metrics = {k: (per_repeat[0][k] if k in exact
                   else statistics.median(m[k] for m in per_repeat))
               for k in per_repeat[0]}
    plain_rate = device_rounds_per_s(untraced)
    traced_rate = device_rounds_per_s(traced)
    metrics["trace.untraced_device_rounds_per_s"] = plain_rate
    metrics["trace.traced_device_rounds_per_s"] = traced_rate
    metrics["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    notes = [f"traced repeats: {len(traced)}; spans kept: {len(tracer.spans)}"]
    if tracer.missing:
        notes.append(f"not present, reported as zero: {', '.join(tracer.missing)}")
    return _report(repeats, metrics, notes)
