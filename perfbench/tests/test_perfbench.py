"""Tests of the benchmark itself: span arithmetic, patching, output checks."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from tracer import Span, Tracer, resolve, self_times, span_stats  # noqa: E402


def short(workload: str, rounds: int) -> list[dict]:
    return [{**p, "rounds": rounds} for p in harness.workload_payloads(workload, seed=0)]


def calls(rep_spans) -> dict[str, int]:
    return {name: c for name, (c, _, _) in span_stats(rep_spans).items()}


def test_self_time_subtracts_merged_children_clipped_to_the_parent():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, 1, 1),
        Span(1, "a", 1.0, 4.0, 0, 1, 1),
        Span(2, "a.inner", 2.0, 3.0, 1, 1, 1),
        Span(3, "b", 3.0, 6.0, 0, 1, 1),    # overlaps a on [3, 4]
        Span(4, "c", 8.0, 12.0, 0, 1, 1),   # runs past the root's end
        Span(5, "other", 20.0, 21.0, -1, 1, 2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.0})
    stats = span_stats(spans)
    assert stats["root"] == pytest.approx((1, 3.0, 10.0))
    assert stats["a"] == pytest.approx((1, 2.0, 3.0))


def test_every_patched_attribute_is_restored(tmp_path):
    originals = {t: vars(resolve(t.owner))[t.attr] for t in harness.TRACE_TARGETS}
    tracer = Tracer()
    with tracer.installed(harness.TRACE_TARGETS):
        assert all(vars(resolve(t.owner))[t.attr] is not fn for t, fn in originals.items())
        harness.run_repeat(short("desk_proposed", 2), tmp_path, tracer)
    assert tracer.missing == []
    with pytest.raises(RuntimeError):
        with tracer.installed(harness.TRACE_TARGETS):
            raise RuntimeError("abort inside the traced section")
    for target, fn in originals.items():
        assert vars(resolve(target.owner))[target.attr] is fn, target.name


def test_traced_and_untraced_runs_give_the_same_results_and_counts(tmp_path):
    rounds, devices, iters = 3, 9, 12
    payloads = short("desk_proposed", rounds)
    plain = harness.run_repeat(payloads, tmp_path)
    tracer = Tracer()
    traced, counted = [], []
    for _ in range(2):
        first = len(tracer.spans)
        with tracer.installed(harness.TRACE_TARGETS):
            traced.append(harness.run_repeat(payloads, tmp_path, tracer))
        counted.append(calls(tracer.spans[first:]))
    assert plain.failed_rounds == 0 and not plain.problems
    for rep in traced:
        assert rep.outcomes == plain.outcomes
        assert rep.sim_time_s == plain.sim_time_s
        assert rep.mean_accuracy == plain.mean_accuracy
    assert counted[0] == counted[1]
    assert counted[0]["orchestrator.step"] == rounds
    assert counted[0]["orchestrator.local_update_phase"] == devices * rounds
    assert counted[0]["nn_core.loss_and_grad"] == devices * iters * rounds
    assert counted[0]["nn_core.forward_batch"] == devices * rounds
    assert counted[0]["reporting.write_rounds_csv"] == 1
    assert all(s.round == -1 for s in tracer.spans if s.name.startswith("reporting."))
    assert {s.round for s in tracer.spans if s.name == "orchestrator.step"} == {1, 2, 3}


def test_baselines_call_only_the_round_mask_from_aggregation(tmp_path):
    tracer = Tracer()
    with tracer.installed(harness.TRACE_TARGETS):
        rep = harness.run_repeat(short("desk_baselines", 2), tmp_path, tracer)
    assert rep.failed_rounds == 0
    agg = {k: v for k, v in calls(tracer.spans).items() if k.startswith("aggregation.")}
    # fedavg and fedprox build one mask per block per round; local uploads nothing
    assert agg == {"aggregation.build_round_mask": 2 * 3 * 2}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    cfg = harness.config.config_from_dict(short("wide_proposed", 2)[0])
    sim = harness.orchestrator.Simulation(cfg)
    result = sim.run()
    harness.write_outputs(cfg, sim, result, out_dir)
    return cfg, sim, result, out_dir


def test_checks_pass_on_real_outputs(finished_run):
    assert harness.check_outputs(*finished_run) == (set(), [])


@pytest.mark.parametrize("breakage, flagged", [
    (lambda log, sim: log.weight_rows_used[0][2].__setitem__(0, 2.0), {1}),
    (lambda log, sim: setattr(log, "round_time", log.round_time * 1.5), {1, 2}),
    (lambda log, sim: log.staleness[1].__setitem__(0, 10), {1}),
    (lambda log, sim: log.scheduled[1].__setitem__(int((~sim.owners[1]).nonzero()[0][0]), 1),
     {1}),
    (lambda log, sim: log.train_loss.__setitem__(3, float("nan")), {1}),
])
def test_checks_flag_broken_outputs(finished_run, breakage, flagged):
    cfg, sim, result, out_dir = finished_run
    broken = copy.deepcopy(result)
    breakage(broken.logs[0], sim)
    bad, problems = harness.check_outputs(cfg, sim, broken, out_dir)
    assert bad == flagged and problems


def test_checks_flag_a_wrong_csv_header(finished_run, tmp_path):
    cfg, sim, result, out_dir = finished_run
    for p in out_dir.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    (tmp_path / "gains.csv").write_text("round,device,gain_db\n")
    bad, problems = harness.check_outputs(cfg, sim, result, tmp_path)
    assert bad == {1, 2} and "gains.csv" in problems[0]


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_measure_and_trace_report_every_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "MIN_STEP_SAMPLES", 4)
    payloads = short("desk_baselines", 2)
    report = harness.measure(payloads, seconds=0.01, work_dir=tmp_path)
    assert (report.attempted, report.failed, report.problems) == (12, 0, [])
    assert set(report.metrics) == set(harness.END_TO_END_UNITS)
    assert all(v > 0 for v in report.metrics.values())
    report = harness.trace(payloads, seconds=0.01, work_dir=tmp_path, tracer=Tracer())
    assert (report.attempted, report.failed, report.problems) == (12, 0, [])
    assert set(report.metrics) == set(harness.per_layer_units())
    assert report.metrics["orchestrator.step.calls"] == 3 * 2
