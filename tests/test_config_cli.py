import csv
import json
import math
import re
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from fmmlsim import desk_config, orchestrator, recipe_suite
from fmmlsim.cli import main
from fmmlsim.config import (RunConfig, config_from_dict, config_to_dict, load_config,
                            validate_config)
from fmmlsim.errors import ConfigError
from fmmlsim.recipes import RECIPE_NAMES
from fmmlsim.orchestrator import Simulation
from fmmlsim.reporting import (COEFFS_HEADER, GAINS_HEADER, ROUNDS_HEADER, SCHEDULE_HEADER,
                               write_gains_csv, write_rounds_csv, write_schedule_csv)
from forms import synthetic_log


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_minimal_config_applies_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"seed": 5}))
    assert cfg.seed == 5
    assert cfg.coeff_lr == 0.01
    assert cfg.staleness_threshold == 10
    assert cfg.lr == pytest.approx(2e-4)
    assert cfg.rounds == 50


def test_quota_above_device_count_rejected(tmp_path):
    with pytest.raises(ConfigError, match="quota"):
        load_config(write_cfg(tmp_path, {"num_devices": 9, "quota": 10}))


def test_unknown_keys_rejected_with_path(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write_cfg(tmp_path, {"bogus": 1}))
    with pytest.raises(ConfigError, match="data.sigma"):
        load_config(write_cfg(tmp_path, {"data": {"sigma": 2.0}}))


def test_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="read"):
        load_config(tmp_path / "absent.json")


def test_config_round_trip(tmp_path):
    payload = {"seed": 3, "rounds": 7, "algorithm": "fedprox", "quota": 4,
               "metric": "linear", "alpha": 1e-3,
               "data": {"noise_std": 2.5}, "arch": {"encoder_hidden": 8}}
    cfg = load_config(write_cfg(tmp_path, payload))
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


# One value just outside each declared field range, with the dotted path that
# rejects it; the data generators, the kernel, the scheduler and the link model
# trust these values, so the config boundary is their only check.
OUT_OF_RANGE = [
    ({"seed": -1}, "seed"),
    ({"rounds": -1}, "rounds"),
    ({"num_devices": 0}, "num_devices"),
    ({"num_modalities": 0}, "num_modalities"),
    ({"partition": "iid"}, "partition"),
    ({"algorithm": "fedsgd"}, "algorithm"),
    ({"fedprox_mu": math.nextafter(0.0, -1.0)}, "fedprox_mu"),
    ({"data": {"num_classes": 1}}, "data.num_classes"),
    ({"data": {"input_dims": [0, 24]}}, "data.input_dims"),
    ({"data": {"noise_std": 0.0}}, "data.noise_std"),
    ({"data": {"mean_separation": 0.0}}, "data.mean_separation"),
    ({"data": {"samples_per_device": 1}}, "data.samples_per_device"),
    ({"data": {"train_fraction": 0.0}}, "data.train_fraction"),
    ({"data": {"train_fraction": 1.0}}, "data.train_fraction"),
    ({"arch": {"encoder_hidden": 0}}, "arch.encoder_hidden"),
    ({"arch": {"feature_len": 0}}, "arch.feature_len"),
    ({"arch": {"classifier_hidden": [0]}}, "arch.classifier_hidden"),
    ({"arch": {"classifier_hidden": [16, 0]}}, "arch.classifier_hidden"),
    ({"link": {"bandwidth_hz": 0.0}}, "link.bandwidth_hz"),
    ({"link": {"noise_density": 0}}, "link.noise_density"),
    ({"link": {"device_power_w": 0.0}}, "link.device_power_w"),
    ({"link": {"server_power_w": 0.0}}, "link.server_power_w"),
    ({"link": {"carrier_ghz": 0}}, "link.carrier_ghz"),
    ({"link": {"cell_radius_m": 0.0}}, "link.cell_radius_m"),
    ({"compute": {"cycles_per_s": 0.0}}, "compute.cycles_per_s"),
    ({"compute": {"cycles_per_s": -1.0}}, "compute.cycles_per_s"),
    ({"compute": {"flops_per_cycle": 0.0}}, "compute.flops_per_cycle"),
    ({"compute": {"heterogeneity": math.nextafter(1.0, 0.0)}}, "compute.heterogeneity"),
    ({"lr": 0}, "lr"),
    ({"coeff_lr": math.nextafter(0.0, -1.0)}, "coeff_lr"),
    ({"local_iters": 0}, "local_iters"),
    ({"batch_size": 0}, "batch_size"),
    ({"staleness_threshold": 0}, "staleness_threshold"),
    ({"metric": "harmonic"}, "metric"),
    ({"alpha": -1}, "alpha"),
    ({"alpha": math.nextafter(0.0, -1.0)}, "alpha"),
    ({"gradient_estimate": "exact"}, "gradient_estimate"),
    ({"baseline_scheduler": "uniform"}, "baseline_scheduler"),
]


def test_validation_catches_inconsistencies():
    with pytest.raises(ConfigError, match="input_dims"):
        config_from_dict({"num_modalities": 3})
    with pytest.raises(ConfigError, match="noniid1"):
        config_from_dict({"partition": "noniid1", "data": {"num_classes": 2}})
    with pytest.raises(ConfigError, match="modality_profile"):
        config_from_dict({"modality_profile": [[4, 1]]})
    with pytest.raises(ConfigError, match="data.num_classes: must be >= 2"):
        config_from_dict({"partition": "noniid2", "data": {"num_classes": 1}})
    for payload, path in OUT_OF_RANGE:
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: must be "):
            config_from_dict(payload)


def _declared_ranges(cls=RunConfig, where=""):
    """(dotted path, default, (accepts, what)) of each ranged config field."""
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            yield from _declared_ranges(f.default_factory, f"{f.name}.")
        elif "range" in f.metadata:
            yield where + f.name, f.default, f.metadata["range"]


def test_every_declared_range_accepts_its_default_and_has_an_out_of_range_row():
    # the walk checks given values only, so a default outside its range would pass unseen
    ranged = list(_declared_ranges())
    for path, default, (accepts, what) in ranged:
        assert accepts(default), f"{path}: default {default!r} is not {what}"
    assert {path for path, _, _ in ranged} == {path for _, path in OUT_OF_RANGE}


@pytest.mark.parametrize("payload, field", [
    ({"rounds": "5"}, "rounds"),
    ({"quota": 2.5}, "quota"),
    ({"local_iters": 1.5}, "local_iters"),
    ({"seed": -1}, "seed"),
    ({"rounds": True}, "rounds"),
    ({"modality_profile": [[-1, 1], [10, 1]]}, "modality_profile"),
    ({"num_devices": 1, "modality_profile": [[1, 1]]}, "modality_profile"),
    # json.loads parses Infinity; every float field must be finite
    ({"compute": {"heterogeneity": float("inf")}}, "compute.heterogeneity"),
    ({"coeff_lr": float("inf")}, "coeff_lr"),
    ({"link": {"bandwidth_hz": float("inf")}}, "link.bandwidth_hz"),
    ({"lr": float("inf")}, "lr"),
    ({"alpha": float("inf")}, "alpha"),
    ({"lr": 10 ** 400}, "lr"),  # an integer beyond the float range
])
def test_cli_rejects_mistyped_values(tmp_path, capsys, payload, field):
    write_cfg(tmp_path, payload, "base.json")
    assert main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("payload, field", [
    ({"data": {"input_dims": [16, 24.0]}}, "data.input_dims"),
    ({"arch": {"classifier_hidden": ["16"]}}, "arch.classifier_hidden"),
    ({"modality_profile": [[6, 1], [3, 2.0]]}, "modality_profile"),
    ({"modality_profile": [[9]]}, "modality_profile"),
    ({"lr": True}, "lr"),
    ({"link": {"carrier_ghz": "2.6"}}, "link.carrier_ghz"),
])
def test_typed_fields_reject_other_json_types(payload, field):
    with pytest.raises(ConfigError, match=field):
        config_from_dict(payload)


def run_cli(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["--rounds", "2", "--seed", "1", "--out", str(out),
                 "--config", str(tmp_path / "base.json"), *extra])
    return code, out


def small_payload():
    return {"rounds": 2, "local_iters": 2,
            "data": {"samples_per_device": 40}, "record_coefficients": True}


def test_cli_writes_all_outputs(tmp_path):
    write_cfg(tmp_path, small_payload(), "base.json")
    code, out = run_cli(tmp_path)
    assert code == 0
    for name in ("rounds.csv", "schedule.csv", "coefficients.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    for key in ("seed", "algo", "mean_personalized_accuracy",
                "total_simulated_time_s", "rounds"):
        assert key in summary
    assert summary["rounds"] == 2
    assert summary["seed"] == 1


def test_cli_zero_rounds(tmp_path):
    write_cfg(tmp_path, small_payload(), "base.json")
    code, out = run_cli(tmp_path, "--rounds", "0")
    assert code == 0
    lines = (out / "rounds.csv").read_text().splitlines()
    assert lines == [",".join(ROUNDS_HEADER)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 0


def test_cli_flag_overrides(tmp_path):
    write_cfg(tmp_path, small_payload(), "base.json")
    code, out = run_cli(tmp_path, "--algo", "local", "--khat", "2",
                        "--metric", "linear", "--alpha", "0.01", "--ath", "4")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algo"] == "local"
    assert summary["config"]["quota"] == 2
    assert summary["config"]["metric"] == "linear"
    assert summary["config"]["alpha"] == 0.01
    assert summary["config"]["staleness_threshold"] == 4


def test_cli_gains_trace(tmp_path):
    payload = {**small_payload(), "record_gains": True}
    write_cfg(tmp_path, payload, "base.json")
    code, out = run_cli(tmp_path)
    assert code == 0
    lines = (out / "gains.csv").read_text().splitlines()
    assert lines[0] == "round,device,gain"
    assert len(lines) == 1 + 2 * 9  # two rounds, nine devices


@pytest.mark.parametrize("file_value, flag, key, flag_value", [
    ({"rounds": -1}, "--rounds", "rounds", 1),
    ({"quota": 12}, "--khat", "quota", 3),
], ids=["rounds", "quota"])
def test_cli_flag_replaces_an_invalid_file_value(tmp_path, file_value, flag, key, flag_value):
    write_cfg(tmp_path, {**small_payload(), **file_value}, "base.json")
    out = tmp_path / "out"
    code = main(["--config", str(tmp_path / "base.json"), flag, str(flag_value),
                 "--out", str(out)])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["config"][key] == flag_value


def test_cli_rejects_a_file_that_is_not_an_object_also_with_flags(tmp_path, capsys):
    (tmp_path / "base.json").write_text("[1]")
    code = main(["--config", str(tmp_path / "base.json"), "--rounds", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config: expected an object")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_config_error_exit_code(tmp_path):
    write_cfg(tmp_path, {"quota": 99}, "base.json")
    code = main(["--config", str(tmp_path / "base.json")])
    assert code == 1


def test_cli_help_exits_0_with_the_usage_on_stdout(capsys):
    # --help is argparse's own exit 0, not the config error of a malformed flag
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 0 and err == ""
    assert out.startswith("usage: fmmlsim [-h] [--config CONFIG]")
    for flag in ("--seed", "--rounds", "--algo", "--khat", "--metric", "--alpha", "--ath",
                 "--out"):
        assert f"  {flag} " in out


@pytest.mark.parametrize("text", [
    b"\xff\xfe{}",                        # not UTF-8
    b"[" * 200_000,                        # nested deeper than the JSON decoder recurses
    b'{"seed": ' + b"1" * 5000 + b"}",     # more digits than int() converts
], ids=["not_utf8", "nested_too_deep", "too_many_digits"])
def test_cli_reports_a_malformed_config_file_as_a_config_error(tmp_path, capsys, text):
    (tmp_path / "base.json").write_bytes(text)
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")
    assert not (tmp_path / "out").exists()


def test_cli_fails_on_a_metric_that_is_not_finite(tmp_path, capsys):
    # every linear metric overflows to -inf; ranking by it would pick devices by id
    cfg = desk_config(rounds=2, metric="linear", alpha=1e308)
    write_cfg(tmp_path, config_to_dict(cfg), "base.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("run failed: linear metric is not finite")
    assert not (tmp_path / "out" / "schedule.csv").exists()


def test_cli_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    write_cfg(tmp_path, small_payload(), "base.json")
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")

    def run_not_allowed(self):
        raise AssertionError("Simulation.run called although --out cannot be created")

    monkeypatch.setattr(Simulation, "run", run_not_allowed)
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(not_a_dir / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("run failed:")


@pytest.mark.parametrize("link", [
    {"carrier_ghz": 1e-300},      # the gain is finite, its square is not: the SNR overflows
    {"noise_density": 5e-324},    # the noise power is subnormal: the SNR overflows
    {"carrier_ghz": 1e-320},      # the path gain itself overflows
])
def test_cli_fails_on_an_overflowing_link(tmp_path, capsys, link):
    write_cfg(tmp_path, {**small_payload(), "link": link}, "base.json")
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "Warning" not in err
    assert not (tmp_path / "out" / "rounds.csv").exists()


@pytest.mark.parametrize("compute", [
    {"cycles_per_s": 1e-200, "flops_per_cycle": 1e-200},  # the FLOP rate underflows to 0
    {"cycles_per_s": 1e300, "flops_per_cycle": 1e300},    # the FLOP rate overflows: free compute
    {"cycles_per_s": 1e-320},                             # subnormal rate: the time overflows
])
def test_cli_fails_on_an_unrepresentable_compute_time(tmp_path, capsys, monkeypatch, compute):
    def run_not_allowed(self):
        raise AssertionError("Simulation.run called with an unrepresentable compute time")

    monkeypatch.setattr(Simulation, "run", run_not_allowed)
    write_cfg(tmp_path, {"rounds": 1, "compute": compute}, "base.json")
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "compute" in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_fails_when_finite_round_times_sum_to_infinity(tmp_path, capsys):
    # each round takes about 6.3e307 s, finite, but three of them overflow
    write_cfg(tmp_path, {"rounds": 3, "local_iters": 1, "compute": {"cycles_per_s": 2e-303}},
              "base.json")
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "total simulated time" in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_fails_on_a_hidden_layer_overflow_that_tanh_saturates(tmp_path, capsys):
    # the head's hidden pre-activations overflow to inf, tanh maps them to
    # +-1 and the class scores stay finite: only the overflow itself shows it
    write_cfg(tmp_path, {"rounds": 2, "lr": 1e300}, "base.json")
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: device ") and "overflow" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_cli_writes_no_summary_with_a_non_finite_value(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.setattr(orchestrator, "simulated_training_time", lambda logs: bad)
    write_cfg(tmp_path, small_payload(), "base.json")
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("run failed:")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_summary_bytes_do_not_depend_on_the_out_dir(tmp_path):
    write_cfg(tmp_path, small_payload(), "base.json")
    summaries = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(tmp_path / "base.json"), "--out", str(out)]) == 0
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["config"]["out_dir"] is None


def test_cli_byte_identical_outputs(tmp_path):
    write_cfg(tmp_path, small_payload(), "base.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(tmp_path / "base.json"), "--seed", "3",
                     "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("rounds.csv", "schedule.csv", "coefficients.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_csv_headers_are_stable(tmp_path):
    write_cfg(tmp_path, small_payload(), "base.json")
    _, out = run_cli(tmp_path)
    assert (out / "rounds.csv").read_text().splitlines()[0] == \
        "round,device,t_download_s,t_compute_s,t_upload_s,round_time_s,train_loss,test_accuracy,mean_accuracy"
    assert (out / "schedule.csv").read_text().splitlines()[0] == \
        "round,block,device,indicator,staleness,metric"
    assert (out / "coefficients.csv").read_text().splitlines()[0] == \
        "round,block,k,k_prime,raw,effective"
    assert ROUNDS_HEADER[0] == "round" and SCHEDULE_HEADER[1] == "block"
    assert COEFFS_HEADER[-1] == "effective"


def _fmt(x):
    return repr(float(x))


def rounds_csv_reference(path, logs, num_devices):
    """The rounds writer as one `csv.writer` row per (round, device)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_HEADER)
        for log in logs:
            for k in range(num_devices):
                writer.writerow([
                    log.round, k, _fmt(log.t_download[k]), _fmt(log.t_compute[k]),
                    _fmt(log.t_upload[k]), _fmt(log.round_time),
                    _fmt(log.train_loss[k]), _fmt(log.test_accuracy[k]),
                    _fmt(log.mean_accuracy)])


def schedule_csv_reference(path, logs, owners):
    """The schedule writer as one `csv.writer` row per (round, block, owner)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_HEADER)
        for log in logs:
            for b in sorted(log.scheduled):
                for k in np.flatnonzero(owners[b]):
                    metric = log.metric_values.get(b, {}).get(int(k), "")
                    writer.writerow([
                        log.round, b, int(k), int(log.scheduled[b][k]),
                        int(log.staleness[b][k]),
                        _fmt(metric) if metric != "" else ""])


def gains_csv_reference(path, logs, num_devices):
    """The gains writer as one `csv.writer` row per (round, device)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GAINS_HEADER)
        for log in logs:
            for k in range(num_devices):
                writer.writerow([log.round, k, _fmt(log.gains[k])])


@pytest.mark.parametrize("overrides", [
    {"algorithm": "proposed", "record_gains": True},
    {"algorithm": "fedavg"},
    {"algorithm": "local"},  # no scheduler metrics: every metric cell is empty
])
def test_round_schedule_and_gains_csv_bytes_match_the_csv_writer_references(tmp_path, overrides):
    cfg = desk_config(seed=2, rounds=3, local_iters=2, **overrides)
    sim = Simulation(cfg)
    logs = sim.run().logs
    pairs = [(write_rounds_csv, rounds_csv_reference, cfg.num_devices),
             (write_schedule_csv, schedule_csv_reference, sim.owners),
             (write_gains_csv, gains_csv_reference, cfg.num_devices)]
    for fast, reference, arg in pairs:
        fast(tmp_path / "fast.csv", logs, arg)
        reference(tmp_path / "ref.csv", logs, arg)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_schedule_csv_leaves_the_metric_cell_empty_for_devices_without_one(tmp_path):
    owners = {1: np.array([True, True, True, False])}
    logs = [synthetic_log(1, metric_values={1: {0: 0.25, 2: -0.0}}), synthetic_log(2)]
    write_schedule_csv(tmp_path / "fast.csv", logs, owners)
    schedule_csv_reference(tmp_path / "ref.csv", logs, owners)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert b"1,1,0,1,0,0.25\r\n1,1,1,0,3,\r\n1,1,2,1,0,-0.0\r\n" in fast


def test_recipe_suites_validate_and_count():
    assert len(recipe_suite("table1_trend")) == 12
    assert len(recipe_suite("table3_trend")) == 4
    assert len(recipe_suite("table4_trend")) == 9
    assert len(recipe_suite("table5_trend")) == 6
    fig3 = recipe_suite("fig3_trend")
    assert len(fig3) == 1
    assert fig3[0][1].record_coefficients
    for name in RECIPE_NAMES:
        for label, cfg in recipe_suite(name):
            validate_config(cfg)  # must not raise
            assert label


def test_desk_config_patches_a_section_key_by_key():
    cfg = desk_config(compute={"heterogeneity": 2.0})
    assert cfg.compute.heterogeneity == 2.0
    assert cfg.compute.cycles_per_s == 7e5  # the base's, not the library default


def test_recipe_unknown_name():
    with pytest.raises(ValueError, match="unknown recipe"):
        recipe_suite("table9_trend")
