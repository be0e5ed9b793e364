import csv
import json
import reprlib

import numpy as np
import pytest

from fmmlsim import desk_config, orchestrator, recipe_suite
from fmmlsim.cli import main
from fmmlsim.config import config_from_dict, config_to_dict, load_config, validate_config
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


def test_config_round_trip(tmp_path):
    payload = {"seed": 3, "rounds": 7, "algorithm": "fedprox", "quota": 4,
               "metric": "linear", "alpha": 1e-3,
               "data": {"noise_std": 2.5}, "arch": {"encoder_hidden": 8}}
    cfg = load_config(write_cfg(tmp_path, payload))
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


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


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_cli_writes_no_summary_with_a_non_finite_value(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.setattr(orchestrator, "simulated_training_time", lambda logs: bad)
    write_cfg(tmp_path, small_payload(), "base.json")
    code = main(["--config", str(tmp_path / "base.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("run failed:")
    assert not any((tmp_path / "out").iterdir())


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


def test_a_valid_payload_formats_no_error_message(monkeypatch):
    payload = config_to_dict(desk_config())

    def no_repr(value):
        raise AssertionError("reprlib.repr called for a value that passed its check")

    monkeypatch.setattr(reprlib, "repr", no_repr)
    assert config_from_dict(payload) == desk_config()


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
