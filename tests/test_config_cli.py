import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fmmlsim import desk_config, recipe_suite
from fmmlsim.cli import main
from fmmlsim.config import (config_from_dict, config_to_dict, load_config,
                            validate_config)
from fmmlsim.errors import ConfigError
from fmmlsim.recipes import RECIPE_NAMES
from fmmlsim.orchestrator import RoundLog, Simulation
from fmmlsim.reporting import (COEFFS_HEADER, GAINS_HEADER, ROUNDS_HEADER, SCHEDULE_HEADER,
                               write_coefficients_csv, write_gains_csv, write_rounds_csv,
                               write_schedule_csv)


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


def test_validation_catches_inconsistencies():
    with pytest.raises(ConfigError, match="input_dims"):
        config_from_dict({"num_modalities": 3})
    with pytest.raises(ConfigError, match="noniid1"):
        config_from_dict({"partition": "noniid1", "data": {"num_classes": 2}})
    with pytest.raises(ConfigError, match="partition"):
        config_from_dict({"partition": "iid"})
    with pytest.raises(ConfigError, match="modality_profile"):
        config_from_dict({"modality_profile": [[4, 1]]})
    with pytest.raises(ConfigError, match="link.bandwidth_hz"):
        config_from_dict({"link": {"bandwidth_hz": 0.0}})
    with pytest.raises(ConfigError, match="compute.cycles_per_s"):
        config_from_dict({"compute": {"cycles_per_s": -1.0}})


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


def test_cli_config_error_exit_code(tmp_path):
    write_cfg(tmp_path, {"quota": 99}, "base.json")
    code = main(["--config", str(tmp_path / "base.json")])
    assert code == 1


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


def coefficients_csv_reference(path, logs, owners):
    """The coefficient writer as one `csv.writer` row per participant pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COEFFS_HEADER)
        for log in logs:
            if log.coeff_snapshot is None:
                continue
            for b in sorted(log.coeff_snapshot):
                raw, eff = log.coeff_snapshot[b]
                idx = np.flatnonzero(owners[b])
                for k in idx:
                    for kp in idx:
                        writer.writerow([log.round, b, int(k), int(kp),
                                         repr(float(raw[k, kp])), repr(float(eff[k, kp]))])


def test_coefficients_csv_bytes_match_the_csv_writer_reference(tmp_path):
    sim = Simulation(desk_config(seed=2, rounds=3, local_iters=2, record_coefficients=True))
    result = sim.run()
    assert any(not owners.all() for owners in sim.owners.values())
    write_coefficients_csv(tmp_path / "fast.csv", result.logs, sim.owners)
    coefficients_csv_reference(tmp_path / "ref.csv", result.logs, sim.owners)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert fast.count(b"\r\n") == 1 + 3 * sum(int(o.sum()) ** 2 for o in sim.owners.values())


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


def synthetic_log(round_, snapshot=None, metric_values=None):
    """A 4-device RoundLog with what the schedule and coefficient writers
    read filled in; the other fields are zeros."""
    zeros = np.zeros(4)
    return RoundLog(round=round_, gains=zeros, t_download=zeros, t_compute=zeros,
                    t_upload=zeros, round_time=0.0,
                    scheduled={1: np.array([1, 0, 1, 0], dtype=np.int8)},
                    staleness={1: np.array([0, 3, 0, 1])}, metric_values=metric_values or {},
                    train_loss=zeros, test_accuracy=zeros, mean_accuracy=0.0,
                    weight_rows_used=[], coeff_snapshot=snapshot)


def test_schedule_csv_leaves_the_metric_cell_empty_for_devices_without_one(tmp_path):
    owners = {1: np.array([True, True, True, False])}
    logs = [synthetic_log(1, metric_values={1: {0: 0.25, 2: -0.0}}), synthetic_log(2)]
    write_schedule_csv(tmp_path / "fast.csv", logs, owners)
    schedule_csv_reference(tmp_path / "ref.csv", logs, owners)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert b"1,1,0,1,0,0.25\r\n1,1,1,0,3,\r\n1,1,2,1,0,-0.0\r\n" in fast


# Owners of the synthetic blocks: every device owns block 1; device 1 does not own block 2.
SYNTHETIC_OWNERS = {1: np.ones(4, dtype=bool), 2: np.array([True, False, True, True])}


def _coefficient_scenarios():
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
    both = lambda r, e: {1: (r, e), 2: (r, e)}
    return {
        "row unchanged across rounds": [both(raw, eff), both(raw.copy(), eff.copy()),
                                        both(raw, eff)],
        "one cell flips between 0.0 and -0.0": [both(raw, eff), both(signed, eff),
                                                both(raw, eff), both(signed, eff)],
        "raw unchanged while effective changes": [both(raw, eff), both(raw, eff_moved),
                                                  both(raw, eff)],
        "row changes then reverts": [both(raw, eff), both(other_raw, other_eff),
                                     both(raw, eff)],
        "no snapshot between recorded rounds": [both(raw, eff), None, both(signed, eff_moved),
                                                None, both(raw, eff)],
        "block owned by only some devices": [both(raw, eff),
                                             {1: (raw, eff), 2: (off_owners, eff)},
                                             {2: (off_owners, eff_moved)}, both(raw, eff)],
    }


@pytest.mark.parametrize("scenario", list(_coefficient_scenarios()))
def test_coefficients_csv_reuses_only_bit_equal_rows(tmp_path, scenario):
    snapshots = _coefficient_scenarios()[scenario]
    logs = [synthetic_log(r, snapshot=s) for r, s in enumerate(snapshots, start=1)]
    write_coefficients_csv(tmp_path / "fast.csv", logs, SYNTHETIC_OWNERS)
    coefficients_csv_reference(tmp_path / "ref.csv", logs, SYNTHETIC_OWNERS)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def test_recipe_unknown_name():
    with pytest.raises(ValueError, match="unknown recipe"):
        recipe_suite("table9_trend")
