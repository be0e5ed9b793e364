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
from fmmlsim.orchestrator import Simulation
from fmmlsim.reporting import (COEFFS_HEADER, ROUNDS_HEADER, SCHEDULE_HEADER,
                               write_coefficients_csv)


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
