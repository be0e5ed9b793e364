"""The command line's exit-code contract, one table row per input.

`ROWS` is the one list of which input gives which exit: 0 success, 1 config
error, 2 runtime error, and `check_row` is the one place that runs the
command line to check an exit (CI only runs the installed script once).
`check_row` runs a row's config file and flags through `cli.main` in an
empty directory and asserts the whole contract: the exit code and the start
of stderr (`config error:` or `run failed:` when the code is not 0, nothing
on stderr when it is); no traceback, with warnings raised as errors; a
one-line error, under 100 bytes where the input echoes a long value;
nothing made by a config error, not even the `--out` directory, no file
written by a failed run; no `Simulation.run` call for a failure reported
before any round runs, and one for every other row that gets past its
config. For a run that exits 0 it asserts a `summary.json` of strict JSON
that echoes each flag's value, has a null `config.out_dir` and a `seed`,
`algo` and `rounds` equal to its config's; exactly the output files the
config asks for, `gains.csv` only with `record_gains`; each CSV's header;
each CSV's data-line count from the rounds, K and the owners of each block
(`data_lines`); and no `nan` or `inf` in any CSV cell.
"""

import contextlib
import csv
import io
import json
import math
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import pytest

from fmmlsim import config_to_dict, desk_config
from fmmlsim.cli import build_parser, main
from fmmlsim.config import RunConfig
from fmmlsim.orchestrator import Simulation


class Row(NamedTuple):
    text: bytes | None              # the config file's bytes; None: no file at that path
    flags: tuple[str, ...] = ()
    code: int = 0
    err: str = ""                   # the start of stderr; a config error names the dotted path
    before_run: bool = False        # reported before any round runs: Simulation.run is not called
    short_error: bool = False       # echoes a long value: the error line is under 100 bytes


# the desk recipe at two rounds; most rows patch it
BASE = config_to_dict(desk_config(rounds=2))


def config_file(payload):
    return json.dumps(payload).encode()


def patched(**overrides):
    """The base config file's bytes with `overrides`; a dict patches its section."""
    payload = {**BASE}
    for key, value in overrides.items():
        payload[key] = {**BASE[key], **value} if isinstance(value, dict) else value
    return config_file(payload)


def rejected(err, **overrides):
    """A row whose patched file is a config error starting `config error: {err}`."""
    return Row(patched(**overrides), code=1, err=f"config error: {err}")


BELOW_ZERO = math.nextafter(0.0, -1.0)
NOT_JSON = "config error: config is not valid JSON"
NOT_FINITE = "must be a finite number"
NOT_INTS = "must be a list of integers"
NOT_PAIRS = "must be a list of [count, modalities] integer pairs"
OVERFLOW_IN_SGD = "run failed: device 0: local SGD overflow"
SNR_OVERFLOW = "run failed: link rate is not finite (SNR inf)"

ROWS = {
    # extreme values that must still run, or fail as a runtime error
    "coeff_lr_1e300": Row(patched(coeff_lr=1e300)),
    "lr_denormal": Row(patched(lr=5e-324)),
    "batch_10000": Row(patched(batch_size=10000, local_iters=1, rounds=1)),
    "two_samples": Row(patched(data={"samples_per_device": 2})),
    "one_device": Row(patched(num_devices=1, quota=1)),
    "one_modality": Row(patched(num_modalities=1, data={"input_dims": [16]})),
    "transmit_power_1e300": Row(patched(link={"device_power_w": 1e300, "server_power_w": 1e300})),
    "fedprox_mu_1e300": Row(patched(algorithm="fedprox", fedprox_mu=1e300), code=2,
                            err=OVERFLOW_IN_SGD),
    # the head's hidden pre-activations overflow and tanh saturates them to
    # +-1, so the class scores stay finite: only the overflow itself shows it
    "lr_1e300_tanh_saturates": Row(config_file({"rounds": 2, "lr": 1e300}), code=2,
                                   err=OVERFLOW_IN_SGD),
    # every linear metric overflows to -inf; ranking by it would pick devices by id
    "linear_alpha_1e308": Row(patched(metric="linear", alpha=1e308), code=2,
                              err="run failed: linear metric is not finite"),
    "transmit_power_snr_overflow": Row(patched(link={"device_power_w": 1e308}), code=2,
                                       err=SNR_OVERFLOW),
    # the gain is finite, its square is not
    "carrier_1e-300": Row(patched(link={"carrier_ghz": 1e-300}), code=2, err=SNR_OVERFLOW),
    # a subnormal noise power
    "noise_5e-324": Row(patched(link={"noise_density": 5e-324}), code=2, err=SNR_OVERFLOW),
    "carrier_1e-320": Row(patched(link={"carrier_ghz": 1e-320}), code=2,
                          err="run failed: path gain overflows at "),
    # the uplink rate underflows to 0; the message leads with the model's bit count
    "noise_1e300": Row(patched(link={"noise_density": 1e300}), code=2, err="run failed: "),
    "compute_rate_underflows": Row(
        patched(compute={"cycles_per_s": 1e-200, "flops_per_cycle": 1e-200}), code=2,
        err="run failed: compute rate 0.0 FLOP/s is not positive", before_run=True),
    "compute_rate_overflows": Row(
        patched(compute={"cycles_per_s": 1e300, "flops_per_cycle": 1e300}), code=2,
        err="run failed: compute rate inf FLOP/s is not positive", before_run=True),
    "compute_time_overflows": Row(
        patched(compute={"cycles_per_s": 1e-320}), code=2,
        err="run failed: compute time is not finite", before_run=True),
    # each round takes about 6.3e307 s, finite, but three of them overflow
    "round_times_sum_to_inf": Row(
        config_file({"rounds": 3, "local_iters": 1, "compute": {"cycles_per_s": 2e-303}}),
        code=2, err="run failed: total simulated time inf s is not finite"),
    # the config file itself is not a directory
    "out_not_creatable": Row(patched(), ("--out", "cfg.json/out"), code=2,
                             err="run failed: [Errno 20] Not a directory: 'cfg.json/out'",
                             before_run=True),
    # malformed files
    "no_file": Row(None, code=1, err="config error: cannot read config file: [Errno 2]"),
    "not_json": Row(b"{not json", code=1, err=NOT_JSON),
    "not_utf8": Row(b"\xff\xfe{}", code=1, err=NOT_JSON),
    # nested deeper than the JSON decoder recurses
    "nested_too_deep": Row(b"[" * 200_000, code=1, err=NOT_JSON, short_error=True),
    # more digits than int() converts
    "too_many_digits": Row(b'{"seed": ' + b"1" * 5000 + b"}", code=1, err=NOT_JSON,
                           short_error=True),
    "not_an_object": Row(b"[1]", ("--rounds", "1"), code=1,
                         err="config error: config: expected an object"),
    "unknown_key": rejected("unknown key bogus", bogus=1),
    "unknown_section_key": rejected("unknown key data.sigma", data={"sigma": 2.0}),
    # values of another JSON type; json.loads parses Infinity, and every float must be finite.
    # A rejected value is echoed abridged or not at all, so a 401-digit integer or a
    # 5000-character name, in the file, as a flag's value or as an unrecognized flag
    # or positional, still leaves a short line
    "rounds='2'": rejected("rounds: must be an integer, got '2'", rounds="2"),
    "rounds=true": rejected("rounds: must be an integer, got True", rounds=True),
    "quota=2.5": rejected("quota: must be an integer", quota=2.5),
    "local_iters=1.5": rejected("local_iters: must be an integer", local_iters=1.5),
    "lr=true": rejected(f"lr: {NOT_FINITE}, got True", lr=True),
    "lr=inf": rejected(f"lr: {NOT_FINITE}", lr=math.inf),
    "coeff_lr=inf": rejected(f"coeff_lr: {NOT_FINITE}", coeff_lr=math.inf),
    "alpha=inf": rejected(f"alpha: {NOT_FINITE}", alpha=math.inf),
    "link.bandwidth_hz=inf": rejected(f"link.bandwidth_hz: {NOT_FINITE}",
                                      link={"bandwidth_hz": math.inf}),
    "link.carrier_ghz='2.6'": rejected(f"link.carrier_ghz: {NOT_FINITE}",
                                       link={"carrier_ghz": "2.6"}),
    "compute.heterogeneity=inf": rejected(f"compute.heterogeneity: {NOT_FINITE}",
                                          compute={"heterogeneity": math.inf}),
    "data.input_dims_float": rejected(f"data.input_dims: {NOT_INTS}",
                                      data={"input_dims": [16, 24.0]}),
    "arch.classifier_hidden_string": rejected(f"arch.classifier_hidden: {NOT_INTS}",
                                              arch={"classifier_hidden": ["16"]}),
    "modality_profile_float": rejected(f"modality_profile: {NOT_PAIRS}",
                                       modality_profile=[[6, 1], [3, 2.0]]),
    "modality_profile_single": rejected(f"modality_profile: {NOT_PAIRS}",
                                        modality_profile=[[9]]),
    "integer_beyond_float": rejected(f"lr: {NOT_FINITE}, got 1000",
                                     lr=10 ** 400)._replace(short_error=True),
    "partition_5000_chars": rejected("partition: must be one of",
                                     partition="x" * 5000)._replace(short_error=True),
    # one value just outside each declared field range, rejected with its dotted path
    "seed=-1": rejected("seed: must be >= 0", seed=-1),
    "rounds=-1": rejected("rounds: must be >= 0", rounds=-1),
    "num_devices=0": rejected("num_devices: must be >= 1", num_devices=0),
    "num_modalities=0": rejected("num_modalities: must be >= 1", num_modalities=0),
    "partition=iid": rejected("partition: must be one of ('noniid1', 'noniid2', 'noniid3')",
                              partition="iid"),
    "algorithm=fedsgd": rejected(
        "algorithm: must be one of ('proposed', 'fedavg', 'local', 'fedprox')",
        algorithm="fedsgd"),
    "fedprox_mu<0": rejected("fedprox_mu: must be >= 0", fedprox_mu=BELOW_ZERO),
    "data.num_classes=1": rejected("data.num_classes: must be >= 2", data={"num_classes": 1}),
    "data.input_dims=[0,24]": rejected("data.input_dims: must be >= 1 in every entry",
                                       data={"input_dims": [0, 24]}),
    "data.noise_std=0": rejected("data.noise_std: must be positive", data={"noise_std": 0.0}),
    "data.mean_separation=0": rejected("data.mean_separation: must be positive",
                                       data={"mean_separation": 0.0}),
    "data.samples_per_device=1": rejected("data.samples_per_device: must be >= 2",
                                          data={"samples_per_device": 1}),
    "data.train_fraction=0": rejected("data.train_fraction: must be in (0, 1)",
                                      data={"train_fraction": 0.0}),
    "data.train_fraction=1": rejected("data.train_fraction: must be in (0, 1)",
                                      data={"train_fraction": 1.0}),
    "arch.encoder_hidden=0": rejected("arch.encoder_hidden: must be >= 1",
                                      arch={"encoder_hidden": 0}),
    "arch.feature_len=0": rejected("arch.feature_len: must be >= 1", arch={"feature_len": 0}),
    "arch.classifier_hidden=[0]": rejected("arch.classifier_hidden: must be >= 1 in every entry",
                                           arch={"classifier_hidden": [0]}),
    "arch.classifier_hidden=[16,0]": rejected(
        "arch.classifier_hidden: must be >= 1 in every entry", arch={"classifier_hidden": [16, 0]}),
    "link.bandwidth_hz=0": rejected("link.bandwidth_hz: must be positive",
                                    link={"bandwidth_hz": 0.0}),
    "link.noise_density=0": rejected("link.noise_density: must be positive",
                                     link={"noise_density": 0}),
    "link.device_power_w=0": rejected("link.device_power_w: must be positive",
                                      link={"device_power_w": 0.0}),
    "link.server_power_w=0": rejected("link.server_power_w: must be positive",
                                      link={"server_power_w": 0.0}),
    "link.carrier_ghz=0": rejected("link.carrier_ghz: must be positive", link={"carrier_ghz": 0}),
    "link.cell_radius_m=0": rejected("link.cell_radius_m: must be positive",
                                     link={"cell_radius_m": 0.0}),
    "compute.cycles_per_s=0": rejected("compute.cycles_per_s: must be positive",
                                       compute={"cycles_per_s": 0.0}),
    "compute.cycles_per_s=-1": rejected("compute.cycles_per_s: must be positive",
                                        compute={"cycles_per_s": -1.0}),
    "compute.flops_per_cycle=0": rejected("compute.flops_per_cycle: must be positive",
                                          compute={"flops_per_cycle": 0.0}),
    "compute.heterogeneity<1": rejected("compute.heterogeneity: must be >= 1",
                                        compute={"heterogeneity": math.nextafter(1.0, 0.0)}),
    "lr=0": rejected("lr: must be positive", lr=0),
    "coeff_lr<0": rejected("coeff_lr: must be >= 0", coeff_lr=BELOW_ZERO),
    "local_iters=0": rejected("local_iters: must be >= 1", local_iters=0),
    "batch_size=0": rejected("batch_size: must be >= 1", batch_size=0),
    "staleness_threshold=0": rejected("staleness_threshold: must be >= 1", staleness_threshold=0),
    "metric=harmonic": rejected("metric: must be one of ('ratio', 'linear')", metric="harmonic"),
    "alpha=-1": rejected("alpha: must be >= 0", alpha=-1),
    "alpha<0": rejected("alpha: must be >= 0", alpha=BELOW_ZERO),
    "gradient_estimate=exact": rejected(
        "gradient_estimate: must be one of ('descent_normalized', 'raw_delta')",
        gradient_estimate="exact"),
    "baseline_scheduler=uniform": rejected(
        "baseline_scheduler: must be one of ('channel_aware', 'random')",
        baseline_scheduler="uniform"),
    # the relations between fields
    "quota_above_devices": rejected("quota: must lie in 1..9", quota=10),
    "input_dims_per_modality": rejected("data.input_dims: needs one entry per modality",
                                        num_modalities=3),
    "noniid1_two_classes": rejected("data.num_classes: noniid1 needs >= 3 classes",
                                    partition="noniid1", data={"num_classes": 2}),
    "noniid2_one_class": rejected("data.num_classes: must be >= 2",
                                  partition="noniid2", data={"num_classes": 1}),
    "profile_too_few_devices": rejected(
        "modality_profile: profile group sizes [4] do not partition 9 devices",
        modality_profile=[[4, 1]]),
    "profile_negative_group": rejected(
        "modality_profile: profile group sizes [-1, 10] do not partition 9 devices",
        modality_profile=[[-1, 1], [10, 1]]),
    "profile_leaves_a_modality_unowned": rejected(
        "modality_profile: profile leaves modalities [2] unowned",
        num_devices=1, quota=1, modality_profile=[[1, 1]]),
    # malformed flags are config errors too, not argparse's exit 2
    "flag_algo_unknown": Row(patched(), ("--algo", "bogus"), code=1,
                             err="config error: argument --algo: invalid choice: 'bogus'"),
    "flag_seed_not_an_integer": Row(patched(), ("--seed", "abc"), code=1,
                                    err="config error: argument --seed: invalid int value: 'abc'"),
    "flag_rounds_not_an_integer": Row(
        patched(), ("--rounds", "1.5"), code=1,
        err="config error: argument --rounds: invalid int value: '1.5'"),
    "flag_unknown": Row(patched(), ("--bogus", "1"), code=1,
                        err="config error: unrecognized arguments: --bogus 1"),
    "flag_khat_without_value": Row(patched(), ("--khat",), code=1,
                                   err="config error: argument --khat: expected one argument"),
    "flag_algo_5000_chars": Row(patched(), ("--algo", "x" * 5000), code=1,
                                err="config error: argument --algo: invalid choice: 'xxx",
                                short_error=True),
    "flag_seed_5000_chars": Row(patched(), ("--seed", "1" * 4999 + "x"), code=1,
                                err="config error: argument --seed: invalid int value: '111",
                                short_error=True),
    "flag_unknown_5000_chars": Row(patched(), ("--" + "x" * 5000, "1"), code=1,
                                   err="config error: unrecognized arguments: '--xxx",
                                   short_error=True),
    "positional_5000_chars": Row(patched(), ("x" * 5000,), code=1,
                                 err="config error: unrecognized arguments: 'xxx",
                                 short_error=True),
    # a flag replaces an invalid file value before validation
    "flag_replaces_rounds": Row(patched(rounds=-1), ("--rounds", "1")),
    "flag_replaces_quota": Row(patched(quota=12), ("--khat", "3")),
    # runs that exit 0: with both traces on, with no round, with every other
    # flag, and from a written noniid3 config with a profile
    "record_gains_and_coefficients": Row(patched(record_gains=True, record_coefficients=True),
                                         ("--seed", "1")),
    "flag_rounds_0": Row(patched(), ("--rounds", "0")),
    "flag_every_run_setting": Row(patched(), ("--algo", "local", "--khat", "2", "--metric",
                                              "linear", "--alpha", "0.01", "--ath", "4")),
    "noniid3_with_a_profile": Row(patched(partition="noniid3",
                                          modality_profile=[[3, 2], [6, 1]])),
    # accepted values too large to run: set-up fails on a Python int past a
    # float or a C long, or on an array beyond any 64-bit address space
    "num_devices_401_digits": Row(
        patched(num_devices=10 ** 400), code=2,
        err="run failed: integer division result too large for a float", before_run=True),
    "local_iters_401_digits": Row(patched(local_iters=10 ** 400), code=2,
                                  err="run failed: int too large to convert to float",
                                  before_run=True),
    "batch_size_401_digits": Row(patched(batch_size=10 ** 400), code=2,
                                 err="run failed: int too large to convert to float",
                                 before_run=True),
    "data.samples_per_device_401_digits": Row(
        patched(data={"samples_per_device": 10 ** 400}), code=2,
        err="run failed: Python int too large to convert to C long", before_run=True),
    "data.input_dims_1e17": Row(patched(data={"input_dims": [10 ** 17, 16]}), code=2,
                                err="run failed: Unable to allocate 4.16 EiB", before_run=True),
    # a long key or relation operand is echoed abridged
    "unknown_key_5000_chars": rejected("unknown key 'xxx",
                                       **{"x" * 5000: 1})._replace(short_error=True),
    "unknown_section_key_5000_chars": rejected(
        "unknown key data.'xxx", data={"x" * 5000: 1})._replace(short_error=True),
    "profile_group_401_digits": rejected(
        "modality_profile: profile group sizes [1000...00000] do not partition 9 devices",
        modality_profile=[[10 ** 400, 1]])._replace(short_error=True),
    "quota_above_401_digit_devices": rejected(
        "quota: must lie in 1..1000", num_devices=10 ** 400,
        quota=10 ** 401)._replace(short_error=True),
}

# each CSV's documented header
CSV_HEADERS = {
    "rounds.csv": "round,device,t_download_s,t_compute_s,t_upload_s,round_time_s,train_loss,"
                  "test_accuracy,mean_accuracy",
    "schedule.csv": "round,block,device,indicator,staleness,metric",
    "coefficients.csv": "round,block,k,k_prime,raw,effective",
    "gains.csv": "round,device,gain",
}


def _no_constants(name):
    raise ValueError(f"summary.json holds {name}")


def data_lines(summary):
    """Each CSV's data-line count for the run `summary.json` describes: one
    line per round and device in `rounds.csv` and `gains.csv`, per round and
    owner of each block in `schedule.csv`, and per round and owner pair of
    each block in `coefficients.csv` when `proposed` records them. The head
    block's owners are all K devices, a modality block's its devices."""
    config, rounds = summary["config"], summary["rounds"]
    k = config["num_devices"]
    owners = [k, *(sum(m in owned for owned in summary["owned_modalities"])
                   for m in range(1, config["num_modalities"] + 1))]
    coefficients = config["record_coefficients"] and config["algorithm"] == "proposed"
    lines = {"rounds.csv": rounds * k, "schedule.csv": rounds * sum(owners),
             "coefficients.csv": rounds * sum(n * n for n in owners) if coefficients else 0}
    if config["record_gains"]:
        lines["gains.csv"] = rounds * k
    return lines


def check_row(row: Row, where: Path):
    """Run `row` through `cli.main` in the empty directory `where` and assert
    the whole exit contract."""
    if row.text is not None:
        (where / "cfg.json").write_bytes(row.text)
    runs = []
    run = Simulation.run
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.chdir(where)
        mp.setattr(Simulation, "run", lambda sim: runs.append(sim) or run(sim))
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(["--config", "cfg.json", "--out", "out", *row.flags])
    err = stderr.getvalue()
    assert code == row.code, err
    assert err.startswith(row.err), err
    assert "Traceback" not in err
    if row.before_run or code == 1:
        assert not runs
    else:  # a mislabelled set-up failure fails here
        assert runs
    if code:
        assert err.startswith("config error: " if code == 1 else "run failed: ")
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not row.short_error or len(err.encode()) < 100, err
        config = [] if row.text is None else ["cfg.json"]
        if code == 1:  # a config error makes nothing, not even the --out directory
            assert sorted(p.name for p in where.iterdir()) == config
        else:  # cli.main made --out before the run failed
            written = [str(p.relative_to(where)) for p in where.rglob("*") if p.is_file()]
            assert written == config, written
        return
    assert err == ""
    summary = json.loads((where / "out" / "summary.json").read_text(),
                         parse_constant=_no_constants)
    flags = vars(build_parser().parse_args(row.flags))
    for key, value in flags.items():
        if value is not None and key not in ("config", "out_dir"):
            assert summary["config"][key] == value, key
    config = summary["config"]
    assert config["out_dir"] is None
    assert [summary["seed"], summary["algo"], summary["rounds"]] == \
        [config["seed"], config["algorithm"], config["rounds"]]
    lines = data_lines(summary)
    assert sorted(p.name for p in (where / "out").iterdir()) == sorted([*lines, "summary.json"])
    for path in (where / "out").glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [",".join(rows[0]), len(rows) - 1] == \
            [CSV_HEADERS[path.name], lines[path.name]], path.name
        for cells in rows[1:]:
            for cell in cells:
                assert cell == "" or math.isfinite(float(cell)), (path.name, cells)


@pytest.mark.parametrize("row", list(ROWS))
def test_exit_code_table(tmp_path, row):
    check_row(ROWS[row], tmp_path)


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
    errors = {row.err for row in ROWS.values()}
    for path, _, (_, what) in ranged:
        assert f"config error: {path}: must be {what}" in errors, path
