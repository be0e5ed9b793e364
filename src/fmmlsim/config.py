"""Run configuration: JSON loading, validation, defaults, serialization.

The dataclasses own the field list and every run default; the simulator's
functions take those values as required arguments. Each field's annotation
owns its JSON type and the form the field keeps (`_TYPE_CHECKS`), which one
walk over a payload applies; `validate_config` checks ranges and relations.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

from .aggregation import GRADIENT_ESTIMATES
from .datagen import PARTITIONS, assign_modalities
from .errors import ConfigError
from .scheduler import METRIC_KINDS

ALGORITHMS = ("proposed", "fedavg", "local", "fedprox")
BASELINE_SCHEDULERS = ("channel_aware", "random")


@dataclass
class DataConfig:
    num_classes: int = 6
    input_dims: tuple[int, ...] = (16, 24)
    noise_std: float = 1.0
    mean_separation: float = 3.0
    samples_per_device: int = 300
    train_fraction: float = 0.8


@dataclass
class ArchConfig:
    encoder_hidden: int = 16
    feature_len: int = 8
    classifier_hidden: tuple[int, ...] = (16,)


@dataclass
class LinkConfig:
    bandwidth_hz: float = 1e6
    noise_density: float = 1e-17
    device_power_w: float = 0.1
    server_power_w: float = 1.0
    carrier_ghz: float = 2.6
    cell_radius_m: float = 50.0


@dataclass
class ComputeConfig:
    cycles_per_s: float = 1e8
    flops_per_cycle: float = 2.0
    heterogeneity: float = 1.0  # slowest device is this many times slower


@dataclass
class RunConfig:
    seed: int = 0
    rounds: int = 50
    num_devices: int = 9
    num_modalities: int = 2
    modality_profile: list[tuple[int, int]] | None = None
    partition: str = "noniid1"
    algorithm: str = "proposed"
    fedprox_mu: float = 0.01
    data: DataConfig = field(default_factory=DataConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    lr: float = 2e-4
    coeff_lr: float = 0.01
    local_iters: int = 5
    batch_size: int = 32
    quota: int | None = None            # None -> ceil(K / 3)
    staleness_threshold: int = 10
    metric: str = "ratio"
    alpha: float = 0.0
    gradient_estimate: str = "descent_normalized"
    baseline_scheduler: str = "channel_aware"
    record_coefficients: bool = False
    record_gains: bool = False
    out_dir: str | None = None

    def effective_quota(self) -> int:
        if self.quota is None:
            return max(1, -(-self.num_devices // 3))
        return self.quota


# the sections: the fields whose default is a config dataclass of its own
_NESTED = {f.name: f.default_factory for f in fields(RunConfig) if is_dataclass(f.default_factory)}


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """An int or float that is a finite float. json.loads also yields Infinity,
    NaN and integers too large for a float."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _int_sequence(value, length: int | None = None) -> bool:
    return (isinstance(value, (list, tuple)) and length in (None, len(value))
            and all(_is_int(v) for v in value))


def _as_tuple(value):
    return tuple(value) if isinstance(value, list) else value


# What each field annotation of the config dataclasses accepts, and the form
# the field keeps; a value takes that form before it is checked.
_TYPE_CHECKS = {
    "int": (_is_int, "an integer", None),
    "float": (_is_finite_number, "a finite number", None),
    "bool": (lambda v: isinstance(v, bool), "true or false", None),
    "str": (lambda v: isinstance(v, str), "a string", None),
    "tuple[int, ...]": (_int_sequence, "a list of integers", _as_tuple),
    "list[tuple[int, int]]": (lambda v: isinstance(v, list) and all(_int_sequence(p, 2) for p in v),
                              "a list of [count, modalities] integer pairs",
                              lambda v: [_as_tuple(p) for p in v] if isinstance(v, list) else v),
}


def _build(cls, payload: dict, path: str):
    """The dataclass `cls` from a JSON object, each value typed by `_TYPE_CHECKS`."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    annotations = {f.name: f.type for f in fields(cls)}
    where = f"{path}." if path else ""
    unknown = sorted(set(payload) - set(annotations))
    if unknown:
        raise ConfigError(f"unknown key {where}{unknown[0]}")
    kwargs = {}
    for name, value in payload.items():
        kind = annotations[name].removesuffix(" | None")
        if name in _NESTED:
            value = _build(_NESTED[name], value, name)
        elif value is not None or kind == annotations[name]:
            accepts, what, form = _TYPE_CHECKS[kind]
            value = form(value) if form else value
            _require(accepts(value), f"{where}{name}: must be {what}, got {reprlib.repr(value)}")
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(payload: dict[str, Any]) -> RunConfig:
    cfg = _build(RunConfig, payload, "")
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Range and cross-field checks. They trust the field types of a config
    built by `config_from_dict`, whose walk checked them."""
    _require(cfg.seed >= 0, "seed: must be >= 0")
    _require(cfg.rounds >= 0, "rounds: must be >= 0")
    _require(cfg.num_devices >= 1, "num_devices: must be >= 1")
    _require(cfg.num_modalities >= 1, "num_modalities: must be >= 1")
    _require(cfg.algorithm in ALGORITHMS, f"algorithm: must be one of {ALGORITHMS}")
    _require(cfg.fedprox_mu >= 0, "fedprox_mu: must be >= 0")
    _require(cfg.partition in PARTITIONS, f"partition: unknown scheme {cfg.partition!r}")
    _require(cfg.data.num_classes >= 2, "data.num_classes: must be >= 2")
    if cfg.partition == "noniid1":
        _require(cfg.data.num_classes >= 3, "data.num_classes: noniid1 needs >= 3 classes")
    _require(len(cfg.data.input_dims) == cfg.num_modalities,
             "data.input_dims: needs one entry per modality")
    _require(all(d >= 1 for d in cfg.data.input_dims), "data.input_dims: all dims >= 1")
    _require(cfg.data.noise_std > 0, "data.noise_std: must be positive")
    _require(cfg.data.mean_separation > 0, "data.mean_separation: must be positive")
    _require(cfg.data.samples_per_device >= 2, "data.samples_per_device: must be >= 2")
    _require(0.0 < cfg.data.train_fraction < 1.0, "data.train_fraction: must lie in (0, 1)")
    _require(cfg.arch.encoder_hidden >= 1 and cfg.arch.feature_len >= 1,
             "arch: encoder_hidden and feature_len must be >= 1")
    _require(all(h >= 1 for h in cfg.arch.classifier_hidden),
             "arch.classifier_hidden: all sizes >= 1")
    _require(cfg.lr > 0, "lr: must be positive")
    _require(cfg.coeff_lr >= 0, "coeff_lr: must be >= 0")
    _require(cfg.local_iters >= 1, "local_iters: must be >= 1")
    _require(cfg.batch_size >= 1, "batch_size: must be >= 1")
    _require(cfg.quota is None or 1 <= cfg.quota <= cfg.num_devices,
             f"quota: must lie in 1..{cfg.num_devices}")
    _require(cfg.staleness_threshold >= 1, "staleness_threshold: must be >= 1")
    _require(cfg.metric in METRIC_KINDS, f"metric: must be one of {METRIC_KINDS}")
    _require(cfg.alpha >= 0, "alpha: must be >= 0")
    _require(cfg.gradient_estimate in GRADIENT_ESTIMATES,
             f"gradient_estimate: must be one of {GRADIENT_ESTIMATES}")
    _require(cfg.baseline_scheduler in BASELINE_SCHEDULERS,
             f"baseline_scheduler: must be one of {BASELINE_SCHEDULERS}")
    for f in fields(LinkConfig):
        _require(getattr(cfg.link, f.name) > 0, f"link.{f.name}: must be positive")
    _require(cfg.compute.cycles_per_s > 0, "compute.cycles_per_s: must be positive")
    _require(cfg.compute.flops_per_cycle > 0, "compute.flops_per_cycle: must be positive")
    _require(cfg.compute.heterogeneity >= 1.0, "compute.heterogeneity: must be >= 1")
    if cfg.modality_profile is not None:
        try:
            assign_modalities(cfg.num_devices, cfg.num_modalities, cfg.modality_profile)
        except ConfigError as exc:
            raise ConfigError(f"modality_profile: {exc}") from None


def config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    """The config as nested plain dicts, one key per dataclass field; tuples
    stay tuples, which `json` writes as lists."""
    return asdict(cfg)


def read_config_file(path: str | Path) -> Any:
    """The parsed JSON of a config file, whatever its top-level type."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad text, JSON or number, or nesting too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file; unknown keys are rejected."""
    return config_from_dict(read_config_file(path))
