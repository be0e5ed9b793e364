"""Run configuration: JSON loading, validation, defaults, serialization.

The dataclasses own the field list, every run default and each field's
range (`_ranged`); the simulator's functions take those values as required
arguments. Each field's annotation owns its JSON type and the form the field
keeps (`_TYPE_CHECKS`). One walk over a payload checks each given value's
type and range; `validate_config` checks the relations between fields.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

from .aggregation import GRADIENT_ESTIMATES
from . import datagen
from .errors import ConfigError, abridged
from .scheduler import METRIC_KINDS

ALGORITHMS = ("proposed", "fedavg", "local", "fedprox")
BASELINE_SCHEDULERS = ("channel_aware", "random")


def _ranged(default, accepts, what: str):
    """A field whose given values must satisfy `accepts`, else `must be {what}`."""
    return field(default=default, metadata={"range": (accepts, what)})


def _at_least(default, low):
    return _ranged(default, lambda v: v >= low, f">= {low}")


def _positive(default):
    return _ranged(default, lambda v: v > 0, "positive")


def _one_of(default, names: tuple[str, ...]):
    return _ranged(default, lambda v: v in names, f"one of {names}")


def _each_at_least_one(default: tuple[int, ...]):
    return _ranged(default, lambda v: all(d >= 1 for d in v), ">= 1 in every entry")


@dataclass
class DataConfig:
    num_classes: int = _at_least(6, 2)
    input_dims: tuple[int, ...] = _each_at_least_one((16, 24))
    noise_std: float = _positive(1.0)
    mean_separation: float = _positive(3.0)
    samples_per_device: int = _at_least(300, 2)
    train_fraction: float = _ranged(0.8, lambda v: 0 < v < 1, "in (0, 1)")


@dataclass
class ArchConfig:
    encoder_hidden: int = _at_least(16, 1)
    feature_len: int = _at_least(8, 1)
    classifier_hidden: tuple[int, ...] = _each_at_least_one((16,))


@dataclass
class LinkConfig:
    bandwidth_hz: float = _positive(1e6)
    noise_density: float = _positive(1e-17)
    device_power_w: float = _positive(0.1)
    server_power_w: float = _positive(1.0)
    carrier_ghz: float = _positive(2.6)
    cell_radius_m: float = _positive(50.0)


@dataclass
class ComputeConfig:
    cycles_per_s: float = _positive(1e8)
    flops_per_cycle: float = _positive(2.0)
    heterogeneity: float = _at_least(1.0, 1)  # slowest device is this many times slower


@dataclass
class RunConfig:
    seed: int = _at_least(0, 0)
    rounds: int = _at_least(50, 0)
    num_devices: int = _at_least(9, 1)
    num_modalities: int = _at_least(2, 1)
    modality_profile: list[tuple[int, int]] | None = None
    partition: str = _one_of("noniid1", datagen.PARTITIONS)
    algorithm: str = _one_of("proposed", ALGORITHMS)
    fedprox_mu: float = _at_least(0.01, 0)
    data: DataConfig = field(default_factory=DataConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    lr: float = _positive(2e-4)
    coeff_lr: float = _at_least(0.01, 0)
    local_iters: int = _at_least(5, 1)
    batch_size: int = _at_least(32, 1)
    quota: int | None = None            # None -> ceil(K / 3)
    staleness_threshold: int = _at_least(10, 1)
    metric: str = _one_of("ratio", METRIC_KINDS)
    alpha: float = _at_least(0.0, 0)
    gradient_estimate: str = _one_of("descent_normalized", GRADIENT_ESTIMATES)
    baseline_scheduler: str = _one_of("channel_aware", BASELINE_SCHEDULERS)
    record_coefficients: bool = False
    record_gains: bool = False
    out_dir: str | None = None

    def effective_quota(self) -> int:
        if self.quota is None:
            return max(1, -(-self.num_devices // 3))
        return self.quota

    @cached_property
    def modality_sets(self) -> list[tuple[int, ...]]:
        """Each device's owned modalities by `modality_profile` (None: the
        default profile), derived on first read and kept, so the fields it reads
        are not rebound after; a profile that does not fit raises ConfigError."""
        return datagen.assign_modalities(self.num_devices, self.num_modalities,
                                         self.modality_profile)


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
    """The dataclass `cls` from a JSON object, each value checked for type, then range."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    declared = {f.name: f for f in fields(cls)}
    where = f"{path}." if path else ""
    unknown = sorted(set(payload) - set(declared))
    if unknown:
        raise ConfigError(f"unknown key {where}{abridged(unknown[0])}")
    kwargs = {}
    for name, value in payload.items():
        spec = declared[name]
        kind = spec.type.removesuffix(" | None")
        if name in _NESTED:
            value = _build(_NESTED[name], value, name)
        elif value is not None or kind == spec.type:
            accepts, what, form = _TYPE_CHECKS[kind]
            value = form(value) if form else value
            if not accepts(value):
                raise ConfigError(f"{where}{name}: must be {what}, got {reprlib.repr(value)}")
            if "range" in spec.metadata:
                in_range, what = spec.metadata["range"]
                _require(in_range(value), f"{where}{name}: must be {what}")
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(payload: dict[str, Any]) -> RunConfig:
    cfg = _build(RunConfig, payload, "")
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """The relations between fields. They trust each field's type and range,
    which the walk of `config_from_dict` checked."""
    if cfg.partition == "noniid1":
        _require(cfg.data.num_classes >= 3, "data.num_classes: noniid1 needs >= 3 classes")
    _require(len(cfg.data.input_dims) == cfg.num_modalities,
             "data.input_dims: needs one entry per modality")
    _require(cfg.quota is None or 1 <= cfg.quota <= cfg.num_devices,
             f"quota: must lie in 1..{abridged(cfg.num_devices)}")
    if cfg.modality_profile is not None:
        try:
            cfg.modality_sets
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # what is left: a number longer than int() converts
        raise ConfigError("config is not valid JSON: an integer has too many digits") from exc
    except RecursionError as exc:
        raise ConfigError("config is not valid JSON: nested too deeply") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file; unknown keys are rejected."""
    return config_from_dict(read_config_file(path))
