"""Synthetic multi-modal classification data with label-skew partitions.

Classes are Gaussian clusters: one mean vector per (class, modality), the
same means for every device, plus per-sample noise. Device heterogeneity
comes from two places: which modalities a device owns, and which label
distribution its local data follows. The label-skew schemes are named by
`PARTITIONS`, a tuple of names like the config's other choices. The
generators take plain values and trust them: the config's field
declarations check the partition name, class count, noise level, sample
count and train fraction once, at the config boundary. `assign_modalities`
applies a modality profile; `RunConfig.modality_sets`, its one caller, owns
each device's set, and `ArchSpec.device_blocks` the block list it gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError


# Label-skew styles by name: noniid1 gives each device a 3-category support;
# the others give one dominant class this share of its samples.
DOMINANT_FRACTION = {"noniid2": 0.5, "noniid3": 0.3}
PARTITIONS = ("noniid1", *DOMINANT_FRACTION)
SUPPORT_SIZE = 3  # categories per device under noniid1


@dataclass
class SampleSet:
    """A batch of samples: per-modality feature matrices plus labels."""

    features: dict[int, np.ndarray]  # modality -> (n, d_m)
    labels: np.ndarray               # (n,)


@dataclass
class DeviceDataset:
    owned: tuple[int, ...]
    train: SampleSet
    test: SampleSet

    @property
    def label_support(self) -> tuple[int, ...]:
        return tuple(sorted(set(np.concatenate([self.train.labels, self.test.labels]).tolist())))


def make_class_means(rng: np.random.Generator, num_classes: int,
                     input_dims: Sequence[int], separation: float) -> list[np.ndarray]:
    """Class cluster centres: unit Gaussian draws scaled by the separation.

    Returns one (num_classes, d_m) matrix per modality, row c class c's
    centre. The draws run class by class, modality by modality within a class.
    """
    draws = separation * rng.normal(size=(num_classes, sum(input_dims)))
    return np.split(draws, np.cumsum(input_dims)[:-1], axis=1)


def default_modality_profile(num_devices: int, num_modalities: int) -> list[tuple[int, int]]:
    """Group sizes by modality count: (count, modalities_owned) pairs.

    Two modalities: a third of the devices own both, the rest own one.
    Otherwise the devices split evenly across counts M..1.
    """
    if num_modalities == 1:
        return [(num_devices, 1)]
    if num_modalities == 2:
        both = max(1, round(num_devices / 3))
        return [(both, 2), (num_devices - both, 1)]
    base, extra = divmod(num_devices, num_modalities)
    sizes = [base + (1 if i < extra else 0) for i in range(num_modalities)]
    return [(sizes[i], num_modalities - i) for i in range(num_modalities)]


def assign_modalities(num_devices: int, num_modalities: int,
                      profile: Sequence[tuple[int, int]] | None) -> list[tuple[int, ...]]:
    """Assign each device its owned modality set by the profile (None: the default).

    Within a group the subsets of the requested size rotate through all
    combinations, so ownership stays balanced across modalities.
    """
    from itertools import combinations

    profile = default_modality_profile(num_devices, num_modalities) if profile is None else profile
    counts = [int(c) for c, _ in profile]
    if sum(counts) != num_devices or any(c < 0 for c in counts):
        raise ConfigError(f"profile group sizes {counts} do not partition {num_devices} devices")
    owned: list[tuple[int, ...]] = []
    for count, size in profile:
        if not 1 <= size <= num_modalities:
            raise ConfigError(f"profile modality count {size} outside 1..{num_modalities}")
        combos = list(combinations(range(1, num_modalities + 1), size))
        owned.extend(combos[i % len(combos)] for i in range(count))
    covered = set().union(*owned) if owned else set()
    if covered != set(range(1, num_modalities + 1)):
        raise ConfigError(f"profile leaves modalities {sorted(set(range(1, num_modalities + 1)) - covered)} unowned")
    return owned


def partition_labels(scheme: str, num_classes: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw one device's label multiset under the named skew scheme (`PARTITIONS`)."""
    if scheme == "noniid1":
        support = np.sort(rng.choice(num_classes, size=SUPPORT_SIZE, replace=False))
        if count >= SUPPORT_SIZE:
            # one forced sample per category keeps the support exact
            labels = np.concatenate([support, rng.choice(support, size=count - SUPPORT_SIZE)])
        else:
            labels = rng.choice(support, size=count)
        rng.shuffle(labels)
        return labels.astype(np.int64)
    frac = DOMINANT_FRACTION[scheme]
    dominant = int(rng.integers(num_classes))
    n_dom = math.ceil(frac * count)
    others = np.array([c for c in range(num_classes) if c != dominant])
    labels = np.concatenate([
        np.full(n_dom, dominant, dtype=np.int64),
        rng.choice(others, size=count - n_dom).astype(np.int64)])
    rng.shuffle(labels)
    return labels


def generate_device_data(class_means: Sequence[np.ndarray], noise_std: float,
                         train_fraction: float, labels: np.ndarray, owned: Sequence[int],
                         rng: np.random.Generator) -> DeviceDataset:
    """Materialize Gaussian samples for one device and split train/test.

    class_means[m - 1] is modality m's (C, d_m) matrix of class centres
    (`make_class_means`).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    features = {}
    for m in owned:
        means = class_means[m - 1]
        features[m] = means[labels] + rng.normal(0.0, noise_std, size=(n, means.shape[1]))
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    train = SampleSet({m: x[:n_train] for m, x in features.items()}, labels[:n_train])
    test = SampleSet({m: x[n_train:] for m, x in features.items()}, labels[n_train:])
    return DeviceDataset(owned, train, test)
