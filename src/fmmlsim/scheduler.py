"""Per-block upload selection balancing peer benefit against link cost.

Each round, every block picks the top devices by a metric that grows with
how much the device leans on its peers (one minus its own softmax weight)
and shrinks with its projected download + compute + upload time. Devices
that have not uploaded a block for too many rounds are forced in on top of
the quota so their aggregation weights keep receiving updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SchedulingError
from .wireless import cumulative_upload_latency

METRIC_KINDS = ("ratio", "linear")
SELECTION_MODES = ("metric", "random")


@dataclass(frozen=True)
class MetricSpec:
    kind: str = "ratio"
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise SchedulingError(f"unknown metric kind {self.kind!r}")
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise SchedulingError("alpha must be finite and >= 0")


@dataclass
class ScheduleState:
    """Current upload indicators and staleness counters, per block."""

    indicators: dict[int, np.ndarray]  # block -> (K,) int8
    staleness: dict[int, np.ndarray]   # block -> (K,) int64


def new_schedule_state(num_devices: int, block_ids) -> ScheduleState:
    return ScheduleState(
        indicators={b: np.zeros(num_devices, dtype=np.int8) for b in block_ids},
        staleness={b: np.zeros(num_devices, dtype=np.int64) for b in block_ids})


def scheduling_metric(metric: MetricSpec, self_weight: float, t_down: float,
                      t_cmp: float, t_up: float) -> float:
    """Peer-benefit-per-second (ratio) or latency-penalized benefit (linear).

    self_weight is the pre-mask softmax weight a device places on itself.
    """
    total = t_down + t_cmp + t_up
    if metric.kind == "ratio":
        if total <= 0:
            raise SchedulingError("ratio metric needs a positive latency denominator")
        return (1.0 - self_weight) / total
    return (1.0 - self_weight) - metric.alpha * total


def schedule_block(metrics: Mapping[int, float], staleness: np.ndarray, quota: int,
                   threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """Select one block's uploaders.

    Top min(quota, eligible) devices by metric (ties broken by ascending id)
    upload and reset their staleness; the rest age by one round, and anyone
    at or past the threshold is forced in afterwards, possibly exceeding the
    quota.
    """
    num_devices = staleness.shape[0]
    indicators = np.zeros(num_devices, dtype=np.int8)
    stale = staleness.copy()
    eligible = sorted(metrics)
    order = sorted(eligible, key=lambda k: (-metrics[k], k))
    chosen = set(order[:min(quota, len(eligible))])
    for k in eligible:
        if k in chosen:
            indicators[k] = 1
            stale[k] = 0
        else:
            stale[k] += 1
    for k in eligible:
        if stale[k] >= threshold:
            indicators[k] = 1
            stale[k] = 0
    return indicators, stale


def schedule_round(self_weights: Mapping[int, np.ndarray],
                   t_down: np.ndarray, t_cmp: np.ndarray,
                   sizes_bits: Mapping[int, int], up_rates: np.ndarray,
                   owners: Mapping[int, np.ndarray], metric: MetricSpec,
                   staleness: Mapping[int, np.ndarray], quota: int, threshold: int,
                   selection: str = "metric",
                   rng: np.random.Generator | None = None):
    """Schedule every block in ascending order.

    Blocks are processed smallest id first so that a device's projected
    upload time for block m already includes the blocks it was scheduled
    for earlier in the same round. Returns (indicators, staleness, metric
    values) keyed by block.
    """
    if selection not in SELECTION_MODES:
        raise SchedulingError(f"unknown selection mode {selection!r}")
    if selection == "random" and rng is None:
        raise SchedulingError("random selection needs an rng")
    indicators: dict[int, np.ndarray] = {}
    new_stale: dict[int, np.ndarray] = {}
    values: dict[int, dict[int, float]] = {}
    for block in sorted(owners):
        eligible = [int(k) for k in np.flatnonzero(owners[block])]
        metrics: dict[int, float] = {}
        for k in eligible:
            if selection == "random":
                metrics[k] = float(rng.uniform())
                continue
            so_far = {b: int(indicators[b][k]) for b in indicators}
            t_up = cumulative_upload_latency(so_far, block, sizes_bits, float(up_rates[k]))
            metrics[k] = scheduling_metric(
                metric, float(self_weights[block][k]), float(t_down[k]), float(t_cmp[k]), t_up)
        indicators[block], new_stale[block] = schedule_block(
            metrics, staleness[block], quota, threshold)
        values[block] = metrics
    return indicators, new_stale, values
