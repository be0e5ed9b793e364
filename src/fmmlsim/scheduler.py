"""Per-block upload selection balancing peer benefit against link cost.

Each round, every block picks the top devices by a metric that grows with
how much the device leans on its peers (one minus its own softmax weight)
and shrinks with its projected download + compute + upload time. Devices
that have not uploaded a block for too many rounds are forced in on top of
the quota so their aggregation weights keep receiving updates. Each block is
scheduled in one pass over its eligible devices: their metrics come from
(K,) arrays in one expression, and the top quota from one sort. A metric
that cannot rank the devices raises SchedulingError: a ratio over a zero
latency, or any value that is not finite (an alpha so large that the linear
penalty overflows, say).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import SchedulingError
from .wireless import cumulative_upload_latency

METRIC_KINDS = ("ratio", "linear")


def scheduling_metric(kind: str, alpha: float, self_weight, t_down, t_cmp, t_up):
    """Peer-benefit-per-second (ratio) or latency-penalized benefit (linear).

    `kind` and `alpha` are the validated `RunConfig.metric` and `alpha`.
    self_weight is the pre-mask softmax weight a device places on itself.
    Every argument after `alpha` is a scalar or an array of one value per
    device, and so is the result.
    """
    total = t_down + t_cmp + t_up
    with np.errstate(over="ignore"):
        if kind == "ratio":
            if np.any(total <= 0):
                raise SchedulingError("ratio metric needs a positive latency denominator")
            values = (1.0 - self_weight) / total
        else:
            values = (1.0 - self_weight) - alpha * total
    if not np.all(np.isfinite(values)):
        raise SchedulingError(f"{kind} metric is not finite")
    return values


def schedule_block(ids: np.ndarray, metric: np.ndarray, staleness: np.ndarray, quota: int,
                   threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """Select one block's uploaders among the eligible devices `ids` (ascending).

    The top min(quota, eligible) devices by `metric` (ties broken by
    ascending id) upload and reset their staleness; the rest age by one
    round, and anyone at or past the threshold is forced in afterwards,
    possibly exceeding the quota. The indicators are zero off `ids`, the
    block's owners: the round loop aggregates exactly the devices they set.
    """
    indicators = np.zeros(staleness.shape[0], dtype=np.int8)
    stale = staleness.copy()
    chosen = ids[np.lexsort((ids, -metric))[:quota]]
    stale[ids] += 1
    stale[chosen] = 0
    indicators[chosen] = 1
    forced = ids[stale[ids] >= threshold]
    indicators[forced] = 1
    stale[forced] = 0
    return indicators, stale


def schedule_round(self_weights: Mapping[int, np.ndarray],
                   t_down: np.ndarray, t_cmp: np.ndarray,
                   sizes_bits: Mapping[int, int], up_rates: np.ndarray,
                   owners: Mapping[int, np.ndarray], kind: str, alpha: float,
                   staleness: Mapping[int, np.ndarray], quota: int, threshold: int,
                   rng: np.random.Generator | None = None):
    """Schedule every block in ascending order.

    Blocks are processed smallest id first so that a device's projected
    upload time for block m already includes the blocks it was scheduled
    for earlier in the same round: one (K,) count of the bits scheduled so
    far grows after each block. Returns (indicators, staleness, metric
    values) keyed by block; a block's metric values map each eligible
    device, ascending, to its metric. Selection is random exactly when `rng`
    is given: each eligible device then draws its metric from `rng.uniform`.
    """
    indicators: dict[int, np.ndarray] = {}
    new_stale: dict[int, np.ndarray] = {}
    values: dict[int, dict[int, float]] = {}
    bits_so_far = np.zeros(len(t_down), dtype=np.int64)
    for block in sorted(owners):
        ids = np.flatnonzero(owners[block])
        if rng is not None:
            metrics = rng.uniform(size=ids.size)
        else:
            t_up = cumulative_upload_latency(bits_so_far[ids], sizes_bits[block], up_rates[ids])
            metrics = scheduling_metric(
                kind, alpha, self_weights[block][ids], t_down[ids], t_cmp[ids], t_up)
        indicators[block], new_stale[block] = schedule_block(
            ids, metrics, staleness[block], quota, threshold)
        bits_so_far[indicators[block] != 0] += sizes_bits[block]
        values[block] = dict(zip(ids.tolist(), metrics.tolist()))
    return indicators, new_stale, values
