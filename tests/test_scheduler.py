import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmlsim.errors import SchedulingError
from fmmlsim.scheduler import (MetricSpec, schedule_block, schedule_round,
                               scheduling_metric)


def test_metric_ratio_values():
    ratio = MetricSpec("ratio")
    assert scheduling_metric(ratio, 1.0, 1.0, 0.5, 0.5) == 0.0
    assert scheduling_metric(ratio, 0.5, 1.0, 0.5, 0.5) == pytest.approx(0.25)
    with pytest.raises(SchedulingError):
        scheduling_metric(ratio, 0.5, 0.0, 0.0, 0.0)


def test_metric_linear_values():
    assert scheduling_metric(MetricSpec("linear", 0.0), 0.3, 9.0, 9.0, 9.0) == pytest.approx(0.7)
    assert scheduling_metric(MetricSpec("linear", 0.1), 0.3, 1.0, 1.0, 1.0) == pytest.approx(0.4)


def test_metric_spec_validation():
    with pytest.raises(SchedulingError):
        MetricSpec("harmonic")
    with pytest.raises(SchedulingError):
        MetricSpec("linear", -1.0)


def select(metrics, staleness, quota, threshold):
    """schedule_block over the devices of a {device: metric} dict."""
    ids = np.array(sorted(metrics), dtype=np.intp)
    values = np.array([metrics[k] for k in ids.tolist()], dtype=np.float64)
    return schedule_block(ids, values, staleness, quota, threshold)


def test_schedule_block_top_quota():
    metrics = {0: 3.0, 1: 1.0, 2: 2.0}
    ind, stale = select(metrics, np.zeros(3, dtype=np.int64), 2, 10)
    np.testing.assert_array_equal(ind, [1, 0, 1])
    np.testing.assert_array_equal(stale, [0, 1, 0])


def test_schedule_block_quota_saturation():
    metrics = {k: float(k) for k in range(4)}
    ind, stale = select(metrics, np.zeros(4, dtype=np.int64), 4, 10)
    assert ind.sum() == 4
    assert (stale == 0).all()


def test_schedule_block_staleness_override():
    metrics = {0: 3.0, 1: 2.0, 2: -5.0}
    stale0 = np.array([0, 0, 9], dtype=np.int64)
    ind, stale = select(metrics, stale0, 2, 10)
    # device 2 has the worst metric but its counter hits the threshold
    np.testing.assert_array_equal(ind, [1, 1, 1])
    assert stale[2] == 0


def test_schedule_block_tie_breaks_by_device_id():
    metrics = {0: 1.0, 1: 1.0, 2: 1.0}
    ind, _ = select(metrics, np.zeros(3, dtype=np.int64), 2, 10)
    np.testing.assert_array_equal(ind, [1, 1, 0])


def setup_round(num_devices=3, blocks=(1, 2)):
    owners = {b: np.ones(num_devices, dtype=bool) for b in blocks}
    self_w = {b: np.full(num_devices, 1.0 / num_devices) for b in blocks}
    staleness = {b: np.zeros(num_devices, dtype=np.int64) for b in blocks}
    return owners, self_w, staleness


def test_schedule_round_full_quota_schedules_everything():
    owners, self_w, staleness = setup_round()
    ind, stale, vals = schedule_round(
        self_w, np.zeros(3), np.full(3, 0.5), {1: 1000, 2: 1000},
        np.full(3, 1000.0), owners, MetricSpec("ratio"), staleness, 3, 10)
    for b in (1, 2):
        assert ind[b].sum() == 3
        assert (stale[b] == 0).all()
        assert len(vals[b]) == 3


def test_schedule_round_cumulative_upload_lowers_later_metric():
    owners, self_w, staleness = setup_round(num_devices=2, blocks=(1, 2))
    ind, _, vals = schedule_round(
        self_w, np.zeros(2), np.full(2, 0.1), {1: 5000, 2: 5000},
        np.array([1000.0, 1000.0]), owners, MetricSpec("ratio"), staleness, 1, 10)
    scheduled_first = int(np.flatnonzero(ind[1])[0])
    other = 1 - scheduled_first
    # the device that shipped block 1 sees a longer projected upload for
    # block 2, so its ratio metric must fall below the other device's
    assert vals[2][scheduled_first] < vals[2][other]


def test_schedule_round_never_schedules_nonowners():
    owners = {1: np.array([True, False, True]), 2: np.ones(3, dtype=bool)}
    self_w = {1: np.array([0.5, 0.0, 0.5]), 2: np.full(3, 1 / 3)}
    staleness = {1: np.zeros(3, dtype=np.int64), 2: np.zeros(3, dtype=np.int64)}
    for _ in range(5):
        ind, staleness, _ = schedule_round(
            self_w, np.zeros(3), np.full(3, 1.0), {1: 100, 2: 100},
            np.full(3, 100.0), owners, MetricSpec("ratio"), staleness, 1, 2)
        assert ind[1][1] == 0


def test_schedule_round_deterministic():
    owners, self_w, staleness = setup_round()
    args = (self_w, np.zeros(3), np.full(3, 0.5), {1: 1000, 2: 1000},
            np.full(3, 1000.0), owners, MetricSpec("ratio"), staleness, 2, 10)
    a = schedule_round(*args)
    b = schedule_round(*args)
    for blk in (1, 2):
        assert np.array_equal(a[0][blk], b[0][blk])
        assert np.array_equal(a[1][blk], b[1][blk])


def test_schedule_round_random_selection_needs_rng():
    owners, self_w, staleness = setup_round()
    with pytest.raises(SchedulingError):
        schedule_round(self_w, np.zeros(3), np.full(3, 0.5), {1: 1, 2: 1},
                       np.full(3, 1.0), owners, MetricSpec("ratio"), staleness,
                       2, 10, selection="random")


def test_schedule_round_random_selection_respects_quota_and_ownership():
    owners = {1: np.array([True, True, False]), 2: np.ones(3, dtype=bool)}
    self_w = {1: np.zeros(3), 2: np.zeros(3)}
    staleness = {1: np.zeros(3, dtype=np.int64), 2: np.zeros(3, dtype=np.int64)}
    rng = np.random.default_rng(0)
    ind, _, _ = schedule_round(
        self_w, np.zeros(3), np.full(3, 0.5), {1: 1, 2: 1}, np.full(3, 1.0),
        owners, MetricSpec("ratio"), staleness, 1, 10, selection="random", rng=rng)
    assert ind[1].sum() == 1 and ind[1][2] == 0
    assert ind[2].sum() == 1


def brute_force_lines_5_to_9(owners, self_w, t_down, t_cmp, sizes, up_rates,
                             quota, threshold, staleness0, kind, alpha):
    """Straight-line transliteration of the per-block selection loop."""
    num_devices = len(t_down)
    blocks = sorted(owners)
    ind = {b: [0] * num_devices for b in blocks}
    stale = {b: list(staleness0[b]) for b in blocks}
    for b in blocks:
        eligible = [k for k in range(num_devices) if owners[b][k]]
        vals = {}
        for k in eligible:
            up_bits = sizes[b] + sum(sizes[bp] * ind[bp][k] for bp in blocks if bp < b)
            total = t_down[k] + t_cmp[k] + up_bits / up_rates[k]
            if kind == "ratio":
                vals[k] = (1 - self_w[b][k]) / total
            else:
                vals[k] = (1 - self_w[b][k]) - alpha * total
        order = sorted(eligible, key=lambda k: (-vals[k], k))
        chosen = set(order[:min(quota, len(eligible))])
        for k in eligible:
            if k in chosen:
                ind[b][k] = 1
                stale[b][k] = 0
            else:
                stale[b][k] += 1
        for k in eligible:
            if stale[b][k] >= threshold:
                ind[b][k] = 1
                stale[b][k] = 0
    return ind, stale


def random_instance(rng):
    num_devices = int(rng.integers(2, 7))
    num_mod = int(rng.integers(1, 4))
    blocks = list(range(1, num_mod + 2))
    owners = {}
    for b in blocks[:-1]:
        row = rng.uniform(size=num_devices) < 0.7
        if not row.any():
            row[int(rng.integers(num_devices))] = True
        owners[b] = row
    owners[blocks[-1]] = np.ones(num_devices, dtype=bool)
    self_w = {b: np.where(owners[b], rng.uniform(size=num_devices), 0.0) for b in blocks}
    t_down = rng.uniform(0.0, 3.0, size=num_devices)
    t_cmp = rng.uniform(0.1, 5.0, size=num_devices)
    sizes = {b: int(rng.integers(100, 10000)) for b in blocks}
    up_rates = rng.uniform(50.0, 5000.0, size=num_devices)
    quota = int(rng.integers(1, num_devices + 1))
    threshold = int(rng.integers(1, 6))
    staleness0 = {b: rng.integers(0, threshold, size=num_devices).astype(np.int64)
                  for b in blocks}
    kind = "ratio" if rng.uniform() < 0.5 else "linear"
    alpha = float(rng.uniform(0.0, 0.5))
    return (owners, self_w, t_down, t_cmp, sizes, up_rates, quota, threshold,
            staleness0, kind, alpha)


def test_schedule_round_matches_brute_force_small_case():
    rng = np.random.default_rng(123)
    inst = random_instance(rng)
    (owners, self_w, t_down, t_cmp, sizes, up_rates, quota, threshold,
     staleness0, kind, alpha) = inst
    ind, stale, _ = schedule_round(
        self_w, t_down, t_cmp, sizes, up_rates, owners,
        MetricSpec(kind, alpha), staleness0, quota, threshold)
    bf_ind, bf_stale = brute_force_lines_5_to_9(*inst)
    for b in owners:
        np.testing.assert_array_equal(ind[b], bf_ind[b])
        np.testing.assert_array_equal(stale[b], bf_stale[b])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), num_devices=st.integers(1, 8), threshold=st.integers(1, 5))
def test_schedule_block_keeps_staleness_below_the_threshold(data, num_devices, threshold):
    owners = data.draw(st.lists(st.booleans(), min_size=num_devices, max_size=num_devices)
                       .filter(any))
    eligible = [k for k in range(num_devices) if owners[k]]
    metrics = {k: data.draw(st.floats(-10.0, 10.0)) for k in eligible}
    quota = data.draw(st.integers(1, num_devices))
    # the invariant holds on entry: every counter sits below the threshold
    before = np.array(data.draw(st.lists(st.integers(0, threshold - 1),
                                         min_size=num_devices, max_size=num_devices)),
                      dtype=np.int64)
    ind, stale = select(metrics, before, quota, threshold)
    top = set(sorted(eligible, key=lambda k: (-metrics[k], k))[:quota])
    for k in range(num_devices):
        if k not in metrics:
            assert ind[k] == 0 and stale[k] == before[k]
        elif k in top or before[k] + 1 >= threshold:
            # chosen by metric, or forced in because skipping would reach the threshold
            assert ind[k] == 1 and stale[k] == 0
        else:
            assert ind[k] == 0 and stale[k] == before[k] + 1
    assert (stale < threshold).all()
