import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmlsim.errors import SchedulingError
from fmmlsim.scheduler import schedule_block, schedule_round, scheduling_metric


def test_metric_ratio_values():
    assert scheduling_metric("ratio", 0.0, 1.0, 1.0, 0.5, 0.5) == 0.0
    assert scheduling_metric("ratio", 0.0, 0.5, 1.0, 0.5, 0.5) == pytest.approx(0.25)
    with pytest.raises(SchedulingError):
        scheduling_metric("ratio", 0.0, 0.5, 0.0, 0.0, 0.0)


def test_metric_linear_values():
    assert scheduling_metric("linear", 0.0, 0.3, 9.0, 9.0, 9.0) == pytest.approx(0.7)
    assert scheduling_metric("linear", 0.1, 0.3, 1.0, 1.0, 1.0) == pytest.approx(0.4)


@pytest.mark.parametrize("kind, alpha, total", [
    ("ratio", 0.0, 5e-324),   # a subnormal latency: the ratio overflows to +inf
    ("linear", 1e308, 10.0),  # the latency penalty overflows to -inf
])
def test_a_metric_that_is_not_finite_raises(kind, alpha, total):
    t_down = np.array([1.0, total])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        with pytest.raises(SchedulingError, match=f"{kind} metric is not finite"):
            scheduling_metric(kind, alpha, np.array([0.5, 0.25]), t_down, np.zeros(2),
                              np.zeros(2))


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
    ind, stale, vals, _ = schedule_round(
        self_w, np.zeros(3), np.full(3, 0.5), {1: 1000, 2: 1000},
        np.full(3, 1000.0), owners, "ratio", 0.0, staleness, 3, 10)
    for b in (1, 2):
        assert ind[b].sum() == 3
        assert (stale[b] == 0).all()
        assert len(vals[b]) == 3


def test_schedule_round_cumulative_upload_lowers_later_metric():
    owners, self_w, staleness = setup_round(num_devices=2, blocks=(1, 2))
    ind, _, vals, _ = schedule_round(
        self_w, np.zeros(2), np.full(2, 0.1), {1: 5000, 2: 5000},
        np.array([1000.0, 1000.0]), owners, "ratio", 0.0, staleness, 1, 10)
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
        ind, staleness, _, _ = schedule_round(
            self_w, np.zeros(3), np.full(3, 1.0), {1: 100, 2: 100},
            np.full(3, 100.0), owners, "ratio", 0.0, staleness, 1, 2)
        assert ind[1][1] == 0


def test_schedule_round_deterministic():
    owners, self_w, staleness = setup_round()
    args = (self_w, np.zeros(3), np.full(3, 0.5), {1: 1000, 2: 1000},
            np.full(3, 1000.0), owners, "ratio", 0.0, staleness, 2, 10)
    a = schedule_round(*args)
    b = schedule_round(*args)
    for blk in (1, 2):
        assert np.array_equal(a[0][blk], b[0][blk])
        assert np.array_equal(a[1][blk], b[1][blk])


def test_schedule_round_random_selection_respects_quota_and_ownership():
    owners = {1: np.array([True, True, False]), 2: np.ones(3, dtype=bool)}
    self_w = {1: np.zeros(3), 2: np.zeros(3)}
    staleness = {1: np.zeros(3, dtype=np.int64), 2: np.zeros(3, dtype=np.int64)}
    rng = np.random.default_rng(0)
    ind, _, _, _ = schedule_round(
        self_w, np.zeros(3), np.full(3, 0.5), {1: 1, 2: 1}, np.full(3, 1.0),
        owners, "ratio", 0.0, staleness, 1, 10, rng=rng)
    assert ind[1].sum() == 1 and ind[1][2] == 0
    assert ind[2].sum() == 1


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
