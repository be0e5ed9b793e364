"""Metamorphic relations: input changes whose effect on a run is known exactly.

Each case runs short `desk_config` runs at two seeds and compares them
round by round, bit for bit. The relations hold for any correct simulator,
so they catch a unit slip or a dropped term that a pinned output hash of
the same code would share.
"""

import numpy as np
import pytest

from fmmlsim import desk_config
from fmmlsim.orchestrator import Simulation

ROUNDS = 4
CASES = [(seed, algorithm) for seed in (0, 1009) for algorithm in ("proposed", "fedavg")]


def run_logs(seed, algorithm, **overrides):
    return Simulation(desk_config(seed, rounds=ROUNDS, algorithm=algorithm, **overrides)).run().logs


def assert_same_learning(a, b):
    """Equal losses and accuracies in every round."""
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.train_loss, y.train_loss)
        assert np.array_equal(x.test_accuracy, y.test_accuracy)
        assert x.mean_accuracy == y.mean_accuracy


@pytest.mark.parametrize("metric,alpha", [("ratio", 0.0), ("linear", 0.01)])
@pytest.mark.parametrize("seed,algorithm", CASES)
def test_doubling_every_rate_halves_every_time(seed, algorithm, metric, alpha):
    # twice the bandwidth at half the noise density keeps each SNR and
    # doubles each link rate; twice the clock doubles each compute rate
    base = desk_config(seed)
    faster = {"link": {"bandwidth_hz": 2 * base.link.bandwidth_hz,
                       "noise_density": base.link.noise_density / 2},
              "compute": {"cycles_per_s": 2 * base.compute.cycles_per_s}}
    slow = run_logs(seed, algorithm, metric=metric, alpha=alpha)
    fast = run_logs(seed, algorithm, metric=metric, alpha=2 * alpha, **faster)
    assert_same_learning(slow, fast)
    # ratio is benefit per second; linear's penalty alpha * time is unchanged
    scale = 2.0 if metric == "ratio" else 1.0
    for s, f in zip(slow, fast):
        for b, flags in s.scheduled.items():
            assert np.array_equal(flags, f.scheduled[b])
            assert np.array_equal(s.staleness[b], f.staleness[b])
            assert f.metric_values[b] == {k: scale * v for k, v in s.metric_values[b].items()}
        for name in ("t_download", "t_compute", "t_upload"):
            assert np.array_equal(getattr(f, name), getattr(s, name) / 2)
        assert f.round_time == s.round_time / 2


@pytest.mark.parametrize("seed,algorithm", CASES)
def test_at_full_quota_the_metric_picks_nothing(seed, algorithm):
    # with a quota of every device, every owner uploads every block, so no
    # metric kind or alpha can change what is learned or how long it takes
    full = desk_config(seed).num_devices
    ref = run_logs(seed, algorithm, quota=full, metric="ratio")
    for alpha in (0.0, 0.37, 5.0):
        other = run_logs(seed, algorithm, quota=full, metric="linear", alpha=alpha)
        assert_same_learning(ref, other)
        assert [log.round_time for log in other] == [log.round_time for log in ref]
