"""Whole rounds of `Simulation` against the per-device reference of `reference.py`.

Each of the 20 cases runs six rounds of both from one set-up. Parameters
and raw weights must agree within 1e-12 relative: the reference sums in
another order and reaches the weights through the two-stage transform.
Schedules, staleness, latencies, round times and accuracies must be equal.
"""

import numpy as np
import pytest

from fmmlsim import desk_config
from fmmlsim.orchestrator import Simulation
from reference import ReferenceRun

ROUNDS = 6
RTOL = 1e-12
THREE_MODALITIES = {"num_devices": 12, "num_modalities": 3, "quota": 5,
                    "data": {"input_dims": [16, 24, 12]}}

CASES = {
    **{f"desk_{algorithm}_{seed}": dict(seed=seed, algorithm=algorithm)
       for algorithm in ("proposed", "fedavg", "fedprox", "local") for seed in (0, 1009)},
    **{f"k12_{algorithm}_{seed}": dict(seed=seed, algorithm=algorithm, **THREE_MODALITIES)
       for algorithm in ("proposed", "fedavg", "fedprox") for seed in (0, 1009)},
    "desk_raw_delta": dict(gradient_estimate="raw_delta"),
    "desk_random_scheduler": dict(algorithm="fedavg", baseline_scheduler="random"),
    # at the desk's alpha of 0 every round-1 metric ties, so the tie-break decides
    "desk_linear": dict(metric="linear"),
    # every case above wraps the 240-row shuffle once (12 x 32 rows); these take
    # the other local-SGD regimes: part of one pass, all of it, and two wraps
    "desk_one_pass": dict(local_iters=2, batch_size=64),
    "desk_full_batch": dict(local_iters=1, batch_size=240),
    "desk_fedprox_wraps_twice": dict(algorithm="fedprox", fedprox_mu=0.3, local_iters=20),
}


def assert_close(got, want, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= RTOL * scale, what


@pytest.mark.parametrize("case", list(CASES))
def test_rounds_match_the_per_device_reference(case):
    sim = Simulation(desk_config(**CASES[case]))
    ref = ReferenceRun(sim)
    for t in range(1, ROUNDS + 1):
        log, want = sim.step(), ref.step()
        for b in sim.block_ids:
            assert np.array_equal(log.scheduled[b], want["scheduled"][b]), (t, b)
            assert np.array_equal(log.staleness[b], want["staleness"][b]), (t, b)
        assert np.array_equal(log.t_download, want["t_download"]), t
        assert np.array_equal(log.t_upload, want["t_upload"]), t
        assert log.round_time == want["round_time"], t
        assert np.array_equal(log.test_accuracy, want["test_accuracy"]), t
        for dev, params in zip(sim.devices, ref.params):
            for b, p in dev.params.items():
                assert_close(p.values, params[b], (t, dev.device_id, b))
        if sim.server.coeffs is not None:
            for b in sim.block_ids:
                assert_close(sim.server.coeffs.raw[b], ref.raw[b], (t, b))
