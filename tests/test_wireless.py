import math

import numpy as np
import pytest

from fmmlsim.config import LinkConfig
from fmmlsim.errors import NumericOverflowError, StalledLinkError
from fmmlsim.wireless import (compute_latency, cumulative_upload_latency,
                              download_latency, link_rate, mean_gain,
                              path_loss_db, place_devices,
                              sample_round_gains, upload_latency)
from reference import gain_reference


def sample_round_gains_reference(rng, distances, carrier_ghz):
    """Reference: the per-device draw loop `sample_round_gains` replaced."""
    return np.array([gain_reference(rng, float(d), carrier_ghz) for d in distances])


def test_path_loss_hand_values():
    assert path_loss_db(100.0, 2.6) == pytest.approx(80.70, abs=0.01)
    assert path_loss_db(1.0, 1.0) == pytest.approx(32.4, abs=1e-12)


def test_path_loss_doubling_law():
    base = path_loss_db(40.0, 2.6)
    assert path_loss_db(80.0, 2.6) - base == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_path_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_loss_db(0.0, 2.6)
    with pytest.raises(ValueError):
        path_loss_db(10.0, -1.0)


def test_rayleigh_mean_matches_attenuation():
    rng = np.random.default_rng(0)
    d, f = 60.0, 2.6
    mu = mean_gain(d, f)
    draws = np.array([gain_reference(rng, d, f) for _ in range(100_000)])
    assert (draws >= 0).all()
    assert abs(draws.mean() - mu) / mu < 0.01


def test_gain_sampling_reproducible():
    a = [gain_reference(np.random.default_rng(5), 30.0, 2.6) for _ in range(1)]
    b = [gain_reference(np.random.default_rng(5), 30.0, 2.6) for _ in range(1)]
    assert a == b
    r1 = sample_round_gains(np.random.default_rng(7), np.array([10.0, 20.0]), 2.6)
    r2 = sample_round_gains(np.random.default_rng(7), np.array([10.0, 20.0]), 2.6)
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("num_devices", [1, 9, 90])
@pytest.mark.parametrize("seed", [0, 5, 1009])
def test_round_gains_match_the_per_device_draws(num_devices, seed):
    distances = place_devices(np.random.default_rng(seed + 1), num_devices, radius_m=50.0)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for _ in range(3):
        got = sample_round_gains(rngs[0], distances, 2.6)
        want = sample_round_gains_reference(rngs[1], distances, 2.6)
        assert got.dtype == want.dtype and got.shape == (num_devices,)
        assert got.tobytes() == want.tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_round_gains_keep_the_path_gain_overflow_guard():
    with pytest.raises(NumericOverflowError, match="path gain overflows"):
        sample_round_gains(np.random.default_rng(0), np.array([10.0, 1e-300]), 1e-300)


def test_placement_within_disc():
    d = place_devices(np.random.default_rng(1), 500, radius_m=50.0)
    assert (d > 0).all() and (d <= 50.0).all()


def test_link_rate_values():
    # SNR of exactly 1 -> rate equals bandwidth
    b, n0 = 1e6, 1e-17
    g = math.sqrt(b * n0 / 0.1)
    assert link_rate(0.1, g, b, n0) == pytest.approx(1e6)
    assert link_rate(0.1, 0.0, b, n0) == 0.0
    assert link_rate(0.1, 2 * g, b, n0) > link_rate(0.1, g, b, n0)


def bits(n):
    """One device's bit total, as the scheduler counts it."""
    return np.array([n], dtype=np.int64)


def rate(r):
    return np.array([r])


def test_download_latency():
    sizes = {1: 3_200_000, 2: 1_000_000}
    assert download_latency(bits(0), rate(1e6)) == 0.0
    assert download_latency(bits(sizes[1]), rate(1e6)) == pytest.approx(3.2)
    both = download_latency(bits(sizes[1] + sizes[2]), rate(1e6))
    assert both > download_latency(bits(sizes[1]), rate(1e6))
    with pytest.raises(StalledLinkError):
        download_latency(bits(sizes[1]), rate(0.0))
    assert download_latency(bits(0), rate(0.0)) == 0.0


def test_upload_latency():
    sizes = {1: 3_200_000, 2: 1_000_000}
    assert upload_latency(bits(0), rate(1e6)) == 0.0
    assert upload_latency(bits(sizes[1] + sizes[2]), rate(1e6)) == pytest.approx(4.2)
    with pytest.raises(StalledLinkError):
        upload_latency(bits(sizes[2]), rate(0.0))
    assert upload_latency(bits(0), rate(0.0)) == 0.0


def test_compute_latency():
    assert compute_latency(2, 6e5 + 4e5, 1e9, 2.0) == pytest.approx(1e-3)
    assert compute_latency(0, 6e5, 1e9, 2.0) == 0.0
    assert compute_latency(4, 6e5 + 4e5, 1e9, 2.0) == pytest.approx(2e-3)


def test_cumulative_upload_latency():
    bits = np.array([0, 100])  # device 1 already ships block 1 (100 bits)
    np.testing.assert_allclose(cumulative_upload_latency(bits, 200, np.full(2, 100.0)), [2.0, 3.0])
    # hand value: blocks (100, 200, 400) bits, block 1 already scheduled,
    # candidate block 3 -> (100 + 400) / 100 = 5 s
    assert cumulative_upload_latency(np.array([100]), 400, rate(100.0)) == pytest.approx(5.0)
    same = cumulative_upload_latency(np.array([200]), 200, rate(100.0))
    assert same == pytest.approx(2 * cumulative_upload_latency(np.array([0]), 200, rate(100.0)))
    with pytest.raises(StalledLinkError):
        cumulative_upload_latency(np.array([0]), 100, rate(0.0))


def test_dimensional_walkthrough_full_round():
    # bits / (bits/s) + flops / (flops/s) + bits / (bits/s) must be seconds
    link = LinkConfig()
    rng = np.random.default_rng(3)
    d = place_devices(rng, 1, link.cell_radius_m)[0]
    g = gain_reference(rng, float(d), link.carrier_ghz)
    down = link_rate(link.server_power_w, g, link.bandwidth_hz, link.noise_density)
    up = link_rate(link.device_power_w, g, link.bandwidth_hz, link.noise_density)
    sizes = {1: 13_056, 2: 8_896}
    total = (download_latency(bits(sizes[1] + sizes[2]), rate(down))
             + compute_latency(5, 78_336 + 53_376, 1e7, 2.0)
             + cumulative_upload_latency(np.array([sizes[1]]), sizes[2], rate(up)))
    assert total.shape == (1,) and total.dtype == np.float64
    assert 0.0 < total[0] < 60.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        link_rate(0.1, 1.0, -5.0, 1e-17)
    with pytest.raises(NumericOverflowError, match="not finite"):
        link_rate(0.1, 1e300, 1e6, 1e-17)
