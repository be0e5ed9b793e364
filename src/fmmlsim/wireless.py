"""Channel realizations and latency bookkeeping.

Links are orthogonal (each device has its own bandwidth slice), gains follow
a Rayleigh draw whose mean equals the free-space attenuation of the device's
distance, and one gain per device per round covers both link directions.
Sizes are counted in bits, rates in bits/s, times in seconds.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import StalledLinkError


def place_devices(rng: np.random.Generator, num_devices: int,
                  radius_m: float = 50.0) -> np.ndarray:
    """Distances of devices dropped uniformly in a disc around the server."""
    d = radius_m * np.sqrt(rng.uniform(size=num_devices))
    return np.maximum(d, 1e-3)


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    if distance_m <= 0 or carrier_ghz <= 0:
        raise ValueError("distance and carrier frequency must be positive")
    return 32.4 + 20.0 * math.log10(carrier_ghz) + 20.0 * math.log10(distance_m)


def mean_gain(distance_m: float, carrier_ghz: float) -> float:
    return 10.0 ** (-path_loss_db(distance_m, carrier_ghz) / 20.0)


def sample_gain(rng: np.random.Generator, distance_m: float, carrier_ghz: float) -> float:
    """Rayleigh amplitude whose mean equals the path-loss attenuation."""
    mu = mean_gain(distance_m, carrier_ghz)
    return float(rng.rayleigh(scale=mu * math.sqrt(2.0 / math.pi)))


def sample_round_gains(rng: np.random.Generator, distances: np.ndarray,
                       carrier_ghz: float) -> np.ndarray:
    """One amplitude gain per device for one round, each >= 0."""
    return np.array([sample_gain(rng, float(d), carrier_ghz) for d in distances])


def link_rate(power_w: float, gain: float, bandwidth_hz: float,
              noise_density: float) -> float:
    """Shannon rate in bits/s; log base 2 because sizes are in bits."""
    if bandwidth_hz <= 0 or noise_density <= 0:
        raise ValueError("bandwidth and noise density must be positive")
    snr = power_w * gain * gain / (bandwidth_hz * noise_density)
    return bandwidth_hz * math.log2(1.0 + snr)


def _transfer_time(bits: int, rate: float, link: str) -> float:
    """Seconds to move `bits` at `rate`; a positive payload on a zero rate stalls."""
    if bits == 0:
        return 0.0
    if rate <= 0:
        raise StalledLinkError(f"{bits} bits scheduled on a zero-rate {link}")
    return bits / rate


def download_latency(prev_schedule: Mapping[int, int], sizes_bits: Mapping[int, int],
                     rate_down: float) -> float:
    """Time to fetch every block scheduled for the device last round."""
    bits = sum(sizes_bits[b] for b, flag in prev_schedule.items() if flag)
    return _transfer_time(bits, rate_down, "downlink")


def upload_latency(schedule: Mapping[int, int], sizes_bits: Mapping[int, int],
                   rate_up: float) -> float:
    """Time to ship every block scheduled for the device this round."""
    bits = sum(sizes_bits[b] for b, flag in schedule.items() if flag)
    return _transfer_time(bits, rate_up, "uplink")


def compute_latency(local_iters: int, flops_per_iter: float, cycles_per_s: float,
                    flops_per_cycle: float) -> float:
    """Local-update time: iterations times the per-iteration FLOPs budget."""
    return local_iters * flops_per_iter / (cycles_per_s * flops_per_cycle)


def cumulative_upload_latency(schedule_so_far: Mapping[int, int], block: int,
                              sizes_bits: Mapping[int, int], rate_up: float) -> float:
    """Upload time if `block` joins the blocks already scheduled before it."""
    bits = sizes_bits[block] + sum(
        sizes_bits[b] for b, flag in schedule_so_far.items() if b < block and flag)
    return _transfer_time(bits, rate_up, "uplink")
