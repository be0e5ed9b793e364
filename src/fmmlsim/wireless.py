"""Channel realizations and latency bookkeeping.

Links are orthogonal (each device has its own bandwidth slice), gains follow
a Rayleigh draw whose mean equals the free-space attenuation of the device's
distance, and one gain per device per round covers both link directions.
Sizes are counted in bits, rates in bits/s, times in seconds. Latencies are
computed for all devices at once: a schedule maps each block to a (K,) flag
array, and each device's bit total is divided by its own rate.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import NumericOverflowError, StalledLinkError


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
    try:
        return 10.0 ** (-path_loss_db(distance_m, carrier_ghz) / 20.0)
    except OverflowError:
        raise NumericOverflowError(
            f"path gain overflows at {distance_m!r} m and {carrier_ghz!r} GHz") from None


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
    """Shannon rate in bits/s; log base 2 because sizes are in bits.

    An SNR or rate that overflows to a non-finite value raises
    NumericOverflowError instead of turning every transfer time into zero.
    """
    if bandwidth_hz <= 0 or noise_density <= 0:
        raise ValueError("bandwidth and noise density must be positive")
    snr = power_w * gain * gain / (bandwidth_hz * noise_density)
    rate = bandwidth_hz * math.log2(1.0 + snr)
    if not math.isfinite(rate):
        raise NumericOverflowError(f"link rate is not finite (SNR {snr!r})")
    return rate


def _scheduled_bits(schedule: Mapping[int, np.ndarray], sizes_bits: Mapping[int, int],
                   num_devices: int) -> np.ndarray:
    """(K,) int64 total size of the blocks flagged for each device in `schedule`."""
    bits = np.zeros(num_devices, dtype=np.int64)
    for b, flags in schedule.items():
        bits += np.where(flags, sizes_bits[b], 0)
    return bits


def _transfer_times(bits: np.ndarray, rates: np.ndarray, link: str) -> np.ndarray:
    """Seconds for each device to move its `bits` at its rate; zero bits take 0 s.

    A positive payload on a zero-rate link stalls: the first such device
    raises StalledLinkError.
    """
    busy = bits > 0
    stalled = busy & (rates <= 0)
    if stalled.any():
        raise StalledLinkError(f"{int(bits[stalled.argmax()])} bits scheduled on a zero-rate {link}")
    return np.divide(bits, rates, out=np.zeros(bits.shape), where=busy)


def download_latency(prev_schedule: Mapping[int, np.ndarray], sizes_bits: Mapping[int, int],
                     rates_down: np.ndarray) -> np.ndarray:
    """(K,) time to fetch every block scheduled for each device last round."""
    bits = _scheduled_bits(prev_schedule, sizes_bits, len(rates_down))
    return _transfer_times(bits, rates_down, "downlink")


def upload_latency(schedule: Mapping[int, np.ndarray], sizes_bits: Mapping[int, int],
                   rates_up: np.ndarray) -> np.ndarray:
    """(K,) time to ship every block scheduled for each device this round."""
    bits = _scheduled_bits(schedule, sizes_bits, len(rates_up))
    return _transfer_times(bits, rates_up, "uplink")


def compute_latency(local_iters: int, flops_per_iter: float, cycles_per_s: float,
                    flops_per_cycle: float) -> float:
    """Local-update time: iterations times the per-iteration FLOPs budget."""
    return local_iters * flops_per_iter / (cycles_per_s * flops_per_cycle)


def cumulative_upload_latency(bits_so_far: np.ndarray, block_bits: int,
                              rates_up: np.ndarray) -> np.ndarray:
    """Upload time of each device if a block of `block_bits` joins the bits it
    is already scheduled to ship this round."""
    return _transfer_times(bits_so_far + block_bits, rates_up, "uplink")
