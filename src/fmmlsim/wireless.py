"""Channel realizations and latency bookkeeping.

Links are orthogonal (each device has its own bandwidth slice), gains follow
a Rayleigh draw whose mean equals the free-space attenuation of the device's
distance, and one gain per device per round covers both link directions.
Sizes are counted in bits, rates in bits/s, times in seconds. Latencies are
computed for all devices at once from a (K,) array of each device's bit
total, the one the scheduler counts, each divided by the device's own rate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericOverflowError, StalledLinkError


def place_devices(rng: np.random.Generator, num_devices: int, radius_m: float) -> np.ndarray:
    """Distances of devices dropped uniformly in a disc around the server."""
    d = radius_m * np.sqrt(rng.uniform(size=num_devices))
    return np.maximum(d, 1e-3)


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    return 32.4 + 20.0 * math.log10(carrier_ghz) + 20.0 * math.log10(distance_m)


def mean_gain(distance_m: float, carrier_ghz: float) -> float:
    try:
        return 10.0 ** (-path_loss_db(distance_m, carrier_ghz) / 20.0)
    except OverflowError:
        raise NumericOverflowError(
            f"path gain overflows at {distance_m!r} m and {carrier_ghz!r} GHz") from None


def sample_round_gains(rng: np.random.Generator, distances: np.ndarray,
                       carrier_ghz: float) -> np.ndarray:
    """One Rayleigh amplitude gain per device for one round, each >= 0.

    Device k's scale makes its mean gain the path-loss attenuation at its
    distance; one draw over the (K,) scales takes them in device order.
    """
    c = math.sqrt(2.0 / math.pi)
    scales = np.array([mean_gain(d, carrier_ghz) * c for d in np.asarray(distances).tolist()])
    return rng.rayleigh(scale=scales)


def link_rate(power_w: float, gain: float, bandwidth_hz: float,
              noise_density: float) -> float:
    """Shannon rate in bits/s; log base 2 because sizes are in bits.

    An SNR or rate that overflows to a non-finite value raises
    NumericOverflowError instead of turning every transfer time into zero.
    """
    snr = power_w * gain * gain / (bandwidth_hz * noise_density)
    rate = bandwidth_hz * math.log2(1.0 + snr)
    if not math.isfinite(rate):
        raise NumericOverflowError(f"link rate is not finite (SNR {snr!r})")
    return rate


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


def download_latency(bits: np.ndarray, rates_down: np.ndarray) -> np.ndarray:
    """(K,) time to fetch the `bits` each device shipped last round."""
    return _transfer_times(bits, rates_down, "downlink")


def upload_latency(bits: np.ndarray, rates_up: np.ndarray) -> np.ndarray:
    """(K,) time to ship the `bits` scheduled for each device this round."""
    return _transfer_times(bits, rates_up, "uplink")


def compute_latency(local_iters: int, flops_per_iter: float, cycles_per_s: float,
                    flops_per_cycle: float) -> float:
    """Local-update time: iterations times the per-iteration FLOPs budget.

    A FLOP rate that underflows to zero or overflows, or a time that
    overflows, raises NumericOverflowError: compute is never free or endless.
    """
    rate = cycles_per_s * flops_per_cycle
    if not 0.0 < rate < math.inf:
        raise NumericOverflowError(f"compute rate {rate!r} FLOP/s is not positive and finite")
    latency = local_iters * flops_per_iter / rate
    if not math.isfinite(latency):
        raise NumericOverflowError(f"compute time is not finite at {rate!r} FLOP/s")
    return latency


def cumulative_upload_latency(bits_so_far: np.ndarray, block_bits: int,
                              rates_up: np.ndarray) -> np.ndarray:
    """Upload time of each device if a block of `block_bits` joins the bits it
    is already scheduled to ship this round."""
    return _transfer_times(bits_so_far + block_bits, rates_up, "uplink")
