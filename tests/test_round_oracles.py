"""The round's array code against the per-device loops it replaced.

Latency accounting, scheduling and the aggregation-weight update run once
per round or per block over (K,) arrays and stacked products. The loops
below are the per-device and per-row code they replaced, kept as oracles:
on every generated case the array code must give bit-equal arrays, equal
metric dicts (key order included) and the same error message.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmlsim import aggregation as agg
from fmmlsim.errors import SchedulingError, StalledLinkError
from fmmlsim.scheduler import MetricSpec, schedule_round
from fmmlsim.wireless import download_latency, upload_latency

# ----------------------------- per-device references -----------------------------


def transfer_time_reference(bits, rate, link):
    if bits == 0:
        return 0.0
    if rate <= 0:
        raise StalledLinkError(f"{bits} bits scheduled on a zero-rate {link}")
    return bits / rate


def download_latency_reference(prev_indicators, owners, sizes_bits, rates_down):
    """Per device: fetch the blocks it owns and uploaded last round."""
    out = np.zeros(len(rates_down))
    for k in range(len(rates_down)):
        bits = sum(sizes_bits[b] for b, ind in prev_indicators.items()
                   if owners[b][k] and int(ind[k]))
        out[k] = transfer_time_reference(bits, float(rates_down[k]), "downlink")
    return out


def upload_latency_reference(indicators, sizes_bits, rates_up):
    """Per device: ship every block scheduled for it this round."""
    out = np.zeros(len(rates_up))
    for k in range(len(rates_up)):
        bits = sum(sizes_bits[b] for b, ind in indicators.items() if int(ind[k]))
        out[k] = transfer_time_reference(bits, float(rates_up[k]), "uplink")
    return out


def metric_reference(metric, self_weight, t_down, t_cmp, t_up):
    total = t_down + t_cmp + t_up
    if metric.kind == "ratio":
        if total <= 0:
            raise SchedulingError("ratio metric needs a positive latency denominator")
        return (1.0 - self_weight) / total
    return (1.0 - self_weight) - metric.alpha * total


def schedule_block_reference(metrics, staleness, quota, threshold):
    indicators = np.zeros(staleness.shape[0], dtype=np.int8)
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


def schedule_round_reference(self_weights, t_down, t_cmp, sizes_bits, up_rates, owners,
                             metric, staleness, quota, threshold, selection="metric",
                             rng=None):
    """One metric (and one cumulative upload time) per device per block."""
    indicators, new_stale, values = {}, {}, {}
    for block in sorted(owners):
        eligible = [int(k) for k in np.flatnonzero(owners[block])]
        metrics = {}
        for k in eligible:
            if selection == "random":
                metrics[k] = float(rng.uniform())
                continue
            bits = sizes_bits[block] + sum(
                sizes_bits[b] for b in indicators if b < block and int(indicators[b][k]))
            t_up = transfer_time_reference(bits, float(up_rates[k]), "uplink")
            metrics[k] = metric_reference(
                metric, float(self_weights[block][k]), float(t_down[k]), float(t_cmp[k]), t_up)
        indicators[block], new_stale[block] = schedule_block_reference(
            metrics, staleness[block], quota, threshold)
        values[block] = metrics
    return indicators, new_stale, values


def coeff_grad_reference(entry, i, grad_block):
    row = entry.rows[i]
    inner = np.zeros_like(row)
    inner[entry.uploaders] = entry.U @ grad_block
    return row * (inner - row @ inner)


def update_weights_reference(state, prev, indicators, fresh_values, eta, num_iters, mode):
    """One gradient estimate, weight-row gradient and descent step per (device, block)."""
    grads = {}
    for b, entry in prev.items():
        for i, k in enumerate(entry.uploaders.tolist()):
            if not indicators[b][k]:
                continue
            est = agg.estimate_block_gradient(entry.aggregated[i], fresh_values[b][k],
                                              eta, num_iters, mode=mode)
            grads[(k, b)] = coeff_grad_reference(entry, i, est)
    for (k, b) in sorted(grads):
        state.raw[b][k] = state.raw[b][k] - state.lr * np.asarray(grads[(k, b)])
    return state


# ----------------------------- generated rounds -----------------------------


def random_owners(rng, num_devices, num_blocks):
    """Owner masks for the modality blocks and an all-owned head block."""
    owners = {}
    for b in range(1, num_blocks):
        row = rng.uniform(size=num_devices) < rng.uniform(0.2, 1.0)
        row[int(rng.integers(num_devices))] = True
        owners[b] = row
    owners[num_blocks] = np.ones(num_devices, dtype=bool)
    return owners


def random_indicators(rng, owners):
    share = rng.uniform(0.0, 1.0)
    return {b: ((rng.uniform(size=own.size) < share) & own).astype(np.int8)
            for b, own in owners.items()}


def stall_some(rng, rates):
    """Zero the rates of up to three devices in about a third of the cases."""
    if rng.uniform() < 1 / 3:
        rates[rng.integers(rates.size, size=int(rng.integers(1, 4)))] = 0.0
    return rates


@st.composite
def rounds(draw):
    num_devices = draw(st.integers(1, 95))
    num_blocks = draw(st.integers(1, 4))
    return num_devices, num_blocks, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def same_outcome(reference, candidate):
    """Call both; equal results, or the same error type and message."""
    try:
        expected = reference()
    except (StalledLinkError, SchedulingError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            candidate()
        return None, None
    return expected, candidate()


@settings(max_examples=150, deadline=None)
@given(rounds())
def test_latency_arrays_match_the_per_device_loops(case):
    num_devices, num_blocks, rng = case
    owners = random_owners(rng, num_devices, num_blocks)
    sizes = {b: int(rng.integers(1, 10 ** 7)) for b in owners}
    prev, now = random_indicators(rng, owners), random_indicators(rng, owners)
    down = stall_some(rng, rng.uniform(1e3, 1e8, size=num_devices))
    up = stall_some(rng, rng.uniform(1e3, 1e8, size=num_devices))
    for expected, got in (
            same_outcome(lambda: download_latency_reference(prev, owners, sizes, down),
                         lambda: download_latency(prev, sizes, down)),
            same_outcome(lambda: upload_latency_reference(now, sizes, up),
                         lambda: upload_latency(now, sizes, up))):
        if expected is not None:
            assert got.dtype == np.float64 and np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(rounds(), st.sampled_from(["ratio", "linear"]), st.sampled_from(["metric", "random"]),
       st.booleans())
def test_schedule_round_matches_the_per_device_loop(case, kind, selection, coarse):
    num_devices, num_blocks, rng = case
    owners = random_owners(rng, num_devices, num_blocks)
    if coarse:  # few distinct values, so metrics tie often
        def draw(values):
            return rng.choice(values, size=num_devices)
        self_w = {b: np.where(own, draw([0.0, 0.25, 0.5]), 0.0) for b, own in owners.items()}
        t_down, t_cmp = draw([0.0, 0.5]), draw([0.25, 1.0])
        up_rates = draw([1e4, 2e4])
        sizes = {b: 10_000 for b in owners}
    else:
        self_w = {b: np.where(own, rng.uniform(size=num_devices), 0.0)
                  for b, own in owners.items()}
        t_down = rng.uniform(0.0, 3.0, size=num_devices)
        t_cmp = rng.uniform(0.1, 5.0, size=num_devices)
        up_rates = rng.uniform(50.0, 5000.0, size=num_devices)
        sizes = {b: int(rng.integers(100, 10_000)) for b in owners}
    up_rates = stall_some(rng, up_rates)
    quota = int(rng.integers(1, num_devices + 1))
    threshold = int(rng.integers(1, 6))
    staleness = {b: rng.integers(0, threshold, size=num_devices) for b in owners}
    metric = MetricSpec(kind, float(rng.uniform(0.0, 0.5)))
    seed = int(rng.integers(2 ** 32))
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    args = (self_w, t_down, t_cmp, sizes, up_rates, owners, metric, staleness, quota, threshold)
    expected, got = same_outcome(
        lambda: schedule_round_reference(*args, selection=selection, rng=rngs[0]),
        lambda: schedule_round(*args, selection=selection, rng=rngs[1]))
    if expected is None:
        return
    for b in owners:
        for want, have in zip(expected[:2], got[:2]):
            assert have[b].dtype == want[b].dtype and np.array_equal(have[b], want[b])
        assert list(got[2][b].items()) == list(expected[2][b].items())
    assert list(got[0]) == list(expected[0]) and list(got[2]) == list(expected[2])
    # the same number of draws: the next round's random selection is unchanged too
    assert rngs[0].uniform() == rngs[1].uniform()


@settings(max_examples=150, deadline=None)
@given(rounds(), st.integers(1, 40), st.sampled_from(agg.GRADIENT_ESTIMATES))
def test_update_weights_matches_the_per_row_loop(case, length, mode):
    num_devices, num_blocks, rng = case
    owners = random_owners(rng, num_devices, num_blocks)
    raw = {b: rng.normal(scale=2.0, size=(num_devices, num_devices)) for b in owners}

    def aggregation(indicators):
        cache, values = {}, {}
        for b, ind in indicators.items():
            ks = np.flatnonzero(ind).tolist()
            values[b] = {k: rng.normal(size=length) for k in ks}
            if ks:
                rows = agg.softmax_row(raw[b][ks], ind != 0)
                cache[b] = agg.aggregate(rows, values[b])
        return cache, values

    prev, _ = aggregation(random_indicators(rng, owners))
    indicators = random_indicators(rng, owners)
    fresh, fresh_values = aggregation(indicators)
    eta, iters = float(rng.uniform(1e-4, 0.5)), int(rng.integers(1, 13))
    states = [agg.CoefficientState({b: m.copy() for b, m in raw.items()}, lr=0.01)
              for _ in range(2)]
    update_weights_reference(states[0], prev, indicators, fresh_values, eta, iters, mode)
    agg.update_weights(states[1], prev, fresh, indicators, eta, iters, mode=mode)
    for b in owners:
        assert np.array_equal(states[1].raw[b], states[0].raw[b])


def test_coeff_grad_rows_are_bit_equal_to_one_device_at_a_time():
    rng = np.random.default_rng(21)
    for num_devices, length in ((1, 1), (3, 5), (9, 40), (90, 37), (95, 64)):
        ks = np.flatnonzero(rng.uniform(size=num_devices) < 0.6).tolist() or [0]
        rows = agg.softmax_row(rng.normal(size=(len(ks), num_devices)),
                               np.isin(np.arange(num_devices), ks))
        entry = agg.aggregate(rows, {k: rng.normal(size=length) for k in ks})
        sel = np.arange(len(ks))[::2]
        est = rng.normal(size=(sel.size, length))
        got = agg.coeff_grad(entry, sel, est)
        for j, i in enumerate(sel.tolist()):
            assert np.array_equal(got[j], coeff_grad_reference(entry, i, est[j]))
