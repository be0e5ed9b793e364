"""The round's array code against the per-device loops it replaced.

Latency accounting, scheduling and the aggregation-weight update run once
per round or per block over (K,) arrays and stacked products. The
per-device loops of `reference.py` and the per-row loops below are the code
they replaced, kept as oracles: on every generated case the array code must
give bit-equal arrays, equal metric dicts (key order included) and the same
error message.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmlsim import aggregation as agg
from fmmlsim.errors import SchedulingError, StalledLinkError
from fmmlsim.scheduler import schedule_round
from fmmlsim.wireless import download_latency, upload_latency
from reference import (download_latency_reference, schedule_round_reference,
                       scheduled_bits_reference, upload_latency_reference)

# ----------------------------- per-row references -----------------------------


def coeff_grad_reference(entry, i, grad_block):
    row = entry.rows[i]
    inner = np.zeros_like(row)
    inner[entry.uploaders] = entry.U @ grad_block
    return row * (inner - row @ inner)


def update_weights_reference(state, prev, indicators, fresh_values, eta, num_iters, mode):
    """One gradient estimate, weight-row gradient and descent step per (device, block);
    returns the stepped devices of each block that has any, ascending."""
    grads = {}
    for b, entry in prev.items():
        for i, k in enumerate(entry.uploaders.tolist()):
            if not indicators[b][k]:
                continue
            est = agg.estimate_block_gradient(entry.aggregated[i], fresh_values[b][k],
                                              eta, num_iters, mode=mode)
            grads[(k, b)] = coeff_grad_reference(entry, i, est)
    stepped = {}
    for (k, b) in sorted(grads):
        state.raw[b][k] = state.raw[b][k] - state.lr * np.asarray(grads[(k, b)])
        stepped.setdefault(b, []).append(k)
    return stepped


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
    prev_bits = scheduled_bits_reference(prev, owners, sizes)
    now_bits = scheduled_bits_reference(now, owners, sizes)
    for expected, got in (
            same_outcome(lambda: download_latency_reference(prev, owners, sizes, down),
                         lambda: download_latency(prev_bits, down)),
            same_outcome(lambda: upload_latency_reference(now, owners, sizes, up),
                         lambda: upload_latency(now_bits, up))):
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
    alpha = float(rng.uniform(0.0, 0.5))
    seed = int(rng.integers(2 ** 32))
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    args = (self_w, t_down, t_cmp, sizes, up_rates, owners, kind, alpha, staleness, quota,
            threshold)
    expected, got = same_outcome(
        lambda: schedule_round_reference(*args, selection=selection, rng=rngs[0]),
        lambda: schedule_round(*args, rng=rngs[1] if selection == "random" else None))
    if expected is None:
        return
    for b in owners:
        for want, have in zip(expected[:2], got[:2]):
            assert have[b].dtype == want[b].dtype and np.array_equal(have[b], want[b])
        assert list(got[2][b].items()) == list(expected[2][b].items())
    assert list(got[0]) == list(expected[0]) and list(got[2]) == list(expected[2])
    # the bits each device ships, forced uploads included, counted once
    bits = scheduled_bits_reference(expected[0], owners, sizes)
    assert got[3].dtype == np.int64 and np.array_equal(got[3], bits)
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
                cache[b] = agg.aggregate(rows, np.array(ks), np.stack(list(values[b].values())))
        return cache, values

    prev, _ = aggregation(random_indicators(rng, owners))
    indicators = random_indicators(rng, owners)
    fresh, fresh_values = aggregation(indicators)
    eta, iters = float(rng.uniform(1e-4, 0.5)), int(rng.integers(1, 13))
    states = [agg.CoefficientState({b: m.copy() for b, m in raw.items()}, lr=0.01)
              for _ in range(2)]
    expected = update_weights_reference(states[0], prev, indicators, fresh_values, eta, iters,
                                        mode)
    stepped = agg.update_weights(states[1], prev, fresh, indicators, eta, iters, mode=mode)
    assert {b: ks.tolist() for b, ks in stepped.items()} == expected
    for b in owners:
        assert np.array_equal(states[1].raw[b], states[0].raw[b])
        # a stepped row may keep its bits (a zero gradient); no other row changes
        changed = np.flatnonzero((states[1].raw[b] != raw[b]).any(axis=1))
        assert set(changed.tolist()) <= set(expected.get(b, []))


def test_coeff_grad_rows_are_bit_equal_to_one_device_at_a_time():
    rng = np.random.default_rng(21)
    for num_devices, length in ((1, 1), (3, 5), (9, 40), (90, 37), (95, 64)):
        ks = np.flatnonzero(rng.uniform(size=num_devices) < 0.6).tolist() or [0]
        rows = agg.softmax_row(rng.normal(size=(len(ks), num_devices)),
                               np.isin(np.arange(num_devices), ks))
        entry = agg.aggregate(rows, np.array(ks), rng.normal(size=(len(ks), length)))
        sel = np.arange(len(ks))[::2]
        est = rng.normal(size=(sel.size, length))
        got = agg.coeff_grad(entry, sel, est)
        for j, i in enumerate(sel.tolist()):
            assert np.array_equal(got[j], coeff_grad_reference(entry, i, est[j]))
