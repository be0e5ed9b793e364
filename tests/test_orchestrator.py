import copy
import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmlsim import aggregation as agg
from fmmlsim import config_to_dict, datagen, desk_config, nn_core, orchestrator, wireless
from fmmlsim.cli import main
from fmmlsim.config import ALGORITHMS, config_from_dict
from fmmlsim.errors import StalledLinkError
from fmmlsim.orchestrator import (RoundLog, Simulation, evaluate_personalized,
                                  local_update_phase, run_training,
                                  simulated_training_time)
from forms import owner_matrix, zero_grads


def quick_cfg(**over):
    base = dict(rounds=4, local_iters=3,
                data={"samples_per_device": 60, "noise_std": 1.0},
                compute={"cycles_per_s": 1e8, "heterogeneity": 1.0},
                coeff_lr=1.0)
    for key, value in over.items():
        if key in ("data", "compute", "arch") and isinstance(value, dict):
            base[key] = {**base.get(key, {}), **value}
        else:
            base[key] = value
    return desk_config(**base)


def test_single_iteration_matches_one_sgd_step():
    sim = Simulation(quick_cfg(seed=1))
    dev = sim.devices[0]
    n = len(dev.dataset.train.labels)
    # duplicate the rng so both paths see the same permutation
    rng_copy = copy.deepcopy(dev.rng)
    expected = copy.deepcopy(dev.params)
    mean_loss = local_update_phase(
        sim.arch, dev, lr=0.1, local_iters=1, batch_size=n, prox_mu=0.0,
        grad_out=zero_grads(dev.params))
    perm = rng_copy.permutation(n)
    feats = {m: dev.dataset.train.features[m][perm] for m in dev.dataset.owned}
    loss, grad = nn_core.loss_and_grad(sim.arch, expected, feats,
                                       dev.dataset.train.labels[perm],
                                       out=zero_grads(expected))
    nn_core.sgd_step(expected, grad, 0.1)
    assert mean_loss == pytest.approx(loss)
    for b in expected:
        np.testing.assert_array_equal(dev.params[b].values,
                                      expected[b].values)


@pytest.mark.parametrize("prox_mu", [0.0, 0.3])
def test_multi_iteration_update_matches_per_iteration_gather(prox_mu):
    sim = Simulation(quick_cfg(seed=3))
    dev = sim.devices[4]
    n = len(dev.dataset.train.labels)
    iters, batch = 5, 32
    assert iters * batch > 2 * n  # batches wrap around the shuffle more than once
    rng_copy = copy.deepcopy(dev.rng)
    anchor = copy.deepcopy(dev.params)
    mean_loss = local_update_phase(
        sim.arch, dev, lr=0.1, local_iters=iters, batch_size=batch, prox_mu=prox_mu,
        grad_out=zero_grads(dev.params))

    # reference: gather each iteration's batch from the shuffle on its own
    perm = rng_copy.permutation(n)
    params, losses = copy.deepcopy(anchor), []
    for i in range(iters):
        idx = perm[np.arange(i * batch, (i + 1) * batch) % n]
        feats = {m: dev.dataset.train.features[m][idx] for m in dev.dataset.owned}
        loss, grad = nn_core.loss_and_grad(sim.arch, params, feats,
                                           dev.dataset.train.labels[idx],
                                           out=zero_grads(params))
        if prox_mu > 0.0:
            grad = {b: g + prox_mu * (params[b].values - anchor[b].values)
                    for b, g in grad.items()}
        nn_core.sgd_step(params, grad, 0.1)
        losses.append(loss)
    assert mean_loss == float(np.mean(losses))
    for b in params:
        assert np.array_equal(dev.params[b].values, params[b].values)
    assert dev.rng.bit_generator.state == rng_copy.bit_generator.state


def local_update_round_gather(arch, device, lr, local_iters, batch_size):
    """Reference: the round's batches gathered as perm[np.arange(L*B) % n] in every case."""
    train = device.dataset.train
    n = len(train.labels)
    perm = device.rng.permutation(n)
    idx = perm[np.arange(local_iters * batch_size) % n]
    losses = []
    for i in range(local_iters):
        rows = idx[i * batch_size:(i + 1) * batch_size]
        feats = {m: train.features[m][rows] for m in device.dataset.owned}
        loss, grad = nn_core.loss_and_grad(arch, device.params, feats, train.labels[rows],
                                           out=zero_grads(device.params))
        nn_core.sgd_step(device.params, grad, lr)
        losses.append(loss)
    return float(np.add.reduce(losses) / local_iters)


@pytest.mark.parametrize("regime", ["one pass, part of the data", "one pass, all of it",
                                    "wraps around the shuffle"])
def test_round_batch_gather_matches_the_modulo_gather(regime):
    sim = Simulation(desk_config(seed=8))
    n = len(sim.devices[0].dataset.train.labels)
    iters, batch = {"one pass, part of the data": (1, 32),
                    "one pass, all of it": (2, n // 2),
                    "wraps around the shuffle": (12, 32)}[regime]
    assert (iters * batch <= n) == (regime != "wraps around the shuffle")
    for dev in sim.devices[:3]:
        twin = copy.deepcopy(dev)
        loss = local_update_phase(sim.arch, dev, 0.05, iters, batch, 0.0,
                                  zero_grads(dev.params))
        ref = local_update_round_gather(sim.arch, twin, 0.05, iters, batch)
        assert loss == ref
        for b, p in twin.params.items():
            assert np.array_equal(dev.params[b].values, p.values)
        assert dev.rng.bit_generator.state == twin.rng.bit_generator.state


@pytest.mark.parametrize("algorithm", ["proposed", "fedprox"])
def test_a_deep_copy_steps_like_the_original(algorithm):
    sim = Simulation(quick_cfg(seed=6, algorithm=algorithm, record_coefficients=True))
    sim.step()
    twin = copy.deepcopy(sim)
    for dev in twin.devices:
        for b, p in dev.params.items():
            assert np.shares_memory(p.values, twin.store[b])
            assert not np.shares_memory(p.values, sim.store[b])
    for _ in range(3):
        log, twin_log = sim.step(), twin.step()
        np.testing.assert_equal(dataclasses.asdict(twin_log), dataclasses.asdict(log))
        np.testing.assert_equal(twin.store, sim.store)
        if algorithm == "proposed":
            np.testing.assert_equal(twin.server.coeffs.raw, sim.server.coeffs.raw)


@pytest.fixture
def post_sgd(monkeypatch):
    """Each device's blocks right after its local SGD in the latest round."""
    record = {}
    update = orchestrator.local_update_phase

    def recording(arch, device, *args, **kwargs):
        loss = update(arch, device, *args, **kwargs)
        record[device.device_id] = {b: p.values.copy() for b, p in device.params.items()}
        return loss

    monkeypatch.setattr(orchestrator, "local_update_phase", recording)
    return record


def check_round_installs(sim, log, post_sgd):
    """Scheduled blocks hold the device's aggregate; every other block its post-SGD value."""
    for b, ind in log.scheduled.items():
        ks = np.flatnonzero(ind).tolist()
        expected = {}
        if ks and sim.cfg.algorithm == "proposed":
            entry = sim.server.cache[b]
            np.testing.assert_array_equal(entry.uploaders, ks)
            expected = dict(zip(ks, entry.aggregated))
        elif ks:
            # a sequential sum of the uploads, as the plain mean is formed
            mean = sum(post_sgd[k][b] for k in ks) / len(ks)
            expected = {k: mean for k in ks}
        for k in np.flatnonzero(sim.owners[b]).tolist():
            want = expected.get(k, post_sgd[k][b])
            np.testing.assert_array_equal(sim.devices[k].params[b].values, want)


def test_local_only_never_touches_server(post_sgd):
    sim = Simulation(quick_cfg(seed=2, algorithm="local"))
    for _ in range(3):
        log = sim.step()
        assert all(ind.sum() == 0 for ind in log.scheduled.values())
        assert log.t_download.max() == 0.0
        assert log.t_upload.max() == 0.0
        assert set(post_sgd) == set(range(sim.cfg.num_devices))
        check_round_installs(sim, log, post_sgd)
    assert sim.server.cache == {}


def test_local_update_descends_on_average():
    drops = []
    for seed in range(5):
        sim = Simulation(quick_cfg(seed=seed, algorithm="local"))
        dev = sim.devices[0]
        train = dev.dataset.train
        loss0, _ = nn_core.loss_and_grad(sim.arch, dev.params, train.features, train.labels,
                                         out=zero_grads(dev.params))
        local_update_phase(sim.arch, dev, lr=0.02, local_iters=10, batch_size=32, prox_mu=0.0,
                           grad_out=zero_grads(dev.params))
        loss1, _ = nn_core.loss_and_grad(sim.arch, dev.params, train.features, train.labels,
                                         out=zero_grads(dev.params))
        drops.append(loss0 - loss1)
    assert np.mean(drops) > 0


def test_fedavg_full_quota_unifies_shared_block():
    sim = Simulation(quick_cfg(seed=3, algorithm="fedavg", quota=9))
    sim.step()
    shared = sim.arch.shared_block_id
    ref = sim.devices[0].params[shared].values
    for dev in sim.devices[1:]:
        np.testing.assert_array_equal(dev.params[shared].values, ref)


def test_downloads_match_server_blocks(post_sgd):
    for algorithm in ("proposed", "fedavg"):
        sim = Simulation(quick_cfg(seed=4, algorithm=algorithm, quota=3))
        for _ in range(3):
            log = sim.step()
            check_round_installs(sim, log, post_sgd)


def test_unscheduled_server_blocks_frozen(post_sgd):
    sim = Simulation(quick_cfg(seed=5, algorithm="proposed", quota=2, rounds=5))
    for _ in range(5):
        log = sim.step()
        assert any((sim.owners[b] & (ind == 0)).any() for b, ind in log.scheduled.items())
        check_round_installs(sim, log, post_sgd)


def is_store_row(values, sim, b, k):
    """`values` is the very memory of device k's row in block b's store."""
    row = sim.store[b][sim.store_row[b][k]]
    return (values.base is sim.store[b] and values.shape == row.shape
            and values.__array_interface__["data"] == row.__array_interface__["data"])


@pytest.mark.parametrize("algorithm", ["proposed", "fedprox", "local"])
def test_every_device_block_is_a_row_of_its_store(algorithm):
    sim = Simulation(quick_cfg(seed=9, algorithm=algorithm, num_modalities=3,
                               data={"input_dims": [4, 5, 3]}))
    for b in sim.block_ids:
        assert sim.store[b].shape == (int(sim.owners[b].sum()), sim.arch.block_param_count(b))
        assert sim.sizes_bits[b] == nn_core.BITS_PER_PARAM * sim.arch.block_param_count(b)
    for _ in range(2):
        for dev in sim.devices:
            for b, p in dev.params.items():
                assert sim.owners[b][dev.device_id]
                assert is_store_row(p.values, sim, b, dev.device_id)
                assert all(np.shares_memory(a, p.values) for a in p.arrays())
        for _ in range(3):
            sim.step()


@pytest.mark.parametrize("algorithm", ["proposed", "fedavg"])
def test_aggregation_writes_only_the_uploaders_store_rows(post_sgd, algorithm):
    sim = Simulation(quick_cfg(seed=10, algorithm=algorithm, quota=2))
    for _ in range(3):
        log = sim.step()
        for b, ind in log.scheduled.items():
            owners = np.flatnonzero(sim.owners[b])
            before = np.stack([post_sgd[k][b] for k in owners.tolist()])
            uploaded = ind[owners] != 0
            store = sim.store[b]
            assert np.array_equal(store[~uploaded], before[~uploaded])
            if algorithm == "proposed" and uploaded.any():
                assert np.array_equal(store[uploaded], sim.server.cache[b].aggregated)
            elif uploaded.any():
                mean = sum(before[uploaded]) / int(uploaded.sum())
                assert all(np.array_equal(row, mean) for row in store[uploaded])


def test_a_deep_copy_of_device_params_detaches_from_the_store():
    sim = Simulation(quick_cfg(seed=11))
    dev = sim.devices[2]
    clone = copy.deepcopy(dev.params)
    stored = {b: sim.store[b].copy() for b in sim.block_ids}
    for b, p in clone.items():
        assert not np.shares_memory(p.values, sim.store[b])
        assert all(np.shares_memory(a, p.values) for a in p.arrays())
        assert not any(np.shares_memory(a, sim.store[b]) for a in p.arrays())
        p.arrays()[0][...] += 1.0
        p.values[:] *= 2.0
    for b in sim.block_ids:
        assert np.array_equal(sim.store[b], stored[b])


def test_zero_rounds_returns_initial_state():
    result = run_training(quick_cfg(seed=6, rounds=0))
    assert result.logs == []
    assert result.summary["rounds"] == 0
    assert result.summary["total_simulated_time_s"] == 0.0
    assert 0.0 <= result.summary["mean_personalized_accuracy"] <= 1.0


def test_same_seed_gives_identical_runs():
    a = run_training(quick_cfg(seed=7))
    b = run_training(quick_cfg(seed=7))
    assert a.summary == b.summary
    for da, db in zip(a.devices, b.devices):
        for blk in da.params:
            assert np.array_equal(da.params[blk].values,
                                  db.params[blk].values)


def test_round_time_is_max_of_device_totals():
    sim = Simulation(quick_cfg(seed=8))
    log = sim.step()
    totals = log.t_download + log.t_compute + log.t_upload
    assert log.round_time == pytest.approx(totals.max())


@pytest.mark.parametrize("seed", [0, 1009])
def test_each_round_schedules_with_the_current_effective_self_weights(seed):
    # the uniform start of init_coeffs first, then the end-of-round snapshot
    sim = Simulation(quick_cfg(seed=seed, algorithm="proposed"))
    for _ in range(3):
        for b in sim.block_ids:
            diag = np.diag(owner_matrix(sim.server.coeffs, b, sim.owners[b]))
            assert np.array_equal(sim.self_weights[b], diag)
        sim.step()


@pytest.mark.parametrize("k", [9, 90])
def test_coefficient_records_hold_exactly_the_rows_that_changed(k):
    def run(record):
        return Simulation(desk_config(seed=4, num_devices=k, quota=min(k, 30), local_iters=1,
                                      rounds=5, record_coefficients=record))

    sim = run(True)
    coeffs = sim.server.coeffs
    before = {b: m.copy() for b, m in coeffs.raw.items()}
    for t in range(1, 6):
        log = sim.step()
        assert sorted(log.coeff_record) == sim.block_ids
        for b, (rows, raw, eff) in log.coeff_record.items():
            changed = (coeffs.raw[b].view(np.uint64) != before[b].view(np.uint64)).any(axis=1)
            expected = sim.owners[b] if t == 1 else changed
            assert rows.tolist() == np.flatnonzero(expected).tolist()
            assert raw.tobytes() == coeffs.raw[b][rows].tobytes()
            full = owner_matrix(coeffs, b, sim.owners[b])
            assert eff.tobytes() == full[rows].tobytes()
            assert np.array_equal(sim.self_weights[b], np.diag(full))
            before[b] = coeffs.raw[b].copy()
    quiet = run(False)
    assert all(log.coeff_record is None for log in quiet.run().logs)
    assert all(np.array_equal(quiet.server.coeffs.raw[b], coeffs.raw[b]) for b in sim.block_ids)


def test_simulated_training_time_sums_rounds():
    def fake(round_time):
        return RoundLog(round=1, gains=np.ones(1), t_download=np.zeros(1),
                        t_compute=np.zeros(1), t_upload=np.zeros(1),
                        round_time=round_time, scheduled={}, staleness={},
                        metric_values={}, train_loss=np.zeros(1),
                        test_accuracy=np.zeros(1), mean_accuracy=0.0,
                        weight_rows_used=[], coeff_record=None)
    assert simulated_training_time([fake(1.5)]) == 1.5
    assert simulated_training_time([fake(1.5), fake(2.0)]) == 3.5


def test_fedprox_differs_from_fedavg():
    a = run_training(quick_cfg(seed=10, algorithm="fedavg", fedprox_mu=0.0))
    b = run_training(quick_cfg(seed=10, algorithm="fedprox", fedprox_mu=0.5))
    diff = max(
        np.abs(da.params[blk].values - db.params[blk].values).max()
        for da, db in zip(a.devices, b.devices) for blk in da.params)
    assert diff > 0


def test_evaluate_personalized_chance_level_for_zero_model():
    sim = Simulation(quick_cfg(seed=11))
    for dev in sim.devices:
        for b, p in dev.params.items():
            dev.params[b] = nn_core.ParamBlock(b, np.zeros_like(p.values), p.shapes)
    accs, mean_acc = evaluate_personalized(sim.arch, sim.devices)
    # all-zero scores -> argmax picks class 0 for everyone
    for dev, acc in zip(sim.devices, accs):
        expected = float((dev.dataset.test.labels == 0).mean())
        assert acc == pytest.approx(expected)
    assert mean_acc == pytest.approx(np.mean(accs))


def test_random_baseline_scheduler_runs_and_differs():
    a = run_training(quick_cfg(seed=14, algorithm="fedavg", quota=2))
    b = run_training(quick_cfg(seed=14, algorithm="fedavg", quota=2,
                               baseline_scheduler="random"))
    scheds_a = [log.scheduled for log in a.logs]
    scheds_b = [log.scheduled for log in b.logs]
    same = all(np.array_equal(sa[blk], sb[blk])
               for sa, sb in zip(scheds_a, scheds_b) for blk in sa)
    assert not same
    # ownership still respected under random selection
    for res in (a, b):
        for log in res.logs:
            for blk, ind in log.scheduled.items():
                for k in np.flatnonzero(ind):
                    owned = set(res.summary["owned_modalities"][k])
                    assert blk in owned or blk == res.config.num_modalities + 1


@pytest.mark.parametrize("algorithm, baseline_scheduler, draws", [
    ("fedavg", "channel_aware", False),
    ("proposed", "random", False),  # the baseline scheduler does not apply
    ("fedavg", "random", True),
])
def test_only_a_random_baseline_draws_from_the_scheduling_rng(algorithm, baseline_scheduler,
                                                              draws):
    sim = Simulation(quick_cfg(seed=18, algorithm=algorithm,
                               baseline_scheduler=baseline_scheduler))
    before = sim.rng_sched.bit_generator.state
    for _ in range(2):
        sim.step()
    assert (sim.rng_sched.bit_generator.state != before) is draws


def test_compute_time_without_heterogeneity_is_the_unslowed_latency():
    cfg = desk_config(0, compute={"heterogeneity": 1.0})
    sim = Simulation(cfg)
    for k, dev in enumerate(sim.devices):
        flops = sum(nn_core.flops_per_iteration(sim.arch, dev.dataset.owned,
                                                cfg.batch_size).values())
        assert sim.t_compute[k] == wireless.compute_latency(
            cfg.local_iters, flops, cfg.compute.cycles_per_s, cfg.compute.flops_per_cycle)


@pytest.mark.parametrize("overrides", [
    {},
    {"num_devices": 12, "num_modalities": 3, "data": {"input_dims": [16, 24, 12]}},
    {"modality_profile": [[0, 2], [9, 1]]},  # a group of no devices; nobody owns both
    {"data": {"samples_per_device": 2}},      # the smallest valid split: one row each
], ids=["desk", "three_modalities", "zero_count_group", "two_samples"])
def test_set_up_fixes_every_input_the_kernel_trusts(overrides):
    # loss_and_grad, forward_batch and sgd_step check none of these facts
    cfg = desk_config(0, **overrides)
    sim = Simulation(cfg)
    arch = sim.arch
    assigned = datagen.assign_modalities(cfg.num_devices, cfg.num_modalities,
                                         cfg.modality_profile)
    for dev in sim.devices:
        owned = dev.dataset.owned
        assert owned == tuple(sorted(assigned[dev.device_id]))
        assert tuple(dev.params) == arch.device_blocks(owned)
        for b, p in dev.params.items():  # the gradient workspace is laid out like each block
            assert p.shapes == sim.grad_workspace[b].shapes == arch.block_shapes(b)
        for split in (dev.dataset.train, dev.dataset.test):
            n = len(split.labels)
            assert n >= 1
            assert tuple(split.features) == owned
            for m, x in split.features.items():
                assert x.dtype == np.float64 and x.shape == (n, arch.input_dims[m - 1])
            assert split.labels.dtype == np.int64 and split.labels.shape == (n,)
            assert 0 <= split.labels.min() and split.labels.max() < arch.num_classes


def test_a_profile_is_assigned_once_from_the_config_to_set_up():
    # counted by code object, so a call through any imported name counts too
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code))
    try:
        sim = Simulation(config_from_dict({"modality_profile": [[3, 2], [6, 1]]}))
    finally:
        sys.setprofile(None)
    assert calls.count(datagen.assign_modalities.__code__) == 1
    assert [dev.dataset.owned for dev in sim.devices] == sim.cfg.modality_sets


@pytest.mark.parametrize("profile", [None, [[3, 2], [6, 1]]], ids=["default", "profile"])
def test_each_dataset_keeps_the_configs_modality_set(profile):
    # RunConfig.modality_sets owns the ascending order; set-up passes its tuples on as they are
    sim = Simulation(desk_config(0, modality_profile=profile))
    for k, dev in enumerate(sim.devices):
        assert dev.dataset.owned is sim.cfg.modality_sets[k]


@pytest.mark.parametrize("overrides", [
    {},
    {"num_devices": 12, "num_modalities": 3, "data": {"input_dims": [16, 24, 12]}},
    {"quota": 1, "staleness_threshold": 2},  # every other round, staleness forces the rest in
    {"lr": 1e6},                              # raw weights reach about 6e5
], ids=["desk", "three_modalities", "forced_uploads", "huge_step_size"])
def test_the_round_loop_fixes_every_input_aggregation_trusts(overrides, monkeypatch):
    # softmax_row, aggregate and estimate_block_gradient check none of these facts
    aggregate, estimate = agg.aggregate, agg.estimate_block_gradient
    estimates = []

    def checked_aggregate(rows, uploaders, U):
        assert U.ndim == 2 and U.shape[0] == rows.shape[0] == uploaders.size
        return aggregate(rows, uploaders, U)

    def checked_estimate(w_prev, w_new, *args, **kwargs):
        assert np.shape(w_prev) == np.shape(w_new)
        estimates.append(np.shape(w_prev))
        return estimate(w_prev, w_new, *args, **kwargs)

    monkeypatch.setattr(agg, "aggregate", checked_aggregate)
    monkeypatch.setattr(agg, "estimate_block_gradient", checked_estimate)
    sim = Simulation(desk_config(0, algorithm="proposed", **overrides))
    K = sim.cfg.num_devices
    for _ in range(6):
        log = sim.step()
        used = iter(log.weight_rows_used)
        for b in sim.block_ids:
            indicators = log.scheduled[b]
            assert not indicators[~sim.owners[b]].any()
            uploaders = np.flatnonzero(indicators)
            if not uploaders.size:
                assert b not in sim.server.cache
                continue
            entry = sim.server.cache[b]
            assert np.array_equal(entry.uploaders, uploaders)
            assert entry.U.shape == (uploaders.size, sim.store[b].shape[1])
            assert entry.rows.shape == (uploaders.size, K)
            for row, k in zip(entry.rows, uploaders):
                # the softmax mask is exactly the uploaders, the row's own
                # device among them; at huge raw weights its own entry can
                # underflow to 0.0, so the row is positive somewhere on the mask
                logged_b, logged_k, logged_row, mask = next(used)
                assert (logged_b, logged_k) == (b, k) and np.array_equal(logged_row, row)
                assert np.array_equal(mask, indicators != 0) and mask[k] == 1
                assert (row >= 0.0).all() and (row[mask == 0] == 0.0).all()
                assert row[mask == 1].max() > 0.0 and abs(row.sum() - 1.0) < 1e-12
        assert next(used, None) is None
    assert estimates  # the weight update ran


def test_huge_step_size_keeps_every_weight_row_finite():
    # raw weights reach about 6e5 in magnitude; a softmax over the owners
    # followed by renormalization over the uploaders underflowed to an
    # all-zero row at round 4
    sim = Simulation(desk_config(0, lr=1e6, rounds=6))
    logs = [sim.step() for _ in range(6)]
    assert max(np.abs(r).max() for r in sim.server.coeffs.raw.values()) > 1e5
    for log in logs:
        for _, _, row, mask in log.weight_rows_used:
            assert np.isfinite(row).all() and abs(row.sum() - 1.0) < 1e-12
            assert (row[mask == 0] == 0.0).all()


def test_round_log_carries_channel_gains():
    sim = Simulation(quick_cfg(seed=15))
    log = sim.step()
    assert log.gains.shape == (sim.cfg.num_devices,)
    assert (log.gains >= 0).all()


def test_staleness_forces_every_device_in_eventually():
    cfg = quick_cfg(seed=13, quota=1, staleness_threshold=3, rounds=8)
    sim = Simulation(cfg)
    seen = {b: np.zeros(cfg.num_devices, dtype=bool) for b in sim.block_ids}
    for _ in range(8):
        log = sim.step()
        for b, ind in log.scheduled.items():
            seen[b] |= ind.astype(bool)
    for b, owners in sim.owners.items():
        assert seen[b][owners].all()


@pytest.fixture
def device_zero_gain(monkeypatch):
    """Channel draws in which device 0's gain, and so both its link rates, are zero."""
    draw = wireless.sample_round_gains

    def stalled(*args, **kwargs):
        gains = draw(*args, **kwargs)
        gains[0] = 0.0
        return gains

    monkeypatch.setattr(wireless, "sample_round_gains", stalled)


def stalled_upload_cfg():
    # one round, random selection (no projected upload times) and quota K:
    # only device 0's realized upload in round 1 meets the zero rate
    return quick_cfg(seed=16, algorithm="fedavg", baseline_scheduler="random", quota=9,
                     rounds=1)


def test_realized_upload_on_a_stalled_link_raises(device_zero_gain):
    sim = Simulation(stalled_upload_cfg())
    with pytest.raises(StalledLinkError, match="uplink"):
        sim.step()


def test_cli_reports_a_stalled_link_as_a_run_failure(device_zero_gain, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(stalled_upload_cfg())))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "run failed:" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["proposed", "fedavg", "fedprox", "local"])
def test_step_builds_no_param_blocks(monkeypatch, algorithm):
    sim = Simulation(quick_cfg(seed=17, algorithm=algorithm))
    builds = []
    post_init = nn_core.ParamBlock.__post_init__

    def counted(block):
        builds.append(block.block_id)
        post_init(block)

    monkeypatch.setattr(nn_core.ParamBlock, "__post_init__", counted)
    for _ in range(3):
        sim.step()
    assert builds == []
    nn_core.ParamBlock(1, np.zeros(1), ((1,),))
    assert builds == [1]  # the counter sees a build


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), num_devices=st.integers(2, 5),
       num_modalities=st.integers(1, 3), algorithm=st.sampled_from(ALGORITHMS),
       quota=st.integers(1, 5), threshold=st.integers(1, 3),
       baseline_scheduler=st.sampled_from(["channel_aware", "random"]))
def test_round_latency_follows_the_schedule(seed, num_devices, num_modalities, algorithm,
                                            quota, threshold, baseline_scheduler):
    cfg = config_from_dict({
        "seed": seed, "rounds": 3, "num_devices": num_devices,
        "num_modalities": num_modalities, "algorithm": algorithm,
        "quota": min(quota, num_devices), "staleness_threshold": threshold,
        "baseline_scheduler": baseline_scheduler, "local_iters": 1, "batch_size": 4,
        "data": {"input_dims": [3] * num_modalities, "samples_per_device": 12},
        "arch": {"encoder_hidden": 2, "feature_len": 2, "classifier_hidden": [2]}})
    sim = Simulation(cfg)
    link = cfg.link
    previous = {b: np.zeros(num_devices, dtype=np.int8) for b in sim.block_ids}
    for _ in range(cfg.rounds):
        log = sim.step()
        assert log.round_time == float(np.max(log.t_download + log.t_compute + log.t_upload))
        for k, gain in enumerate(log.gains):
            up = wireless.link_rate(link.device_power_w, gain, link.bandwidth_hz,
                                    link.noise_density)
            down = wireless.link_rate(link.server_power_w, gain, link.bandwidth_hz,
                                      link.noise_density)
            shipped = sum(sim.sizes_bits[b] for b in sim.block_ids if log.scheduled[b][k])
            fetched = sum(sim.sizes_bits[b] for b in sim.block_ids if previous[b][k])
            # bits conserved: what the schedule ships is what the latency carries
            assert log.t_upload[k] * up == pytest.approx(shipped, rel=1e-12, abs=0.0)
            assert log.t_download[k] * down == pytest.approx(fetched, rel=1e-12, abs=0.0)
        for b in sim.block_ids:
            assert (log.staleness[b] < threshold).all()
        previous = log.scheduled


@pytest.mark.parametrize("prox_mu", [0.0, 0.3])
def test_local_update_into_the_workspace_matches_the_fresh_path(prox_mu):
    sim = Simulation(quick_cfg(seed=3))
    for ws in sim.grad_workspace.values():
        ws.values[:] = 7.5  # what an earlier device left behind, never a gradient
    owned = [dev.dataset.owned for dev in sim.devices[2:5]]
    assert len(owned[0]) > len(owned[1]) and owned[1] != owned[2]
    for dev in sim.devices[2:5]:  # fewer modalities after more, then the other one
        twin = copy.deepcopy(dev)
        loss = local_update_phase(sim.arch, dev, 0.05, 5, 32, prox_mu=prox_mu,
                                  grad_out=sim.grad_workspace)
        assert loss == local_update_phase(sim.arch, twin, 0.05, 5, 32, prox_mu=prox_mu,
                                          grad_out=zero_grads(twin.params))
        for b, p in twin.params.items():
            assert np.array_equal(dev.params[b].values, p.values)
