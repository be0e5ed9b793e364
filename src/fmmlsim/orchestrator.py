"""Round loop: local updates, scheduling, aggregation, weight learning, timing.

One round runs, in order: channel realization, local SGD on every device,
download/compute latency accounting, per-block upload scheduling, weighted
aggregation of each block over its uploaders, aggregation-weight updates
from the previous round's retained material, cache refresh, and downloads
back to the scheduled devices. Each device's parameter blocks are the only
copy of its model: SGD updates them in place, an upload reads them, and a
download overwrites them with the device's aggregate. The server keeps the
aggregation weights and the last round's aggregation, not the models.
Rounds are synchronous: the round wall time is the slowest device's
download + compute + upload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import aggregation as agg
from . import datagen, nn_core, scheduler, wireless
from .config import RunConfig, config_to_dict
from .errors import FmmlError
from .nn_core import ArchSpec, MultiModalParams


@dataclass
class DeviceState:
    device_id: int
    params: MultiModalParams
    dataset: datagen.DeviceDataset
    rng: np.random.Generator


@dataclass
class ServerState:
    coeffs: agg.CoefficientState | None
    cache: agg.GradCache
    schedule: scheduler.ScheduleState
    round: int = 0


@dataclass
class RoundLog:
    round: int
    gains: np.ndarray
    t_download: np.ndarray
    t_compute: np.ndarray
    t_upload: np.ndarray
    round_time: float
    scheduled: dict[int, np.ndarray]
    staleness: dict[int, np.ndarray]
    metric_values: dict[int, dict[int, float]]
    train_loss: np.ndarray
    test_accuracy: np.ndarray
    mean_accuracy: float
    weight_rows_used: list[tuple[int, int, np.ndarray, np.ndarray]]
    coeff_snapshot: dict[int, tuple[np.ndarray, np.ndarray]] | None


@dataclass
class RunResult:
    config: RunConfig
    logs: list[RoundLog]
    summary: dict
    server: ServerState
    devices: list[DeviceState]


def local_update_phase(arch: ArchSpec, device: DeviceState, lr: float,
                       local_iters: int, batch_size: int,
                       prox_mu: float = 0.0) -> float:
    """Run the device's local SGD steps for one round, in place on device.params.

    Batches cycle through a fresh shuffle of the train split. With a positive
    prox_mu the gradient gains mu * (w - anchor), pulling the iterates back
    toward the round-start parameters (the anchor). Returns the mean loss.
    """
    train = device.dataset.train
    n = len(train)
    perm = device.rng.permutation(n)
    # the whole round's batches in one gather; iteration i reads rows [i*B, (i+1)*B)
    idx = perm[np.arange(local_iters * batch_size) % n]
    round_feats = {m: train.features[m][idx] for m in device.dataset.owned}
    round_labels = train.labels[idx]
    params = device.params
    anchor = {b: p.values.copy() for b, p in params.blocks.items()} if prox_mu > 0.0 else None
    losses = []
    for i in range(local_iters):
        rows = slice(i * batch_size, (i + 1) * batch_size)
        feats = {m: x[rows] for m, x in round_feats.items()}
        loss, grad = nn_core.loss_and_grad(arch, params, feats, round_labels[rows])
        if anchor is not None:
            for b, g in grad.items():
                g += prox_mu * (params.blocks[b].values - anchor[b])
        nn_core.sgd_step(params, grad, lr)
        losses.append(loss)
    return float(np.add.reduce(losses) / local_iters)


def evaluate_personalized(arch: ArchSpec, devices: Sequence[DeviceState]) -> tuple[np.ndarray, float]:
    """Accuracy of each device's current model on its own test split."""
    accs = np.zeros(len(devices))
    for i, dev in enumerate(devices):
        test = dev.dataset.test
        scores = nn_core.forward_batch(arch, dev.params, test.features)
        accs[i] = np.count_nonzero(scores.argmax(axis=1) == test.labels) / len(test.labels)
    return accs, float(accs.mean())


def simulated_training_time(logs: Sequence[RoundLog]) -> float:
    """Total simulated wall time: sum of per-round synchronous barriers."""
    return float(sum(log.round_time for log in logs))


class Simulation:
    """Owns all run state; `step()` advances one global round."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.arch = ArchSpec(
            input_dims=tuple(cfg.data.input_dims),
            encoder_hidden=cfg.arch.encoder_hidden,
            feature_len=cfg.arch.feature_len,
            classifier_hidden=tuple(cfg.arch.classifier_hidden),
            num_classes=cfg.data.num_classes)
        self.link = cfg.link
        self.quota = cfg.effective_quota()
        self.metric = scheduler.MetricSpec(cfg.metric, cfg.alpha)

        seq = np.random.SeedSequence(cfg.seed)
        data_ss, init_ss, place_ss, channel_ss, sched_ss, dev_ss, hw_ss = seq.spawn(7)
        data_rng = np.random.default_rng(data_ss)
        self.rng_channel = np.random.default_rng(channel_ss)
        self.rng_sched = np.random.default_rng(sched_ss)

        profile = cfg.modality_profile or datagen.default_modality_profile(
            cfg.num_devices, cfg.num_modalities)
        owned_sets = datagen.assign_modalities(cfg.num_devices, cfg.num_modalities, profile)
        means = datagen.make_class_means(
            data_rng, cfg.data.num_classes, cfg.data.input_dims, cfg.data.mean_separation)
        self.data_spec = datagen.SyntheticSpec(
            num_classes=cfg.data.num_classes, input_dims=tuple(cfg.data.input_dims),
            class_means=means, noise_std=cfg.data.noise_std,
            samples_per_device=cfg.data.samples_per_device,
            train_fraction=cfg.data.train_fraction)
        scheme = datagen.PartitionScheme(cfg.partition)
        datasets = []
        for k in range(cfg.num_devices):
            labels = datagen.partition_labels(
                scheme, cfg.data.num_classes, cfg.data.samples_per_device, data_rng)
            datasets.append(datagen.generate_device_data(
                self.data_spec, labels, owned_sets[k], k, data_rng))

        self.distances = wireless.place_devices(
            np.random.default_rng(place_ss), cfg.num_devices, cfg.link.cell_radius_m)
        full = nn_core.init_full_params(self.arch, np.random.default_rng(init_ss))
        shared = self.arch.shared_block_id
        # log-uniform slowdown in [1, heterogeneity] per device
        hw_rng = np.random.default_rng(hw_ss)
        slowdown = np.exp(hw_rng.uniform(0.0, np.log(cfg.compute.heterogeneity),
                                         size=cfg.num_devices)) if cfg.compute.heterogeneity > 1 \
            else np.ones(cfg.num_devices)
        # compute time does not depend on the round: fixed per device
        self.t_compute = np.array([wireless.compute_latency(
            cfg.local_iters,
            sum(nn_core.flops_per_iteration(self.arch, owned_sets[k], cfg.batch_size).values()),
            cfg.compute.cycles_per_s / float(slowdown[k]), cfg.compute.flops_per_cycle)
            for k in range(cfg.num_devices)])
        dev_rngs = [np.random.default_rng(s) for s in dev_ss.spawn(cfg.num_devices)]
        self.devices = [DeviceState(
            device_id=k,
            params=nn_core.slice_device_params(full, owned_sets[k], shared),
            dataset=datasets[k],
            rng=dev_rngs[k],
        ) for k in range(cfg.num_devices)]

        self.owners = agg.block_owners(owned_sets, cfg.num_modalities)
        self.block_ids = sorted(self.owners)
        self.sizes_bits = {b: nn_core.param_size_bits(full[b]) for b in self.block_ids}
        coeffs = None
        if cfg.algorithm == "proposed":
            coeffs = agg.init_coeffs(cfg.num_devices, self.block_ids, cfg.coeff_lr)
        self.server = ServerState(
            coeffs=coeffs,
            cache={},
            schedule=scheduler.new_schedule_state(cfg.num_devices, self.block_ids))
        # The scheduler's self-weights: what a uniform weight row gives. That
        # is also `proposed`'s first round, as init_coeffs makes every raw
        # entry equal; after each round `proposed` takes the diagonal of the
        # end-of-round effective rows.
        self.self_weights: dict[int, np.ndarray] = {}
        for b in self.block_ids:
            self.self_weights[b] = np.zeros(cfg.num_devices)
            self.self_weights[b][self.owners[b]] = 1.0 / int(self.owners[b].sum())

    # ----------------------------- one round -----------------------------

    def step(self) -> RoundLog:
        cfg = self.cfg
        K = cfg.num_devices
        t = self.server.round + 1
        gains = wireless.sample_round_gains(self.rng_channel, self.distances,
                                            self.link.carrier_ghz)

        # local updates
        mu = cfg.fedprox_mu if cfg.algorithm == "fedprox" else 0.0
        train_loss = np.zeros(K)
        for dev in self.devices:
            train_loss[dev.device_id] = local_update_phase(
                self.arch, dev, cfg.lr, cfg.local_iters, cfg.batch_size, prox_mu=mu)

        # latency inputs for this round; a device downloads the blocks it
        # uploaded last round (the indicators are zero off each block's owners)
        down_rates = np.array([wireless.link_rate(
            self.link.server_power_w, g, self.link.bandwidth_hz, self.link.noise_density)
            for g in gains.tolist()])
        up_rates = np.array([wireless.link_rate(
            self.link.device_power_w, g, self.link.bandwidth_hz, self.link.noise_density)
            for g in gains.tolist()])
        t_down = wireless.download_latency(
            self.server.schedule.indicators, self.sizes_bits, down_rates)
        t_cmp = self.t_compute.copy()

        # scheduling
        if cfg.algorithm == "local":
            indicators = {b: np.zeros(K, dtype=np.int8) for b in self.block_ids}
            staleness = {b: self.server.schedule.staleness[b].copy() for b in self.block_ids}
            metric_values: dict[int, dict[int, float]] = {b: {} for b in self.block_ids}
        else:
            selection = "metric"
            if cfg.algorithm != "proposed" and cfg.baseline_scheduler == "random":
                selection = "random"
            indicators, staleness, metric_values = scheduler.schedule_round(
                self.self_weights, t_down, t_cmp, self.sizes_bits, up_rates,
                self.owners, self.metric, self.server.schedule.staleness, self.quota,
                cfg.staleness_threshold, selection=selection, rng=self.rng_sched)

        # aggregation: each block over this round's uploads, read from the
        # uploaders' post-local-update blocks
        merged: dict[int, tuple[list[int], Sequence[np.ndarray]]] = {}
        new_cache: agg.GradCache = {}
        rows_used: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        for b in self.block_ids:
            ks = np.flatnonzero(indicators[b]).tolist()
            if not ks:
                continue
            uploads = {k: self.devices[k].params.blocks[b].values for k in ks}
            if cfg.algorithm == "proposed":
                # every uploader's row is a softmax over this round's uploading owners
                uploading = (indicators[b] != 0) & self.owners[b]
                rows = agg.softmax_row(self.server.coeffs.raw[b][ks], uploading)
                entry = agg.aggregate(rows, uploads)
                new_cache[b] = entry
                used_mask = uploading.astype(np.int8)
                for i, k in enumerate(ks):
                    rows_used.append((b, k, entry.rows[i], used_mask))
                merged[b] = (ks, entry.aggregated)
            else:
                # not read: perfbench pins this call count until ROADMAP item 1 lands
                agg.build_round_mask(indicators[b], self.owners[b])
                # plain unweighted mean over this round's uploaders
                total = np.zeros_like(uploads[ks[0]])
                for k in ks:
                    total += uploads[k]
                merged[b] = (ks, [total / len(ks)] * len(ks))

        # aggregation-weight update from the previous round's retained material
        # and this round's fresh uploads
        if cfg.algorithm == "proposed" and cfg.coeff_lr > 0.0:
            agg.update_weights(self.server.coeffs, self.server.cache, new_cache, indicators,
                               cfg.lr, cfg.local_iters, mode=cfg.gradient_estimate)
        if cfg.algorithm == "proposed":
            self.server.cache = new_cache

        # push each aggregate back into its uploader's block
        for b, (ks, values) in merged.items():
            for k, row in zip(ks, values):
                self.devices[k].params.blocks[b].values[:] = row

        # realized upload time: all blocks the device shipped this round
        t_up = wireless.upload_latency(indicators, self.sizes_bits, up_rates)
        round_time = float((t_down + t_cmp + t_up).max())

        self.server.schedule.indicators = indicators
        self.server.schedule.staleness = staleness
        self.server.round = t

        accs, mean_acc = evaluate_personalized(self.arch, self.devices)
        snapshot = None
        if cfg.algorithm == "proposed":
            snapshot = {b: (self.server.coeffs.raw[b].copy(),
                            agg.effective_rows(self.server.coeffs, b, self.owners[b]))
                        for b in self.block_ids}
            self.self_weights = {b: np.diag(eff) for b, (_, eff) in snapshot.items()}
        return RoundLog(
            round=t, gains=gains, t_download=t_down, t_compute=t_cmp,
            t_upload=t_up, round_time=round_time, scheduled=indicators,
            staleness=staleness, metric_values=metric_values, train_loss=train_loss,
            test_accuracy=accs, mean_accuracy=mean_acc,
            weight_rows_used=rows_used, coeff_snapshot=snapshot)

    # ----------------------------- full run -----------------------------

    def run(self) -> RunResult:
        logs = [self.step() for _ in range(self.cfg.rounds)]
        if logs:
            accs, mean_acc = logs[-1].test_accuracy, logs[-1].mean_accuracy
        else:
            accs, mean_acc = evaluate_personalized(self.arch, self.devices)
        summary = {
            "seed": self.cfg.seed,
            "algo": self.cfg.algorithm,
            "mean_personalized_accuracy": float(mean_acc),
            "total_simulated_time_s": simulated_training_time(logs),
            "rounds": len(logs),
            "per_device_accuracy": [float(a) for a in accs],
            "label_supports": [list(map(int, d.dataset.label_support)) for d in self.devices],
            "owned_modalities": [list(d.dataset.owned) for d in self.devices],
            "config": config_to_dict(self.cfg),
        }
        return RunResult(self.cfg, logs, summary, self.server, self.devices)


def run_training(cfg: RunConfig) -> RunResult:
    """Build a simulation from the config and run it to completion."""
    try:
        return Simulation(cfg).run()
    except FmmlError:
        raise
    except (ValueError, KeyError) as exc:
        raise FmmlError(f"run aborted: {exc}") from exc
