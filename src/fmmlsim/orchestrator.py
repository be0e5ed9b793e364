"""Round loop: `Simulation.step` runs the phases `PHASES` names, in that order.

A block's parameters live in one array for all devices that hold it
(`Simulation.store`), a row per holder; `store_row[b][k]` is owner k's row.
A device's model is a dict of ParamBlocks over its rows, trained in place,
its gradients written into one workspace block per block id
(`grad_workspace`). Uploads of a block are one row gather from its array,
downloads one row scatter back into it. The server keeps the aggregation
weights, the last round's aggregation, the bits each device shipped in it
(the scheduler's count, downloaded next round) and staleness counters, not
the models.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from . import aggregation as agg
from . import datagen, nn_core, scheduler, wireless
from .config import RunConfig, config_to_dict
from .errors import FmmlError, NumericOverflowError
from .nn_core import ArchSpec, ParamBlock

# The phases of `Simulation.step` in the order it runs them, and of the seconds
# in `RoundLog.phase_s`. Scheduling also counts the upload of what it schedules.
PHASES = ("channel", "local_sgd", "latency", "scheduling", "aggregation",
          "coefficient_update", "evaluation", "snapshot")


@dataclass
class DeviceState:
    device_id: int
    params: dict[int, ParamBlock]
    dataset: datagen.DeviceDataset
    rng: np.random.Generator


@dataclass
class ServerState:
    coeffs: agg.CoefficientState | None
    cache: agg.GradCache
    bits: np.ndarray                   # (K,) int64 shipped last round, downloaded this round
    staleness: dict[int, np.ndarray]   # block -> (K,) int64 rounds since the last upload
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
    # block -> (rows, raw rows, effective rows): the owner ids, ascending, whose
    # raw rows the round stepped (all in round 1) and their (n, K) rows after
    # it; None unless `proposed` runs with `record_coefficients` on
    coeff_record: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] | None
    # (len(PHASES),) wall seconds of each phase of the round; no output file holds it
    phase_s: np.ndarray | None = None


@dataclass
class RunResult:
    config: RunConfig
    logs: list[RoundLog]
    summary: dict
    server: ServerState
    devices: list[DeviceState]


def local_update_phase(arch: ArchSpec, device: DeviceState, lr: float,
                       local_iters: int, batch_size: int, prox_mu: float,
                       grad_out: dict[int, ParamBlock]) -> float:
    """Run the device's local SGD steps for one round, in place on device.params.

    Batches cycle through a fresh shuffle of the train split. With a positive
    prox_mu the gradient gains mu * (w - anchor), pulling the iterates back
    toward the round-start parameters (the anchor). Gradients are written
    into the `grad_out` workspace. Returns the mean loss. A floating-point
    overflow anywhere in the steps, even one that tanh would saturate back
    to finite scores, raises NumericOverflowError naming the device.
    """
    train = device.dataset.train
    n = train.labels.shape[0]
    perm = device.rng.permutation(n)
    # the round's batches in one `take` (fancy indexing's rows, at less call cost)
    # per owned modality, the keys of train.features; iteration i reads rows
    # [i*B, (i+1)*B) of the shuffle, wrapped when the round needs more than n rows.
    # The takes are a list, not a generator: one here leaves the garbage
    # collector's allocation count higher after each call, which moves its
    # full collections.
    need = local_iters * batch_size
    idx = perm[:need] if need <= n else perm[np.arange(need) % n]
    batches = zip(*[x.take(idx, axis=0).reshape(local_iters, batch_size, -1)
                    for x in train.features.values()])
    labels = train.labels.take(idx).reshape(local_iters, batch_size)
    params = device.params
    anchor = {b: p.values.copy() for b, p in params.items()} if prox_mu > 0.0 else None
    losses = np.empty(local_iters)
    try:
        with np.errstate(over="raise"):
            for i, xs in enumerate(batches):
                loss, grad = nn_core.loss_and_grad(arch, params, dict(zip(train.features, xs)),
                                                   labels[i], out=grad_out)
                if anchor is not None:
                    for b, g in grad.items():
                        g += prox_mu * (params[b].values - anchor[b])
                nn_core.sgd_step(params, grad, lr)
                losses[i] = loss
    except FloatingPointError as exc:
        raise NumericOverflowError(f"device {device.device_id}: local SGD {exc}") from exc
    return float(np.add.reduce(losses) / local_iters)


def evaluate_personalized(arch: ArchSpec, devices: Sequence[DeviceState]) -> tuple[np.ndarray, float]:
    """Accuracy of each device's current model on its own test split; a
    floating-point overflow raises NumericOverflowError naming the device."""
    accs = np.zeros(len(devices))
    try:
        with np.errstate(over="raise"):
            for i, dev in enumerate(devices):
                test = dev.dataset.test
                scores = nn_core.forward_batch(arch, dev.params, test.features)
                accs[i] = np.count_nonzero(scores.argmax(axis=1) == test.labels) / len(test.labels)
    except FloatingPointError as exc:
        raise NumericOverflowError(f"device {dev.device_id}: evaluation {exc}") from exc
    return accs, float(accs.mean())


def simulated_training_time(logs: Sequence[RoundLog]) -> float:
    """Total simulated wall time: sum of per-round synchronous barriers; overflow raises."""
    total = float(sum(log.round_time for log in logs))
    if not np.isfinite(total):
        raise NumericOverflowError(f"total simulated time {total} s is not finite")
    return total


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

        seq = np.random.SeedSequence(cfg.seed)
        data_ss, init_ss, place_ss, channel_ss, sched_ss, dev_ss, hw_ss = seq.spawn(7)
        data_rng = np.random.default_rng(data_ss)
        self.rng_channel = np.random.default_rng(channel_ss)
        self.rng_sched = np.random.default_rng(sched_ss)

        owned_sets = cfg.modality_sets
        means = datagen.make_class_means(
            data_rng, cfg.data.num_classes, cfg.data.input_dims, cfg.data.mean_separation)
        datasets = []
        for k in range(cfg.num_devices):
            labels = datagen.partition_labels(
                cfg.partition, cfg.data.num_classes, cfg.data.samples_per_device, data_rng)
            datasets.append(datagen.generate_device_data(
                means, cfg.data.noise_std, cfg.data.train_fraction, labels, owned_sets[k],
                data_rng))

        self.distances = wireless.place_devices(
            np.random.default_rng(place_ss), cfg.num_devices, cfg.link.cell_radius_m)
        full = nn_core.init_full_params(self.arch, np.random.default_rng(init_ss))
        # log-uniform slowdown in [1, heterogeneity] per device; exactly 1.0 at
        # heterogeneity 1, where the draws are uniform(0, 0)
        slowdown = np.exp(np.random.default_rng(hw_ss).uniform(
            0.0, np.log(cfg.compute.heterogeneity), size=cfg.num_devices))
        # compute time does not depend on the round: fixed per device
        self.t_compute = np.array([wireless.compute_latency(
            cfg.local_iters,
            sum(nn_core.flops_per_iteration(self.arch, owned_sets[k], cfg.batch_size).values()),
            cfg.compute.cycles_per_s / float(slowdown[k]), cfg.compute.flops_per_cycle)
            for k in range(cfg.num_devices)])
        self.owners = agg.block_owners(owned_sets, self.arch)
        self.block_ids = sorted(self.owners)
        self.sizes_bits = {b: nn_core.BITS_PER_PARAM * self.arch.block_param_count(b)
                           for b in self.block_ids}
        # one array per block, a row per device that holds it (every device for
        # the head); store_row[b][k] is owner k's row, and each device's
        # ParamBlock values are views of its rows
        self.store = {b: np.repeat(full[b].values[None], int(self.owners[b].sum()), axis=0)
                      for b in self.block_ids}
        self.store_row = {b: np.cumsum(self.owners[b]) - 1 for b in self.block_ids}
        dev_rngs = [np.random.default_rng(s) for s in dev_ss.spawn(cfg.num_devices)]
        self.devices = []
        for k in range(cfg.num_devices):
            params = self._row_blocks(k, {b: full[b].shapes
                                          for b in self.arch.device_blocks(owned_sets[k])})
            self.devices.append(DeviceState(k, params, datasets[k], dev_rngs[k]))
        # one gradient block per block id, shared by the devices as they train in turn
        self.grad_workspace = {b: ParamBlock(b, np.zeros(full[b].param_count), full[b].shapes)
                               for b in self.block_ids}

        coeffs = None
        if cfg.algorithm == "proposed":
            coeffs = agg.init_coeffs(cfg.num_devices, self.block_ids, cfg.coeff_lr)
        self.server = ServerState(
            coeffs=coeffs,
            cache={},
            bits=np.zeros(cfg.num_devices, dtype=np.int64),
            staleness={b: np.zeros(cfg.num_devices, dtype=np.int64) for b in self.block_ids})
        # The scheduler's self-weights, 1/owners as a uniform weight row gives
        # (so also `proposed`'s, as init_coeffs makes every raw entry equal);
        # `proposed` then takes the diagonal entry of each row it recomputes.
        self.self_weights = {b: self.owners[b] / self.owners[b].sum() for b in self.block_ids}

    def _row_blocks(self, k: int, shapes: dict[int, tuple[tuple[int, ...], ...]]
                    ) -> dict[int, ParamBlock]:
        """Device k's blocks, one per key of `shapes`, in that order, as views
        of its rows of `store`; every device shares one shapes tuple per block."""
        return {b: ParamBlock(b, self.store[b][int(self.store_row[b][k])], s)
                for b, s in shapes.items()}

    def __deepcopy__(self, memo):
        """A deep copy whose devices' blocks view the copy's own `store` rows,
        as the original's blocks view its `store`. A `ParamBlock` deep-copied
        on its own still gets a standalone vector."""
        clone = memo[id(self)] = object.__new__(type(self))
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        for dev in clone.devices:
            dev.params = clone._row_blocks(dev.device_id,
                                           {b: p.shapes for b, p in dev.params.items()})
        return clone

    # ----------------------------- one round -----------------------------

    def step(self) -> RoundLog:
        """Run one round, phase by phase in `PHASES` order, timing each."""
        marks = [perf_counter()]
        gains = wireless.sample_round_gains(self.rng_channel, self.distances,
                                            self.cfg.link.carrier_ghz)
        marks.append(perf_counter())
        train_loss = self._local_sgd()
        marks.append(perf_counter())
        t_down, up_rates = self._latency(gains)
        marks.append(perf_counter())
        indicators, staleness, metric_values, bits, t_up = self._scheduling(t_down, up_rates)
        marks.append(perf_counter())
        new_cache, rows_used = self._aggregation(indicators)
        marks.append(perf_counter())
        record = self._coefficient_update(indicators, new_cache)
        marks.append(perf_counter())
        accs, mean_acc = evaluate_personalized(self.arch, self.devices)
        marks.append(perf_counter())
        log = self._snapshot(gains, t_down, t_up, bits, indicators, staleness, metric_values,
                             train_loss, accs, mean_acc, rows_used, record)
        log.phase_s = np.diff([*marks, perf_counter()])
        return log

    def _local_sgd(self) -> np.ndarray:
        """Each device's mean train loss of its local SGD; FedProx adds its pull."""
        cfg = self.cfg
        mu = cfg.fedprox_mu if cfg.algorithm == "fedprox" else 0.0
        return np.array([local_update_phase(self.arch, dev, cfg.lr, cfg.local_iters, cfg.batch_size,
                                            prox_mu=mu, grad_out=self.grad_workspace)
                         for dev in self.devices])

    def _latency(self, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(download times, upload rates); a device downloads the blocks it
        uploaded last round, as many bits as the scheduler counted then."""
        link = self.cfg.link
        down_rates = np.array([wireless.link_rate(
            link.server_power_w, g, link.bandwidth_hz, link.noise_density) for g in gains.tolist()])
        up_rates = np.array([wireless.link_rate(
            link.device_power_w, g, link.bandwidth_hz, link.noise_density) for g in gains.tolist()])
        return wireless.download_latency(self.server.bits, down_rates), up_rates

    def _scheduling(self, t_down: np.ndarray, up_rates: np.ndarray):
        """(indicators, staleness, metric values, bits, upload times): each
        block's uploaders, the counters and metrics `scheduler.schedule_round`
        returns, and the time each device takes to ship its bits. `local`
        uploads nothing; a baseline may schedule at random, `proposed` never."""
        cfg, K = self.cfg, self.cfg.num_devices
        if cfg.algorithm == "local":
            indicators = {b: np.zeros(K, dtype=np.int8) for b in self.block_ids}
            staleness = {b: self.server.staleness[b].copy() for b in self.block_ids}
            metric_values: dict[int, dict[int, float]] = {b: {} for b in self.block_ids}
            bits = np.zeros(K, np.int64)
        else:
            at_random = cfg.algorithm != "proposed" and cfg.baseline_scheduler == "random"
            indicators, staleness, metric_values, bits = scheduler.schedule_round(
                self.self_weights, t_down, self.t_compute, self.sizes_bits, up_rates,
                self.owners, cfg.metric, cfg.alpha, self.server.staleness, cfg.effective_quota(),
                cfg.staleness_threshold, rng=self.rng_sched if at_random else None)
        return indicators, staleness, metric_values, bits, wireless.upload_latency(bits, up_rates)

    def _aggregation(self, indicators: dict[int, np.ndarray]):
        """(cache entries, weight rows used), both empty unless `proposed`.

        Each block's uploads are one row gather U from its store, and the
        aggregates one row scatter back into the same rows: `proposed`
        weighs U by each uploader's softmax row over the uploaders, the
        baselines take its plain mean."""
        new_cache: agg.GradCache = {}
        rows_used: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        for b in self.block_ids:
            ks = np.flatnonzero(indicators[b])
            if not ks.size:
                continue
            store, at = self.store[b], self.store_row[b][ks]
            U = store[at]
            if self.cfg.algorithm == "proposed":
                uploading = indicators[b] != 0
                rows = agg.softmax_row(self.server.coeffs.raw[b][ks], uploading)
                new_cache[b] = entry = agg.aggregate(rows, ks, U)
                used_mask = uploading.astype(np.int8)
                rows_used.extend((b, k, entry.rows[i], used_mask)
                                 for i, k in enumerate(ks.tolist()))
                store[at] = entry.aggregated
            else:
                # not read: perfbench pins this call count until ROADMAP item 1 lands
                agg.build_round_mask(indicators[b], self.owners[b])
                total = np.zeros(store.shape[1])
                for u in U:
                    total += u
                store[at] = total / len(ks)
        return new_cache, rows_used

    def _coefficient_update(self, indicators: dict[int, np.ndarray], new_cache: agg.GradCache):
        """`proposed` only: step the raw rows last round's aggregation can teach,
        keep this round's for the next, and take the effective rows of the rows
        it stepped (of every owner in round 1, which steps none) into the
        scheduler's self-weights. Returns the coefficient record, or None."""
        cfg = self.cfg
        if cfg.algorithm != "proposed":
            return None
        stepped = agg.update_weights(
            self.server.coeffs, self.server.cache, new_cache, indicators, cfg.lr,
            cfg.local_iters, mode=cfg.gradient_estimate) if cfg.coeff_lr > 0.0 else {}
        self.server.cache = new_cache
        record = {} if cfg.record_coefficients else None
        for b in self.block_ids:
            ks = (np.flatnonzero(self.owners[b]) if self.server.round == 0
                  else stepped.get(b, np.zeros(0, np.intp)))
            eff = agg.effective_rows(self.server.coeffs, b, self.owners[b], ks)
            self.self_weights[b][ks] = eff[np.arange(ks.size), ks]
            if record is not None:
                record[b] = (ks, self.server.coeffs.raw[b][ks], eff)
        return record

    def _snapshot(self, gains, t_down, t_up, bits, indicators, staleness, metric_values,
                  train_loss, accs, mean_acc, rows_used, record) -> RoundLog:
        """Keep the bits, staleness and round count the next round reads, and
        return the round's log."""
        self.server.bits, self.server.staleness = bits, staleness
        self.server.round += 1
        return RoundLog(
            round=self.server.round, gains=gains, t_download=t_down,
            t_compute=self.t_compute.copy(), t_upload=t_up,
            round_time=float((t_down + self.t_compute + t_up).max()), scheduled=indicators,
            staleness=staleness, metric_values=metric_values, train_loss=train_loss,
            test_accuracy=accs, mean_accuracy=mean_acc,
            weight_rows_used=rows_used, coeff_record=record)

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
            # without out_dir, so the bytes do not depend on where they are written
            "config": {**config_to_dict(self.cfg), "out_dir": None},
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
