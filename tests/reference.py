"""An executable reference of the simulator's round, written per device.

`ReferenceRun` takes a fresh `Simulation`'s set-up (data, initial blocks,
distances, compute times and the states of its random generators) and runs
its own loop, one device and one row at a time:

- a per-layer forward and backward pass of each device's model, with plain
  SGD, the FedProx pull toward the round-start parameters and the round's
  mean train loss;
- per-device channel draws, link rates, latencies and scheduling (the
  per-device references below, which `test_round_oracles.py` also checks
  the array code against);
- aggregation through the two-stage transform: a softmax over the owners,
  then `build_round_mask` and `masked_renormalize` over the uploaders; the
  baselines take the plain mean of the uploads;
- the weight step `coeff_jacobian(raw_then, mask, owners).T @ inner`, taken
  at the raw row as it was when the previous round aggregated.

Of `src/` it uses only the set-up, `ArchSpec`'s block layout and the three
aggregation references above (`coeff_jacobian` takes its softmax from
`softmax_row`); none of `Simulation.step`'s own code.

The tests also check parts of `src/` against the pieces one at a time: the
kernel against `forward` and `loss_and_grad`, the scheduler against
`schedule_round_reference`, and gradients and Jacobians against
`central_difference`.
"""

import copy
import math

import numpy as np

from fmmlsim.aggregation import build_round_mask, coeff_jacobian, masked_renormalize
from fmmlsim.errors import SchedulingError, StalledLinkError

# ----------------------------- finite differences -----------------------------


def central_difference(fn, x, step):
    """`(fn(x + step e_i) - fn(x - step e_i)) / 2 step`, one column per entry of
    `x`: the gradient of a scalar `fn`, the Jacobian of a vector one."""
    columns = []
    for i in range(x.shape[0]):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        columns.append((np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2 * step))
    return np.stack(columns, axis=-1)


# ----------------------------- latency and scheduling -----------------------------


def transfer_time_reference(bits, rate, link):
    if bits == 0:
        return 0.0
    if rate <= 0:
        raise StalledLinkError(f"{bits} bits scheduled on a zero-rate {link}")
    return bits / rate


def scheduled_bits_reference(indicators, owners, sizes_bits):
    """Per device: the total size of the blocks it owns and is flagged for."""
    num_devices = len(next(iter(owners.values())))
    return np.array([sum(sizes_bits[b] for b, ind in indicators.items()
                         if owners[b][k] and int(ind[k]))
                     for k in range(num_devices)], dtype=np.int64)


def download_latency_reference(prev_indicators, owners, sizes_bits, rates_down):
    """Per device: fetch the blocks it owns and uploaded last round."""
    bits = scheduled_bits_reference(prev_indicators, owners, sizes_bits).tolist()
    return np.array([transfer_time_reference(bits[k], float(rates_down[k]), "downlink")
                     for k in range(len(rates_down))])


def upload_latency_reference(indicators, owners, sizes_bits, rates_up):
    """Per device: ship every block it owns and is scheduled for this round."""
    bits = scheduled_bits_reference(indicators, owners, sizes_bits).tolist()
    return np.array([transfer_time_reference(bits[k], float(rates_up[k]), "uplink")
                     for k in range(len(rates_up))])


def metric_reference(kind, alpha, self_weight, t_down, t_cmp, t_up):
    total = t_down + t_cmp + t_up
    if kind == "ratio":
        if total <= 0:
            raise SchedulingError("ratio metric needs a positive latency denominator")
        return (1.0 - self_weight) / total
    return (1.0 - self_weight) - alpha * total


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
                             kind, alpha, staleness, quota, threshold, selection="metric",
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
                kind, alpha, float(self_weights[block][k]), float(t_down[k]), float(t_cmp[k]),
                t_up)
        indicators[block], new_stale[block] = schedule_block_reference(
            metrics, staleness[block], quota, threshold)
        values[block] = metrics
    return indicators, new_stale, values


def gain_reference(rng, distance_m, carrier_ghz):
    """One Rayleigh draw whose mean is the free-space attenuation at the distance."""
    path_loss_db = 32.4 + 20.0 * math.log10(carrier_ghz) + 20.0 * math.log10(distance_m)
    return float(rng.rayleigh(10.0 ** (-path_loss_db / 20.0) * math.sqrt(2.0 / math.pi)))


def rate_reference(power_w, gain, bandwidth_hz, noise_density):
    """Shannon rate in bits/s."""
    return bandwidth_hz * math.log2(1.0 + power_w * gain * gain / (bandwidth_hz * noise_density))


# ----------------------------- one device's model -----------------------------


def layers(values, shapes):
    """The layer arrays packed in one flat block vector, in storage order."""
    out, off = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(values[off:off + size].reshape(shape))
        off += size
    return out


def forward(arch, params, features):
    """Class scores, each encoder's input and hidden layer, and the head's layer inputs."""
    f = arch.feature_len
    fused = np.zeros((len(next(iter(features.values()))), arch.fusion_width))
    encoders = {}
    for m, x in features.items():
        w1, b1, w2, b2 = layers(params[m], arch.block_shapes(m))
        h = np.tanh(x @ w1.T + b1)
        fused[:, (m - 1) * f: m * f] = h @ w2.T + b2
        encoders[m] = (x, h)
    head = layers(params[arch.shared_block_id], arch.block_shapes(arch.shared_block_id))
    inputs = [fused]
    for w, b in zip(head[0:-2:2], head[1:-2:2]):
        inputs.append(np.tanh(inputs[-1] @ w.T + b))
    return inputs[-1] @ head[-2].T + head[-1], encoders, inputs


def loss_and_grad(arch, params, features, labels):
    """Mean softmax cross-entropy and its gradient, one flat array per block."""
    scores, encoders, inputs = forward(arch, params, features)
    batch = len(labels)
    z = scores - scores.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_p[np.arange(batch), labels].mean()
    d = np.exp(log_p)
    d[np.arange(batch), labels] -= 1.0
    d /= batch
    head_id = arch.shared_block_id
    head = layers(params[head_id], arch.block_shapes(head_id))
    head_grads = [None] * len(head)
    for i in range(len(inputs) - 1, -1, -1):  # layer i maps inputs[i] forward
        head_grads[2 * i] = d.T @ inputs[i]
        head_grads[2 * i + 1] = d.sum(axis=0)
        d = d @ head[2 * i]
        if i > 0:
            d = d * (1.0 - inputs[i] ** 2)
    grads = {head_id: np.concatenate([g.ravel() for g in head_grads])}
    f = arch.feature_len
    for m, (x, h) in encoders.items():
        _, _, w2, _ = layers(params[m], arch.block_shapes(m))
        d_feat = d[:, (m - 1) * f: m * f]
        d_pre = (d_feat @ w2) * (1.0 - h ** 2)
        grads[m] = np.concatenate([(d_pre.T @ x).ravel(), d_pre.sum(axis=0),
                                   (d_feat.T @ h).ravel(), d_feat.sum(axis=0)])
    return loss, grads


def accuracy(arch, params, split):
    scores, _, _ = forward(arch, params, split.features)
    return np.count_nonzero(scores.argmax(axis=1) == split.labels) / len(split.labels)


def softmax_over(raw_row, participants):
    e = np.where(participants, np.exp(raw_row - raw_row[participants].max()), 0.0)
    return e / e.sum()


# ----------------------------- the round -----------------------------


class ReferenceRun:
    """The rounds of `sim`, run per device from a copy of its set-up; build it
    before `sim` steps."""

    def __init__(self, sim):
        cfg = self.cfg = sim.cfg
        self.arch = sim.arch
        self.K = cfg.num_devices
        self.owners = sim.owners
        self.blocks = sim.block_ids
        self.sizes = sim.sizes_bits
        self.distances = sim.distances.tolist()
        self.t_compute = sim.t_compute.copy()
        self.data = [dev.dataset for dev in sim.devices]
        self.rng_channel = copy.deepcopy(sim.rng_channel)
        self.rng_sched = copy.deepcopy(sim.rng_sched)
        self.rngs = [copy.deepcopy(dev.rng) for dev in sim.devices]
        self.params = [{b: p.values.copy() for b, p in dev.params.items()}
                       for dev in sim.devices]
        self.raw = {b: np.full((self.K, self.K), 1.0 / self.K) for b in self.blocks}
        self.indicators = {b: np.zeros(self.K, dtype=np.int8) for b in self.blocks}
        self.staleness = {b: np.zeros(self.K, dtype=np.int64) for b in self.blocks}
        self.cache = {}  # (block, device) -> what the weight step needs next round

    def local_sgd(self, k):
        cfg, params, train = self.cfg, self.params[k], self.data[k].train
        n = len(train.labels)
        perm = self.rngs[k].permutation(n)
        idx = perm[np.arange(cfg.local_iters * cfg.batch_size) % n]
        anchor = {b: w.copy() for b, w in params.items()}
        losses = np.empty(cfg.local_iters)
        for i in range(cfg.local_iters):
            rows = idx[i * cfg.batch_size:(i + 1) * cfg.batch_size]
            feats = {m: x[rows] for m, x in train.features.items()}
            losses[i], grads = loss_and_grad(self.arch, params, feats, train.labels[rows])
            for b, g in grads.items():
                if cfg.algorithm == "fedprox":
                    g = g + cfg.fedprox_mu * (params[b] - anchor[b])
                params[b] = params[b] - cfg.lr * g
        return np.add.reduce(losses) / cfg.local_iters

    def self_weights(self):
        if self.cfg.algorithm != "proposed":
            return {b: own / own.sum() for b, own in self.owners.items()}
        return {b: np.array([softmax_over(self.raw[b][k], own)[k] if own[k] else 0.0
                             for k in range(self.K)])
                for b, own in self.owners.items()}

    def aggregate(self, b, indicators, uploads):
        """Install block b's aggregate on each uploader (`uploads` maps them,
        ascending, to their blocks); return what the weight step keeps."""
        if self.cfg.algorithm != "proposed":
            for k in uploads:
                self.params[k][b] = sum(uploads.values()) / len(uploads)
            return {}
        kept = {}
        mask = build_round_mask(indicators, self.owners[b])
        for k in uploads:
            raw_then = self.raw[b][k].copy()
            row = masked_renormalize(softmax_over(raw_then, self.owners[b]), mask[k])
            aggregate = sum(row[j] * upload for j, upload in uploads.items())
            kept[k] = (raw_then, mask[k], uploads, aggregate)
            self.params[k][b] = aggregate
        return kept

    def weight_step(self, b, k, fresh_upload):
        """The gradient of device k's loss w.r.t. its raw row of block b, through
        last round's aggregation and the delta of its fresh upload."""
        raw_then, mask_row, uploads, aggregate = self.cache[(b, k)]
        cfg = self.cfg
        if cfg.gradient_estimate == "raw_delta":
            est = fresh_upload - aggregate
        else:
            est = (aggregate - fresh_upload) / (cfg.lr * cfg.local_iters)
        inner = np.zeros(self.K)
        for j, upload in uploads.items():
            inner[j] = upload @ est
        return coeff_jacobian(raw_then, mask_row, self.owners[b]).T @ inner

    def step(self):
        """One round; returns its schedule, staleness, latencies, train losses
        and accuracies."""
        cfg, link = self.cfg, self.cfg.link
        gains = [gain_reference(self.rng_channel, d, link.carrier_ghz) for d in self.distances]
        train_loss = np.array([self.local_sgd(k) for k in range(self.K)])
        down = [rate_reference(link.server_power_w, g, link.bandwidth_hz, link.noise_density)
                for g in gains]
        up = [rate_reference(link.device_power_w, g, link.bandwidth_hz, link.noise_density)
              for g in gains]
        t_down = download_latency_reference(self.indicators, self.owners, self.sizes, down)
        if cfg.algorithm == "local":
            indicators = {b: np.zeros(self.K, dtype=np.int8) for b in self.blocks}
            staleness = {b: s.copy() for b, s in self.staleness.items()}
        else:
            at_random = cfg.algorithm != "proposed" and cfg.baseline_scheduler == "random"
            indicators, staleness, _ = schedule_round_reference(
                self.self_weights(), t_down, self.t_compute, self.sizes, up, self.owners,
                cfg.metric, cfg.alpha, self.staleness, cfg.effective_quota(),
                cfg.staleness_threshold, selection="random" if at_random else "metric",
                rng=self.rng_sched)

        fresh, cache = {}, {}
        for b in self.blocks:
            fresh[b] = {k: self.params[k][b].copy() for k in np.flatnonzero(indicators[b]).tolist()}
            for k, kept in self.aggregate(b, indicators[b], fresh[b]).items():
                cache[(b, k)] = kept
        if cfg.algorithm == "proposed" and cfg.coeff_lr > 0.0:
            for (b, k) in self.cache:
                if k in fresh[b]:
                    self.raw[b][k] = (self.raw[b][k]
                                      - cfg.coeff_lr * self.weight_step(b, k, fresh[b][k]))
        self.cache = cache

        t_up = upload_latency_reference(indicators, self.owners, self.sizes, up)
        self.indicators, self.staleness = indicators, staleness
        return {
            "scheduled": indicators,
            "staleness": staleness,
            "t_download": t_down,
            "t_upload": t_up,
            "round_time": float((t_down + self.t_compute + t_up).max()),
            "train_loss": train_loss,
            "test_accuracy": np.array([accuracy(self.arch, self.params[k], self.data[k].test)
                                       for k in range(self.K)]),
        }
