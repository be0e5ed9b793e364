"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The trend criteria share cached run batteries, so the whole module
stays well under its time budget.
"""

import json

import numpy as np
import pytest

from fmmlsim import desk_config, nn_core
from fmmlsim.aggregation import coeff_jacobian, init_coeffs, masked_renormalize, softmax_row
from fmmlsim.cli import main
from fmmlsim.config import config_to_dict
from fmmlsim.orchestrator import Simulation
from fmmlsim.scheduler import schedule_round
from fmmlsim.wireless import mean_gain, path_loss_db, sample_round_gains
from forms import owner_matrix, zero_grads

SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {detail}")
    assert ok, detail


# --------------------------- shared run batteries ---------------------------

@pytest.fixture(scope="module")
def run_once():
    """Run each distinct config once per module and hand every battery that
    asks for an equal config the same result: `proposed` at seeds 0 and 1 is
    also `quota=3` and the `ratio` metric of the desk recipe."""
    done = []  # (config, result); a RunConfig compares by value but is not hashable

    def run(cfg):
        for seen, result in done:
            if seen == cfg:
                return result
        result = Simulation(cfg).run()
        done.append((cfg, result))
        return result
    return run


@pytest.fixture(scope="module")
def trend_battery(run_once):
    """Proposed / FedAvg / LocalOnly runs on the headline desk recipe."""
    runs = {}
    for seed in SEEDS:
        for algo in ("proposed", "fedavg", "local"):
            runs[(algo, seed)] = run_once(desk_config(seed=seed, algorithm=algo))
    return runs


@pytest.fixture(scope="module")
def quota_battery(run_once):
    runs = {}
    for seed in (0, 1):
        for quota in (3, 6, 9):
            runs[(quota, seed)] = run_once(
                desk_config(seed=seed, algorithm="proposed", quota=quota))
    return runs


@pytest.fixture(scope="module")
def metric_battery(run_once):
    runs = {}
    grid = (("ratio", "ratio", 0.0), ("a4", "linear", 1e-4),
            ("a3", "linear", 1e-3), ("a2", "linear", 1e-2))
    for seed in (0, 1):
        for label, kind, alpha in grid:
            runs[(label, seed)] = run_once(desk_config(seed=seed, metric=kind, alpha=alpha))
    return runs


# ------------------------------- criteria -------------------------------

def test_criterion_01_coefficient_rows_legal(trend_battery):
    result = trend_battery[("proposed", 0)]
    assert len(result.logs) == 50
    n_rows = 0
    worst_sum = 0.0
    exact_zero = True
    for log in result.logs:
        for _, _, row, mask in log.weight_rows_used:
            n_rows += 1
            worst_sum = max(worst_sum, abs(float(row.sum()) - 1.0))
            if not (row >= 0).all():
                exact_zero = False
            if not (row[mask == 0] == 0.0).all():
                exact_zero = False
    report(1, n_rows > 0 and worst_sum < 1e-9 and exact_zero,
           f"{n_rows} aggregation rows over 50 rounds, max |sum-1| = {worst_sum:.2e}, "
           f"masked entries exactly zero: {exact_zero}")


def test_criterion_02_jacobian_oracle():
    rng = np.random.default_rng(11)

    def composed(raw, mask, parts):
        return masked_renormalize(softmax_row(raw, parts), mask)

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        raw = rng.normal(scale=2.0, size=n)
        parts = rng.uniform(size=n) < 0.8
        if not parts.any():
            parts[int(rng.integers(n))] = True
        mask = (rng.uniform(size=n) < 0.7).astype(int)
        own = int(np.flatnonzero(parts)[0])
        mask[own] = 1
        jac = coeff_jacobian(raw, mask, parts)
        fd = np.zeros((n, n))
        step = 1e-5
        for i in range(n):
            hi, lo = raw.copy(), raw.copy()
            hi[i] += step
            lo[i] -= step
            fd[:, i] = (composed(hi, mask, parts) - composed(lo, mask, parts)) / (2 * step)
        rel = np.abs(fd - jac).max() / max(np.abs(jac).max(), 1e-12)
        worst = max(worst, rel)
    report(2, worst < 1e-5, f"100 random instances (K <= 6), max relative error {worst:.2e}")


def test_criterion_03_model_gradient_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    checked = 0
    for trial in range(3):
        arch = nn_core.ArchSpec(
            input_dims=(3, 2)[: int(rng.integers(1, 3))],
            encoder_hidden=3, feature_len=2, classifier_hidden=(3,),
            num_classes=4)
        owned = tuple(range(1, arch.num_modalities + 1))
        total = sum(arch.block_param_count(b) for b in arch.device_blocks(owned))
        assert total <= 200
        full = nn_core.init_full_params(arch, np.random.default_rng(trial))
        params = nn_core.slice_device_params(full, owned, arch)
        feats = {m: rng.normal(size=(5, arch.input_dims[m - 1])) for m in owned}
        labels = rng.integers(0, 4, size=5)
        _, grad = nn_core.loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
        step = 1e-4
        for b, block in params.items():
            an = grad[b]
            for i in range(block.values.shape[0]):
                if abs(an[i]) <= 1e-6:
                    continue
                hi = block.values.copy()
                hi[i] += step
                lo = block.values.copy()
                lo[i] -= step
                blocks_hi = dict(params)
                blocks_hi[b] = nn_core.ParamBlock(b, hi, block.shapes)
                blocks_lo = dict(params)
                blocks_lo[b] = nn_core.ParamBlock(b, lo, block.shapes)
                lhi, _ = nn_core.loss_and_grad(
                    arch, blocks_hi, feats, labels, out=zero_grads(blocks_hi))
                llo, _ = nn_core.loss_and_grad(
                    arch, blocks_lo, feats, labels, out=zero_grads(blocks_lo))
                fd = (lhi - llo) / (2 * step)
                worst = max(worst, abs(fd - an[i]) / abs(an[i]))
                checked += 1
    report(3, checked > 100 and worst < 1e-4,
           f"{checked} coordinates on nets <= 200 params, max relative error {worst:.2e}")


def test_criterion_04_fedavg_reduction():
    worst = 0.0
    for seed in (0, 1, 2):
        frozen = Simulation(desk_config(seed=seed, algorithm="proposed",
                                        coeff_lr=0.0, quota=9))
        fedavg = Simulation(desk_config(seed=seed, algorithm="fedavg", quota=9))
        for _ in range(10):
            frozen.step()
            fedavg.step()
            for k in range(9):
                for b in frozen.devices[k].params:
                    worst = max(worst, float(np.abs(
                        frozen.devices[k].params[b].values
                        - fedavg.devices[k].params[b].values).max()))
    report(4, worst < 1e-9,
           f"uniform frozen weights track the plain-mean path for 10 rounds x 3 seeds, "
           f"max divergence {worst:.2e}")


def test_criterion_05_accuracy_trend(trend_battery):
    acc = {algo: np.mean([trend_battery[(algo, s)].summary["mean_personalized_accuracy"]
                          for s in SEEDS])
           for algo in ("proposed", "fedavg", "local")}
    ok = (acc["proposed"] >= acc["fedavg"] + 0.03) and (acc["proposed"] >= acc["local"])
    report(5, ok,
           f"5-seed means: proposed {acc['proposed']:.4f}, fedavg {acc['fedavg']:.4f}, "
           f"local {acc['local']:.4f} (needs proposed >= fedavg + 3pp and >= local)")


def test_criterion_06_coefficient_trend(trend_battery):
    rise_seeds = 0
    pair_deltas = []
    for seed in SEEDS:
        result = trend_battery[("proposed", seed)]
        cfg = result.config
        owners = Simulation(cfg).owners
        # round 1 steps no raw row, so its effective rows are the initial ones
        start = init_coeffs(cfg.num_devices, sorted(owners), cfg.coeff_lr)
        first = {b: owner_matrix(start, b, owners[b]) for b in owners}
        last = {b: owner_matrix(result.server.coeffs, b, owners[b]) for b in owners}
        all_blocks_rise = True
        for b in first:
            eff1 = first[b]
            effT = last[b]
            idx = np.flatnonzero((eff1 > 0).any(axis=1))
            if np.mean([effT[k, k] for k in idx]) <= np.mean([eff1[k, k] for k in idx]):
                all_blocks_rise = False
        rise_seeds += all_blocks_rise
        supports = [set(s) for s in result.summary["label_supports"]]
        for b in first:
            eff1 = first[b]
            effT = last[b]
            K = eff1.shape[0]
            for k in range(K):
                for kp in range(K):
                    if k == kp or (supports[k] & supports[kp]) or eff1[k, kp] == 0:
                        continue
                    pair_deltas.append(float(effT[k, kp] - eff1[k, kp]))
    ok = rise_seeds >= 4 and len(pair_deltas) > 0 and np.mean(pair_deltas) < 0
    report(6, ok,
           f"self-weight rises for every block in {rise_seeds}/5 seeds; "
           f"{len(pair_deltas)} disjoint-support pairs, mean weight change "
           f"{np.mean(pair_deltas):+.4f}")


def test_criterion_07_quota_time_trend(quota_battery):
    ok = True
    details = []
    for seed in (0, 1):
        t = {q: quota_battery[(q, seed)].summary["total_simulated_time_s"]
             for q in (3, 6, 9)}
        ok = ok and t[3] <= t[6] <= t[9]
        details.append(f"seed {seed}: {t[3]:.1f} <= {t[6]:.1f} <= {t[9]:.1f}")
    report(7, ok, "total simulated time vs quota K/3, 2K/3, K: " + "; ".join(details))


def test_criterion_08_metric_comparison(metric_battery):
    def mean_of(label, key):
        vals = [metric_battery[(label, s)].summary[key] for s in (0, 1)]
        return float(np.mean(vals))

    t_fast = mean_of("a2", "total_simulated_time_s")
    t_slow = mean_of("a4", "total_simulated_time_s")
    acc_ratio = mean_of("ratio", "mean_personalized_accuracy")
    best_linear = max(mean_of(l, "mean_personalized_accuracy") for l in ("a4", "a3", "a2"))
    ok = (t_fast <= t_slow) and (acc_ratio >= best_linear - 0.02)
    report(8, ok,
           f"time alpha=1e-2 {t_fast:.1f}s <= alpha=1e-4 {t_slow:.1f}s; "
           f"ratio accuracy {acc_ratio:.4f} vs best linear {best_linear:.4f}")


def brute_force_schedule(owners, self_w, t_down, t_cmp, sizes, up_rates,
                         quota, threshold, staleness0, kind, alpha):
    num_devices = len(t_down)
    blocks = sorted(owners)
    ind = {b: [0] * num_devices for b in blocks}
    stale = {b: list(staleness0[b]) for b in blocks}
    for b in blocks:
        eligible = [k for k in range(num_devices) if owners[b][k]]
        vals = {}
        for k in eligible:
            up_bits = sizes[b] + sum(sizes[bp] * ind[bp][k] for bp in blocks if bp < b)
            total = t_down[k] + t_cmp[k] + up_bits / up_rates[k]
            vals[k] = ((1 - self_w[b][k]) / total if kind == "ratio"
                       else (1 - self_w[b][k]) - alpha * total)
        order = sorted(eligible, key=lambda k: (-vals[k], k))
        chosen = set(order[:min(quota, len(eligible))])
        for k in eligible:
            if k in chosen:
                ind[b][k] = 1
                stale[b][k] = 0
            else:
                stale[b][k] += 1
        for k in eligible:
            if stale[b][k] >= threshold:
                ind[b][k] = 1
                stale[b][k] = 0
    return ind, stale


def test_criterion_09_scheduler_exactness():
    rng = np.random.default_rng(21)
    mismatches = 0
    for _ in range(1000):
        num_devices = int(rng.integers(2, 7))
        num_mod = int(rng.integers(1, 4))
        blocks = list(range(1, num_mod + 2))
        owners = {}
        for b in blocks[:-1]:
            row = rng.uniform(size=num_devices) < 0.7
            if not row.any():
                row[int(rng.integers(num_devices))] = True
            owners[b] = row
        owners[blocks[-1]] = np.ones(num_devices, dtype=bool)
        self_w = {b: np.where(owners[b], rng.uniform(size=num_devices), 0.0)
                  for b in blocks}
        t_down = rng.uniform(0.0, 3.0, size=num_devices)
        t_cmp = rng.uniform(0.1, 5.0, size=num_devices)
        sizes = {b: int(rng.integers(100, 10000)) for b in blocks}
        up_rates = rng.uniform(50.0, 5000.0, size=num_devices)
        quota = int(rng.integers(1, num_devices + 1))
        threshold = int(rng.integers(1, 6))
        staleness0 = {b: rng.integers(0, threshold, size=num_devices).astype(np.int64)
                      for b in blocks}
        kind = "ratio" if rng.uniform() < 0.5 else "linear"
        alpha = float(rng.uniform(0.0, 0.5))
        ind, stale, _, _ = schedule_round(
            self_w, t_down, t_cmp, sizes, up_rates, owners,
            kind, alpha, staleness0, quota, threshold)
        bf_ind, bf_stale = brute_force_schedule(
            owners, self_w, t_down, t_cmp, sizes, up_rates, quota, threshold,
            staleness0, kind, alpha)
        for b in blocks:
            if (not np.array_equal(ind[b], bf_ind[b])
                    or not np.array_equal(stale[b], bf_stale[b])):
                mismatches += 1
    report(9, mismatches == 0,
           f"1000 random instances (K <= 6, M <= 3) against the straight-line "
           f"transliteration, {mismatches} mismatching blocks")


def test_criterion_10_staleness_bound(trend_battery, quota_battery):
    threshold = desk_config().staleness_threshold
    worst_gap = 0
    checked_runs = 0
    runs = [trend_battery[(algo, s)] for algo in ("proposed", "fedavg") for s in SEEDS]
    runs += list(quota_battery.values())
    for result in runs:
        checked_runs += 1
        uploads: dict[tuple[int, int], list[int]] = {}
        for log in result.logs:
            for b, ind in log.scheduled.items():
                for k in np.flatnonzero(ind):
                    uploads.setdefault((int(k), b), []).append(log.round)
        sim_blocks = {b for log in result.logs for b in log.scheduled}
        num_devices = result.config.num_devices
        for b in sim_blocks:
            for k in range(num_devices):
                if (k, b) not in uploads:
                    owned = set(result.summary["owned_modalities"][k])
                    if b in owned or b == result.config.num_modalities + 1:
                        worst_gap = max(worst_gap, len(result.logs) + 1)
                    continue
                rounds = uploads[(k, b)]
                gaps = [rounds[0]] + [b2 - a2 for a2, b2 in zip(rounds, rounds[1:])]
                worst_gap = max(worst_gap, max(gaps))
    report(10, worst_gap <= threshold + 1,
           f"{checked_runs} runs checked, worst upload gap {worst_gap} rounds "
           f"(bound {threshold + 1})")


def test_criterion_11_channel_statistics():
    pl = path_loss_db(100.0, 2.6)
    pl_ok = abs(pl - 80.70) <= 0.01
    rng = np.random.default_rng(31)
    mu = mean_gain(75.0, 2.6)
    draws = sample_round_gains(rng, np.full(100_000, 75.0), 2.6)
    rel = abs(draws.mean() - mu) / mu
    report(11, pl_ok and rel < 0.01,
           f"path_loss(100 m, 2.6 GHz) = {pl:.4f} dB; Rayleigh mean off by "
           f"{100 * rel:.3f}% at 1e5 samples")


def test_criterion_12_determinism(tmp_path):
    cfg = desk_config(seed=7, rounds=10)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    payloads = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        payloads.append((out / "rounds.csv").read_bytes())
    ok = payloads[0] == payloads[1] and len(payloads[0]) > 0
    report(12, ok, f"two identical runs, rounds.csv bytes equal: {ok}")
