"""The written files replay the control plane.

Each case runs the command line with gain and coefficient recording on,
then rebuilds what the round loop decided from the files alone: the
config and owned modality sets echoed in `summary.json`, the gains in
`gains.csv`, the compute times in `rounds.csv` and the weights in
`coefficients.csv`. The Shannon rate, the transfer times, the scheduling
metrics and the selection rule are written out here, from the README's
model, and every replayed value must be `repr`-equal to the written cell.
"""

import csv
import json
import math

import pytest

from fmmlsim import config_to_dict, desk_config
from fmmlsim.cli import main

BITS_PER_VALUE = 32  # every parameter counts 32 bits on the wire

CASES = {
    "ratio": {},
    "linear": {"metric": "linear", "alpha": 0.01},
    "fedavg_random": {"algorithm": "fedavg", "baseline_scheduler": "random"},
    "staleness_2": {"staleness_threshold": 2},
    # transfers that vanish beside a slow, equal compute time: devices that
    # own the same modalities tie on the metric, and the quota splits them
    "ties": {"quota": 2, "compute": {"cycles_per_s": 1.0, "heterogeneity": 1.0},
             "link": {"bandwidth_hz": 1e16, "noise_density": 1e-30}},
}
SEEDS = (0, 1009)
ROUNDS = 12


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def block_bits(cfg, block):
    """Wire size of one block: an encoder per modality, then the shared head."""
    m, arch, data = cfg["num_modalities"], cfg["arch"], cfg["data"]
    h, f = arch["encoder_hidden"], arch["feature_len"]
    if block <= m:
        params = h * data["input_dims"][block - 1] + h + f * h + f
    else:
        widths = [m * f, *arch["classifier_hidden"], data["num_classes"]]
        params = sum(w_out * w_in + w_out for w_in, w_out in zip(widths, widths[1:]))
    return BITS_PER_VALUE * params


def shannon_rate(power_w, gain, link):
    snr = power_w * gain * gain / (link["bandwidth_hz"] * link["noise_density"])
    return link["bandwidth_hz"] * math.log2(1.0 + snr)


def transfer_time(bits, rate):
    return bits / rate if bits else 0.0


class Replay:
    """The files of one run, indexed by round, block and device."""

    def __init__(self, out):
        summary = json.loads((out / "summary.json").read_text())
        self.summary, self.cfg = summary, summary["config"]
        cfg = self.cfg
        self.K, m = cfg["num_devices"], cfg["num_modalities"]
        owned = summary["owned_modalities"]
        self.owners = {b: [k for k in range(self.K) if b in owned[k]] for b in range(1, m + 1)}
        self.owners[m + 1] = list(range(self.K))
        self.bits = {b: block_bits(cfg, b) for b in self.owners}
        self.quota = cfg["quota"] or max(1, -(-self.K // 3))
        self.gains = {(int(r["round"]), int(r["device"])): float(r["gain"])
                      for r in read_csv(out / "gains.csv")}
        self.rounds = {(int(r["round"]), int(r["device"])): r for r in read_csv(out / "rounds.csv")}
        self.schedule = {(int(r["round"]), int(r["block"]), int(r["device"])): r
                         for r in read_csv(out / "schedule.csv")}
        self.weight_rows = {}  # (round, block, k) -> [(k', raw, effective)]
        for r in read_csv(out / "coefficients.csv"):
            self.weight_rows.setdefault((int(r["round"]), int(r["block"]), int(r["k"])), []).append(
                (int(r["k_prime"]), float(r["raw"]), float(r["effective"])))

    def indicator(self, t, b, k):
        row = self.schedule.get((t, b, k))
        return row is not None and row["indicator"] == "1"

    def scheduled_bits(self, t, k):
        return sum(self.bits[b] for b in self.owners if self.indicator(t, b, k))

    def rates(self, t, k):
        link, gain = self.cfg["link"], self.gains[(t, k)]
        return (shannon_rate(link["server_power_w"], gain, link),
                shannon_rate(link["device_power_w"], gain, link))

    def self_weight(self, t, b, k):
        """The weight k's last row put on itself: 1/owners before round 1's weights."""
        if t == 1:
            return 1 / len(self.owners[b])
        return next(eff for kp, _, eff in self.weight_rows[(t - 1, b, k)] if kp == k)


@pytest.fixture(scope="module", params=[(c, s) for c in CASES for s in SEEDS],
                ids=[f"{c}-seed{s}" for c in CASES for s in SEEDS])
def replay(request, tmp_path_factory):
    case, seed = request.param
    cfg = desk_config(seed, rounds=ROUNDS, local_iters=2, record_gains=True,
                      record_coefficients=True, **CASES[case])
    tmp = tmp_path_factory.mktemp(f"{case}-{seed}")
    (tmp / "cfg.json").write_text(json.dumps(config_to_dict(cfg)))
    assert main(["--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")]) == 0
    return Replay(tmp / "out")


def test_latencies_and_round_times_replay(replay):
    total = 0
    for t in range(1, ROUNDS + 1):
        ends = []
        for k in range(replay.K):
            row = replay.rounds[(t, k)]
            down_rate, up_rate = replay.rates(t, k)
            # a device downloads what it uploaded last round, and uploads
            # every block it is scheduled for this round
            t_down = transfer_time(replay.scheduled_bits(t - 1, k), down_rate)
            t_up = transfer_time(replay.scheduled_bits(t, k), up_rate)
            assert (repr(t_down), repr(t_up)) == (row["t_download_s"], row["t_upload_s"])
            ends.append(t_down + float(row["t_compute_s"]) + t_up)
        round_time = max(ends)
        assert {replay.rounds[(t, k)]["round_time_s"] for k in range(replay.K)} == {repr(round_time)}
        total += round_time
    assert repr(total) == repr(replay.summary["total_simulated_time_s"])


def test_schedule_and_metrics_replay(replay):
    cfg = replay.cfg
    learned = cfg["algorithm"] == "proposed"
    stale = {(b, k): 0 for b, ks in replay.owners.items() for k in ks}
    for t in range(1, ROUNDS + 1):
        bits_so_far = [0] * replay.K
        for b in sorted(replay.owners):
            ids = replay.owners[b]
            rows = {k: replay.schedule[(t, b, k)] for k in ids}
            metric = {k: float(rows[k]["metric"]) for k in ids}
            if learned:
                for k in ids:
                    down_rate, up_rate = replay.rates(t, k)
                    # the upload time includes the blocks already scheduled this round
                    t_up = transfer_time(bits_so_far[k] + replay.bits[b], up_rate)
                    latency = (transfer_time(replay.scheduled_bits(t - 1, k), down_rate)
                               + float(replay.rounds[(t, k)]["t_compute_s"]) + t_up)
                    benefit = 1.0 - replay.self_weight(t, b, k)
                    expected = (benefit / latency if cfg["metric"] == "ratio"
                                else benefit - cfg["alpha"] * latency)
                    assert repr(expected) == rows[k]["metric"], (t, b, k)
            # the top quota by metric, ties by ascending id, then every
            # device whose staleness reaches the threshold
            chosen = set(sorted(ids, key=lambda k: (-metric[k], k))[:replay.quota])
            for k in ids:
                stale[(b, k)] = 0 if k in chosen else stale[(b, k)] + 1
                forced = stale[(b, k)] >= cfg["staleness_threshold"]
                if forced:
                    stale[(b, k)] = 0
                uploads = k in chosen or forced
                assert (rows[k]["indicator"], rows[k]["staleness"]) == \
                    (str(int(uploads)), str(stale[(b, k)])), (t, b, k)
                if uploads:
                    bits_so_far[k] += replay.bits[b]


def test_effective_rows_are_the_softmax_of_the_raw_rows(replay):
    for row in replay.weight_rows.values():
        top = max(raw for _, raw, _ in row)
        exps = [math.exp(raw - top) for _, raw, _ in row]
        for (_, _, eff), e in zip(row, exps):
            assert abs(eff - e / sum(exps)) <= 1e-15
        assert abs(sum(eff for _, _, eff in row) - 1.0) <= 1e-15
