"""Named experiment sweeps at desk scale.

Every recipe emits fully validated configs. `_DESK_BASE` states only where
desk scale departs from `RunConfig`'s defaults, on purpose: the stand-in dense
nets are orders of magnitude smaller than production encoders, so they need
a larger step size, a hotter aggregation-weight learning rate and tighter
class clusters to show the same relative trends inside 50 rounds.
"""

from __future__ import annotations

from .config import RunConfig, config_from_dict

RECIPE_NAMES = ("table1_trend", "table3_trend", "table4_trend", "table5_trend", "fig3_trend")

# only what the desk scenario changes from the RunConfig defaults; see module docstring
_DESK_BASE = {
    "data": {"noise_std": 3.0, "mean_separation": 1.0},
    "lr": 0.05,
    "coeff_lr": 15.0,
    "local_iters": 12,
    "quota": 3,
    # slow, uneven edge hardware and narrowband uplinks so round times sit in
    # the seconds range and the latency term of the scheduling metrics
    # actually separates devices
    "compute": {"cycles_per_s": 7e5, "heterogeneity": 6.0},
    "link": {"bandwidth_hz": 2e4},
}


def desk_config(seed: int = 0, **overrides) -> RunConfig:
    """One desk-scale run config; keyword overrides patch the base recipe, dicts its sections."""
    payload: dict = {**_DESK_BASE, "seed": seed}
    for key, value in overrides.items():
        section = isinstance(value, dict) and isinstance(payload.get(key), dict)
        payload[key] = {**payload[key], **value} if section else value
    return config_from_dict(payload)


def recipe_suite(name: str, seed: int = 0) -> list[tuple[str, RunConfig]]:
    """Configs for one named sweep, as (label, config) pairs."""
    quota_grid = {"third": 3, "two_thirds": 6, "full": 9}
    if name == "table1_trend":
        return [(f"{algo}_{scheme}",
                 desk_config(seed=seed, algorithm=algo, partition=scheme))
                for algo in ("proposed", "fedavg", "local", "fedprox")
                for scheme in ("noniid1", "noniid2", "noniid3")]
    if name == "table3_trend":
        runs = [("ratio", desk_config(seed=seed, metric="ratio"))]
        runs += [(f"linear_alpha_{alpha:g}",
                  desk_config(seed=seed, metric="linear", alpha=alpha))
                 for alpha in (1e-4, 1e-3, 1e-2)]
        return runs
    if name == "table4_trend":
        return [(f"{algo}_khat_{label}",
                 desk_config(seed=seed, algorithm=algo, quota=q))
                for algo in ("proposed", "fedavg", "fedprox")
                for label, q in quota_grid.items()]
    if name == "table5_trend":
        return [(f"{algo}_khat_{label}",
                 desk_config(seed=seed, algorithm=algo, quota=q))
                for algo in ("proposed", "fedavg")
                for label, q in quota_grid.items()]
    if name == "fig3_trend":
        return [("coefficient_dynamics",
                 desk_config(seed=seed, record_coefficients=True))]
    raise ValueError(f"unknown recipe {name!r}; choose from {RECIPE_NAMES}")
