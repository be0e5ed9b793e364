"""Learned per-device aggregation weights over uploaded parameter blocks.

The server keeps one unconstrained K-by-K weight matrix per block. Row k is
turned into aggregation weights for device k in two stages: a softmax over
the devices that structurally own the block, then a renormalization over the
devices whose upload actually arrived this round (masked entries become
exactly zero). The raw matrices are trained by gradient descent through that
transform; the loss gradient at the aggregated point is estimated from the
parameter delta the device uploads one round later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AggregationError, ShapeMismatchError
from .nn_core import ParamBlock

GRADIENT_ESTIMATES = ("descent_normalized", "raw_delta")


@dataclass
class CoefficientState:
    """Raw weight matrices, one per block, and their learning rate."""

    raw: dict[int, np.ndarray]  # block -> (K, K) unconstrained weights
    lr: float


@dataclass
class CacheEntry:
    """Material retained from one aggregation for the next round's update."""

    weight_row: np.ndarray          # effective weights used, (K,)
    jacobian: np.ndarray            # d(effective)/d(raw) for the row, (K, K)
    uploads: dict[int, np.ndarray]  # contributing device -> flat block values
    aggregated: np.ndarray          # the aggregated flat block values


GradCache = dict[tuple[int, int], CacheEntry]  # (device, block) -> entry


def block_owners(owned_sets: Sequence[Sequence[int]],
                 num_modalities: int) -> dict[int, np.ndarray]:
    """(K,) bool owner mask per block: modality m's holders, and everyone for the head M+1."""
    owners = {m: np.array([m in set(owned) for owned in owned_sets], dtype=bool)
              for m in range(1, num_modalities + 1)}
    owners[num_modalities + 1] = np.ones(len(owned_sets), dtype=bool)
    return owners


def init_coeffs(num_devices: int, block_ids: Sequence[int], lr: float) -> CoefficientState:
    """Uniform 1/K start for every raw entry; nothing is known about peers yet."""
    raw = {b: np.full((num_devices, num_devices), 1.0 / num_devices) for b in block_ids}
    return CoefficientState(raw=raw, lr=lr)


def softmax_row(raw_row: np.ndarray, participants: np.ndarray) -> np.ndarray:
    """Softmax restricted to participating devices; zero elsewhere.

    Max subtraction guards against overflow; the output sums to one over the
    participants.
    """
    raw_row = np.asarray(raw_row, dtype=np.float64)
    p = np.asarray(participants, dtype=bool)
    if not p.any():
        raise AggregationError("no participating devices in row")
    out = np.zeros_like(raw_row)
    z = raw_row[p]
    e = np.exp(z - z.max())
    out[p] = e / e.sum()
    return out


def masked_renormalize(soft_row: np.ndarray, mask_row: np.ndarray) -> np.ndarray:
    """Zero out masked entries and rescale the rest back onto the simplex."""
    soft_row = np.asarray(soft_row, dtype=np.float64)
    masked = np.asarray(mask_row, dtype=np.float64) * soft_row
    total = masked.sum()
    if total <= 0.0:
        raise AggregationError("mask removed all weight from the row")
    return masked / total


def build_round_mask(indicators: np.ndarray, participants: np.ndarray) -> np.ndarray:
    """Upload mask matrix for one block and round.

    Off-diagonal (k, k') is 1 only when both devices uploaded (and own the
    block); the diagonal is always 1, so a device that skipped the round
    keeps its own parameters with weight one.
    """
    active = np.asarray(indicators, dtype=bool) & np.asarray(participants, dtype=bool)
    mask = np.outer(active, active).astype(np.int8)
    np.fill_diagonal(mask, 1)
    return mask


def aggregate(weight_row: np.ndarray, uploads: Mapping[int, ParamBlock]) -> ParamBlock:
    """Convex combination of uploaded blocks with the given weights."""
    weight_row = np.asarray(weight_row, dtype=np.float64)
    contributing = [int(k) for k in np.flatnonzero(weight_row > 0.0)]
    missing = [k for k in contributing if k not in uploads]
    if missing:
        raise AggregationError(f"positive weight but no upload from devices {missing}")
    ref = uploads[contributing[0]]
    total = np.zeros_like(ref.values)
    for k in contributing:
        blk = uploads[k]
        if not blk.same_structure(ref) or blk.block_id != ref.block_id:
            raise AggregationError(f"upload from device {k} has mismatched structure")
        total += weight_row[k] * blk.values
    return ParamBlock(ref.block_id, total, ref.shapes)


def coeff_jacobian(raw_row: np.ndarray, mask_row: np.ndarray,
                   participants: np.ndarray) -> np.ndarray:
    """Jacobian D of the effective weights w.r.t. the raw row.

    D[j, i] = d(effective_j) / d(raw_i), chained through the softmax and the
    mask renormalization. Rows of masked-out devices are zero and every
    column sums to zero because the effective weights always sum to one.
    """
    soft = softmax_row(raw_row, participants)
    p = np.asarray(participants, dtype=bool)
    m = np.asarray(mask_row, dtype=np.float64) * p
    total = float(np.dot(m, soft))
    if total <= 0.0:
        raise AggregationError("mask removed all weight from the row")
    eff = m * soft / total
    j_soft = np.diag(soft) - np.outer(soft, soft)
    j_renorm = (np.diag(m) - np.outer(eff, m)) / total
    return j_renorm @ j_soft


def estimate_block_gradient(w_prev: ParamBlock, w_new: ParamBlock, eta: float,
                            num_iters: int, mode: str = "descent_normalized") -> ParamBlock:
    """Loss-gradient proxy at the previously aggregated block.

    A device that starts from w_prev and runs num_iters steps of step size
    eta accumulates roughly -eta*num_iters times the average gradient, so
    (w_prev - w_new) / (eta * num_iters) points along the gradient and keeps
    the weight update a descent step. "raw_delta" exposes the unscaled
    difference w_new - w_prev instead, for ablation.
    """
    if mode not in GRADIENT_ESTIMATES:
        raise ValueError(f"unknown gradient estimate mode {mode!r}")
    if not w_prev.same_structure(w_new):
        raise ShapeMismatchError("block structures differ")
    if eta * num_iters <= 0:
        raise ValueError("eta * num_iters must be positive")
    if mode == "raw_delta":
        vals = w_new.values - w_prev.values
    else:
        vals = (w_prev.values - w_new.values) / (eta * num_iters)
    return ParamBlock(w_prev.block_id, vals, w_prev.shapes)


def coeff_grad(entry: CacheEntry, grad_block: ParamBlock) -> np.ndarray:
    """Gradient of the device loss w.r.t. one raw weight row.

    Chains the retained Jacobian with the inner products between each cached
    upload and the estimated loss gradient at the aggregated block. Inner
    products run in float64.
    """
    g = grad_block.values if isinstance(grad_block, ParamBlock) else np.asarray(grad_block)
    num_devices = entry.jacobian.shape[0]
    inner = np.zeros(num_devices)
    for k in sorted(entry.uploads):
        inner[k] = float(np.dot(entry.uploads[k], g))
    return entry.jacobian.T @ inner


def coeff_update(state: CoefficientState,
                 grads: Mapping[tuple[int, int], np.ndarray]) -> CoefficientState:
    """Descend the provided rows; everything else stays untouched.

    grads maps (device, block) to a length-K gradient row. Rows are applied
    in ascending (device, block) order so results never depend on dict order.
    """
    for (k, b) in sorted(grads):
        state.raw[b][k] = state.raw[b][k] - state.lr * np.asarray(grads[(k, b)])
    return state


def effective_rows(state: CoefficientState, block: int, owners: np.ndarray) -> np.ndarray:
    """Structural aggregation weights (full participation, no round mask)."""
    out = np.zeros_like(state.raw[block])
    for k in np.flatnonzero(owners):
        out[k] = softmax_row(state.raw[block][k], owners)
    return out
