"""Learned per-device aggregation weights over uploaded parameter blocks.

The server keeps one unconstrained K-by-K weight matrix per block. Row k
becomes device k's aggregation weights by one softmax over the devices that
uploaded the block this round; every other entry is exactly zero. The raw
rows descend along the softmax's closed-form vector-Jacobian product, with
the loss gradient estimated from the delta a device uploads one round
later. The round loop's functions check nothing per call:
`scheduler.schedule_block` alone decides who uploads a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AggregationError
from .nn_core import ArchSpec

GRADIENT_ESTIMATES = ("descent_normalized", "raw_delta")


@dataclass
class CoefficientState:
    """Raw weight matrices, one per block, and their learning rate."""

    raw: dict[int, np.ndarray]  # block -> (K, K) unconstrained weights
    lr: float


@dataclass
class CacheEntry:
    """One block's aggregation, kept for the next round's weight update; row i
    of `rows` and `aggregated` belongs to the device `uploaders[i]`."""

    uploaders: np.ndarray  # (n,) devices that uploaded the block, ascending
    U: np.ndarray          # (n, P_b) their uploaded flat values, same order
    rows: np.ndarray       # (n, K) effective weight rows used
    aggregated: np.ndarray  # (n, P_b) rows[:, uploaders] @ U


GradCache = dict[int, CacheEntry]  # block -> entry


def block_owners(owned_sets: Sequence[Sequence[int]], arch: ArchSpec) -> dict[int, np.ndarray]:
    """(K,) bool owner mask per block id: the devices whose `arch.device_blocks` hold it."""
    blocks = [arch.device_blocks(owned) for owned in owned_sets]
    return {b: np.array([b in held for held in blocks], dtype=bool)
            for b in range(1, arch.shared_block_id + 1)}


def init_coeffs(num_devices: int, block_ids: Sequence[int], lr: float) -> CoefficientState:
    """Uniform 1/K start for every raw entry; nothing is known about peers yet."""
    raw = {b: np.full((num_devices, num_devices), 1.0 / num_devices) for b in block_ids}
    return CoefficientState(raw=raw, lr=lr)


def softmax_row(raw_rows: np.ndarray, participants: np.ndarray) -> np.ndarray:
    """Softmax of each row over the participating devices; exactly zero elsewhere.

    raw_rows is one (K,) row or an (n, K) stack; participants is a (K,) bool
    mask shared by every row, and each row needs one (the round loop's masks
    hold its own device). Each row's largest participating entry is exp(0)
    before the division, so no row underflows to zero.
    """
    z = raw_rows[..., participants]
    e = np.zeros_like(raw_rows)
    e[..., participants] = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def masked_renormalize(soft_row: np.ndarray, mask_row: np.ndarray) -> np.ndarray:
    """Zero the masked entries and rescale the rest back onto the simplex;
    raises AggregationError when the mask removes all weight."""
    soft_row = np.asarray(soft_row, dtype=np.float64)
    masked = np.asarray(mask_row, dtype=np.float64) * soft_row
    total = masked.sum()
    if total <= 0.0:
        raise AggregationError("mask removed all weight from the row")
    return masked / total


def build_round_mask(indicators: np.ndarray, participants: np.ndarray) -> np.ndarray:
    """(K, K) int8 upload mask of one block and round: (k, k') is 1 when both
    devices uploaded and own the block, and the diagonal is always 1."""
    active = np.asarray(indicators, dtype=bool) & np.asarray(participants, dtype=bool)
    mask = np.outer(active, active).astype(np.int8)
    np.fill_diagonal(mask, 1)
    return mask


def aggregate(rows: np.ndarray, uploaders: np.ndarray, U: np.ndarray) -> CacheEntry:
    """Every weight row's convex combination of the uploads, as one CacheEntry.

    rows is an (n, K) stack, zero off `uploaders` (ascending); U is the
    (len(uploaders), P_b) stack of their flat blocks in that order, kept
    without a copy; nothing is checked. Row i of `aggregated` is
    rows[i, uploaders] @ U.
    """
    return CacheEntry(uploaders=uploaders, U=U, rows=rows, aggregated=rows[:, uploaders] @ U)


def coeff_jacobian(raw_row: np.ndarray, mask_row: np.ndarray,
                   participants: np.ndarray) -> np.ndarray:
    """Jacobian D[j, i] = d(effective_j) / d(raw_i) through the softmax and the
    mask renormalization; masked-out rows are zero and every column sums to
    zero. Raises AggregationError when the mask removes all weight."""
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


def estimate_block_gradient(w_prev: np.ndarray, w_new: np.ndarray, eta: float,
                            num_iters: int, mode: str) -> np.ndarray:
    """Loss-gradient proxy at the previously aggregated block, elementwise.

    w_prev and w_new are one flat block each or two (n, P_b) stacks of one
    shape. "descent_normalized" gives (w_prev - w_new) / (eta * num_iters),
    along the mean gradient of num_iters steps of size eta; "raw_delta"
    gives w_new - w_prev. The config checks mode, eta and num_iters.
    """
    if mode == "raw_delta":
        return w_new - w_prev
    return (w_prev - w_new) / (eta * num_iters)


def coeff_grad(entry: CacheEntry, sel: np.ndarray, est: np.ndarray) -> np.ndarray:
    """(len(sel), K) gradients of the losses of devices `entry.uploaders[sel]`
    w.r.t. their raw rows, given est, the (len(sel), P_b) estimated loss
    gradients at their aggregates: row * (inner - row . inner), where
    inner_k = U_k . g for each uploader k and zero elsewhere."""
    rows = entry.rows[sel]
    inner = np.zeros_like(rows)
    inner[:, entry.uploaders] = (entry.U[None] @ est[:, :, None])[:, :, 0]
    row_dot = (rows[:, None, :] @ inner[:, :, None])[:, 0, 0]
    return rows * (inner - row_dot[:, None])


def coeff_update(state: CoefficientState,
                 grads: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> CoefficientState:
    """Step each given raw row by -lr times its gradient; the rest stay as they
    are. grads maps a block to (devices, (n, K) gradient rows), one distinct
    device per row."""
    for b, (ks, grad) in grads.items():
        state.raw[b][ks] -= state.lr * grad
    return state


def update_weights(state: CoefficientState, prev: GradCache, fresh: GradCache,
                   indicators: Mapping[int, np.ndarray], eta: float, num_iters: int,
                   mode: str) -> dict[int, np.ndarray]:
    """One descent step on the raw rows last round's aggregation can teach.

    prev and fresh hold last and this round's aggregation of each block. A
    device that aggregated a block last round and uploads it again this
    round learns from its fresh upload against its previous aggregate.
    Returns the stepped devices of each block that has any, ascending.
    """
    grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for b, entry in prev.items():
        sel = np.flatnonzero(indicators[b][entry.uploaders])
        if not sel.size:
            continue
        ks = entry.uploaders[sel]
        now = fresh[b]
        est = estimate_block_gradient(entry.aggregated[sel],
                                      now.U[np.searchsorted(now.uploaders, ks)],
                                      eta, num_iters, mode=mode)
        grads[b] = (ks, coeff_grad(entry, sel, est))
    if grads:
        coeff_update(state, grads)
    return {b: ks for b, (ks, _) in grads.items()}


def effective_rows(state: CoefficientState, block: int, owners: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
    """Structural aggregation weights (full participation, no round mask):
    each owner's row is a softmax of its own raw row over the owners. Returns
    the (len(rows), K) rows of the owner ids `rows`, zero off the owners."""
    return softmax_row(state.raw[block][rows], owners)
