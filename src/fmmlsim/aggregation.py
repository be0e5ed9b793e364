"""Learned per-device aggregation weights over uploaded parameter blocks.

The server keeps one unconstrained K-by-K weight matrix per block. Row k is
turned into aggregation weights for device k by one softmax over the devices
that uploaded the block this round; every other entry is exactly zero. This
equals a softmax over the owners followed by a renormalization over the
round's uploaders, but takes one pass per row and cannot lose the whole row
to underflow. A block is aggregated for all its uploaders in one product,
`rows[:, uploaders] @ U`, with `U` the (uploaders, P_b) rows of the
uploaders' flat block vectors, gathered by the caller in one indexing step
from the array that holds the block for every device; aggregates and
gradient estimates are plain float64 arrays. The raw matrices are trained by
gradient descent through the softmax, using its closed-form vector-Jacobian
product, O(K) per row; the loss gradient at the aggregated point is
estimated from the parameter delta the device uploads one round later. The
weight update of a block runs once for all its devices with a fresh upload:
one stacked gradient estimate, one stacked product with `U` and one descent
step on their raw rows.

The round loop's functions check nothing per call. `scheduler.schedule_block`
alone decides who uploads a block, and its indicators are zero off the
owners; `Simulation.step` gathers `U` one row per uploader. The tests'
references `masked_renormalize` and `coeff_jacobian` spell out the two-stage
transform and its Jacobian, and check their masks.
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
    """One block's aggregation, retained for the next round's weight update.

    Row i of `rows` and `aggregated` belongs to the device `uploaders[i]`.
    """

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
    """Softmax of each row restricted to its participating devices; exactly zero elsewhere.

    raw_rows is one (K,) row or an (n, K) stack; participants is a (K,) mask
    shared by every row. Every row needs a participant: the round loop's
    masks hold each row's own device (the uploaders in `Simulation.step`,
    the owners in `effective_rows`). Only the participating entries are
    exponentiated, into a zero-filled row. Subtracting each row's largest
    participating entry guards against overflow and leaves that entry at
    exp(0) = 1, so no row can underflow to zero; each row sums to one over
    its participants.
    """
    z = raw_rows[..., participants]
    e = np.zeros_like(raw_rows)
    e[..., participants] = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


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


def aggregate(rows: np.ndarray, uploaders: np.ndarray, U: np.ndarray) -> CacheEntry:
    """Convex combination of the uploaded blocks for every weight row at once.

    rows is an (n, K) stack of weight rows; uploaders are the devices that
    uploaded, ascending, and U is the (len(uploaders), P_b) stack of their
    flat block vectors in that order. Nothing is checked: the rows must be
    zero off the uploaders, as `softmax_row` over the uploaders makes them,
    and `Simulation.step` gathers U one row per uploader. The entry keeps U
    as given (not a copy), and row i of its `aggregated` is
    rows[i, uploaders] @ U.
    """
    return CacheEntry(uploaders=uploaders, U=U, rows=rows, aggregated=rows[:, uploaders] @ U)


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


def estimate_block_gradient(w_prev: np.ndarray, w_new: np.ndarray, eta: float,
                            num_iters: int, mode: str) -> np.ndarray:
    """Loss-gradient proxy at the previously aggregated block.

    A device that starts from w_prev and runs num_iters steps of step size
    eta accumulates roughly -eta*num_iters times the average gradient, so
    (w_prev - w_new) / (eta * num_iters) points along the gradient and keeps
    the weight update a descent step. "raw_delta" exposes the unscaled
    difference w_new - w_prev instead, for ablation. Both are elementwise:
    w_prev and w_new are one flat block each or two (n, P_b) stacks of
    them, of one shape: `update_weights` takes one row of each per stepped
    device. The config's field declarations check that mode is a
    GRADIENT_ESTIMATES name and that eta and num_iters are positive.
    """
    if mode == "raw_delta":
        return w_new - w_prev
    return (w_prev - w_new) / (eta * num_iters)


def coeff_grad(entry: CacheEntry, sel: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Gradients of the losses of devices `entry.uploaders[sel]` w.r.t. their raw rows.

    est is the (len(sel), P_b) stack of estimated loss gradients at those
    devices' aggregates. A device's loss sees its raw row only through its
    aggregated block sum_k row_k U_k, so with inner_k = U_k . g (g its
    estimated gradient, zero for devices that did not upload) the chain
    rule through the masked softmax gives the closed-form vector-Jacobian
    product row * (inner - row . inner), one row per device. It equals
    coeff_jacobian(...).T @ inner in O(K) instead of O(K^3). The products
    are stacked `matmul`s of the per-device vector products, so each row is
    bit-equal to computing that device alone.
    """
    rows = entry.rows[sel]
    inner = np.zeros_like(rows)
    inner[:, entry.uploaders] = (entry.U[None] @ est[:, :, None])[:, :, 0]
    row_dot = (rows[:, None, :] @ inner[:, :, None])[:, 0, 0]
    return rows * (inner - row_dot[:, None])


def coeff_update(state: CoefficientState,
                 grads: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> CoefficientState:
    """Descend the provided rows; everything else stays untouched.

    grads maps a block to (devices, gradient rows): one distinct device per
    row of the (n, K) gradient, whose raw row in that block takes one step.
    """
    for b, (ks, grad) in grads.items():
        state.raw[b][ks] -= state.lr * grad
    return state


def update_weights(state: CoefficientState, prev: GradCache, fresh: GradCache,
                   indicators: Mapping[int, np.ndarray], eta: float, num_iters: int,
                   mode: str) -> dict[int, np.ndarray]:
    """One descent step on the raw rows that last round's aggregation can teach.

    prev holds last round's aggregation of each block, fresh this round's.
    Each device that aggregated a block last round and uploads it again this
    round (its indicator is set) learns from the delta between its fresh
    upload and its previous aggregate: one stacked gradient estimate and one
    `coeff_grad` per block, then one `coeff_update` for all blocks. Returns
    the stepped devices of each block that has any, ascending.
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
