"""Small multi-modal dense networks with hand-written gradients.

Each device trains one encoder per modality it owns plus a classifier head
shared by every device. Parameters live in flat per-block vectors (one block
per modality encoder, one block for the head) so that blocks can be shipped,
averaged and diffed without caring about layer layout. A device's model is a
plain dict of blocks. `RunConfig.modality_sets` says which modalities each
device owns, and `ArchSpec.device_blocks` alone turns them into its block
list (ascending, then the head). A block vector may be a row view of a larger
array that stacks one block for many devices. A `ParamBlock` checks its
vector and cuts its layer views from its shapes, the layout's one statement,
once, when it is built; its fields cannot be rebound, so the views stay
valid for its lifetime. Gradients are flat arrays keyed by block, written
through the views of a caller's workspace of gradient blocks, and `sgd_step`
updates the block vectors in place, so the views, and the rows they belong
to, follow. Every matrix product whose output is contiguous calls `a.dot(b)`,
`np.dot`'s BLAS product without its Python dispatch and the cheapest call per
product at these sizes; the rest use `np.matmul(..., out=)`. The classifier
always consumes a fixed-width concatenation of all modality feature slots;
slots for modalities a device does not own stay zero, which keeps the head
block structurally identical across devices. The kernel trusts what set-up
fixes before round 1: each device's block set, the width of each modality's
features and the label range. It checks only for non-finite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericOverflowError, ShapeMismatchError

BITS_PER_PARAM = 32   # single precision on the wire
FLOPS_PER_PARAM = 6   # fwd + bwd multiply-accumulate budget per sample


@dataclass(frozen=True)
class ArchSpec:
    """Layer dimensions for the modality encoders and the shared head.

    Encoders are two dense layers with a tanh hidden layer; the head is a
    dense net (tanh hidden layers, linear output) over the fused features.
    """

    input_dims: tuple[int, ...]
    encoder_hidden: int
    feature_len: int
    classifier_hidden: tuple[int, ...]
    num_classes: int

    @property
    def num_modalities(self) -> int:
        return len(self.input_dims)

    @cached_property  # read on every kernel call
    def shared_block_id(self) -> int:
        return self.num_modalities + 1

    @cached_property  # read on every kernel call
    def fusion_width(self) -> int:
        return self.num_modalities * self.feature_len

    def device_blocks(self, owned: Sequence[int]) -> tuple[int, ...]:
        """A device's blocks: its `owned` modalities in ascending order, then the head."""
        return (*sorted(owned), self.shared_block_id)

    def block_shapes(self, block_id: int) -> tuple[tuple[int, ...], ...]:
        """Layer array shapes of one block, in storage order."""
        if 1 <= block_id <= self.num_modalities:
            d = self.input_dims[block_id - 1]
            h, f = self.encoder_hidden, self.feature_len
            return ((h, d), (h,), (f, h), (f,))
        if block_id == self.shared_block_id:
            widths = (self.fusion_width, *self.classifier_hidden, self.num_classes)
            shapes: list[tuple[int, ...]] = []
            for w_in, w_out in zip(widths[:-1], widths[1:]):
                shapes.append((w_out, w_in))
                shapes.append((w_out,))
            return tuple(shapes)
        raise ShapeMismatchError(f"unknown block id {block_id}")

    def block_param_count(self, block_id: int) -> int:
        return sum(math.prod(s) for s in self.block_shapes(block_id))


@dataclass(frozen=True)
class ParamBlock:
    """One flat parameter vector plus the layer shapes it packs; updated in place only."""

    block_id: int
    values: np.ndarray
    shapes: tuple[tuple[int, ...], ...]
    _views: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        sizes = [math.prod(shape) for shape in self.shapes]
        expected = sum(sizes)
        if values.ndim != 1 or values.shape[0] != expected:
            raise ShapeMismatchError(
                f"block {self.block_id}: {values.size} values, shapes imply {expected}")
        if not np.isfinite(values).all():
            raise NumericOverflowError(f"block {self.block_id} holds non-finite values")
        views, off = [], 0
        for shape, size in zip(self.shapes, sizes):
            views.append(values[off:off + size].reshape(shape))
            off += size
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_views", tuple(views))

    def __deepcopy__(self, memo):
        return ParamBlock(self.block_id, self.values.copy(), self.shapes)

    @property
    def param_count(self) -> int:
        return int(self.values.shape[0])

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Layer views into the flat vector, built once when the block is built.

        The views share memory with `values` and are writable: writing to a
        view changes `values`, and in-place updates of `values` show in the
        views. A deep copy of the block views the copy's own vector.
        """
        return self._views


def init_full_params(arch: ArchSpec, rng: np.random.Generator) -> dict[int, ParamBlock]:
    """One shared random init covering every block id (1..M+1).

    Weights are drawn N(0, 1/fan_in); biases start at zero. Devices slice
    their copies out of this single draw so that block m is identical
    everywhere at round zero.
    """
    blocks = {}
    for block_id in range(1, arch.shared_block_id + 1):
        parts = []
        for shape in arch.block_shapes(block_id):
            if len(shape) == 2:
                parts.append(rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape).ravel())
            else:
                parts.append(np.zeros(shape))
        blocks[block_id] = ParamBlock(block_id, np.concatenate(parts), arch.block_shapes(block_id))
    return blocks


def slice_device_params(full: Mapping[int, ParamBlock], owned: Sequence[int],
                        arch: ArchSpec) -> dict[int, ParamBlock]:
    """Copy the blocks a device maintains (`arch.device_blocks(owned)`) out
    of a full parameter set.

    The copies are standalone vectors; a `Simulation` instead builds each
    device's blocks as rows of its per-block arrays.
    """
    return {b: ParamBlock(b, full[b].values.copy(), full[b].shapes)
            for b in arch.device_blocks(owned)}


@lru_cache(maxsize=16)
def _pick_base(batch: int, classes: int) -> np.ndarray:
    """Flat index of each row's first class score in a (batch, classes) buffer; read-only."""
    base = np.arange(0, batch * classes, classes)
    base.flags.writeable = False
    return base


def _forward_cached(arch: ArchSpec, params: Mapping[int, ParamBlock],
                    features: Mapping[int, np.ndarray]):
    f = arch.feature_len
    fused = np.zeros((next(iter(features.values())).shape[0], arch.fusion_width))
    enc_cache = {}
    for m, x in features.items():
        w1, b1, w2, b2 = params[m].arrays()
        h = x.dot(w1.T)
        h += b1
        np.tanh(h, out=h)
        feat = fused[:, (m - 1) * f: m * f]
        np.matmul(h, w2.T, out=feat)
        feat += b2
        enc_cache[m] = (x, h)
    arrs = params[arch.shared_block_id].arrays()
    layers = list(zip(arrs[0::2], arrs[1::2]))
    acts = [fused]
    a = fused
    for v, u in layers[:-1]:
        a = a.dot(v.T)
        a += u
        np.tanh(a, out=a)
        acts.append(a)
    scores = a.dot(arrs[-2].T)
    scores += arrs[-1]
    if not np.logical_and.reduce(np.isfinite(scores), axis=None):
        raise NumericOverflowError("non-finite class scores")
    return scores, enc_cache, layers, acts


def forward_batch(arch: ArchSpec, params: Mapping[int, ParamBlock],
                  features: Mapping[int, np.ndarray]) -> np.ndarray:
    """Class scores, shape (B, C)."""
    scores, _, _, _ = _forward_cached(arch, params, features)
    return scores


def loss_and_grad(arch: ArchSpec, params: Mapping[int, ParamBlock],
                  features: Mapping[int, np.ndarray], labels: np.ndarray,
                  out: Mapping[int, ParamBlock]) -> tuple[float, dict[int, np.ndarray]]:
    """Mean softmax cross-entropy over the batch and its exact gradient.

    The log-sum-exp is computed with max subtraction, so large scores do not
    overflow. The gradient maps each block of params to one flat array laid
    out like that block's values, written in place through the layer views of
    `out`, a workspace of gradient blocks covering params: the arrays returned
    are its `values`, overwritten by the next call into it. Not re-checked
    here: the features are float64 (B, d_m) arrays, B >= 1, for exactly the
    modality blocks of params, and labels holds B ints in 0..C-1. Non-finite
    class scores raise NumericOverflowError.
    """
    scores, enc_cache, layers, acts = _forward_cached(arch, params, features)
    batch = scores.shape[0]

    # each row's label entry, as an index into the flat (B*C) score buffer
    picks = _pick_base(batch, arch.num_classes) + labels
    shifted = scores  # the scores are not returned, so they are shifted in place
    shifted -= np.maximum.reduce(scores, axis=1, keepdims=True)
    log_norm = np.log(np.add.reduce(np.exp(shifted), axis=1))
    flat = shifted.reshape(-1)
    loss = float(-(np.add.reduce(flat[picks] - log_norm) / batch))

    shifted -= log_norm[:, None]
    d = np.exp(shifted, out=shifted)
    flat[picks] -= 1.0
    d /= batch

    gviews = out[arch.shared_block_id].arrays()
    d.T.dot(acts[-1], out=gviews[-2])
    np.add.reduce(d, axis=0, out=gviews[-1])
    d = d.dot(layers[-1][0])
    for i in range(len(layers) - 2, -1, -1):
        a = acts[i + 1]
        d *= 1.0 - a * a
        d.T.dot(acts[i], out=gviews[2 * i])
        np.add.reduce(d, axis=0, out=gviews[2 * i + 1])
        d = d.dot(layers[i][0])

    f = arch.feature_len
    for m, (x, h) in enc_cache.items():
        w2 = params[m].arrays()[2]
        gw1, gb1, gw2, gb2 = out[m].arrays()
        dfeat = d[:, (m - 1) * f: m * f]
        dfeat.T.dot(h, out=gw2)
        np.add.reduce(dfeat, axis=0, out=gb2)
        dpre = dfeat.dot(w2)
        dpre *= 1.0 - h * h
        dpre.T.dot(x, out=gw1)
        np.add.reduce(dpre, axis=0, out=gb1)
    return loss, {b: out[b].values for b in params}


def sgd_step(params: Mapping[int, ParamBlock], grad: Mapping[int, np.ndarray], eta: float) -> None:
    """One plain gradient step, in place: each block's values -= eta * grad[block].

    grad has exactly the blocks of params, each as long as its block, as
    `loss_and_grad` returns it; that is not re-checked. A step that leaves a
    block non-finite raises NumericOverflowError.
    """
    for b, p in params.items():
        values = p.values
        values -= eta * grad[b]
        if not np.logical_and.reduce(np.isfinite(values)):
            raise NumericOverflowError(f"block {b} holds non-finite values")


def flops_per_iteration(arch: ArchSpec, owned: Sequence[int], batch_size: int) -> dict[int, int]:
    """Per-block FLOPs of one training iteration at the given batch size."""
    return {b: FLOPS_PER_PARAM * arch.block_param_count(b) * batch_size
            for b in arch.device_blocks(owned)}
