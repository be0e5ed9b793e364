"""Small multi-modal dense networks with hand-written gradients.

Each device trains one encoder per modality it owns plus a classifier head
shared by every device. Parameters live in flat per-block vectors (one block
per modality encoder, one for the head), so blocks can be shipped, averaged
and diffed without caring about layer layout; a device's model is a plain
dict of blocks, keyed as `ArchSpec.device_blocks` lists them. A block
vector may be a row view of a larger array that stacks one block for many
devices. A `ParamBlock` checks its vector and cuts its layer views from its
shapes once, when it is built.

Every block, encoder or head, runs one dense stack forward and back: tanh
after every layer but the last, whose output an encoder writes into its
slot of the fused features and the head into fresh class scores. The head
reads all modality slots; those of modalities a device does not own stay
zero, so the head block has one shape on every device. A call reads the
batch and each block's layer views once and writes only arrays it
allocates, plus, in `loss_and_grad`, the views of a workspace of gradient
blocks; `sgd_step` updates the block vectors in place. A matrix product
whose output is contiguous calls `a.dot(b)`, the cheapest BLAS call at these
sizes; the rest use `np.matmul(..., out=)`. The kernel trusts what set-up
fixes before round 1 (each device's block set, each modality's feature
width and the label range) and checks only for non-finite values.
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


def _dense_forward(x: np.ndarray, views: Sequence[np.ndarray],
                   out: np.ndarray | None = None) -> list[np.ndarray]:
    """One block's dense stack on the batch x through its layer views: the
    last layer writes into `out`, or a fresh array. Returns each layer's
    input, then the output."""
    acts = [x]
    for i in range(0, len(views) - 2, 2):
        x = x.dot(views[i].T)
        x += views[i + 1]
        np.tanh(x, out=x)
        acts.append(x)
    out = x.dot(views[-2].T) if out is None else np.matmul(x, views[-2].T, out=out)
    out += views[-1]
    acts.append(out)
    return acts


def _dense_backward(d: np.ndarray, views: Sequence[np.ndarray], acts: Sequence[np.ndarray],
                    grads: Sequence[np.ndarray], input_grad: bool = False) -> np.ndarray | None:
    """Write one block's gradient views from d, the loss gradient at its
    output, and the views and layer inputs of its `_dense_forward`; returns
    the gradient at its input if `input_grad`."""
    for i in range(len(views) - 2, 0, -2):
        a = acts[i // 2]
        d.T.dot(a, out=grads[i])
        np.add.reduce(d, axis=0, out=grads[i + 1])
        d = d.dot(views[i])
        d *= 1.0 - a * a
    d.T.dot(acts[0], out=grads[0])
    np.add.reduce(d, axis=0, out=grads[1])
    return d.dot(views[0]) if input_grad else None


def _forward(arch: ArchSpec, params: Mapping[int, ParamBlock],
             features: Mapping[int, np.ndarray]):
    """Class scores and one (block id, layer views, layer inputs) per block,
    the encoders in the order of `features`, then the head."""
    f = arch.feature_len
    fused = np.zeros((next(iter(features.values())).shape[0], arch.fusion_width))
    blocks = []
    for m, x in features.items():
        views = params[m].arrays()
        blocks.append((m, views, _dense_forward(x, views, fused[:, (m - 1) * f: m * f])))
    views = params[arch.shared_block_id].arrays()
    acts = _dense_forward(fused, views)
    blocks.append((arch.shared_block_id, views, acts))
    scores = acts[-1]
    if not np.logical_and.reduce(np.isfinite(scores), axis=None):
        raise NumericOverflowError("non-finite class scores")
    return scores, blocks


def forward_batch(arch: ArchSpec, params: Mapping[int, ParamBlock],
                  features: Mapping[int, np.ndarray]) -> np.ndarray:
    """Class scores, shape (B, C)."""
    return _forward(arch, params, features)[0]


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
    scores, blocks = _forward(arch, params, features)
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

    *encoders, (head, views, acts) = blocks
    d = _dense_backward(d, views, acts, out[head].arrays(), input_grad=True)
    f = arch.feature_len
    for m, views, acts in encoders:
        _dense_backward(d[:, (m - 1) * f: m * f], views, acts, out[m].arrays())
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
