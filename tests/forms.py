"""Call forms the round does not use, built for tests from the forms it does.

`nn_core.loss_and_grad` writes into a caller's gradient workspace,
`aggregation.effective_rows` returns the rows of given owner ids, and
`aggregation.softmax_row` takes one participant mask for all its rows.
Tests that want fresh gradient arrays, a block's whole weight matrix or a
mask per row build them here, and so do the writer tests that want a
`RoundLog` no round produced.
"""

import numpy as np

from fmmlsim.aggregation import effective_rows, softmax_row
from fmmlsim.nn_core import ParamBlock
from fmmlsim.orchestrator import RoundLog


def zero_grads(params):
    """A zeroed gradient workspace over `params`: one block per block, laid out alike."""
    return {b: ParamBlock(b, np.zeros(p.param_count), p.shapes) for b, p in params.items()}


def owner_matrix(state, block, owners):
    """The (K, K) structural weight matrix of `block`: each owner's
    `effective_rows` row, and zero rows for devices that do not own it."""
    out = np.zeros_like(state.raw[block])
    out[owners] = effective_rows(state, block, owners, np.flatnonzero(owners))
    return out


def softmax_rows(raw_rows, masks):
    """`softmax_row` with one participant mask per row: each row's own call, stacked."""
    return np.array([softmax_row(row, mask) for row, mask in zip(raw_rows, masks)])


def synthetic_log(round_, record=None, metric_values=None):
    """A 4-device RoundLog with what the schedule and coefficient writers
    read filled in; the other fields are zeros. The coefficient writer reads
    only `round` and `coeff_record`, so a record may span any device count."""
    zeros = np.zeros(4)
    return RoundLog(round=round_, gains=zeros, t_download=zeros, t_compute=zeros,
                    t_upload=zeros, round_time=0.0,
                    scheduled={1: np.array([1, 0, 1, 0], dtype=np.int8)},
                    staleness={1: np.array([0, 3, 0, 1])}, metric_values=metric_values or {},
                    train_loss=zeros, test_accuracy=zeros, mean_accuracy=0.0,
                    weight_rows_used=[], coeff_record=record)
