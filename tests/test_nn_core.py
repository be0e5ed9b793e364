import copy
import dataclasses

import numpy as np
import pytest

from fmmlsim import nn_core
from fmmlsim.errors import NumericOverflowError, ShapeMismatchError
from fmmlsim.nn_core import (ArchSpec, ParamBlock,
                             forward_batch, loss_and_grad, sgd_step,
                             flops_per_iteration,
                             init_full_params, slice_device_params)
from forms import zero_grads


def toy_arch():
    return ArchSpec(input_dims=(3, 4), encoder_hidden=5, feature_len=2,
                    classifier_hidden=(4,), num_classes=6)


def zero_params(arch, owned):
    blocks = {}
    for b in arch.device_blocks(owned):
        shapes = arch.block_shapes(b)
        blocks[b] = ParamBlock(b, np.zeros(arch.block_param_count(b)), shapes)
    return blocks


def random_params(arch, owned, seed=0):
    full = init_full_params(arch, np.random.default_rng(seed))
    return slice_device_params(full, owned, arch)


def one_row(sample):
    """A single sample as a batch of one."""
    return {m: np.asarray(x, dtype=float).reshape(1, -1) for m, x in sample.items()}


def random_features(arch, owned, batch, rng):
    return {m: rng.normal(size=(batch, arch.input_dims[m - 1])) for m in owned}


def test_zero_params_give_zero_scores():
    arch = toy_arch()
    params = zero_params(arch, (1, 2))
    sample = {1: np.ones(3), 2: np.ones(4)}
    assert np.array_equal(forward_batch(arch, params, one_row(sample))[0], np.zeros(6))


def test_near_identity_composition_returns_sample():
    # tanh is locally linear around zero: scale down into the hidden layer and
    # back up on the way out, so the encoder acts as identity up to O(eps^2)
    eps = 1e-4
    arch = ArchSpec(input_dims=(2,), encoder_hidden=2, feature_len=2,
                    classifier_hidden=(), num_classes=2)
    w1 = eps * np.eye(2)
    w2 = np.eye(2) / eps
    enc = np.concatenate([w1.ravel(), np.zeros(2), w2.ravel(), np.zeros(2)])
    head = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
    params = {1: ParamBlock(1, enc, arch.block_shapes(1)),
              2: ParamBlock(2, head, arch.block_shapes(2))}
    sample = np.array([0.37, -0.52])
    np.testing.assert_allclose(forward_batch(arch, params, one_row({1: sample}))[0], sample,
                               atol=1e-6)


def test_forward_matches_independent_dense_oracle():
    arch = toy_arch()
    params = random_params(arch, (1, 2), seed=0)
    rng = np.random.default_rng(7)
    sample = {1: rng.normal(size=3), 2: rng.normal(size=4)}

    # hand-rolled per-layer oracle, no shared code with the implementation
    def dense(x, w, b):
        out = np.zeros(w.shape[0])
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * x[j]
            out[i] = acc
        return out

    feats = []
    for m in (1, 2):
        w1, b1, w2, b2 = params[m].arrays()
        feats.append(dense(np.tanh(dense(sample[m], w1, b1)), w2, b2))
    fused = np.concatenate(feats)
    v1, u1, v2, u2 = params[3].arrays()
    expected = dense(np.tanh(dense(fused, v1, u1)), v2, u2)
    np.testing.assert_allclose(forward_batch(arch, params, one_row(sample))[0], expected,
                               rtol=1e-12)


def test_uniform_scores_give_log_c_loss():
    arch = toy_arch()
    params = zero_params(arch, (1, 2))
    rng = np.random.default_rng(0)
    feats = random_features(arch, (1, 2), 8, rng)
    loss, _ = loss_and_grad(arch, params, feats, rng.integers(0, 6, size=8),
                            out=zero_grads(params))
    assert loss == pytest.approx(np.log(6.0), rel=1e-12)


def central_difference_grad(arch, params, feats, labels, step=1e-4):
    fd = {}
    for b, block in params.items():
        g = np.zeros_like(block.values)
        for i in range(block.values.shape[0]):
            for sign in (1.0, -1.0):
                vals = block.values.copy()
                vals[i] += sign * step
                shifted = {bb: (ParamBlock(bb, vals, block.shapes) if bb == b else pb)
                           for bb, pb in params.items()}
                loss, _ = loss_and_grad(arch, shifted, feats, labels, out=zero_grads(shifted))
                g[i] += sign * loss / (2.0 * step)
        fd[b] = g
    return fd


def test_gradient_matches_finite_differences():
    # compact net, about 50 parameters
    arch = ArchSpec(input_dims=(2, 2), encoder_hidden=2, feature_len=2,
                    classifier_hidden=(), num_classes=3)
    params = random_params(arch, (1, 2), seed=1)
    rng = np.random.default_rng(2)
    feats = random_features(arch, (1, 2), 6, rng)
    labels = rng.integers(0, 3, size=6)
    _, grad = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
    fd = central_difference_grad(arch, params, feats, labels)
    for b in params:
        an = grad[b]
        keep = np.abs(an) > 1e-6
        rel = np.abs(fd[b][keep] - an[keep]) / np.abs(an[keep])
        assert rel.max() < 1e-4


def test_gradient_check_random_small_nets():
    # property-style sweep over nets of up to ~200 parameters
    rng = np.random.default_rng(5)
    for trial in range(4):
        arch = ArchSpec(
            input_dims=tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 3)))),
            encoder_hidden=int(rng.integers(1, 4)), feature_len=int(rng.integers(1, 4)),
            classifier_hidden=(int(rng.integers(1, 4)),), num_classes=int(rng.integers(2, 5)))
        owned = tuple(range(1, arch.num_modalities + 1))
        params = random_params(arch, owned, seed=trial)
        feats = random_features(arch, owned, 4, rng)
        labels = rng.integers(0, arch.num_classes, size=4)
        _, grad = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
        fd = central_difference_grad(arch, params, feats, labels)
        for b in params:
            an = grad[b]
            keep = np.abs(an) > 1e-6
            if keep.any():
                rel = np.abs(fd[b][keep] - an[keep]) / np.abs(an[keep])
                assert rel.max() < 1e-4


def test_duplicated_batch_leaves_loss_and_grad_unchanged():
    arch = toy_arch()
    params = random_params(arch, (1, 2), seed=3)
    rng = np.random.default_rng(4)
    feats = random_features(arch, (1, 2), 5, rng)
    labels = rng.integers(0, 6, size=5)
    loss1, grad1 = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
    doubled = {m: np.concatenate([x, x]) for m, x in feats.items()}
    loss2, grad2 = loss_and_grad(arch, params, doubled, np.concatenate([labels, labels]),
                                 out=zero_grads(params))
    assert loss1 == pytest.approx(loss2, rel=1e-12)
    for b in grad1:
        np.testing.assert_allclose(grad1[b], grad2[b], atol=1e-14)


def test_loss_nonnegative_and_deterministic():
    arch = toy_arch()
    params = random_params(arch, (1, 2), seed=6)
    rng = np.random.default_rng(8)
    feats = random_features(arch, (1, 2), 16, rng)
    labels = rng.integers(0, 6, size=16)
    loss1, grad1 = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
    loss2, grad2 = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
    assert loss1 >= 0.0
    assert loss1 == loss2
    for b in grad1:
        assert np.array_equal(grad1[b], grad2[b])


def test_sgd_step_arithmetic():
    arch = ArchSpec(input_dims=(1,), encoder_hidden=1, feature_len=1,
                    classifier_hidden=(), num_classes=2)
    shapes = ((2,),)
    p = {1: ParamBlock(1, np.array([1.0, 2.0]), shapes),
         2: ParamBlock(2, np.zeros(2), shapes)}
    g = {1: np.array([0.5, -1.0]), 2: np.zeros(2)}
    sgd_step(p, g, 0.1)
    np.testing.assert_allclose(p[1].values, [0.95, 2.1])
    assert arch.num_classes == 2  # keep arch referenced


def test_sgd_zero_grad_and_two_step_linearity():
    arch = toy_arch()
    params = random_params(arch, (1,), seed=9)
    zero = {b: np.zeros_like(p.values) for b, p in params.items()}
    unchanged = copy.deepcopy(params)
    sgd_step(unchanged, zero, 0.3)
    for b in params:
        np.testing.assert_array_equal(unchanged[b].values, params[b].values)

    rng = np.random.default_rng(10)
    g1 = {b: rng.normal(size=p.values.shape) for b, p in params.items()}
    g2 = {b: rng.normal(size=p.values.shape) for b, p in params.items()}
    gsum = {b: g1[b] + g2[b] for b in g1}
    two, one = copy.deepcopy(params), copy.deepcopy(params)
    sgd_step(two, g1, 0.05)
    sgd_step(two, g2, 0.05)
    sgd_step(one, gsum, 0.05)
    for b in params:
        np.testing.assert_allclose(two[b].values, one[b].values, atol=1e-15)


@pytest.mark.parametrize("value, step", [(1e308, -1e308), (0.0, np.inf), (0.0, np.nan)])
def test_sgd_step_raises_when_a_step_leaves_a_value_non_finite(value, step):
    shapes = ((2,),)
    params = {1: ParamBlock(1, np.array([value, 1.0]), shapes),
              2: ParamBlock(2, np.zeros(2), shapes)}
    grad = {1: np.array([step, 0.0]), 2: np.zeros(2)}
    with np.errstate(over="ignore"), pytest.raises(NumericOverflowError, match="block 1"):
        sgd_step(params, grad, 10.0)


def test_flops_per_iteration():
    arch = toy_arch()
    # formula check: 6 * params * batch
    counts = {b: arch.block_param_count(b) for b in (1, 2, 3)}
    flops = flops_per_iteration(arch, (1, 2), 1)
    assert flops == {b: 6 * counts[b] for b in (1, 2, 3)}
    double = flops_per_iteration(arch, (1, 2), 2)
    assert all(double[b] == 2 * flops[b] for b in flops)
    # hand count for the toy architecture: encoder 1 is 5x3+5 + 2x5+2 = 32 params
    assert counts[1] == 5 * 3 + 5 + 2 * 5 + 2
    assert counts[2] == 5 * 4 + 5 + 2 * 5 + 2
    assert counts[3] == 4 * 4 + 4 + 6 * 4 + 6  # fused width 4 -> hidden 4 -> 6
    assert flops[1] == 6 * 32


@pytest.mark.parametrize("owned, blocks", [((3, 1), (1, 3, 4)), ((2,), (2, 4)),
                                           ((1, 2, 3), (1, 2, 3, 4))])
def test_three_modalities_key_flops_and_device_params_by_the_device_blocks(owned, blocks):
    arch = ArchSpec(input_dims=(3, 4, 2), encoder_hidden=5, feature_len=2,
                    classifier_hidden=(4,), num_classes=6)
    assert arch.device_blocks(owned) == blocks
    assert tuple(flops_per_iteration(arch, owned, 2)) == blocks
    full = init_full_params(arch, np.random.default_rng(0))
    assert tuple(slice_device_params(full, owned, arch)) == blocks


def test_flops_simple_example():
    arch = ArchSpec(input_dims=(9,), encoder_hidden=5, feature_len=5,
                    classifier_hidden=(), num_classes=5)
    # encoder block: 5*9+5 + 5*5+5 = 80 params... construct a 100-param block
    # via the head: fused 5 -> 5 classes: 5*5+5 = 30. Check formula directly:
    flops = flops_per_iteration(arch, (1,), 1)
    assert flops[1] == 6 * arch.block_param_count(1)
    assert flops[2] == 6 * 30


def test_structure_preserved_by_sgd():
    arch = toy_arch()
    params = random_params(arch, (1, 2), seed=12)
    rng = np.random.default_rng(13)
    feats = random_features(arch, (1, 2), 4, rng)
    _, grad = loss_and_grad(arch, params, feats, rng.integers(0, 6, size=4),
                            out=zero_grads(params))
    out = copy.deepcopy(params)
    sgd_step(out, grad, 0.01)
    assert set(out) == set(params)
    for b in out:
        assert out[b].shapes == params[b].shapes
        assert out[b].param_count == params[b].param_count


def test_forward_batch_agrees_with_single():
    arch = toy_arch()
    params = random_params(arch, (1, 2), seed=14)
    rng = np.random.default_rng(15)
    feats = random_features(arch, (1, 2), 3, rng)
    batched = forward_batch(arch, params, feats)
    for i in range(3):
        single = forward_batch(arch, params, one_row({m: feats[m][i] for m in feats}))
        np.testing.assert_allclose(batched[i], single[0], atol=1e-14)


def test_param_block_rejects_wrong_length_non_vector_and_non_finite_values():
    shapes = ((2, 3), (2,))
    ParamBlock(1, np.zeros(8), shapes)
    for bad_len in (7, 9):
        with pytest.raises(ShapeMismatchError):
            ParamBlock(1, np.zeros(bad_len), shapes)
    with pytest.raises(ShapeMismatchError):
        ParamBlock(1, np.zeros((2, 4)), shapes)
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros(8)
        vals[5] = bad
        with pytest.raises(NumericOverflowError):
            ParamBlock(1, vals, shapes)


def test_param_block_views_accept_every_shapes_value_a_block_takes():
    # a matrix, a vector and a scalar layer: the views cut 0:6, 6:8 and 8:9
    block = ParamBlock(1, np.arange(9.0), ((2, 3), (2,), ()))
    w, bias, scale = block.arrays()
    assert (w.shape, bias.shape, scale.shape) == ((2, 3), (2,), ())
    assert np.array_equal(w.ravel(), np.arange(6.0))
    assert np.array_equal(bias, [6.0, 7.0]) and scale == 8.0
    assert all(np.shares_memory(a, block.values) for a in block.arrays())
    assert ParamBlock(1, np.zeros(0), ()).arrays() == ()
    with pytest.raises(ShapeMismatchError, match="shapes imply 9"):
        ParamBlock(1, np.zeros(8), ((2, 3), (2,), ()))


@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
def test_param_block_views_partition_every_block(hidden):
    arch = ArchSpec(input_dims=(5, 7, 3), encoder_hidden=6, feature_len=4,
                    classifier_hidden=hidden, num_classes=5)
    full = init_full_params(arch, np.random.default_rng(0))
    for b in range(1, arch.shared_block_id + 1):
        arrays = full[b].arrays()
        assert [a.shape for a in arrays] == list(arch.block_shapes(b))
        assert sum(a.size for a in arrays) == arch.block_param_count(b)
        # the views tile values in storage order, with no gap or overlap
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), full[b].values)
        assert all(np.shares_memory(a, full[b].values) for a in arrays)


def test_arrays_are_writable_views_of_values():
    block = ParamBlock(1, np.zeros(8), ((2, 3), (2,)))
    w, bias = block.arrays()
    w[0, 0] = 5.0
    bias[1] = -2.0
    assert block.values[0] == 5.0
    assert block.values[7] == -2.0


def concatenated_loss_and_grad(arch, params, features, labels):
    """Reference gradient assembly: each layer's gradient is computed on its
    own and the block is packed with np.concatenate."""
    labels = np.asarray(labels)
    scores, enc_cache, layers, acts = nn_core._forward_cached(arch, params, features)
    batch = scores.shape[0]
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float(-(shifted[np.arange(batch), labels] - log_norm).mean())
    d = np.exp(shifted - log_norm[:, None])
    d[np.arange(batch), labels] -= 1.0
    d /= batch
    grads_head = [None] * (2 * len(layers))
    grads_head[-2] = d.T @ acts[-1]
    grads_head[-1] = d.sum(axis=0)
    d = d @ layers[-1][0]
    for i in range(len(layers) - 2, -1, -1):
        d = d * (1.0 - acts[i + 1] * acts[i + 1])
        grads_head[2 * i] = d.T @ acts[i]
        grads_head[2 * i + 1] = d.sum(axis=0)
        d = d @ layers[i][0]
    f = arch.feature_len
    head = arch.shared_block_id
    grads = {head: np.concatenate([g.ravel() for g in grads_head])}
    for m in sorted(params.keys() - {head}):
        _, _, w2, _ = params[m].arrays()
        x, h = enc_cache[m]
        dfeat = d[:, (m - 1) * f: m * f]
        gw2 = dfeat.T @ h
        gb2 = dfeat.sum(axis=0)
        dpre = (dfeat @ w2) * (1.0 - h * h)
        gw1 = dpre.T @ x
        gb1 = dpre.sum(axis=0)
        grads[m] = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])
    return loss, grads


@pytest.mark.parametrize("owned", [(2,), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
def test_loss_and_grad_is_bit_identical_to_concatenated_assembly(owned, hidden):
    # two class counts at the same batch sizes, back to back in one process:
    # a kernel cache keyed on too little hands the second the first's entry
    for classes in (6, 3):
        arch = ArchSpec(input_dims=(16, 24, 12), encoder_hidden=16, feature_len=8,
                        classifier_hidden=hidden, num_classes=classes)
        params = random_params(arch, owned, seed=len(owned))
        rng = np.random.default_rng(21)
        for batch in (1, 32):
            feats = random_features(arch, owned, batch, rng)
            labels = rng.integers(0, arch.num_classes, size=batch)
            loss, grad = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
            ref_loss, ref_grad = concatenated_loss_and_grad(arch, params, feats, labels)
            assert loss == ref_loss
            assert set(grad) == set(ref_grad)
            for b, g in ref_grad.items():
                assert np.array_equal(grad[b], g)


def matmul_forward(arch, params, features):
    """Reference forward pass: every product through `@`, no buffer reused."""
    f = arch.feature_len
    batch = len(next(iter(features.values())))
    fused = np.zeros((batch, arch.fusion_width))
    head = arch.shared_block_id
    for m in sorted(params.keys() - {head}):
        w1, b1, w2, b2 = params[m].arrays()
        h = np.tanh(features[m] @ w1.T + b1)
        fused[:, (m - 1) * f: m * f] = h @ w2.T + b2
    arrs = params[head].arrays()
    a = fused
    for v, u in zip(arrs[0:-2:2], arrs[1:-2:2]):
        a = np.tanh(a @ v.T + u)
    return a @ arrs[-2].T + arrs[-1]


@pytest.mark.parametrize("owned", [(2,), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
def test_forward_batch_is_bit_identical_to_matmul_reference(owned, hidden):
    for classes in (6, 3):  # two class counts at the same batch sizes, as above
        arch = ArchSpec(input_dims=(16, 24, 12), encoder_hidden=16, feature_len=8,
                        classifier_hidden=hidden, num_classes=classes)
        params = random_params(arch, owned, seed=len(owned) + 7)
        rng = np.random.default_rng(22)
        for p in params.values():  # nonzero biases too
            p.values[:] += rng.normal(scale=0.3, size=p.values.shape)
        for batch in (1, 32, 60):
            feats = random_features(arch, owned, batch, rng)
            scores = forward_batch(arch, params, feats)
            want = matmul_forward(arch, params, feats)
            assert scores.shape == (batch, arch.num_classes)
            assert scores.tobytes() == want.tobytes()


def test_arrays_returns_the_views_built_with_the_block():
    block = random_params(toy_arch(), (1,))[1]
    first, again = block.arrays(), block.arrays()
    assert len(first) == len(block.shapes)
    assert all(a is b for a, b in zip(first, again))
    assert all(np.shares_memory(a, block.values) for a in first)


def test_views_of_a_deep_copy_follow_the_copy_not_the_original():
    arch = toy_arch()
    owned = (1, 2)
    params = random_params(arch, owned, seed=3)
    before = {b: p.values.copy() for b, p in params.items()}
    rng = np.random.default_rng(4)
    feats = random_features(arch, owned, 8, rng)
    labels = rng.integers(0, arch.num_classes, size=8)
    clone = copy.deepcopy(params)
    for b, p in clone.items():
        assert all(np.shares_memory(a, p.values) for a in p.arrays())
        assert not any(np.shares_memory(a, params[b].values) for a in p.arrays())
    _, grad = loss_and_grad(arch, clone, feats, labels, out=zero_grads(clone))
    sgd_step(clone, grad, 0.5)
    for b, p in clone.items():
        assert all(np.shares_memory(a, p.values) for a in p.arrays())
    fresh = {b: ParamBlock(b, p.values.copy(), p.shapes) for b, p in clone.items()}
    loss, grad = loss_and_grad(arch, clone, feats, labels, out=zero_grads(clone))
    ref_loss, ref_grad = loss_and_grad(arch, fresh, feats, labels, out=zero_grads(fresh))
    assert loss == ref_loss
    for b in fresh:
        assert np.array_equal(grad[b], ref_grad[b])
    for b, p in params.items():
        assert np.array_equal(p.values, before[b])
        assert np.array_equal(np.concatenate([a.ravel() for a in p.arrays()]), before[b])


@pytest.mark.parametrize("rebind", ["new array", "other half of the same buffer"])
def test_values_cannot_be_rebound(rebind):
    arch = toy_arch()
    shapes = arch.block_shapes(1)
    n = arch.block_param_count(1)
    buffer = np.arange(2.0 * n)
    block = ParamBlock(1, buffer[:n], shapes)
    views = block.arrays()
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.values = block.values + 1.0 if rebind == "new array" else buffer[n:]
    assert np.shares_memory(block.values, buffer[:n])
    assert block.arrays() is views
    assert np.array_equal(np.concatenate([a.ravel() for a in views]), np.arange(float(n)))


def dirty_workspace(arch):
    """One gradient block per block id of arch, filled with a value no gradient holds."""
    return {b: ParamBlock(b, np.full(arch.block_param_count(b), 7.5), arch.block_shapes(b))
            for b in range(1, arch.shared_block_id + 1)}


@pytest.mark.parametrize("owned", [(2,), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
def test_loss_and_grad_into_a_workspace_matches_the_fresh_path(owned, hidden):
    arch = ArchSpec(input_dims=(16, 24, 12), encoder_hidden=16, feature_len=8,
                    classifier_hidden=hidden, num_classes=6)
    params = random_params(arch, owned, seed=len(owned))
    out = dirty_workspace(arch)
    rng = np.random.default_rng(33)
    for batch in (32, 1):  # the second call must overwrite every value of the first
        feats = random_features(arch, owned, batch, rng)
        labels = rng.integers(0, arch.num_classes, size=batch)
        loss, grad = loss_and_grad(arch, params, feats, labels, out=out)
        fresh_loss, fresh = loss_and_grad(arch, params, feats, labels, out=zero_grads(params))
        ref_loss, ref = concatenated_loss_and_grad(arch, params, feats, labels)
        assert loss == fresh_loss == ref_loss
        assert list(grad) == list(params)
        for b in params:
            assert grad[b] is out[b].values
            assert not np.shares_memory(fresh[b], out[b].values)
            assert np.array_equal(grad[b], fresh[b])
            assert np.array_equal(grad[b], ref[b])


def test_a_device_with_fewer_modalities_gets_only_its_own_blocks_from_a_shared_workspace():
    arch = ArchSpec(input_dims=(16, 24, 12), encoder_hidden=16, feature_len=8,
                    classifier_hidden=(16,), num_classes=6)
    out = dirty_workspace(arch)
    rng = np.random.default_rng(5)
    wide = random_params(arch, (1, 2, 3), seed=1)
    feats = random_features(arch, (1, 2, 3), 8, rng)
    labels = rng.integers(0, arch.num_classes, size=8)
    sgd_step(wide, loss_and_grad(arch, wide, feats, labels, out=out)[1], 0.1)

    narrow = random_params(arch, (2,), seed=2)
    twin = copy.deepcopy(narrow)
    feats = random_features(arch, (2,), 8, rng)
    labels = rng.integers(0, arch.num_classes, size=8)
    _, grad = loss_and_grad(arch, narrow, feats, labels, out=out)
    assert list(grad) == [2, arch.shared_block_id]
    sgd_step(narrow, grad, 0.1)
    sgd_step(twin, loss_and_grad(arch, twin, feats, labels, out=zero_grads(twin))[1], 0.1)
    for b in narrow:
        assert np.array_equal(narrow[b].values, twin[b].values)
