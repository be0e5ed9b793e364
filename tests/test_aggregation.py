import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fmmlsim.aggregation import (aggregate, block_owners,
                                 build_round_mask, coeff_grad, coeff_jacobian,
                                 coeff_update, effective_rows,
                                 estimate_block_gradient, init_coeffs,
                                 masked_renormalize, softmax_row)
from fmmlsim.errors import AggregationError
from fmmlsim.nn_core import ArchSpec
from forms import owner_matrix, softmax_rows


def vec_block(values):
    """One flat float64 block vector, as devices upload them."""
    return np.asarray(values, dtype=float)


def stacked(uploads):
    """A device -> upload dict as `aggregate` takes it: ascending uploaders, then their stack U."""
    ks = sorted(uploads)
    return np.array(ks, dtype=np.intp), np.stack([uploads[k] for k in ks])


def all_true(n):
    return np.ones(n, dtype=bool)


def arch_of(num_modalities):
    """The smallest architecture with this many modalities; its head is block M+1."""
    return ArchSpec(input_dims=(1,) * num_modalities, encoder_hidden=1, feature_len=1,
                    classifier_hidden=(), num_classes=2)


# ----------------------------- init -----------------------------

def test_init_uniform():
    state = init_coeffs(9, (1, 2, 3), lr=0.01)
    for b in (1, 2, 3):
        assert np.allclose(state.raw[b], 1.0 / 9)
    assert block_owners([(1, 2)] * 9, arch_of(2))[3].all()


def test_init_single_device():
    state = init_coeffs(1, (1, 2), lr=0.1)
    assert state.raw[1].shape == (1, 1)
    assert state.raw[1][0, 0] == 1.0
    assert softmax_row(state.raw[1][0], all_true(1))[0] == 1.0


def test_init_softmax_row_is_uniform():
    state = init_coeffs(5, (1, 2), lr=0.01)
    np.testing.assert_allclose(softmax_row(state.raw[1][0], all_true(5)), np.full(5, 0.2))


def test_init_respects_ownership():
    owners = block_owners([(1,), (2,), (1, 2)], arch_of(2))
    np.testing.assert_array_equal(owners[1], [True, False, True])
    np.testing.assert_array_equal(owners[2], [False, True, True])
    np.testing.assert_array_equal(owners[3], [True, True, True])


def test_effective_rows_are_owner_softmax_rows():
    state = init_coeffs(3, (1, 2), lr=0.01)
    state.raw[1][0] = [0.5, -2.0, 1.0]
    owners = np.array([True, False, True])
    rows = owner_matrix(state, 1, owners)
    np.testing.assert_array_equal(rows[0], softmax_row(state.raw[1][0], owners))
    np.testing.assert_array_equal(rows[1], np.zeros(3))
    np.testing.assert_allclose(rows[2], [0.5, 0.0, 0.5])
    assert effective_rows(state, 1, owners, np.array([0, 2])).tobytes() == rows[[0, 2]].tobytes()


# ----------------------------- softmax -----------------------------

def test_softmax_equal_inputs():
    np.testing.assert_allclose(
        softmax_row(np.zeros(3), all_true(3)), np.full(3, 1 / 3))


def test_softmax_hand_value():
    out = softmax_row(np.array([np.log(2.0), 0.0, 0.0]), all_true(3))
    np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    row = rng.normal(size=6)
    p = np.array([True, True, False, True, True, False])
    np.testing.assert_allclose(
        softmax_row(row, p), softmax_row(row + 123.456, p), atol=1e-12)


def test_softmax_nonparticipants_zero_and_sum_one():
    row = np.array([5.0, -2.0, 0.4, 3.0])
    p = np.array([True, False, True, False])
    out = softmax_row(row, p)
    assert out[1] == 0.0 and out[3] == 0.0
    assert out.sum() == pytest.approx(1.0)


def test_softmax_no_underflow_when_uploaders_sit_far_below_a_non_uploader():
    # the owner softmax puts exp(-1e6) = 0 on every uploader, so softmax over
    # owners then renormalization over uploaders loses the whole row; the
    # one-stage softmax over the uploaders does not
    raw = np.array([0.0, -1e6, -1e6, -1e6])
    uploaders = np.array([False, True, False, True])
    with pytest.raises(AggregationError):
        masked_renormalize(softmax_row(raw, all_true(4)), uploaders)
    out = softmax_row(raw, uploaders)
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, [0.0, 0.5, 0.0, 0.5])


def test_batched_softmax_matches_owner_softmax_then_mask_renormalization():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        n_rows, k = int(rng.integers(1, 10)), int(rng.integers(1, 96))
        raw = rng.normal(scale=3.0, size=(n_rows, k))
        owners = rng.uniform(size=k) < 0.7
        owners[int(rng.integers(k))] = True
        masks = (rng.uniform(size=(n_rows, k)) < 0.6) & owners
        for i in range(n_rows):
            masks[i, rng.choice(np.flatnonzero(owners))] = True
        batched = softmax_rows(raw, masks)
        for i in range(n_rows):
            ref = masked_renormalize(softmax_row(raw[i], owners), masks[i])
            assert (batched[i][ref == 0.0] == 0.0).all()
            worst = max(worst, np.abs(batched[i] - ref).max())
    assert worst <= 1e-15


def test_batched_softmax_rows_equal_single_row_calls():
    rng = np.random.default_rng(10)
    raw = rng.normal(scale=3.0, size=(7, 40))
    owners = rng.uniform(size=40) < 0.5
    batched = softmax_row(raw, owners)
    for i in range(7):
        np.testing.assert_array_equal(batched[i], softmax_row(raw[i], owners))


# ----------------------------- masking -----------------------------

def test_masked_renormalize_hand_value():
    out = masked_renormalize(np.array([0.5, 0.3, 0.2]), np.array([1, 1, 0]))
    np.testing.assert_allclose(out, [0.625, 0.375, 0.0], atol=1e-12)
    assert out[2] == 0.0  # exact zero, not approximate


def test_masked_renormalize_identity_and_one_hot():
    row = np.array([0.5, 0.3, 0.2])
    np.testing.assert_array_equal(masked_renormalize(row, np.ones(3)), row)
    out = masked_renormalize(row, np.array([0, 1, 0]))
    np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])


def test_masked_renormalize_all_masked_raises():
    with pytest.raises(AggregationError):
        masked_renormalize(np.array([0.5, 0.5]), np.zeros(2))


def test_round_mask_structure():
    ind = np.array([1, 0, 1])
    mask = build_round_mask(ind, all_true(3))
    np.testing.assert_array_equal(mask, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert (np.diag(mask) == 1).all()


# ----------------------------- aggregate -----------------------------

def aggregate_loop(weight_row, uploads):
    """Reference: one weight row at a time, accumulated in ascending device order."""
    total = None
    for k in np.flatnonzero(weight_row > 0.0):
        term = weight_row[k] * uploads[int(k)]
        total = term if total is None else total + term
    return total


def test_aggregate_one_hot_returns_own_upload():
    uploads = {0: vec_block([1.0, 2.0]), 1: vec_block([5.0, -5.0])}
    out = aggregate(np.array([0.0, 1.0])[None], *stacked(uploads))
    np.testing.assert_array_equal(out.aggregated[0], [5.0, -5.0])


def test_aggregate_uniform_equals_mean():
    rng = np.random.default_rng(1)
    uploads = {k: vec_block(rng.normal(size=4)) for k in range(5)}
    out = aggregate(np.full(5, 0.2)[None], *stacked(uploads))
    expected = np.mean([uploads[k] for k in range(5)], axis=0)
    np.testing.assert_allclose(out.aggregated[0], expected, atol=1e-12)


def test_aggregate_hand_value():
    uploads = {0: vec_block([1.0, 1.0]), 1: vec_block([3.0, -1.0])}
    out = aggregate(np.array([0.625, 0.375])[None], *stacked(uploads))
    np.testing.assert_allclose(out.aggregated[0], [1.75, 0.25], atol=1e-12)


def test_aggregate_keeps_the_stack_of_uploads_in_device_order():
    uploads = {3: vec_block([3.0, 3.5]), 1: vec_block([1.0, 1.5])}
    out = aggregate(np.array([[0.0, 0.25, 0.0, 0.75], [0.0, 1.0, 0.0, 0.0]]),
                    *stacked(uploads))
    np.testing.assert_array_equal(out.uploaders, [1, 3])
    np.testing.assert_array_equal(out.U, [[1.0, 1.5], [3.0, 3.5]])
    np.testing.assert_allclose(out.aggregated, [[2.5, 3.0], [1.0, 1.5]], atol=1e-15)


def test_batched_aggregate_matches_the_per_row_loop():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(30):
        k, p = int(rng.integers(2, 96)), int(rng.integers(1, 300))
        active = rng.uniform(size=k) < 0.4
        active[int(rng.integers(k))] = True
        uploads = {int(j): vec_block(rng.normal(size=p)) for j in np.flatnonzero(active)}
        ks = sorted(uploads)
        rows = softmax_row(rng.normal(scale=2.0, size=(len(ks), k)), active)
        out = aggregate(rows, *stacked(uploads))
        for i in range(len(ks)):
            ref = aggregate_loop(rows[i], uploads)
            worst = max(worst, np.abs(out.aggregated[i] - ref).max() / np.abs(ref).max())
    assert worst <= 1e-14


def test_aggregate_keeps_the_given_stack():
    uploaders, U = stacked({0: vec_block([1.0, 2.0]), 2: vec_block([3.0, 4.0])})
    out = aggregate(np.array([0.5, 0.0, 0.5])[None], uploaders, U)
    assert out.U is U
    np.testing.assert_array_equal(out.uploaders, [0, 2])
    np.testing.assert_array_equal(out.aggregated, [[2.0, 3.0]])


# ----------------------------- jacobian -----------------------------

def composed_weights(raw_row, mask_row, participants):
    return masked_renormalize(softmax_row(raw_row, participants), mask_row)


def fd_jacobian(raw_row, mask_row, participants, step=1e-5):
    n = raw_row.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        plus, minus = raw_row.copy(), raw_row.copy()
        plus[i] += step
        minus[i] -= step
        out[:, i] = (composed_weights(plus, mask_row, participants)
                     - composed_weights(minus, mask_row, participants)) / (2 * step)
    return out


def test_jacobian_uniform_two_devices_closed_form():
    jac = coeff_jacobian(np.zeros(2), np.ones(2), all_true(2))
    np.testing.assert_allclose(jac, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_jacobian_column_sums_zero():
    rng = np.random.default_rng(2)
    row = rng.normal(size=5)
    mask = np.array([1, 1, 0, 1, 1])
    jac = coeff_jacobian(row, mask, all_true(5))
    assert np.abs(jac.sum(axis=0)).max() < 1e-12


def test_jacobian_masked_rows_zero():
    rng = np.random.default_rng(3)
    row = rng.normal(size=4)
    mask = np.array([1, 0, 1, 0])
    jac = coeff_jacobian(row, mask, all_true(4))
    assert np.abs(jac[1]).max() == 0.0
    assert np.abs(jac[3]).max() == 0.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        row = rng.normal(size=n)
        participants = rng.uniform(size=n) < 0.8
        participants[int(rng.integers(n))] = True
        mask = (rng.uniform(size=n) < 0.7).astype(int)
        mask[participants.argmax()] = 1
        if not (mask * participants).any():
            mask[np.flatnonzero(participants)[0]] = 1
        jac = coeff_jacobian(row, mask, participants)
        fd = fd_jacobian(row, mask, participants)
        scale = max(np.abs(jac).max(), 1e-12)
        assert np.abs(fd - jac).max() / scale < 1e-6


# ----------------------------- gradient estimate -----------------------------

def test_estimate_identities():
    w = vec_block([1.0, 2.0, 3.0])
    same = estimate_block_gradient(w, w, 0.1, 4, mode="descent_normalized")
    np.testing.assert_array_equal(same, np.zeros(3))
    # one exact step recovers the gradient
    g = np.array([0.5, -0.25, 1.0])
    w_new = vec_block(w - 0.1 * g)
    est = estimate_block_gradient(w, w_new, 0.1, 1, mode="descent_normalized")
    np.testing.assert_allclose(est, g, atol=1e-12)


def test_estimate_quadratic_model():
    # F(w) = 0.5 * ||w - a||^2, exact gradient at the start is w0 - a
    rng = np.random.default_rng(5)
    a = rng.normal(size=6)
    w0 = rng.normal(size=6)
    eta, iters = 0.02, 5
    w = w0.copy()
    for _ in range(iters):
        w = w - eta * (w - a)
    est = estimate_block_gradient(vec_block(w0), vec_block(w), eta, iters,
                                  mode="descent_normalized")
    true = w0 - a
    assert np.abs(est - true).max() / np.abs(true).max() < 0.10


def test_estimate_raw_delta_mode():
    w0, w1 = vec_block([1.0, 1.0]), vec_block([0.0, 3.0])
    est = estimate_block_gradient(w0, w1, 0.1, 2, mode="raw_delta")
    np.testing.assert_array_equal(est, [-1.0, 2.0])


# ----------------------------- weight-row gradient -----------------------------

def entry_for(raw_row, mask_row, participants, uploads):
    """One device's cached aggregation: its row is the softmax over participants and mask."""
    allowed = np.asarray(participants, dtype=bool) & (np.asarray(mask_row) > 0)
    return aggregate(softmax_row(raw_row, allowed)[None],
                     *stacked({k: vec_block(v) for k, v in uploads.items()}))


def grad_row(entry, i, g):
    """coeff_grad for the single device `entry.uploaders[i]` with gradient estimate g."""
    return coeff_grad(entry, np.array([i]), g[None])[0]


def test_coeff_grad_zero_gradient():
    entry = entry_for(np.zeros(2), np.ones(2), all_true(2),
                      {0: np.array([1.0]), 1: np.array([2.0])})
    np.testing.assert_array_equal(grad_row(entry, 0, vec_block([0.0])), np.zeros(2))


def test_coeff_grad_scalar_hand_value():
    # two devices, scalar block, uniform weights; uploads 0 and 2, so the
    # aggregate sits at 1. Loss gradient g at the aggregate gives row
    # entries -+0.5 * g * (upload spread)
    entry = entry_for(np.zeros(2), np.ones(2), all_true(2),
                      {0: np.array([0.0]), 1: np.array([2.0])})
    g = 0.7
    row = grad_row(entry, 0, vec_block([g]))
    # jacobian [[.25,-.25],[-.25,.25]], inner products [0, 2g]
    np.testing.assert_allclose(row, [-0.5 * g, 0.5 * g], atol=1e-12)


def test_coeff_grad_equal_inner_products_sum_zero():
    rng = np.random.default_rng(6)
    upload = rng.normal(size=4)
    entry = entry_for(rng.normal(size=3), np.ones(3), all_true(3),
                      {k: upload.copy() for k in range(3)})
    row = grad_row(entry, 0, vec_block(rng.normal(size=4)))
    assert abs(row.sum()) < 1e-12
    assert np.abs(row).max() < 1e-12  # equal inner products cancel entirely


def test_coeff_grad_matches_the_full_jacobian_product():
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in (2, 3, 5, 9, 17, 30, 64, 90, 95):
        for _ in range(6):
            raw = rng.normal(scale=2.0, size=k)
            parts = rng.uniform(size=k) < 0.8
            parts[int(rng.integers(k))] = True
            mask = (rng.uniform(size=k) < 0.6).astype(int)
            mask[rng.choice(np.flatnonzero(parts))] = 1
            # uploads from every allowed device and from some masked-out or non-owning ones
            senders = np.flatnonzero((mask > 0) & parts | (rng.uniform(size=k) < 0.3))
            p = int(rng.integers(1, 50))
            uploads = {int(j): rng.normal(size=p) for j in senders}
            g = rng.normal(size=p)
            inner = np.zeros(k)
            for j, v in uploads.items():
                inner[j] = float(np.dot(v, g))
            ref = coeff_jacobian(raw, mask, parts).T @ inner
            got = grad_row(entry_for(raw, mask, parts, uploads), 0, vec_block(g))
            assert (got[(mask == 0) | ~parts] == 0.0).all()
            scale = np.abs(ref).max()
            if scale == 0.0:  # a single allowed device: the row cannot move
                assert (got == 0.0).all()
            else:
                worst = max(worst, np.abs(got - ref).max() / scale)
    assert worst <= 1e-10


def test_coeff_grad_picks_the_entry_row():
    uploads = {0: vec_block([0.0]), 1: vec_block([2.0])}
    rows = np.array([[0.5, 0.5], [0.25, 0.75]])
    entry = aggregate(rows, *stacked(uploads))
    for i in range(2):
        single = aggregate(rows[i][None], *stacked(uploads))
        np.testing.assert_array_equal(grad_row(entry, i, vec_block([0.7])),
                                      grad_row(single, 0, vec_block([0.7])))


# ----------------------------- updates -----------------------------

def test_coeff_update_no_eligible_rows_is_noop():
    state = init_coeffs(3, (1, 2), lr=0.5)
    before = {b: m.copy() for b, m in state.raw.items()}
    coeff_update(state, {})
    for b in before:
        np.testing.assert_array_equal(state.raw[b], before[b])


def test_coeff_update_single_row_arithmetic():
    state = init_coeffs(2, (1, 2), lr=0.01)
    coeff_update(state, {1: (np.array([0]), np.array([[1.0, -1.0]]))})
    np.testing.assert_allclose(state.raw[1][0], [0.5 - 0.01, 0.5 + 0.01])
    np.testing.assert_allclose(state.raw[1][1], [0.5, 0.5])


def test_coeff_update_composes_additively():
    state = init_coeffs(2, (1, 2), lr=0.1)
    g = {1: (np.array([1]), np.array([[0.2, -0.4]]))}
    coeff_update(state, g)
    coeff_update(state, g)
    np.testing.assert_allclose(state.raw[1][1], [0.5 - 0.04, 0.5 + 0.08])


# ----------------------------- invariants -----------------------------

def test_rows_are_stochastic_and_masked_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        participants = rng.uniform(size=n) < 0.7
        if not participants.any():
            participants[int(rng.integers(n))] = True
        row = rng.normal(scale=3.0, size=n)
        mask = (rng.uniform(size=n) < 0.6).astype(int)
        own = int(np.flatnonzero(participants)[0])
        mask[own] = 1
        weights = masked_renormalize(softmax_row(row, participants), mask)
        assert abs(weights.sum() - 1.0) < 1e-9
        assert (weights >= 0).all()
        assert (weights[mask == 0] == 0.0).all()
        assert (weights[~participants] == 0.0).all()


@st.composite
def raw_rows_and_masks(draw):
    n_rows = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    raw = draw(hnp.arrays(np.float64, (n_rows, k),
                          elements=st.floats(-1e6, 1e6, allow_nan=False)))
    allowed = draw(hnp.arrays(np.bool_, (n_rows, k)))
    keep = draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows))
    allowed[np.arange(n_rows), keep] = True  # every row has someone to weight
    return raw, allowed


@settings(max_examples=300, deadline=None)
@given(raw_rows_and_masks())
def test_rows_lie_on_the_simplex_with_exact_zeros_outside_the_allowed_set(case):
    raw, allowed = case
    rows = softmax_rows(raw, allowed)
    assert np.isfinite(rows).all()
    assert (rows >= 0.0).all()
    assert (rows[~allowed] == 0.0).all()
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12


def test_fedavg_reduction_uniform_weights():
    rng = np.random.default_rng(8)
    n = 7
    state = init_coeffs(n, (1, 2), lr=0.0)
    owners = block_owners([(1,)] * n, arch_of(1))[1]
    uploads = {k: vec_block(rng.normal(size=10)) for k in range(n)}
    mask = build_round_mask(np.ones(n, dtype=int), owners)
    row = masked_renormalize(softmax_row(state.raw[1][0], owners), mask[0])
    out = aggregate(row[None], *stacked(uploads))
    expected = np.mean([uploads[k] for k in range(n)], axis=0)
    assert np.abs(out.aggregated[0] - expected).max() < 1e-9


def test_self_weight_rises_when_own_upload_helps():
    # device 0's loss decreases toward its own upload: gradient at the
    # aggregate points away from it, so the update must raise raw[0, 0]
    # relative to raw[0, 1]
    state = init_coeffs(2, (1, 2), lr=0.1)
    uploads = {0: np.array([0.0]), 1: np.array([2.0])}
    entry = entry_for(state.raw[1][0], np.ones(2), all_true(2), uploads)
    grad_at_aggregate = vec_block([1.0])  # d loss / d w > 0 at w=1, minimum at 0
    row = grad_row(entry, 0, grad_at_aggregate)
    before = state.raw[1][0].copy()
    coeff_update(state, {1: (np.array([0]), row[None])})
    after = state.raw[1][0]
    assert after[0] - before[0] > 0
    assert (after[0] - before[0]) > (after[1] - before[1])
