import numpy as np
import pytest

from fmmlsim.datagen import (PARTITIONS, assign_modalities,
                             default_modality_profile, generate_device_data,
                             make_class_means, partition_labels)
from fmmlsim.errors import ConfigError

DIMS = (4, 6)


def small_means(seed=0):
    """Three classes' centres over two modalities of DIMS features."""
    return make_class_means(np.random.default_rng(seed), 3, DIMS, 3.0)


def test_profile_two_modality_thirds():
    owned = assign_modalities(9, 2, [(3, 2), (6, 1)])
    assert owned[:3] == [(1, 2)] * 3
    assert sorted(owned[3:]).count((1,)) == 3
    assert sorted(owned[3:]).count((2,)) == 3


def test_profile_three_modality_thirds():
    owned = assign_modalities(18, 3, [(6, 3), (6, 2), (6, 1)])
    assert owned[:6] == [(1, 2, 3)] * 6
    two = owned[6:12]
    assert sorted(two) == [(1, 2), (1, 2), (1, 3), (1, 3), (2, 3), (2, 3)]
    one = owned[12:]
    assert sorted(one) == [(1,), (1,), (2,), (2,), (3,), (3,)]


def test_profile_single_device():
    assert assign_modalities(1, 1, [(1, 1)]) == [(1,)]


def test_default_profiles():
    assert default_modality_profile(9, 2) == [(3, 2), (6, 1)]
    assert default_modality_profile(18, 3) == [(6, 3), (6, 2), (6, 1)]
    assert default_modality_profile(4, 1) == [(4, 1)]


@pytest.mark.parametrize("num_devices, num_modalities", [(9, 2), (18, 3), (4, 1)])
def test_no_profile_assigns_by_the_default_profile(num_devices, num_modalities):
    assert assign_modalities(num_devices, num_modalities, None) == assign_modalities(
        num_devices, num_modalities, default_modality_profile(num_devices, num_modalities))


def test_profile_inconsistencies_raise():
    with pytest.raises(ConfigError):
        assign_modalities(9, 2, [(3, 2), (5, 1)])  # sizes do not sum to K
    with pytest.raises(ConfigError):
        assign_modalities(9, 2, [(3, 3), (6, 1)])  # count exceeds M
    with pytest.raises(ConfigError):
        assign_modalities(1, 2, [(1, 1)])  # modality 2 unowned


def test_noniid1_support_is_three_categories():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = partition_labels("noniid1", 6, 120, rng)
        assert len(set(labels.tolist())) == 3
        assert labels.shape == (120,)


@pytest.mark.parametrize("scheme,frac", [("noniid2", 0.5),
                                         ("noniid3", 0.3)])
def test_dominant_category_counts(scheme, frac):
    rng = np.random.default_rng(1)
    for count in (100, 300, 77):
        labels = partition_labels(scheme, 6, count, rng)
        top = np.bincount(labels, minlength=6).max()
        assert top == int(np.ceil(frac * count))


def test_noniid2_example_exact_count():
    rng = np.random.default_rng(2)
    labels = partition_labels("noniid2", 6, 100, rng)
    assert np.bincount(labels, minlength=6).max() == 50


def test_partition_determinism():
    assert PARTITIONS == ("noniid1", "noniid2", "noniid3")
    for scheme in PARTITIONS:
        a = partition_labels(scheme, 6, 200, np.random.default_rng(42))
        b = partition_labels(scheme, 6, 200, np.random.default_rng(42))
        assert np.array_equal(a, b)


def test_tiny_noise_recovers_class_means():
    means = small_means()
    rng = np.random.default_rng(3)
    labels = np.array([0, 1, 2, 1] * 5)
    ds = generate_device_data(means, 1e-9, 0.8, labels, (1, 2), rng)
    for split in (ds.train, ds.test):
        for m in (1, 2):
            for i, y in enumerate(split.labels):
                np.testing.assert_allclose(
                    split.features[m][i], means[m - 1][y], atol=1e-6)


def test_split_sizes_sum_and_modality_consistency():
    rng = np.random.default_rng(4)
    labels = partition_labels("noniid2", 3, 50, rng)
    ds = generate_device_data(small_means(), 0.5, 0.8, labels, (2,), rng)
    assert len(ds.train.labels) + len(ds.test.labels) == 50
    assert set(ds.train.features) == {2}
    assert set(ds.test.features) == {2}
    assert ds.train.features[2].shape[1] == DIMS[1]


def test_nearest_centroid_oracle_on_generated_data():
    means = small_means()
    rng = np.random.default_rng(5)
    labels = np.concatenate([np.full(134, c) for c in range(3)])[:400]
    rng.shuffle(labels)
    ds = generate_device_data(means, 0.5, 0.8, labels, (1, 2), rng)

    def nearest_mean(x1, x2):
        best, besty = np.inf, -1
        for c in range(3):
            d = float(np.sum((x1 - means[0][c]) ** 2)
                      + np.sum((x2 - means[1][c]) ** 2))
            if d < best:
                best, besty = d, c
        return besty

    correct = sum(
        nearest_mean(ds.test.features[1][i], ds.test.features[2][i]) == y
        for i, y in enumerate(ds.test.labels))
    assert correct / len(ds.test.labels) > 0.95


def test_seed_determinism_full_pipeline():
    out = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        means = small_means(seed=99)
        labels = partition_labels("noniid3", 3, 60, rng)
        out.append(generate_device_data(means, 0.5, 0.8, labels, (1, 2), rng))
    a, b = out
    assert np.array_equal(a.train.labels, b.train.labels)
    for m in (1, 2):
        assert np.array_equal(a.train.features[m], b.train.features[m])
        assert np.array_equal(a.test.features[m], b.test.features[m])


def test_label_support_property():
    rng = np.random.default_rng(8)
    labels = np.array([0] * 15 + [2] * 15)
    rng.shuffle(labels)
    ds = generate_device_data(small_means(), 0.5, 0.8, labels, (1,), rng)
    assert ds.label_support == (0, 2)


def test_class_means_keep_the_class_then_modality_draw_order():
    # one (C, d_m) matrix per modality, bit-equal to drawing class by class
    # and, within a class, modality by modality
    dims = (4, 6, 3)
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    means = make_class_means(rng, 5, dims, 2.5)
    nested = [[2.5 * ref.normal(size=d) for d in dims] for _ in range(5)]
    assert [m.shape for m in means] == [(5, d) for d in dims]
    for m in range(len(dims)):
        assert np.array_equal(means[m], np.stack([per_class[m] for per_class in nested]))
    assert rng.normal() == ref.normal()  # both leave the stream at the same place
