"""Synthetic GTSRB generator tests: determinism, class structure,
learnability-relevant properties."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.data.gtsrb import (
    NUM_CLASSES,
    GtsrbConfig,
    SyntheticGTSRB,
    class_spec,
)
from tests.conftest import render_sign


class TestClassSpec:
    def test_all_specs_distinct(self):
        specs = [class_spec(label) for label in range(NUM_CLASSES)]
        assert len({(s.shape, s.color, s.glyph, s.glyph_scale) for s in specs}) == NUM_CLASSES

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            class_spec(-1)
        with pytest.raises(ValueError):
            class_spec(NUM_CLASSES)

    @given(st.integers(0, NUM_CLASSES - 1))
    @settings(max_examples=43, deadline=None)
    def test_spec_is_deterministic(self, label):
        assert class_spec(label) == class_spec(label)


class TestRenderSign:
    def test_output_shape_and_range(self):
        rng = np.random.default_rng(0)
        img = render_sign(0, size=16, rng=rng)
        assert img.shape == (3, 16, 16)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_rendering_varies_with_rng(self):
        a = render_sign(5, 16, np.random.default_rng(1))
        b = render_sign(5, 16, np.random.default_rng(2))
        assert not np.allclose(a, b)

    def test_rendering_deterministic_for_same_rng_state(self):
        a = render_sign(5, 16, np.random.default_rng(7))
        b = render_sign(5, 16, np.random.default_rng(7))
        np.testing.assert_allclose(a, b)

    def test_classes_are_visually_distinct_on_average(self):
        """Mean images of different classes should differ clearly."""
        rng = np.random.default_rng(0)

        def mean_image(label):
            return np.mean(
                [render_sign(label, 16, rng, noise_std=0.0, jitter=0.0, max_shift=0,
                             blur_prob=0.0, occlusion_prob=0.0) for _ in range(4)],
                axis=0,
            )

        m0, m1 = mean_image(0), mean_image(1)
        assert np.abs(m0 - m1).mean() > 0.01

    def test_all_classes_render(self):
        rng = np.random.default_rng(3)
        for label in range(NUM_CLASSES):
            img = render_sign(label, 12, rng)
            assert np.isfinite(img).all()


class TestGtsrbConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GtsrbConfig(num_classes=0)
        with pytest.raises(ValueError):
            GtsrbConfig(num_classes=99)
        with pytest.raises(ValueError):
            GtsrbConfig(imbalance=0.5)
        with pytest.raises(ValueError):
            GtsrbConfig(blur_prob=1.5)

    @pytest.mark.parametrize(
        "field, value", [("noise_std", -0.1), ("jitter", -0.25), ("max_shift", -1)]
    )
    def test_negative_augmentation_strengths_rejected(self, field, value):
        """``noise_std=-0.1`` used to render no noise at all (``if noise_std
        > 0``) and ``max_shift=-1`` died inside numpy: "low >= high"."""
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            GtsrbConfig(**{field: value})

    def test_zero_augmentation_strengths_accepted(self):
        cfg = GtsrbConfig(
            num_classes=2, train_per_class=2, test_per_class=1,
            noise_std=0.0, jitter=0.0, max_shift=0,
        )
        train, _ = SyntheticGTSRB(cfg).train_test()
        assert np.isfinite(train.images).all()

    def test_balanced_class_counts(self):
        cfg = GtsrbConfig(num_classes=5, train_per_class=10)
        np.testing.assert_array_equal(cfg.class_counts(10), [10] * 5)

    def test_imbalanced_counts_monotone(self):
        cfg = GtsrbConfig(num_classes=10, imbalance=10.0)
        counts = cfg.class_counts(100)
        assert counts[0] == 100
        assert counts[-1] == pytest.approx(10, abs=1)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestSyntheticGTSRB:
    def test_train_test_sizes(self):
        factory = SyntheticGTSRB(
            GtsrbConfig(num_classes=5, train_per_class=6, test_per_class=2, image_size=12)
        )
        train, test = factory.train_test()
        assert len(train) == 30 and len(test) == 10
        assert train.images.shape == (30, 3, 12, 12)

    def test_deterministic_per_seed(self):
        cfg = GtsrbConfig(num_classes=3, train_per_class=4, test_per_class=2, seed=9)
        t1, _ = SyntheticGTSRB(cfg).train_test()
        t2, _ = SyntheticGTSRB(cfg).train_test()
        np.testing.assert_allclose(t1.images, t2.images)
        np.testing.assert_array_equal(t1.labels, t2.labels)

    def test_different_seeds_differ(self):
        base = dict(num_classes=3, train_per_class=4, test_per_class=2)
        t1, _ = SyntheticGTSRB(GtsrbConfig(seed=1, **base)).train_test()
        t2, _ = SyntheticGTSRB(GtsrbConfig(seed=2, **base)).train_test()
        assert not np.allclose(t1.images, t2.images)

    def test_all_classes_present(self):
        cfg = GtsrbConfig(num_classes=7, train_per_class=3, test_per_class=2)
        train, test = SyntheticGTSRB(cfg).train_test()
        assert set(train.labels.tolist()) == set(range(7))
        assert set(test.labels.tolist()) == set(range(7))

    def test_input_shape(self):
        factory = SyntheticGTSRB(GtsrbConfig(image_size=20))
        assert factory.input_shape == (3, 20, 20)

    def test_learnable_by_small_model(self):
        """A linear probe beats chance comfortably — the task carries signal."""
        from repro import nn
        from repro.nn.tensor import Tensor

        cfg = GtsrbConfig(
            num_classes=5, train_per_class=30, test_per_class=10, image_size=12,
            noise_std=0.05, occlusion_prob=0.0, blur_prob=0.0, seed=0,
        )
        train, test = SyntheticGTSRB(cfg).train_test()
        model = nn.Sequential(nn.Flatten(), nn.Linear(3 * 12 * 12, 5, seed=0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(60):
            opt.zero_grad()
            loss_fn(model(Tensor(train.images)), train.labels).backward()
            opt.step()
        predicted = model(Tensor(test.images)).data.argmax(axis=1)
        acc = float((predicted == test.labels).mean())
        assert acc > 0.5  # chance is 0.2


class TestPeakBytes:
    """``SyntheticGTSRB.peak_bytes`` sizes what ``train_test`` holds at
    once — the CLI's ``--train-per-class`` guard refuses a build by it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "config",
        [
            GtsrbConfig(num_classes=10, image_size=16, train_per_class=24, test_per_class=6),
            GtsrbConfig(num_classes=43, image_size=12, train_per_class=6, test_per_class=3),
            GtsrbConfig(num_classes=3, image_size=16, train_per_class=20, test_per_class=30,
                        imbalance=3.0),
        ],
        ids=["fast", "paper-classes", "imbalanced-test-heavier"],
    )
    def test_within_ten_percent_of_the_traced_peak(self, config, dtype):
        factory = SyntheticGTSRB(config)
        with nn.default_dtype(dtype):
            factory.train_test()  # the first call pays one-time imports
            tracemalloc.start()
            try:
                factory.train_test()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            estimate = factory.peak_bytes()
        assert 0.9 * peak <= estimate <= 1.1 * peak
