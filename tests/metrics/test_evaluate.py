"""Evaluation helper tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.data.gtsrb import SyntheticGTSRB
from repro.experiments.scenario import fast_scenario, paper_scenario
from repro.metrics.evaluate import evaluate_model, evaluate_split, predict_labels
from repro.models.registry import build_model, default_cut_layer
from repro.nn.split import split_model
from repro.nn.tensor import Tensor


@pytest.fixture
def trained_model(small_dataset):
    model = nn.Sequential(
        nn.Conv2d(2, 3, 3, padding=1, seed=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(3 * 4 * 4, 5, seed=2),
    )
    return model


def frozen_batchnorm_model() -> nn.Sequential:
    """A training-mode model whose BatchNorm is held in eval mode (the
    fine-tuning idiom: train the convs, keep the running statistics)."""
    model = nn.Sequential(
        nn.Conv2d(2, 3, 3, padding=1, seed=1),
        nn.BatchNorm2d(3),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(3 * 8 * 8, 5, seed=2),
    )
    model.train()
    model[1].eval()
    return model


#: slab sizes for the 40-sample ``small_dataset``: one sample, a ragged
#: last slab, the default (one slab), the old default
SLABS = [1, 7, 64, 256]


class TestEvaluateModel:
    def test_returns_loss_and_accuracy(self, trained_model, small_dataset):
        loss, acc = evaluate_model(trained_model, small_dataset, batch_size=16)
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_restores_training_mode(self, trained_model, small_dataset):
        trained_model.train()
        evaluate_model(trained_model, small_dataset)
        assert trained_model.training
        trained_model.eval()
        evaluate_model(trained_model, small_dataset)
        assert not trained_model.training

    @pytest.mark.parametrize("batch_size", SLABS)
    def test_restores_each_modules_own_mode(self, small_dataset, batch_size):
        """It used to end with ``model.train()``, which flips *every*
        submodule: a BatchNorm frozen in ``eval()`` on purpose came back
        training and resumed updating its running statistics."""
        model = frozen_batchnorm_model()
        evaluate_model(model, small_dataset, batch_size=batch_size)
        predict_labels(model, small_dataset.images, batch_size=batch_size)
        assert model.training and model[0].training
        assert not model[1].training

    @pytest.mark.parametrize("batch_size", SLABS)
    def test_restores_modes_when_evaluation_raises(self, small_dataset, batch_size):
        """An exception mid-evaluation — here in the last slab, after the
        earlier ones went through — used to leave the whole model in eval."""
        model = frozen_batchnorm_model()
        seen = []

        def exploding_loss(logits, targets):
            seen.extend(targets)
            if len(seen) == len(small_dataset):
                raise RuntimeError("boom")
            return nn.CrossEntropyLoss(reduction="sum")(logits, targets)

        with pytest.raises(RuntimeError, match="boom"):
            evaluate_model(
                model, small_dataset, batch_size=batch_size, loss_fn=exploding_loss
            )
        assert model.training and model[0].training
        assert not model[1].training
        with pytest.raises(ValueError):
            predict_labels(model, np.zeros((4, 3, 8, 8)))  # wrong channel count
        assert model.training and model[0].training

    def test_batching_does_not_change_result(self, trained_model, small_dataset):
        l1, a1 = evaluate_model(trained_model, small_dataset, batch_size=7)
        l2, a2 = evaluate_model(trained_model, small_dataset, batch_size=40)
        assert l1 == pytest.approx(l2)
        assert a1 == pytest.approx(a2)

    def test_empty_dataset_raises(self, trained_model):
        empty = ArrayDataset(np.zeros((0, 2, 8, 8)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate_model(trained_model, empty)

    def test_perfect_model_scores_one(self):
        """A hand-built argmax-friendly model scores 100%."""
        images = np.zeros((4, 3))
        images[np.arange(4), np.arange(4) % 3] = 10.0
        labels = np.arange(4) % 3
        ds = ArrayDataset(images, labels)
        model = nn.Sequential(nn.Linear(3, 3, bias=False, seed=0))
        model[0].weight.data = np.eye(3)
        _, acc = evaluate_model(model, ds)
        assert acc == 1.0


class TestEvaluateSplit:
    def test_matches_uncut_evaluation(self, trained_model, small_dataset):
        loss_full, acc_full = evaluate_model(trained_model, small_dataset)
        sm = split_model(trained_model, 2)
        loss_split, acc_split = evaluate_split(sm, small_dataset)
        assert loss_split == pytest.approx(loss_full)
        assert acc_split == pytest.approx(acc_full)

    @pytest.mark.parametrize("client_training", [True, False])
    @pytest.mark.parametrize("server_training", [True, False])
    def test_restores_each_halfs_mode(
        self, trained_model, small_dataset, client_training, server_training
    ):
        """It used to end with an unconditional ``split.train()``: a split
        held in eval mode came back training, and BatchNorm then updated
        its running statistics on the next inference call."""
        sm = split_model(trained_model, 2)
        sm.client.train(client_training)
        sm.server.train(server_training)
        evaluate_split(sm, small_dataset)
        assert sm.client.training is client_training
        assert sm.server.training is server_training

    @pytest.mark.parametrize("batch_size", SLABS)
    def test_restores_each_modules_own_mode(self, small_dataset, batch_size):
        """Restoring at the granularity of the two halves still un-froze a
        BatchNorm held in eval mode inside a training half — and an
        exception mid-evaluation left both halves in eval."""
        model = frozen_batchnorm_model()
        sm = split_model(model, 2)
        evaluate_split(sm, small_dataset, batch_size=batch_size)
        assert sm.client.training and model[0].training and model[2].training
        assert not model[1].training
        with pytest.raises(ValueError):
            evaluate_split(sm, ArrayDataset(np.zeros((4, 3, 8, 8)), np.zeros(4, dtype=int)))
        assert sm.client.training and sm.server.training and model[0].training
        assert not model[1].training


class TestPredictLabels:
    def test_shapes_and_range(self, trained_model, small_dataset):
        preds = predict_labels(trained_model, small_dataset.images)
        assert preds.shape == (len(small_dataset),)
        assert preds.min() >= 0 and preds.max() < 5

    def test_empty_input(self, trained_model):
        preds = predict_labels(trained_model, np.zeros((0, 2, 8, 8)))
        assert preds.shape == (0,)


# ----------------------------------------------------------------------
# Evaluation slabs: the answer does not depend on the slab size, and the
# memory does.
# ----------------------------------------------------------------------


def _briefly_trained(name: str, dataset: ArrayDataset, num_classes: int) -> nn.Sequential:
    """A few SGD steps: BatchNorm statistics off their initial values and
    logits spread wider than a GEMM's last-ulp wobble."""
    model = build_model(name, num_classes=num_classes, image_size=dataset.images.shape[-1])
    optimizer = nn.SGD(model.parameters(), lr=0.05)
    loss_fn = nn.CrossEntropyLoss()
    model.train()
    for start in range(0, 96, 16):
        optimizer.zero_grad()
        batch = slice(start, start + 16)
        loss_fn(model(Tensor(dataset.images[batch])), dataset.labels[batch]).backward()
        optimizer.step()
    return model


@pytest.fixture(scope="module", params=["micro_cnn", "deepthin"])
def workload_model(request):
    """``(name, train split, test split)`` as the benchmark workloads build
    them: micro_cnn on the fast preset, DeepThin on the paper preset's 344
    test images."""
    name = request.param
    cfg = (paper_scenario if name == "deepthin" else fast_scenario)().dataset
    train, test = SyntheticGTSRB(cfg).train_test()
    return name, cfg.num_classes, train, test


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestSlabSizeDoesNotChangeTheAnswer:
    def test_model_split_and_predictions(self, workload_model, dtype):
        name, num_classes, train, test = workload_model
        with nn.default_dtype(dtype):
            model = _briefly_trained(name, train, num_classes)
            split = split_model(model, default_cut_layer(name))
            modes = [m.training for m in model.modules()]
            results = {}
            for batch_size in (1, 7, 64, 256, len(test)):
                results[batch_size] = (
                    evaluate_model(model, test, batch_size=batch_size),
                    evaluate_split(split, test, batch_size=batch_size),
                    predict_labels(model, test.images, batch_size=batch_size),
                )
                assert [m.training for m in model.modules()] == modes
            default = (
                evaluate_model(model, test),
                evaluate_split(split, test),
                predict_labels(model, test.images),
            )
        (ref_loss, ref_acc), _, ref_preds = results[len(test)]
        assert ref_acc == np.mean(ref_preds == test.labels)
        for (loss, acc), (split_loss, split_acc), preds in results.values():
            assert acc == ref_acc and split_acc == ref_acc
            np.testing.assert_array_equal(preds, ref_preds)
            assert loss == pytest.approx(ref_loss, rel=1e-5)
            assert split_loss == pytest.approx(ref_loss, rel=1e-5)
        # the default is the 64-sample slab, bit for bit
        assert default[0] == results[64][0] and default[1] == results[64][1]
        np.testing.assert_array_equal(default[2], results[64][2])


def test_deepthin_evaluation_peaks_under_eight_mebibytes():
    """One evaluation of DeepThin on the paper preset's 344 test images at
    the default slab, in the CLI's float32: every numpy buffer alive at
    the peak, as ``tracemalloc`` sees them, fits in 8 MiB (5.6 measured;
    the batch-256 default this replaced peaked at 22.4).  Counted in
    traced bytes, so the bound does not depend on the allocator."""
    _, test = SyntheticGTSRB(paper_scenario().dataset).train_test()
    with nn.default_dtype(np.float32):
        model = build_model("deepthin")
        evaluate_model(model, test)  # warm: lazily built state is not evaluation's
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            evaluate_model(model, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (peak - before) / 2**20 <= 8.0
