"""Evaluation helper tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.metrics.evaluate import evaluate_model, evaluate_split, predict_labels
from repro.nn.split import split_model


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

    def test_restores_each_modules_own_mode(self, small_dataset):
        """It used to end with ``model.train()``, which flips *every*
        submodule: a BatchNorm frozen in ``eval()`` on purpose came back
        training and resumed updating its running statistics."""
        model = frozen_batchnorm_model()
        evaluate_model(model, small_dataset)
        predict_labels(model, small_dataset.images)
        assert model.training and model[0].training
        assert not model[1].training

    def test_restores_modes_when_evaluation_raises(self, small_dataset):
        """An exception mid-evaluation used to leave the whole model in eval."""
        model = frozen_batchnorm_model()

        def exploding_loss(logits, targets):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            evaluate_model(model, small_dataset, loss_fn=exploding_loss)
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

    def test_restores_each_modules_own_mode(self, small_dataset):
        """Restoring at the granularity of the two halves still un-froze a
        BatchNorm held in eval mode inside a training half — and an
        exception mid-evaluation left both halves in eval."""
        model = frozen_batchnorm_model()
        sm = split_model(model, 2)
        evaluate_split(sm, small_dataset)
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
