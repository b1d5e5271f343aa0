"""Evaluation helper tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.data.gtsrb import SyntheticGTSRB
from repro.experiments.scenario import fast_scenario, paper_scenario
from repro.metrics.evaluate import EVAL_SLAB, evaluate_model, evaluate_split
from repro.models.registry import build_model, default_cut_layer
from repro.nn.split import split_model
from repro.nn.tensor import Tensor
from repro.schemes.split_common import split_step_math


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
#: last slab, the default (ragged too), and the two older defaults (one slab)
SLABS = [1, 7, EVAL_SLAB, 64, 256]


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
        with pytest.raises(ValueError):  # wrong channel count
            evaluate_model(model, ArrayDataset(np.zeros((4, 3, 8, 8)), np.zeros(4, dtype=int)))
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
    def test_model_and_split(self, workload_model, dtype):
        name, num_classes, train, test = workload_model
        with nn.default_dtype(dtype):
            model = _briefly_trained(name, train, num_classes)
            split = split_model(model, default_cut_layer(name))
            modes = [m.training for m in model.modules()]
            results = {}
            for batch_size in (1, 7, EVAL_SLAB, 64, 256, len(test)):
                results[batch_size] = (
                    evaluate_model(model, test, batch_size=batch_size),
                    evaluate_split(split, test, batch_size=batch_size),
                )
                assert [m.training for m in model.modules()] == modes
            default = (evaluate_model(model, test), evaluate_split(split, test))
        (ref_loss, ref_acc), _ = results[len(test)]
        for (loss, acc), (split_loss, split_acc) in results.values():
            assert acc == ref_acc and split_acc == ref_acc
            assert loss == pytest.approx(ref_loss, rel=1e-5)
            assert split_loss == pytest.approx(ref_loss, rel=1e-5)
        # the default is the ``EVAL_SLAB``-sample slab, bit for bit
        assert default == results[EVAL_SLAB]


def _traced_peak(fn) -> float:
    """MiB that ``fn`` asks for above what was alive when it started, as
    ``tracemalloc`` counts it (independent of the allocator)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def test_evaluation_slab_is_the_papers_training_batch():
    assert EVAL_SLAB == paper_scenario().scheme.batch_size == 16


@pytest.fixture(scope="module")
def deepthin_float32():
    """DeepThin and the paper preset's splits, all built in the CLI's float32."""
    with nn.default_dtype(np.float32):
        train, test = SyntheticGTSRB(paper_scenario().dataset).train_test()
        model = build_model("deepthin")
    return model, train, test


def test_deepthin_evaluation_peaks_under_two_mebibytes(deepthin_float32):
    """One evaluation of DeepThin on the paper preset's 344 test images at
    the default slab, in the CLI's float32: every numpy buffer alive at
    the peak, as ``tracemalloc`` sees them, fits in 2 MiB (1.3 measured;
    the 64-sample slab this replaced peaked at 5.0, and batch 256 at
    22.4)."""
    model, _, test = deepthin_float32
    with nn.default_dtype(np.float32):
        evaluate_model(model, test)  # warm: lazily built state is not evaluation's
        peak = _traced_peak(lambda: evaluate_model(model, test))
    assert peak <= 2.0


def test_deepthin_evaluation_peaks_no_higher_than_a_training_step(deepthin_float32):
    """At the default slab, evaluation's transient working set is no larger
    than that of one batch-16 DeepThin split training step as the paper
    preset runs it (1.3 against 5.0 MiB measured; 7.0 while backward held
    the whole graph to the end of the pass), so evaluating between
    rounds cannot raise a run's high-water mark above training's."""
    model, train, test = deepthin_float32
    hp = paper_scenario().scheme
    with nn.default_dtype(np.float32):
        split = split_model(model, default_cut_layer("deepthin"))
        client_opt, server_opt = (
            nn.SGD(half.parameters(), lr=hp.lr)
            for half in (split.client, split.server)
        )
        loss_fn = nn.CrossEntropyLoss()
        xb, yb = train.take(np.arange(hp.batch_size))

        def step() -> None:
            split_step_math(split, client_opt, server_opt, xb, yb, loss_fn, None)

        step()  # warm both, as above
        evaluate_model(model, test)
        step_peak = _traced_peak(step)
        evaluation_peak = _traced_peak(lambda: evaluate_model(model, test))
    assert evaluation_peak <= step_peak, (evaluation_peak, step_peak)
