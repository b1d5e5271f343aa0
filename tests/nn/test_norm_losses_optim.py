"""Batch norm, loss functions and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from tests.conftest import numeric_gradient


class TestBatchNorm:
    def test_normalizes_batch_statistics(self):
        rng = np.random.default_rng(0)
        bn = nn.BatchNorm1d(4)
        x = rng.normal(loc=5.0, scale=3.0, size=(64, 4))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-2)

    def test_2d_normalizes_per_channel(self):
        rng = np.random.default_rng(1)
        bn = nn.BatchNorm2d(3)
        x = rng.normal(loc=-2.0, scale=0.5, size=(8, 3, 5, 5))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)

    def test_running_stats_update_and_eval_uses_them(self):
        rng = np.random.default_rng(2)
        bn = nn.BatchNorm1d(2, momentum=0.5)
        x = rng.normal(loc=10.0, size=(128, 2))
        for _ in range(20):
            bn(Tensor(x))
        assert np.all(bn.running_mean > 5.0)
        bn.eval()
        out = bn(Tensor(x)).data
        # eval output should be near-normalized using running stats
        assert abs(out.mean()) < 0.5

    def test_gradients_flow_through_statistics(self):
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(6, 3))
        bn = nn.BatchNorm1d(3)

        x = Tensor(x_data.copy(), requires_grad=True)
        (bn(x) ** 3).sum().backward()
        analytic = x.grad.copy()

        d = x_data.copy()

        def f():
            fresh = nn.BatchNorm1d(3)
            fresh.gamma.data = bn.gamma.data.copy()
            fresh.beta.data = bn.beta.data.copy()
            return float((fresh(Tensor(d)) ** 3).sum().item())

        np.testing.assert_allclose(analytic, numeric_gradient(f, d), atol=1e-5)

    def test_gamma_beta_receive_gradients(self):
        bn = nn.BatchNorm1d(4)
        x = Tensor(np.random.default_rng(0).normal(size=(8, 4)))
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None
        np.testing.assert_allclose(bn.beta.grad, np.full(4, 8.0))

    def test_channel_mismatch_raises(self):
        bn = nn.BatchNorm1d(4)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((2, 5))))

    def test_state_dict_roundtrips_running_stats(self):
        bn = nn.BatchNorm1d(2)
        bn(Tensor(np.random.default_rng(0).normal(size=(16, 2)) + 7))
        state = bn.state_dict()
        fresh = nn.BatchNorm1d(2)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh.running_mean, bn.running_mean)
        np.testing.assert_allclose(fresh.running_var, bn.running_var)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            nn.BatchNorm1d(0)
        with pytest.raises(ValueError):
            nn.BatchNorm1d(3, momentum=0.0)

    @pytest.mark.parametrize("cls", [nn.BatchNorm1d, nn.BatchNorm2d])
    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_eps_must_be_positive_and_finite(self, cls, eps):
        """``eps = 0`` on a constant channel divides by zero; a negative or
        NaN one gives NaN outputs with only a RuntimeWarning; an infinite
        one zeroes every output."""
        with pytest.raises(ValueError, match="eps"):
            cls(3, eps=eps)

    @pytest.mark.parametrize(
        "cls, shape", [(nn.BatchNorm1d, (6, 3)), (nn.BatchNorm2d, (4, 3, 2, 2))]
    )
    def test_a_constant_channel_stays_finite(self, cls, shape):
        """Zero batch variance is what ``eps > 0`` is for: the output is
        ``beta`` and every gradient finite."""
        bn = cls(3)
        x = Tensor(np.full(shape, 7.0), requires_grad=True)
        out = bn(x)
        np.testing.assert_array_equal(out.data, np.zeros(shape))
        out.backward(np.random.default_rng(0).normal(size=shape))
        for grad in (x.grad, bn.gamma.grad, bn.beta.grad):
            assert np.isfinite(grad).all()


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]])
        targets = np.array([0, 1])
        loss = nn.CrossEntropyLoss()(Tensor(logits), targets).item()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[[0, 1], targets]).mean()
        assert abs(loss - expected) < 1e-10

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits_data = np.array([[1.0, 2.0, 3.0]])
        logits = Tensor(logits_data, requires_grad=True)
        nn.CrossEntropyLoss()(logits, np.array([2])).backward()
        probs = np.exp(logits_data) / np.exp(logits_data).sum()
        expected = probs.copy()
        expected[0, 2] -= 1
        np.testing.assert_allclose(logits.grad, expected, atol=1e-10)

    def test_cross_entropy_sum_reduction(self):
        logits = Tensor(np.zeros((4, 3)))
        loss_mean = nn.CrossEntropyLoss("mean")(logits, np.zeros(4, dtype=int)).item()
        loss_sum = nn.CrossEntropyLoss("sum")(logits, np.zeros(4, dtype=int)).item()
        assert abs(loss_sum - 4 * loss_mean) < 1e-10

    def test_cross_entropy_numerical_stability(self):
        logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        loss = nn.CrossEntropyLoss()(logits, np.array([0, 1])).item()
        assert np.isfinite(loss)

    def test_cross_entropy_validates_labels(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="range"):
            nn.CrossEntropyLoss()(logits, np.array([0, 3]))

    def test_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss()(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))

    def test_labels_are_validated_before_indexing(self):
        """A loss that indexes with whatever it is given wraps ``-1`` to the
        last class (2.30 instead of an error) and fancy-indexes a number
        out of 2-D targets."""
        log_probs = Tensor(np.log(np.full((2, 10), 0.1)))
        loss = nn.CrossEntropyLoss()
        with pytest.raises(ValueError, match="range"):
            loss(log_probs, np.array([-1, 0]))
        with pytest.raises(ValueError, match="range"):
            loss(log_probs, np.array([0, 10]))
        with pytest.raises(ValueError, match="1-D integer"):
            loss(log_probs, np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="1-D integer"):
            loss(log_probs, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="incompatible"):
            loss(log_probs, np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="incompatible"):
            loss(Tensor(np.zeros((2, 5, 2))), np.array([0, 1]))
        with pytest.raises(ValueError, match="empty batch"):
            loss(Tensor(np.zeros((0, 10))), np.zeros(0, dtype=int))
        assert loss(log_probs, [3, 9]).item() == pytest.approx(np.log(10.0))

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss("max")


class TestOptimizers:
    def _quadratic_setup(self):
        p = nn.Parameter(np.array([5.0, -3.0]))
        return p

    def test_sgd_step_direction(self):
        p = self._quadratic_setup()
        opt = nn.SGD([p], lr=0.1)
        p.grad = np.array([1.0, -1.0])
        opt.step()
        np.testing.assert_allclose(p.data, [4.9, -2.9])

    def test_sgd_skips_gradless_params(self):
        p = nn.Parameter(np.array([1.0]))
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad_clears(self, small_cnn, image_batch):
        """The optimizer is the one place a training step clears gradients."""
        x, y = image_batch
        opt = nn.SGD(small_cnn.parameters(), lr=0.1)
        nn.CrossEntropyLoss()(small_cnn(Tensor(x)), y).backward()
        assert all(p.grad is not None for p in small_cnn.parameters())
        opt.zero_grad()
        assert all(p.grad is None for p in small_cnn.parameters())

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.ones(1))], lr=-1)

