"""Batch norm, loss functions, optimizers and LR schedules."""

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

    def test_nll_matches_cross_entropy(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        y = np.array([0, 1, 2, 3])
        ce = nn.CrossEntropyLoss()(logits, y).item()
        nll = nn.NLLLoss()(logits.log_softmax(axis=1), y).item()
        assert abs(ce - nll) < 1e-10

    @pytest.mark.parametrize("loss_cls", [nn.CrossEntropyLoss, nn.NLLLoss])
    def test_classification_losses_share_one_label_validator(self, loss_cls):
        """``NLLLoss`` used to index with whatever it was given: ``-1``
        wrapped to the last class (2.30 instead of an error) and 2-D
        targets fancy-indexed a number out."""
        log_probs = Tensor(np.log(np.full((2, 10), 0.1)))
        loss = loss_cls()
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

    def test_mse(self):
        preds = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = nn.MSELoss()(preds, np.array([0.0, 0.0]))
        assert abs(loss.item() - 2.5) < 1e-12
        loss.backward()
        np.testing.assert_allclose(preds.grad, [1.0, 2.0])

    def test_accuracy_from_logits(self):
        logits = np.array([[1, 0], [0, 1], [1, 0]], dtype=float)
        assert nn.accuracy_from_logits(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

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

    def test_sgd_momentum_accelerates(self):
        losses = {}
        for momentum in (0.0, 0.9):
            p = nn.Parameter(np.array([10.0]))
            opt = nn.SGD([p], lr=0.005, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                p.grad = 2 * p.data  # d/dp p^2
                opt.step()
            losses[momentum] = abs(float(p.data[0]))
        assert losses[0.9] < losses[0.0]

    def test_sgd_weight_decay_shrinks(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert float(p.data[0]) == pytest.approx(1.0 - 0.1 * 0.5)

    def test_sgd_skips_gradless_params(self):
        p = nn.Parameter(np.array([1.0]))
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_adam_converges_on_quadratic(self):
        p = nn.Parameter(np.array([5.0]))
        opt = nn.Adam([p], lr=0.3)
        for _ in range(100):
            opt.zero_grad()
            p.grad = 2 * p.data
            opt.step()
        assert abs(float(p.data[0])) < 0.05

    def test_state_export_import_sgd(self):
        """Importing exported momentum state replays identical updates."""
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        state = opt.state_export()

        # A twin starting from the post-step value with imported velocity
        # must track the original exactly on the next step.
        p2 = nn.Parameter(p.data.copy())
        opt2 = nn.SGD([p2], lr=0.1, momentum=0.9)
        opt2.state_import(state)
        p.grad = np.array([0.5])
        p2.grad = np.array([0.5])
        opt.step()
        opt2.step()
        np.testing.assert_allclose(p.data, p2.data)

    def test_state_import_length_mismatch(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.state_import([{}, {}])

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.ones(1))], lr=-1)
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.ones(1))], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.ones(1))], lr=0.1, nesterov=True)


class TestSchedules:
    def _opt(self, lr=1.0):
        return nn.SGD([nn.Parameter(np.ones(1))], lr=lr)

    def test_step_lr(self):
        opt = self._opt()
        sched = nn.StepLR(opt, step_size=2, gamma=0.5)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        assert lrs == [1.0, 0.5, 0.5, 0.25]

    def test_cosine_annealing_endpoints(self):
        opt = self._opt()
        sched = nn.CosineAnnealingLR(opt, t_max=10, eta_min=0.1)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_monotone_decreasing(self):
        opt = self._opt()
        sched = nn.CosineAnnealingLR(opt, t_max=8)
        prev = opt.lr
        for _ in range(8):
            sched.step()
            assert opt.lr <= prev + 1e-12
            prev = opt.lr

    def test_constant_lr(self):
        opt = self._opt(0.3)
        nn.ConstantLR(opt).step()
        assert opt.lr == 0.3
