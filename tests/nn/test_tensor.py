"""Autograd engine tests: op-by-op gradients vs finite differences,
broadcasting adjoints, graph mechanics."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, concatenate, no_grad, stack, unbroadcast
from tests.conftest import numeric_gradient


def check_unary(op, x_data, atol=1e-6):
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x)
    out.sum().backward()
    analytic = x.grad.copy()

    data = x_data.copy()

    def f():
        return float(op(Tensor(data)).sum().item())

    numeric = numeric_gradient(f, data)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_relu(self):
        check_unary(lambda t: t.relu(), self.rng.normal(size=(3, 4)) + 0.05)

    def test_relu_clips_non_finite_inputs(self):
        """It was ``x * (x > 0)``, and ``-inf * 0`` is ``nan``: one overflowed
        pre-activation poisoned the batch instead of being clipped.  The
        gradient mask is ``x > 0`` (zero at 0, zero where the input is nan)."""
        x = Tensor(
            np.array([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf, np.nan]), requires_grad=True
        )
        out = x.relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 0.0, 2.0, np.inf, np.nan])
        out.backward(np.full(7, 3.0))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 0.0])

    def test_sigmoid(self):
        check_unary(lambda t: t.sigmoid(), self.rng.normal(size=(3, 4)))

    def test_tanh(self):
        check_unary(lambda t: t.tanh(), self.rng.normal(size=(3, 4)))

    def test_exp(self):
        check_unary(lambda t: t.exp(), self.rng.normal(size=(3, 4)))

    def test_log(self):
        check_unary(lambda t: t.log(), self.rng.random((3, 4)) + 0.5)

    def test_pow(self):
        check_unary(lambda t: t**3, self.rng.normal(size=(3, 4)))

    def test_sqrt(self):
        check_unary(lambda t: t.sqrt(), self.rng.random((3, 4)) + 0.5)

    def test_neg(self):
        check_unary(lambda t: -t, self.rng.normal(size=(3, 4)))

    def test_log_softmax(self):
        check_unary(lambda t: t.log_softmax(axis=1), self.rng.normal(size=(3, 5)))

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(self.rng.normal(size=(4, 7)))
        s = x.softmax(axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(4), atol=1e-12)


class TestBinaryGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def _check_binary(self, op, a_shape, b_shape):
        a_data = self.rng.normal(size=a_shape)
        b_data = self.rng.normal(size=b_shape) + 2.0  # keep divisors away from 0
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        op(a, b).sum().backward()

        da, db = a_data.copy(), b_data.copy()

        def fa():
            return float(op(Tensor(da), Tensor(db)).sum().item())

        np.testing.assert_allclose(a.grad, numeric_gradient(fa, da), atol=1e-5)
        np.testing.assert_allclose(b.grad, numeric_gradient(fa, db), atol=1e-5)

    def test_add_same_shape(self):
        self._check_binary(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast_row(self):
        self._check_binary(lambda a, b: a + b, (3, 4), (4,))

    def test_add_broadcast_col(self):
        self._check_binary(lambda a, b: a + b, (3, 4), (3, 1))

    def test_mul_broadcast(self):
        self._check_binary(lambda a, b: a * b, (2, 3, 4), (4,))

    def test_sub(self):
        self._check_binary(lambda a, b: a - b, (3, 4), (3, 4))

    def test_div(self):
        self._check_binary(lambda a, b: a / b, (3, 4), (4,))

    def test_matmul_2d(self):
        self._check_binary(lambda a, b: a @ b, (3, 4), (4, 5))

    def test_matmul_vector(self):
        self._check_binary(lambda a, b: a @ b, (3, 4), (4,))

    def test_rsub_rdiv_radd_rmul_scalars(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        out = (1.0 - x) + (8.0 / x) + (3.0 * x) + (2.0 + x)
        out.sum().backward()
        # d/dx [1-x + 8/x + 3x + 2+x] = -1 - 8/x^2 + 3 + 1
        expected = -1 - 8 / np.array([2.0, 4.0]) ** 2 + 3 + 1
        np.testing.assert_allclose(x.grad, expected)


class TestReductionsAndShapes:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_sum_axis_keepdims(self):
        for axis, keep in [(None, False), (0, False), (1, True), ((0, 2), False)]:
            x_data = self.rng.normal(size=(2, 3, 4))
            x = Tensor(x_data.copy(), requires_grad=True)
            x.sum(axis=axis, keepdims=keep).sum().backward()
            np.testing.assert_allclose(x.grad, np.ones_like(x_data))

    def test_mean_gradient_scaling(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 1 / 20))

    def test_mean_axis(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 1 / 4))

    def test_max_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])

    def test_reshape_roundtrip(self):
        x = Tensor(self.rng.normal(size=(2, 6)), requires_grad=True)
        x.reshape(3, 4).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 6)))

    def test_transpose_gradient(self):
        x_data = self.rng.normal(size=(2, 3, 4))
        x = Tensor(x_data, requires_grad=True)
        (x.transpose(2, 0, 1) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(x_data.shape, 2.0))

    def test_getitem_scatter_adds(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        idx = np.array([0, 0, 3])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2, 0, 0, 1, 0])

    def test_stack_and_concatenate(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        a.zero_grad(), b.zero_grad()
        (concatenate([a, b], axis=0) * 3.0).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 3.0))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2).backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 6.0))

    def test_gradient_shape_mismatch_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 1.0).backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2
        z = y + y  # two paths through y
        z.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * 5).sum().backward()
        assert x.grad is None

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_attaches_no_backward_closure(self):
        """Ops assign ``out._backward`` after construction; under ``no_grad``
        (and for any output that does not require grad) nothing may stick."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            outs = [x * 2, x + 1.0, x @ w, x.relu(), x.sum(), x.reshape(3, 2), x[0], x.exp()]
        assert all(o._backward is None for o in outs)
        assert Tensor(np.ones(2)).relu()._backward is None  # grad mode, no grad input
        assert (x * 2)._backward is not None

    def test_no_grad_forward_frees_its_inputs(self):
        """A closure kept under ``no_grad`` would pin the whole activation
        chain (and every conv patch matrix) until the last output dies."""
        data = np.ones((2, 1, 4, 4))
        weight = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        with no_grad():
            hidden = F.conv2d(Tensor(data), weight, padding=1).relu()
            hidden_data = hidden.data
            out = F.max_pool2d(hidden, 2).sum()
        alive = [weakref.ref(data), weakref.ref(hidden_data)]
        del data, hidden, hidden_data
        gc.collect()
        assert out.item() > 0
        assert [ref() for ref in alive] == [None, None]

    def test_requires_grad_rejects_int_dtype(self):
        with pytest.raises(TypeError, match="floating"):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_item_requires_single_element(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).item()

    def test_clone_is_graph_connected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x.clone().sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(2))


class TestUnbroadcast:
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, rows, cols):
        # broadcasting (cols,) -> (rows, cols); adjoint sums over rows
        grad = np.ones((rows, cols))
        reduced = unbroadcast(grad, (cols,))
        np.testing.assert_allclose(reduced, np.full(cols, rows))

    def test_unbroadcast_keepdim_axis(self):
        grad = np.ones((3, 4))
        np.testing.assert_allclose(unbroadcast(grad, (3, 1)), np.full((3, 1), 4))

    def test_unbroadcast_identity(self):
        grad = np.ones((3, 4))
        np.testing.assert_allclose(unbroadcast(grad, (3, 4)), grad)


class TestPropertyBasedGradients:
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sum_of_squares_gradient_is_2x(self, values):
        x = Tensor(np.array(values), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.array(values), atol=1e-10)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shape_and_grad_shapes(self, n, m):
        rng = np.random.default_rng(n * 7 + m)
        a = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, m)), requires_grad=True)
        out = a @ b
        assert out.shape == (n, m)
        out.sum().backward()
        assert a.grad.shape == (n, 3)
        assert b.grad.shape == (3, m)
