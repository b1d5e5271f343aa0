"""Autograd engine tests: op-by-op gradients vs finite differences,
broadcasting adjoints, graph mechanics."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Node, Tensor, concatenate, no_grad, stack, unbroadcast
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

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y.node is None

    def test_no_grad_attaches_no_backward_closure(self):
        """Ops hand their closure to ``Tensor._from_op``; under ``no_grad``
        (and for any output that does not require grad) it builds no node."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            outs = [x * 2, x + 1.0, x @ w, x.relu(), x.sum(), x.reshape(3, 2), x[0], x.exp()]
        assert all(o.node is None for o in outs)
        assert Tensor(np.ones(2)).relu().node is None  # grad mode, no grad input
        assert (x * 2).node.backward is not None

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


def _leaf(rng, *shape, positive=False):
    data = rng.uniform(0.5, 2.0, size=shape) if positive else rng.normal(size=shape)
    return Tensor(data, requires_grad=True)


def _unary(op, *shape, positive=False):
    def build(rng):
        return [_leaf(rng, *shape, positive=positive)], op

    return build


def _binary(op, shape_a, shape_b):
    def build(rng):
        return [_leaf(rng, *shape_a), _leaf(rng, *shape_b, positive=True)], op

    return build


def _linear(x_shape, bias=True):
    def build(rng):
        x, w = _leaf(rng, *x_shape), _leaf(rng, 3, x_shape[-1])
        return ([x, w, _leaf(rng, 3)], F.linear) if bias else ([x, w], F.linear)

    return build


def _conv2d(stride, padding):
    def build(rng):
        x, w, b = _leaf(rng, 2, 2, 6, 6), _leaf(rng, 3, 2, 3, 3), _leaf(rng, 3)
        return [x, w, b], lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding)

    return build


def _batch_norm(layer_cls, shape, training):
    def build(rng):
        bn = layer_cls(shape[1])
        bn.train(training)
        # the layer reads its own parameters, which are the leaves
        return [_leaf(rng, *shape), bn.gamma, bn.beta], lambda x, gamma, beta: bn(x)

    return build


def _loss(loss_cls, reduction="mean"):
    def build(rng):
        x, targets = _leaf(rng, 5, 4), rng.integers(0, 4, size=5)
        return [x], lambda x: loss_cls(reduction)(x, targets)

    return build


#: every op of ``tensor.py``, ``functional.py`` and ``norm.py``, and each
#: branch of their backwards: name -> ``build(rng) -> (leaves, apply)``,
#: where ``apply(*leaves)`` is the op's output
OP_CASES = {
    "add": _binary(lambda a, b: a + b, (3, 4), (3, 4)),
    "add_broadcast": _binary(lambda a, b: a + b, (3, 4), (4,)),
    "add_scalar": _unary(lambda x: x + 2.0, 3, 4),
    "mul": _binary(lambda a, b: a * b, (3, 4), (3, 4)),
    "mul_broadcast": _binary(lambda a, b: a * b, (3, 4), (3, 1)),
    "sub": _binary(lambda a, b: a - b, (3, 4), (3, 4)),
    "sub_broadcast": _binary(lambda a, b: a - b, (3, 4), (3, 1)),
    "rsub": _unary(lambda x: 2.0 - x, 3, 4),
    "div": _binary(lambda a, b: a / b, (3, 4), (3, 4)),
    "div_broadcast": _binary(lambda a, b: a / b, (3, 4), (4,)),
    "rtruediv": _unary(lambda x: 2.0 / x, 3, 4, positive=True),
    "matmul": _binary(lambda a, b: a @ b, (3, 4), (4, 2)),
    "matmul_vector": _binary(lambda a, b: a @ b, (3, 4), (4,)),
    "matmul_vector_left": _binary(lambda a, b: a @ b, (4,), (4, 2)),
    "matmul_dot": _binary(lambda a, b: a @ b, (4,), (4,)),
    "matmul_batched": _binary(lambda a, b: a @ b, (2, 3, 4), (4, 2)),
    "neg": _unary(lambda x: -x, 3, 4),
    "pow": _unary(lambda x: x**3, 3, 4),
    "sqrt": _unary(lambda x: x.sqrt(), 3, 4, positive=True),
    "sum": _unary(lambda x: x.sum(axis=0), 3, 4),
    "sum_all": _unary(lambda x: x.sum(), 3, 4),
    "sum_keepdims": _unary(lambda x: x.sum(axis=1, keepdims=True), 3, 4),
    "mean": _unary(lambda x: x.mean(axis=1, keepdims=True), 3, 4),
    "mean_all": _unary(lambda x: x.mean(), 3, 4),
    "max": _unary(lambda x: x.max(axis=1), 3, 4),
    "max_all": _unary(lambda x: x.max(), 3, 4),
    "max_keepdims": _unary(lambda x: x.max(axis=0, keepdims=True), 3, 4),
    "reshape": _unary(lambda x: x.reshape(4, 3), 3, 4),
    "transpose": _unary(lambda x: x.transpose(), 3, 4),
    "transpose_axes": _unary(lambda x: x.transpose(1, 2, 0), 2, 3, 4),
    "T": _unary(lambda x: x.T, 3, 4),
    "getitem": _unary(lambda x: x[1:, ::2], 3, 4),
    "getitem_int": _unary(lambda x: x[1], 3, 4),
    "getitem_repeated": _unary(lambda x: x[[0, 2, 0]], 3, 4),
    "clone": _unary(lambda x: x.clone(), 3, 4),
    "exp": _unary(lambda x: x.exp(), 3, 4),
    "log": _unary(lambda x: x.log(), 3, 4, positive=True),
    "relu": _unary(lambda x: x.relu(), 3, 4),
    "sigmoid": _unary(lambda x: x.sigmoid(), 3, 4),
    "tanh": _unary(lambda x: x.tanh(), 3, 4),
    "log_softmax": _unary(lambda x: x.log_softmax(axis=1), 3, 4),
    "softmax": _unary(lambda x: x.softmax(axis=1), 3, 4),
    "softmax_axis0": _unary(lambda x: x.softmax(axis=0), 3, 4),
    "stack": _binary(lambda a, b: stack([a, b], axis=1), (3, 4), (3, 4)),
    "concatenate": _binary(lambda a, b: concatenate([a, b], axis=1), (3, 4), (3, 2)),
    "linear": _linear((4, 6)),
    "linear_no_bias": _linear((4, 6), bias=False),
    "linear_vector": _linear((6,)),
    "conv2d": _conv2d(stride=1, padding=1),
    "conv2d_strided": _conv2d(stride=2, padding=0),
    "max_pool2d": _unary(lambda x: F.max_pool2d(x, 2), 2, 2, 4, 4),
    "max_pool2d_overlapping": _unary(lambda x: F.max_pool2d(x, 3, stride=1), 2, 2, 5, 5),
    "max_pool2d_ragged": _unary(lambda x: F.max_pool2d(x, 2), 2, 2, 5, 5),
    # stride > kernel: entries between the windows get no gradient
    "max_pool2d_sparse": _unary(lambda x: F.max_pool2d(x, 2, stride=3), 2, 2, 5, 5),
    "batch_norm2d": _batch_norm(nn.BatchNorm2d, (4, 3, 2, 2), True),
    "batch_norm1d": _batch_norm(nn.BatchNorm1d, (6, 3), True),
    "batch_norm2d_eval": _batch_norm(nn.BatchNorm2d, (4, 3, 2, 2), False),
    "cross_entropy": _loss(nn.CrossEntropyLoss),
    # the unscaled branch of the backward
    "cross_entropy_sum": _loss(nn.CrossEntropyLoss, "sum"),
}


def _build(name, rng):
    """The leaves of ``OP_CASES[name]`` and the op's output on them."""
    leaves, apply = OP_CASES[name](rng)
    return leaves, apply(*leaves)


#: ops whose backward forwards the gradient it is handed, or a view of it:
#: name -> the leaf gradients as views of the root's
FORWARDING_OPS = {
    "add": lambda g: [g, g],
    "add_scalar": lambda g: [g],
    "sub": lambda g: [g, -g],
    "reshape": lambda g: [g.reshape(3, 4)],
    "transpose": lambda g: [g.T],
    "transpose_axes": lambda g: [g.transpose(2, 0, 1)],
    "T": lambda g: [g.T],
    "clone": lambda g: [g],
    "concatenate": lambda g: [g[:, :4], g[:, 4:]],
    "stack": lambda g: [g[:, 0], g[:, 1]],
}


class TestEveryOpMatchesFiniteDifferences:
    """Each leaf gradient of each op equals the central difference of
    ``sum(op(leaves) * upstream)``, the upstream gradient a random array."""

    @pytest.mark.parametrize("name", OP_CASES)
    def test_leaf_gradients(self, name):
        rng = np.random.default_rng(1)
        leaves, apply = OP_CASES[name](rng)
        out = apply(*leaves)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)

        def f():
            with no_grad():
                return float(np.sum(apply(*leaves).data * upstream))

        for leaf in leaves:
            numeric = numeric_gradient(f, leaf.data)
            np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-5, atol=1e-6)


class TestNodesKeepNoTensor:
    """A closure captures the arrays its backward reads, never a tensor: a
    captured tensor would pin its data, and through its node the graph
    above it, until backward reached the closure."""

    @pytest.mark.parametrize("name", OP_CASES)
    def test_no_closure_in_the_graph_captures_a_tensor(self, name):
        _, out = _build(name, np.random.default_rng(0))
        pending, seen = [out.node], 0
        while pending:
            node = pending.pop()
            seen += 1
            captured = [cell.cell_contents for cell in node.backward.__closure__ or ()]
            captured += [v for c in captured if isinstance(c, (tuple, list)) for v in c]
            assert not any(isinstance(c, Tensor) for c in captured), node.op
            pending.extend(p for p in node.parents if isinstance(p, Node))
        assert seen >= 1


class TestGradientOwnership:
    """``_accumulate`` adopts arrays handed over with ``owned=True``; that
    must never leave two tensors looking at the same memory."""

    @staticmethod
    def _backward(name):
        rng = np.random.default_rng(0)
        leaves, out = _build(name, rng)
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        return leaves, out, seed

    @pytest.mark.parametrize("name", OP_CASES)
    def test_no_gradient_aliases_anything(self, name):
        leaves, out, seed = self._backward(name)
        grads = [t.grad for t in leaves + [out]]
        assert all(isinstance(g, np.ndarray) for g in grads)
        foreign = [t.data for t in leaves + [out]] + [seed]
        for i, grad in enumerate(grads):
            assert grad.flags.writeable
            assert not any(np.shares_memory(grad, other) for other in grads[i + 1 :])
            assert not any(np.shares_memory(grad, other) for other in foreign)

    @pytest.mark.parametrize("name", OP_CASES)
    def test_mutating_a_gradient_touches_nothing_else(self, name):
        leaves, out, seed = self._backward(name)
        tensors = leaves + [out]
        for victim in leaves:
            others = [t for t in tensors if t is not victim]
            before = [(t.data.copy(), t.grad.copy()) for t in others] + [
                (victim.data.copy(), seed.copy())
            ]
            victim.grad[...] = 12345.0
            after = [(t.data, t.grad) for t in others] + [(victim.data, seed)]
            for (data0, grad0), (data1, grad1) in zip(before, after):
                np.testing.assert_array_equal(data0, data1)
                np.testing.assert_array_equal(grad0, grad1)

    @pytest.mark.parametrize("name", FORWARDING_OPS)
    def test_forwarding_ops_still_copy(self, name):
        """The root keeps its gradient, so a forwarded view would alias it."""
        leaves, out, _ = self._backward(name)
        for leaf, want in zip(leaves, FORWARDING_OPS[name](out.grad), strict=True):
            np.testing.assert_array_equal(leaf.grad, want)
            assert not np.shares_memory(leaf.grad, out.grad)

    def test_tensor_consumed_twice_accumulates_the_same_bits(self):
        rng = np.random.default_rng(2)
        seed = rng.normal(size=(4, 3))

        x = _leaf(rng, 4, 3)
        (x.relu() + x.relu()).backward(seed)
        want = seed * (x.data > 0)
        want += seed * (x.data > 0)
        assert x.grad.tobytes() == want.tobytes()

        a = _leaf(rng, 4, 3)
        (a + a).backward(seed)
        assert a.grad.tobytes() == (seed + seed).tobytes()

        w, x1, x2 = _leaf(rng, 3, 5), _leaf(rng, 4, 5), _leaf(rng, 4, 5)
        (F.linear(x1, w) + F.linear(x2, w)).backward(seed)
        want = (x1.data.T @ seed).T + (x2.data.T @ seed).T
        assert w.grad.tobytes() == want.tobytes()
        assert not np.shares_memory(x1.grad, x2.grad)

    def test_second_backward_accumulates_into_an_adopted_gradient(self):
        x = Tensor(np.array([-1.0, 2.0, 3.0]), requires_grad=True)
        x.relu().backward(np.array([1.0, 1.0, 1.0]))
        first = x.grad
        x.relu().backward(np.array([1.0, 2.0, 3.0]))
        assert x.grad is first
        np.testing.assert_array_equal(x.grad, [0.0, 3.0, 4.0])

    def test_gradient_is_cast_to_the_tensor_dtype_not_adopted(self):
        """``max`` divides by an integer tie count: a float64 gradient for a
        float32 tensor."""
        with nn.default_dtype(np.float32):
            x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
            x.max(axis=1).backward(np.array([1.0], dtype=np.float32))
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [[0.0, 0.5, 0.5]])


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
