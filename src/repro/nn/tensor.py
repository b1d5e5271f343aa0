"""Reverse-mode automatic differentiation over numpy arrays.

``Tensor`` wraps a ``numpy.ndarray``.  Each differentiable op records a
:class:`Node` on its output: the op name, the backward closure, the
gradient slot that backward accumulates into, and the parent *nodes*, not
tensors.  Calling :meth:`Tensor.backward` on a scalar output walks the
nodes in reverse topological order; leaves (parameters, the server's cut
input, anything built with ``requires_grad=True``) keep ``.grad`` on the
``Tensor``.

What a graph keeps alive is therefore exactly what the closures capture,
and each closure captures only the arrays its backward reads: an
activation that merely fed the next op dies once that op has run.  A
``no_grad`` forward, or one whose inputs need no gradient, builds no node.

Full numpy broadcasting is supported: gradients flowing into a broadcast
operand are summed over the broadcast axes by :func:`unbroadcast` so shapes
always match the forward values.  Only float64/float32 data participates in
differentiation; integer tensors (labels, indices) can be wrapped but must
not require grad.

``Tensor(...)`` is for data entering from outside and coerces it; ops build
their results with :meth:`Tensor._from_op`, which takes numpy's result as it
is and hands each closure the gradient sinks of the op's inputs (a parent
node, a leaf tensor, or ``None`` for an input no gradient reaches).  A
closure that has just allocated a gradient hands it to ``_accumulate`` with
``owned=True`` and it is adopted without a copy; one that passes on what it
was handed leaves the flag off.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

from repro.nn.dtype import get_default_dtype

__all__ = ["Node", "Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread grad-recording flag.

    Thread-local (not a module global) so a ``no_grad`` window in one
    thread cannot disable graph construction in another.
    """

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager disabling graph construction (for eval/inference)."""

    def __enter__(self) -> "no_grad":
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc: object) -> None:
        _grad_mode.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations are being recorded on the tape."""
    return _grad_mode.enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``.

    Numpy broadcasting may have (a) prepended axes and (b) stretched
    length-1 axes.  The adjoint of broadcasting is summation over exactly
    those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes (forward dim was 1, grad dim is larger).
    axes = tuple(
        i for i, (g_dim, s_dim) in enumerate(zip(grad.shape, shape)) if s_dim == 1 and g_dim != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: object, dtype: np.dtype | None = None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype.kind == "f":
        # Floating data enters the graph in the configured compute dtype
        # (float32 by default); integer/bool tensors pass through untouched.
        default = get_default_dtype()
        if arr.dtype != default:
            arr = arr.astype(default)
    return arr


class Node:
    """The autograd record of one op's output.

    ``parents`` holds one gradient sink per op input, in input order: the
    input's own node, the input tensor itself if it is a leaf that requires
    grad, or ``None``.  ``backward(grad, *parents)`` accumulates into them
    through ``_accumulate``, which a leaf ``Tensor`` shares.  Backward
    releases the record as it walks past it (see :meth:`Tensor.backward`).
    """

    __slots__ = ("parents", "backward", "grad", "op", "dtype")

    def __init__(self, parents: tuple, backward: Callable[..., None], op: str,
                 dtype: np.dtype) -> None:
        self.parents = parents
        self.backward: Callable[..., None] | None = backward
        self.grad: np.ndarray | None = None
        self.op = op
        self.dtype = dtype

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (lazily allocated).

        ``owned=True`` is the caller's promise that it allocated ``grad``
        during this call and keeps no reference that outlives it, so a
        first gradient is adopted instead of copied.  An op that forwards
        the gradient it was handed, or a view of it, must not pass it.
        """
        if self.grad is not None:
            self.grad += grad
        elif owned and grad.dtype == self.dtype:
            self.grad = grad
        else:
            self.grad = grad.astype(self.dtype, copy=True)


class Tensor:
    """A numpy array, plus the :class:`Node` of the op that produced it.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.
    requires_grad:
        If True, gradients are accumulated into ``self.grad`` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data: object, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                f"only floating-point tensors can require grad, got dtype {self.data.dtype}"
            )
        self.requires_grad = bool(requires_grad and _grad_mode.enabled)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    @staticmethod
    def _from_op(
        data: np.ndarray,
        inputs: tuple["Tensor", ...],
        op: str,
        backward: Callable[..., None],
    ) -> "Tensor":
        """The output of a differentiable op — how every op builds its result.

        ``data`` is what numpy computed and is kept as is: none of the
        coercion ``__init__`` applies to user input.  A node is recorded
        only if a gradient can reach one of ``inputs``; ``backward`` is then
        called as ``backward(grad, *sinks)``, one sink per input.  It must
        capture no input tensor, only the arrays it reads.
        """
        out = Tensor.__new__(Tensor)
        # full reductions hand back numpy scalars
        out.data = data if type(data) is np.ndarray else np.asarray(data)
        out.grad = None
        out.node = None
        out.requires_grad = False
        if _grad_mode.enabled:
            # a list comprehension and ``count``: generators cost ≈1 µs per op
            sinks = tuple([t.node or (t if t.requires_grad else None) for t in inputs])
            if sinks.count(None) < len(sinks):
                out.node = Node(sinks, backward, op, out.data.dtype)
                out.requires_grad = True
        return out

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python scalar."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    @staticmethod
    def _item_err() -> float:
        raise ValueError("item() only valid for one-element tensors")

    def clone(self) -> "Tensor":
        """Return a graph-connected copy."""
        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad)

        return Tensor._from_op(self.data.copy(), (self,), "clone", _bw)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph machinery
    # ------------------------------------------------------------------
    _accumulate = Node._accumulate  # a leaf is its own gradient sink

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor, releasing the graph as it goes.

        ``grad`` defaults to ones (the usual scalar-loss case requires a
        one-element tensor); this tensor keeps it as its ``.grad``.

        Nodes are popped off the topological order one at a time; once a
        node's closure has run, the closure, its parent links and its
        gradient are dropped, so a patch matrix or saved activation is
        freed before the layers upstream allocate their own gradients.
        The graph is therefore good for one pass: backpropagating through a
        node it already released raises ``RuntimeError``.  Leaves keep
        ``.grad``.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )
        root = self.node
        if root is None:
            if self.requires_grad:
                self._accumulate(grad)
            return

        # Topological order via iterative DFS (avoids recursion limits on
        # deep models).
        topo: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node.backward is None:
                raise RuntimeError(
                    f"backward() through a released {node.op!r} node: a graph is "
                    "freed by the backward pass that walks it; run the forward again"
                )
            stack.append((node, True))
            for parent in node.parents:
                if type(parent) is Node and id(parent) not in visited:
                    stack.append((parent, False))

        # Seed the output gradient and propagate in reverse topological
        # order.  Because children always precede their parents in the
        # reversed order, each node's gradient is fully accumulated before
        # its own backward closure fires — and is never read again after,
        # so the node is released on the spot.
        self._accumulate(grad)
        root.grad = self.grad
        while topo:
            node = topo.pop()
            if node.grad is not None:
                node.backward(node.grad, *node.parents)
            node.grad = node.backward = None
            node.parents = ()

    # ------------------------------------------------------------------
    # arithmetic ops
    # ------------------------------------------------------------------
    def _binary(self, other: object) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

    def __add__(self, other: object) -> "Tensor":
        other = self._binary(other)
        a_shape, b_shape = self.shape, other.shape

        def _bw(grad: np.ndarray, to_a: Node | None, to_b: Node | None) -> None:
            if to_a is not None:
                to_a._accumulate(unbroadcast(grad, a_shape))
            if to_b is not None:
                to_b._accumulate(unbroadcast(grad, b_shape))

        return Tensor._from_op(self.data + other.data, (self, other), "add", _bw)

    __radd__ = __add__

    def __mul__(self, other: object) -> "Tensor":
        other = self._binary(other)
        a, b = self.data, other.data

        def _bw(grad: np.ndarray, to_a: Node | None, to_b: Node | None) -> None:
            if to_a is not None:
                to_a._accumulate(unbroadcast(grad * b, a.shape), True)
            if to_b is not None:
                to_b._accumulate(unbroadcast(grad * a, b.shape), True)

        return Tensor._from_op(a * b, (self, other), "mul", _bw)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(-grad, True)

        return Tensor._from_op(-self.data, (self,), "neg", _bw)

    def __sub__(self, other: object) -> "Tensor":
        other = self._binary(other)
        a_shape, b_shape = self.shape, other.shape

        def _bw(grad: np.ndarray, to_a: Node | None, to_b: Node | None) -> None:
            if to_a is not None:
                to_a._accumulate(unbroadcast(grad, a_shape))
            if to_b is not None:
                to_b._accumulate(unbroadcast(-grad, b_shape), True)

        return Tensor._from_op(self.data - other.data, (self, other), "sub", _bw)

    def __rsub__(self, other: object) -> "Tensor":
        return self._binary(other) - self

    def __truediv__(self, other: object) -> "Tensor":
        other = self._binary(other)
        a, b = self.data, other.data

        def _bw(grad: np.ndarray, to_a: Node | None, to_b: Node | None) -> None:
            if to_a is not None:
                to_a._accumulate(unbroadcast(grad / b, a.shape), True)
            if to_b is not None:
                to_b._accumulate(unbroadcast(-grad * a / (b**2), b.shape), True)

        return Tensor._from_op(a / b, (self, other), "div", _bw)

    def __rtruediv__(self, other: object) -> "Tensor":
        return self._binary(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        x = self.data

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad * exponent * x ** (exponent - 1), True)

        return Tensor._from_op(x**exponent, (self,), "pow", _bw)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other, self.dtype))
        a, b = self.data, other.data

        def _bw(grad: np.ndarray, to_a: Node | None, to_b: Node | None) -> None:
            if to_a is not None:
                if b.ndim == 1:
                    ga = np.outer(grad, b) if a.ndim == 2 else grad * b
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                to_a._accumulate(unbroadcast(np.asarray(ga), a.shape), True)
            if to_b is not None:
                if a.ndim == 1:
                    gb = np.outer(a, grad) if b.ndim == 2 else grad * a
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                to_b._accumulate(unbroadcast(np.asarray(gb), b.shape), True)

        return Tensor._from_op(a @ b, (self, other), "matmul", _bw)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
            to_x._accumulate(np.broadcast_to(g, shape).copy(), True)

        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        return Tensor._from_op(out_data, (self,), "sum", _bw)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        x = self.data
        out_data = x.max(axis=axis, keepdims=keepdims)

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            g = grad
            full = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                full = np.expand_dims(out_data, axis)
            mask = x == full
            # Split gradient equally among ties (matches numpy/torch behaviour
            # closely enough for training purposes).
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            to_x._accumulate(mask * g / denom, True)

        return Tensor._from_op(out_data, (self,), "max", _bw)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.data.shape

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad.reshape(in_shape))

        return Tensor._from_op(self.data.reshape(shape), (self,), "reshape", _bw)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes_t))

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad.transpose(inverse))

        return Tensor._from_op(self.data.transpose(axes_t), (self,), "transpose", _bw)

    def __getitem__(self, index: object) -> "Tensor":
        shape, dtype = self.data.shape, self.data.dtype

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            full = np.zeros(shape, dtype)
            np.add.at(full, index, grad)
            to_x._accumulate(full, True)

        return Tensor._from_op(self.data[index], (self,), "getitem", _bw)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad * out_data, True)

        return Tensor._from_op(out_data, (self,), "exp", _bw)

    def log(self) -> "Tensor":
        x = self.data

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad / x, True)

        return Tensor._from_op(np.log(x), (self,), "log", _bw)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)  # not ``x * mask``: ``-inf * 0`` is nan

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad * (out_data > 0), True)

        return Tensor._from_op(out_data, (self,), "relu", _bw)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad * out_data * (1.0 - out_data), True)

        return Tensor._from_op(out_data, (self,), "sigmoid", _bw)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            to_x._accumulate(grad * (1.0 - out_data**2), True)

        return Tensor._from_op(out_data, (self,), "tanh", _bw)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_z

        def _bw(grad: np.ndarray, to_x: Node) -> None:
            softmax = np.exp(out_data)
            to_x._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True), True)

        return Tensor._from_op(out_data, (self,), "log_softmax", _bw)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (autograd-aware)."""
    tensors = tuple(tensors)

    def _bw(grad: np.ndarray, *sinks: Node | None) -> None:
        pieces = np.split(grad, len(sinks), axis=axis)
        for sink, piece in zip(sinks, pieces):
            if sink is not None:
                sink._accumulate(np.squeeze(piece, axis=axis))

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._from_op(data, tensors, "stack", _bw)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis (autograd-aware)."""
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(grad: np.ndarray, *sinks: Node | None) -> None:
        for sink, start, end in zip(sinks, offsets[:-1], offsets[1:]):
            if sink is not None:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, end)
                sink._accumulate(grad[tuple(sl)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._from_op(data, tensors, "concat", _bw)
