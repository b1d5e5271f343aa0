"""Reverse-mode automatic differentiation over numpy arrays.

``Tensor`` wraps a ``numpy.ndarray`` and records the operations applied to
it in a dynamic computation graph.  Calling :meth:`Tensor.backward` on a
scalar output walks the graph in reverse topological order, accumulating
gradients into every tensor created with ``requires_grad=True``.

The design mirrors the micro-autograd pattern (define-by-run tape with
per-op backward closures) but supports full numpy broadcasting: gradients
flowing into a broadcast operand are summed over the broadcast axes by
:func:`unbroadcast` so shapes always match the forward values.

Only float64/float32 data participates in differentiation; integer tensors
(labels, indices) can be wrapped but must not require grad.

``Tensor(...)`` is for data entering from outside and coerces it; ops build
their results with :meth:`Tensor._from_op`, which takes numpy's result as it
is.  A backward closure that has just allocated a gradient hands it to
:meth:`Tensor._accumulate` with ``owned=True`` and it becomes the ``.grad``
without a copy; one that passes on what it was handed leaves the flag off.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn.dtype import get_default_dtype

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread grad-recording flag.

    Thread-local (not a module global) so one worker's ``no_grad``
    evaluation window cannot disable graph construction in a concurrently
    training thread-pool worker.
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


class Tensor:
    """A numpy-backed array node in a dynamic autodiff graph.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.
    requires_grad:
        If True, gradients are accumulated into ``self.grad`` on backward.
    _parents, _backward, _op:
        Internal tape bookkeeping; library code only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_closure", "_op")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "",
    ) -> None:
        self.data = _as_array(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                f"only floating-point tensors can require grad, got dtype {self.data.dtype}"
            )
        grad_enabled = _grad_mode.enabled
        self.requires_grad = bool(requires_grad and grad_enabled)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = tuple(_parents) if grad_enabled else ()
        self._backward = _backward
        self._op = _op

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        """Backward closure; kept only on tensors that require grad.

        Settable on a tensor built with ``Tensor(..., _parents=...)``
        (library ops go through :meth:`_from_op`, which applies the same
        gate).  The gate is what lets a ``no_grad`` forward free its inputs
        and conv patch matrices as it goes: a closure no gradient will ever
        reach would otherwise pin everything it captured.
        """
        return self._closure

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None] | None) -> None:
        self._closure = fn if self.requires_grad else None

    @staticmethod
    def _from_op(
        data: np.ndarray,
        requires_grad: bool,
        parents: tuple["Tensor", ...],
        op: str,
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """The output of a differentiable op — how every op builds its result.

        ``data`` is what numpy computed and is kept as is: none of the
        coercion ``__init__`` applies to user input.  Parents and closure
        are kept only if a gradient can reach the node.
        """
        out = Tensor.__new__(Tensor)
        # full reductions hand back numpy scalars
        out.data = data if type(data) is np.ndarray else np.asarray(data)
        out.grad = None
        out._op = op
        out.requires_grad = keep = requires_grad and _grad_mode.enabled
        out._parents = parents if keep else ()
        out._closure = backward if keep else None
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

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = f", op={self._op!r}" if self._op else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag}{op})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python scalar."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    @staticmethod
    def _item_err() -> float:
        raise ValueError("item() only valid for one-element tensors")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a graph-connected copy."""
        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad)

        return Tensor._from_op(self.data.copy(), self.requires_grad, (self,), "clone", _bw)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (lazily allocated).

        ``owned=True`` is the caller's promise that it allocated ``grad``
        during this call and keeps no reference that outlives it, so a
        first gradient is adopted instead of copied.  An op that forwards
        the gradient it was handed, or a view of it, must not pass it.
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += grad
        elif owned and grad.dtype == self.data.dtype:
            self.grad = grad
        else:
            self.grad = grad.astype(self.data.dtype, copy=True)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (the usual scalar-loss case requires a
        one-element tensor).
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

        # Topological order via iterative DFS (avoids recursion limits on
        # deep models).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Seed the output gradient and propagate in reverse topological
        # order.  Because children always precede their parents in the
        # reversed order, each node's ``.grad`` is fully accumulated before
        # its own backward closure fires.
        self._accumulate(grad)
        for node in reversed(topo):
            closure = node._closure
            if closure is not None and node.grad is not None:
                closure(node.grad)
        # Interior (non-leaf) gradients are transient; free them so only
        # leaves retain ``.grad`` and graph memory is released promptly.
        for node in topo:
            if node._parents and node is not self:
                node.grad = None
            node._parents = ()
            node._closure = None

    # ------------------------------------------------------------------
    # arithmetic ops
    # ------------------------------------------------------------------
    def _binary(self, other: object) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))

    def __add__(self, other: object) -> "Tensor":
        other = self._binary(other)

        def _bw(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._from_op(
            self.data + other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "add",
            _bw,
        )

    __radd__ = __add__

    def __mul__(self, other: object) -> "Tensor":
        other = self._binary(other)

        def _bw(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.shape), True)

        return Tensor._from_op(
            self.data * other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "mul",
            _bw,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def _bw(grad: np.ndarray) -> None:
            self._accumulate(-grad, True)

        return Tensor._from_op(-self.data, self.requires_grad, (self,), "neg", _bw)

    def __sub__(self, other: object) -> "Tensor":
        other = self._binary(other)

        def _bw(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(-grad, other.shape), True)

        return Tensor._from_op(
            self.data - other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "sub",
            _bw,
        )

    def __rsub__(self, other: object) -> "Tensor":
        return self._binary(other) - self

    def __truediv__(self, other: object) -> "Tensor":
        other = self._binary(other)

        def _bw(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data**2), other.shape), True
                )

        return Tensor._from_op(
            self.data / other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "div",
            _bw,
        )

    def __rtruediv__(self, other: object) -> "Tensor":
        return self._binary(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), True)

        return Tensor._from_op(
            self.data**exponent, self.requires_grad, (self,), "pow", _bw
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other, self.dtype))

        def _bw(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.outer(grad, b) if a.ndim == 2 else grad * b
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(unbroadcast(np.asarray(ga), self.shape), True)
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.outer(a, grad) if b.ndim == 2 else grad * a
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(unbroadcast(np.asarray(gb), other.shape), True)

        return Tensor._from_op(
            self.data @ other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
            "matmul",
            _bw,
        )

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        def _bw(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                g = np.expand_dims(g, tuple(a % self.data.ndim for a in axes))
            self._accumulate(np.broadcast_to(g, self.data.shape).copy(), True)

        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        return Tensor._from_op(out_data, self.requires_grad, (self,), "sum", _bw)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def _bw(grad: np.ndarray) -> None:
            g = grad
            full = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                full = np.expand_dims(out_data, axis)
            mask = self.data == full
            # Split gradient equally among ties (matches numpy/torch behaviour
            # closely enough for training purposes).
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / denom, True)

        return Tensor._from_op(out_data, self.requires_grad, (self,), "max", _bw)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor._from_op(
            self.data.reshape(shape), self.requires_grad, (self,), "reshape", _bw
        )

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes_t))

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._from_op(
            self.data.transpose(axes_t), self.requires_grad, (self,), "transpose", _bw
        )

    def __getitem__(self, index: object) -> "Tensor":
        def _bw(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, True)

        return Tensor._from_op(self.data[index], self.requires_grad, (self,), "getitem", _bw)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, True)

        return Tensor._from_op(out_data, self.requires_grad, (self,), "exp", _bw)

    def log(self) -> "Tensor":
        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, True)

        return Tensor._from_op(np.log(self.data), self.requires_grad, (self,), "log", _bw)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)  # not ``x * mask``: ``-inf * 0`` is nan

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * (out_data > 0), True)

        return Tensor._from_op(out_data, self.requires_grad, (self,), "relu", _bw)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data), True)

        return Tensor._from_op(out_data, self.requires_grad, (self,), "sigmoid", _bw)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2), True)

        return Tensor._from_op(out_data, self.requires_grad, (self,), "tanh", _bw)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_z

        def _bw(grad: np.ndarray) -> None:
            softmax = np.exp(out_data)
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True), True)

        return Tensor._from_op(out_data, self.requires_grad, (self,), "log_softmax", _bw)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (autograd-aware)."""
    tensors = tuple(tensors)

    def _bw(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._from_op(
        np.stack([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
        tensors,
        "stack",
        _bw,
    )


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis (autograd-aware)."""
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(grad: np.ndarray) -> None:
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, end)
                t._accumulate(grad[tuple(sl)])

    return Tensor._from_op(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
        tensors,
        "concat",
        _bw,
    )
