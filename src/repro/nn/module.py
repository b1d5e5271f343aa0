"""Module containers: parameter registration, train/eval mode, state dicts.

Mirrors the familiar ``torch.nn.Module`` contract at the scale this library
needs: attribute assignment auto-registers :class:`Parameter` and
:class:`Module` children, ``state_dict`` flattens parameters (and buffers,
e.g. batch-norm running statistics) into an ordered mapping of numpy
arrays, and ``load_state_dict`` restores them by name with shape checking.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn.dtype import get_default_dtype
from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter(Tensor):
    """A tensor that is a trainable parameter of a module.

    Allocated in the configured compute dtype
    (:func:`repro.nn.dtype.get_default_dtype`, float32 by default).
    """

    def __init__(self, data: object) -> None:
        super().__init__(
            np.asarray(data, dtype=get_default_dtype()), requires_grad=True
        )


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_num_params_cache", None)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            object.__setattr__(self, "_num_params_cache", None)
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. running stats).

        Buffers are allocated in the configured compute dtype (float32 by
        default); later updates keep whatever dtype the buffer was
        registered with.
        """
        self._buffers[name] = np.asarray(value, dtype=get_default_dtype())
        object.__setattr__(self, name, self._buffers[name])

    def _update_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's contents, keeping registration."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        dtype = self._buffers[name].dtype
        self._buffers[name] = np.asarray(value, dtype=dtype)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters, depth-first."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs, depth-first."""
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # ------------------------------------------------------------------
    # mode & grads
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set train/eval mode recursively; returns self for chaining."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode (affects dropout, batch norm)."""
        return self.train(False)

    def num_parameters(self) -> int:
        """Total scalar parameter count.

        Each module caches its *own* parameters' scalar count (invalidated
        when a parameter is (re)assigned) and recursion only walks the
        module tree — latency pricing calls this every round, and the seed
        implementation re-walked every parameter of every layer each time.
        """
        own = self._num_params_cache
        if own is None:
            own = sum(p.size for p in self._parameters.values())
            object.__setattr__(self, "_num_params_cache", own)
        return own + sum(m.num_parameters() for m in self._modules.values())

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self, copy: bool = True) -> "OrderedDict[str, np.ndarray]":
        """All parameters and buffers as an ordered name→array map.

        ``copy=False`` returns the live arrays without copying.  This is
        safe whenever the module will not be trained or reloaded while the
        state dict is still in use — and in fact the substrate never
        mutates parameter or buffer arrays in place (optimizers and buffer
        updates *rebind* ``param.data`` / the buffer entry to a fresh
        array), so a no-copy snapshot stays valid across further training;
        it just stops tracking the module.  Use the default ``copy=True``
        when unsure.
        """
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        if copy:
            for name, param in self.named_parameters():
                state[name] = param.data.copy()
            for name, buf in self.named_buffers():
                state[name] = buf.copy()
        else:
            for name, param in self.named_parameters():
                state[name] = param.data
            for name, buf in self.named_buffers():
                state[name] = buf
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], copy: bool = True) -> None:
        """Restore parameters and buffers from :meth:`state_dict` output.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch — silent partial loads hide split/aggregation bugs.
        Values are cast to each parameter's/buffer's existing dtype.
        ``copy=False`` adopts the incoming arrays without copying (when no
        cast is needed); callers own the guarantee that they will not
        mutate ``state``'s arrays afterwards.
        """
        param_map = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        for name in param_map:
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
        for name in buffer_owners:
            if name not in state:
                raise KeyError(f"state dict is missing buffer {name!r}")
        for name, param in param_map.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=copy)
        for name, (owner, local) in buffer_owners.items():
            value = np.asarray(state[name])
            if value.shape != owner._buffers[local].shape:
                raise ValueError(
                    f"shape mismatch for buffer {name!r}: expected "
                    f"{owner._buffers[local].shape}, got {value.shape}"
                )
            # _update_buffer adopts same-dtype arrays by reference; copy
            # here so copy=True keeps its promise for buffers too.
            if copy and value.dtype == owner._buffers[local].dtype:
                value = value.copy()
            owner._update_buffer(local, value)

    def _buffer_owners(
        self, prefix: str = ""
    ) -> "OrderedDict[str, tuple[Module, str]]":
        """Map dotted buffer names to their owning module and local name."""
        owners: OrderedDict[str, tuple[Module, str]] = OrderedDict()
        for name in self._buffers:
            owners[prefix + name] = (self, name)
        for mod_name, module in self._modules.items():
            owners.update(module._buffer_owners(prefix=f"{prefix}{mod_name}."))
        return owners

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Sequential(Module):
    """Chain of modules applied in order.

    Supports integer indexing and slicing; slicing returns a new
    ``Sequential`` sharing the same child modules (used by the split-model
    machinery to form client-side / server-side halves).
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __getitem__(self, index: int | slice) -> "Module | Sequential":
        if isinstance(index, slice):
            return Sequential(*self.layers[index])
        return self.layers[index]
