"""First-order optimizers.

The paper trains both model halves with SGD (§II-B-2: "The update of the
server-side model parameters can be accomplished through methods such as
stochastic gradient descent").  SGD with optional momentum/weight-decay is
the workhorse; Adam is provided for the centralized baseline and ablations.

Optimizers hold per-parameter state keyed by ``id(param)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay.

    ``velocity`` buffers are created lazily on the first step.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                v = self.momentum * v + grad
                self._velocity[id(p)] = v
                grad = grad + self.momentum * v if self.nesterov else v
            p.data = p.data - self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
