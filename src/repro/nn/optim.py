"""First-order optimizers.

The paper trains both model halves with SGD (§II-B-2: "The update of the
server-side model parameters can be accomplished through methods such as
stochastic gradient descent").  Every scheme, the centralized baseline
included, trains with plain SGD; :class:`Optimizer` is the interface the
split-training step types against.
"""

from __future__ import annotations

from typing import Iterable

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD"]


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
    """Plain stochastic gradient descent: ``p <- p - lr * grad``.

    It keeps no state between steps, so a fresh optimizer per step equals
    a persistent one.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01) -> None:
        super().__init__(params, lr)

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            p.data = p.data - self.lr * p.grad
