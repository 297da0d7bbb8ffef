"""Adam optimizer with bias correction."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam over a fixed parameter list: the hyperparameters and the step
    count are held once, the moments m and v once per parameter."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One bias-corrected update of every parameter and moment in place. A
        parameter without a gradient gets a zero one; gradients are left intact."""
        self.t += 1
        # a diverging step overflows to inf/nan; the caller's finiteness
        # check reports that, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for p, m, v in zip(self.params, self.m, self.v):
                g = p.ensure_grad()
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * (g * g)
                update = m / (1.0 - self.beta1**self.t)
                update *= self.lr
                update /= np.sqrt(v / (1.0 - self.beta2**self.t)) + self.epsilon
                p.data -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
