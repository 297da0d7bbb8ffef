"""Adam optimizer with bias correction."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a fixed parameter list at learning rate ``lr``, with the
    module's ``BETA1``, ``BETA2`` and ``EPSILON``: the step count is held
    once, the moments m and v once per parameter."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One bias-corrected update of every parameter and moment in place,
        which consumes the gradients: each is zero after its update, ready to
        accumulate the next. A parameter without a gradient gets a zero one."""
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.ensure_grad()
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = m / (1.0 - BETA1**self.t)
            update *= self.lr
            update /= np.sqrt(v / (1.0 - BETA2**self.t)) + EPSILON
            p.data -= update
            g.fill(0.0)
