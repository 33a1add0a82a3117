"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import IclError

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class NonFiniteGradientError(IclError):
    """Raised when a step sees NaN/Inf gradients; no parameter is touched."""


class AdamW:
    """Decoupled weight decay: p *= (1 - lr*wd) before the Adam update, with
    betas (``BETA1``, ``BETA2``) and ``EPS`` in the denominator."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient for parameter '{name}'")
            grads[name] = g
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
