"""SGD with momentum, weight decay, per-parameter learning-rate
multipliers, and a reduce-on-plateau schedule.

Update rule (decay inside the velocity update):
    v <- mu * v - (lr * mult) * (g + wd * p)
    p <- p + v
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import need
from .errors import MissingGradient


@dataclass
class PlateauConfig:
    factor: float = need("in (0, 1]", 0.1)
    patience: int = need(">= 0", 5)
    rel_threshold: float = need("in [0, 1)", 1e-3)
    min_lr: float = need(">= 0", 1e-6)


class SGD:
    def __init__(self, params, lr: float = 1e-3, momentum: float = 0.9,
                 weight_decay: float = 1e-4, plateau: PlateauConfig | None = None):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.plateau = plateau or PlateauConfig()
        self.buffers = [np.zeros_like(p.tensor.data) for p in self.params]
        self.best = None
        self.bad_epochs = 0

    def step(self):
        for p in self.params:
            if p.tensor.grad is None:
                raise MissingGradient(f"parameter {p.name} has no gradient")
        for p, buf in zip(self.params, self.buffers):
            g = p.tensor.grad + self.weight_decay * p.tensor.data
            buf *= self.momentum
            buf -= (self.lr * p.lr_mult) * g
            p.tensor.data = p.tensor.data + buf
            p.tensor.grad = None

    def plateau_update(self, monitored: float) -> float:
        """Per-epoch schedule hook; returns the (possibly reduced) lr.

        The lr is cut by ``factor`` once ``monitored`` has failed to improve
        by a relative margin for ``patience`` consecutive epochs.
        """
        monitored = float(monitored)
        if self.best is None or monitored < self.best * (1.0 - self.plateau.rel_threshold):
            self.best = monitored if self.best is None else min(self.best, monitored)
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.plateau.patience:
                self.lr = max(self.lr * self.plateau.factor, self.plateau.min_lr)
                self.bad_epochs = 0
        return self.lr

    def state(self) -> dict:
        return {"lr": self.lr, "best": self.best, "bad_epochs": self.bad_epochs}
