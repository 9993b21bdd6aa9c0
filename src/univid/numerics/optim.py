"""AdamW with decoupled weight decay, and `fit`, the one training loop.
Frozen parameters are never touched."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .module import Parameter
from .tensor import NumericsError, Tensor


class MissingStateError(NumericsError):
    pass


class AdamW:
    """Moments are kept only for parameters that were trainable at construction.
    Stepping a trainable parameter without state is an error; frozen
    parameters are skipped and stay bitwise unchanged.
    State is kept by position in `params`; `state_dict` keys it by unique name."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.moments: list[tuple[np.ndarray, np.ndarray] | None] = [
            (np.zeros_like(p.data), np.zeros_like(p.data)) if p.trainable else None for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = np.zeros_like(p.data)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, (p, state) in enumerate(zip(self.params, self.moments)):
            if not p.trainable:
                continue
            if state is None:
                raise MissingStateError(f"no optimizer state for trainable parameter #{i} {p.name!r}")
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.data)
            m, v = state
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            upd = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                upd = upd + self.weight_decay * p.data
            p.tensor.data = (p.data - self.lr * upd).astype(p.data.dtype)

    # -- checkpoint support ----------------------------------------------

    def _names(self) -> list[str]:
        names = [p.name for p in self.params]
        dups = sorted({n for n in names if names.count(n) > 1})
        if dups:
            raise NumericsError(f"duplicate parameter names {dups}; state_dict keys moments by name")
        return names

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "lr": self.lr,
            "betas": (self.beta1, self.beta2),
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "moments": {n: (s[0].copy(), s[1].copy()) for n, s in zip(self._names(), self.moments)
                        if s is not None},
        }

    def load_state_dict(self, state: dict) -> None:
        names = self._names()
        self.step_count = int(state["step_count"])
        self.lr = float(state["lr"])
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        saved = state["moments"]
        self.moments = [(np.array(saved[n][0]), np.array(saved[n][1])) if n in saved else None
                        for n in names]


def fit(params: list[Parameter], loss_at: Callable[[int], Tensor], *, steps: int, lr: float,
        weight_decay: float, lr_at: Callable[[int], float] | None = None) -> list[float]:
    """Take `steps` AdamW steps on `params`; returns each step's `loss.item()`.

    Each call builds its own `AdamW`, so no moments carry over between calls.
    Step `step` sets `lr_at(step)` as the learning rate (when given), then runs
    zero_grad, `loss_at(step)`, backward and `AdamW.step`. Nothing is caught:
    an exception from any of them reaches the caller unchanged, and no later
    step runs."""
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    history = []
    for step in range(steps):
        if lr_at is not None:
            opt.lr = lr_at(step)
        opt.zero_grad()
        loss = loss_at(step)
        loss.backward()
        opt.step()
        history.append(loss.item())
    return history
