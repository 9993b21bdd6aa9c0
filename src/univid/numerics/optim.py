"""AdamW with decoupled weight decay, and `fit`, the one training loop.
Frozen parameters (`requires_grad` False) are never touched."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .module import Parameter
from .tensor import NumericsError, Tensor


class MissingStateError(NumericsError):
    pass


class AdamW:
    """Betas (0.9, 0.999), eps 1e-8. Moments are kept, by position in `params`,
    only for parameters that required grad at construction. Stepping such a
    parameter without state is an error; frozen parameters are skipped and
    stay bitwise unchanged. Each step reads `.grad` and replaces `.data`;
    `zero_grad` sets it to None, as a new `Parameter` has it, and a step reads
    a gradient still None (the loss did not reach the parameter) as zero."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Parameter], lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.moments: list[tuple[np.ndarray, np.ndarray] | None] = [
            (np.zeros_like(p.data), np.zeros_like(p.data)) if p.requires_grad else None for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, (p, state) in enumerate(zip(self.params, self.moments)):
            if not p.requires_grad:
                continue
            if state is None:
                raise MissingStateError(f"no optimizer state for trainable parameter #{i} {p.name!r}")
            g = np.zeros_like(p.data) if p.grad is None else p.grad
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
            p.data = (p.data - self.lr * upd).astype(p.data.dtype)


def fit(params: list[Parameter], loss_at: Callable[[int], Tensor], *, steps: int, lr: float,
        weight_decay: float, lr_at: Callable[[int], float] | None = None) -> list[float]:
    """Take `steps` AdamW steps on `params`; returns each step's `loss.item()`.

    Each call builds its own `AdamW`, so no moments carry over between calls.
    Step `step` sets `lr_at(step)` as the learning rate (when given), then runs
    zero_grad, `loss_at(step)`, backward and `AdamW.step`; a parameter the loss
    does not reach steps with a zero gradient. Nothing is caught:
    an exception from any of them reaches the caller unchanged, and no later
    step runs."""
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    history = []
    if steps > 0:
        # glibc raises its mmap threshold to the largest mapped block freed so far
        # (up to 32 MB) and its heap-trim threshold to twice that. Freeing one
        # untouched 31 MB block keeps every step's buffers on a heap that is not
        # returned to the OS between steps, so steps do not fault their memory
        # back in (about a quarter of a step's time); no page of it is touched.
        np.empty(31 << 20, np.uint8)
    for step in range(steps):
        if lr_at is not None:
            opt.lr = lr_at(step)
        opt.zero_grad()
        loss = loss_at(step)
        loss.backward()
        opt.step()
        history.append(loss.item())
    return history
