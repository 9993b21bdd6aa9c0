"""AdamW with decoupled weight decay. Frozen parameters are never touched."""

from __future__ import annotations

import numpy as np

from .module import Parameter
from .tensor import NumericsError


class MissingStateError(NumericsError):
    pass


class AdamW:
    """Moments are kept only for parameters that were trainable at construction
    (or at the last `rebuild`). Stepping a trainable parameter without state is
    an error; frozen parameters are skipped and stay bitwise unchanged.
    State is kept by position in `params`; `state_dict` keys it by unique name."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.moments: list[tuple[np.ndarray, np.ndarray] | None] = []
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)create zero moments for the currently trainable parameters."""
        self.moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) if p.trainable else None
                        for p in self.params]

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
