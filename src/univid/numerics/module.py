"""Parameters, module tree, and the shared transformer building blocks.

A `Parameter` is a leaf `Tensor`, so layers pass it straight into ops; its
`requires_grad` is the one trainable flag, which `freeze`, `AdamW` and
`set_trainable_by_prefix` read and write."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Parameter(Tensor):
    """A named leaf tensor; `trainable` sets `requires_grad`. Names are
    assigned hierarchically when the owning module tree is traversed."""

    __slots__ = ("name",)

    def __init__(self, data: np.ndarray, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = ""


class Module:
    """Minimal module tree: children and parameters are registered by attribute
    assignment, in insertion order, which fixes the traversal order."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = "") -> Iterator[Parameter]:
        for key, p in self._params.items():
            p.name = f"{prefix}{key}"
            yield p
        for key, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters())

    def freeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = False


class ModuleList(Module):
    def __init__(self, mods):
        super().__init__()
        for i, m in enumerate(mods):
            self._children[str(i)] = m

    def __iter__(self):
        return iter(self._children.values())


def set_trainable_by_prefix(params: list[Parameter], prefixes: tuple[str, ...]) -> None:
    """Freeze everything, then unfreeze parameters whose name starts with a prefix."""
    for p in params:
        p.requires_grad = any(p.name.startswith(pre) for pre in prefixes)


# initial weight std of embeddings, attention and MLP layers
TRANSFORMER_STD = 0.02


def normal_init(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(np.float32)


class Linear(Module):
    """y = x @ W + b with W stored [in, out], initialized with std `std`
    (default d_in ** -0.5), and b zero; both float32."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, *, std: float | None = None):
        super().__init__()
        self.weight = Parameter(normal_init(rng, (d_in, d_out), std if std is not None else d_in**-0.5))
        self.bias = Parameter(np.zeros(d_out, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Parameter(np.ones(dim, dtype=np.float32))
        self.beta = Parameter(np.zeros(dim, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class Embedding(Module):
    def __init__(self, vocab: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.table = Parameter(normal_init(rng, (vocab, dim), TRANSFORMER_STD))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.take(self.table, ids)


class MultiHeadAttention(Module):
    """Self- or cross-attention. For cross-attention pass `kv` (dim may differ).

    The key projection `wk` [kv_dim, d_model] has no bias: a key bias b adds
    q . b to every score of a query's row, which the softmax cancels, so its
    gradient is 0 and it could change no output."""

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator, *, kv_dim: int | None = None):
        super().__init__()
        if d_model % heads != 0:
            raise T.ShapeError("attention", f"d_model {d_model} not divisible by heads {heads}")
        kv_dim = kv_dim if kv_dim is not None else d_model
        self.heads = heads
        self.wq = Linear(d_model, d_model, rng, std=TRANSFORMER_STD)
        self.wk = Parameter(normal_init(rng, (kv_dim, d_model), TRANSFORMER_STD))
        self.wv = Linear(kv_dim, d_model, rng, std=TRANSFORMER_STD)
        self.wo = Linear(d_model, d_model, rng, std=TRANSFORMER_STD)

    def __call__(self, x: Tensor, kv: Tensor | None = None, *, causal: bool = False) -> Tensor:
        src = kv if kv is not None else x
        out = T.attention(self.wq(x), T.matmul(src, self.wk), self.wv(src), self.heads, causal=causal)
        return self.wo(out)


class FeedForward(Module):
    def __init__(self, d_model: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(d_model, hidden, rng, std=TRANSFORMER_STD)
        self.fc2 = Linear(hidden, d_model, rng, std=TRANSFORMER_STD)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm block: self-attention, optional cross-attention, MLP of 4x width."""

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator, *, cross_dim: int | None = None):
        super().__init__()
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, heads, rng)
        if cross_dim is not None:
            self.ln_x = LayerNorm(d_model)
            self.cross = MultiHeadAttention(d_model, heads, rng, kv_dim=cross_dim)
        else:
            self.cross = None
        self.ln2 = LayerNorm(d_model)
        self.mlp = FeedForward(d_model, 4 * d_model, rng)

    def __call__(self, x: Tensor, *, causal: bool = False, cond: Tensor | None = None) -> Tensor:
        if cond is not None and self.cross is None:
            raise T.ShapeError("cross_attention", "cond given to a block built without cross_dim")
        x = T.add(x, self.attn(self.ln1(x), causal=causal))
        if cond is not None:
            x = T.add(x, self.cross(self.ln_x(x), kv=cond))
        return T.add(x, self.mlp(self.ln2(x)))
