"""Gradient verification against central finite differences.

The checker is the independent oracle for the autodiff engine: it re-evaluates
the loss with perturbed parameter entries and never inspects the recorded
graph. Run fragments in float64; float32 rounding drowns the h^2 truncation.
Modules build float32 parameters, so `as_float64` recasts a module's
parameters in place before its gradients are checked. `dead_parameters`
finds the trainable parameters that a loss barely reaches, such as a bias
whose true gradient is 0.
"""

from __future__ import annotations

import numpy as np

from univid import numerics as nx


def as_float64(module: nx.Module) -> nx.Module:
    """`module`, its parameters recast to float64 in place, each with a zero gradient."""
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)
    return module


def grad_check(loss_fn, params: list[nx.Parameter]) -> list[float]:
    """Compare autodiff gradients of `loss_fn()` with central differences of
    step 1e-5 at every coordinate; returns each parameter's relative error, in
    `params` order.

    `loss_fn` must rebuild the graph from the current parameter values on each
    call. Relative error is normalized per parameter tensor:
    max|a - n| / max(max|a|, max|n|, 1e-12), so near-zero entries of an
    otherwise healthy tensor do not blow up the metric. Failures are returned,
    never raised.
    """
    h = 1e-5
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss_fn().backward()

    errors = []
    with nx.no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            num = np.zeros(flat.size, dtype=np.float64)
            for c in range(flat.size):
                orig = flat[c]
                flat[c] = orig + h
                lp = loss_fn().item()
                flat[c] = orig - h
                lm = loss_fn().item()
                flat[c] = orig
                num[c] = (lp - lm) / (2.0 * h)
            a = p.grad.reshape(-1).astype(np.float64)
            denom = max(np.abs(a).max(initial=0.0), np.abs(num).max(initial=0.0), 1e-12)
            errors.append(float(np.abs(a - num).max(initial=0.0) / denom))
    return errors


def dead_parameters(module: nx.Module, loss_fn, floor: float) -> dict[str, float]:
    """Each trainable parameter of `module` whose largest |gradient| under
    `loss_fn()` is at most `floor` times the largest of any of them, with
    that ratio; `{}` when every parameter is live."""
    params = [p for p in module.parameters() if p.requires_grad]
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss_fn().backward()
    peaks = {p.name: float(np.abs(p.grad).max(initial=0.0)) for p in params}
    top = max(peaks.values())
    return {name: peak / top for name, peak in peaks.items() if peak <= floor * top}
