"""Gradient verification against central finite differences.

The checker is the independent oracle for the autodiff engine: it re-evaluates
the loss with perturbed parameter entries and never inspects the recorded
graph. Run fragments in float64; float32 rounding drowns the h^2 truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .module import Parameter


@dataclass
class ParamReport:
    name: str
    rel_error: float
    max_abs_diff: float
    checked_coords: int


@dataclass
class GradCheckReport:
    params: list[ParamReport] = field(default_factory=list)
    tolerance: float = 1e-6

    @property
    def max_rel_error(self) -> float:
        return max((p.rel_error for p in self.params), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def summary(self) -> str:
        lines = [f"grad check: max rel err {self.max_rel_error:.3e} "
                 f"(tolerance {self.tolerance:.1e}) -> {'PASS' if self.passed else 'FAIL'}"]
        for p in sorted(self.params, key=lambda r: -r.rel_error):
            lines.append(f"  {p.name}: rel {p.rel_error:.3e} absmax {p.max_abs_diff:.3e} ({p.checked_coords} coords)")
        return "\n".join(lines)


def grad_check(loss_fn, params: list[Parameter]) -> GradCheckReport:
    """Compare autodiff gradients of `loss_fn()` with central differences of
    step 1e-5 at every coordinate.

    `loss_fn` must rebuild the graph from the current parameter values on each
    call. Relative error is normalized per parameter tensor:
    max|a - n| / max(max|a|, max|n|, 1e-12), so near-zero entries of an
    otherwise healthy tensor do not blow up the metric. Failures are reported,
    never raised.
    """
    h = 1e-5
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss = loss_fn()
    loss.backward()
    autodiff = {p.name: p.grad.copy() for p in params}

    report = GradCheckReport()
    with T.no_grad():
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
            a = autodiff[p.name].reshape(-1).astype(np.float64)
            diff = np.abs(a - num)
            denom = max(np.abs(a).max(initial=0.0), np.abs(num).max(initial=0.0), 1e-12)
            report.params.append(ParamReport(
                name=p.name,
                rel_error=float(diff.max(initial=0.0) / denom),
                max_abs_diff=float(diff.max(initial=0.0)),
                checked_coords=flat.size,
            ))
    return report
