"""In-memory span tracing around the public functions of univid's modules.

Wrappers are installed by patching module and class attributes, so no file
under src/ changes. Each call of a wrapped function records one span (name,
start, end, parent). Spans stay in memory; `Tracer.table` turns them into
calls, inclusive time and self time (span minus the time its child spans
cover) per name. Given the (start, end) intervals of the timed ops, it keeps
only the spans that start inside one, so work a workload does between ops
never counts towards a per-op figure.

Callers reach the numerics ops both as `univid.numerics.<op>` (perception,
evals) and as `univid.numerics.tensor.<op>` (module.py and the tensor module's
own internal calls), so every op is patched in both places with one wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from univid import evals, perception, sequence, synthdata
from univid import numerics as nx
from univid.numerics import module as nx_module
from univid.numerics import optim as nx_optim
from univid.numerics import tensor as nx_tensor

clock = time.perf_counter

# op name as reported -> attribute name in univid.numerics.tensor
NUMERICS_OPS = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul", "gelu": "gelu",
    "concat": "concat", "pad_axis": "pad_axis", "slice": "slice_", "take": "take",
    "transpose": "transpose", "reshape": "reshape", "sum": "sum_",
    "layer_norm": "layer_norm", "softmax": "softmax", "cross_entropy": "cross_entropy",
}

# spans whose time counts as input preparation in the training-step split
DATA_SPANS = ("synthdata.render", "synthdata.coverage", "perception.augment_frame")
BACKWARD_SPANS = ("numerics.backward",)
OPTIM_SPANS = ("numerics.adamw.step", "numerics.adamw.zero_grad")


def _out_bytes(out) -> float:
    return float(out.data.nbytes)


def _frames(out) -> float:
    return float(out.shape[0])


def _file_bytes(path) -> float:
    return float(path.stat().st_size)


def inside(times, intervals) -> np.ndarray:
    """Mask of the times that fall inside one of the sorted, disjoint
    (start, end) intervals."""
    times = np.asarray(times, dtype=np.float64)
    bounds = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    if not len(bounds):
        return np.zeros(len(times), dtype=bool)
    k = np.searchsorted(bounds[:, 0], times, side="right") - 1
    return (k >= 0) & (times <= bounds[np.maximum(k, 0), 1])


def _targets():
    """(span name, [(owner, attribute)], amount-of-result function or None)."""
    t = []
    for op, attr in NUMERICS_OPS.items():
        owners = [(nx_tensor, attr)]
        if hasattr(nx, attr):
            owners.append((nx, attr))
        t.append((f"numerics.{op}", owners, _out_bytes))
    t += [
        ("numerics.attention", [(nx_tensor, "attention"), (nx, "attention")], None),
        ("numerics.TransformerBlock", [(nx_module.TransformerBlock, "__call__")], None),
        ("numerics.backward", [(nx_tensor.Tensor, "backward")], None),
        ("numerics.adamw.step", [(nx_optim.AdamW, "step")], None),
        ("numerics.adamw.zero_grad", [(nx_optim.AdamW, "zero_grad")], None),
        ("perception.CausalVideoVae.encode_batch", [(perception.CausalVideoVae, "encode_batch")], None),
        ("perception.CausalVideoVae.decode_batch", [(perception.CausalVideoVae, "decode_batch")], None),
        ("perception.FrameEncoder.embed_frames", [(perception.FrameEncoder, "embed_frames")], None),
        ("perception.augment_frame", [(perception, "augment_frame")], None),
        ("perception.contrastive_loss", [(perception, "contrastive_loss")], None),
        ("synthdata.render", [(synthdata, "render")], _frames),
        ("synthdata.coverage", [(synthdata, "coverage")], None),
        ("synthdata.sample_mixture", [(synthdata, "sample_mixture")], None),
        ("synthdata.make_edit_pair", [(synthdata, "make_edit_pair")], None),
        ("synthdata.write_shard", [(synthdata, "write_shard")], _file_bytes),
        ("synthdata.read_shard", [(synthdata, "read_shard")], None),
        ("synthdata.Sample.validate", [(synthdata.Sample, "validate")], None),
        ("sequence.pack_parts", [(sequence, "pack_parts")], None),
        ("sequence.serialize", [(sequence, "serialize")], len),
        ("sequence.deserialize", [(sequence, "deserialize")], None),
        ("sequence.parse", [(sequence, "parse")], None),
        ("evals.probe_features", [(evals, "probe_features")], None),
        ("evals.AttributeProbe.classify", [(evals.AttributeProbe, "classify")], None),
        ("evals.train_probe", [(evals, "train_probe")], None),
    ]
    return t


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    """Set `owner.attr` for the duration of the block, then restore it."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records spans, and the time each autodiff graph node is made, while
    installed. `clear` empties the lists in place, which starts a new scope
    without re-patching."""

    def __init__(self):
        self.names = [name for name, _, _ in _targets()]
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_amount: list[float] = []
        self.node_times: list[float] = []
        self._open = [-1]
        self._patches = contextlib.ExitStack()

    def clear(self) -> None:
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end,
                      self.span_amount, self.node_times):
            spans.clear()

    def _wrap(self, sid: int, fn, amount_of):
        names, parents, starts, ends, amounts, open_ = (self.span_name, self.span_parent, self.span_start,
                                                        self.span_end, self.span_amount, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(open_[-1])
            ends.append(0.0)
            amounts.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if amount_of is not None:
                amounts[i] = amount_of(out)
            return out

        return traced

    def install(self) -> None:
        self.clear()
        for sid, (_, owners, amount_of) in enumerate(_targets()):
            wrapper = self._wrap(sid, getattr(*owners[0]), amount_of)
            for owner, attr in owners:
                self._patches.enter_context(patched(owner, attr, wrapper))
        from_op = nx_tensor.Tensor.__dict__["_from_op"].__func__
        node_times = self.node_times

        def counted(*args):
            node_times.append(clock())
            return from_op(*args)

        self._patches.enter_context(patched(nx_tensor.Tensor, "_from_op", staticmethod(counted)))

    def uninstall(self) -> None:
        self._patches.close()

    def _kept(self, intervals) -> np.ndarray:
        if intervals is None:
            return np.ones(len(self.span_start), dtype=bool)
        return inside(self.span_start, intervals)

    def table(self, intervals=None) -> dict:
        """name -> {calls, total_s, self_s, amount} over the spans recorded so
        far; with `intervals`, over the spans that start inside one. A span
        lies inside its parent, so a kept span's children are kept too."""
        n_names = len(self.names)
        keep = self._kept(intervals)
        sid = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        sid, dur, child = sid[keep], dur[keep], child[keep]
        calls = np.bincount(sid, minlength=n_names)
        total = np.bincount(sid, weights=dur, minlength=n_names)
        self_time = np.bincount(sid, weights=dur - child, minlength=n_names)
        amount = np.bincount(sid, weights=np.asarray(self.span_amount)[keep], minlength=n_names)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_time[i]), "amount": float(amount[i])}
                for i, name in enumerate(self.names)}

    def graph_nodes(self, intervals) -> int:
        """Autodiff graph nodes made inside the intervals."""
        return int(inside(self.node_times, intervals).sum())

    def roots(self, intervals) -> list[tuple[str, float, float]]:
        """Spans with no traced parent that start inside the intervals, in
        start order: (name, start, end)."""
        keep = self._kept(intervals)
        return [(self.names[s], b, e) for s, p, b, e, k in
                zip(self.span_name, self.span_parent, self.span_start, self.span_end, keep) if p < 0 and k]
