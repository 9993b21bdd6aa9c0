"""Reverse-mode autodiff on numpy buffers.

A Tensor wraps a float32/float64 ndarray and records the computation graph
whenever an input requires gradients. Kernels are plain numpy, bitwise
deterministic for fixed inputs. Each op has one call form, the module-level
function; a Tensor's only operator is indexing.

Two kernels share their work with one worker thread, which runs numpy calls
beside the caller: `window_linear`'s backward runs its w-gradient gemms there
while the caller runs the a-gradient's, and a `gelu` of at least
`_SPLIT_FLOOR` elements splits its steps in halves along the first axis
longer than 1, one half on each thread. Each thread makes the same numpy
calls on the same operands as one thread would, so results are bitwise
those of the serial loops. The caller allocates every buffer and hands the
worker views of them, so the worker's allocator never grows. The worker
drops each job before it reports back, so no buffer outlives the call. A job
runs in a copy of the caller's context, so `np.errstate`, a context variable
since numpy 2.0, holds in both halves. An exception on the worker is raised
in the caller once both halves have ended. The thread starts on first use,
as a daemon; a forked child, or a caller whose wait for the worker was cut
short by an exception, starts a new one. The engine still serves one calling
thread at a time, as `_grad_enabled` assumes.

Every forward op checks its output for non-finite values, with one exception.
The rearranging ops (reshape, transpose, slice, concat, window, take) only
move or zero-fill values of their inputs, so they skip the check when every
input is itself an op output, which was checked when it was made. A leaf
(a `Parameter` or a wrapped array) is never checked on its own, so a
non-finite leaf still raises at the first op that reads it. `window_linear`
is not a rearranging op: it sums products, which can overflow, so its output
is always checked.

`attention`, `layer_norm` and `l2_normalize` are each one node whose
intermediate values stay inside it. In `attention` a NaN or +inf in q, k, v
or a score reaches the output through the softmax, and in `layer_norm` every
intermediate value reaches it through a product or a sum, so both check their
output alone. `l2_normalize` also checks its root, sqrt(sum(a * a) + 1e-8),
whose overflow divides into finite zeros. It is bitwise the mul, sum, add,
sqrt and div nodes it replaced where its input has no other consumer.

What a node keeps for backward is what its closure reads: its parents, and
any array it names. `gelu` keeps its input only and recomputes its tanh term;
`layer_norm` keeps `xhat` and `inv`; `attention` keeps `p`, the softmax of
its scores. `backward` pops each node from its topological list, runs it, and
clears its closure and parents, so nothing in the pass holds it afterwards:
an activation is freed once the last node that reads it has run, unless the
caller still holds it. Only `Tensor._accumulate` stores a gradient: a
non-leaf adopts its first one as it is handed over, a leaf stores a copy, and
each later one is summed into a new array. None is written in place, so a
closure may hand one array, or views of it, to several parents.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import os
import queue
import threading
from typing import Sequence

import numpy as np


class NumericsError(Exception):
    pass


class ShapeError(NumericsError):
    """Raised when operand shapes are incompatible for a primitive."""

    def __init__(self, op: str, message: str):
        super().__init__(f"{op}: {message}")
        self.op = op


class DtypeError(NumericsError):
    def __init__(self, op: str, message: str):
        super().__init__(f"{op}: {message}")
        self.op = op


class NonFiniteError(NumericsError):
    """Raised when a forward op produces NaN or Inf."""

    def __init__(self, op: str):
        super().__init__(f"{op}: non-finite values in output")
        self.op = op


class BackwardError(NumericsError):
    pass


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# A gelu of fewer elements runs on the caller alone. A split costs a hand-off
# to the worker and back (17-19 µs on a 2-vCPU Xeon) and the interpreter lock
# passing between the threads at each numpy call. On that host, forward plus
# backward split ran 0.8-0.9 times as fast as one thread at 2**16 elements,
# 1.1-1.3 times at 2**17 and 1.4 times at 2**18. So the VAE's eight-frame
# training gelus (2**17 and 2**18) and the frame encoder's (196608) split,
# its one-frame ones (2**15 and 2**16) and perception requests' stay serial
_SPLIT_FLOOR = 2 ** 17

_worker: tuple | None = None  # its (jobs, reports) queues, once started


def _serve(jobs: queue.SimpleQueue, reports: queue.SimpleQueue) -> None:
    """The worker thread: run each job and report its exception or None,
    until it is sent None."""
    while (job := jobs.get()) is not None:
        try:
            job()
            err = None
        except BaseException as e:  # the caller re-raises it
            err = e
        del job  # a finished job must not hold its buffers past the call
        reports.put(err)
        del err


def _forget_worker() -> None:
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


def _beside(side, main) -> None:
    """Run `side()` on the worker, in a copy of the caller's context, while
    the caller runs `main()`; return once both have ended. An exception of
    `main` propagates, else one of `side` is raised here."""
    global _worker
    if _worker is None:
        _worker = (queue.SimpleQueue(), queue.SimpleQueue())
        threading.Thread(target=_serve, args=_worker, name="numerics-worker", daemon=True).start()
    jobs, reports = _worker
    jobs.put(functools.partial(contextvars.copy_context().run, side))
    try:
        main()
    finally:
        try:
            err = reports.get()
        except BaseException:  # a wait cut short would leave its report to the next call
            jobs.put(None)  # so this worker ends after its job, and the next call starts another
            _worker = None
            raise
    if err is not None:
        raise err


def _halves(fn, *arrays: np.ndarray) -> None:
    """fn(*arrays), for an elementwise `fn` that writes its results into some
    of `arrays`, all of one shape. From `_SPLIT_FLOOR` elements, the halves
    along the first axis longer than 1 run at once, the second on the worker."""
    if arrays[0].size < _SPLIT_FLOOR:
        return fn(*arrays)
    axis = next(ax for ax, n in enumerate(arrays[0].shape) if n > 1)
    mid = arrays[0].shape[axis] // 2
    lead = (slice(None),) * axis
    _beside(functools.partial(fn, *(a[lead + (slice(mid, None),)] for a in arrays)),
            functools.partial(fn, *(a[lead + (slice(None, mid),)] for a in arrays)))


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(op)


# ops whose output holds only values of their inputs (and zeros)
_REARRANGING = frozenset({"reshape", "transpose", "slice", "concat", "window", "take"})


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward_fn = None
        self._op = "leaf"

    # -- construction ------------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, op: str, backward_fn) -> "Tensor":
        if op not in _REARRANGING or any(p._op == "leaf" for p in parents):
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._op = op
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
        return out

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item", f"tensor has {self.data.size} elements")
        return float(self.data.reshape(())[()])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op})"

    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g`, which has this tensor's shape, to the gradient. A leaf
        stores a copy of its first `g`, as its `.grad` outlives the pass; any
        other tensor adopts it. A later `g` is summed into a new array."""
        if self.grad is None:
            store = np.array if self._op == "leaf" else np.asarray
            self.grad = store(g, dtype=self.data.dtype)
        else:
            self.grad = np.add(self.grad, g, out=np.empty_like(self.grad))

    # -- autodiff ----------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar loss, accumulating into .grad fields."""
        if self.data.size != 1:
            raise BackwardError("backward: loss must be scalar")
        if not self.requires_grad:
            raise BackwardError("backward: the loss has no graph; it was built under no_grad "
                                "or from tensors that need no gradient")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_fn is None and node._op != "leaf":
                raise BackwardError(f"backward: {node._op} node was freed by an earlier backward pass")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            # popped, run, and cut from its closure and parents, a node has no
            # reference left in the pass; leaves and the loss keep their grads
            node = topo.pop()
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node._backward_fn = None
                node._parents = ()
                if node is not self:
                    node.grad = None

    # the only operator method: perception slices with t[...], and slice_ is not exported
    def __getitem__(self, key):
        return slice_(self, key)


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _binary_check(op: str, a: Tensor, b: Tensor) -> None:
    if a.dtype != b.dtype:
        raise DtypeError(op, f"dtype mismatch: {a.dtype} vs {b.dtype}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(op, f"cannot broadcast {a.shape} with {b.shape}") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise ops --------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _binary_check("add", a, b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), "add", bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _binary_check("sub", a, b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor._from_op(out_data, (a, b), "sub", bwd)


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    _binary_check("mul", a, b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out_data, (a, b), "mul", bwd)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: x * 0.5 * (1 + tanh(c * (x + 0.044715 * x^3))).

    Each step is the same rounded operation as the plain expression (operands
    of a product or sum swapped at most), so the results are bitwise those of
    the plain expression. Forward builds the tanh term in one buffer and turns
    it into the output in place. The node keeps only its input: backward
    recomputes x * x and the tanh term from it in the same rounded steps.
    From `_SPLIT_FLOOR` elements each direction runs in halves, one on the
    worker thread."""
    x = a.data
    c = math.sqrt(2.0 / math.pi)

    def tanh_term(x: np.ndarray, th: np.ndarray) -> None:
        """tanh(c * (x + 0.044715 * x^3)), in place in `th`, which holds x * x * x"""
        th *= 0.044715
        th += x
        th *= c
        np.tanh(th, out=th)

    def forward(x: np.ndarray, out: np.ndarray) -> None:
        np.multiply(x, x, out=out)
        out *= x
        tanh_term(x, out)
        out += 1.0
        out *= 0.5
        out *= x

    def backward(x, g, x2, th, d, t) -> None:
        # 0.5 * (1 + th) + (0.5 * c) * x * (1 - th * th) * (1 + 0.134145 * x * x), then times g, into d
        np.multiply(x, x, out=x2)
        np.multiply(x2, x, out=th)
        tanh_term(x, th)
        np.multiply(th, th, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(x, 0.5 * c, out=t)
        d *= t
        x2 *= 0.134145
        x2 += 1.0
        d *= x2
        np.add(th, 1.0, out=t)
        t *= 0.5
        d += t
        d *= g

    out_data = np.empty_like(x)  # an array even when x is 0-d
    _halves(forward, x, out_data)

    def bwd(g):
        x2, th, d, t = (np.empty_like(x) for _ in range(4))
        _halves(backward, x, g, x2, th, d, t)
        a._accumulate(d)

    return Tensor._from_op(out_data, (a,), "gelu", bwd)


# -- structural ops ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [..., k] @ b [k, n] as one flat gemm over the rows of `a`; a right
    operand of any other rank raises."""
    if a.dtype != b.dtype:
        raise DtypeError("matmul", f"dtype mismatch: {a.dtype} vs {b.dtype}")
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", f"need [..., k] @ [k, n], got {a.shape} @ {b.shape}")
    out_data = (_rows(a.data) @ b.data).reshape(*a.shape[:-1], b.shape[-1])
    return Tensor._from_op(out_data, (a, b), "matmul", lambda g: _flat_matmul_grads(g, a, b))


def _rows(a: np.ndarray) -> np.ndarray:
    """`a` [..., k] as a [rows, k] matrix. reshape(-1, k) cannot count the
    rows when k is 0; a gemm over k = 0 gives zeros."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _flat_matmul_grads(g: np.ndarray, x: Tensor, w: Tensor) -> None:
    """Gradients of x [..., k] @ w [k, n], computed as one flat gemm each."""
    g2 = _rows(g)
    if x.requires_grad:
        x._accumulate((g2 @ w.data.T).reshape(x.shape))
    if w.requires_grad:
        w._accumulate(_rows(x.data).T @ g2)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x [..., k] @ w [k, n] + b [n] as one node: one gemm, the bias added in
    place into its output. Values and gradients are bitwise those of
    `add(matmul(x, w), b)`."""
    if not (x.dtype == w.dtype == b.dtype):
        raise DtypeError("linear", f"dtype mismatch: {x.dtype}, {w.dtype}, {b.dtype}")
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError("linear", f"cannot apply weight {w.shape} and bias {b.shape} to {x.shape}")
    out_data = (_rows(x.data) @ w.data).reshape(*x.shape[:-1], w.shape[1])
    out_data += b.data

    def bwd(g):
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
        _flat_matmul_grads(g, x, w)

    return Tensor._from_op(out_data, (x, w, b), "linear", bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", f"cannot reshape {a.shape} to {shape}") from None

    def bwd(g):
        a._accumulate(g.reshape(a.shape))

    return Tensor._from_op(out_data, (a,), "reshape", bwd)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError("transpose", f"axes {axes} invalid for ndim {a.ndim}")
    out_data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        a._accumulate(g.transpose(inv))

    return Tensor._from_op(out_data, (a,), "transpose", bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat", "empty tensor list")
    dt = tensors[0].dtype
    for t in tensors:
        if t.dtype != dt:
            raise DtypeError("concat", "mixed dtypes")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError("concat", str(e)) from None
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._from_op(out_data, tuple(tensors), "concat", bwd)


@functools.lru_cache(maxsize=64)
def _window_table(op: str, shape: tuple, axes: tuple, size: int, stride: int, before: int, after: int):
    """Check a window over `axes` of an input of `shape`, raising ShapeError
    naming `op`, and return (the leading shape of its output, its pairs). A
    pair (i, destination, source) covers the in-range part of window entry i,
    entries in channel order: `source` indexes the input, `destination` the
    output, both on every axis but the channel axis. Window j of entry k reads
    source j * stride + k - before; an entry wholly in the padding has no pair.
    Cached: the checks read the key alone and a call that raised is not
    stored, so a bad configuration raises however warm the cache is; the
    result is built of tuples and slices, so no caller can change it."""
    if len(shape) < 1 or not all(0 <= ax < len(shape) - 1 for ax in axes) or len(set(axes)) != len(axes):
        raise ShapeError(op, f"axes {axes} must be distinct and lie before the last (channel) axis of {shape}")
    if size < 1 or stride < 1 or before < 0 or after < 0:
        raise ShapeError(op, f"size {size} and stride {stride} must be positive, "
                             f"padding ({before}, {after}) not negative")
    # windows per axis; none when the padded axis is shorter than one window
    if any(shape[ax] + before + after < size for ax in axes):
        raise ShapeError(op, f"window of {size} is longer than an axis of {shape} padded by ({before}, {after})")
    counts = {ax: (shape[ax] + before + after - size) // stride + 1 for ax in axes}
    pairs = []
    for i, offsets in enumerate(itertools.product(range(size), repeat=len(axes))):
        dst, src = [slice(None)] * (len(shape) - 1), [slice(None)] * (len(shape) - 1)
        for ax, k in zip(axes, offsets):
            lo = max(0, -(-(before - k) // stride))  # first window whose source is >= 0
            hi = min(counts[ax], (shape[ax] - 1 + before - k) // stride + 1)  # one past the last
            if lo >= hi:
                break
            dst[ax] = slice(lo, hi)
            first = lo * stride + k - before
            src[ax] = slice(first, first + (hi - lo - 1) * stride + 1, stride)
        else:
            pairs.append((i, tuple(dst), tuple(src)))
    return tuple(counts.get(ax, n) for ax, n in enumerate(shape[:-1])), tuple(pairs)


def window(a: Tensor, axes: tuple, size: int, stride: int, before: int, after: int) -> Tensor:
    """Sliding windows over `axes`, laid side by side on the last axis.

    Each axis in `axes` is zero-padded by (before, after) and cut into
    windows of `size` entries, `stride` apart. The last axis, which cannot be
    windowed, holds the C channels of every window entry in turn, the last of
    `axes` varying fastest: over axes (i, j), the entry at offsets (k_i, k_j)
    fills channels (k_i * size + k_j) * C up to (k_i * size + k_j + 1) * C.
    No padded copy is made: forward copies the in-range part of each entry
    into a zeroed output, and backward adds it back into a zeroed gradient
    of `a`'s shape.
    """
    axes = tuple(axes)
    lead, pairs = _window_table("window", a.shape, axes, size, stride, before, after)
    c = a.shape[-1]
    out_data = np.zeros(lead + (size ** len(axes) * c,), dtype=a.dtype)
    for i, dst, src in pairs:
        out_data[dst + (slice(i * c, (i + 1) * c),)] = a.data[src]

    def bwd(g):
        ga = np.zeros(a.shape, dtype=a.dtype)
        for i, dst, src in pairs:
            ga[src] += g[dst + (slice(i * c, (i + 1) * c),)]
        a._accumulate(ga)

    return Tensor._from_op(out_data, (a,), "window", bwd)


def window_linear(a: Tensor, w: Tensor, b: Tensor, axes: tuple, size: int, stride: int,
                  before: int, after: int) -> Tensor:
    """`linear(window(a, axes, size, stride, before, after), w, b)` as one
    node that never builds the window.

    Window entry i's weight rows are w[i * C:(i + 1) * C]. Forward starts the
    output at the bias and adds, per entry, the in-range rows of `a` times
    those weight rows into the output rows they reach, one flat gemm each.
    Backward runs one gemm per entry for `a`'s gradient and one for `w`'s,
    so no buffer in either direction is wider than `a` or the output; when
    both need one, `w`'s loop runs on the worker beside `a`'s. Values
    equal the composition's up to the order in which products are summed."""
    axes = tuple(axes)
    if not (a.dtype == w.dtype == b.dtype):
        raise DtypeError("window_linear", f"dtype mismatch: {a.dtype}, {w.dtype}, {b.dtype}")
    if a.ndim < 2:
        raise ShapeError("window_linear", f"input must be >=2-d, got {a.shape}")
    lead, pairs = _window_table("window_linear", a.shape, axes, size, stride, before, after)
    c = a.shape[-1]
    if w.ndim != 2 or w.shape[0] != size ** len(axes) * c or b.shape != w.shape[1:]:
        raise ShapeError("window_linear", f"cannot apply weight {w.shape} and bias {b.shape} "
                                          f"to windows of {size ** len(axes)} entries of {a.shape}")
    n = w.shape[1]
    w_entries = w.data.reshape(size ** len(axes), c, n)
    out_data = np.empty(lead + (n,), dtype=a.dtype)
    out_data[...] = b.data
    for i, dst, src in pairs:
        x = a.data[src]
        out_data[dst] += (_rows(x) @ w_entries[i]).reshape(*x.shape[:-1], n)

    def bwd(g):
        g_rows = _rows(g)
        ga = np.zeros(a.shape, dtype=a.dtype) if a.requires_grad else None
        gw = np.zeros(w.shape, dtype=w.dtype) if w.requires_grad else None
        entry = np.empty(lead + (c,), dtype=a.dtype) if w.requires_grad else None

        def grad_a():
            for i, dst, src in pairs:
                ga[src] += (g_rows @ w_entries[i].T).reshape(lead + (c,))[dst]

        def grad_w():
            # each entry's gradient sums over every output row, with zero rows
            # where the entry reads padding, as the composition's gemm does.
            # Over the in-range rows alone, OpenBLAS rounds the sum differently
            # at another thread count when their number is not a multiple of
            # 32, as on the VAE's 7x8 and 7x7 borders; its output row counts
            # are multiples of 64
            for i, dst, src in pairs:
                entry.fill(0)
                entry[dst] = a.data[src]
                np.matmul(_rows(entry).T, g_rows, out=gw[i * c:(i + 1) * c])

        if ga is not None and gw is not None:
            _beside(grad_w, grad_a)
        elif ga is not None:
            grad_a()
        elif gw is not None:
            grad_w()
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
        if ga is not None:
            a._accumulate(ga)
        if gw is not None:
            w._accumulate(gw)

    return Tensor._from_op(out_data, (a, w, b), "window_linear", bwd)


def pad_axis(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad one axis other than the last."""
    return window(a, (axis,), 1, 1, before, after)


def slice_(a: Tensor, key) -> Tensor:
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        # a bool is an int, but numpy reads it as a mask and adds an axis
        if isinstance(k, bool) or not isinstance(k, (int, np.integer, slice)):
            raise ShapeError("slice", f"unsupported index {k!r}; use ints and slices")
    try:
        out_data = np.asarray(a.data[key])  # an int on every axis gives a numpy scalar, kept as a 0-d array
    except (IndexError, ValueError) as e:  # an int out of range, too many indices, a zero step
        raise ShapeError("slice", f"{key} on {a.shape}: {e}") from None

    def bwd(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        a._accumulate(buf)

    return Tensor._from_op(out_data, (a,), "slice", bwd)


def take(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along axis 0; backward scatter-adds."""
    idx = np.asarray(indices)
    if a.ndim == 0:
        raise ShapeError("take", "cannot gather rows of a 0-d tensor")
    if idx.dtype.kind not in "iu":
        raise ShapeError("take", "indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("take", f"index out of range for axis 0 of size {a.shape[0]}")
    out_data = a.data[idx]

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a._accumulate(buf)

    return Tensor._from_op(out_data, (a,), "take", bwd)


def add_rows(base: Tensor, indices: np.ndarray, rows: Tensor) -> Tensor:
    """out = base with rows[i] added at position indices[i] (axis 0)."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu" or idx.ndim != 1:
        raise ShapeError("add_rows", "indices must be a 1-d integer array")
    if base.dtype != rows.dtype:
        raise DtypeError("add_rows", f"dtype mismatch: {base.dtype} vs {rows.dtype}")
    if base.ndim < 1 or rows.shape != (idx.shape[0], *base.shape[1:]):
        raise ShapeError("add_rows", f"rows {rows.shape} do not fit {idx.shape[0]} indices into {base.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= base.shape[0]):
        raise ShapeError("add_rows", "index out of range")
    out_data = base.data.copy()
    np.add.at(out_data, idx, rows.data)

    def bwd(g):
        if base.requires_grad:
            base._accumulate(g)
        if rows.requires_grad:
            rows._accumulate(g[idx])

    return Tensor._from_op(out_data, (base, rows), "add_rows", bwd)


def _axes(op: str, a: Tensor, axis) -> tuple:
    """`axis` (None, an int, or a tuple or list of ints) as the distinct non-negative axes of `a`."""
    if axis is None:
        return tuple(range(a.ndim))
    try:
        return np.lib.array_utils.normalize_axis_tuple(axis, a.ndim)
    except ValueError as e:  # out of range or repeated
        raise ShapeError(op, f"axis {axis} on {a.shape}: {e}") from None


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = None if axis is None else _axes("sum", a, axis)
    out_data = np.asarray(a.data.sum(axis=axes, keepdims=keepdims))  # a full sum gives a numpy scalar

    def bwd(g):
        gg = g
        if axes is not None and not keepdims:
            gg = np.expand_dims(g, axes)
        # a C-order copy, for rounding alone: the broadcast view, whether
        # adopted or copied in its own order, is not C-order when a middle
        # axis is broadcast, and later matmuls on it would round differently
        a._accumulate(np.broadcast_to(gg, a.shape).copy())

    return Tensor._from_op(out_data, (a,), "sum", bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = math.prod(a.shape[ax] for ax in _axes("mean", a, axis))
    if n == 0:
        raise ShapeError("mean", f"no elements to average over axis {axis} of {a.shape}")
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# -- neural-net primitives ----------------------------------------------------


def _softmax(s: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of `s` along `axis`, the max-shifted exponentials over their
    sum, written into `out` (which may be `s`) or a new array."""
    # a max is exact in any order; over the first axis of a copy it is one
    # vectorized pass per entry, where numpy loops over short rows one by one
    peak = np.expand_dims(np.moveaxis(s, axis, 0).copy().max(axis=0), axis)
    out = np.subtract(s, peak, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The gradient at the input of a softmax with output `p` and output gradient `g`."""
    dot = (g * p).sum(axis=axis, keepdims=True)
    return p * (g - dot)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim or a.shape[axis] == 0:
        raise ShapeError("softmax", f"axis {axis} of {a.shape} is out of range or empty")
    out_data = _softmax(a.data, axis)

    def bwd(g):
        a._accumulate(_softmax_grad(out_data, g, axis))

    return Tensor._from_op(out_data, (a,), "softmax", bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, with variance epsilon 1e-5, then scale by
    `gamma` and shift by `beta`, both [D], as one node. Values and gradients
    are bitwise those of the normalization followed by `add(mul(., gamma), beta)`."""
    if not (x.dtype == gamma.dtype == beta.dtype):
        raise DtypeError("layer_norm", f"dtype mismatch: {x.dtype}, {gamma.dtype}, {beta.dtype}")
    if x.ndim < 1 or gamma.shape != x.shape[-1:] or beta.shape != gamma.shape:
        raise ShapeError("layer_norm", f"cannot apply gamma {gamma.shape} and beta {beta.shape} to {x.shape}")
    if x.shape[-1] == 0:
        raise ShapeError("layer_norm", f"no elements to normalize over the last axis of {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    out_data = xhat * gamma.data
    out_data += beta.data

    def bwd(g):
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if x.requires_grad:
            # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gamma
            gh = g * gamma.data
            centre = gh.mean(axis=-1, keepdims=True)
            t = gh * xhat
            t = xhat * t.mean(axis=-1, keepdims=True)
            gh -= centre
            gh -= t
            gh *= inv
            x._accumulate(gh)

    return Tensor._from_op(out_data, (x, gamma, beta), "layer_norm", bwd)


@functools.lru_cache(maxsize=64)
def causal_bias(n: int, dtype) -> np.ndarray:
    """Additive [n, n] bias: 0 on/below the diagonal, a large negative above.
    The array is cached and shared, so it is read-only."""
    m = np.zeros((n, n), dtype=dtype)
    m[np.triu_indices(n, k=1)] = -1e30
    m.flags.writeable = False
    return m


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, *, causal: bool = False) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q: [..., Lq, heads * dh], k: [..., Lk, heads * dh], v: [..., Lk, heads * dv],
    with the same leading axes. Head i of each projection is its channels
    i * d up to (i + 1) * d. With `causal`, each head's scores q k^T / sqrt(dh)
    get the triangular bias; the heads' softmax-weighted sums of v are merged
    back to [..., Lq, heads * dv]. Values and gradients are bitwise those of
    the composition that splits the heads with reshape and transpose, runs a
    batched `np.matmul`, mul, add, softmax and a batched `np.matmul`, one node
    each, and merges them.
    """
    if not (q.dtype == k.dtype == v.dtype):
        raise DtypeError("attention", f"dtype mismatch: {q.dtype}, {k.dtype}, {v.dtype}")
    if q.ndim < 2 or not (q.shape[:-2] == k.shape[:-2] == v.shape[:-2]):
        raise ShapeError("attention", f"q, k and v need equal leading axes: {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError("attention", f"q/k feature dims differ: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("attention", f"k/v lengths differ: {k.shape} vs {v.shape}")
    if heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads:
        raise ShapeError("attention", f"{heads} heads do not split q {q.shape} and v {v.shape}")
    lq, lk = q.shape[-2], k.shape[-2]
    if lk == 0 or q.shape[-1] == 0:
        raise ShapeError("attention", f"scores need a key and a q/k channel, got k {k.shape}")
    if causal and lq != lk:
        raise ShapeError("attention", "causal mask needs Lq == Lk")

    def split(a: np.ndarray) -> np.ndarray:
        """[..., L, heads * d] -> a [..., heads, L, d] view"""
        return a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads).swapaxes(-2, -3)

    def merge(a: np.ndarray) -> np.ndarray:
        """[..., heads, L, d] -> [..., L, heads * d]: a view where the memory
        order of `a` allows one, as the composition's reshape gave, else a copy"""
        return a.swapaxes(-2, -3).reshape(*a.shape[:-3], a.shape[-2], heads * a.shape[-1])

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = np.asarray(1.0 / math.sqrt(qh.shape[-1]), dtype=q.dtype)
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    scores *= scale
    if causal:
        scores += causal_bias(lq, q.dtype)
    p = _softmax(scores, -1, out=scores)
    out_data = merge(np.matmul(p, vh))

    def bwd(g):
        g_heads = split(g)
        if q.requires_grad or k.requires_grad:
            g_scores = _softmax_grad(p, np.matmul(g_heads, vh.swapaxes(-1, -2)), -1)
            g_scores *= scale
            if q.requires_grad:
                q._accumulate(merge(np.matmul(g_scores, kh)))
            if k.requires_grad:
                # the transpose of q^T g, laid out as it is in memory, as the
                # composition gave it: k's producer sums its gradient in that order
                k._accumulate(merge(np.matmul(qh.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)))
        if v.requires_grad:
            v._accumulate(merge(np.matmul(p.swapaxes(-1, -2), g_heads)))

    return Tensor._from_op(out_data, (q, k, v), "attention", bwd)


def l2_normalize(a: Tensor) -> Tensor:
    """Unit-normalize over the last axis, a / sqrt(sum(a * a) + 1e-8), as one node."""
    if a.ndim < 1:
        raise ShapeError("l2_normalize", "cannot normalize the last axis of a 0-d tensor")
    x = a.data
    root = np.sqrt((x * x).sum(axis=-1, keepdims=True) + np.asarray(1e-8, dtype=x.dtype))
    _check_finite(root, "l2_normalize")  # an inf root would divide into finite zeros

    def bwd(g):
        # the composition's closures in its backward order: div's gradient of
        # `a`, then the root's through sqrt and the sum's broadcast, which
        # mul(a, a) multiplies by `a` and adds twice
        a._accumulate(g / root)
        g_squares = _unbroadcast(-g * x / (root * root), root.shape) * 0.5 / root * x
        a._accumulate(g_squares)
        a._accumulate(g_squares)

    return Tensor._from_op(x / root, (a,), "l2_normalize", bwd)


# -- losses -------------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood. logits [N, V], integer targets [N]."""
    if logits.ndim != 2:
        raise ShapeError("cross_entropy", f"logits must be [N, V], got {logits.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ShapeError("cross_entropy", f"targets shape {t.shape} does not match logits {logits.shape}")
    if t.dtype.kind not in "iu":
        raise ShapeError("cross_entropy", "targets must be integers")
    n, vocab = logits.shape
    if n == 0:
        raise ShapeError("cross_entropy", "no rows to average over")
    if t.min() < 0 or t.max() >= vocab:
        raise ShapeError("cross_entropy", f"target id out of range for vocab {vocab}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out_data = np.asarray(-logp[np.arange(n), t].mean(), dtype=logits.dtype)

    def bwd(g):
        probs = np.exp(logp)
        probs[np.arange(n), t] -= 1.0
        logits._accumulate(probs * (g / n))

    return Tensor._from_op(out_data, (logits,), "cross_entropy", bwd)


def mse(pred: Tensor, target) -> Tensor:
    """Mean of squared differences over all elements."""
    target = _lift(target, pred.dtype)
    if pred.shape != target.shape or pred.size == 0:
        raise ShapeError("mse", f"need equal non-empty shapes, got {pred.shape} vs {target.shape}")
    d = sub(pred, target)
    return mean(mul(d, d))
