"""Tensor library: primitives, losses, autodiff, optimizer, grad checker."""

import functools
import itertools
import math
import os
import signal
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gradcheck import as_float64, dead_parameters, grad_check
from univid import numerics as nx
from univid import perception as pc
from univid.numerics import tensor as tz


def t64(a):
    return nx.Tensor(np.asarray(a, dtype=np.float64))


# -- forward primitives -------------------------------------------------------


def test_matmul_identity_is_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)).astype(np.float32)
    eye = nx.Tensor(np.eye(2, dtype=np.float32))
    out = nx.matmul(eye, nx.Tensor(a))
    assert np.array_equal(out.numpy(), a)


def test_softmax_uniform():
    out = nx.softmax(nx.Tensor(np.zeros(4, dtype=np.float32)))
    assert np.allclose(out.numpy(), 0.25)


def test_layer_norm_constant_vector_matches_scalar_oracle():
    # scalar re-implementation: (x - mean) / sqrt(var + eps), var = 0
    x = np.full(8, 3.7, dtype=np.float64)
    eps = 1e-5  # layer_norm's variance epsilon
    mean = sum(x) / len(x)
    var = sum((v - mean) ** 2 for v in x) / len(x)
    expected = [(v - mean) / math.sqrt(var + eps) for v in x]
    out = nx.layer_norm(t64(x), t64(np.ones(8)), t64(np.zeros(8)))
    assert np.allclose(out.numpy(), expected, atol=1e-12)
    assert np.allclose(out.numpy(), 0.0)


def gelu_plain(x, g):
    """GELU's output and input gradient as plain expressions."""
    c = math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (x + 0.044715 * (x * x * x)))
    half_one_plus = 0.5 * (1.0 + th)
    d = half_one_plus + (0.5 * c) * x * (1.0 - th * th) * (1.0 + 0.134145 * (x * x))
    return x * half_one_plus, g * d


# From tz._SPLIT_FLOOR elements gelu runs in halves along the first axis
# longer than 1: (SPLIT_ROWS, 256) splits an odd number of rows, as 256 + 257
# at a floor of 2**17, (1, SPLIT_ROWS, 256) splits axis 1, and their
# transposes split 256 columns into strided halves
SPLIT_ROWS = tz._SPLIT_FLOOR // 256 + 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (7,), (33, 65), (SPLIT_ROWS, 256), (1, SPLIT_ROWS, 256)])
def test_gelu_matches_plain_expression_bitwise(shape, dtype):
    rng = np.random.default_rng(len(shape))
    x = (rng.standard_normal(shape) * 3).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    for data, gd in ((x, g), (x.T, g.T)):  # from 2-d, also a transposed view
        want_out, want_grad = gelu_plain(data, gd)
        a = nx.Tensor(data, requires_grad=True)
        out = nx.gelu(a)
        nx.sum_(nx.mul(out, nx.Tensor(gd))).backward()
        assert np.asarray(out.numpy()).tobytes() == np.asarray(want_out).tobytes()
        assert a.grad.tobytes() == np.asarray(want_grad).tobytes()
        with nx.no_grad():  # no graph: every step in the one output buffer
            plain = nx.gelu(nx.Parameter(data))
        assert not plain.requires_grad and plain._backward_fn is None
        assert plain.numpy().tobytes() == np.asarray(want_out).tobytes()


# -- the worker thread ------------------------------------------------------------


def split_gelu_input():
    """An input just above the split floor, with an odd split length."""
    x = np.random.default_rng(5).standard_normal((SPLIT_ROWS, 256)).astype(np.float32)
    assert x.size >= tz._SPLIT_FLOOR
    return x


@pytest.mark.parametrize("at", [0, -1], ids=["first-half", "second-half"])
def test_split_gelu_keeps_the_callers_errstate_in_both_halves(at):
    x = split_gelu_input()
    x[at, at] = 1e30  # x * x overflows
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        nx.gelu(nx.Tensor(x))
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nx.gelu(nx.Tensor(x))
    assert out.numpy()[at, at] == np.float32(1e30)


def test_a_worker_exception_reaches_the_caller_once_both_sides_end():
    class Boom(Exception):
        pass

    def fail():
        raise Boom

    ended = []
    with pytest.raises(Boom):
        tz._beside(fail, lambda: ended.append("main"))
    assert ended == ["main"]
    # the caller's exception wins, raised once the worker's side has ended too
    with pytest.raises(KeyError):
        tz._beside(lambda: (time.sleep(0.05), ended.append("side")), lambda: {}["missing"])
    assert ended == ["main", "side"]
    x = split_gelu_input()
    assert nx.gelu(nx.Tensor(x)).numpy().tobytes() == gelu_plain(x, x)[0].tobytes()


def test_a_wait_cut_short_leaves_no_report_to_the_next_call():
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        arm = functools.partial(signal.setitimer, signal.ITIMER_REAL, 0.05)  # fires while the caller waits
        with pytest.raises(Interrupted):
            tz._beside(functools.partial(time.sleep, 0.3), arm)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    abandoned = [t for t in threading.enumerate() if t.name == "numerics-worker"]
    ended = []
    tz._beside(lambda: (time.sleep(0.05), ended.append("side")), lambda: None)
    assert ended == ["side"]  # the interrupted job's report did not end this call
    for t in abandoned:
        t.join(5)
        assert not t.is_alive()


def test_the_worker_keeps_no_buffer_of_a_finished_job():
    buf = np.zeros(1000)
    alive = weakref.ref(buf)
    tz._beside(functools.partial(np.copyto, buf[500:], 1.0), functools.partial(np.copyto, buf[:500], 2.0))
    assert buf.sum() == 1500.0
    del buf
    assert alive() is None


def test_backward_passes_start_at_most_one_thread():
    before = threading.active_count()
    x = split_gelu_input()
    for _ in range(20):
        a = nx.Tensor(x, requires_grad=True)
        h = nx.window_linear(nx.reshape(nx.gelu(a), (1, SPLIT_ROWS, 16, 16)), nx.Parameter(np.ones((48, 4), np.float32)),
                             nx.Parameter(np.zeros(4, np.float32)), (2,), 3, 1, 1, 1)
        nx.sum_(h).backward()
    assert threading.active_count() <= before + 1
    assert [t.name for t in threading.enumerate()].count("numerics-worker") == 1


def test_a_forked_child_runs_a_split_gelu():
    x = split_gelu_input()
    want = gelu_plain(x, x)[0].tobytes()
    nx.gelu(nx.Tensor(x))  # the worker runs in this process before the fork
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if the split gelu completes right
        try:
            os._exit(0 if nx.gelu(nx.Tensor(x)).numpy().tobytes() == want else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung in a split gelu")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_zero_width_contraction_is_zeros_plus_the_bias():
    bias = nx.Parameter(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    x, w = nx.Parameter(np.ones((2, 4, 0), dtype=np.float32)), nx.Parameter(np.ones((0, 3), dtype=np.float32))
    assert np.array_equal(nx.matmul(x, w).numpy(), np.zeros((2, 4, 3)))
    for out in (nx.linear(x, w, bias), nx.window_linear(x, w, bias, (0,), 1, 1, 0, 0)):
        assert np.array_equal(out.numpy(), np.broadcast_to(bias.data, (2, 4, 3)))
        x.grad = w.grad = bias.grad = None
        nx.sum_(out).backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert np.array_equal(bias.grad, [8.0, 8.0, 8.0])


def test_shape_errors_name_the_primitive():
    with pytest.raises(nx.ShapeError, match="matmul"):
        nx.matmul(nx.Tensor(np.zeros((2, 3))), nx.Tensor(np.zeros((2, 3))))
    with pytest.raises(nx.ShapeError, match="matmul"):  # batched: only [..., k] @ [k, n]
        nx.matmul(nx.Tensor(np.zeros((2, 2, 3))), nx.Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(nx.ShapeError, match="matmul"):
        nx.matmul(nx.Tensor(np.zeros((2, 3))), nx.Tensor(np.zeros(3)))
    with pytest.raises(nx.ShapeError, match="mse"):
        nx.mse(nx.Tensor(np.zeros(3)), nx.Tensor(np.zeros(4)))
    with pytest.raises(nx.ShapeError, match="mse"):  # the mean of no squares
        nx.mse(nx.Tensor(np.zeros((2, 0))), nx.Tensor(np.zeros((2, 0))))
    with pytest.raises(nx.ShapeError, match="take"):
        nx.take(nx.Tensor(np.zeros((5, 2))), np.array([5]))
    with pytest.raises(nx.ShapeError, match="take"):
        nx.take(nx.Tensor(np.zeros((), dtype=np.float32)), np.array([0]))
    t = nx.Tensor(np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(nx.ShapeError, match="slice"):
        t[5]
    for flag in (True, False):  # numpy would read a bool as a mask and add an axis
        with pytest.raises(nx.ShapeError, match="slice"):
            t[flag]
    with pytest.raises(nx.ShapeError, match="sum"):
        nx.sum_(t, axis=3)
    with pytest.raises(nx.ShapeError, match="mean"):
        nx.mean(t, axis=3)
    with pytest.raises(nx.ShapeError, match="add_rows"):
        nx.add_rows(t, np.array([0]), nx.Tensor(np.zeros((1, 5), dtype=np.float32)))
    with pytest.raises(nx.ShapeError, match="window"):
        nx.window(t, (0,), 2, 0, 0, 0)
    with pytest.raises(nx.ShapeError, match="transpose"):
        nx.transpose(t, (2, 0))


def test_an_int_on_every_axis_slices_a_0d_array():
    p = nx.Parameter(np.arange(12, dtype=np.float32).reshape(3, 4))
    out = p[1, 2]
    assert type(out.numpy()) is np.ndarray and out.shape == () and out.item() == 6.0
    out.backward()
    expected = np.zeros((3, 4), dtype=np.float32)
    expected[1, 2] = 1.0
    assert np.array_equal(p.grad, expected)


INDEX = st.integers(-6, 6) | st.builds(slice, st.none() | st.integers(-6, 6), st.none() | st.integers(-6, 6),
                                        st.none() | st.integers(-3, 3))
AXES = st.lists(st.integers(-4, 4), max_size=2)
AXIS = st.none() | st.integers(-4, 4) | AXES.map(tuple) | AXES
DIM = st.integers(0, 4)


def ones(*shape):
    return nx.Parameter(np.ones(shape, dtype=np.float32))


def last(p):
    return p.shape[-1] if p.ndim else 0


def rows_of(p, idx):
    """`idx` wrapped into the range of p's first axis; none when it has no rows."""
    n = p.shape[0] if p.ndim else 0
    return idx % n if n else idx[:0]


@st.composite
def shape_op_calls(draw):
    """(op name, function of a [*shape] parameter) with drawn arguments, valid or not."""
    op = draw(st.sampled_from(["slice", "sum", "mean", "add_rows", "window", "transpose", "take", "matmul",
                               "linear", "window_linear", "softmax", "attention", "layer_norm", "cross_entropy"]))
    # `fits` sizes the arguments to the parameter (its last axis, its rows, its
    # rank), which a wide draw rarely matches; three draws in four fit, so ops
    # whose wide draws nearly always raise still compute often
    fits = draw(st.sampled_from([True, True, True, False]))
    if op == "slice":
        key = draw(INDEX | st.lists(INDEX, max_size=4).map(tuple))
        return op, lambda p: p[key]
    if op in ("sum", "mean"):
        axis, keepdims = draw(AXIS), draw(st.booleans())
        reduce = nx.sum_ if op == "sum" else nx.mean
        return op, lambda p: reduce(p, axis=axis, keepdims=keepdims)
    if op == "add_rows":
        idx = np.array(draw(st.lists(st.integers(-2, 6), max_size=4)), dtype=np.int64)
        if fits:  # rows of p's width at indices wrapped into its first axis
            def add_fitted_rows(p):
                rows = rows_of(p, idx)
                return nx.add_rows(p, rows, ones(len(rows), *p.shape[1:]))
            return op, add_fitted_rows
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        lead = draw(st.sampled_from([len(idx), len(idx) + 1]))
        tail = tuple(draw(st.lists(DIM, max_size=3)))
        return op, lambda p: nx.add_rows(p, idx, nx.Parameter(np.ones((lead, *(tail or p.shape[1:])), dtype)))
    if op == "transpose":
        if fits:  # a permutation of p's axes
            order = draw(st.permutations(range(4)))
            return op, lambda p: nx.transpose(p, tuple(ax for ax in order if ax < p.ndim))
        axes = tuple(draw(st.lists(st.integers(-1, 3), max_size=3, unique=True)))
        return op, lambda p: nx.transpose(p, axes)
    if op == "take":
        idx = np.array(draw(st.lists(st.integers(-2, 6), max_size=4)), dtype=np.int64)
        if fits:
            return op, lambda p: nx.take(p, rows_of(p, idx))
        idx = idx.astype(draw(st.sampled_from([np.int64, np.float32])))
        return op, lambda p: nx.take(p, idx)
    if op in ("matmul", "linear"):
        k, n = draw(DIM), draw(DIM)
        if op == "matmul":
            return op, lambda p: nx.matmul(p, ones(last(p) if fits else k, n))
        return op, lambda p: nx.linear(p, ones(last(p) if fits else k, n), ones(n))
    if op == "softmax":
        axis = draw(st.integers(-1, 0) if fits else st.integers(-4, 4))
        return op, lambda p: nx.softmax(p, axis=axis)
    if op == "attention":
        heads = draw(st.integers(1, 2) if fits else st.integers(0, 3))
        lk = draw(st.integers(1, 4) if fits else DIM)
        dv, causal = draw(DIM) * (heads if fits else 1), draw(st.booleans())

        def attend(p):
            if fits:  # at least [Lq, D], with Lk = Lq when causal
                p = p if p.ndim >= 2 else nx.reshape(p, (1, p.size))
            keys = p.shape[-2] if fits and causal else lk
            lead = p.shape[:-2]
            return nx.attention(p, ones(*lead, keys, last(p)), ones(*lead, keys, dv), heads, causal=causal)
        return op, attend
    if op == "layer_norm":
        d = draw(DIM)
        return op, lambda p: nx.layer_norm(p, ones(last(p) if fits else d), ones(last(p) if fits else d))
    if op == "cross_entropy":
        # with `fits`, one in-range target per row of a [N, V] view of the parameter
        targets = np.array(draw(st.lists(st.integers(-1, 4), min_size=4 if fits else 0, max_size=4)), dtype=np.int64)
        if fits:
            def rows_by_last(p):
                n, v = (math.prod(p.shape[:-1]), last(p)) if p.ndim else (1, 1)
                return nx.cross_entropy(nx.reshape(p, (n, v)), np.resize(targets, n) % max(v, 1))
            return op, rows_by_last
        return op, lambda p: nx.cross_entropy(p, targets)
    if fits:  # axes before p's channel axis, the window no longer than the shortest padded one
        drawn = tuple(draw(st.lists(st.integers(0, 1), max_size=2, unique=True)))
        longest, stride, before, after = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(DIM), draw(DIM)

        def window_args(p):
            axes = tuple(ax for ax in drawn if ax < p.ndim - 1)
            return axes, min([longest] + [p.shape[ax] + before + after for ax in axes]), stride, before, after
    else:
        wide = (tuple(draw(st.lists(st.integers(-1, 3), max_size=2))), *(draw(st.integers(-1, 4)) for _ in range(4)))

        def window_args(p):
            return wide
    if op == "window":
        return op, lambda p: nx.window(p, *window_args(p))
    k, n = draw(DIM), draw(DIM)

    def window_linear(p):
        axes, size, stride, before, after = window_args(p)
        rows = size ** len(axes) * last(p) if fits else k
        return nx.window_linear(p, ones(rows, n), ones(n), axes, size, stride, before, after)
    return op, window_linear


@settings(max_examples=800, deadline=None)
@given(st.lists(DIM, max_size=3), shape_op_calls())
@example([2, 0], ("matmul", lambda p: nx.matmul(p, ones(0, 3))))
@example([2, 0], ("linear", lambda p: nx.linear(p, ones(0, 3), ones(3))))
@example([2, 3, 0], ("window_linear", lambda p: nx.window_linear(p, ones(0, 2), ones(2), (0,), 2, 1, 1, 0)))
@example([2, 0], ("mean", lambda p: nx.mean(p, axis=1)))
@example([2, 0], ("softmax", lambda p: nx.softmax(p)))
@example([0, 4], ("attention", lambda p: nx.attention(p, ones(3, 4), ones(3, 2), 2)))  # an empty output
@example([2, 4], ("attention", lambda p: nx.attention(p, ones(0, 4), ones(0, 2), 2)))
@example([0, 4], ("cross_entropy", lambda p: nx.cross_entropy(p, np.zeros(0, dtype=np.int64))))
@example([3, 0], ("layer_norm", lambda p: nx.layer_norm(p, ones(0), ones(0))))
def test_shape_contracts_hold_or_raise_named_errors(shape, call):
    # every input either computes, with a gradient of the input's shape, or
    # raises ShapeError/DtypeError naming the op; never a bare numpy error, a
    # false NonFiniteError or (under the pytest config) a RuntimeWarning
    name, apply = call
    p = nx.Parameter(np.arange(math.prod(shape), dtype=np.float32).reshape(shape))
    try:
        out = apply(p)
    except (nx.ShapeError, nx.DtypeError) as err:
        assert err.op == name
        return
    nx.sum_(out).backward()
    assert p.grad.shape == p.shape


def test_finite_check_flag():
    big = nx.Tensor(np.array([1.0, 1e30], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(nx.NonFiniteError) as err:
            nx.mul(big, big)
    assert err.value.op == "mul"


def test_finite_check_large_float64_finites_pass():
    # the float64 sum of these overflows; the values themselves are finite
    out = nx.add(nx.Tensor(np.array([1e308, 1e308])), 0.0)
    assert out.dtype == np.float64 and np.isfinite(out.numpy()).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finite_check_catches_inf_and_nan(dtype, bad):
    with pytest.raises(nx.NonFiniteError):
        nx.add(nx.Tensor(np.array([1.0, bad, 2.0], dtype=dtype)), 0.0)


REARRANGING = {
    "reshape": lambda t: nx.reshape(t, (12,)),
    "transpose": lambda t: nx.transpose(t, (1, 0, 2)),
    "slice": lambda t: t[1:, :2],
    "concat": lambda t: nx.concat([t, t], axis=0),
    "window": lambda t: nx.window(t, (0,), 2, 1, 1, 0),
    "take": lambda t: nx.take(t, np.array([1, 0, 1])),
}


@pytest.mark.parametrize("op", sorted(REARRANGING))
def test_rearranging_a_non_finite_leaf_raises(op):
    x = np.ones((2, 3, 2), dtype=np.float32)
    x[1, 1, 0] = np.nan
    with pytest.raises(nx.NonFiniteError) as err:
        REARRANGING[op](nx.Tensor(x))
    assert err.value.op == op


def test_rearranging_an_op_output_is_not_checked_again(monkeypatch):
    checked = []
    check = tz._check_finite

    def counted(data, op):
        checked.append(op)
        check(data, op)

    monkeypatch.setattr(tz, "_check_finite", counted)
    leaf = nx.Tensor(np.ones((2, 3, 2), dtype=np.float32))
    h = nx.mul(leaf, 2.0)
    for rearrange in REARRANGING.values():
        rearrange(h)
    assert checked == ["mul"]
    # an op output next to a leaf is checked, since the leaf never was
    nx.concat([h, leaf], axis=0)
    assert checked == ["mul", "concat"]


# -- losses -------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = nx.Tensor(np.zeros((5, 132), dtype=np.float32))
    loss = nx.cross_entropy(logits, np.zeros(5, dtype=np.int64))
    assert abs(loss.item() - math.log(132)) < 1e-5


def test_cross_entropy_rejects_out_of_vocab_target():
    logits = nx.Tensor(np.zeros((2, 10), dtype=np.float32))
    with pytest.raises(nx.ShapeError, match="cross_entropy"):
        nx.cross_entropy(logits, np.array([3, 10]))


def test_mse_identity_and_offset():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    assert nx.mse(nx.Tensor(x), nx.Tensor(x)).item() == 0.0
    assert abs(nx.mse(nx.Tensor(x), nx.Tensor(x + 1.0)).item() - 1.0) < 1e-6


# -- backward -----------------------------------------------------------------


def test_backward_sum_gives_ones():
    w = nx.Parameter(np.zeros((3, 2), dtype=np.float32))
    loss = nx.sum_(w)
    loss.backward()
    assert np.array_equal(w.grad, np.ones((3, 2), dtype=np.float32))


def test_backward_mse_at_zero_gives_zero_grad():
    w = nx.Parameter(np.zeros((2, 2), dtype=np.float32))
    x = nx.Tensor(np.ones((2, 2), dtype=np.float32))
    y = nx.Tensor(np.zeros((2, 2), dtype=np.float32))
    loss = nx.mse(nx.matmul(w, x), y)
    loss.backward()
    assert np.array_equal(w.grad, np.zeros((2, 2), dtype=np.float32))


def test_backward_twice_raises():
    w = nx.Parameter(np.ones(3, dtype=np.float32))
    loss = nx.sum_(w)
    loss.backward()
    with pytest.raises(nx.BackwardError):
        loss.backward()


def test_backward_on_a_loss_without_a_graph_says_so():
    p = nx.Parameter(np.ones(3, dtype=np.float32))
    with nx.no_grad():
        unrecorded = nx.sum_(nx.mul(p, 2.0))
    frozen = nx.Parameter(np.ones(3, dtype=np.float32), trainable=False)
    for loss in (unrecorded, nx.sum_(nx.mul(frozen, 2.0))):
        with pytest.raises(nx.BackwardError, match="the loss has no graph"):
            loss.backward()
    # a fit over frozen parameters alone builds such a loss at its first step
    with pytest.raises(nx.BackwardError, match="the loss has no graph"):
        nx.fit([frozen], lambda step: nx.sum_(nx.mul(frozen, 2.0)), steps=1, lr=0.1, weight_decay=0.0)


def test_backward_requires_scalar():
    w = nx.Parameter(np.ones(3, dtype=np.float32))
    with pytest.raises(nx.BackwardError):
        nx.mul(w, 2.0).backward()


def test_backward_through_freed_graph_raises():
    p = nx.Parameter(np.array([1.0, 2.0], dtype=np.float32))
    h = nx.mul(p, 3.0)
    l1, l2 = nx.sum_(h), nx.sum_(nx.mul(h, h))
    l1.backward()
    assert np.array_equal(p.grad, [3.0, 3.0])
    # l2 needs h's backward, which l1's pass freed; skipping it would leave
    # p.grad at [3, 3] instead of the true [3 + 18, 3 + 36]
    with pytest.raises(nx.BackwardError, match="mul"):
        l2.backward()
    assert np.array_equal(p.grad, [3.0, 3.0])


def test_backward_frees_an_intermediate_once_its_readers_have_run():
    p = nx.Parameter(np.ones((4, 8), dtype=np.float32))
    h1 = nx.mul(p, 2.0)
    h2 = nx.gelu(h1)
    alive = weakref.ref(h2.data)
    loss = nx.sum_(nx.mul(h2, 3.0))
    del h2
    states = []
    run = h1._backward_fn

    def probe(g):  # h1 runs after h2 and h2's one reader, the mul
        states.append(alive() is None)
        run(g)

    h1._backward_fn = probe
    loss.backward()
    assert states == [True]
    assert p.grad is not None


def test_a_recorded_gelu_keeps_no_buffer_beyond_its_output():
    a = nx.Parameter(np.ones((256, 256), dtype=np.float32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = nx.gelu(a)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert grown <= 1.2 * out.data.nbytes


def test_add_gives_each_parent_its_own_gradient():
    a = nx.Tensor(np.ones((2, 3)), requires_grad=True)
    b = nx.Tensor(np.ones((2, 3)), requires_grad=True)
    nx.sum_(nx.add(a, b)).backward()
    a.grad += 5.0
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_reshape_gives_its_parent_its_own_gradient():
    a = nx.Tensor(np.ones((1, 1)), requires_grad=True)
    loss = nx.reshape(a, ())
    loss.backward()
    a.grad += 5.0
    assert np.array_equal(loss.grad, np.ones(()))


def test_a_gradient_handed_to_several_parents_is_never_written():
    # the outer add hands one array to the inner add and to p, and the inner
    # add hands it on to q: summing p's second gradient into it in place
    # would give b.grad == 6
    a = nx.Tensor(np.ones(3, np.float32), requires_grad=True)
    b = nx.Tensor(np.ones(3, np.float32), requires_grad=True)
    p, q = nx.mul(a, 2.0), nx.mul(b, 3.0)
    nx.sum_(nx.add(nx.add(p, q), p)).backward()
    assert np.array_equal(a.grad, np.full(3, 4.0))
    assert np.array_equal(b.grad, np.full(3, 3.0))
    a._accumulate(np.ones(3, np.float64))
    assert a.grad.dtype == np.float32 and np.array_equal(a.grad, np.full(3, 5.0))


def test_linear_is_matmul_plus_bias_bitwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5, 6)).astype(np.float32)
    w = rng.standard_normal((6, 4)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    g = rng.standard_normal((3, 5, 4)).astype(np.float32)
    results = []
    for f in (lambda x, w, b: nx.add(nx.matmul(x, w), b), nx.linear):
        ps = [nx.Parameter(v.copy()) for v in (x, w, b)]
        out = f(*ps)
        nx.sum_(nx.mul(out, nx.Tensor(g))).backward()
        results.append([out.numpy().tobytes()] + [p.grad.tobytes() for p in ps])
    assert results[0] == results[1]


def test_linear_matches_finite_differences():
    rng = np.random.default_rng(8)
    x, w, b = (nx.Parameter(rng.standard_normal(shape)) for shape in ((2, 3, 5), (5, 4), (4,)))
    y = t64(rng.standard_normal((2, 3, 4)))
    errs = grad_check(lambda: nx.mse(nx.linear(x, w, b), y), [x, w, b])
    assert max(errs) <= 1e-6, errs


def test_linear_errors_name_the_op():
    x, w, b = np.zeros((2, 3), np.float32), np.zeros((3, 4), np.float32), np.zeros(4, np.float32)
    bad_calls = [
        (nx.DtypeError, (x, w.astype(np.float64), b)),
        (nx.DtypeError, (x, w, b.astype(np.float64))),
        (nx.ShapeError, (x, w.T, b)),
        (nx.ShapeError, (x, w, np.zeros(3, np.float32))),
        (nx.ShapeError, (x[0], w, b)),
        (nx.ShapeError, (x, w[None], b)),
    ]
    for error, args in bad_calls:
        with pytest.raises(error) as err:
            nx.linear(*map(nx.Tensor, args))
        assert err.value.op == "linear"


def test_three_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    layers = [as_float64(nx.Linear(d_in, d_out, rng)) for d_in, d_out in ((6, 8), (8, 8), (8, 4))]
    x = t64(rng.standard_normal((5, 6)))
    y = t64(rng.standard_normal((5, 4)))
    params = []
    for i, m in enumerate(layers):
        params.extend(m.named_parameters(prefix=f"l{i}."))

    def loss_fn():
        h = x
        for m in layers[:-1]:
            h = nx.gelu(m(h))
        return nx.mse(layers[-1](h), y)

    errs = grad_check(loss_fn, params)
    assert max(errs) <= 1e-6, dict(zip([p.name for p in params], errs))


# -- per-primitive finite-difference property -----------------------------------

PRIMITIVE_CASES = {
    "add": lambda p, rng: nx.add(p, t64(rng.standard_normal(p.shape))),
    "sub": lambda p, rng: nx.sub(p, t64(rng.standard_normal(p.shape))),
    "mul": lambda p, rng: nx.mul(p, t64(rng.standard_normal(p.shape))),
    "gelu": lambda p, rng: nx.gelu(p),
    "matmul": lambda p, rng: nx.matmul(p, t64(rng.standard_normal((p.shape[-1], 3)))),
    "linear": lambda p, rng: nx.linear(p, t64(rng.standard_normal((p.shape[-1], 3))), t64(rng.standard_normal(3))),
    "reshape": lambda p, rng: nx.reshape(p, (p.size,)),
    "transpose": lambda p, rng: nx.transpose(p, (1, 0)),
    "concat": lambda p, rng: nx.concat([p, t64(rng.standard_normal(p.shape))], axis=0),
    "pad": lambda p, rng: nx.pad_axis(p, 0, 1, 2),
    "window": lambda p, rng: nx.window(p, (0,), 2, 2, 1, 2),
    "window_2d": lambda p, rng: nx.window(nx.reshape(p, (2, 2, 5)), (0, 1), 3, 1, 1, 1),
    "window_2d_stride2": lambda p, rng: nx.window(nx.reshape(p, (2, 5, 2)), (1, 0), 3, 2, 2, 1),
    "window_linear": lambda p, rng: nx.window_linear(nx.reshape(p, (2, 5, 2)), t64(rng.standard_normal((18, 3))),
                                                     t64(rng.standard_normal(3)), (1, 0), 3, 2, 2, 1),
    "slice": lambda p, rng: p[1:3, :2],
    "take": lambda p, rng: nx.take(p, np.array([0, 2, 2, 1])),
    "add_rows": lambda p, rng: nx.add_rows(p, np.array([1, 3]), t64(rng.standard_normal((2, p.shape[1])))),
    "sum": lambda p, rng: nx.sum_(p, axis=0),
    "mean": lambda p, rng: nx.mean(p, axis=1),
    "mean_list_axis": lambda p, rng: nx.mean(p, axis=[0, -1], keepdims=True),
    "softmax": lambda p, rng: nx.softmax(p, axis=-1),
    "layer_norm": lambda p, rng: nx.layer_norm(p, t64(np.ones(5)), t64(np.zeros(5))),
    "l2_normalize": lambda p, rng: nx.l2_normalize(p),
    "layer_norm_affine": lambda p, rng: nx.layer_norm(p, t64(rng.standard_normal(5)), t64(rng.standard_normal(5))),
    "layer_norm_gamma": lambda p, rng: nx.layer_norm(t64(rng.standard_normal((3, 20))), nx.reshape(p, (20,)),
                                                     t64(rng.standard_normal(20))),
    "layer_norm_beta": lambda p, rng: nx.layer_norm(t64(rng.standard_normal((3, 20))), t64(rng.standard_normal(20)),
                                                    nx.reshape(p, (20,))),
    "attention": lambda p, rng: nx.attention(p, t64(rng.standard_normal(p.shape)),
                                             t64(rng.standard_normal(p.shape)), 1, causal=True),
    # q, k and v all read p, so the check covers each of their gradients
    "attention_2heads": lambda p, rng: nx.attention(
        nx.reshape(p, (5, 4)), nx.mul(nx.reshape(p, (5, 4)), t64(rng.standard_normal((5, 4)))),
        nx.add(nx.reshape(p, (5, 4)), t64(rng.standard_normal((5, 4)))), 2, causal=True),
    "attention_2heads_cross": lambda p, rng: nx.attention(
        nx.reshape(p, (5, 4))[:3], nx.reshape(p, (5, 4)), nx.transpose(nx.reshape(p, (2, 10)), (1, 0))[:5, :], 2),
    "cross_entropy": lambda p, rng: nx.cross_entropy(p, rng.integers(0, p.shape[1], size=p.shape[0])),
    "mse": lambda p, rng: nx.mse(p, t64(rng.standard_normal(p.shape))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    build = PRIMITIVE_CASES[name]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        p = nx.Parameter(rng.standard_normal((4, 5)))
        out_rng = np.random.default_rng(2000 + seed)
        w = t64(out_rng.standard_normal(build(p, np.random.default_rng(3000 + seed)).shape))

        def loss_fn():
            return nx.sum_(nx.mul(build(p, np.random.default_rng(3000 + seed)), w))

        worst = max(worst, *grad_check(loss_fn, [p]))
    assert worst <= 1e-6, f"{name}: worst rel err {worst:.3e}"


# -- attention, layer_norm and l2_normalize against the compositions they replaced --


def swap_axes_ref(x, ax1, ax2):
    """`x` with axes `ax1` and `ax2` exchanged, as one transpose node."""
    axes = list(range(x.ndim))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return nx.transpose(x, tuple(axes))


def split_heads_ref(x, heads):
    """[..., L, d] -> [..., heads, L, d/heads]"""
    *lead, length, d = x.shape
    return swap_axes_ref(nx.reshape(x, (*lead, length, heads, d // heads)), -2, -3)


def merge_heads_ref(x):
    """[..., heads, L, dh] -> [..., L, heads*dh]"""
    x = swap_axes_ref(x, -2, -3)
    *lead, length, h, dh = x.shape
    return nx.reshape(x, (*lead, length, h * dh))


def matmul_ref(a, b):
    """Batched a [..., m, k] @ b [..., k, n] as one node, by `np.matmul` in
    both directions, as the composition that `nx.attention` replaced ran it
    (`nx.matmul` takes only a [k, n] right operand)."""

    def bwd(g):
        if a.requires_grad:
            a._accumulate(tz._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            b._accumulate(tz._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return tz.Tensor._from_op(np.matmul(a.data, b.data), (a, b), "matmul", bwd)


def attention_ref(q, k, v, heads, causal=False):
    """Split, matmul, mul, add, softmax, matmul and merge ops, one node each."""
    qh, kh, vh = (split_heads_ref(t, heads) for t in (q, k, v))
    scores = nx.mul(matmul_ref(qh, swap_axes_ref(kh, -1, -2)), 1.0 / math.sqrt(qh.shape[-1]))
    if causal:
        scores = nx.add(scores, nx.Tensor(tz.causal_bias(q.shape[-2], q.dtype)))
    return merge_heads_ref(matmul_ref(nx.softmax(scores, axis=-1), vh))


def layout(a: np.ndarray) -> tuple:
    """The strides of the axes longer than 1: the order in which a consumer
    reads the array, which decides how its sums round."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


def results_and_grads(fn, inputs, g):
    """fn's output and each input's gradient for the loss sum(out * g), as
    bytes, with each gradient's layout."""
    leaves = [nx.Tensor(x, requires_grad=True) for x in inputs]
    out = fn(*leaves)
    nx.sum_(nx.mul(out, nx.Tensor(g))).backward()
    return [out.numpy().tobytes()] + [(t.grad.tobytes(), layout(t.grad)) for t in leaves]


@st.composite
def attention_calls(draw):
    """(lead axes, heads, dh, dv, Lq, Lk, causal, shared):
    with `shared`, q, k and v are products of one input, so the order in
    which their gradients reach it shows."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    heads = draw(st.sampled_from([1, 2, 4]))
    shared = draw(st.booleans())
    dh = draw(st.integers(1, 4))
    dv = dh if shared else draw(st.integers(1, 4))
    causal = draw(st.booleans())
    lq = draw(st.integers(1, 5))
    lk = lq if causal or shared else draw(st.integers(1, 5))
    return lead, heads, dh, dv, lq, lk, causal, shared


@settings(max_examples=300, deadline=None)
@given(attention_calls(), st.integers(0, 2**32 - 1))
@example(((2,), 2, 3, 2, 3, 5, False, False), 0)  # cross-attention shape: Lq != Lk
@example(((2, 3), 4, 2, 2, 4, 4, True, True), 1)  # two lead axes, causal, a shared input
def test_attention_matches_composition_bitwise(call, seed):
    lead, heads, dh, dv, lq, lk, causal, shared = call
    rng = np.random.default_rng(seed)
    q = (rng.standard_normal((*lead, lq, heads * dh)) * 2).astype(np.float32)
    k = (rng.standard_normal((*lead, lk, heads * dh)) * 2).astype(np.float32)
    v = rng.standard_normal((*lead, lk, heads * dv)).astype(np.float32)
    g = rng.standard_normal((*lead, lq, heads * dv)).astype(np.float32)
    inputs = (q,) if shared else (q, k, v)

    def projections(*leaves):
        if not shared:
            return leaves
        return tuple(nx.mul(leaves[0], nx.Tensor(c)) for c in (q, k, v))

    want = results_and_grads(lambda *t: attention_ref(*projections(*t), heads, causal), inputs, g)
    got = results_and_grads(lambda *t: nx.attention(*projections(*t), heads, causal=causal), inputs, g)
    assert got == want


def normalize_ref(a):
    """The pre-affine normalization node that layer_norm's affine form replaced."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    out_data = (xc * inv).astype(a.dtype, copy=False)

    def bwd(g):
        gx = inv * (g - g.mean(axis=-1, keepdims=True) - out_data * (g * out_data).mean(axis=-1, keepdims=True))
        a._accumulate(gx.astype(a.dtype, copy=False))

    return tz.Tensor._from_op(out_data, (a,), "layer_norm", bwd)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_layer_norm_matches_composition_bitwise(lead, d, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((*lead, d)) * 3).astype(np.float32)
    gamma, beta = (rng.standard_normal(d).astype(np.float32) for _ in range(2))
    g = rng.standard_normal((*lead, d)).astype(np.float32)

    def composed(x, gamma, beta):
        return nx.add(nx.mul(normalize_ref(x), gamma), beta)

    assert results_and_grads(nx.layer_norm, (x, gamma, beta), g) == results_and_grads(composed, (x, gamma, beta), g)


def div_ref(a, b):
    """The div node that ended l2_normalize's composition."""

    def bwd(g):
        if a.requires_grad:
            a._accumulate(tz._unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(tz._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return tz.Tensor._from_op(a.data / b.data, (a, b), "div", bwd)


def sqrt_ref(a):
    """The sqrt node of l2_normalize's composition."""
    out_data = np.sqrt(a.data)

    def bwd(g):
        a._accumulate(g * 0.5 / out_data)

    return tz.Tensor._from_op(out_data, (a,), "sqrt", bwd)


def l2_normalize_ref(a):
    """Mul, sum, add, sqrt and div nodes: a / sqrt(sum(a * a) + 1e-8)."""
    squares = nx.sum_(nx.mul(a, a), axis=-1, keepdims=True)
    return div_ref(a, sqrt_ref(nx.add(squares, nx.Tensor(np.asarray(1e-8, dtype=a.dtype)))))


# input scales: squares that underflow to zero, subnormal squares, unit, and
# huge values whose 16 squares still sum far below the dtype's overflow
L2_SCALES = {np.float32: (1e-30, 1e-21, 1.0, 1e17), np.float64: (1e-200, 1e-160, 1.0, 1e150)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 16), st.sampled_from([np.float32, np.float64]),
       st.integers(0, 3), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@example([2, 3], 16, np.float32, 0, True, True, 0)
@example([3], 5, np.float64, 3, True, False, 1)
def test_l2_normalize_matches_composition_bitwise(lead, d, dtype, scale, zero_rows, fortran_g, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((*lead, d)) * L2_SCALES[dtype][scale]).astype(dtype)
    if zero_rows:
        x[np.asarray(rng.random(tuple(lead)) < 0.4)] = 0.0
    g = rng.standard_normal(x.shape).astype(dtype)
    if fortran_g:  # the output gradient in another memory order
        g = np.asfortranarray(g)
    assert results_and_grads(nx.l2_normalize, (x,), g) == results_and_grads(l2_normalize_ref, (x,), g)


@pytest.mark.parametrize("x", [[1e20, 1.0], [1e19] * 4], ids=["squares_overflow", "sum_overflows"])
def test_l2_normalize_raises_where_its_root_overflows(x):
    # the output alone would read as finite: x / inf is 0
    with np.errstate(over="ignore"), pytest.raises(nx.NonFiniteError) as err:
        nx.l2_normalize(nx.Tensor(np.array(x, np.float32)))
    assert err.value.op == "l2_normalize"


def test_l2_normalize_rejects_a_0d_tensor():
    with pytest.raises(nx.ShapeError) as err:
        nx.l2_normalize(nx.Tensor(np.ones((), np.float32)))
    assert err.value.op == "l2_normalize"


def test_attention_and_layer_norm_errors_name_the_op():
    q = nx.Tensor(np.zeros((2, 3, 4), np.float32))
    bad_attention = [
        (nx.DtypeError, lambda: nx.attention(q, q, nx.Tensor(np.zeros((2, 3, 4))), 2)),
        (nx.ShapeError, lambda: nx.attention(q, q, q[:1], 2)),  # leading axes differ
        (nx.ShapeError, lambda: nx.attention(q, q[:, :, :2], q, 2)),  # q/k widths differ
        (nx.ShapeError, lambda: nx.attention(q, q, q[:, :2], 2)),  # k/v lengths differ
        (nx.ShapeError, lambda: nx.attention(q, q, q, 3)),  # 3 heads do not split 4 channels
        (nx.ShapeError, lambda: nx.attention(q, q, q, 0)),
        (nx.ShapeError, lambda: nx.attention(q[:, :2], q, q, 2, causal=True)),
    ]
    for error, call in bad_attention:
        with pytest.raises(error) as err:
            call()
        assert err.value.op == "attention"
    ones = nx.Tensor(np.ones(4, np.float32))
    for error, args in [(nx.DtypeError, (q, ones, nx.Tensor(np.zeros(4)))),
                        (nx.ShapeError, (q, ones[:3], ones[:3])),
                        (nx.ShapeError, (q, ones, nx.Tensor(np.zeros((1, 4), np.float32)))),
                        (nx.ShapeError, (nx.Tensor(np.zeros((), np.float32)), ones[:1], ones[:1]))]:
        with pytest.raises(error) as err:
            nx.layer_norm(*args)
        assert err.value.op == "layer_norm"


# -- window against the pad/slice/take/concat compositions it replaced -------------


def pad_ref(h, axis, before, after):
    """Zero-pad one axis by concatenating zero blocks."""
    def zeros(n):
        shape = list(h.shape)
        shape[axis] = n
        return nx.Tensor(np.zeros(shape, h.dtype))

    return nx.concat([zeros(before), h, zeros(after)], axis=axis)


def spatial_ref(h):
    """3x3 context: two pads, nine slices and a concat."""
    _, _, rows, cols, _ = h.shape
    padded = pad_ref(pad_ref(h, 2, 1, 1), 3, 1, 1)
    return nx.concat([padded[:, :, i:i + rows, j:j + cols, :] for i in range(3) for j in range(3)], axis=-1)


def temporal_ref(h):
    """Causal stride-2 windows of four frames: a pad, four takes and a concat."""
    t_out = (h.shape[0] + 1) // 2
    padded = pad_ref(h, 0, 2, h.shape[0] % 2)
    return nx.concat([nx.take(padded, 2 * np.arange(t_out) + off) for off in range(4)], axis=-1)


def pair_ref(h):
    """Windows of the previous and the current frame: a pad, two takes and a concat."""
    padded = pad_ref(h, 0, 1, 0)
    t = h.shape[0]
    return nx.concat([nx.take(padded, np.arange(t)), nx.take(padded, np.arange(t) + 1)], axis=-1)


WINDOW_REFS = [
    ("spatial", (2, 3, 8, 8, 5), spatial_ref, lambda h: nx.window(h, (2, 3), 3, 1, 1, 1)),
    ("spatial_odd", (1, 2, 3, 5, 2), spatial_ref, lambda h: nx.window(h, (2, 3), 3, 1, 1, 1)),
    *[(f"temporal_{t}", (t, 2, 4, 4, 3), temporal_ref, lambda h: nx.window(h, (0,), 4, 2, 2, h.shape[0] % 2))
      for t in (1, 7, 8, 12)],
    ("pair", (6, 2, 4, 4, 3), pair_ref, lambda h: nx.window(h, (0,), 2, 1, 1, 0)),
]


@pytest.mark.parametrize("name,shape,reference,windowed", WINDOW_REFS, ids=[c[0] for c in WINDOW_REFS])
def test_window_matches_compositions_bitwise(name, shape, reference, windowed):
    rng = np.random.default_rng(len(name))
    x = rng.standard_normal(shape).astype(np.float32)
    results = []
    for build in (reference, windowed):
        p = nx.Parameter(x.copy())
        out = build(p)
        w = np.random.default_rng(1).standard_normal(out.shape).astype(np.float32)
        nx.sum_(nx.mul(out, nx.Tensor(w))).backward()
        results.append((out.shape, out.numpy().tobytes(), p.grad.tobytes()))
    assert results[0] == results[1]


def window_oracle(x, axes, size, stride, before, after):
    """The padded window: forward by np.pad and a concat of strided views, and
    a backward that scatters into a padded buffer, then crops the interior."""
    widths = [(before, after) if ax in axes else (0, 0) for ax in range(x.ndim)]
    padded = np.pad(x, widths)
    blocks = []
    for offsets in itertools.product(range(size), repeat=len(axes)):
        idx = [slice(None)] * x.ndim
        for ax, k in zip(axes, offsets):
            idx[ax] = slice(k, k + padded.shape[ax] - size + 1, stride)
        blocks.append(tuple(idx))
    c = x.shape[-1]

    def backward(g):
        buf = np.zeros_like(padded)
        for i, idx in enumerate(blocks):
            buf[idx] += g[..., i * c:(i + 1) * c]
        return buf[tuple(slice(w0, w0 + n) for n, (w0, _) in zip(x.shape, widths))]

    return np.concatenate([padded[idx] for idx in blocks], axis=-1), backward


@st.composite
def window_calls(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    axes = tuple(draw(st.permutations(range(len(shape) - 1)).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda n: order[:n]))))
    size, stride, before, after = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 3), (0, 3), (0, 3)))
    assume(all(shape[ax] + before + after >= size for ax in axes))
    return shape, axes, size, stride, before, after


@settings(max_examples=300, deadline=None)
@given(window_calls(), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_window_matches_padded_oracle_bitwise(call, dtype, seed):
    shape, axes, size, stride, before, after = call
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    expected, oracle_backward = window_oracle(x, axes, size, stride, before, after)
    a = nx.Tensor(x, requires_grad=True)
    out = nx.window(a, axes, size, stride, before, after)
    assert out.dtype == dtype and out.shape == expected.shape
    assert out.numpy().tobytes() == expected.tobytes()
    g = rng.standard_normal(expected.shape).astype(dtype)
    nx.sum_(nx.mul(out, nx.Tensor(g))).backward()
    assert a.grad.dtype == dtype and a.grad.tobytes() == oracle_backward(g).tobytes()


def test_window_shape_errors():
    x = nx.Tensor(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(nx.ShapeError, match="window"):
        nx.window(x, (1,), 1, 1, 0, 0)  # the channel axis
    with pytest.raises(nx.ShapeError, match="window"):
        nx.window(x, (0,), 6, 1, 1, 1)  # 6 entries, padded length 5


# -- window_linear against linear(window(...)) ---------------------------------------


def linear_of_window(a, w, b, *window_args):
    return nx.linear(nx.window(a, *window_args), w, b)


def window_linear_results(build, x, w, b, g, window_args):
    """Output and the gradients of a, w and b of `build` under the loss sum(out * g)."""
    ps = [nx.Parameter(v.copy()) for v in (x, w, b)]
    out = build(*ps, *window_args)
    nx.sum_(nx.mul(out, nx.Tensor(g))).backward()
    return [out.numpy()] + [p.grad for p in ps]


# Tolerances relative to the sum of the absolute values of each result's
# terms, the scale of its rounding-error bound. The two orders of summation
# differed by at most 2.0e-7 of that scale in float32 (under 2 ulps) and
# 2.9e-16 in float64, over 600 random calls of this test's shapes.
WINDOW_LINEAR_TOL = {np.float32: 2e-6, np.float64: 1e-12}


@settings(max_examples=200, deadline=None)
@given(window_calls(), st.integers(1, 4), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
@example(((1, 2, 3), (0,), 4, 1, 3, 0), 2, np.float64, 0)  # entries 0-2 lie wholly in the padding
@example(((1, 1, 2), (1, 0), 3, 2, 2, 2), 3, np.float32, 1)  # the middle entry on both axes, stride 2
def test_window_linear_matches_linear_of_window(call, n, dtype, seed):
    shape, axes, size, stride, before, after = call
    window_args = (axes, size, stride, before, after)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((size ** len(axes) * shape[-1], n)).astype(dtype)
    b = rng.standard_normal(n).astype(dtype)
    out_shape = nx.window(nx.Tensor(x), *window_args).shape[:-1] + (n,)
    g = rng.standard_normal(out_shape).astype(dtype)
    want = window_linear_results(linear_of_window, x, w, b, g, window_args)
    got = window_linear_results(nx.window_linear, x, w, b, g, window_args)
    # every term is non-negative here, so each result is its own error scale
    scale = window_linear_results(linear_of_window, *(np.abs(v).astype(np.float64) for v in (x, w, b, g)),
                                  window_args)
    for name, got_v, want_v, scale_v in zip(("out", "a", "w", "b"), got, want, scale):
        assert got_v.dtype == dtype and got_v.shape == want_v.shape, name
        assert (np.abs(got_v - want_v) <= WINDOW_LINEAR_TOL[dtype] * scale_v).all(), name


def window_linear_serial_grads(x, w, g, window_args):
    """The gradients of a, w and b of `window_linear`, by its loops run one after the other."""
    lead, pairs = tz._window_table("window_linear", x.shape, *window_args)
    c = x.shape[-1]
    w_entries = w.reshape(-1, c, w.shape[1])
    g_rows = tz._rows(g)
    ga = np.zeros_like(x)
    for i, dst, src in pairs:
        ga[src] += (g_rows @ w_entries[i].T).reshape(lead + (c,))[dst]
    gw = np.zeros_like(w)
    entry = np.empty(lead + (c,), dtype=x.dtype)
    for i, dst, src in pairs:
        entry.fill(0)
        entry[dst] = x[src]
        gw[i * c:(i + 1) * c] = tz._rows(entry).T @ g_rows
    return ga, gw, tz._unbroadcast(g, (w.shape[1],))


# the VAE's four windowed layers over [T, B, 8, 8, C]: encoder spatial and
# temporal at T input frames, decoder spatial and temporal at (T + 1) // 2
VAE_WINDOWS = {
    "enc_spatial": (False, 9 * 64, 64, pc._CONTEXT_3X3),
    "enc_temporal": (False, 4 * 64, 128, None),
    "dec_spatial": (True, 9 * 64, 64, pc._CONTEXT_3X3),
    "dec_temporal": (True, 2 * 64, 128, ((0,), 2, 1, 1, 0)),
}


@pytest.mark.parametrize("needs", ["a w b", "a", "w"])
@pytest.mark.parametrize("frames", [8, 1])
@pytest.mark.parametrize("layer", sorted(VAE_WINDOWS))
def test_window_linear_gradients_equal_the_serial_loops_bitwise(layer, frames, needs):
    latent, rows, n, window_args = VAE_WINDOWS[layer]
    t = (frames + 1) // 2 if latent else frames
    window_args = window_args or ((0,), 4, 2, 2, t % 2)
    rng = np.random.default_rng([rows, n, t])
    x = rng.standard_normal((t, 8, 8, 8, 64)).astype(np.float32)
    w = (rng.standard_normal((rows, n)) * 0.05).astype(np.float32)
    b = rng.standard_normal(n).astype(np.float32)
    ps = [nx.Tensor(v, requires_grad=name in needs.split()) for name, v in zip("awb", (x, w, b))]
    out = nx.window_linear(*ps, *window_args)
    g = rng.standard_normal(out.shape).astype(np.float32)
    nx.sum_(nx.mul(out, nx.Tensor(g))).backward()
    for p, want in zip(ps, window_linear_serial_grads(x, w, g, window_args)):
        if p.requires_grad:
            assert p.grad.tobytes() == want.tobytes()
        else:
            assert p.grad is None


def test_window_table_cache_hit_equals_an_uncached_build():
    a = nx.Tensor(np.zeros((5, 4, 3, 2), np.float32))
    args = ("window", a.shape, (2, 0), 3, 2, 2, 1)
    nx.window(a, *args[2:])
    hits = tz._window_table.cache_info().hits
    table = tz._window_table(*args)
    assert tz._window_table.cache_info().hits == hits + 1
    assert table == tz._window_table.__wrapped__(*args)


def test_window_checks_run_when_the_table_cache_is_warm():
    a = nx.Tensor(np.zeros((4, 3, 2), np.float32))
    w, b = nx.Tensor(np.zeros((6, 5), np.float32)), nx.Tensor(np.zeros(5, np.float32))
    tz._window_table.cache_clear()
    nx.window(a, (1,), 3, 1, 1, 1)
    nx.window_linear(a, w, b, (1,), 3, 1, 1, 1)
    for _ in range(2):  # a call that raised is never stored, so the second round raises too
        for bad in [((2,), 3, 1, 1, 1), ((1,), 3, 0, 1, 1), ((1,), 3, 1, -1, 1), ((1,), 6, 1, 1, 1)]:
            with pytest.raises(nx.ShapeError) as err:
                nx.window(a, *bad)
            assert err.value.op == "window"
            with pytest.raises(nx.ShapeError) as err:
                nx.window_linear(a, nx.Tensor(np.zeros((bad[1] * 2, 5), np.float32)), b, *bad)
            assert err.value.op == "window_linear"
    assert tz._window_table.cache_info().currsize == 2  # the two good calls' tables


def test_window_linear_matches_finite_differences():
    rng = np.random.default_rng(9)
    a, w, b = (nx.Parameter(rng.standard_normal(shape)) for shape in ((3, 4, 2), (18, 3), (3,)))
    y = t64(rng.standard_normal((2, 3, 3)))
    errs = grad_check(lambda: nx.mse(nx.window_linear(a, w, b, (1, 0), 3, 2, 2, 1), y), [a, w, b])
    assert max(errs) <= 1e-6, errs


def test_window_linear_errors_name_the_op():
    a, w, b = np.zeros((4, 3, 2), np.float32), np.zeros((6, 5), np.float32), np.zeros(5, np.float32)
    window_args = ((1,), 3, 1, 1, 1)
    bad_calls = [
        (nx.DtypeError, (a.astype(np.float64), w, b), window_args),
        (nx.DtypeError, (a, w, b.astype(np.float64)), window_args),
        (nx.ShapeError, (a, w[:4], b), window_args),  # rows for two entries, not three
        (nx.ShapeError, (a, w, np.zeros(4, np.float32)), window_args),
        (nx.ShapeError, (a, w[None], b), window_args),
        (nx.ShapeError, (a[0, 0], w[:2], b), ((), 1, 1, 0, 0)),  # a 1-d input
        (nx.ShapeError, (a, w, b), ((2,), 3, 1, 1, 1)),  # the channel axis
        (nx.ShapeError, (a, w, b), ((1,), 3, 0, 1, 1)),  # stride 0
        (nx.ShapeError, (a, w, b), ((1,), 6, 1, 1, 1)),  # 6 entries, padded length 5
    ]
    for error, args, window_args in bad_calls:
        with pytest.raises(error) as err:
            nx.window_linear(*map(nx.Tensor, args), *window_args)
        assert err.value.op == "window_linear"


def test_window_linear_records_no_graph_under_no_grad():
    rng = np.random.default_rng(2)
    a, w, b = (nx.Parameter(rng.standard_normal(shape).astype(np.float32)) for shape in ((4, 3, 2), (6, 5), (5,)))
    with nx.no_grad():
        out = nx.window_linear(a, w, b, (1,), 3, 1, 1, 1)
    assert not out.requires_grad and out._parents == () and out._backward_fn is None
    assert out.numpy().tobytes() == nx.window_linear(a, w, b, (1,), 3, 1, 1, 1).numpy().tobytes()


def test_window_linear_checks_its_output_for_non_finite_values():
    # products of finite op outputs can overflow, so window_linear is checked
    # even where every input is an op output
    a = nx.mul(nx.Tensor(np.full((2, 3, 2), 1e30, np.float32)), 1.0)
    w = nx.mul(nx.Tensor(np.full((6, 1), 1e30, np.float32)), 1.0)
    b = nx.mul(nx.Tensor(np.zeros(1, np.float32)), 1.0)
    with np.errstate(over="ignore"), pytest.raises(nx.NonFiniteError) as err:
        nx.window_linear(a, w, b, (1,), 3, 1, 1, 1)
    assert err.value.op == "window_linear"


def test_determinism_same_seed_same_bits():
    def run():
        rng = np.random.default_rng(42)
        lin = nx.Linear(8, 8, rng)
        x = nx.Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        loss = nx.mse(nx.gelu(lin(x)), nx.Tensor(np.zeros((4, 8), dtype=np.float32)))
        loss.backward()
        return loss.item(), lin.weight.grad.copy(), lin.weight.data.copy()

    l1, g1, w1 = run()
    l2, g2, w2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)
    assert np.array_equal(w1, w2)


# -- optimizer ------------------------------------------------------------------


def _named(params):
    for i, p in enumerate(params):
        p.name = f"p{i}"
    return params


def test_adamw_zero_grad_zero_decay_leaves_param():
    p = _named([nx.Parameter(np.array([1.0, -2.0], dtype=np.float32))])[0]
    opt = nx.AdamW([p], lr=0.1, weight_decay=0.0)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_single_step_matches_scalar_oracle():
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
    w0, g = 0.7, 0.3
    p = _named([nx.Parameter(np.array([w0], dtype=np.float32))])[0]
    p.grad = np.array([g], dtype=np.float32)
    opt = nx.AdamW([p], lr=lr, weight_decay=wd)
    opt.step()
    # scalar AdamW re-implementation
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = w0 - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * w0)
    assert abs(p.data[0] - expected) < 1e-6
    # update direction opposes the gradient
    assert (p.data[0] - w0) * g < 0


def test_adamw_frozen_param_bitwise_unchanged():
    p = _named([nx.Parameter(np.array([1.5, 2.5], dtype=np.float32))])[0]
    p.requires_grad = False
    opt = nx.AdamW([p], lr=0.5, weight_decay=0.01)
    before = p.data.tobytes()
    p.grad = np.array([10.0, -10.0], dtype=np.float32)
    for _ in range(5):
        opt.step()
    assert p.data.tobytes() == before


def test_adamw_missing_state_errors():
    p = _named([nx.Parameter(np.zeros(2, dtype=np.float32))])[0]
    p.requires_grad = False
    opt = nx.AdamW([p], lr=0.1, weight_decay=0.01)
    p.requires_grad = True  # trainable again without rebuilding states
    with pytest.raises(nx.MissingStateError):
        opt.step()


def test_adamw_unnamed_params_keep_separate_state():
    a = nx.Parameter(np.zeros(3, dtype=np.float32))
    b = nx.Parameter(np.zeros(3, dtype=np.float32))
    a.grad = np.ones(3, dtype=np.float32)
    b.grad = -np.ones(3, dtype=np.float32)
    opt = nx.AdamW([a, b], lr=0.1, weight_decay=0.0)
    opt.step()
    # the first Adam step moves each parameter by lr against its own gradient
    assert np.allclose(a.data, -0.1, atol=1e-6)
    assert np.allclose(b.data, 0.1, atol=1e-6)


def test_adamw_deterministic():
    def run():
        rng = np.random.default_rng(5)
        p = _named([nx.Parameter(rng.standard_normal(8).astype(np.float32))])[0]
        opt = nx.AdamW([p], lr=0.01, weight_decay=0.01)
        for step in range(10):
            p.grad = np.full(8, 0.1 * (step + 1), dtype=np.float32)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


# -- fit ------------------------------------------------------------------------


def _quadratic():
    """A parameter and a loss whose gradient depends on the parameter."""
    p = _named([nx.Parameter(np.array([1.0, -2.0, 0.5], dtype=np.float32))])[0]
    return p, lambda step: nx.sum_(nx.mul(p, p))


def test_fit_returns_each_steps_loss_and_applies_lr_at(monkeypatch):
    p, loss = _quadratic()
    seen_losses, seen_lr = [], []
    step = nx.AdamW.step

    def recording_step(opt):
        seen_lr.append(opt.lr)
        step(opt)

    def loss_at(k):
        seen_losses.append(float(np.sum(p.data.astype(np.float64) ** 2)))
        return loss(k)

    monkeypatch.setattr(nx.AdamW, "step", recording_step)
    history = nx.fit([p], loss_at, steps=4, lr=0.1, weight_decay=0.0, lr_at=lambda k: 0.1 / (k + 1))
    assert len(history) == 4
    assert np.allclose(history, seen_losses, rtol=1e-6)
    assert seen_lr == [0.1, 0.05, 0.1 / 3, 0.025]


def test_fit_steps_an_unreached_parameter_as_with_a_zero_gradient(monkeypatch):
    def run(explicit_zero):
        p, loss = _quadratic()
        unreached = nx.Parameter(np.array([0.5, -1.5], dtype=np.float32))
        unreached.name = "unreached"
        if explicit_zero:
            step = nx.AdamW.step

            def step_with_zero(opt):
                assert unreached.grad is None
                unreached.grad = np.zeros_like(unreached.data)
                step(opt)

            monkeypatch.setattr(nx.AdamW, "step", step_with_zero)
        nx.fit([p, unreached], loss, steps=3, lr=0.1, weight_decay=0.01)
        monkeypatch.undo()
        return p.data.tobytes(), unreached.data.tobytes()

    implicit = run(False)
    assert implicit == run(True)
    # weight decay moved it, so the step was taken
    assert implicit[1] != np.array([0.5, -1.5], dtype=np.float32).tobytes()


class _Stop(Exception):
    pass


def _weights_after(steps):
    p, loss = _quadratic()
    nx.fit([p], loss, steps=steps, lr=0.1, weight_decay=0.01)
    return p.data.copy()


def test_fit_propagates_loss_at_errors_with_earlier_steps_applied():
    p, loss = _quadratic()
    stop = _Stop()

    def loss_at(k):
        if k == 2:
            raise stop
        return loss(k)

    with pytest.raises(_Stop) as exc:
        nx.fit([p], loss_at, steps=5, lr=0.1, weight_decay=0.01)
    assert exc.value is stop
    assert np.array_equal(p.data, _weights_after(2))


def test_fit_propagates_optimizer_step_errors_with_earlier_steps_applied(monkeypatch):
    p, loss = _quadratic()
    step = nx.AdamW.step

    def step_until_third(opt):
        if opt.step_count == 2:
            raise _Stop
        step(opt)

    monkeypatch.setattr(nx.AdamW, "step", step_until_third)
    with pytest.raises(_Stop):
        nx.fit([p], loss, steps=5, lr=0.1, weight_decay=0.01)
    monkeypatch.undo()
    assert np.array_equal(p.data, _weights_after(2))


# -- grad_check itself -----------------------------------------------------------


def test_grad_check_attention_block():
    rng = np.random.default_rng(11)
    block = as_float64(nx.TransformerBlock(16, 2, rng))
    x = t64(rng.standard_normal((6, 16)))
    y = t64(rng.standard_normal((6, 16)))
    params = list(block.named_parameters(prefix="blk."))

    def loss_fn():
        return nx.mse(block(x, causal=True), y)

    errs = grad_check(loss_fn, params)
    assert max(errs) <= 1e-6, dict(zip([p.name for p in params], errs))


def cross_block(dtype):
    """A block with cross-attention over 6-wide cond tokens, its [2, 5, 8]
    input and [2, 4, 6] cond."""
    rng = np.random.default_rng(12)
    block = nx.TransformerBlock(8, 2, rng, cross_dim=6)
    if dtype == np.float64:
        as_float64(block)
    x = nx.Tensor(rng.standard_normal((2, 5, 8)).astype(dtype))
    cond = rng.standard_normal((2, 4, 6)).astype(dtype)
    return block, x, cond


def sharp_cross_block():
    """`cross_block(np.float64)` with every weight matrix scaled by 10, so
    attention is far from uniform, and a [2, 5, 8] target for its output."""
    block, x, cond = cross_block(np.float64)
    for p in block.parameters():
        if p.ndim == 2:
            p.data *= 10.0
    return block, x, t64(cond), t64(np.random.default_rng(13).standard_normal((2, 5, 8)))


def test_grad_check_cross_attention_block():
    block, x, cond, y = sharp_cross_block()
    params = list(block.named_parameters(prefix="blk."))

    def loss_fn():
        return nx.mse(block(x, cond=cond), y)

    errs = grad_check(loss_fn, params)
    assert max(errs) <= 1e-6, dict(zip([p.name for p in params], errs))


def test_every_cross_block_parameter_gets_a_gradient():
    # a parameter no output depends on, such as a key bias (softmax cancels
    # it), gets a gradient of float64 noise, about 1e-17 of the largest here;
    # the least-reached live one, ln_x.beta, reads 2.4e-2
    block, x, cond, y = sharp_cross_block()
    assert dead_parameters(block, lambda: nx.mse(block(x, cond=cond, causal=True), y), 1e-6) == {}


def test_block_rejects_cond_it_cannot_use():
    rng = np.random.default_rng(15)
    x = nx.Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
    cond = nx.Tensor(rng.standard_normal((2, 4, 6)).astype(np.float32))
    with pytest.raises(nx.ShapeError) as err:
        nx.TransformerBlock(8, 2, rng)(x, cond=cond)  # built without cross_dim
    assert err.value.op == "cross_attention"


def count_nodes(monkeypatch, fn) -> int:
    """Graph nodes made while `fn` runs."""
    made = []
    from_op = tz.Tensor._from_op

    def counted(*args):
        made.append(args[2])
        return from_op(*args)

    with monkeypatch.context() as m:
        m.setattr(tz.Tensor, "_from_op", staticmethod(counted))
        fn()
    return len(made)


def test_block_forward_node_counts(monkeypatch):
    # attention and layer_norm are one node each; more nodes mean the head
    # split/merge or the norm's affine ops are back as ops of their own
    rng = np.random.default_rng(16)
    block = nx.TransformerBlock(8, 2, rng)
    x = nx.Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
    assert count_nodes(monkeypatch, lambda: block(x)) == 12
    block, x, cond = cross_block(np.float32)
    assert count_nodes(monkeypatch, lambda: block(x, cond=nx.Tensor(cond))) == 19


def test_embed_frames_node_count(monkeypatch):
    # patch embed, pos add, 2 blocks of 12, mean (sum and mul), out linear and
    # one l2_normalize node; more means the normalization is a composition again
    encoder = pc.FrameEncoder()
    frames = np.random.default_rng(18).uniform(0.0, 1.0, (2, 3, 32, 32)).astype(np.float32)
    assert count_nodes(monkeypatch, lambda: encoder.embed_frames(frames)) == 30


@pytest.mark.parametrize("shapes", [[(3, 2), (3, 2)], [(3, 2), (4,)]], ids=["same_shape", "other_shape"])
def test_grad_check_keeps_same_named_parameters_apart(shapes):
    rng = np.random.default_rng(14)
    params = [nx.Parameter(rng.standard_normal(shape)) for shape in shapes]
    targets = [t64(rng.standard_normal(shape)) for shape in shapes]
    assert len({p.name for p in params}) == 1

    def loss_fn():
        a, b = params
        return nx.add(nx.mse(nx.mul(a, a), targets[0]), nx.mse(b, targets[1]))

    assert max(grad_check(loss_fn, params)) <= 1e-6


def test_grad_check_constant_function_zero_both_sides():
    p = nx.Parameter(np.ones(4, dtype=np.float64))

    def loss_fn():
        return nx.mse(nx.mul(p, 0.0), nx.Tensor(np.zeros(4, dtype=np.float64)))

    assert grad_check(loss_fn, [p]) == [0.0]


def test_cross_entropy_gradient_is_probs_minus_onehot_over_n():
    n, vocab = 6, 9
    logits = nx.Parameter(np.zeros((n, vocab), dtype=np.float64))
    targets = np.arange(n) % vocab
    loss = nx.cross_entropy(logits, targets)
    loss.backward()
    probs = np.full((n, vocab), 1.0 / vocab)
    onehot = np.zeros((n, vocab))
    onehot[np.arange(n), targets] = 1.0
    assert np.allclose(logits.grad, (probs - onehot) / n, atol=1e-12)


def test_unreachable_parameter_grad_is_zero_filled():
    used = nx.Parameter(np.ones(2, dtype=np.float32))
    unused = nx.Parameter(np.ones(2, dtype=np.float32))
    loss = nx.sum_(used)
    loss.backward()
    assert np.array_equal(unused.grad, np.zeros(2, dtype=np.float32))


def test_module_names_are_unique_and_hierarchical():
    rng = np.random.default_rng(3)
    block = nx.TransformerBlock(8, 2, rng)
    names = [p.name for p in block.named_parameters(prefix="b.")]
    assert len(names) == len(set(names))
    assert all(n.startswith("b.") for n in names)
    assert any("attn.wq.weight" in n for n in names)


def test_no_grad_disables_recording():
    p = nx.Parameter(np.ones(3, dtype=np.float32))
    with nx.no_grad():
        out = nx.mul(p, 2.0)
    assert not out.requires_grad
    assert out._parents == ()


def test_causal_bias_blocks_future():
    b = tz.causal_bias(4, np.float32)
    assert b[0, 1] < -1e29 and b[1, 0] == 0.0 and b[2, 2] == 0.0


def test_cached_causal_bias_is_read_only():
    rng = np.random.default_rng(17)
    q, k, v = (nx.Tensor(rng.standard_normal((3, 4)).astype(np.float32)) for _ in range(3))
    before = nx.attention(q, k, v, 2, causal=True).numpy()
    with pytest.raises(ValueError):
        tz.causal_bias(3, np.float32)[0, 1] = 0.0
    assert nx.attention(q, k, v, 2, causal=True).numpy().tobytes() == before.tobytes()
