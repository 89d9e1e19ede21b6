"""Backward-pass checks: analytic gradients against central differences.

Every differentiable op gets a finite-difference comparison on small
shapes. The combined tolerance |analytic - numeric| <= atol + rtol*|numeric|
keeps the check meaningful where gradients are exactly zero.
"""

import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnet import tensor as T
from ftnet.errors import UsageError
from ftnet.model import ModelConfig, build_model, multistage_forward

from conv_geometry import conv1d_geometry, conv1d_transpose_geometry, operands
from oracles import gradients_close, numeric_gradient

RNG = np.random.default_rng(77)


def rand(*shape):
    return RNG.standard_normal(shape)


def check_op(func, arrays, rtol=1e-4):
    """FD-check ``func`` (tensors -> scalar Tensor) w.r.t. every input."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = func(*tensors)
    loss.backward()

    def as_scalar(*arrs):
        with T.no_grad():
            return func(*[T.Tensor(a) for a in arrs]).item()

    for i, t in enumerate(tensors):
        numeric = numeric_gradient(as_scalar, arrays, i)
        assert t.grad is not None, f"input {i} got no gradient"
        assert gradients_close(t.grad, numeric, rtol=rtol), (
            f"input {i}: max abs err "
            f"{np.max(np.abs(t.grad - numeric)):.3e}"
        )


# ---------------------------------------------------------------------------
# per-op gradient checks


def test_conv1d_gradients():
    x, w, b = rand(2, 3, 12), rand(4, 3, 3), rand(1, 4, 1)

    def f(xt, wt, bt):
        return T.conv1d(xt, wt, bt, stride=2, pad_left=1, pad_right=1).sum()

    check_op(f, [x, w, b])


def test_conv1d_dilated_gradients():
    x, w = rand(1, 2, 16), rand(2, 2, 3)

    def f(xt, wt):
        return T.conv1d(xt, wt, dilation=4, pad_left=4, pad_right=4).sum()

    check_op(f, [x, w])


def test_conv1d_transpose_gradients():
    x, w, b = rand(2, 3, 6), rand(3, 2, 4), rand(1, 2, 1)

    def f(xt, wt, bt):
        return T.conv1d_transpose(xt, wt, bt, stride=2, pad=1, output_pad=1).sum()

    check_op(f, [x, w, b])


def check_against_random_cotangent(op, geo):
    """FD-check ``op`` under ``sum(out * r)`` for a random r, so every
    output position weighs differently (``.sum()`` would hide transposed
    or shifted taps behind equal weights)."""
    arrays = list(operands(geo))
    with T.no_grad():
        out_shape = op(*[T.Tensor(a) for a in arrays], **geo["kwargs"]).shape
    r = T.Tensor(np.random.default_rng(geo["seed"] + 1).standard_normal(out_shape))

    def f(xt, wt, bt):
        return T.mul(op(xt, wt, bt, **geo["kwargs"]), r).sum()

    check_op(f, arrays)


@settings(max_examples=30, deadline=None)
@given(geo=conv1d_geometry())
def test_conv1d_gradients_for_any_geometry(geo):
    check_against_random_cotangent(T.conv1d, geo)


@settings(max_examples=30, deadline=None)
@given(geo=conv1d_transpose_geometry())
def test_conv1d_transpose_gradients_for_any_geometry(geo):
    check_against_random_cotangent(T.conv1d_transpose, geo)


@pytest.mark.parametrize("stride, x_grad, gathered", [
    (1, True, [4]),  # g's columns serve both gradients
    (2, True, [3]),  # strided: x's columns; the input gradient scatters
    (1, False, [3]),  # no input gradient, so no g columns to reuse
], ids=["stride-1", "strided", "no-grad-input"])
def test_conv1d_backward_gathers_once(monkeypatch, stride, x_grad, gathered):
    x = T.Tensor(rand(2, 3, 12), requires_grad=x_grad)
    w = T.Tensor(rand(4, 3, 3), requires_grad=True)
    loss = T.conv1d(x, w, stride=stride, pad_left=1, pad_right=1).sum()
    channels, gather = [], T._gather

    def spy(a, *args):
        channels.append(a.shape[1])
        return gather(a, *args)

    monkeypatch.setattr(T, "_gather", spy)
    loss.backward()
    assert channels == gathered  # 3: x's channels, 4: the output gradient's
    assert w.grad is not None and (x.grad is not None) == x_grad


def test_sigmoid_gradients():
    def f(xt):
        return T.sigmoid(xt).sum()

    check_op(f, [rand(2, 2, 8)])


def test_tanh_gradients():
    def f(xt):
        return T.tanh(xt).sum()

    check_op(f, [rand(2, 2, 8)])


def test_prelu_gradients():
    # Keep values away from 0 so the kink cannot corrupt the FD estimate.
    x = rand(2, 3, 10)
    x[np.abs(x) < 0.1] = 0.5
    slopes = np.full((1, 3, 1), 0.25)

    def f(xt, st):
        return T.prelu(xt, st).sum()

    check_op(f, [x, slopes])


def test_pointwise_and_weighted_sum_gradients():
    a, b = rand(2, 2, 6), rand(2, 2, 6)

    def f(at, bt):
        return (T.mul(at, bt) + T.sub(at, bt)).sum()

    check_op(f, [a, b])


def test_concat_gradients():
    a, b = rand(1, 2, 5), rand(1, 3, 5)

    def f(at, bt):
        joined = T.concat_channels(at, bt)
        return T.mul(joined, joined).sum()

    check_op(f, [a, b])


def test_mae_gradients():
    # Keep |pred - target| bounded away from 0: sign() is not differentiable there.
    pred, target = rand(2, 1, 12), rand(2, 1, 12)
    close = np.abs(pred - target) < 0.1
    pred[close] += 0.5

    def f(pt, tt):
        return T.mae_loss(pt, tt)

    check_op(f, [pred, target])


def test_composite_block_gradients():
    """conv -> prelu -> gated product -> transposed conv, end to end."""
    x, w1, s, wg, w2 = (
        rand(1, 2, 16),
        rand(4, 2, 3),
        np.full((1, 4, 1), 0.25),
        rand(4, 4, 3),
        rand(4, 2, 5),
    )
    x[np.abs(x) < 0.1] = 0.3

    def f(xt, w1t, st, wgt, w2t):
        h = T.prelu(T.conv1d(xt, w1t, pad_left=1, pad_right=1), st)
        gate = T.sigmoid(T.conv1d(h, wgt, pad_left=1, pad_right=1))
        gated = T.mul(h, gate)
        y = T.conv1d_transpose(gated, w2t, stride=2, pad=2, output_pad=1)
        return T.mul(y, y).sum()

    check_op(f, [x, w1, s, wg, w2], rtol=1e-3)


# ---------------------------------------------------------------------------
# graph mechanics


def test_gradient_accumulates_across_uses():
    x = T.Tensor(np.array([3.0]), requires_grad=True)
    y = T.mul(x, x) + T.mul(x, x)  # 2x^2, dy/dx = 4x = 12
    y.sum().backward()
    np.testing.assert_allclose(x.grad.ravel(), [12.0])


def test_gradient_accumulates_across_backward_calls():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    T.mul(x, x).sum().backward()
    first = x.grad.copy()
    T.mul(x, x).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * first)
    x.zero_grad()
    assert x.grad is None


def test_diamond_graph_visits_each_node_once():
    # x feeds two branches that rejoin; d/dx (x*x + x*x) handled via shared node.
    x = T.Tensor(np.array([5.0]), requires_grad=True)
    shared = x + x  # 2x
    out = T.mul(shared, shared).sum()  # 4x^2, grad 8x = 40
    out.backward()
    np.testing.assert_allclose(x.grad.ravel(), [40.0])


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.zeros((1, 1, 3)), requires_grad=True)
    with pytest.raises(UsageError):
        (x + x).backward()


# Every public op, called on tensors that ``make(shape)`` builds.
OPS = {
    "sum": lambda make: make(1, 2, 4).sum(),
    "conv1d": lambda make: T.conv1d(make(1, 2, 4), make(3, 2, 3), make(1, 3, 1)),
    "conv1d_transpose": lambda make: T.conv1d_transpose(make(1, 2, 4), make(2, 3, 3), make(1, 3, 1)),
    "sigmoid": lambda make: T.sigmoid(make(1, 2, 4)),
    "tanh": lambda make: T.tanh(make(1, 2, 4)),
    "prelu": lambda make: T.prelu(make(1, 2, 4), make(1, 2, 1)),
    "add": lambda make: T.add(make(1, 2, 4), make(1, 2, 4)),
    "sub": lambda make: T.sub(make(1, 2, 4), make(1, 2, 4)),
    "mul": lambda make: T.mul(make(1, 2, 4), make(1, 2, 4)),
    "concat_channels": lambda make: T.concat_channels(make(1, 2, 4), make(1, 3, 4)),
    "mae_loss": lambda make: T.mae_loss(make(1, 2, 4), make(1, 2, 4)),
}


def test_graph_recording_cases_cover_every_op():
    ops = set(T.__all__) - {"Tensor", "Parameter", "no_grad", "adam_step"}
    assert set(OPS) == ops | {"sum"}


@pytest.mark.parametrize("inputs_need_grad", [True, False], ids=["no_grad", "constant_inputs"])
@pytest.mark.parametrize("op", list(OPS))
def test_no_grad_blocks_graph_recording(op, inputs_need_grad):
    def make(*shape):
        return T.Tensor(rand(*shape), requires_grad=inputs_need_grad)

    if inputs_need_grad:
        with T.no_grad():
            y = OPS[op](make)
    else:
        y = OPS[op](make)
    assert not y.requires_grad
    assert y._node is None  # no graph node: no inputs, closure or gradient slot
    assert y._backward_fn is None


def test_no_grad_restores_on_exit():
    x = T.Tensor(np.array([1.0]), requires_grad=True)
    with T.no_grad():
        pass
    y = T.mul(x, x)
    assert y.requires_grad


def test_detach_shares_values_but_not_graph():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x + x
    d = y.detach()
    np.testing.assert_array_equal(d.data, y.data)
    assert not d.requires_grad
    loss = T.mul(d, d).sum()
    loss.backward()
    assert x.grad is None


def test_constant_inputs_get_no_gradient():
    x = T.Tensor(np.array([1.0]), requires_grad=True)
    c = T.Tensor(np.array([4.0]))
    T.mul(x, c).sum().backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad.ravel(), [4.0])


def test_backward_frees_the_graph_without_the_collector():
    # Each op's closure holds its own output, so an unreleased graph is a
    # reference cycle that only the cyclic collector could free.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = T.Tensor(rand(1, 2, 8), requires_grad=True)
        w = T.Tensor(rand(3, 2, 3), requires_grad=True)
        hidden = T.tanh(T.conv1d(x, w, pad_left=1, pad_right=1))
        # Tensor has no weakref slot; watch its data array, which the graph holds too.
        probe = weakref.ref(hidden.data)
        loss = T.mul(hidden, hidden).sum()
        del hidden
        loss.backward()
        del loss
        assert probe() is None
        assert x.grad is not None and w.grad is not None
    finally:
        if was_enabled:
            gc.enable()


def test_second_backward_through_a_graph_is_rejected():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    loss = T.mul(x, x).sum()
    loss.backward()
    with pytest.raises(UsageError, match="already ran"):
        loss.backward()
    np.testing.assert_allclose(x.grad.ravel(), [4.0])


def test_backward_releases_each_node_once_the_sweep_has_passed_it():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = T.Tensor(rand(1, 2, 8), requires_grad=True)
        inner = T.tanh(x)
        outer = T.tanh(inner)
        probe = weakref.ref(outer.data)
        loss = outer.sum()
        del outer
        released = []
        inner_backward = inner._backward_fn

        def spy():
            # The sweep reaches the leaf-side node only after the root-side one.
            released.append(probe() is None)
            inner_backward()

        inner._backward_fn = spy
        del inner
        loss.backward()
        assert released == [True]
        assert x.grad is not None
    finally:
        if was_enabled:
            gc.enable()


def test_data_that_no_backward_reads_dies_with_its_last_reference():
    # A GRU gate's conv output feeds only add, and a PReLU output feeds only
    # concat_channels: neither backward reads it, so the graph must not keep it.
    # PReLU's backward recomputes its sign mask, so it keeps no bool array.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = T.Tensor(rand(1, 2, 8), requires_grad=True)
        h = T.Tensor(rand(1, 3, 8), requires_grad=True)
        w, u = (T.Tensor(rand(3, c, 3), requires_grad=True) for c in (2, 3))
        slopes = T.Tensor(np.full((1, 3, 1), 0.25), requires_grad=True)
        from_x = T.conv1d(x, w, pad_left=1, pad_right=1)
        gate = T.sigmoid(T.add(from_x, T.conv1d(h, u, pad_left=1, pad_right=1)))
        activated = T.prelu(T.conv1d(x, w, pad_left=1, pad_right=1), slopes)
        kept = [cell.cell_contents for cell in activated._node.backward.__closure__]
        assert not [v for v in kept if isinstance(v, np.ndarray) and v.dtype == bool]
        joined = T.concat_channels(activated, gate)
        probes = [weakref.ref(from_x.data), weakref.ref(activated.data)]
        loss = T.mul(joined, joined).sum()
        del from_x, gate, activated, joined
        assert [probe() is None for probe in probes] == [True, True]
        loss.backward()
        assert all(t.grad is not None for t in (x, h, w, u, slopes))
    finally:
        if was_enabled:
            gc.enable()


# Graphs where a gradient that one node may share with another (add's g,
# concat_channels' slices of it, Tensor.sum's read-only broadcast view) reaches
# a node that later gets a second contribution. Adding that one in place into
# the shared array would corrupt the other holder. Each case returns the
# (shared, other) terms; the sweep takes the first input of the final add
# first, so each case runs in both orders.
def shared_by_add(a, b, c):
    return T.mul(T.add(a, b), c).sum(), T.mul(a, c).sum()


def sliced_by_concat(a, b, c, d):
    # a gets a slice of the g that add also hands to d.
    return T.mul(T.add(T.concat_channels(a, b), d), c).sum(), T.mul(a, a).sum()


def viewed_by_sum(x):
    return x.sum(), T.mul(x, x).sum()


def viewed_by_sum_of_an_intermediate(x):
    t = T.tanh(x)
    return t.sum(), T.mul(t, x).sum()


SHARED_GRADIENTS = {
    "add": (shared_by_add, [(1, 2, 4)] * 3),
    "concat_channels": (sliced_by_concat, [(1, 2, 4), (1, 3, 4), (1, 5, 4), (1, 5, 4)]),
    "sum": (viewed_by_sum, [(1, 2, 4)]),
    "sum-of-an-intermediate": (viewed_by_sum_of_an_intermediate, [(1, 2, 4)]),
}


@pytest.mark.parametrize("shared_first", [True, False], ids=["shared-first", "shared-last"])
@pytest.mark.parametrize("case", list(SHARED_GRADIENTS))
def test_a_shared_gradient_is_never_added_into_in_place(case, shared_first):
    terms, shapes = SHARED_GRADIENTS[case]

    def f(*tensors):
        shared, other = terms(*tensors)
        return T.add(shared, other) if shared_first else T.add(other, shared)

    check_op(f, [rand(*shape) for shape in shapes])


def test_conv1d_graph_keeps_no_padded_copy_of_its_input():
    x = T.Tensor(rand(2, 16, 1024), requires_grad=True)
    w = T.Tensor(rand(16, 16, 5), requires_grad=True)
    tracemalloc.start()
    try:
        out = T.conv1d(x, w, pad_left=2, pad_right=2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert held <= 1.1 * out.data.nbytes


def test_backward_peak_stays_near_the_memory_of_the_forward_graph():
    config = ModelConfig(frame_len=512, encoder_channels=(16, 16, 32), glu_dilations=(1, 2),
                         glu_bottleneck=16, stages=3)
    params = build_model(config)
    noisy = T.Tensor(0.1 * rand(4, 1, 512))
    clean = T.Tensor(0.1 * rand(4, 1, 512))
    tracemalloc.start()
    try:
        loss = T.mae_loss(multistage_forward(params, noisy)[0], clean)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held


# ---------------------------------------------------------------------------
# weight gradients on the worker thread


def conv_macs(op, x, w, **kwargs):
    """The MAC count a conv compares with the hand-off floor, for arrays x and w."""
    with T.no_grad():
        out = op(T.Tensor(x), T.Tensor(w), **kwargs)
    return w.size * len(x) * (out.shape[2] if op is T.conv1d else x.shape[2])


def gradients_of(loss_fn, arrays, cpus, floor=T._HANDOFF_MACS):
    """Leaf gradients of one backward, with ``cpus`` allowed and the given floor,
    plus whether any weight-gradient GEMM ran off the calling thread."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    threads, correlate_dw = set(), T._correlate_dw

    def spy(*args):
        threads.add(threading.current_thread() is threading.main_thread())
        return correlate_dw(*args)

    with mock.patch.object(T, "_cpus_allowed", lambda: cpus), \
            mock.patch.object(T, "_HANDOFF_MACS", floor), mock.patch.object(T, "_correlate_dw", spy):
        loss_fn(*tensors).backward()
    return [t.grad for t in tensors], False in threads


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(conv1d_geometry().map(lambda geo: (T.conv1d, geo)),
                      conv1d_transpose_geometry().map(lambda geo: (T.conv1d_transpose, geo))),
       at_floor=st.booleans())
def test_handed_off_weight_gradients_equal_the_inline_ones_bit_for_bit(case, at_floor):
    # The floor sits at the drawn conv's MACs (handed off) or one above (inline).
    op, geo = case
    x, w, b = operands(geo)
    floor = conv_macs(op, x, w, **geo["kwargs"]) + (0 if at_floor else 1)

    def loss(xt, wt, bt):
        out = op(xt, wt, bt, **geo["kwargs"])
        cotangent = np.random.default_rng(geo["seed"] + 1).standard_normal(out.shape)
        return T.mul(out, T.Tensor(cotangent)).sum()

    inline, _ = gradients_of(loss, (x, w, b), cpus=1, floor=floor)
    handed, off_thread = gradients_of(loss, (x, w, b), cpus=2, floor=floor)
    assert off_thread == at_floor
    assert [g.tobytes() for g in handed] == [g.tobytes() for g in inline]


@pytest.mark.parametrize("inline_first", [True, False], ids=["inline-first", "inline-last"])
def test_a_leaf_shared_by_a_handed_off_conv_and_an_inline_op_gets_the_serial_sum(inline_first):
    # w gets one contribution from each conv (handed off) and one from mul
    # (inline), in either sweep order.
    def loss(x, w):
        convs = T.add(T.conv1d(x, w, pad_left=1, pad_right=1).sum(),
                      T.conv1d(T.tanh(x), w, dilation=2, pad_left=2, pad_right=2).sum())
        squares = T.mul(w, w).sum()
        return T.add(squares, convs) if inline_first else T.add(convs, squares)

    arrays = (rand(2, 32, 64), rand(32, 32, 3))
    assert conv_macs(T.conv1d, *arrays, pad_left=1, pad_right=1) >= 2**16
    serial, _ = gradients_of(loss, arrays, cpus=1, floor=2**16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(20):
            handed, off_thread = gradients_of(loss, arrays, cpus=2, floor=2**16)
            assert off_thread
            assert [g.tobytes() for g in handed] == [g.tobytes() for g in serial]
    finally:
        sys.setswitchinterval(interval)


def test_an_exception_in_a_job_is_raised_from_backward_after_every_job_ran():
    x = T.Tensor(rand(2, 32, 64), requires_grad=True)
    w1, w2 = (T.Tensor(rand(32, 32, 3), requires_grad=True) for _ in range(2))
    loss = T.add(T.conv1d(x, w1, pad_left=1, pad_right=1).sum(),
                 T.conv1d(x, w2, pad_left=1, pad_right=1).sum())
    ran, correlate_dw = [], T._correlate_dw

    def fail_first(*args):
        ran.append(threading.current_thread().name)
        if len(ran) == 1:
            raise FloatingPointError("injected")
        return correlate_dw(*args)

    with mock.patch.object(T, "_cpus_allowed", lambda: 2), \
            mock.patch.object(T, "_HANDOFF_MACS", 1), mock.patch.object(T, "_correlate_dw", fail_first):
        with pytest.raises(FloatingPointError, match="injected"):
            loss.backward()
    assert len(ran) == 2 and threading.main_thread().name not in ran
    assert T._handoff is None
    assert (w1.grad is None) != (w2.grad is None)


def test_a_sweep_that_raises_still_waits_for_its_jobs():
    x = T.Tensor(rand(2, 32, 64), requires_grad=True)
    w = T.Tensor(rand(32, 32, 3), requires_grad=True)
    out = T.conv1d(x, w, pad_left=1, pad_right=1)
    loss = T.tanh(out).sum()
    conv_backward = out._node.backward

    def then_fail(g):  # submits w's job, then the sweep fails
        conv_backward(g)
        raise ArithmeticError("sweep")

    correlate_dw = T._correlate_dw

    def slow(*args):  # the job is still running when the sweep fails
        time.sleep(0.2)
        return correlate_dw(*args)

    out._node.backward = then_fail
    with mock.patch.object(T, "_cpus_allowed", lambda: 2), \
            mock.patch.object(T, "_HANDOFF_MACS", 1), mock.patch.object(T, "_correlate_dw", slow):
        with pytest.raises(ArithmeticError, match="sweep"):
            loss.backward()
    assert T._handoff is None and w.grad is not None


PINNED_PROBE = """
import os, sys, threading
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from ftnet import tensor as T
rng = np.random.default_rng(0)
x = T.Tensor(rng.standard_normal((2, 64, 1024)), requires_grad=True)
w = T.Tensor(rng.standard_normal((64, 64, 3)), requires_grad=True)
T.conv1d(x, w, pad_left=1, pad_right=1).sum().backward()
print(threading.active_count())
"""


def run_probe(probe, *args):
    """The words a fresh interpreter prints running ``probe`` on ftnet from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, timeout=120,
                          capture_output=True, text=True, check=True).stdout.split()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_a_process_pinned_to_one_cpu_starts_no_thread():
    assert 2 * 64 * 64 * 3 * 1024 >= T._HANDOFF_MACS
    assert run_probe(PINNED_PROBE, "pinned") == ["1"]
    if len(os.sched_getaffinity(0)) > 1:  # the same backward unpinned starts the worker
        assert run_probe(PINNED_PROBE, "free") == ["2"]


FORK_PROBE = """
import os, signal
import numpy as np
from ftnet import tensor as T
def step():
    x = T.Tensor(np.ones((2, 64, 1024)), requires_grad=True)
    w = T.Tensor(np.ones((64, 64, 3)), requires_grad=True)
    T.conv1d(x, w, pad_left=1, pad_right=1).sum().backward()
    return w.grad.sum()
T._cpus_allowed = lambda: 2
first = step()
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child whose job never runs dies instead of hanging
    os._exit(0 if step() == first else 1)
print(os.waitpid(pid, 0)[1])
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_starts_its_own_worker():
    # The child inherits the parent's executor but not its thread; a job
    # submitted there would wait forever.
    assert run_probe(FORK_PROBE) == ["0"]
