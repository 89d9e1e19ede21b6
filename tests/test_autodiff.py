"""Backward-pass checks: analytic gradients against central differences.

Every differentiable op gets a finite-difference comparison on small
shapes. The combined tolerance |analytic - numeric| <= atol + rtol*|numeric|
keeps the check meaningful where gradients are exactly zero.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

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


def test_no_grad_blocks_graph_recording():
    x = T.Tensor(np.array([1.0]), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y._parents == ()


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
