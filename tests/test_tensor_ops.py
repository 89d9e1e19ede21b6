"""Tensor ops: forwards against the loop oracles, gradients against adjoint identities."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ftnet import tensor as T
from ftnet.errors import ConfigError, ShapeError, UsageError

from conv_geometry import conv1d_geometry, conv1d_transpose_geometry, operands
from oracles import conv_out_len_by_simulation, naive_conv1d, naive_conv1d_transpose

RNG = np.random.default_rng(20260814)


def rand(*shape):
    return RNG.standard_normal(shape)


# ---------------------------------------------------------------------------
# tensor construction


def test_scalar_promotes_to_rank3():
    t = T.Tensor(2.5)
    assert t.shape == (1, 1, 1)
    assert t.item() == 2.5


def test_vector_and_matrix_promote():
    assert T.Tensor([1.0, 2.0, 3.0]).shape == (1, 1, 3)
    assert T.Tensor(np.zeros((4, 7))).shape == (1, 4, 7)


def test_rank4_rejected():
    with pytest.raises(ShapeError):
        T.Tensor(np.zeros((1, 1, 1, 1)))


def test_item_rejects_non_scalar():
    with pytest.raises(UsageError):
        T.Tensor([1.0, 2.0]).item()


def test_integer_input_becomes_float():
    t = T.Tensor(np.arange(4))
    assert np.issubdtype(t.data.dtype, np.floating)


# ---------------------------------------------------------------------------
# conv1d forward


@pytest.mark.parametrize(
    "in_shape,out_ch,kernel,stride,dilation,pads",
    [
        ((1, 1, 8), 1, 3, 1, 1, (0, 0)),
        ((2, 3, 16), 4, 3, 1, 1, (1, 1)),
        ((2, 3, 16), 4, 3, 2, 1, (1, 0)),
        ((1, 2, 32), 3, 5, 1, 2, (4, 4)),
        ((2, 4, 20), 2, 11, 2, 1, (5, 4)),
        ((1, 1, 64), 1, 11, 1, 4, (20, 20)),
    ],
)
def test_conv1d_matches_naive(in_shape, out_ch, kernel, stride, dilation, pads):
    x = rand(*in_shape)
    w = rand(out_ch, in_shape[1], kernel)
    b = rand(1, out_ch, 1)
    got = T.conv1d(
        T.Tensor(x), T.Tensor(w), T.Tensor(b),
        stride=stride, dilation=dilation, pad_left=pads[0], pad_right=pads[1],
    )
    want = naive_conv1d(x, w, b, stride, dilation, pads[0], pads[1])
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(geo=conv1d_geometry())
def test_conv1d_matches_naive_for_any_geometry(geo):
    x, w, b = operands(geo)
    got = T.conv1d(T.Tensor(x), T.Tensor(w), T.Tensor(b), **geo["kwargs"])
    want = naive_conv1d(x, w, b, **geo["kwargs"])
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_conv1d_known_values():
    # [1,2,3,4] * [1,1] -> [3,5,7]
    x = T.Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    w = T.Tensor(np.array([[[1.0, 1.0]]]))
    out = T.conv1d(x, w)
    np.testing.assert_array_equal(out.data, np.array([[[3.0, 5.0, 7.0]]]))


def test_conv1d_no_kernel_flip():
    # Asymmetric kernel distinguishes correlation from convolution.
    x = T.Tensor(np.array([[[1.0, 0.0, 0.0]]]))
    w = T.Tensor(np.array([[[2.0, 5.0]]]))
    out = T.conv1d(x, w)
    # Correlation: out[0] = 1*2 + 0*5 = 2. A flipped kernel would give 5.
    np.testing.assert_array_equal(out.data, np.array([[[2.0, 0.0]]]))


@pytest.mark.parametrize(
    "length,kernel,stride,dilation,pl,pr",
    [
        (2048, 11, 2, 1, 5, 4),
        (1024, 11, 2, 1, 5, 4),
        (128, 11, 1, 32, 160, 160),
        (17, 3, 2, 2, 0, 1),
        (33, 5, 3, 1, 2, 2),
        (11, 11, 1, 1, 0, 0),
    ],
)
def test_output_length_formula_matches_simulation(length, kernel, stride, dilation, pl, pr):
    x = T.Tensor(np.zeros((1, 1, length)))
    w = T.Tensor(np.zeros((1, 1, kernel)))
    out = T.conv1d(x, w, stride=stride, dilation=dilation, pad_left=pl, pad_right=pr)
    assert out.shape[2] == conv_out_len_by_simulation(length, kernel, stride, dilation, pl, pr)


def test_conv1d_halving_chain():
    # The encoder geometry: kernel 11, stride 2, pads (5, 4) halves exactly.
    length = 2048
    for want in (1024, 512, 256, 128):
        x = T.Tensor(np.zeros((1, 1, length)))
        w = T.Tensor(np.zeros((1, 1, 11)))
        out = T.conv1d(x, w, stride=2, pad_left=5, pad_right=4)
        assert out.shape[2] == want
        length = want


def test_conv1d_rejects_kernel_longer_than_input():
    with pytest.raises(ShapeError):
        T.conv1d(T.Tensor(np.zeros((1, 1, 4))), T.Tensor(np.zeros((1, 1, 9))))


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ConfigError):
        T.conv1d(T.Tensor(np.zeros((1, 3, 8))), T.Tensor(np.zeros((2, 4, 3))))


# ---------------------------------------------------------------------------
# conv1d_transpose forward


@pytest.mark.parametrize(
    "in_shape,out_ch,kernel,stride,pad,output_pad",
    [
        ((1, 1, 4), 1, 3, 1, 0, 0),
        ((2, 3, 8), 2, 3, 2, 1, 1),
        ((1, 4, 16), 2, 11, 2, 5, 1),
        ((2, 2, 5), 3, 4, 3, 2, 0),
        ((1, 2, 7), 1, 6, 2, 0, 1),
    ],
)
def test_conv1d_transpose_matches_naive(in_shape, out_ch, kernel, stride, pad, output_pad):
    x = rand(*in_shape)
    w = rand(in_shape[1], out_ch, kernel)
    b = rand(1, out_ch, 1)
    got = T.conv1d_transpose(
        T.Tensor(x), T.Tensor(w), T.Tensor(b),
        stride=stride, pad=pad, output_pad=output_pad,
    )
    want = naive_conv1d_transpose(x, w, b, stride, pad, output_pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(geo=conv1d_transpose_geometry())
def test_conv1d_transpose_matches_naive_for_any_geometry(geo):
    x, w, b = operands(geo)
    got = T.conv1d_transpose(T.Tensor(x), T.Tensor(w), T.Tensor(b), **geo["kwargs"])
    want = naive_conv1d_transpose(x, w, b, **geo["kwargs"])
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_conv1d_transpose_known_values():
    # [1,2] through kernel [1,1] at stride 2 spreads each sample over two taps.
    x = T.Tensor(np.array([[[1.0, 2.0]]]))
    w = T.Tensor(np.array([[[1.0, 1.0]]]))
    out = T.conv1d_transpose(x, w, stride=2)
    np.testing.assert_array_equal(out.data, np.array([[[1.0, 1.0, 2.0, 2.0]]]))


def test_conv1d_transpose_doubles_length():
    # Decoder geometry: kernel 11, stride 2, pad 5, output_pad 1 doubles exactly.
    x = T.Tensor(np.zeros((1, 4, 128)))
    w = T.Tensor(np.zeros((4, 2, 11)))
    out = T.conv1d_transpose(x, w, stride=2, pad=5, output_pad=1)
    assert out.shape == (1, 2, 256)


def test_conv1d_transpose_output_pad_bounds():
    x = T.Tensor(np.zeros((1, 1, 4)))
    w = T.Tensor(np.zeros((1, 1, 3)))
    with pytest.raises(ConfigError):
        T.conv1d_transpose(x, w, stride=2, output_pad=2)


def transpose_case(batch, in_ch, out_ch, length, kernel, stride, pad, output_pad):
    """A fixed conv1d_transpose geometry, laid out as ``conv1d_transpose_geometry`` draws it."""
    return {
        "shapes": ((batch, in_ch, length), (in_ch, out_ch, kernel), (1, out_ch, 1)),
        "kwargs": {"stride": stride, "pad": pad, "output_pad": output_pad},
        "seed": 0,
        "layout": "contiguous",
    }


@settings(max_examples=80, deadline=None)
@given(geo=conv1d_transpose_geometry().filter(
    lambda geo: geo["kwargs"]["pad"] >= geo["kwargs"]["output_pad"]))
@example(geo=transpose_case(2, 4, 3, 16, kernel=11, stride=2, pad=5, output_pad=1))
@example(geo=transpose_case(1, 3, 2, 16, kernel=3, stride=1, pad=1, output_pad=0))
@example(geo=transpose_case(2, 2, 1, 8, kernel=5, stride=3, pad=2, output_pad=2))
def test_adjoint_identity(geo):
    """<conv1d(x), y> == <x, conv1d_transpose(y)> with shared weights.

    This is the defining property of the transpose. The conv1d weight
    (C_out, C_in, K), read under the transpose layout (C_in, C_out, K), is
    exactly the adjoint's weight: no axis swap. The matching conv1d pads
    (pad, pad - output_pad), so it needs pad >= output_pad; the other case
    is covered by the naive-oracle and gradient-adjoint tests.
    """
    y, w, _ = operands(geo)
    stride, pad, output_pad = (geo["kwargs"][k] for k in ("stride", "pad", "output_pad"))
    back = T.conv1d_transpose(T.Tensor(y), T.Tensor(w), **geo["kwargs"])
    x = np.random.default_rng(geo["seed"] + 1).standard_normal(back.shape)

    def conv(x, w):
        return T.conv1d(T.Tensor(x), T.Tensor(w), stride=stride,
                        pad_left=pad, pad_right=pad - output_pad).data

    forward = conv(x, w)
    assert forward.shape == y.shape
    scale = np.sum(conv(np.abs(x), np.abs(w)) * np.abs(y))
    assert abs(np.sum(forward * y) - np.sum(x * back.data)) <= 1e-12 * scale


def check_gradient_adjoints(op, geo):
    """Both gradients of ``op`` against its bilinear form, to round-off.

    With the bias taken out, ``op(x, w)`` is linear in x and in w, so for
    any cotangent g: <op(x, w), g> = <x, dx> = <w, dw>. The tolerance is
    1e-12 of the sum of absolute products, <op(|x|, |w|), |g|>, so an inner
    product that cancels to near zero cannot flake the check.
    """
    x, w, b = (T.Tensor(a, requires_grad=True) for a in operands(geo))
    out = op(x, w, b, **geo["kwargs"])
    g = np.random.default_rng(geo["seed"] + 1).standard_normal(out.shape)
    T.mul(out, T.Tensor(g)).sum().backward()
    with T.no_grad():
        scale = np.sum(op(T.Tensor(np.abs(x.data)), T.Tensor(np.abs(w.data)),
                          **geo["kwargs"]).data * np.abs(g))
    form = np.sum((out.data - b.data) * g)
    for name, value, grad in (("x", x.data, x.grad), ("w", w.data, w.grad)):
        assert abs(form - np.sum(value * grad)) <= 1e-12 * scale, name


@settings(max_examples=80, deadline=None)
@given(geo=conv1d_geometry())
def test_conv1d_gradients_are_adjoint_for_any_geometry(geo):
    check_gradient_adjoints(T.conv1d, geo)


@settings(max_examples=80, deadline=None)
@given(geo=conv1d_transpose_geometry())
def test_conv1d_transpose_gradients_are_adjoint_for_any_geometry(geo):
    check_gradient_adjoints(T.conv1d_transpose, geo)


def test_importing_tensor_pins_openblas_to_one_thread():
    # A fresh interpreter, so that only the OpenBLAS numpy loads is mapped.
    probe = """
import ctypes
import ftnet.tensor
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
for lib in map(ctypes.CDLL, paths):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            print(getattr(lib, name)())
            break
"""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find OpenBLAS in")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    counts = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    if not counts:
        pytest.skip("numpy is not linked against a known OpenBLAS")
    assert counts == ["1"] * len(counts)


# ---------------------------------------------------------------------------
# activations


def test_sigmoid_range_and_values():
    x = RNG.uniform(-30, 30, size=(2, 3, 50))
    y = T.sigmoid(T.Tensor(x)).data
    assert np.all(y > 0.0) and np.all(y < 1.0)
    np.testing.assert_allclose(y, 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


def test_sigmoid_extreme_inputs_do_not_overflow():
    y = T.sigmoid(T.Tensor(np.array([-1e4, 0.0, 1e4]))).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y.ravel(), [0.0, 0.5, 1.0], atol=1e-12)


def test_tanh_range():
    x = RNG.uniform(-15, 15, size=(1, 2, 100))
    y = T.tanh(T.Tensor(x)).data
    assert np.all(y > -1.0) and np.all(y < 1.0)


def test_prelu_per_channel_slopes():
    x = np.array([[[-2.0, 3.0], [-4.0, 5.0]]])
    slopes = np.array([[[0.5], [0.1]]])
    y = T.prelu(T.Tensor(x), T.Tensor(slopes)).data
    np.testing.assert_allclose(y, [[[-1.0, 3.0], [-0.4, 5.0]]])


def test_prelu_slope_shape_checked():
    with pytest.raises(ConfigError):
        T.prelu(T.Tensor(np.zeros((1, 3, 4))), T.Tensor(np.zeros((1, 2, 1))))


# The activations select without np.where, whose per-element branch is slow
# on random signs. These are the np.where forms they must match bit for bit.


def where_sigmoid(x, g):
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return y, g * y * (1.0 - y)


def where_prelu(a, s, g):
    negative = a < 0
    y = np.where(negative, s * a, a)
    dx = np.where(negative, s, 1.0) * g
    ds = (np.where(negative, a, 0.0) * g).sum(axis=(0, 2), keepdims=True)
    return y, dx, ds


@st.composite
def activations(draw):
    """(a, s, g) of one float dtype: activations among which ±0, ±inf, quiet
    NaNs (numpy makes no other kind) and subnormals, in random or sorted
    order; finite per-channel slopes of any sign and size; a cotangent."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = np.finfo(dtype).bits
    tiny = float(np.finfo(dtype).smallest_subnormal)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny])
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 48)))
    a = draw(hnp.arrays(dtype, shape, elements=st.one_of(st.floats(width=width, allow_nan=False), special)))
    if draw(st.booleans()):
        a = np.sort(a, axis=2)  # signs in runs rather than at random
    finite = st.floats(width=width, allow_nan=False, allow_infinity=False)
    s = draw(hnp.arrays(dtype, (1, shape[1], 1), elements=finite))
    g = draw(hnp.arrays(dtype, shape, elements=st.floats(-4, 4, width=width)))
    return a, s, g


def assert_same_bytes(got, want):
    assert [(x.dtype, x.tobytes()) for x in got] == [(x.dtype, x.tobytes()) for x in want]


def forward_and_gradients(op, arrays, g):
    """``op``'s output and its inputs' gradients under the cotangent ``g``."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    with np.errstate(all="ignore"):  # inf - inf and the like, in the loss as in the op
        out = op(*tensors)
        T.mul(out, T.Tensor(g)).sum().backward()
    return [out.data] + [t.grad for t in tensors]


@settings(max_examples=150, deadline=None)
@given(case=activations())
@example(case=(np.full((1, 1, 1), -0.0), np.full((1, 1, 1), 0.5), np.ones((1, 1, 1))))
@example(case=(np.array([[[-1.0, -0.0, np.nan, 2.0]]], np.float32), np.array([[[-0.0]]], np.float32),
               np.array([[[1.0, -1.0, 2.0, -3.0]]], np.float32)))
def test_prelu_matches_its_where_form_bit_for_bit(case):
    a, s, g = case
    with np.errstate(all="ignore"):
        want = where_prelu(a, s, g)
    assert_same_bytes(forward_and_gradients(T.prelu, (a, s), g), want)


@settings(max_examples=150, deadline=None)
@given(case=activations())
def test_sigmoid_matches_its_where_form_bit_for_bit(case):
    a, _, g = case
    with np.errstate(all="ignore"):
        want = where_sigmoid(a, g)
    assert_same_bytes(forward_and_gradients(T.sigmoid, (a,), g), want)


# ---------------------------------------------------------------------------
# pointwise, concat, loss


def test_pointwise_shapes_must_match():
    a = T.Tensor(np.zeros((1, 2, 3)))
    b = T.Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(ShapeError):
        T.add(a, b)
    with pytest.raises(ShapeError):
        T.mul(a, b)


def test_concat_channels_order_and_shape():
    a = T.Tensor(np.ones((2, 3, 5)))
    b = T.Tensor(np.zeros((2, 2, 5)) + 7.0)
    out = T.concat_channels(a, b)
    assert out.shape == (2, 5, 5)
    np.testing.assert_array_equal(out.data[:, :3, :], 1.0)
    np.testing.assert_array_equal(out.data[:, 3:, :], 7.0)


def test_concat_channels_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        T.concat_channels(T.Tensor(np.zeros((1, 1, 4))), T.Tensor(np.zeros((1, 1, 5))))


def test_mae_loss_value():
    pred = T.Tensor(np.array([1.0, 2.0, 3.0]))
    target = T.Tensor(np.array([2.0, 2.0, 5.0]))
    loss = T.mae_loss(pred, target)
    assert loss.shape == (1, 1, 1)
    assert loss.item() == pytest.approx(1.0)  # (1 + 0 + 2) / 3
