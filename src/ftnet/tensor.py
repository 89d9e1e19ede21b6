"""Minimal reverse-mode tensor engine for 1-D convolutional audio networks.

Every value is a rank-3 array laid out (batch, channels, length). The engine
implements exactly the operations the enhancement network needs: strided and
dilated 1-D convolution, its transposed counterpart, pointwise arithmetic,
sigmoid/tanh/PReLU, channel concatenation, MAE loss, and an Adam step. Both
convolutions, forward and backward, share one im2col gather/scatter pair
and contract with ``np.matmul``. Importing this module pins OpenBLAS to
one thread for the process (see ``_one_blas_thread``).

Gradients are recorded with closures on the output tensor (one closure per
op) and propagated by a topological sweep in ``Tensor.backward``, which
consumes the graph as it goes: a graph is backpropagated once, and each
node, with its data and gradient, is released as soon as the sweep has
passed it. Convolution closures keep their input tensor, not a padded copy
of it. Gradients accumulate additively, so reusing a tensor in several
places just works.
"""

import ctypes

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ShapeError, UsageError

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "conv1d",
    "conv1d_transpose",
    "sigmoid",
    "tanh",
    "prelu",
    "add",
    "sub",
    "mul",
    "concat_channels",
    "mae_loss",
    "adam_step",
]

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording (inference, validation)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


def _as_rank3(data):
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, 1, -1)
    elif arr.ndim == 2:
        arr = arr.reshape((1,) + arr.shape)
    elif arr.ndim != 3:
        raise ShapeError(f"tensors are rank-3 (batch, channels, length); got rank {arr.ndim}")
    return arr


class Tensor:
    """Rank-3 value with an optional gradient and backprop record.

    Lower-rank input is promoted: scalars become (1, 1, 1), vectors
    (1, 1, L), matrices (1, C, L).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        self.data = _as_rank3(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self):
        """Same values, no gradient and no graph attachment."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` on every requires_grad tensor reachable from here.

        Only defined for scalar (single-element) results. The sweep consumes
        the graph, so a second backward() through it raises UsageError. Each
        node is released once the sweep has passed it: unless the caller
        holds it, its data and gradient are freed before backward() returns.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() needs a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward_fn is not None:
                node._backward_fn()
                # Each closure holds its own output: drop it to break the cycle.
                node._backward_fn = _consumed
                node._parents = ()

    def sum(self):
        """Sum over all elements, as a scalar tensor."""
        out = _make_result(self.data.sum().reshape(1, 1, 1), (self,))
        if out.requires_grad:

            def backprop():
                _accumulate(self, np.broadcast_to(out.grad.reshape(()), self.data.shape))

            out._backward_fn = backprop
        return out

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _consumed():
    raise UsageError("backward() already ran through this graph")


def _topo_order(root):
    # Iterative DFS; returns nodes in topological order, root last.
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(tensor, grad):
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = np.array(np.broadcast_to(grad, tensor.data.shape), dtype=tensor.data.dtype)
    else:
        tensor.grad += grad


def _make_result(data, parents):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    return out


class Parameter:
    """Named trainable tensor bundled with its Adam moment buffers."""

    def __init__(self, name, values):
        self.name = name
        self.tensor = Tensor(values, requires_grad=True)
        self.m = np.zeros_like(self.tensor.data)
        self.v = np.zeros_like(self.tensor.data)
        self.step_count = 0

    @property
    def data(self):
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


# ---------------------------------------------------------------------------
# convolution
#
# A transposed convolution is the adjoint of a convolution, so both come from
# one im2col gather and its adjoint scatter. The gathered copy is K times its
# input, so backward closures keep the input tensor, pad it and gather again.


def _one_blas_thread():
    """Pin OpenBLAS to one thread for the whole process; a no-op without it.

    The convs below are mid-size GEMMs. A second thread makes them ~15%
    faster, but every call then waits at a barrier for it, for as long as
    the scheduler keeps that thread off a free CPU. On a 2-vCPU box that
    made a fresh process's first training operation up to 10x slower.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name)(1)


_one_blas_thread()


def _gather(a, kernel, positions, stride, dilation):
    """(B, C, L) -> (B, C*K, T) with [b, c*K + k, t] = a[b, c, t*stride + k*dilation]."""
    batch, channels, _ = a.shape
    s0, s1, s2 = a.strides
    windows = as_strided(
        a,
        shape=(batch, channels, kernel, positions),
        strides=(s0, s1, s2 * dilation, s2 * stride),
    )
    return windows.reshape(batch, channels * kernel, positions)


def _scatter(cols, length, kernel, stride, dilation):
    """Adjoint of ``_gather``: (B, C*K, T) summed back into a (B, C, length) array."""
    batch, rows, positions = cols.shape
    cols = cols.reshape(batch, rows // kernel, kernel, positions)
    out = np.zeros((batch, rows // kernel, length), dtype=cols.dtype)
    for k in range(kernel):
        start = k * dilation
        out[:, :, start : start + stride * (positions - 1) + 1 : stride] += cols[:, :, k, :]
    return out


def _pad(a, left, right):
    if not (left or right):
        return a
    batch, channels, length = a.shape
    out = np.zeros((batch, channels, left + length + right), dtype=a.dtype)
    out[:, :, left : left + length] = a
    return out


def _check_conv(x, w_in, out_ch, bias, pads):
    if min(pads) < 0:
        raise ConfigError("padding must be non-negative")
    in_ch = x.data.shape[1]
    if w_in != in_ch:
        raise ConfigError(f"input has {in_ch} channels but weight expects {w_in}")
    if bias is not None and bias.data.shape != (1, out_ch, 1):
        raise ConfigError(f"bias shape {bias.data.shape} does not match (1, {out_ch}, 1)")


def conv1d(x, weight, bias=None, *, stride=1, dilation=1, pad_left=0, pad_right=0):
    """Strided, dilated cross-correlation along the length axis.

    x: (B, C_in, L); weight: (C_out, C_in, K); bias: (1, C_out, 1) or None.
    Output length is floor((L + pad_left + pad_right - dilation*(K-1) - 1)
    / stride) + 1. No kernel flip.
    """
    if stride < 1 or dilation < 1:
        raise ConfigError(f"stride and dilation must be >= 1, got {stride}, {dilation}")
    length = x.data.shape[2]
    out_ch, in_ch, kernel = weight.data.shape
    _check_conv(x, in_ch, out_ch, bias, (pad_left, pad_right))
    span = dilation * (kernel - 1) + 1
    padded_len = length + pad_left + pad_right
    if span > padded_len:
        raise ShapeError(f"effective kernel span {span} exceeds padded input length {padded_len}")
    out_len = (padded_len - span) // stride + 1

    padded = _pad(x.data, pad_left, pad_right)
    w2 = weight.data.reshape(out_ch, in_ch * kernel)
    out_data = np.matmul(w2, _gather(padded, kernel, out_len, stride, dilation))
    if bias is not None:
        out_data += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make_result(out_data, parents)
    if out.requires_grad:

        def backprop():
            g = out.grad
            if weight.requires_grad:
                padded = _pad(x.data, pad_left, pad_right)
                cols = _gather(padded, kernel, out_len, stride, dilation)
                dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
                _accumulate(weight, dw.reshape(weight.data.shape))
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g.sum(axis=(0, 2), keepdims=True))
            if x.requires_grad:
                gp = _scatter(np.matmul(w2.T, g), padded_len, kernel, stride, dilation)
                _accumulate(x, gp[:, :, pad_left : pad_left + length])

        out._backward_fn = backprop
    return out


def conv1d_transpose(x, weight, bias=None, *, stride=1, pad=0, output_pad=0):
    """Transposed 1-D convolution; the exact adjoint of a matching conv1d.

    x: (B, C_in, L); weight: (C_in, C_out, K); bias: (1, C_out, 1) or None.
    Output length is (L-1)*stride - 2*pad + K + output_pad. The symmetric
    ``pad`` crops the scattered result; ``output_pad`` extends its tail, so
    (pad, output_pad) = (p, op) inverts a conv padded (p, p - op).
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if not 0 <= output_pad < stride:
        raise ConfigError(f"output_pad must lie in [0, stride), got {output_pad}")
    length = x.data.shape[2]
    in_ch, out_ch, kernel = weight.data.shape
    _check_conv(x, in_ch, out_ch, bias, (pad,))
    out_len = (length - 1) * stride - 2 * pad + kernel + output_pad
    if out_len < 1:
        raise ShapeError(f"transposed output length {out_len} is not positive")

    w2 = weight.data.reshape(in_ch, out_ch * kernel)
    full = _scatter(np.matmul(w2.T, x.data), out_len + 2 * pad, kernel, stride, 1)
    out_data = full[:, :, pad : pad + out_len].copy()
    if bias is not None:
        out_data += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make_result(out_data, parents)
    if out.requires_grad:

        def backprop():
            g = out.grad
            cols = _gather(_pad(g, pad, pad), kernel, length, stride, 1)
            if x.requires_grad:
                _accumulate(x, np.matmul(w2, cols))
            if weight.requires_grad:
                dw = np.matmul(x.data, cols.transpose(0, 2, 1)).sum(axis=0)
                _accumulate(weight, dw.reshape(weight.data.shape))
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g.sum(axis=(0, 2), keepdims=True))

        out._backward_fn = backprop
    return out


# ---------------------------------------------------------------------------
# pointwise ops and activations


def sigmoid(x):
    """Logistic function, evaluated without overflow on either tail."""
    e = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0, e) / (1.0 + e)
    out = _make_result(y, (x,))
    if out.requires_grad:

        def backprop():
            _accumulate(x, out.grad * y * (1.0 - y))

        out._backward_fn = backprop
    return out


def tanh(x):
    y = np.tanh(x.data)
    out = _make_result(y, (x,))
    if out.requires_grad:

        def backprop():
            _accumulate(x, out.grad * (1.0 - y * y))

        out._backward_fn = backprop
    return out


def prelu(x, slopes):
    """PReLU with one trainable slope per channel; slopes shaped (1, C, 1)."""
    if slopes is None:
        raise ConfigError("prelu requires a per-channel slope tensor")
    channels = x.data.shape[1]
    if slopes.data.shape != (1, channels, 1):
        raise ConfigError(f"prelu slopes shape {slopes.data.shape} does not match (1, {channels}, 1)")
    negative = x.data < 0
    y = np.where(negative, slopes.data * x.data, x.data)
    out = _make_result(y, (x, slopes))
    if out.requires_grad:

        def backprop():
            g = out.grad
            if x.requires_grad:
                _accumulate(x, np.where(negative, slopes.data, 1.0) * g)
            if slopes.requires_grad:
                contrib = np.where(negative, x.data, 0.0) * g
                _accumulate(slopes, contrib.sum(axis=(0, 2), keepdims=True))

        out._backward_fn = backprop
    return out


def _require_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape {a.data.shape} vs {b.data.shape}")


def add(a, b):
    _require_same_shape(a, b, "add")
    out = _make_result(a.data + b.data, (a, b))
    if out.requires_grad:

        def backprop():
            _accumulate(a, out.grad)
            _accumulate(b, out.grad)

        out._backward_fn = backprop
    return out


def sub(a, b):
    _require_same_shape(a, b, "sub")
    out = _make_result(a.data - b.data, (a, b))
    if out.requires_grad:

        def backprop():
            _accumulate(a, out.grad)
            _accumulate(b, -out.grad)

        out._backward_fn = backprop
    return out


def mul(a, b):
    _require_same_shape(a, b, "mul")
    out = _make_result(a.data * b.data, (a, b))
    if out.requires_grad:

        def backprop():
            _accumulate(a, out.grad * b.data)
            _accumulate(b, out.grad * a.data)

        out._backward_fn = backprop
    return out


def concat_channels(a, b):
    """Concatenate along the channel axis, a first."""
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[2]:
        raise ShapeError(f"concat_channels: batch/length mismatch {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[1]
    out = _make_result(np.concatenate([a.data, b.data], axis=1), (a, b))
    if out.requires_grad:

        def backprop():
            _accumulate(a, out.grad[:, :split, :])
            _accumulate(b, out.grad[:, split:, :])

        out._backward_fn = backprop
    return out


def mae_loss(pred, target):
    """Mean absolute error over all elements; subgradient 0 at exact ties."""
    _require_same_shape(pred, target, "mae_loss")
    diff = pred.data - target.data
    value = np.abs(diff).mean().reshape(1, 1, 1)
    out = _make_result(value, (pred, target))
    if out.requires_grad:

        def backprop():
            g = out.grad.reshape(()) * np.sign(diff) / diff.size
            _accumulate(pred, g)
            _accumulate(target, -g)

        out._backward_fn = backprop
    return out


# ---------------------------------------------------------------------------
# optimizer


def adam_step(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over ``params``; clears gradients after.

    ``params`` is any iterable of Parameter (a mapping's .values() works).
    Every parameter must hold a gradient, checked before any state mutates.
    """
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise ConfigError(f"betas must lie in (0, 1), got {beta1}, {beta2}")
    if hasattr(params, "values"):
        params = params.values()
    params = list(params)
    for p in params:
        if p.tensor.grad is None:
            raise UsageError(f"parameter {p.name!r} has no gradient")
    for p in params:
        g = p.tensor.grad
        p.step_count += 1
        p.m *= beta1
        p.m += (1.0 - beta1) * g
        p.v *= beta2
        p.v += (1.0 - beta2) * (g * g)
        m_hat = p.m / (1.0 - beta1**p.step_count)
        v_hat = p.v / (1.0 - beta2**p.step_count)
        p.tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.tensor.grad = None
