"""Minimal reverse-mode tensor engine for 1-D convolutional audio networks.

Every value is a rank-3 array laid out (batch, channels, length). The engine
implements exactly the operations the enhancement network needs: strided and
dilated 1-D convolution, its transposed counterpart, pointwise arithmetic,
sigmoid/tanh/PReLU, channel concatenation, MAE loss, and an Adam step. Both
convolutions, forward and backward, run on three private kernels: a
correlation (pad, im2col gather, one ``np.matmul``), its input adjoint and
its weight gradient. ``conv1d`` runs them forward; ``conv1d_transpose`` runs
the adjoint as its forward, so it is conv1d's adjoint by construction; both
record one backward (``_conv``). Each backward gathers at most once: a
stride-1 conv1d gathers its output gradient, and both gradients come from
those columns; a strided conv1d, or one whose input needs no gradient,
gathers its input for the weight gradient; conv1d_transpose gathers its
output gradient. The im2col window is a view on a contiguous buffer whose
bounds numpy checks.
Importing this module pins OpenBLAS to one thread for the process (see
``_one_blas_thread``). The second core is used one level up, by one worker
thread, where the process may use two CPUs. A large conv's forward hands
the first half of its block's frames to the worker and computes the rest
itself, both into one output, and joins the worker's half before it
returns (or computes that half too, if the worker has not started it). A
backward sweep hands each large weight gradient (gather, GEMM and
accumulation) to the worker and goes on, and ``Tensor.backward`` waits for
every such job before it returns, also when the sweep raises. Jobs wait on
the leaf they feed and grad mode is per thread, so graphs that share no
leaf may be built and swept from several threads at once; a sweep into a
leaf that another sweep holds raises UsageError.

The graph is made of small private nodes, not of tensors. Every op builds
its result through one helper, ``_op``, handing it the result's data, its
inputs' nodes and a ``backward(g)`` that turns the result's gradient into
the inputs' gradients. Only when grad mode is on and an input needs a
gradient does the helper give the result a node: its inputs' nodes, that
closure and a gradient slot. A closure keeps its inputs' nodes and only the
arrays its backward reads (a convolution its input and weight, not a padded
copy; ``sigmoid`` and ``tanh`` their output; ``add`` and
``concat_channels`` nothing), so an intermediate's data dies with its last
Python reference. ``Tensor.backward`` sweeps the nodes in topological order
and consumes the graph: each node drops its closure, with the arrays it
kept, and its gradient once the closure has run, so a graph is
backpropagated once. A node owns its gradient. It takes the first
contribution as it is, uncopied; that array may be shared, so a second one
makes a new array, and later ones add into it. Gradients thus accumulate
additively, and reusing a tensor in several places just works. A leaf
tensor created with ``requires_grad`` keeps its gradient in ``grad``. A leaf
with jobs pending on the worker takes every later contribution through the
worker too, so its gradient sums in sweep order and the outputs do not
depend on the thread.
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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


class _GradMode(threading.local):
    record = True  # every thread's default, until its own no_grad


_grad_mode = _GradMode()
_leaf_claims = threading.Lock()  # held while a sweep checks and claims its leaves


class no_grad:
    """Context manager that suspends graph recording (inference, validation)
    in the calling thread only."""

    def __enter__(self):
        self._saved, _grad_mode.record = _grad_mode.record, False
        return self

    def __exit__(self, *exc):
        _grad_mode.record = self._saved
        return False


def _as_rank3(data):
    arr = np.asarray(data)
    if arr.dtype.kind != "f":
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


class _Node:
    """A recorded value's place in the graph: its inputs' nodes, the closure
    ``backward(g)`` that turns its gradient into theirs, and a gradient slot
    (see ``_accumulate`` for ``owns_grad``). A leaf, a tensor created with
    ``requires_grad``, has neither inputs nor closure; ``jobs`` lists the
    worker jobs that add into it while a sweep holds it (None between sweeps).
    """

    __slots__ = ("parents", "backward", "grad", "owns_grad", "jobs")

    def __init__(self, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None
        self.owns_grad = False
        self.jobs = None


class Tensor:
    """Rank-3 value with an optional graph node (gradient and backprop record).

    Lower-rank input is promoted: scalars become (1, 1, 1), vectors
    (1, 1, L), matrices (1, C, L).
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = _as_rank3(data)
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad, self._node.owns_grad = value, False
        elif value is not None:
            raise UsageError("a tensor that requires no gradient cannot hold one")

    @property
    def _backward_fn(self):
        """The recorded backward as a call without arguments, or None.

        Assigning a callable without arguments replaces it; the sweep calls
        the replacement, which may call what it read here.
        """
        node = self._node
        if node is None or node.backward is None:
            return None
        backward = node.backward
        return lambda: backward(node.grad)

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward = lambda g: fn()

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

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf reachable from here.

        Only defined for scalar (single-element) results. The sweep consumes
        the graph, so a second backward() through it raises UsageError. Each
        node drops its closure, and with it the arrays it kept, and its
        gradient as soon as the sweep has passed it. Before it returns, also
        when the sweep raises, it waits for its leaves' worker jobs and raises
        a failed one's exception. Two sweeps at once must share no leaf: one
        that reaches a leaf another sweep holds raises UsageError before it
        changes any gradient.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() needs a scalar loss, got shape {self.shape}")
        root = self._node
        if root is None:
            return
        order = _topo_order(root)
        leaves = [node for node in order if node.backward is None]
        with _leaf_claims:
            if any(leaf.jobs is not None for leaf in leaves):
                raise UsageError("another backward() is sweeping into a leaf of this graph")
            for leaf in leaves:
                leaf.jobs = []
        root.grad = np.ones_like(self.data)
        try:
            while order:
                node = order.pop()
                if node.backward is not None:
                    node.backward(node.grad)
                    node.backward, node.parents, node.grad = _consumed, (), None
        finally:
            errors = [job.exception() for leaf in leaves for job in leaf.jobs]
            for leaf in leaves:
                leaf.jobs = None
            for error in errors:
                if error is not None:
                    raise error

    def sum(self):
        """Sum over all elements, as a scalar tensor."""
        shape, node = self.data.shape, self._node
        return _op(
            self.data.sum().reshape(1, 1, 1), (node,),
            lambda g: _accumulate(node, np.broadcast_to(g.reshape(()), shape)),
        )

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _consumed(g):
    raise UsageError("backward() already ran through this graph")


def _topo_order(root):
    # Iterative DFS over nodes; returns them in topological order, root last.
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
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(node, grad):
    """Add ``grad`` into ``node``'s gradient; a None node needs none.

    A leaf with jobs pending on the worker (``node.jobs``) gets it through
    the worker too, after those jobs. The first contribution is taken as it
    is, uncopied, although it may be shared (``add`` hands one ``g`` to both
    inputs, ``concat_channels`` slices of it, ``Tensor.sum`` a read-only
    view). So the second makes a new array, which the node owns
    (``owns_grad``) and later ones add into.
    """
    if node is None:
        return
    if node.jobs:
        _hand_off(node, lambda: grad)
    else:
        _add_grad(node, grad)


def _add_grad(node, grad):
    if node.grad is None:
        node.grad = grad
    elif node.owns_grad:
        node.grad += grad
    else:
        node.grad, node.owns_grad = node.grad + grad, True


def _op(data, inputs, backward):
    """An op's result tensor; records ``backward(g)`` if an input needs a gradient.

    ``inputs`` are the op's input nodes (None for a tensor that needs no
    gradient). ``backward`` receives the result's gradient ``g`` and
    accumulates each input node's gradient from it; it captures those nodes
    and only the arrays it reads, never a tensor. Under ``no_grad``, or
    when no input needs a gradient, nothing is recorded.
    """
    out = Tensor(data)
    if _grad_mode.record:
        parents = tuple(n for n in inputs if n is not None)
        if parents:
            out._node = _Node(parents, backward)
    return out


class Parameter(Tensor):
    """Named trainable leaf tensor with its Adam moment buffers and step count."""

    __slots__ = ("name", "m", "v", "step_count")

    def __init__(self, name, values):
        super().__init__(values, requires_grad=True)
        self.name = name
        self.m = np.zeros(self.shape, self.data.dtype)  # zeroed lazily by the OS, unlike zeros_like
        self.v = np.zeros(self.shape, self.data.dtype)
        self.step_count = 0

    @property
    def tensor(self):
        """The parameter itself, for code that still reaches through ``.tensor``."""
        return self

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


# ---------------------------------------------------------------------------
# convolution
#
# One core of three kernels: ``_correlate`` (pad, gather, one GEMM), its input
# adjoint and its weight gradient. conv1d runs them forward. conv1d_transpose
# is the input adjoint of the conv1d its weight describes: it runs the adjoint
# forward and ``_correlate`` backward; both record ``_conv``'s one backward.
# Its closures keep the input array, not its columns, K times its size.
#
# Only the adjoint picks gather or scatter. At stride 1 it is a full
# correlation with the flipped, channel-swapped kernel, which skips the
# scatter's per-tap read-modify-write (31 of a stage's 35 conv1d calls have
# stride 1). Strided, it scatters: a stride-1 gather per phase measured
# 1.3-14x slower on the full-size encoder shapes (wide to narrow channels).
#
# A stride-1 conv1d's backward gathers g once, in the adjoint, and takes its
# weight gradient from those columns: the adjoint's own weight gradient, taps
# flipped back and channels swapped. The weight gradient's GEMM runs as
# columns times g transposed, tall and narrow, which is faster at small batch.


def _one_blas_thread():
    """Pin OpenBLAS to one thread for the whole process; a no-op without it.

    The convs below are mid-size GEMMs. A second thread makes them ~15%
    faster, but every call then waits at a barrier for it, for as long as
    the scheduler keeps that thread off a free CPU. On a 2-vCPU box that
    made a fresh process's first training operation up to 10x slower. The
    second core is used one level up instead: a worker thread takes half of
    a large forward conv's frames and large weight gradients beside the
    backward sweep (see ``_by_frames`` and ``_conv``), each GEMM still on
    one BLAS thread.
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


# ---------------------------------------------------------------------------
# forward halves and weight gradients on a worker thread
#
# One worker thread, started by the first job, takes two kinds of work where
# the process may use two CPUs; everything else, and everything where it may
# use one, runs on the calling thread. numpy releases the GIL in the gathers
# and GEMMs.
#
# Forward: ``_by_frames`` gives the worker the first half of a large conv's
# frames and joins it inside the conv call, so a caller, a span or a fault
# injected around the public call sees one thread. At full size that covers
# the GRU, conv1d_2..5, the GLU main and gate convs and deconv1d_1..3; at
# desk scale no conv reaches it, where threading small blocks measured slower.
#
# Backward: FTNet runs each stage's weights Q times, and only Adam reads their
# gradients, so a sweep need not wait for them. ``_conv`` hands one to
# the worker when the weight is a leaf (the sweep never reads its gradient)
# and its GEMM is at least ``_HANDOFF_MACS``, about 0.1 ms of GEMM on a 2-vCPU
# Xeon, twice the ~50 us a thread handoff costs. The job regathers the
# columns it reads from the ``g`` and ``a`` it keeps, rather than keep the
# adjoint's, which are K times the size; the values, and so the outputs, are
# the same. A job waits on the leaf it feeds (``_Node.jobs``), so each sweep
# waits for exactly its own; the worker runs every sweep's jobs in turn.

_HANDOFF_MACS = 1 << 22


def _cpus_allowed():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


def _new_worker():
    """Make the worker; its thread starts with its first job."""
    global _executor
    _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ftnet-worker")


_new_worker()  # at import, so no two threads can race to make one
if hasattr(os, "register_at_fork"):  # a forked child inherits the object but not its thread
    os.register_at_fork(after_in_child=_new_worker)


def _hand_off(leaf, grad_fn):
    """Add ``grad_fn()`` into ``leaf``'s gradient on the worker, after its earlier jobs."""
    leaf.jobs.append(_executor.submit(lambda: _add_grad(leaf, grad_fn())))


def _gather(a, kernel, positions, stride, dilation):
    """(B, C, L) -> (B, C*K, T) with [b, c*K + k, t] = a[b, c, t*stride + k*dilation].

    The window is a view on ``a``'s contiguous buffer, and numpy checks that
    the view stays inside it.
    """
    a = np.ascontiguousarray(a)
    batch, channels, length = a.shape
    item = a.itemsize
    windows = np.ndarray(
        (batch, channels, kernel, positions), a.dtype, buffer=a, offset=0,
        strides=(channels * length * item, length * item, dilation * item, stride * item),
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
    """Zero-pad the length axis; a negative pad crops that end instead."""
    if left < 0 or right < 0:
        a = a[:, :, max(-left, 0) : a.shape[2] - max(-right, 0)]
        left, right = max(left, 0), max(right, 0)
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


def _correlate(a, w, stride, dilation, pads, positions, out=None):
    """Correlate padded ``a`` with ``w`` (C_out, C_in, K), into ``out`` if given;
    returns it and the columns."""
    cols = _gather(_pad(a, *pads), w.shape[2], positions, stride, dilation)
    return np.matmul(w.reshape(w.shape[0], -1), cols, out=out), cols


def _correlate_adjoint(g, w, stride, dilation, pads, length, out=None):
    """Adjoint of ``_correlate`` in ``a`` (``length`` samples), into ``out`` if given;
    a negative pad zero-fills.

    Returns it and, at stride 1, the columns of ``g`` it gathered (else None).
    """
    if stride == 1:  # a full correlation of g with the flipped, channel-swapped kernel
        reach = dilation * (w.shape[2] - 1)
        flipped = w[:, :, ::-1].transpose(1, 0, 2)
        return _correlate(g, flipped, 1, dilation, (reach - pads[0], reach - pads[1]), length, out)
    spread = np.matmul(w.reshape(w.shape[0], -1).T, g)
    full = _pad(_scatter(spread, length + sum(pads), w.shape[2], stride, dilation), -pads[0], -pads[1])
    if out is None:
        return full, None
    out[...] = full
    return out, None


def _correlate_dw(g, a, w, stride, dilation, pads, cols=None):
    """Gradient of ``_correlate`` in ``w``; ``cols`` are ``a``'s columns, if at hand."""
    if cols is None:
        cols = _gather(_pad(a, *pads), w.shape[2], g.shape[2], stride, dilation)
    return np.matmul(cols, g.transpose(0, 2, 1)).sum(axis=0).T.reshape(w.shape)


def _by_frames(kernel, macs, shape, a, w, *geometry):
    """``kernel(a, w, *geometry)``'s result, of ``shape``, for ``macs`` GEMM MACs.

    A block of two or more frames whose GEMM for one frame is at least
    ``_HANDOFF_MACS // 2`` is split where the process may use two CPUs: the
    worker computes the first half of the frames and this thread the rest,
    each into its part of one array. Frames are independent in the GEMMs, so
    the values are those of one call. A worker's half that has not started
    when this thread's is done runs here instead: on a shared host the
    worker's CPU may be busy or not yet scheduled. A started half is joined
    before this returns, also when either half raises.
    """
    frames = len(a)
    if frames < 2 or macs // frames < _HANDOFF_MACS // 2 or _cpus_allowed() < 2:
        return kernel(a, w, *geometry)[0]
    out, half = np.empty(shape, np.result_type(a, w)), frames // 2
    job = _executor.submit(kernel, a[:half], w, *geometry, out=out[:half])
    try:
        kernel(a[half:], w, *geometry, out=out[half:])
    finally:
        started = not job.cancel()
        if started:
            job.result()
    if not started:
        kernel(a[:half], w, *geometry, out=out[:half])
    return out


def _conv(x, weight, bias, out_data, macs, input_grad, weight_grad):
    """A conv's result ``out_data``, with the one backward both convs share.

    ``input_grad(g)`` gives x's gradient and the columns it gathered, or None;
    ``weight_grad(g, cols)`` regathers where ``cols`` is None, as on the worker.
    """
    xn, wn = x._node, weight._node
    bn = None if bias is None else bias._node

    def backprop(g):
        cols = None
        if xn is not None:
            dx, cols = input_grad(g)
            _accumulate(xn, dx)
            del dx  # not held through the weight gradient's GEMM
        if wn is not None:
            if wn.backward is None and macs >= _HANDOFF_MACS and _cpus_allowed() > 1:
                _hand_off(wn, lambda: weight_grad(g, None))
            else:
                _accumulate(wn, weight_grad(g, cols))
        if bn is not None:
            _accumulate(bn, g.sum(axis=(0, 2), keepdims=True))

    return _op(out_data, (xn, wn, bn), backprop)


def _add_bias(x, bias, zero_grad):
    """``x`` plus ``bias`` (1, C, 1), broadcast over batch and length.

    This is ``add(x, c)`` for a stride-1 conv ``c`` of an all-zero map (the
    GRU state ahead of the first pass), which is its bias. The tensors in
    ``zero_grad``, that conv's weight and whatever fed only its zero input,
    get an exactly zero gradient, as they would through the conv.
    """
    xn, bn = x._node, bias._node
    zeros = [(t._node, t.data.shape, t.data.dtype) for t in zero_grad]

    def backprop(g):
        _accumulate(xn, g)
        _accumulate(bn, g.sum(axis=(0, 2), keepdims=True))
        for node, shape, dtype in zeros:
            _accumulate(node, np.zeros(shape, dtype))

    return _op(x.data + bias.data, (xn, bn, *(node for node, _, _ in zeros)), backprop)


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
    pads = (pad_left, pad_right)
    _check_conv(x, in_ch, out_ch, bias, pads)
    span = dilation * (kernel - 1) + 1
    padded_len = length + pad_left + pad_right
    if span > padded_len:
        raise ShapeError(f"effective kernel span {span} exceeds padded input length {padded_len}")
    out_len = (padded_len - span) // stride + 1

    a, w = x.data, weight.data
    macs = w.size * len(a) * out_len
    out_data = _by_frames(_correlate, macs, (len(a), out_ch, out_len), a, w,
                          stride, dilation, pads, out_len)
    if bias is not None:
        out_data += bias.data
    from_g_cols = stride == 1 and x._node is not None

    def weight_grad(g, cols):
        if not from_g_cols:
            return _correlate_dw(g, a, w, stride, dilation, pads)
        # From g's columns, as the adjoint gathers them: its weight gradient, flipped back.
        dw = _correlate_dw(a, g, w.transpose(1, 0, 2), 1, dilation,
                           (span - 1 - pad_left, span - 1 - pad_right), cols)
        return dw[:, :, ::-1].transpose(1, 0, 2)

    return _conv(x, weight, bias, out_data, macs,
                 lambda g: _correlate_adjoint(g, w, stride, dilation, pads, length), weight_grad)


def conv1d_transpose(x, weight, bias=None, *, stride=1, pad=0, output_pad=0):
    """Transposed 1-D convolution; the exact adjoint of a matching conv1d.

    x: (B, C_in, L); weight: (C_in, C_out, K); bias: (1, C_out, 1) or None.
    Output length is (L-1)*stride - 2*pad + K + output_pad. The matching
    conv1d reads this weight as its own, padded (pad, pad - output_pad).
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
    pads = (pad, pad - output_pad)

    a, w = x.data, weight.data
    macs = w.size * len(a) * length
    out_data = _by_frames(_correlate_adjoint, macs, (len(a), out_ch, out_len), a, w,
                          stride, 1, pads, out_len)
    if bias is not None:
        out_data = out_data + bias.data  # a new array: the cropped output is a view
    # The weight gradient is that conv1d's, whose input is g and output gradient x.
    return _conv(x, weight, bias, out_data, macs,
                 lambda g: _correlate(g, w, stride, 1, pads, length),
                 lambda g, cols: _correlate_dw(a, g, w, stride, 1, pads, cols))


# ---------------------------------------------------------------------------
# pointwise ops and activations


def sigmoid(x):
    """Logistic function, evaluated without overflow on either tail."""
    e = np.exp(-np.abs(x.data))
    y = np.maximum(e, x.data >= 0) / (1.0 + e)  # e <= 1, so the numerator is 1 where x >= 0
    xn = x._node
    return _op(y, (xn,), lambda g: _accumulate(xn, g * y * (1.0 - y)))


def tanh(x):
    y = np.tanh(x.data)
    xn = x._node
    return _op(y, (xn,), lambda g: _accumulate(xn, g * (1.0 - y * y)))


def prelu(x, slopes):
    """PReLU with one trainable slope per channel; slopes shaped (1, C, 1)."""
    if slopes is None:
        raise ConfigError("prelu requires a per-channel slope tensor")
    channels = x.data.shape[1]
    if slopes.data.shape != (1, channels, 1):
        raise ConfigError(f"prelu slopes shape {slopes.data.shape} does not match (1, {channels}, 1)")
    a, s = x.data, slopes.data
    y = a * _negative_factor(a, s)
    xn, sn = x._node, slopes._node

    def backprop(g):
        if xn is not None:  # the factor is recomputed, so the graph keeps only a
            _accumulate(xn, _negative_factor(a, s) * g)
        if sn is not None:
            # fmin(a, 0) is a where a < 0, else a zero of either sign (fmin drops
            # NaN); numpy's sum starts from +0.0, so that sign never reaches it.
            contrib = np.fmin(a, 0) * g
            _accumulate(sn, contrib.sum(axis=(0, 2), keepdims=True))

    return _op(y, (xn, sn), backprop)


def _negative_factor(a, s):
    """``s`` where ``a < 0``, else 1, for finite ``s``, by arithmetic instead of a
    branch per element: with n = 1 or 0, n * s - (n - 1) is s - 0 or ±0 + 1, exactly."""
    n = (a < 0).astype(s.dtype)
    k = n * s
    n -= 1
    k -= n
    return k


def _require_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape {a.data.shape} vs {b.data.shape}")


def add(a, b):
    _require_same_shape(a, b, "add")
    an, bn = a._node, b._node

    def backprop(g):
        _accumulate(an, g)
        _accumulate(bn, g)

    return _op(a.data + b.data, (an, bn), backprop)


def sub(a, b):
    _require_same_shape(a, b, "sub")
    an, bn = a._node, b._node

    def backprop(g):
        _accumulate(an, g)
        _accumulate(bn, -g)

    return _op(a.data - b.data, (an, bn), backprop)


def mul(a, b):
    _require_same_shape(a, b, "mul")
    ad, bd, an, bn = a.data, b.data, a._node, b._node

    def backprop(g):
        _accumulate(an, g * bd)
        _accumulate(bn, g * ad)

    return _op(ad * bd, (an, bn), backprop)


def concat_channels(a, b):
    """Concatenate along the channel axis, a first."""
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[2]:
        raise ShapeError(f"concat_channels: batch/length mismatch {a.data.shape} vs {b.data.shape}")
    split, an, bn = a.data.shape[1], a._node, b._node

    def backprop(g):
        _accumulate(an, g[:, :split, :])
        _accumulate(bn, g[:, split:, :])

    return _op(np.concatenate([a.data, b.data], axis=1), (an, bn), backprop)


def mae_loss(pred, target):
    """Mean absolute error over all elements; subgradient 0 at exact ties."""
    _require_same_shape(pred, target, "mae_loss")
    diff = pred.data - target.data
    pn, tn = pred._node, target._node

    def backprop(g):
        dpred = g.reshape(()) * np.sign(diff) / diff.size
        _accumulate(pn, dpred)
        _accumulate(tn, -dpred)

    return _op(np.abs(diff).mean().reshape(1, 1, 1), (pn, tn), backprop)


# ---------------------------------------------------------------------------
# optimizer

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the usual Adam defaults (Kingma & Ba)


def adam_step(params, lr):
    """One bias-corrected Adam update over ``params``; clears gradients after.

    ``params`` is an iterable of Parameter. Every parameter must hold a
    gradient, checked before any state mutates.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise UsageError(f"parameter {p.name!r} has no gradient")
    for p in params:
        g = p.grad
        p.step_count += 1
        p.m *= BETA1
        p.m += (1.0 - BETA1) * g
        p.v *= BETA2
        p.v += (1.0 - BETA2) * (g * g)
        m_hat = p.m / (1.0 - BETA1**p.step_count)
        v_hat = p.v / (1.0 - BETA2**p.step_count)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None
