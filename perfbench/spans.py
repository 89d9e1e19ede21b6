"""Spans recorded from outside the program, by wrapping ftnet's functions.

``Tracer.install`` replaces public functions of the ftnet modules with
timing wrappers, wherever the function is bound (``from .audio import
read_wav`` makes a second binding in the importing module), and
``uninstall`` puts the originals back. In ``full`` mode every public
function is wrapped, ``Tensor.backward`` too, and each tensor op also wraps
the backward closure on the tensor it returns, so backward time is recorded
per op and per layer. In coarse mode only the few functions that mark
operation, step and set-up boundaries are wrapped; the end-to-end metrics
come from those.

A span is ``[name, start, end, parent index, operation id, layer cell,
wrapper seconds]``; the last is the tracer's own time around the span
(before ``start`` and after ``end``), which lands in the parent's self time.
The layer cell is a one-element list so that a pointwise op issued before
its layer is known (the channel concat feeding ``conv1d_1`` or a decoder)
can be labelled when that layer's convolution arrives; its backward span
shares the cell.
"""

import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("tensor", "model", "audio", "mixer", "training", "checkpoint", "cli")
COARSE = {
    "cli.main",
    "training.train_epoch",
    "tensor.adam_step",
    "checkpoint.checkpoint_save",
}
CONVS = ("conv1d", "conv1d_transpose")
POINTWISE = ("sigmoid", "tanh", "prelu", "add", "sub", "mul", "concat_channels", "mae_loss")
LAYERS = (
    ("conv1d_1", "conv_rnn")
    + tuple(f"conv1d_{i}" for i in range(2, 6))
    + tuple(f"glu_{j}" for j in range(1, 7))
    + tuple(f"deconv1d_{j}" for j in range(1, 5))
)
STAGE = "(stage glue)"
OUTSIDE = "(outside model)"


def _layer_of_param(name):
    """'glu_3.main_conv.weight' -> 'glu_3'; 'conv1d_2.prelu' -> 'conv1d_2'."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, full):
        self.full = full
        self.spans = []
        self.op = -1
        self.active = False
        self._stack = []
        self._layers = []  # enclosing convgru_forward / glu_forward layer names
        self._stage_depth = 0
        self._pending = []
        self._param_layer = {}  # id(tensor) -> (layer, tensor); the tensor pins the id
        self.counts = defaultdict(int)
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _open(self, name, cell=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, cell, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    # -- installation ---------------------------------------------------------

    def install(self):
        import ftnet  # noqa: F401  (loads every module below)

        bindings = [m for n, m in sys.modules.items() if n == "ftnet" or n.startswith("ftnet.")]
        for short in MODULES:
            module = sys.modules[f"ftnet.{short}"]
            for name, fn in list(vars(module).items()):
                qual = f"{short}.{name}"
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if not self.full and qual not in COARSE:
                    continue
                wrapper = self._wrap(fn, qual)
                for mod in bindings:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))
        if self.full:
            tensor_cls = sys.modules["ftnet.tensor"].Tensor
            original = tensor_cls.backward
            tensor_cls.backward = self._wrap(original, "tensor.backward")
            self._restore.append((tensor_cls, "backward", original))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, fn, qual):
        tracer = self
        module, name = qual.split(".", 1)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return (yield from fn(*args, **kwargs))
                span = tracer._open(qual, [OUTSIDE])
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer._close(span)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            cell = [tracer._context_layer()]
            if module == "model":
                pushed = tracer._enter_model(name, args, kwargs, cell)
            span = tracer._open(qual, cell)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if module == "model":
                    tracer._exit_model(name, pushed)
            if module == "tensor" and tracer.full:
                tracer._after_tensor_op(name, args, out, cell)
            elif qual == "model.build_model":
                tracer.register_params(out)
            elif qual in ("checkpoint.checkpoint_save", "checkpoint.checkpoint_load"):
                tracer.counts["checkpoint_bytes"] += os.path.getsize(args[-1])
            span[6] = span[1] - entered + time.perf_counter() - span[2]
            return out

        return wrapper

    # -- layer attribution ----------------------------------------------------

    def _context_layer(self):
        return self._layers[-1] if self._layers else (None if self._stage_depth else OUTSIDE)

    def _enter_model(self, name, args, kwargs, cell):
        if name == "convgru_forward":
            layer = "conv_rnn"
        elif name == "glu_forward":
            layer = f"glu_{args[2] if len(args) > 2 else kwargs['index']}"
        else:
            if name == "stage_forward":
                self._stage_depth += 1
            return False
        cell[0] = layer
        self._layers.append(layer)
        return True

    def _exit_model(self, name, pushed):
        if pushed:
            self._layers.pop()
        elif name == "stage_forward":
            self._stage_depth -= 1
            for cell in self._pending:
                cell[0] = STAGE
            self._pending = []

    def register_params(self, params):
        """Map each parameter tensor to its layer, for models built before install()."""
        for pname, p in params.items():
            self._param_layer[id(p.tensor)] = (_layer_of_param(pname), p.tensor)

    def _param(self, tensor):
        entry = self._param_layer.get(id(tensor))
        return entry[0] if entry is not None and entry[1] is tensor else None

    def _after_tensor_op(self, name, args, out, cell):
        if name in CONVS or name == "prelu":
            layer = self._param(args[1])
            cell[0] = layer if layer is not None else "(unattributed)"
            if name in CONVS and layer is not None:
                for waiting in self._pending:
                    waiting[0] = layer
                self._pending = []
        elif cell[0] is None:
            self._pending.append(cell)
        if name in CONVS:
            self._count_conv(name, args, out, cell)
        elif out is not None and getattr(out, "_backward_fn", None) is not None:
            out._backward_fn = self._traced_backward(out._backward_fn, f"tensor.{name}.bwd", cell)

    def _count_conv(self, name, args, out, cell):
        x, weight = args[0], args[1]
        ch_in, ch_out, kernel = (
            (weight.shape[1], weight.shape[0], weight.shape[2])
            if name == "conv1d"
            else (weight.shape[0], weight.shape[1], weight.shape[2])
        )
        # The input-length side of a transposed conv is x; of a conv, the output.
        positions = out.shape[2] if name == "conv1d" else x.shape[2]
        macs = x.shape[0] * ch_in * ch_out * kernel * positions
        item = x.data.itemsize
        self.counts[f"{name}.calls"] += 1
        self.counts["conv_macs"] += macs
        self.counts["conv_bytes"] += item * (x.data.size + weight.data.size + out.data.size)
        if out._backward_fn is None:
            return
        grads = [t for t in (x, weight) if t.requires_grad]
        bwd_bytes = item * (out.data.size + x.data.size + weight.data.size + sum(t.data.size for t in grads))
        inner = self._traced_backward(out._backward_fn, f"tensor.{name}.bwd", cell)

        def counted():
            self.counts["conv_macs"] += macs * len(grads)
            self.counts["conv_bytes"] += bwd_bytes
            inner()

        out._backward_fn = counted

    def _traced_backward(self, closure, span_name, cell):
        def traced():
            if not self.active:
                return closure()
            entered = time.perf_counter()
            span = self._open(span_name, cell)
            try:
                closure()
            finally:
                self._close(span)
            span[6] = span[1] - entered + time.perf_counter() - span[2]

        return traced


# ---------------------------------------------------------------------------
# reduction of spans to metrics


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_breakdown(spans):
    """Sums of self time ("self:<span>"), inclusive time ("incl:<span>") and
    per-layer forward/backward self time ("layer:<layer>.fwd|bwd")."""
    out = defaultdict(float)
    for (name, start, end, _parent, _op, cell, _own), self_s in zip(spans, self_times(spans)):
        out[f"self:{name}"] += self_s
        out[f"incl:{name}"] += end - start
        if cell is not None and cell[0] in LAYERS:
            out[f"layer:{cell[0]}.{'bwd' if name.endswith('.bwd') else 'fwd'}"] += self_s
    return out
