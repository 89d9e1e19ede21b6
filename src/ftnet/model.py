"""Time-domain enhancement network with feedback stages.

One stage maps a noisy frame plus the previous stage's estimate to a new
estimate: a strided conv front end feeds a convolutional GRU, a strided
encoder shrinks time while widening channels, a stack of dilated gated
residual blocks works at the bottleneck, and a skip-connected transposed
decoder restores the waveform. The whole stage is applied Q times with
shared weights; the estimate and the GRU state loop back between passes.

``layer_table(config)`` is the one source of conv geometry: one row per
conv, in parameter draw order, read by ``build_model``, every forward pass,
the analyzers and the checkpoint loader. Its rows are arranged so every
stage consumes and produces frames of exactly ``config.frame_len`` samples.
"""

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Parameter, Tensor

__all__ = [
    "ModelConfig",
    "FTNetParams",
    "LayerRow",
    "ShapeRow",
    "StructureReport",
    "layer_table",
    "build_model",
    "convgru_forward",
    "glu_forward",
    "stage_forward",
    "multistage_forward",
    "forward_blocks",
    "trace_shapes",
    "count_parameters",
    "analyze_structure",
]

# Bound on ``stages`` times the largest array one frame's stage needs (a
# conv's padded input, its im2col columns or a weight): 128 MiB of float64,
# so a config read from a file cannot ask for any amount of memory.
MAX_FRAME_VALUES = 1 << 24


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and run settings; immutable once constructed.

    encoder_channels[0] is the front-end width (also the GRU state width);
    the remaining entries are the strided encoder widths. The decoder
    mirrors them. glu_dilations gives one dilated gated block per entry.
    """

    frame_len: int = 2048
    hop: int = 256
    kernel: int = 11
    encoder_channels: tuple = (16, 16, 32, 64, 128)
    glu_dilations: tuple = (1, 2, 4, 8, 16, 32)
    glu_bottleneck: int = 64
    stages: int = 3
    seed: int = 0
    standard_gru_update: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):  # a value has its default's type (a bool is no int); a tuple, ints
            value, tupled = getattr(self, f.name), isinstance(f.default, tuple)
            entries = value if tupled and type(value) is tuple else (value,)
            if any(type(v) is not (int if tupled else type(f.default)) for v in entries):
                want = {tuple: "a tuple of integers", int: "an integer", bool: "true or false"}
                raise ConfigError(f"{f.name} must be {want[type(f.default)]}, got {value!r}")
        c = self.encoder_channels
        if len(c) < 2 or any(ch <= 0 for ch in c):
            raise ConfigError(f"encoder_channels needs >= 2 positive entries, got {c}")
        if self.kernel < 3 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and >= 3, got {self.kernel}")
        halvings = len(c) - 1
        if self.frame_len % (1 << halvings) or self.frame_len < (1 << halvings):
            raise ConfigError(
                f"frame_len {self.frame_len} is not divisible by 2^{halvings} "
                f"(one halving per strided layer)"
            )
        if not 1 <= self.hop <= self.frame_len:
            raise ConfigError(f"hop {self.hop} must lie in [1, frame_len]")
        if not self.glu_dilations or any(d <= 0 for d in self.glu_dilations):
            raise ConfigError(f"glu_dilations must be positive, got {self.glu_dilations}")
        if self.glu_bottleneck <= 0:
            raise ConfigError(f"glu_bottleneck must be positive, got {self.glu_bottleneck}")
        if self.stages < 1:
            raise ConfigError(f"stages must be >= 1, got {self.stages}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        largest = max(max(row.in_channels * (row.in_length + row.pad_left + row.pad_right),
                          row.kernel_size * (row.out_channels * row.in_length if row.transposed
                                             else row.in_channels * row.out_length),
                          *(math.prod(shape) for _, shape in row.shapes))
                      for row in layer_table(self))
        if self.stages * largest > MAX_FRAME_VALUES:
            raise ConfigError(f"one frame's largest array holds {largest} values; {self.stages} "
                              f"stages of it exceed the bound of {MAX_FRAME_VALUES}")

    @property
    def block_frames(self):
        """Frames per forward pass of ``forward_blocks``, which runs the
        network for enhance, validation and training.

        The largest im2col copy, the GRU convs' C0*K*frame_len/2 float64
        values per frame, stays near an L2 cache (3 MiB): 2 frames at full
        size, 8 at desk scale. Memory is then bounded by one block, not by
        the clip or minibatch. Enhance runs in float32, so its copies are
        half that size.
        """
        gru = next(row for row in layer_table(self) if row.name.startswith("conv_rnn."))
        per_frame = 8 * gru.in_channels * gru.kernel_size * gru.in_length
        return max(1, (3 << 20) // per_frame)

    def to_dict(self):
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for f in fields(cls):
            if isinstance(f.default, tuple) and f.name in d:
                v = d[f.name]
                d[f.name] = tuple(v) if isinstance(v, (list, tuple)) else (v,)
        return cls(**d)


class FTNetParams(dict):
    """Named parameters in creation order, the config that shaped them and its rows by name."""

    def __init__(self, config, params):
        super().__init__(params)
        self.config = config
        self.layers = {row.name: row for row in layer_table(config)}

    def __missing__(self, name):
        raise ConfigError(f"no parameter named {name!r}")

    def zero_grad(self):
        for p in self.values():
            p.tensor.grad = None


class ShapeRow(NamedTuple):
    name: str
    in_channels: int
    in_length: int
    out_channels: int
    out_length: int


@dataclass(frozen=True)
class StructureReport:
    depth_per_stage: int
    unfolded_depth: int
    glu_receptive_field: int
    parameter_total: int
    parameters_by_layer: "OrderedDict[str, int]"
    shape_table: tuple


# ---------------------------------------------------------------------------
# construction


class LayerRow(NamedTuple):
    """One conv of a stage; lengths are per frame. A transposed conv's output
    is cropped by ``pad_left`` at the start and ``pad_right - output_pad`` at the end.
    ``shapes`` holds (name, shape) of its weight, bias and PReLU slopes, in draw order."""

    name: str
    transposed: bool
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    dilation: int
    pad_left: int
    pad_right: int
    output_pad: int
    prelu: bool
    in_length: int
    out_length: int
    shapes: tuple


def layer_table(config):
    """Every conv of one stage as a ``LayerRow``, in parameter draw order.

    Each row's input length is the previous row's output length. A stride-1
    conv keeps it, padding ``m*d`` on each side (``m`` half its kernel); a
    stride-2 conv halves it, padding ``(m, m - 1)``; a transposed conv doubles it.
    """
    k, c, bn = config.kernel, config.encoder_channels, config.glu_bottleneck
    rows = []

    def add(name, in_ch, out_ch, prelu, kernel=k, stride=1, dilation=1, transposed=False):
        length, m = rows[-1].out_length if rows else config.frame_len, kernel // 2
        if transposed:
            pads, output_pad, out_length = (m, m), 1, length * stride
        else:
            pads = (m * dilation, m * dilation) if stride == 1 else (m, m - 1)
            output_pad, out_length = 0, length // stride
        weight = (in_ch, out_ch, kernel) if transposed else (out_ch, in_ch, kernel)
        shapes = [(f"{name}.weight", weight), (f"{name}.bias", (1, out_ch, 1))]
        if prelu:
            shapes.append((f"{name}.prelu", (1, out_ch, 1)))
        rows.append(LayerRow(name, transposed, in_ch, out_ch, kernel, stride, dilation, *pads,
                             output_pad, prelu, length, out_length, tuple(shapes)))

    add("conv1d_1", 2, c[0], True, stride=2)
    for gate in ("update_in", "update_state", "reset_in", "reset_state", "cand_in", "cand_state"):
        add(f"conv_rnn.{gate}", c[0], c[0], False)
    for i in range(1, len(c)):
        add(f"conv1d_{i + 1}", c[i - 1], c[i], True, stride=1 if i == 1 else 2)
    for j, d in enumerate(config.glu_dilations, start=1):
        add(f"glu_{j}.in_conv", c[-1], bn, True, kernel=1)
        add(f"glu_{j}.main_conv", bn, bn, False, dilation=d)
        add(f"glu_{j}.gate_conv", bn, bn, False, dilation=d)
        add(f"glu_{j}.out_conv", bn, c[-1], False, kernel=1)
    for j in range(1, len(c)):
        last = j == len(c) - 1
        add(f"deconv1d_{j}", 2 * c[-j], 1 if last else c[-j - 1], not last, stride=2, transposed=True)
    return tuple(rows)


def build_model(config):
    """Create all parameters with seeded fan-in-scaled uniform values.

    Weights and biases draw from U(-b, b) with b = 1/sqrt(in_ch * kernel);
    PReLU slopes start at 0.25. Draw order is fixed (table order, weight
    before bias) so one seed always yields bitwise-identical values.
    """
    rng = np.random.default_rng(config.seed)
    params = OrderedDict()
    for row in layer_table(config):
        bound = 1.0 / np.sqrt(row.in_channels * row.kernel_size)
        for name, shape in row.shapes:
            values = (np.full(shape, 0.25) if name.endswith(".prelu")
                      else rng.uniform(-bound, bound, size=shape))
            params[name] = Parameter(name, values)
    return FTNetParams(config, params)


# ---------------------------------------------------------------------------
# forward passes


def _layer(params, name, x):
    """Named conv with its row's geometry, weight and bias, then its PReLU if it has one."""
    weight, bias = params[f"{name}.weight"].tensor, params[f"{name}.bias"].tensor
    row = params.layers[name]
    try:
        if row.transposed:
            out = T.conv1d_transpose(x, weight, bias, stride=row.stride, pad=row.pad_left,
                                     output_pad=row.output_pad)
        else:
            out = T.conv1d(x, weight, bias, stride=row.stride, dilation=row.dilation,
                           pad_left=row.pad_left, pad_right=row.pad_right)
    except ShapeError as exc:
        raise ShapeError(f"{name}: {exc}") from None
    if row.prelu:
        out = T.prelu(out, params[f"{name}.prelu"].tensor)
    return out


def convgru_forward(params, features, hidden):
    """One convolutional GRU step.

    features is the fresh front-end map for this stage, hidden the carried
    state; both are (B, C, L) with matching shapes. The default update
    blends the fresh features with the candidate, gated by z:

        z = sigmoid(Wz * features + Uz * hidden)
        r = sigmoid(Wr * features + Ur * hidden)
        n = tanh(Wn * features + Un * (r . hidden))
        out = (1 - z) . features + z . n

    With config.standard_gru_update the first blend term uses ``hidden``
    instead (the classic GRU interpolation).

    hidden=None means the first pass, whose state is all zeros: each state
    conv returns its bias, and r, which reaches the output only through
    Un * (r . 0), is not computed. The state weights and the reset gate's
    parameters get an exactly zero gradient. With standard_gru_update the
    output is z . n.
    """
    if hidden is not None and features.data.shape != hidden.data.shape:
        raise ShapeError(f"conv_rnn: features {features.data.shape} vs hidden {hidden.data.shape}")

    def gate(name, reset=None, unreached=()):
        # W * features + U * state, the state being hidden or reset . hidden
        fed = _layer(params, f"conv_rnn.{name}_in", features)
        if hidden is None:  # U * 0 is U's bias; U's weight and ``unreached`` get zeros
            zero_grad = [params[f"conv_rnn.{n}"].tensor for n in (f"{name}_state.weight", *unreached)]
            return T._add_bias(fed, params[f"conv_rnn.{name}_state.bias"].tensor, zero_grad)
        state = hidden if reset is None else T.mul(reset, hidden)
        return T.add(fed, _layer(params, f"conv_rnn.{name}_state", state))

    z = T.sigmoid(gate("update"))
    r = None if hidden is None else T.sigmoid(gate("reset"))
    n = T.tanh(gate("cand", r, ("reset_in.weight", "reset_in.bias", "reset_state.weight",
                                "reset_state.bias")))
    new = T.mul(z, n)
    keep = hidden if params.config.standard_gru_update else features
    if keep is None:  # (1 - z) . 0
        return new
    return T.add(T.mul(T.sub(Tensor(np.ones_like(z.data)), z), keep), new)


def glu_forward(params, x, index):
    """Dilated gated residual block ``glu_<index>`` (1-based).

    A 1x1 conv narrows to the bottleneck width, two parallel dilated convs
    produce a linear path and a sigmoid gate, their product is widened back
    by a 1x1 conv and added to the input.
    """
    pre = f"glu_{index}"
    h = _layer(params, f"{pre}.in_conv", x)
    main = _layer(params, f"{pre}.main_conv", h)
    gate = T.sigmoid(_layer(params, f"{pre}.gate_conv", h))
    widened = _layer(params, f"{pre}.out_conv", T.mul(main, gate))
    return T.add(x, widened)


def stage_forward(params, x, estimate, hidden):
    """One full pass: returns (new estimate, new hidden map) for input frames x.

    x and estimate are (B, 1, frame_len): the noisy frames and the previous
    pass's estimate (x itself ahead of the first pass). hidden is the GRU
    state, (B, C0, frame_len/2), or None for the first pass, whose state is
    all zeros (see ``convgru_forward``). The front end
    stacks x with the estimate, embeds the pair with conv1d_1 and updates the
    GRU; the new hidden map is both the encoder's input and the next pass's
    state.
    """
    frame_len = params.config.frame_len
    if x.data.shape[1] != 1 or x.data.shape[2] != frame_len:
        raise ShapeError(f"expected (B, 1, {frame_len}) input frames, got {x.data.shape}")
    if x.data.shape != estimate.data.shape:
        raise ShapeError(f"input {x.data.shape} vs fed-back estimate {estimate.data.shape}")
    feats = _layer(params, "conv1d_1", T.concat_channels(x, estimate))
    hidden = convgru_forward(params, feats, hidden)

    feat, skips = hidden, []
    for name in [name for name in params.layers if name.startswith("conv1d_")][1:]:
        feat = _layer(params, name, feat)
        skips.append(feat)
    for j in range(1, sum(name.endswith(".in_conv") for name in params.layers) + 1):
        feat = glu_forward(params, feat, j)
    for j, skip in enumerate(reversed(skips), start=1):
        feat = _layer(params, f"deconv1d_{j}", T.concat_channels(feat, skip))
    return feat, hidden


def multistage_forward(params, x):
    """Run the stage ``params.config.stages`` times with shared weights and feedback.

    The first pass gets ``hidden=None``: no state yet, an all-zero map.
    Returns (final, estimates, hiddens): the last pass's estimate, then
    every pass's estimate and hidden map in pass order, final included.
    The lists hold detached tensors, which share the arrays (nothing is
    copied) but carry no graph: only ``final`` participates in
    backpropagation, and the loss is taken on it alone.
    """
    estimate, hidden = x, None
    estimates, hiddens = [], []
    for _ in range(params.config.stages):
        estimate, hidden = stage_forward(params, x, estimate, hidden)
        estimates.append(estimate.detach())
        hiddens.append(hidden.detach())
    return estimate, estimates, hiddens


def forward_blocks(params, frames):
    """Run ``multistage_forward`` on each ``block_frames`` block of ``frames``.

    frames is (n, 1, frame_len) of any dtype; each block, not the whole
    array, is copied in the weights' dtype. Yields (first frame, final,
    estimates, hiddens) per block, in frame order.
    """
    size, dtype = params.config.block_frames, next(iter(params.values())).data.dtype
    for lo in range(0, len(frames), size):
        yield lo, *multistage_forward(params, Tensor(frames[lo : lo + size].astype(dtype)))


# ---------------------------------------------------------------------------
# analysis


def trace_shapes(params):
    """Layer-by-layer (name, in/out channels and lengths) for one stage, from
    its ``layer_table`` rows: a layer spans its convs, from the first's input
    to the last's output, and a skip join precedes each transposed conv."""
    layers = OrderedDict()
    for row in params.layers.values():
        layers.setdefault(row.name.partition(".")[0], []).append(row)
    shapes = []
    for name, rows in layers.items():
        first, last = rows[0], rows[-1]
        if first.transposed:
            shapes.append(ShapeRow(f"skip_{name.partition('_')[2]}", shapes[-1].out_channels,
                                   shapes[-1].out_length, first.in_channels, first.in_length))
        shapes.append(ShapeRow(name, first.in_channels, first.in_length, last.out_channels,
                               last.out_length))
    return tuple(shapes)


def count_parameters(params):
    """(by_layer, total): element counts rolled up to table rows.

    Weights and biases land under the layer name (GRU gates pooled under
    conv_rnn, each gated block under its glu_<j>); slope vectors land under
    <layer>.prelu so the conv rows match the usual weight+bias bookkeeping.
    """
    by_layer = OrderedDict()
    for name, p in params.items():
        head = name.partition(".")[0]
        key = f"{head}.prelu" if name.endswith(".prelu") else head
        by_layer[key] = by_layer.get(key, 0) + p.data.size
    return by_layer, sum(by_layer.values())


def analyze_structure(config):
    """Build the model and report depth, receptive field, sizes, shapes.

    depth_per_stage counts serial trainable conv layers on the input-to-
    output path (the GRU counts once; a gated block contributes its in,
    main, and out convs; the parallel gate does not add depth).
    unfolded_depth multiplies by the number of passes. The receptive field
    is that of the dilated stack at bottleneck resolution.
    """
    params = build_model(config)
    serial = [row for name, row in params.layers.items()
              if not name.startswith("conv_rnn.") and not name.endswith(".gate_conv")]
    depth = 1 + len(serial)
    rf = 1 + sum(row.dilation * (row.kernel_size - 1) for row in serial if row.name.startswith("glu_"))
    by_layer, total = count_parameters(params)
    return StructureReport(
        depth_per_stage=depth,
        unfolded_depth=depth * config.stages,
        glu_receptive_field=rf,
        parameter_total=total,
        parameters_by_layer=by_layer,
        shape_table=trace_shapes(params),
    )
