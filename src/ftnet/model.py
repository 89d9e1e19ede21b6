"""Time-domain enhancement network with feedback stages.

One stage maps a noisy frame plus the previous stage's estimate to a new
estimate: a strided conv front end feeds a convolutional GRU, a strided
encoder shrinks time while widening channels, a stack of dilated gated
residual blocks works at the bottleneck, and a skip-connected transposed
decoder restores the waveform. The whole stage is applied Q times with
shared weights; the estimate and the GRU state loop back between passes.

All convolutions along the way are arranged so every stage consumes and
produces frames of exactly ``config.frame_len`` samples.
"""

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
    "ShapeRow",
    "StructureReport",
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
        per_frame = 8 * self.encoder_channels[0] * self.kernel * (self.frame_len // 2)
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
    """Named parameters in creation order plus the config that shaped them."""

    def __init__(self, config, params):
        super().__init__(params)
        self.config = config

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


def _decoder_plan(config):
    """(in_channels, out_channels) per transposed layer, first to last."""
    c = config.encoder_channels
    plan = []
    for j in range(1, len(c)):
        in_ch = 2 * c[len(c) - j]
        out_ch = c[len(c) - j - 1] if j < len(c) - 1 else 1
        plan.append((in_ch, out_ch))
    return plan


def build_model(config):
    """Create all parameters with seeded fan-in-scaled uniform values.

    Weights and biases draw from U(-b, b) with b = 1/sqrt(in_ch * kernel);
    PReLU slopes start at 0.25. Draw order is fixed (table order, weight
    before bias) so one seed always yields bitwise-identical values.
    """
    rng = np.random.default_rng(config.seed)
    k = config.kernel
    c = config.encoder_channels
    params = OrderedDict()

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def add_conv(prefix, in_ch, out_ch, kernel, with_prelu, transposed=False):
        fan = in_ch * kernel
        # Transposed layout: (C_in, C_out, K).
        shape = (in_ch, out_ch, kernel) if transposed else (out_ch, in_ch, kernel)
        params[f"{prefix}.weight"] = Parameter(f"{prefix}.weight", draw(shape, fan))
        params[f"{prefix}.bias"] = Parameter(f"{prefix}.bias", draw((1, out_ch, 1), fan))
        if with_prelu:
            params[f"{prefix}.prelu"] = Parameter(f"{prefix}.prelu", np.full((1, out_ch, 1), 0.25))

    add_conv("conv1d_1", 2, c[0], k, with_prelu=True)
    for gate in ("update_in", "update_state", "reset_in", "reset_state", "cand_in", "cand_state"):
        add_conv(f"conv_rnn.{gate}", c[0], c[0], k, with_prelu=False)
    for i in range(1, len(c)):
        add_conv(f"conv1d_{i + 1}", c[i - 1], c[i], k, with_prelu=True)

    bn = config.glu_bottleneck
    wide = c[-1]
    for j in range(1, len(config.glu_dilations) + 1):
        add_conv(f"glu_{j}.in_conv", wide, bn, 1, with_prelu=True)
        add_conv(f"glu_{j}.main_conv", bn, bn, k, with_prelu=False)
        add_conv(f"glu_{j}.gate_conv", bn, bn, k, with_prelu=False)
        add_conv(f"glu_{j}.out_conv", bn, wide, 1, with_prelu=False)

    plan = _decoder_plan(config)
    for j, (in_ch, out_ch) in enumerate(plan, start=1):
        add_conv(f"deconv1d_{j}", in_ch, out_ch, k, with_prelu=j < len(plan), transposed=True)

    return FTNetParams(config, params)


# ---------------------------------------------------------------------------
# forward passes


def _trace(trace, name, before, after):
    if trace is not None:
        trace.append(
            ShapeRow(name, before.shape[1], before.shape[2], after.shape[1], after.shape[2])
        )


def _layer(params, name, conv, x, **geometry):
    """Named layer: ``conv`` with its weight and bias, then its PReLU if it has one."""
    try:
        out = conv(x, params[f"{name}.weight"].tensor, params[f"{name}.bias"].tensor, **geometry)
    except ShapeError as exc:
        raise ShapeError(f"{name}: {exc}") from None
    if f"{name}.prelu" in params:
        out = T.prelu(out, params[f"{name}.prelu"].tensor)
    return out


def _conv_block(params, name, x, *, stride, dilation=1):
    """Named conv1d layer with the length-preserving/halving pad plan."""
    m = params[f"{name}.weight"].data.shape[2] // 2
    left, right = (m * dilation, m * dilation) if stride == 1 else (m, m - 1)
    return _layer(params, name, T.conv1d, x, stride=stride, dilation=dilation,
                  pad_left=left, pad_right=right)


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
        fed = _conv_block(params, f"conv_rnn.{name}_in", features, stride=1)
        if hidden is None:  # U * 0 is U's bias; U's weight and ``unreached`` get zeros
            zero_grad = [params[f"conv_rnn.{n}"].tensor for n in (f"{name}_state.weight", *unreached)]
            return T._add_bias(fed, params[f"conv_rnn.{name}_state.bias"].tensor, zero_grad)
        state = hidden if reset is None else T.mul(reset, hidden)
        return T.add(fed, _conv_block(params, f"conv_rnn.{name}_state", state, stride=1))

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
    dilations = params.config.glu_dilations
    if not 1 <= index <= len(dilations):
        raise ConfigError(f"glu index {index} outside 1..{len(dilations)}")
    d = dilations[index - 1]
    pre = f"glu_{index}"
    h = _conv_block(params, f"{pre}.in_conv", x, stride=1)
    main = _conv_block(params, f"{pre}.main_conv", h, stride=1, dilation=d)
    gate = T.sigmoid(_conv_block(params, f"{pre}.gate_conv", h, stride=1, dilation=d))
    widened = _conv_block(params, f"{pre}.out_conv", T.mul(main, gate), stride=1)
    return T.add(x, widened)


def stage_forward(params, x, estimate, hidden, trace=None):
    """One full pass: returns (new estimate, new hidden map) for input frames x.

    x and estimate are (B, 1, frame_len): the noisy frames and the previous
    pass's estimate (x itself ahead of the first pass). hidden is the GRU
    state, (B, C0, frame_len/2), or None for the first pass, whose state is
    all zeros (see ``convgru_forward``). The front end
    stacks x with the estimate, embeds the pair with conv1d_1 and updates the
    GRU; the new hidden map is both the encoder's input and the next pass's
    state.
    """
    config = params.config
    if x.data.shape[1] != 1 or x.data.shape[2] != config.frame_len:
        raise ShapeError(
            f"expected (B, 1, {config.frame_len}) input frames, got {x.data.shape}"
        )
    if x.data.shape != estimate.data.shape:
        raise ShapeError(f"input {x.data.shape} vs fed-back estimate {estimate.data.shape}")
    stacked = T.concat_channels(x, estimate)
    feats = _conv_block(params, "conv1d_1", stacked, stride=2)
    _trace(trace, "conv1d_1", stacked, feats)
    hidden = convgru_forward(params, feats, hidden)
    _trace(trace, "conv_rnn", feats, hidden)

    c = config.encoder_channels
    skips = []
    feat = hidden
    for i in range(2, len(c) + 1):
        stride = 1 if i == 2 else 2
        out = _conv_block(params, f"conv1d_{i}", feat, stride=stride)
        _trace(trace, f"conv1d_{i}", feat, out)
        skips.append(out)
        feat = out

    for j in range(1, len(config.glu_dilations) + 1):
        out = glu_forward(params, feat, j)
        _trace(trace, f"glu_{j}", feat, out)
        feat = out

    for j, skip in enumerate(reversed(skips), start=1):
        joined = T.concat_channels(feat, skip)
        _trace(trace, f"skip_{j}", feat, joined)
        deconv = _layer(params, f"deconv1d_{j}", T.conv1d_transpose, joined,
                        stride=2, pad=config.kernel // 2, output_pad=1)
        _trace(trace, f"deconv1d_{j}", joined, deconv)
        feat = deconv
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


def forward_blocks(params, frames, dtype=np.float64):
    """Run ``multistage_forward`` on each ``block_frames`` block of ``frames``.

    frames is (n, 1, frame_len) of any dtype; each block, not the whole
    array, is copied as ``dtype``. Yields (first frame, final, estimates,
    hiddens) per block, in frame order.
    """
    size = params.config.block_frames
    for lo in range(0, len(frames), size):
        yield lo, *multistage_forward(params, Tensor(frames[lo : lo + size].astype(dtype)))


# ---------------------------------------------------------------------------
# analysis


def trace_shapes(params):
    """Layer-by-layer (name, in/out channels and lengths) for one stage."""
    config = params.config
    x = Tensor(np.zeros((1, 1, config.frame_len)))
    trace = []
    with T.no_grad():
        stage_forward(params, x, x, None, trace=trace)
    return tuple(trace)


def _rollup_key(name):
    head, _, rest = name.partition(".")
    if rest.endswith("prelu"):
        return f"{head}.prelu"
    return head


def count_parameters(params):
    """(by_layer, total): element counts rolled up to table rows.

    Weights and biases land under the layer name (GRU gates pooled under
    conv_rnn, each gated block under its glu_<j>); slope vectors land under
    <layer>.prelu so the conv rows match the usual weight+bias bookkeeping.
    """
    by_layer = OrderedDict()
    for name, p in params.items():
        key = _rollup_key(name)
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
    n_enc = len(config.encoder_channels)
    n_glu = len(config.glu_dilations)
    depth = 2 + (n_enc - 1) + 3 * n_glu + (n_enc - 1)
    rf = 1 + (config.kernel - 1) * sum(config.glu_dilations)
    params = build_model(config)
    by_layer, total = count_parameters(params)
    return StructureReport(
        depth_per_stage=depth,
        unfolded_depth=depth * config.stages,
        glu_receptive_field=rf,
        parameter_total=total,
        parameters_by_layer=by_layer,
        shape_table=trace_shapes(params),
    )
