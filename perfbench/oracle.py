"""Frozen reference for the benchmark's correctness gate.

This is the network math of ftnet as first released (tensor engine, model,
training loop and framing), written against plain numpy and sharing no code
with ``src/``. A later change to the program's kernels cannot move these
values, so the gate compares every benchmarked operation against them.

Convolutions contract a contiguous im2col copy with ``np.matmul`` (BLAS):
the same products and sums as the original kernels in another summation
order, which the gate's tolerances absorb. Everything is float64.
"""

import math
import wave
from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _im2col(x, shape, strides):
    """The strided window view as a contiguous (batch, channels * kernel, length) array."""
    view = as_strided(x, shape, strides)
    return np.ascontiguousarray(view).reshape(shape[0], shape[1] * shape[2], shape[3])


class Var:
    """Value with an optional gradient and the closure that feeds its parents."""

    __slots__ = ("data", "grad", "needs_grad", "parents", "back")

    def __init__(self, data, needs_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.needs_grad = needs_grad
        self.parents = ()
        self.back = None


def _result(data, parents, back):
    out = Var(data)
    if any(p.needs_grad for p in parents):
        out.needs_grad = True
        out.parents = parents
        out.back = lambda: back(out.grad)
    return out


def _acc(var, grad):
    if var.needs_grad:
        var.grad = grad.copy() if var.grad is None else var.grad + grad


def backward(loss):
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.back is not None:
            node.back()


def conv1d(x, w, b, stride, dilation, pad_left, pad_right):
    batch, in_ch, length = x.data.shape
    out_ch, _, kernel = w.data.shape
    padded = np.pad(x.data, ((0, 0), (0, 0), (pad_left, pad_right)))
    out_len = (padded.shape[2] - dilation * (kernel - 1) - 1) // stride + 1
    s0, s1, s2 = padded.strides
    window = ((batch, in_ch, kernel, out_len), (s0, s1, s2 * dilation, s2 * stride))
    w2 = w.data.reshape(out_ch, in_ch * kernel)
    y = np.matmul(w2, _im2col(padded, *window)) + b.data

    def back(g):
        cols = _im2col(padded, *window)
        _acc(w, np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
        _acc(b, g.sum(axis=(0, 2)).reshape(b.data.shape))
        if x.needs_grad:
            spread = np.matmul(w2.T, g).reshape(batch, in_ch, kernel, out_len)
            gp = np.zeros_like(padded)
            for k in range(kernel):
                gp[:, :, k * dilation : k * dilation + stride * out_len : stride] += spread[:, :, k, :]
            _acc(x, gp[:, :, pad_left : pad_left + length])

    return _result(y, (x, w, b), back)


def conv1d_transpose(x, w, b, stride, pad, output_pad):
    batch, in_ch, length = x.data.shape
    _, out_ch, kernel = w.data.shape
    w2 = w.data.reshape(in_ch, out_ch * kernel)
    out_len = (length - 1) * stride - 2 * pad + kernel + output_pad
    full_len = (length - 1) * stride + kernel + output_pad
    full = np.zeros((batch, out_ch, full_len))
    spread = np.matmul(w2.T, x.data).reshape(batch, out_ch, kernel, length)
    for k in range(kernel):
        full[:, :, k : k + stride * (length - 1) + 1 : stride] += spread[:, :, k, :]
    y = full[:, :, pad : pad + out_len] + b.data

    def back(g):
        g_full = np.zeros((batch, out_ch, full_len))
        g_full[:, :, pad : pad + out_len] = g
        s0, s1, s2 = g_full.strides
        cols = _im2col(g_full, (batch, out_ch, kernel, length), (s0, s1, s2, s2 * stride))
        _acc(x, np.matmul(w2, cols))
        _acc(w, np.matmul(x.data, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
        _acc(b, g.sum(axis=(0, 2)).reshape(b.data.shape))

    return _result(y, (x, w, b), back)


def sigmoid(x):
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    y[~pos] = e / (1.0 + e)
    return _result(y, (x,), lambda g: _acc(x, g * y * (1.0 - y)))


def tanh(x):
    y = np.tanh(x.data)
    return _result(y, (x,), lambda g: _acc(x, g * (1.0 - y * y)))


def prelu(x, slopes):
    neg = x.data < 0
    y = np.where(neg, slopes.data * x.data, x.data)

    def back(g):
        _acc(x, np.where(neg, slopes.data, 1.0) * g)
        _acc(slopes, (np.where(neg, x.data, 0.0) * g).sum(axis=(0, 2), keepdims=True))

    return _result(y, (x, slopes), back)


def add(a, b):
    return _result(a.data + b.data, (a, b), lambda g: (_acc(a, g), _acc(b, g)))


def sub(a, b):
    return _result(a.data - b.data, (a, b), lambda g: (_acc(a, g), _acc(b, -g)))


def mul(a, b):
    return _result(a.data * b.data, (a, b), lambda g: (_acc(a, g * b.data), _acc(b, g * a.data)))


def concat(a, b):
    split = a.data.shape[1]
    y = np.concatenate([a.data, b.data], axis=1)
    return _result(y, (a, b), lambda g: (_acc(a, g[:, :split]), _acc(b, g[:, split:])))


def mae(pred, target):
    diff = pred.data - target.data
    value = np.abs(diff).mean().reshape(1, 1, 1)
    return _result(value, (pred,), lambda g: _acc(pred, g.reshape(()) * np.sign(diff) / diff.size))


# ---------------------------------------------------------------------------
# model


def init_params(cfg):
    """Seeded fan-in uniform weights in the original draw order, as Vars."""
    rng = np.random.default_rng(cfg["seed"])
    k, c, bn = cfg["kernel"], cfg["encoder_channels"], cfg["glu_bottleneck"]
    params = OrderedDict()

    def layer(prefix, in_ch, out_ch, kernel, with_prelu, transposed=False):
        bound = 1.0 / math.sqrt(in_ch * kernel)
        shape = (in_ch, out_ch, kernel) if transposed else (out_ch, in_ch, kernel)
        params[f"{prefix}.weight"] = rng.uniform(-bound, bound, size=shape)
        params[f"{prefix}.bias"] = rng.uniform(-bound, bound, size=(1, out_ch, 1))
        if with_prelu:
            params[f"{prefix}.prelu"] = np.full((1, out_ch, 1), 0.25)

    layer("conv1d_1", 2, c[0], k, True)
    for gate in ("update_in", "update_state", "reset_in", "reset_state", "cand_in", "cand_state"):
        layer(f"conv_rnn.{gate}", c[0], c[0], k, False)
    for i in range(1, len(c)):
        layer(f"conv1d_{i + 1}", c[i - 1], c[i], k, True)
    for j in range(1, len(cfg["glu_dilations"]) + 1):
        layer(f"glu_{j}.in_conv", c[-1], bn, 1, True)
        layer(f"glu_{j}.main_conv", bn, bn, k, False)
        layer(f"glu_{j}.gate_conv", bn, bn, k, False)
        layer(f"glu_{j}.out_conv", bn, c[-1], 1, False)
    for j in range(1, len(c)):
        in_ch = 2 * c[len(c) - j]
        out_ch = c[len(c) - j - 1] if j < len(c) - 1 else 1
        layer(f"deconv1d_{j}", in_ch, out_ch, k, j < len(c) - 1, transposed=True)
    return OrderedDict((name, Var(v, needs_grad=True)) for name, v in params.items())


def _block(p, name, x, stride, dilation=1, act="prelu"):
    m = p[f"{name}.weight"].data.shape[2] // 2
    pads = (m * dilation, m * dilation) if stride == 1 else (m, m - 1)
    out = conv1d(x, p[f"{name}.weight"], p[f"{name}.bias"], stride, dilation, *pads)
    if act == "prelu":
        return prelu(out, p[f"{name}.prelu"])
    return sigmoid(out) if act == "sigmoid" else out


def _stage(p, cfg, x, estimate, hidden):
    feats = _block(p, "conv1d_1", concat(x, estimate), 2)

    def gate(a, b, state):
        return add(_block(p, f"conv_rnn.{a}", feats, 1, act=None), _block(p, f"conv_rnn.{b}", state, 1, act=None))

    z = sigmoid(gate("update_in", "update_state", hidden))
    r = sigmoid(gate("reset_in", "reset_state", hidden))
    n = tanh(gate("cand_in", "cand_state", mul(r, hidden)))
    hidden = add(mul(sub(Var(np.ones_like(z.data)), z), feats), mul(z, n))

    c = cfg["encoder_channels"]
    skips, feat = [], hidden
    for i in range(2, len(c) + 1):
        feat = _block(p, f"conv1d_{i}", feat, 1 if i == 2 else 2)
        skips.append(feat)
    for j, d in enumerate(cfg["glu_dilations"], start=1):
        h = _block(p, f"glu_{j}.in_conv", feat, 1)
        main = _block(p, f"glu_{j}.main_conv", h, 1, d, act=None)
        gate_ = _block(p, f"glu_{j}.gate_conv", h, 1, d, act="sigmoid")
        feat = add(feat, _block(p, f"glu_{j}.out_conv", mul(main, gate_), 1, act=None))
    for j in range(1, len(c)):
        name = f"deconv1d_{j}"
        feat = conv1d_transpose(
            concat(feat, skips[-j]), p[f"{name}.weight"], p[f"{name}.bias"], 2, cfg["kernel"] // 2, 1
        )
        if j < len(c) - 1:
            feat = prelu(feat, p[f"{name}.prelu"])
    return feat, hidden


def multistage(p, cfg, frames):
    """(final Var, per-stage estimate arrays) for frames shaped (B, 1, frame_len)."""
    x = Var(frames)
    hidden = Var(np.zeros((frames.shape[0], cfg["encoder_channels"][0], cfg["frame_len"] // 2)))
    estimate, stages = x, []
    for _ in range(cfg["stages"]):
        estimate, hidden = _stage(p, cfg, x, estimate, hidden)
        stages.append(estimate.data)
    return estimate, stages


# ---------------------------------------------------------------------------
# training loop and audio helpers


def frame_signal(clip, frame_len, hop):
    n = clip.size
    n_frames = -(-max(n - frame_len, 0) // hop) + 1
    padded = np.zeros((n_frames - 1) * hop + frame_len)
    padded[:n] = clip
    return np.stack([padded[i * hop : i * hop + frame_len] for i in range(n_frames)])[:, None, :]


def overlap_add(frames, hop, n):
    """Average every frame's contribution per sample; the first ``n`` samples."""
    n_frames, _, frame_len = frames.shape
    acc = np.zeros((n_frames - 1) * hop + frame_len)
    count = np.zeros_like(acc)
    for i in range(n_frames):
        acc[i * hop : i * hop + frame_len] += frames[i, 0]
        count[i * hop : i * hop + frame_len] += 1.0
    return (acc / count)[:n]


class Trainer:
    """The original minibatch loop: seeded shuffle, final-stage MAE, Adam, schedule."""

    def __init__(self, cfg, lr=2e-4, rng_state=0):
        self.cfg = cfg
        self.params = init_params(cfg)
        self.moments = {name: (np.zeros_like(v.data), np.zeros_like(v.data)) for name, v in self.params.items()}
        self.steps = 0
        self.lr = lr
        self.rng_state = rng_state
        self.epoch = 0
        self.val_history = []
        self.consec = 0
        self.events = 0

    def _frames(self, pairs):
        cfg = self.cfg
        noisy = np.concatenate([frame_signal(p.noisy, cfg["frame_len"], cfg["hop"]) for p in pairs])
        clean = np.concatenate([frame_signal(p.clean, cfg["frame_len"], cfg["hop"]) for p in pairs])
        return noisy, clean

    def step(self, pairs):
        noisy, clean = self._frames(pairs)
        final, _ = multistage(self.params, self.cfg, noisy)
        loss = mae(final, Var(clean))
        backward(loss)
        self.steps += 1
        b1, b2 = 0.9, 0.999
        for name, v in self.params.items():
            m, s = self.moments[name]
            g = v.grad
            m *= b1
            m += (1.0 - b1) * g
            s *= b2
            s += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**self.steps)
            s_hat = s / (1.0 - b2**self.steps)
            v.data = v.data - self.lr * m_hat / (np.sqrt(s_hat) + 1e-8)
            v.grad = None
        return float(loss.data.reshape(()))

    def train_epoch(self, pairs, batch_size=2):
        order = np.random.default_rng((self.rng_state, self.epoch)).permutation(len(pairs))
        losses = [
            self.step([pairs[i] for i in order[lo : lo + batch_size]])
            for lo in range(0, len(order), batch_size)
        ]
        return float(np.mean(losses))

    def validate(self, pairs):
        losses = []
        for pair in pairs:
            noisy, clean = self._frames([pair])
            final, _ = multistage(self.params, self.cfg, noisy)
            losses.append(float(np.abs(final.data - clean).mean()))
        return float(np.mean(losses))

    def fit_rows(self, train_pairs, val_pairs, max_epochs, halve_after=3, stop_after=10):
        """The CSV log rows (epoch, train_mae, val_mae, lr, action) of a fit run."""
        rows = []
        while self.epoch < max_epochs:
            train_mae = self.train_epoch(train_pairs)
            val_mae = self.validate(val_pairs)
            lr_used = self.lr
            if self.val_history and val_mae > self.val_history[-1]:
                self.consec += 1
                self.events += 1
            else:
                self.consec = 0
            self.val_history.append(val_mae)
            action = "continue"
            if self.consec >= halve_after:
                self.lr *= 0.5
                self.consec = 0
                action = "halve_lr"
            if self.events >= stop_after:
                action = "stop"
            self.epoch += 1
            if self.epoch >= max_epochs:
                action = "stop"
            rows.append((self.epoch, train_mae, val_mae, lr_used, action))
            if action == "stop":
                break
        return rows


def read_wav(path):
    """16-bit mono PCM samples as integers."""
    with wave.open(str(path), "rb") as wav:
        return np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2").astype(np.int64)


def quantize(signal):
    """Float clip to the 16-bit integers a PCM writer stores (round half away from zero)."""
    scaled = np.clip(signal, -1.0, 1.0) * 32768
    return np.clip(np.trunc(scaled + np.copysign(0.5, scaled)), -32768, 32767).astype(np.int64)
