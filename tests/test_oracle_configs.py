"""The whole network against the benchmark's frozen oracle, on random configurations.

``perfbench/oracle.py`` is the network math as first released, written in
plain numpy with no code shared with ``src/``. The benchmark gate checks two
fixed configurations against it; here hypothesis draws small ones of every
shape the model takes (depth, widths, kernel, dilations, passes Q, batch),
so a fault that only one geometry shows cannot pass. Both perfbench modules
are loaded by path and only read: the oracle for the reference values, the
runner for the gate's tolerances. The oracle has no ``standard_gru_update``;
criterion 4's ConvGRU oracle covers that variant.
"""

import importlib.util
import pathlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnet import tensor as T
from ftnet.model import (ModelConfig, build_model, forward_blocks, layer_table,
                         multistage_forward, stage_forward)
from ftnet.training import TrainState, train_epoch

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load("oracle")
gate = load("run")


@st.composite
def configs(draw):
    """A small valid config: depth 2-4, widths 1-5, kernel 3/5/7, 1-3 dilations, Q 1-3."""
    depth = draw(st.integers(2, 4))
    frame_len = (1 << (depth - 1)) * draw(st.sampled_from([1, 2, 4, 8]))
    return ModelConfig(
        frame_len=frame_len,
        hop=draw(st.integers(max(1, frame_len // 4), frame_len)),
        kernel=draw(st.sampled_from([3, 5, 7])),
        encoder_channels=tuple(draw(st.lists(st.integers(1, 5), min_size=depth, max_size=depth))),
        glu_dilations=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))),
        glu_bottleneck=draw(st.integers(1, 5)),
        stages=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


def flat(values):
    return np.concatenate([v.data.ravel() for v in values])


def relative_l2(actual, expected):
    return np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300)


@settings(max_examples=20)
@given(config=configs(), batch=st.integers(1, 3), data_seed=st.integers(0, 2**16))
def test_final_mae_and_every_gradient_match_the_oracle(config, batch, data_seed):
    rng = np.random.default_rng(data_seed)
    noisy, clean = 0.1 * rng.standard_normal((2, batch, 1, config.frame_len))
    params = build_model(config)
    final, _, _ = multistage_forward(params, T.Tensor(noisy))
    loss = T.mae_loss(final, T.Tensor(clean))
    loss.backward()

    ref_params = oracle.init_params(config.to_dict())
    ref_final, _ = oracle.multistage(ref_params, config.to_dict(), noisy)
    ref_loss = oracle.mae(ref_final, oracle.Var(clean))
    oracle.backward(ref_loss)

    assert list(params) == list(ref_params)
    ref_loss = float(ref_loss.data.reshape(()))
    assert abs(loss.item() - ref_loss) <= gate.LOSS_RTOL * abs(ref_loss)
    scale = max(np.abs(p.grad).max() for p in ref_params.values())
    for name, p in params.items():
        np.testing.assert_allclose(p.grad, ref_params[name].grad, rtol=gate.UPDATE_RTOL,
                                   atol=gate.UPDATE_RTOL * scale, err_msg=name)


@settings(max_examples=12)
@given(config=configs(), batch=st.integers(1, 3), data_seed=st.integers(0, 2**16))
def test_float32_enhance_stays_within_one_pcm_step_of_the_oracle(config, batch, data_seed):
    noisy = 0.1 * np.random.default_rng(data_seed).standard_normal((batch, 1, config.frame_len))
    params = build_model(config)
    for p in params.values():
        p.tensor.data = p.tensor.data.astype(np.float32)
    with T.no_grad():
        blocks = [[t.data for t in est] for _, _, est, _ in forward_blocks(params, noisy, np.float32)]
    per_stage = [np.concatenate(arrays) for arrays in zip(*blocks)]
    _, ref_stages = oracle.multistage(oracle.init_params(config.to_dict()), config.to_dict(), noisy)
    assert len(per_stage) == len(ref_stages) == config.stages
    for got, want in zip(per_stage, ref_stages):
        assert np.abs(oracle.quantize(got) - oracle.quantize(want)).max() <= gate.PCM_ATOL


@settings(max_examples=12)
@given(config=configs(), data=st.data())
def test_one_training_epoch_in_blocks_matches_the_oracle_trainer(config, data):
    """Clips of 1-3 frame lengths, minibatches of 2, and blocks of 1-3 frames."""
    lengths = data.draw(st.lists(st.integers(1, 3 * config.frame_len), min_size=1, max_size=3))
    block = data.draw(st.integers(1, 3))
    data_seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(data_seed)
    pairs = [SimpleNamespace(noisy=0.1 * rng.standard_normal(n), clean=0.1 * rng.standard_normal(n))
             for n in lengths]
    trainer = oracle.Trainer(config.to_dict(), rng_state=data_seed)
    ref_initial = flat(trainer.params.values())
    ref_loss = trainer.train_epoch(pairs)
    ref_update = flat(trainer.params.values()) - ref_initial

    params = build_model(config)
    initial = flat(params.values())
    with mock.patch.object(ModelConfig, "block_frames", property(lambda self: block)):
        loss = train_epoch(params, TrainState(rng_state=data_seed), pairs, batch_size=2)

    np.testing.assert_array_equal(initial, ref_initial)
    assert abs(loss - ref_loss) <= gate.LOSS_RTOL * abs(ref_loss)
    assert relative_l2(flat(params.values()) - initial, ref_update) <= gate.UPDATE_RTOL


@settings(max_examples=20)
@given(config=configs())
def test_every_layer_table_row_is_the_geometry_the_forward_runs(config):
    """A spy on both convs, keyed by weight identity, sees each row's kind,
    geometry and input and output shapes on every call. A pass with no GRU
    state and one with a state together call every row's conv."""
    params = build_model(config)
    rows = {id(params[f"{row.name}.weight"].tensor): row for row in layer_table(config)}
    seen = {}

    def spy(conv, transposed):
        def call(x, weight, bias, **geometry):
            out = conv(x, weight, bias, **geometry)
            seen.setdefault(id(weight), []).append((transposed, geometry, x.shape[1:], out.shape[1:]))
            return out
        return call

    x = T.Tensor(np.zeros((1, 1, config.frame_len)))
    with mock.patch.object(T, "conv1d", spy(T.conv1d, False)), \
            mock.patch.object(T, "conv1d_transpose", spy(T.conv1d_transpose, True)), T.no_grad():
        _, hidden = stage_forward(params, x, x, None)
        stage_forward(params, x, x, hidden)

    assert set(seen) == set(rows)
    for key, calls in seen.items():
        row = rows[key]
        geometry = (dict(stride=row.stride, pad=row.pad_left, output_pad=row.output_pad)
                    if row.transposed else
                    dict(stride=row.stride, dilation=row.dilation, pad_left=row.pad_left,
                         pad_right=row.pad_right))
        shapes = (row.in_channels, row.in_length), (row.out_channels, row.out_length)
        assert calls == [(row.transposed, geometry, *shapes)] * len(calls), row.name
