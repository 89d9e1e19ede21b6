"""Architecture checks: shapes, counts, recurrence, and end-to-end gradients."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from ftnet import model as M
from ftnet import tensor as T
from ftnet.errors import ConfigError, ShapeError
from ftnet.tensor import Tensor

from oracles import gradients_close, naive_convgru

RNG = np.random.default_rng(4242)


def tiny_config(**over):
    base = dict(
        frame_len=64,
        hop=16,
        kernel=3,
        encoder_channels=(2, 2, 4, 4, 8),
        glu_dilations=(1, 2),
        glu_bottleneck=4,
        stages=2,
        seed=7,
    )
    base.update(over)
    return M.ModelConfig(**base)


def zero_hidden(x, cfg):
    """The GRU state ahead of the first pass over frames x."""
    return Tensor(np.zeros((x.shape[0], cfg.encoder_channels[0], cfg.frame_len // 2)))


# ---------------------------------------------------------------------------
# config


def test_config_defaults_are_the_reference_plan():
    cfg = M.ModelConfig()
    assert cfg.frame_len == 2048
    assert cfg.hop == 256
    assert cfg.kernel == 11
    assert cfg.encoder_channels == (16, 16, 32, 64, 128)
    assert cfg.glu_dilations == (1, 2, 4, 8, 16, 32)
    assert cfg.glu_bottleneck == 64


@pytest.mark.parametrize(
    "bad",
    [
        dict(frame_len=1000),  # not divisible by 16
        dict(kernel=4),
        dict(kernel=1),
        dict(encoder_channels=(16,)),
        dict(encoder_channels=(16, 0, 32, 64, 128)),
        dict(glu_dilations=()),
        dict(glu_dilations=(1, -2)),
        dict(glu_bottleneck=0),
        dict(stages=0),
        dict(hop=0),
        dict(hop=4096),
        dict(seed=-1),
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        M.ModelConfig(**bad)


def test_config_dict_roundtrip():
    cfg = tiny_config(standard_gru_update=True)
    assert M.ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# construction


def test_parameter_count_matches_hand_tally():
    by_layer, total = M.count_parameters(M.layer_table(M.ModelConfig()))
    assert total == 1_017_345
    assert by_layer["conv1d_1"] == 368
    assert by_layer["conv_rnn"] == 16_992
    assert by_layer["conv1d_2"] == 2_832
    assert by_layer["conv1d_3"] == 5_664
    assert by_layer["conv1d_4"] == 22_592
    assert by_layer["conv1d_5"] == 90_240
    for j in range(1, 7):
        assert by_layer[f"glu_{j}"] == 106_816
        assert by_layer[f"glu_{j}.prelu"] == 64
    assert by_layer["deconv1d_1"] == 180_288
    assert by_layer["deconv1d_2"] == 45_088
    assert by_layer["deconv1d_3"] == 11_280
    assert by_layer["deconv1d_4"] == 353
    prelu_total = sum(v for k, v in by_layer.items() if k.endswith(".prelu"))
    assert prelu_total == 752


def test_build_is_deterministic_per_seed():
    a = M.build_model(tiny_config(seed=3))
    b = M.build_model(tiny_config(seed=3))
    c = M.build_model(tiny_config(seed=4))
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_init_scale_tracks_fan_in():
    params = M.build_model(M.ModelConfig())
    w = params["conv1d_5.weight"].data
    bound = 1.0 / np.sqrt(64 * 11)
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.5 * bound  # uniform draws should come close
    np.testing.assert_array_equal(params["conv1d_1.prelu"].data, 0.25)


def test_unknown_parameter_name_raises():
    params = M.build_model(tiny_config())
    with pytest.raises(ConfigError):
        params["conv1d_9.weight"]


# ---------------------------------------------------------------------------
# shape table


def test_trace_matches_reference_shape_table():
    rows = {r.name: r for r in M.trace_shapes(M.layer_table(M.ModelConfig()))}
    expect = {
        "conv1d_1": (2, 2048, 16, 1024),
        "conv_rnn": (16, 1024, 16, 1024),
        "conv1d_2": (16, 1024, 16, 1024),
        "conv1d_3": (16, 1024, 32, 512),
        "conv1d_4": (32, 512, 64, 256),
        "conv1d_5": (64, 256, 128, 128),
        "skip_1": (128, 128, 256, 128),
        "deconv1d_1": (256, 128, 64, 256),
        "skip_2": (64, 256, 128, 256),
        "deconv1d_2": (128, 256, 32, 512),
        "skip_3": (32, 512, 64, 512),
        "deconv1d_3": (64, 512, 16, 1024),
        "skip_4": (16, 1024, 32, 1024),
        "deconv1d_4": (32, 1024, 1, 2048),
    }
    for j in range(1, 7):
        expect[f"glu_{j}"] = (128, 128, 128, 128)
    assert len(rows) == len(expect)
    for name, row in expect.items():
        assert tuple(rows[name])[1:] == row, name


def test_stage_output_matches_input_geometry():
    cfg = tiny_config()
    params = M.build_model(cfg)
    x = Tensor(RNG.standard_normal((3, 1, cfg.frame_len)))
    est, hidden = M.stage_forward(params, x, x, zero_hidden(x, cfg))
    assert est.shape == (3, 1, cfg.frame_len)
    assert hidden.shape == (3, cfg.encoder_channels[0], cfg.frame_len // 2)
    assert np.all(np.isfinite(est.data))


def test_stage_rejects_wrong_length():
    cfg = tiny_config()
    params = M.build_model(cfg)
    x = Tensor(np.zeros((1, 1, cfg.frame_len + 2)))
    with pytest.raises(ShapeError):
        M.stage_forward(params, x, x, zero_hidden(x, cfg))


# ---------------------------------------------------------------------------
# recurrence


def gru_weight_arrays(params):
    gates = ("update_in", "update_state", "reset_in", "reset_state", "cand_in", "cand_state")
    return {
        g: (params[f"conv_rnn.{g}.weight"].data, params[f"conv_rnn.{g}.bias"].data)
        for g in gates
    }


def test_convgru_matches_scalar_oracle():
    cfg = tiny_config()
    params = M.build_model(cfg)
    feats = RNG.standard_normal((2, 2, 32))
    hidden = RNG.standard_normal((2, 2, 32))
    got = M.convgru_forward(params, Tensor(feats), Tensor(hidden))
    want = naive_convgru(gru_weight_arrays(params), feats, hidden, cfg.kernel)
    assert np.max(np.abs(got.data - want)) <= 1e-10


def test_convgru_standard_update_variant():
    cfg = tiny_config(standard_gru_update=True)
    params = M.build_model(cfg)
    feats = RNG.standard_normal((1, 2, 16))
    hidden = RNG.standard_normal((1, 2, 16))
    got = M.convgru_forward(params, Tensor(feats), Tensor(hidden))
    want = naive_convgru(gru_weight_arrays(params), feats, hidden, cfg.kernel, standard_update=True)
    assert np.max(np.abs(got.data - want)) <= 1e-10
    default_params = M.build_model(tiny_config(standard_gru_update=False))
    default = M.convgru_forward(default_params, Tensor(feats), Tensor(hidden))
    assert np.max(np.abs(default.data - got.data)) > 1e-8


def test_convgru_zero_state_reduces_to_blend_of_feats_and_candidate():
    cfg = tiny_config()
    params = M.build_model(cfg)
    feats = RNG.standard_normal((1, 2, 16))
    zeros = np.zeros_like(feats)
    got = M.convgru_forward(params, Tensor(feats), Tensor(zeros))
    want = naive_convgru(gru_weight_arrays(params), feats, zeros, cfg.kernel)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_convgru_rejects_mismatched_state():
    cfg = tiny_config()
    params = M.build_model(cfg)
    with pytest.raises(ShapeError):
        M.convgru_forward(params, Tensor(np.zeros((1, 2, 16))), Tensor(np.zeros((1, 2, 8))))


@pytest.mark.parametrize("standard", [False, True], ids=["default-update", "standard-update"])
def test_convgru_without_state_equals_an_all_zero_state_bit_for_bit(standard):
    cfg = tiny_config(standard_gru_update=standard)
    feats = RNG.standard_normal((2, 2, 32))
    cotangent = Tensor(RNG.standard_normal((2, 2, 32)))

    def run(hidden):
        params = M.build_model(cfg)
        f = Tensor(feats, requires_grad=True)
        out = M.convgru_forward(params, f, hidden)
        T.mul(out, cotangent).sum().backward()
        grads = {name: p.grad for name, p in params.items() if name.startswith("conv_rnn.")}
        return out.data, f.grad, grads

    out, f_grad, grads = run(None)
    want_out, want_f_grad, want_grads = run(Tensor(np.zeros_like(feats)))
    assert out.tobytes() == want_out.tobytes()
    assert f_grad.tobytes() == want_f_grad.tobytes()
    assert grads.keys() == want_grads.keys() and len(grads) == 12
    for name, grad in grads.items():
        assert grad.dtype == want_grads[name].dtype
        assert grad.tobytes() == want_grads[name].tobytes(), name


def test_the_first_pass_runs_only_the_gru_input_convs_for_z_and_n():
    cfg = tiny_config(stages=2)
    params = M.build_model(cfg)
    names = {id(p.tensor): name[: -len(".weight")] for name, p in params.items()}
    called, conv1d = [], T.conv1d

    def spy(x, weight, *args, **kwargs):
        called.append(names[id(weight)])
        return conv1d(x, weight, *args, **kwargs)

    with mock.patch.object(T, "conv1d", spy):
        M.multistage_forward(params, Tensor(RNG.standard_normal((1, 1, cfg.frame_len))))
    gru = [name.split(".")[1] for name in called if name.startswith("conv_rnn.")]
    assert gru == ["update_in", "cand_in",
                   "update_in", "update_state", "reset_in", "reset_state", "cand_in", "cand_state"]


# ---------------------------------------------------------------------------
# gated blocks


def test_glu_preserves_shape_and_uses_residual():
    cfg = tiny_config()
    params = M.build_model(cfg)
    x = RNG.standard_normal((2, 8, cfg.frame_len >> (len(cfg.encoder_channels) - 1)))
    out = M.glu_forward(params, Tensor(x), 1)
    assert out.shape == x.shape
    # Zeroing the widening conv must reduce the block to the identity.
    params["glu_1.out_conv.weight"].tensor.data[:] = 0.0
    params["glu_1.out_conv.bias"].tensor.data[:] = 0.0
    passthrough = M.glu_forward(params, Tensor(x), 1)
    np.testing.assert_array_equal(passthrough.data, x)


def test_glu_index_bounds():
    params = M.build_model(tiny_config())
    x = Tensor(np.zeros((1, 8, 4)))
    with pytest.raises(ConfigError):
        M.glu_forward(params, x, 0)
    with pytest.raises(ConfigError):
        M.glu_forward(params, x, 3)


# ---------------------------------------------------------------------------
# multistage feedback


def test_multistage_returns_one_estimate_per_pass():
    cfg = tiny_config(stages=3)
    params = M.build_model(cfg)
    x = Tensor(RNG.standard_normal((2, 1, cfg.frame_len)))
    final, estimates, hiddens = M.multistage_forward(params, x)
    assert len(estimates) == 3 and len(hiddens) == 3
    np.testing.assert_array_equal(final.data, estimates[-1].data)
    for est in estimates:
        assert est.shape == x.shape
        assert not est.requires_grad
    # Feedback must actually change the computation between passes.
    assert np.max(np.abs(estimates[0].data - estimates[1].data)) > 0


def test_multistage_single_stage_equals_stage_forward():
    cfg = tiny_config(stages=1)
    params = M.build_model(cfg)
    x = Tensor(RNG.standard_normal((1, 1, cfg.frame_len)))
    final, _, _ = M.multistage_forward(params, x)
    direct, _ = M.stage_forward(params, x, x, zero_hidden(x, cfg))
    np.testing.assert_array_equal(final.data, direct.data)


def test_multistage_is_deterministic():
    cfg = tiny_config()
    x = np.sin(np.arange(cfg.frame_len) / 5.0).reshape(1, 1, -1)
    a, _, _ = M.multistage_forward(M.build_model(cfg), Tensor(x))
    b, _, _ = M.multistage_forward(M.build_model(cfg), Tensor(x))
    np.testing.assert_array_equal(a.data, b.data)


def test_stages_share_weights_and_grads_flow_through_all():
    cfg = tiny_config(stages=2)
    params = M.build_model(cfg)
    x = Tensor(RNG.standard_normal((1, 1, cfg.frame_len)))
    target = Tensor(RNG.standard_normal((1, 1, cfg.frame_len)))

    # One pass over the very same parameter objects.
    final, _, _ = M.multistage_forward(M.FTNetParams(replace(cfg, stages=1), params), x)
    T.mae_loss(final, target).backward()
    single = {n: params[n].grad.copy() for n in params}
    params.zero_grad()

    final, _, _ = M.multistage_forward(params, x)
    T.mae_loss(final, target).backward()
    double = {n: params[n].grad.copy() for n in params}

    # Same parameter objects serve every pass; the second pass must add
    # feedback terms, so gradients cannot coincide with the one-pass run.
    assert any(np.max(np.abs(single[n] - double[n])) > 1e-12 for n in single)
    assert all(np.all(np.isfinite(g)) for g in double.values())


def test_intermediate_estimates_cannot_leak_gradients():
    cfg = tiny_config(stages=2)
    params = M.build_model(cfg)
    x = Tensor(RNG.standard_normal((1, 1, cfg.frame_len)))
    _, estimates, _ = M.multistage_forward(params, x)
    loss = T.mul(estimates[0], estimates[0]).sum()
    loss.backward()
    assert all(params[n].grad is None for n in params)


# ---------------------------------------------------------------------------
# analyzers


def test_structure_report_for_default_config():
    report = M.analyze_structure(M.ModelConfig())
    assert report.depth_per_stage == 28
    assert report.unfolded_depth == 28 * 3
    assert report.glu_receptive_field == 631
    assert report.parameter_total == 1_017_345
    assert len(report.shape_table) == 20


def test_structure_report_scales_with_config():
    report = M.analyze_structure(tiny_config(stages=4))
    assert report.depth_per_stage == 2 + 4 + 3 * 2 + 4
    assert report.unfolded_depth == report.depth_per_stage * 4
    assert report.glu_receptive_field == 1 + 2 * (1 + 2)


# ---------------------------------------------------------------------------
# end-to-end gradient check


def test_multistage_gradients_match_finite_differences():
    cfg = tiny_config(stages=2)
    params = M.build_model(cfg)
    x_arr = 0.1 * RNG.standard_normal((1, 1, cfg.frame_len))
    t_arr = 0.1 * RNG.standard_normal((1, 1, cfg.frame_len))

    final, _, _ = M.multistage_forward(params, Tensor(x_arr))
    T.mae_loss(final, Tensor(t_arr)).backward()

    def loss_value():
        with T.no_grad():
            out, _, _ = M.multistage_forward(params, Tensor(x_arr))
            return T.mae_loss(out, Tensor(t_arr)).item()

    probe = np.random.default_rng(0)
    step = 1e-5
    checked = 0
    for name in ("conv1d_1.weight", "conv_rnn.update_state.weight", "glu_2.main_conv.weight",
                 "deconv1d_4.weight", "conv1d_3.prelu", "deconv1d_2.bias"):
        p = params[name]
        flat_grad = p.grad.reshape(-1)
        data = p.tensor.data.reshape(-1)
        for idx in probe.choice(data.size, size=min(4, data.size), replace=False):
            saved = data[idx]
            data[idx] = saved + step
            f_plus = loss_value()
            data[idx] = saved - step
            f_minus = loss_value()
            data[idx] = saved
            numeric = (f_plus - f_minus) / (2 * step)
            assert gradients_close(flat_grad[idx], numeric, rtol=1e-3, atol=1e-7), (
                f"{name}[{idx}]: analytic {flat_grad[idx]:.6e} vs numeric {numeric:.6e}"
            )
            checked += 1
    assert checked >= 20
