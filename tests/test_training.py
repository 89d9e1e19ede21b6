"""Harness behavior: epochs, scheduling, persistence, resume trajectories."""

import errno
import itertools
import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnet import checkpoint, cli, mixer, tensor, training
from ftnet.audio import frame_signal, write_wav
from ftnet.checkpoint import checkpoint_load, checkpoint_save
from ftnet.cli import TRAIN_DEFAULTS
from ftnet.errors import DegenerateSignalError, FormatError, UsageError
from ftnet.model import ModelConfig, analyze_structure, build_model, multistage_forward
from ftnet.tensor import Tensor, mae_loss
from ftnet.training import TrainState, fit, schedule_update, train_epoch, validate
from limited_run import needs_limit, run_probe, run_under_limit


def micro_config(**over):
    base = dict(
        frame_len=64,
        hop=32,
        kernel=3,
        encoder_channels=(2, 2, 4),
        glu_dilations=(1,),
        glu_bottleneck=2,
        stages=1,
        seed=5,
    )
    base.update(over)
    return ModelConfig(**base)


def blocky_config():
    """Small network on long frames, so that block_frames is 2."""
    return micro_config(frame_len=2048, hop=1024, kernel=11, encoder_channels=(16, 4),
                        glu_bottleneck=4)


def blocky_pair(n_frames, rng):
    n = 2048 + 1024 * (n_frames - 1)
    return SimpleNamespace(noisy=0.1 * rng.standard_normal(n), clean=0.1 * rng.standard_normal(n))


def micro_pairs(n=4, length=256, seed=0):
    rng = np.random.default_rng(seed)
    clips = {f"c{i}": mixer.synth_clean(length / 16000, rng) for i in range(n)}
    manifest = mixer.MixManifest(
        [mixer.MixRecord(f"c{i}", float((i % 16) - 5), "train") for i in range(n)]
    )
    bank = mixer.NoiseBank.from_clips([mixer.synth_noise(4 * length / 16000, rng)])
    loader = lambda path: (clips[path], 16000)
    return list(mixer.build_dataset(manifest, bank, seed=seed, clean_loader=loader,
                                    target_len=length))


def zeroed(params):
    for p in params.values():
        p.tensor.data[:] = 0.0
    return params


def snapshot(params):
    return {n: params[n].data.copy() for n in params}


def assert_same_weights(params, saved):
    for n in params:
        np.testing.assert_array_equal(params[n].data, saved[n])


# ---------------------------------------------------------------------------
# train_epoch


def test_zero_model_zero_targets_gives_zero_loss_and_no_drift():
    cfg = micro_config()
    params = zeroed(build_model(cfg))
    pair = SimpleNamespace(noisy=np.ones(256) * 0.1, clean=np.zeros(256))
    before = snapshot(params)
    loss = train_epoch(params, TrainState(), [pair])
    assert loss == 0.0
    assert_same_weights(params, before)


def test_epoch_loss_curves_are_seed_deterministic():
    cfg = micro_config()
    pairs = micro_pairs()

    def run_fit():
        params = build_model(cfg)
        state = TrainState(rng_state=9)
        _, rows = fit(params, state, pairs, pairs, max_epochs=3)
        return rows, snapshot(params)

    rows_a, w_a = run_fit()
    rows_b, w_b = run_fit()
    assert rows_a == rows_b
    for n in w_a:
        np.testing.assert_array_equal(w_a[n], w_b[n])


def test_shuffle_differs_between_epochs():
    state = TrainState(rng_state=3)
    first = np.random.default_rng((state.rng_state, 0)).permutation(8)
    second = np.random.default_rng((state.rng_state, 1)).permutation(8)
    assert not np.array_equal(first, second)


def test_training_reduces_loss_on_tiny_problem():
    cfg = micro_config()
    params = build_model(cfg)
    state = TrainState(rng_state=1, lr=1e-3)
    pairs = micro_pairs(n=2)
    first = train_epoch(params, state, pairs)
    for _ in range(14):
        state.epoch += 1
        last = train_epoch(params, state, pairs)
    assert last < first


def test_empty_dataset_rejected():
    params = build_model(micro_config())
    with pytest.raises(UsageError):
        train_epoch(params, TrainState(), [])
    with pytest.raises(UsageError):
        validate(params, [])


def test_non_finite_minibatch_loss_stops_before_any_update():
    params = build_model(micro_config())
    before = snapshot(params)
    pair = SimpleNamespace(noisy=np.full(64, np.nan), clean=np.zeros(64))
    with pytest.raises(DegenerateSignalError, match="not finite"):
        train_epoch(params, TrainState(), [pair])
    assert_same_weights(params, before)
    for p in params.values():
        assert p.tensor.grad is None and p.step_count == 0
        assert not p.m.any() and not p.v.any()


def test_non_finite_loss_in_a_later_block_leaves_gradients_weights_and_moments():
    params = build_model(blocky_config())
    before = snapshot(params)
    pair = blocky_pair(4, np.random.default_rng(0))
    pair.noisy[-100:] = np.nan  # only in frame 4, so only in the second block
    with pytest.raises(DegenerateSignalError, match="not finite"):
        train_epoch(params, TrainState(), [pair])
    assert_same_weights(params, before)
    for p in params.values():
        assert p.tensor.grad is None and p.step_count == 0
        assert not p.m.any() and not p.v.any()


def test_blocked_minibatch_gives_the_whole_minibatch_loss_and_gradients(monkeypatch):
    params = build_model(blocky_config())
    assert params.config.block_frames == 2
    rng = np.random.default_rng(1)
    pairs = [blocky_pair(3, rng), blocky_pair(2, rng)]  # 5 frames: blocks of 2, 2 and 1

    def stacked(side):
        return Tensor(np.concatenate([frame_signal(getattr(p, side), 2048, 1024)
                                      for p in pairs]))

    whole = mae_loss(multistage_forward(params, stacked("noisy"))[0], stacked("clean"))
    whole.backward()
    want = {name: p.grad.copy() for name, p in params.items()}
    params.zero_grad()

    got = {}
    monkeypatch.setattr(training, "adam_step", lambda ps, lr: got.update(
        (p.name, p.grad.copy()) for p in ps))
    loss = train_epoch(params, TrainState(), pairs, batch_size=2)
    assert loss == pytest.approx(whole.item(), rel=1e-10)
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-10, err_msg=name)


def test_minibatch_memory_is_bounded_by_one_block(monkeypatch):
    # On one CPU nothing splits or hands off, so no peak depends on when the
    # worker's half of a conv is taken back.
    monkeypatch.setattr(tensor, "_cpus_allowed", lambda: 1)
    params = build_model(blocky_config())

    def peak(n_frames):
        pair = blocky_pair(n_frames, np.random.default_rng(n_frames))
        tracemalloc.start()
        try:
            train_epoch(params, TrainState(), [pair])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.25 * peak(2)


# ---------------------------------------------------------------------------
# validate


def test_validate_is_pure_and_repeatable():
    params = build_model(micro_config())
    pairs = micro_pairs(n=2)
    before = snapshot(params)
    a = validate(params, pairs)
    b = validate(params, pairs)
    assert a == b
    assert_same_weights(params, before)
    assert all(p.tensor.grad is None for p in params.values())


def test_validate_hand_computed_mean():
    # Zero model emits zeros, so each pair's MAE is the mean |clean frame|.
    cfg = micro_config()
    params = zeroed(build_model(cfg))
    pair_a = SimpleNamespace(noisy=np.zeros(64), clean=np.full(64, 0.5))
    pair_b = SimpleNamespace(noisy=np.zeros(64), clean=np.full(64, 0.25))
    got = validate(params, [pair_a, pair_b])
    assert got == pytest.approx((0.5 + 0.25) / 2, abs=1e-15)


def test_validate_zero_on_perfect_targets():
    cfg = micro_config()
    params = zeroed(build_model(cfg))
    pair = SimpleNamespace(noisy=np.ones(128), clean=np.zeros(128))
    assert validate(params, [pair]) == 0.0


def test_validate_rejects_a_non_finite_mean():
    params = build_model(micro_config())
    good = SimpleNamespace(noisy=np.zeros(64), clean=np.zeros(64))
    bad = SimpleNamespace(noisy=np.zeros(64), clean=np.full(64, np.inf))
    with pytest.raises(DegenerateSignalError, match="not finite"):
        validate(params, [good, bad])


# ---------------------------------------------------------------------------
# schedule_update


def drive(losses, **kw):
    state = TrainState()
    actions = [schedule_update(state, v, **kw) for v in losses]
    return state, actions


def test_monotone_decrease_continues():
    state, actions = drive([1.0, 0.9, 0.8])
    assert actions == ["continue"] * 3
    assert state.lr == 2e-4
    assert state.total_increase_events == 0


def test_three_consecutive_increases_halve_exactly():
    state, actions = drive([1.0, 1.1, 1.2, 1.3])
    assert actions == ["continue", "continue", "continue", "halve_lr"]
    assert state.lr == 1e-4  # exactly 0.0002 * 0.5
    assert state.consec_increase == 0
    assert state.total_increase_events == 3


def test_streak_resets_on_any_non_increase():
    state, actions = drive([1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 1.2])
    assert actions[-1] == "halve_lr"
    assert "halve_lr" not in actions[:-1]
    assert state.total_increase_events == 5


def test_non_finite_validation_loss_is_rejected_before_any_update():
    for bad in (np.nan, np.inf):
        state, _ = drive([0.5])
        with pytest.raises(DegenerateSignalError, match="not finite"):
            schedule_update(state, bad)
        assert state.val_history == [0.5] and state.epoch == 1
        assert state.consec_increase == 0 and state.lr == 2e-4


def test_equal_loss_is_not_an_increase():
    state, actions = drive([1.0, 1.0, 1.0, 1.0])
    assert actions == ["continue"] * 4
    assert state.total_increase_events == 0


def test_ten_scattered_increase_events_stop():
    losses = [1.0]
    for _ in range(9):
        losses += [1.1, 1.0]  # each 1.1 is an event, each 1.0 resets the streak
    losses += [1.1]
    state, actions = drive(losses)
    assert actions[-1] == "stop"
    assert "stop" not in actions[:-1]
    assert state.total_increase_events == 10
    assert state.lr == 2e-4  # no streak ever reached three


def test_ten_events_stop_wins_over_halving():
    # Two full streaks halve; the tenth event arrives mid-streak and stops.
    losses = [1.0] + [1.1, 1.2, 1.3, 1.0] * 3 + [1.1]
    state, actions = drive(losses)
    assert actions.count("halve_lr") == 3
    assert actions[-1] == "stop"
    assert state.total_increase_events == 10


def test_epoch_cap_stops_run():
    state = TrainState()
    actions = [schedule_update(state, 1.0 - 0.001 * i, max_epochs=50) for i in range(50)]
    assert actions[-1] == "stop"
    assert "stop" not in actions[:-1]
    assert state.epoch == 50


def test_lr_sequence_never_increases_and_halves_exactly():
    rng = np.random.default_rng(17)
    state = TrainState()
    seen = [state.lr]
    for _ in range(60):
        schedule_update(state, float(rng.uniform(0.5, 1.5)), max_epochs=10_000)
        seen.append(state.lr)
    for a, b in zip(seen, seen[1:]):
        assert b == a or b == a * 0.5
    state.validate_invariants()


def test_best_val_tracks_minimum():
    state, _ = drive([1.0, 0.7, 0.9, 0.65])
    assert state.best_val == 0.65
    state.validate_invariants()


# ---------------------------------------------------------------------------
# checkpoints


def trained_params_state(epochs=2):
    cfg = micro_config()
    params = build_model(cfg)
    state = TrainState(rng_state=21)
    pairs = micro_pairs(n=2)
    fit(params, state, pairs, pairs, max_epochs=epochs)
    return params, state, pairs


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    params, state, _ = trained_params_state()
    path = tmp_path / "run.ckpt"
    checkpoint_save(params, state, path)
    loaded_params, loaded_state = checkpoint_load(path)
    assert loaded_state == state
    for name in params:
        np.testing.assert_array_equal(loaded_params[name].data, params[name].data)
        np.testing.assert_array_equal(loaded_params[name].m, params[name].m)
        np.testing.assert_array_equal(loaded_params[name].v, params[name].v)
        assert loaded_params[name].step_count == params[name].step_count
    resaved = tmp_path / "again.ckpt"
    checkpoint_save(loaded_params, loaded_state, resaved)
    assert path.read_bytes() == resaved.read_bytes()


def test_full_size_save_streams_its_payload(tmp_path):
    params = build_model(ModelConfig())  # 1,017,345 parameters: a 23.3 MiB payload
    path = tmp_path / "full.ckpt"
    tracemalloc.start()
    try:
        checkpoint_save(params, TrainState(), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert path.stat().st_size > 24 * 1_017_345


def test_identical_seeds_give_identical_checkpoint_bytes(tmp_path):
    for tag in ("a", "b"):
        params = build_model(micro_config())
        state = TrainState(rng_state=21)
        fit(params, state, micro_pairs(n=2), micro_pairs(n=2), max_epochs=2)
        checkpoint_save(params, state, tmp_path / f"{tag}.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_fresh_model_checkpoint_roundtrip(tmp_path):
    params = build_model(micro_config())
    state = TrainState()
    path = tmp_path / "fresh.ckpt"
    checkpoint_save(params, state, path)
    loaded, loaded_state = checkpoint_load(path)
    assert loaded_state.best_val == state.best_val  # infinity survives
    np.testing.assert_array_equal(loaded["conv1d_1.weight"].data, params["conv1d_1.weight"].data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        checkpoint_load(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    params, state, _ = trained_params_state(epochs=1)
    path = tmp_path / "v.ckpt"
    checkpoint_save(params, state, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        checkpoint_load(path)


def test_checkpoint_rejects_a_non_positive_sample_rate(tmp_path):
    params, state, _ = trained_params_state(epochs=1)
    state.sample_rate = 0
    path = tmp_path / "rate.ckpt"
    checkpoint_save(params, state, path)
    with pytest.raises(FormatError, match="sample_rate"):
        checkpoint_load(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params, state, _ = trained_params_state(epochs=1)
    path = tmp_path / "t.ckpt"
    checkpoint_save(params, state, path)
    raw = path.read_bytes()
    for cut in (8, len(raw) // 2, len(raw) - 17):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            checkpoint_load(path)


def rewrite_container(path, edit_header, tail=0):
    """Rewrite a checkpoint's JSON header with ``edit_header``; a positive
    ``tail`` appends that many zero bytes, a negative one cuts them."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    edit_header(header)
    blob = json.dumps(header).encode()
    payload = raw[16 + header_len :]
    payload = payload + bytes(tail) if tail >= 0 else payload[:tail]
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + payload)


@pytest.mark.parametrize("edit_header, tail, message", [
    (lambda h: None, 8, "header promises"),
    (lambda h: h.update(payload_bytes=h["payload_bytes"] + 8), 8, "trailing payload bytes"),
    (lambda h: h.update(payload_bytes=h["payload_bytes"] - 8), -8, "truncated payload at"),
    (lambda h: h["params"][0].update(name="nope"), 0, "does not match the config's layout"),
    (lambda h: h["params"][0].update(shape=[1, 1, 1]), 0, "stored as"),
], ids=["payload-length", "trailing", "truncated-entry", "index-name", "index-shape"])
def test_checkpoint_rejects_a_payload_that_does_not_match_its_index(tmp_path, edit_header,
                                                                    tail, message):
    path = tmp_path / "bad.ckpt"
    checkpoint_save(build_model(micro_config()), TrainState(), path)
    rewrite_container(path, edit_header, tail)
    with pytest.raises(FormatError, match=message):
        checkpoint_load(path)


@pytest.mark.parametrize("edit_header", [
    lambda h: h["params"][0].pop("step_count"),
    lambda h: h["params"][0].pop("shape"),
    lambda h: h["params"][0].update(step_count="x"),
    lambda h: h["params"].__setitem__(0, list(h["params"][0].values())),
    lambda h: h.update(params=5),
    lambda h: h["params"][0].update(step_count=-1),
    # Each of these was coerced into a valid header.
    lambda h: h["params"][0]["shape"].__setitem__(0, h["params"][0]["shape"][0] + 0.7),
    lambda h: h["params"][1]["shape"].__setitem__(0, True),
    lambda h: h.update(payload_bytes=str(h["payload_bytes"])),
    lambda h: h.update(payload_bytes=h["payload_bytes"] + 0.5),
], ids=["no-step-count", "no-shape", "step-count-text", "entry-a-list", "params-a-number",
        "negative-step-count", "float-shape", "bool-shape", "text-payload-bytes",
        "float-payload-bytes"])
def test_checkpoint_rejects_a_malformed_index_entry(tmp_path, edit_header):
    path = tmp_path / "bad.ckpt"
    checkpoint_save(build_model(micro_config()), TrainState(), path)
    rewrite_container(path, edit_header)
    with pytest.raises(FormatError, match="malformed header"):
        checkpoint_load(path)


def config_lines(settings):
    """``key = value`` lines of a --config file holding ``settings``."""
    text = {k: ",".join(map(str, v)) if isinstance(v, (list, tuple)) else v for k, v in settings.items()}
    return "".join(f"{key} = {value}\n" for key, value in text.items())


@needs_limit
@pytest.mark.parametrize("key, value, header_error, file_code", [
    ("kernel", 2**31 - 1, "exceed the bound", 2),
    ("kernel", 9, "stored as", 0),
    ("frame_len", 2**40, "exceed the bound", 2),
    ("glu_dilations", [2**62, 2], "exceed the bound", 2),
    ("glu_dilations", [1] * 10**6, "exceed the bound", 2),
], ids=["huge", "three-times", "frame-len", "dilations", "many-blocks"])
def test_enhance_rejects_a_header_kernel_before_it_allocates(tmp_path, key, value, header_error,
                                                            file_code):
    """A header config whose sizes the index does not hold, or whose largest
    per-frame array is over the bound, exits 5 in a child limited to 1 GiB of
    address space; the same setting in a --config file exits 2 where it is
    over the bound. Unchecked, the huge kernel's model asked for 64 GiB, the
    frame_len for 8 TiB, the dilation overran numpy's dimension limit, and a
    million gated blocks ran out of memory building the layer table."""
    path = tmp_path / "bad.ckpt"
    checkpoint_save(build_model(micro_config()), TrainState(), path)
    rewrite_container(path, lambda h: h["config"].update({key: value}))
    write_wav(tmp_path / "in.wav", np.full(200, 0.1))
    run = run_under_limit(["-m", "ftnet.cli", "enhance", "--checkpoint", str(path),
                           "--in", str(tmp_path / "in.wav"), "--out", str(tmp_path / "out.wav")])
    assert run.returncode == 5, run.stderr
    assert "error:" in run.stderr and header_error in run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "out.wav").exists()
    config = tmp_path / "sizes.cfg"
    config.write_text(config_lines({**micro_config().to_dict(), key: value}))
    run = run_under_limit(["-m", "ftnet.cli", "analyze", "--config", str(config)])
    assert run.returncode == file_code, run.stderr
    assert "Traceback" not in run.stderr
    if file_code:
        assert "error:" in run.stderr and "exceed the bound" in run.stderr


# Shared by the checkpoint probes: the first argument's header and payload,
# the values an edit may set (other JSON types, extremes, or GONE for the key
# removed), and ``container``, which writes an edited header back over the payload.
CHECKPOINT_EDITS = """
raw = ARGS[0].read_bytes()
(header_len,) = struct.unpack("<Q", raw[8:16])
header, payload = json.loads(raw[16 : 16 + header_len]), raw[16 + header_len :]
GONE = "<removed>"
EXTREMES = [0, -1, 2**31 - 1, 2**62]
values = st.one_of(
    st.sampled_from(EXTREMES), st.just(GONE), st.lists(st.sampled_from(EXTREMES + [2]), max_size=3),
    st.booleans(), st.none(), st.floats(), st.text("ab1.,#= -", max_size=4),
    st.dictionaries(st.text("ab", max_size=1), st.sampled_from(EXTREMES), max_size=1),
)

def container(edited):
    blob = json.dumps(edited).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + payload
"""

MUTATION_PROBE = CHECKPOINT_EDITS + """
ckpt, config, wav, work = ARGS
lines = dict(line.split(" = ") for line in config.read_text().splitlines())

def as_text(value):
    if isinstance(value, list):
        return ",".join(map(str, value))
    return "" if value is None else str(value).lower() if isinstance(value, bool) else str(value)

@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(header_edits=st.dictionaries(st.sampled_from(sorted(header["config"])), values,
                                    min_size=1, max_size=3),
       line_edits=st.dictionaries(st.sampled_from(sorted(lines)), values, min_size=1, max_size=3))
def mutated_inputs_exit_with_a_code(header_edits, line_edits):
    edited = {**header, "config": {k: v for k, v in {**header["config"], **header_edits}.items()
                                   if v != GONE}}
    (work / "m.ckpt").write_bytes(container(edited))
    run(["enhance", "--checkpoint", str(work / "m.ckpt"), "--in", str(wav),
         "--out", str(work / "out.wav")])
    text = {k: as_text(v) for k, v in {**lines, **line_edits}.items() if v != GONE}
    (work / "m.cfg").write_text("".join(f"{k} = {v}\\n" for k, v in text.items()))
    run(["analyze", "--config", str(work / "m.cfg")])

mutated_inputs_exit_with_a_code()
"""


@needs_limit
def test_mutated_header_configs_and_config_files_exit_with_their_codes(tmp_path):
    """Hypothesis edits up to three checkpoint header config values, and up to
    three lines of a --config file, to other JSON types, 0, -1, 2^31-1, 2^62
    or nothing (the key removed). ``enhance`` and ``analyze`` must then exit 0
    or 2-7 with ``error:`` and no traceback. Every case runs in one child
    limited to 1 GiB of address space, so a missed size check fails the test."""
    checkpoint_save(build_model(micro_config()), TrainState(sample_rate=16000), tmp_path / "c.ckpt")
    (tmp_path / "c.cfg").write_text(config_lines({**micro_config().to_dict(), **TRAIN_DEFAULTS}))
    write_wav(tmp_path / "in.wav", np.full(200, 0.1))
    run_probe(MUTATION_PROBE, tmp_path / "c.ckpt", tmp_path / "c.cfg", tmp_path / "in.wav", tmp_path)


STATE_AND_INDEX_PROBE = CHECKPOINT_EDITS + """
ckpt, log, manifest, noise, config, wav, work = ARGS
log_text = log.read_text()
entries = st.integers(0, len(header["params"]) - 1)
# Where an edit lands: a train_state value, an index entry's name, step_count
# or shape entry, or payload_bytes.
places = st.one_of(
    st.sampled_from(sorted(header["train_state"])).map(lambda key: ("train_state", key)),
    st.tuples(st.just("params"), entries, st.sampled_from(["name", "step_count"])),
    st.tuples(st.just("params"), entries, st.just("shape"), st.integers(0, 2)),
    st.just(("payload_bytes",)),
)

def edit(tree, place, value):
    *path, last = place
    for key in path:
        tree = tree[key]
    if isinstance(tree, list) and last >= len(tree):  # an earlier edit removed it
        return
    if value != GONE:
        tree[last] = value
    elif isinstance(tree, dict):
        tree.pop(last, None)
    else:
        del tree[last]

@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(st.tuples(places, values), min_size=1, max_size=3))
@example(edits=[(("train_state", "lr"), 2**62), (("train_state", "rng_state"), 2**62)])
@example(edits=[(("params", 0, "step_count"), 2**62)])
def mutated_checkpoints_exit_with_a_code(edits):
    edited = json.loads(json.dumps(header))
    for place, value in edits:
        edit(edited, place, value)
    (work / "m.ckpt").write_bytes(container(edited))
    run(["enhance", "--checkpoint", str(work / "m.ckpt"), "--in", str(wav),
         "--out", str(work / "out.wav")])
    (work / "m.csv").write_text(log_text)
    run(["train", "--resume", "--out", str(work / "m.ckpt"), "--log", str(work / "m.csv"),
         "--manifest", str(manifest), "--noise-dir", str(noise), "--config", str(config),
         "--max-epochs", "2"])

mutated_checkpoints_exit_with_a_code()
"""


@needs_limit
def test_mutated_train_states_and_parameter_indexes_exit_with_their_codes(tmp_path, capsys):
    """Hypothesis edits up to three places of a one-epoch checkpoint's header:
    train_state values, index entries (name, shape entries, step_count) and
    payload_bytes, to the values above. ``enhance`` and ``train --resume``
    must then exit 0 or 2-7 with ``error:`` and no traceback, every case in
    one child limited to 1 GiB of address space."""
    manifest, config = tmp_path / "manifest.tsv", tmp_path / "c.cfg"
    assert cli.main(["synth", "--out-dir", str(tmp_path / "corpus"), "--n-clean", "2",
                     "--n-noise", "1", "--clean-seconds", "0.01", "--noise-seconds", "0.05",
                     "--emit-manifest", str(manifest)]) == 0
    config.write_text(config_lines({**micro_config().to_dict(), **TRAIN_DEFAULTS,
                                    "target_seconds": 0.004}))
    assert cli.main(["train", "--manifest", str(manifest), "--noise-dir", str(tmp_path / "corpus" / "noise"),
                     "--config", str(config), "--out", str(tmp_path / "c.ckpt"),
                     "--log", str(tmp_path / "c.csv"), "--max-epochs", "1"]) == 0
    capsys.readouterr()
    write_wav(tmp_path / "in.wav", np.full(200, 0.1))
    run_probe(STATE_AND_INDEX_PROBE, tmp_path / "c.ckpt", tmp_path / "c.csv", manifest,
              tmp_path / "corpus" / "noise", config, tmp_path / "in.wav", tmp_path)


@pytest.mark.parametrize("epoch", [-1, 0, 2], ids=["negative", "behind", "ahead"])
def test_checkpoint_rejects_an_epoch_that_does_not_count_the_validated_ones(tmp_path, epoch):
    params, state, _ = trained_params_state(epochs=1)
    path = tmp_path / "bad.ckpt"
    checkpoint_save(params, state, path)
    rewrite_container(path, lambda h: h["train_state"].update(epoch=epoch))
    with pytest.raises(FormatError, match=f"epoch {epoch} but 1 validation losses"):
        checkpoint_load(path)


@pytest.mark.parametrize("edit, named", [
    ({"consec_increase": -1}, r"consec_increase -1 \(val_history implies 0\)"),
    ({"consec_increase": -3, "total_increase_events": -1},
     r"total_increase_events -1 \(val_history implies 0\)"),
    ({"rng_state": -1}, "rng_state must be >= 0"),
    ({"lr": math.nan}, "lr must stay positive and finite"),
    ({"lr": math.inf}, "lr must stay positive and finite"),
    ({"epoch": 2, "val_history": [1.0, math.nan], "best_val": 1.0}, "must hold finite losses"),
    ({"val_history": [math.inf], "best_val": None}, "must hold finite losses"),
    # Each of these was coerced into a valid state.
    ({"epoch": 1.5}, "epoch 1.5 is not of type int"),
    ({"epoch": True}, "epoch True is not of type int"),
    ({"rng_state": 21.9}, "rng_state 21.9 is not of type int"),
    ({"sample_rate": 16000.7}, "sample_rate 16000.7 is not of type int or NoneType"),
    ({"lr": "1e-4"}, "lr '1e-4' is not of type int or float"),
    ({"lr": True}, "lr True is not of type int or float"),
    ({"lr": 10**400}, "int too large to convert to float"),
    ({"val_history": "0.5", "best_val": 0.5}, "val_history '0.5' is not a list of numbers"),
    ({"val_history": ["0.5"], "best_val": 0.5}, r"val_history \['0.5'\] is not a list of numbers"),
], ids=["negative-streak", "negative-events", "negative-rng-state", "nan-lr", "infinite-lr",
        "nan-loss", "infinite-loss", "float-epoch", "bool-epoch", "float-rng-state",
        "float-sample-rate", "text-lr", "bool-lr", "huge-int-lr", "text-history", "text-loss"])
def test_checkpoint_rejects_negative_counts_and_a_non_finite_lr(tmp_path, edit, named):
    params, state, _ = trained_params_state(epochs=1)
    path = tmp_path / "bad.ckpt"
    checkpoint_save(params, state, path)
    rewrite_container(path, lambda h: h["train_state"].update(edit))
    with pytest.raises(FormatError, match=named):
        checkpoint_load(path)


def replay_with_counters(losses, max_epochs):
    """The schedule with its streak, event count and best loss kept as
    counters beside the history: (action, lr, streak, events, best) after
    each loss."""
    lr, streak, events, best, previous = training.LR, 0, 0, math.inf, None
    steps = []
    for epoch, loss in enumerate(losses, 1):
        if previous is not None and loss > previous:
            streak, events = streak + 1, events + 1
        else:
            streak = 0
        best, previous = min(best, loss), loss
        action = "continue"
        if streak >= training.HALVE_AFTER:
            lr, streak, action = lr * 0.5, 0, "halve_lr"
        if events >= training.STOP_AFTER or epoch >= max_epochs:
            action = "stop"
        steps.append((action, lr, streak, events, best))
    return steps


@st.composite
def loss_walks(draw):
    """1-60 finite losses walking up, level or down by drawn steps, so that
    runs of increases, ties and drops all occur."""
    start, size = draw(st.floats(0.01, 10.0)), draw(st.floats(1e-4, 1.0))
    n = draw(st.integers(0, 59))
    steps = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    return [start + size * k for k in itertools.accumulate(steps, initial=0)]


@settings(max_examples=20)
@given(losses=loss_walks(), max_epochs=st.integers(1, 70))
def test_derived_counts_match_a_replay_with_counters_and_every_state_roundtrips(
        tmp_path_factory, losses, max_epochs):
    params = build_model(micro_config())
    path = tmp_path_factory.mktemp("schedule") / "run.ckpt"
    state = TrainState()
    for loss, want in zip(losses, replay_with_counters(losses, max_epochs)):
        action = schedule_update(state, loss, max_epochs=max_epochs)
        got = (action, state.lr, state.consec_increase, state.total_increase_events, state.best_val)
        assert got == want
        checkpoint_save(params, state, path)
        saved = path.read_bytes()
        loaded_params, loaded_state = checkpoint_load(path)
        assert loaded_state == state
        checkpoint_save(loaded_params, loaded_state, path)
        assert path.read_bytes() == saved
        for key, value in [("consec_increase", state.consec_increase + 1),
                           ("total_increase_events", state.total_increase_events + 1),
                           ("best_val", math.nextafter(state.best_val, math.inf))]:
            path.write_bytes(saved)
            rewrite_container(path, lambda h: h["train_state"].update({key: value}))
            with pytest.raises(FormatError, match=key):
                checkpoint_load(path)


def test_checkpoint_load_holds_little_more_than_the_file_and_the_model(tmp_path):
    # The file's bytes plus the model they fill: about twice the file size.
    # A second copy of the payload would push the peak past three times it.
    config = ModelConfig(frame_len=512, encoder_channels=(8, 8, 16, 32), glu_bottleneck=32)
    path = tmp_path / "mid.ckpt"
    checkpoint_save(build_model(config), TrainState(), path)
    tracemalloc.start()
    try:
        checkpoint_load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * path.stat().st_size


def test_loading_a_checkpoint_or_analyzing_a_config_draws_nothing(tmp_path, monkeypatch):
    # checkpoint_load passes the file's values through build_model, and
    # analyze_structure reads only the layer table: neither draws a random
    # value to throw away. The spy must see build_model's own draw.
    config = micro_config(seed=7)
    path = tmp_path / "c.ckpt"
    checkpoint_save(build_model(config), TrainState(), path)
    real, seeds = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: seeds.append(args) or real(*args))
    checkpoint_load(path)
    analyze_structure(ModelConfig())
    assert seeds == []
    build_model(config)
    assert seeds == [(7,)]


class DiskFullAfter:
    """File wrapper whose writes fail with ENOSPC once ``budget`` bytes are written."""

    def __init__(self, fh, budget):
        self.fh = fh
        self.budget = budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


def test_failed_save_leaves_the_previous_checkpoint_intact(tmp_path, monkeypatch):
    params, state, pairs = trained_params_state(epochs=1)
    path = tmp_path / "run.ckpt"
    checkpoint_save(params, state, path)
    previous = path.read_bytes()
    fit(params, state, pairs, pairs, max_epochs=2)
    monkeypatch.setattr(
        checkpoint, "open",
        lambda file, mode: DiskFullAfter(open(file, mode), len(previous) // 2),
        raising=False,
    )
    with pytest.raises(OSError, match="No space"):
        checkpoint_save(params, state, path)
    assert path.read_bytes() == previous
    assert sorted(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# resume


def test_resume_reproduces_uninterrupted_trajectory(tmp_path):
    cfg = micro_config()
    pairs = micro_pairs(n=4)

    params_a = build_model(cfg)
    state_a = TrainState(rng_state=33)
    _, rows_a = fit(params_a, state_a, pairs, pairs, max_epochs=6)

    ckpt = tmp_path / "mid.ckpt"
    params_b = build_model(cfg)
    state_b = TrainState(rng_state=33)
    _, rows_b1 = fit(
        params_b, state_b, pairs, pairs, max_epochs=3,
        log_fn=lambda row: checkpoint_save(params_b, state_b, ckpt),
    )
    resumed_params, resumed_state = checkpoint_load(ckpt)
    _, rows_b2 = fit(resumed_params, resumed_state, pairs, pairs, max_epochs=6)

    stitched = rows_b1 + rows_b2
    assert len(stitched) == len(rows_a)
    # Losses, lr, and epoch numbering must agree everywhere. The action at
    # the interruption epoch legitimately reads "stop" in the short leg
    # (its cap fired), so actions are compared on the resumed leg only.
    for got, want in zip(stitched, rows_a):
        assert got[:4] == want[:4]
    assert [r.action for r in rows_b2] == [r.action for r in rows_a[3:]]
    for name in params_a:
        np.testing.assert_array_equal(resumed_params[name].data, params_a[name].data)


def test_fit_runs_no_epoch_for_a_state_the_schedule_stopped():
    params = build_model(micro_config())
    before = snapshot(params)
    history = [1.0, 2.0] * training.STOP_AFTER  # every 2.0 is an increase, none in a row
    state = TrainState(epoch=len(history), val_history=history)
    assert state.total_increase_events == training.STOP_AFTER
    _, rows = fit(params, state, micro_pairs(n=2), micro_pairs(n=2), max_epochs=len(history) + 6)
    assert rows == [] and state.epoch == len(history)
    assert_same_weights(params, before)


def test_log_row_format_is_machine_parsable():
    row = training.EpochLog(3, 0.125, 0.25, 2e-4, "continue")
    assert training.format_log_row(row) == "3,0.125,0.25,0.0002,continue"
    assert training.LOG_HEADER.split(",") == ["epoch", "train_mae", "val_mae", "lr", "action"]
