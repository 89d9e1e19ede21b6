"""End-to-end command tests driven through cli.main."""

import json
import pathlib
import re
import shutil
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnet import cli
from ftnet import tensor as T
from ftnet.audio import OverlapAdd, frame_signal, read_wav, write_wav
from ftnet.checkpoint import checkpoint_load, checkpoint_save
from ftnet.mixer import MixManifest
from ftnet.model import ModelConfig, build_model, forward_blocks, multistage_forward
from ftnet.training import TrainState
from limited_run import needs_limit, run_under_limit

MICRO_CONFIG = """\
# desk-scale network
frame_len = 64
hop = 32
kernel = 3
encoder_channels = 2,2,4
glu_dilations = 1,2
glu_bottleneck = 2
stages = 2
seed = 3

# training
lr = 0.001
max_epochs = 2
target_seconds = 0.1
"""


@pytest.fixture()
def corpus(tmp_path):
    """Synth corpus + manifest + micro config file, built once per test."""
    out = tmp_path / "corpus"
    manifest = tmp_path / "manifest.tsv"
    code = cli.main([
        "synth", "--out-dir", str(out), "--n-clean", "6", "--n-noise", "2",
        "--clean-seconds", "0.3", "--noise-seconds", "1.0", "--seed", "5",
        "--emit-manifest", str(manifest),
    ])
    assert code == 0
    config = tmp_path / "micro.cfg"
    config.write_text(MICRO_CONFIG)
    return tmp_path


def test_synth_writes_corpus_and_manifest(corpus, capsys):
    capsys.readouterr()
    clean = sorted((corpus / "corpus" / "clean").glob("*.wav"))
    noise = sorted((corpus / "corpus" / "noise").glob("*.wav"))
    assert len(clean) == 6 and len(noise) == 2
    manifest = MixManifest.load(corpus / "manifest.tsv")
    assert len(manifest) == 6
    assert {r.split for r in manifest} == {"train", "val"}


def test_mix_writes_pairs_and_resolved_manifest(corpus, capsys):
    out = corpus / "pairs"
    code = cli.main([
        "mix", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"),
        "--out-dir", str(out), "--seed", "7", "--target-seconds", "0.1",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "config:command=mix" in stdout
    assert "config:seed=7" in stdout
    noisy = sorted(out.glob("pair_*_noisy.wav"))
    clean = sorted(out.glob("pair_*_clean.wav"))
    assert len(noisy) == len(clean) == 6
    resolved = MixManifest.load(out / "manifest.resolved.tsv")
    assert all(r.cut_point is not None for r in resolved)


def test_mix_sizes_utterances_from_the_corpus_rate(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    assert cli.main([
        "synth", "--out-dir", str(tmp_path / "corpus"), "--n-clean", "2", "--n-noise", "1",
        "--clean-seconds", "0.3", "--noise-seconds", "10.0", "--sample-rate", "8000",
        "--emit-manifest", str(manifest),
    ]) == 0
    out = tmp_path / "pairs"
    assert cli.main(["mix", "--manifest", str(manifest),
                     "--noise-dir", str(tmp_path / "corpus" / "noise"),
                     "--out-dir", str(out)]) == 0
    capsys.readouterr()
    for path in sorted(out.glob("pair_*.wav")):
        clip, rate = read_wav(path)
        assert rate == 8000
        assert clip.size == int(cli.TRAIN_DEFAULTS["target_seconds"] * 8000)


def test_synth_manifest_outside_the_corpus_resolves_every_clip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main([
        "synth", "--out-dir", "c", "--n-clean", "3", "--n-noise", "1",
        "--clean-seconds", "0.2", "--noise-seconds", "1.0", "--emit-manifest", "nodir/m.tsv",
    ]) == 0
    paths = [line.split("\t")[0] for line in (tmp_path / "nodir" / "m.tsv").read_text().splitlines()]
    assert paths == [f"../c/clean/clean_{i:03d}.wav" for i in range(3)]
    assert cli.main(["mix", "--manifest", "nodir/m.tsv", "--noise-dir", "c/noise",
                     "--out-dir", "pairs", "--target-seconds", "0.1"]) == 0
    capsys.readouterr()
    assert len(list((tmp_path / "pairs").glob("pair_*_clean.wav"))) == 3


def test_a_flag_beats_the_config_file_for_model_and_training_keys(corpus, capsys):
    argv = ["mix", "--manifest", str(corpus / "manifest.tsv"),
            "--noise-dir", str(corpus / "corpus" / "noise"), "--config", str(corpus / "micro.cfg")]
    assert cli.main(argv + ["--out-dir", str(corpus / "from_file")]) == 0
    from_file = capsys.readouterr().out.splitlines()
    assert {"config:seed=3", "config:target_seconds=0.1"} <= set(from_file)
    assert cli.main(argv + ["--out-dir", str(corpus / "from_flags"),
                            "--seed", "9", "--target-seconds", "0.2"]) == 0
    from_flags = capsys.readouterr().out.splitlines()
    assert {"config:seed=9", "config:target_seconds=0.2"} <= set(from_flags)


def test_mix_writes_an_absolute_clean_path_relative_to_the_resolved_manifest(corpus, capsys):
    clean = (corpus / "corpus" / "clean" / "clean_000.wav").resolve()
    manifest = corpus / "lists" / "absolute.tsv"
    manifest.parent.mkdir()
    manifest.write_text(f"{clean}\t0\ttrain\n")
    out = corpus / "pairs"
    assert cli.main(["mix", "--manifest", str(manifest), "--noise-dir", str(corpus / "corpus" / "noise"),
                     "--out-dir", str(out), "--target-seconds", "0.1"]) == 0
    capsys.readouterr()
    resolved = out / "manifest.resolved.tsv"
    assert resolved.read_text().startswith("../corpus/clean/clean_000.wav\t0\ttrain\t")
    (record,) = MixManifest.load(resolved)
    assert pathlib.Path(record.clean_path).resolve() == clean


def test_the_walkthrough_remixes_and_trains_from_the_resolved_manifest(corpus, capsys, monkeypatch):
    """synth, then mix with relative paths as the README does; the resolved
    manifest then serves mix and train from this directory and from another."""
    monkeypatch.chdir(corpus)
    noise = ["--noise-dir", "corpus/noise", "--target-seconds", "0.1"]
    assert cli.main(["mix", "--manifest", "manifest.tsv", *noise, "--out-dir", "pairs", "--seed", "7"]) == 0
    assert cli.main(["mix", "--manifest", "pairs/manifest.resolved.tsv", *noise, "--out-dir", "again"]) == 0
    (corpus / "elsewhere").mkdir()
    monkeypatch.chdir(corpus / "elsewhere")
    assert cli.main(["mix", "--manifest", "../pairs/manifest.resolved.tsv", "--noise-dir", "../corpus/noise",
                     "--target-seconds", "0.1", "--out-dir", "from_elsewhere"]) == 0
    assert cli.main(["train", "--manifest", "../pairs/manifest.resolved.tsv", "--noise-dir", "../corpus/noise",
                     "--config", "../micro.cfg", "--out", "run.ckpt", "--max-epochs", "1"]) == 0
    capsys.readouterr()
    pairs = sorted(p.name for p in (corpus / "pairs").glob("pair_*.wav"))
    assert len(pairs) == 12
    for copy in (corpus / "again", corpus / "elsewhere" / "from_elsewhere"):
        assert sorted(p.name for p in copy.glob("pair_*.wav")) == pairs
        for name in pairs:
            assert (copy / name).read_bytes() == (corpus / "pairs" / name).read_bytes()


def test_sample_rate_is_not_a_setting(corpus, capsys):
    # The rate comes from the corpus; asking for another one fails loudly.
    base = ["--manifest", str(corpus / "manifest.tsv"),
            "--noise-dir", str(corpus / "corpus" / "noise")]
    for command, dest in (("mix", "--out-dir"), ("train", "--out")):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *base, dest, str(corpus / "x"), "--sample-rate", "8000"])
        assert exc.value.code == 2
    cfg = corpus / "rate.cfg"
    cfg.write_text("sample_rate = 8000\n")
    assert cli.main(["mix", *base, "--out-dir", str(corpus / "x"),
                     "--config", str(cfg)]) == 2
    assert "unknown setting 'sample_rate'" in capsys.readouterr().err
    assert not (corpus / "x").exists()


def test_mix_is_reproducible_bitwise(corpus, capsys):
    outs = []
    for tag in ("a", "b"):
        out = corpus / f"pairs_{tag}"
        assert cli.main([
            "mix", "--manifest", str(corpus / "manifest.tsv"),
            "--noise-dir", str(corpus / "corpus" / "noise"),
            "--out-dir", str(out), "--seed", "7", "--target-seconds", "0.1",
        ]) == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("pair_0000_noisy.wav", "pair_0003_clean.wav", "manifest.resolved.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_mix_pairs_hit_target_snr_after_quantization(corpus, capsys):
    out = corpus / "snr_pairs"
    assert cli.main([
        "mix", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"),
        "--out-dir", str(out), "--seed", "2", "--target-seconds", "0.1",
    ]) == 0
    capsys.readouterr()
    resolved = MixManifest.load(out / "manifest.resolved.tsv")
    from ftnet.mixer import measure_snr

    for i, record in enumerate(resolved):
        clean, _ = read_wav(out / f"pair_{i:04d}_clean.wav")
        noisy, _ = read_wav(out / f"pair_{i:04d}_noisy.wav")
        assert abs(measure_snr(clean, noisy) - record.snr_db) <= 0.1


def train(corpus, *extra):
    return cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"),
        "--out", str(corpus / "run.ckpt"), "--log", str(corpus / "run.csv"),
        "--config", str(corpus / "micro.cfg"), *extra,
    ])


def run_training(corpus, capsys, extra=()):
    assert train(corpus, *extra) == 0
    return corpus / "run.ckpt", corpus / "run.csv", capsys.readouterr().out


def test_train_writes_checkpoint_and_log(corpus, capsys):
    ckpt, log, stdout = run_training(corpus, capsys)
    assert ckpt.exists()
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mae,val_mae,lr,action"
    assert len(lines) == 1 + 2  # header + max_epochs rows
    assert "config:command=train" in stdout
    assert "config:frame_len=64" in stdout
    first = lines[1].split(",")
    assert first[0] == "1"  # rows are numbered by completed epoch
    assert float(first[3]) == 0.001  # lr from the config file


class Killed(BaseException):
    """Stands in for the process being killed: nothing in main() catches it."""


@pytest.mark.parametrize("logged_past_checkpoint", [False, True],
                         ids=["killed-after-save", "killed-before-save"])
def test_train_resume_continues_a_killed_run_bit_for_bit(corpus, capsys, monkeypatch,
                                                         logged_past_checkpoint):
    epochs = ["--max-epochs", "4"]
    ckpt, log, _ = run_training(corpus, capsys, epochs)
    whole = ckpt.read_bytes(), log.read_text()
    ckpt.unlink()
    log.unlink()

    # Killed once epoch 2's checkpoint is on disk, or while epoch 3's is being
    # saved, after its log row was written.
    save = cli.checkpoint_save

    def save_then_die(params, state, path):
        if state.epoch == 3:
            raise Killed
        save(params, state, path)
        if state.epoch == 2 and not logged_past_checkpoint:
            raise Killed

    monkeypatch.setattr(cli, "checkpoint_save", save_then_die)
    with pytest.raises(Killed):
        run_training(corpus, capsys, epochs)
    assert len(log.read_text().splitlines()) == 1 + 2 + logged_past_checkpoint
    monkeypatch.setattr(cli, "checkpoint_save", save)

    _, _, stdout = run_training(corpus, capsys, [*epochs, "--resume"])
    assert "config:resume=true" in stdout
    assert (ckpt.read_bytes(), log.read_text()) == whole


def test_train_resume_of_a_finished_run_trains_nothing(corpus, capsys):
    ckpt, log, stdout = run_training(corpus, capsys)
    assert f"checkpoint written to {ckpt}" in stdout.splitlines()
    finished = ckpt.read_bytes(), log.read_text()
    _, _, stdout = run_training(corpus, capsys, ["--resume"])
    assert (ckpt.read_bytes(), log.read_text()) == finished
    assert "checkpoint written" not in stdout
    assert f"{ckpt} had already stopped; left unchanged" in stdout.splitlines()


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_train_resume_without_a_readable_checkpoint_exits_format_code(corpus, capsys, damage):
    if damage == "corrupt":
        (corpus / "run.ckpt").write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert train(corpus, "--resume") == 5
    assert "run.ckpt" in capsys.readouterr().err
    assert not (corpus / "run.csv").exists()


def test_train_resume_with_other_model_settings_exits_config_code(corpus, capsys):
    ckpt, log, _ = run_training(corpus, capsys)
    finished = ckpt.read_bytes(), log.read_text()
    assert train(corpus, "--resume", "--stages", "3") == 2
    assert "stages" in capsys.readouterr().err
    assert (ckpt.read_bytes(), log.read_text()) == finished


def test_train_resume_on_a_corpus_at_another_rate_exits_format_code(corpus, capsys):
    ckpt, log, _ = run_training(corpus, capsys)
    assert cli.main([
        "synth", "--out-dir", str(corpus / "slow"), "--n-clean", "2", "--n-noise", "1",
        "--clean-seconds", "0.3", "--noise-seconds", "1.0", "--sample-rate", "8000",
        "--emit-manifest", str(corpus / "slow.tsv"),
    ]) == 0
    code = cli.main([
        "train", "--manifest", str(corpus / "slow.tsv"),
        "--noise-dir", str(corpus / "slow" / "noise"), "--out", str(ckpt), "--log", str(log),
        "--config", str(corpus / "micro.cfg"), "--max-epochs", "3", "--resume",
    ])
    assert code == 5
    assert "16000 Hz" in capsys.readouterr().err


def test_train_resume_rejects_a_log_that_lacks_the_checkpoint_epochs(corpus, capsys):
    ckpt, log, _ = run_training(corpus, capsys, ["--max-epochs", "1"])
    log.write_text("epoch,train_mae,val_mae,lr,action\n")
    assert train(corpus, "--resume", "--max-epochs", "2") == 5
    assert "run.csv" in capsys.readouterr().err


def test_train_resume_from_a_checkpoint_with_a_negative_epoch_exits_format_code(corpus, capsys):
    ckpt, log, _ = run_training(corpus, capsys)
    rewrite_header(ckpt, ckpt, lambda h: h["train_state"].update(epoch=-1))
    logged = log.read_text()
    assert train(corpus, "--resume") == 5
    assert "run.ckpt" in capsys.readouterr().err
    assert log.read_text() == logged


@pytest.mark.parametrize("edit", [
    {"consec_increase": -1},
    {"consec_increase": -3, "total_increase_events": -1},
    {"rng_state": -1},
    {"lr": float("nan")},
    {"lr": float("inf")},
    {"val_history": [1.0, float("nan")], "best_val": 1.0},
    {"epoch": 1, "val_history": [float("inf")], "best_val": None},
    # Were these counts trusted, the next increase would halve lr and stop the run.
    {"val_history": [0.5, 0.4], "consec_increase": 2, "total_increase_events": 9, "best_val": 0.4},
    # Each of these was coerced into a valid state and trained on.
    {"epoch": 2.5},
    {"rng_state": 0.9},
    {"sample_rate": 16000.7},
    {"lr": "1e-4"},
    {"val_history": [0.5, "0.4"], "consec_increase": 0, "total_increase_events": 0, "best_val": 0.4},
], ids=["negative-streak", "negative-events", "negative-rng-state", "nan-lr", "infinite-lr",
        "nan-loss", "infinite-loss", "counts-the-losses-contradict", "float-epoch",
        "float-rng-state", "float-sample-rate", "text-lr", "text-loss"])
def test_a_checkpoint_with_a_bad_train_state_exits_format_code(corpus, capsys, edit):
    ckpt, log, _ = run_training(corpus, capsys)
    rewrite_header(ckpt, ckpt, lambda h: h["train_state"].update(edit))
    logged, saved = log.read_text(), ckpt.read_bytes()
    assert train(corpus, "--resume", "--max-epochs", "4") == 5
    out = corpus / "enhanced.wav"
    assert cli.main(["enhance", "--checkpoint", str(ckpt), "--out", str(out),
                     "--in", str(corpus / "corpus" / "clean" / "clean_000.wav")]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("run.ckpt: malformed header" in line for line in err)
    assert log.read_text() == logged and ckpt.read_bytes() == saved and not out.exists()


@pytest.mark.parametrize("command", ["analyze", "mix", "train"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_exits_config_code_without_files(corpus, capsys, command, source):
    cfg = corpus / "seed.cfg"
    cfg.write_text(MICRO_CONFIG + ("seed = -1\n" if source == "config" else ""))
    out, log = corpus / "out", corpus / "out.csv"
    inputs = ["--manifest", str(corpus / "manifest.tsv"), "--noise-dir", str(corpus / "corpus" / "noise")]
    argv = {
        "analyze": ["analyze"],
        "mix": ["mix", *inputs, "--out-dir", str(out)],
        "train": ["train", *inputs, "--out", str(out), "--log", str(log)],
    }[command] + ["--config", str(cfg)] + (["--seed", "-1"] if source == "flag" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "error: seed must be >= 0, got -1" in captured.err
    assert "config:" not in captured.out
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["mix", "train"])
def test_a_non_finite_manifest_snr_exits_format_code(corpus, capsys, command, snr):
    first = MixManifest.load(corpus / "manifest.tsv").records[0]
    manifest = corpus / "bad.tsv"
    manifest.write_text(f"{first.clean_path}\t0\ttrain\n{first.clean_path}\t{snr}\tval\n")
    out, log = corpus / "out", corpus / "out.csv"
    inputs = ["--manifest", str(manifest), "--noise-dir", str(corpus / "corpus" / "noise")]
    argv = {
        "mix": ["mix", *inputs, "--out-dir", str(out)],
        "train": ["train", *inputs, "--out", str(out), "--log", str(log),
                  "--config", str(corpus / "micro.cfg")],
    }[command]
    assert cli.main(argv) == 5
    assert f"error: line 2: bad SNR value '{snr}'" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


def test_a_nul_in_a_manifest_clean_path_exits_format_code(corpus, capsys):
    manifest = corpus / "bad.tsv"
    manifest.write_text("clean\0.wav\t0\ttrain\n")
    out = corpus / "out"
    assert cli.main(["mix", "--manifest", str(manifest), "--noise-dir",
                     str(corpus / "corpus" / "noise"), "--out-dir", str(out)]) == 5
    assert "error: line 1: clean path 'clean\\x00.wav' holds a NUL byte" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, command", [
    ("micro.cfg", lambda corpus: cli.main(["analyze", "--config", str(corpus / "micro.cfg")])),
    ("manifest.tsv", lambda corpus: cli.main([
        "mix", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"), "--out-dir", str(corpus / "out"),
    ])),
    ("run.csv", lambda corpus: train(corpus, "--resume")),
], ids=["config", "manifest", "log"])
def test_a_text_file_that_is_not_utf8_exits_format_code(corpus, capsys, name, command):
    if name == "run.csv":
        run_training(corpus, capsys)
    path = corpus / name
    path.write_bytes(b"\xff" + path.read_bytes())
    damaged = path.read_bytes()
    assert command(corpus) == 5
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err
    assert path.read_bytes() == damaged


@pytest.mark.parametrize("flags, config_line, key", [
    (["--lr", "-1"], "", "lr"),
    (["--lr", "0"], "", "lr"),
    (["--lr", "nan"], "", "lr"),
    (["--lr", "inf"], "", "lr"),
    ([], "lr = abc", "lr"),
    ([], "lr = true", "lr"),
    (["--target-seconds", "0"], "", "target_seconds"),
    (["--target-seconds", "-0.5"], "", "target_seconds"),
    (["--max-epochs", "0"], "", "max_epochs"),
    (["--batch-size", "0"], "", "batch_size"),
    ([], "batch_size = 1.5", "batch_size"),
    ([], "max_epochs = true", "max_epochs"),
    ([], "lr = none", "lr"),
], ids=["lr-negative", "lr-zero", "lr-nan", "lr-inf", "lr-text", "lr-bool",
        "target_seconds-zero", "target_seconds-negative", "max_epochs-zero",
        "batch_size-zero", "batch_size-fraction", "max_epochs-bool", "lr-none"])
def test_bad_training_setting_exits_config_code_without_files(corpus, capsys, flags,
                                                              config_line, key):
    assert_train_exits_config_code(corpus, capsys, flags, config_line, key)


@pytest.mark.parametrize("config_line, key", [
    ("stages = 2.5", "stages"),
    ("stages = true", "stages"),
    ("seed = 1.5", "seed"),
    ("kernel = 5.0", "kernel"),
    ("encoder_channels = 4.5,4,8", "encoder_channels"),
    ("standard_gru_update = no", "standard_gru_update"),
    ("standard_gru_update = 1", "standard_gru_update"),
    ("stages = none", "stages"),
], ids=["stages-fraction", "stages-bool", "seed-fraction", "kernel-float",
        "encoder_channels-fraction", "standard_gru_update-text", "standard_gru_update-int",
        "stages-none"])
def test_non_integer_model_setting_exits_config_code_without_files(corpus, capsys,
                                                                   config_line, key):
    assert_train_exits_config_code(corpus, capsys, [], config_line, key)


def assert_train_exits_config_code(corpus, capsys, flags, config_line, key):
    """``ftnet train`` with ``config_line`` appended to the micro config exits 2
    naming ``key``, and writes neither checkpoint nor log."""
    cfg = corpus / "bad_train.cfg"
    cfg.write_text(MICRO_CONFIG + config_line + "\n")
    ckpt, log = corpus / "bad.ckpt", corpus / "bad.csv"
    code = cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"),
        "--out", str(ckpt), "--log", str(log), "--config", str(cfg), *flags,
    ])
    assert code == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not ckpt.exists() and not log.exists()


@pytest.mark.parametrize("command, dest", [("mix", "--out-dir"), ("train", "--out")])
def test_target_seconds_under_one_sample_exits_config_code_without_files(corpus, capsys,
                                                                         command, dest):
    out, log = corpus / "tiny", corpus / "tiny.csv"
    argv = [command, "--manifest", str(corpus / "manifest.tsv"),
            "--noise-dir", str(corpus / "corpus" / "noise"), dest, str(out),
            "--target-seconds", "0.00001"]
    if command == "train":
        argv += ["--log", str(log), "--config", str(corpus / "micro.cfg")]
    assert cli.main(argv) == 2
    assert "error: target_seconds 1e-05 is under one sample at 16000 Hz" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--clean-seconds", "0", "clean_seconds 0.0 is under one sample"),
    ("--noise-seconds", "0", "noise_seconds 0.0 is under one sample"),
    ("--clean-seconds", "0.00001", "clean_seconds 1e-05 is under one sample"),
    ("--noise-seconds", "nan", "noise_seconds nan is under one sample"),
    ("--sample-rate", "0", "sample rate must be >= 1 Hz"),
    ("--sample-rate", "-16000", "sample rate must be >= 1 Hz"),
    ("--n-clean", "-3", "clip counts must be >= 0"),
    ("--n-noise", "-1", "clip counts must be >= 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_synth_degenerate_size_exits_config_code_without_files(tmp_path, capsys, flag, value,
                                                               message):
    out, manifest = tmp_path / "corpus", tmp_path / "manifest.tsv"
    argv = ["synth", "--out-dir", str(out), "--n-clean", "2", "--n-noise", "1",
            "--clean-seconds", "0.1", "--noise-seconds", "0.1", "--emit-manifest", str(manifest)]
    assert cli.main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_train_default_lr_matches_recipe(corpus, capsys):
    # Without an lr override the first epoch must log 0.0002.
    cfg = corpus / "no_lr.cfg"
    cfg.write_text(MICRO_CONFIG.replace("lr = 0.001\n", ""))
    ckpt = corpus / "lr.ckpt"
    log = corpus / "lr.csv"
    assert cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"),
        "--out", str(ckpt), "--log", str(log), "--config", str(cfg),
        "--max-epochs", "1",
    ]) == 0
    capsys.readouterr()
    first = log.read_text().strip().splitlines()[1].split(",")
    assert float(first[3]) == 2e-4


def test_enhance_roundtrip_and_stage_dumps(corpus, capsys):
    ckpt, _, _ = run_training(corpus, capsys)
    noisy_in = corpus / "corpus" / "clean" / "clean_000.wav"
    out_wav = corpus / "enhanced.wav"
    stage_dir = corpus / "stages"
    hidden_dir = corpus / "hidden"
    code = cli.main([
        "enhance", "--checkpoint", str(ckpt), "--in", str(noisy_in),
        "--out", str(out_wav), "--stages", "3",
        "--dump-stages", str(stage_dir), "--dump-hidden", str(hidden_dir),
    ])
    assert code == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    original, rate_in = read_wav(noisy_in)
    enhanced, rate_out = read_wav(out_wav)
    assert enhanced.size == original.size
    assert rate_out == rate_in
    speed = re.fullmatch(r"enhanced .* \(3 stages, \d+ frames\) in (\S+) s, rtf (\S+)", summary)
    wall, rtf = float(speed[1]), float(speed[2])
    assert wall > 0
    # Both values are rounded for print: wall to 1 ms, rtf to 1e-4.
    assert rtf == pytest.approx(wall * rate_in / original.size,
                                abs=0.0005 * rate_in / original.size + 0.00005)
    stage_files = sorted(stage_dir.glob("stage_*.wav"))
    assert [p.name for p in stage_files] == ["stage_1.wav", "stage_2.wav", "stage_3.wav"]
    # Final dumped stage is the main output, byte for byte.
    assert stage_files[-1].read_bytes() == out_wav.read_bytes()
    hidden_files = sorted(hidden_dir.glob("hidden_stage*_frame*.txt"))
    frames = -(-(4800 - 64) // 32) + 1  # ceil((n - frame) / hop) + 1
    assert len(hidden_files) == 3 * frames
    sample = np.loadtxt(hidden_files[0])
    assert sample.shape == (2, 32)  # state channels x frame_len / 2


def test_float32_enhance_stays_within_one_step_of_float64(corpus, capsys, tmp_path):
    ckpt, _, _ = run_training(corpus, capsys)
    src = corpus / "corpus" / "clean" / "clean_005.wav"  # has a near-tie sample
    out, stage_dir = tmp_path / "enhanced.wav", tmp_path / "stages"
    assert cli.main(["enhance", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out), "--dump-stages", str(stage_dir)]) == 0
    capsys.readouterr()
    params, _ = checkpoint_load(ckpt)
    clip, rate = read_wav(src)
    frames = frame_signal(clip, params.config.frame_len, params.config.hop)
    assert frames.dtype == params["conv1d_1.weight"].data.dtype == np.float64
    total = OverlapAdd(len(frames), params.config.frame_len, params.config.hop, clip.size,
                       params.config.stages)
    with T.no_grad():
        for lo, _, estimates, _ in forward_blocks(params, frames):
            total.add(lo, *(t.data for t in estimates))
    got, want = [], []
    for q in range(1, params.config.stages + 1):
        ref = tmp_path / f"ref_{q}.wav"
        write_wav(ref, total.clip(q - 1), rate)
        want.append(read_wav(ref)[0])
        got.append(read_wav(stage_dir / f"stage_{q}.wav")[0])
    got.append(read_wav(out)[0])
    want.append(want[-1])
    steps = np.abs(np.concatenate(got) - np.concatenate(want)) * 32768
    assert steps.max() <= 1
    assert np.count_nonzero(steps) < 1e-3 * steps.size


def test_train_records_its_rate_and_enhance_rejects_another(corpus, capsys):
    ckpt, _, _ = run_training(corpus, capsys)
    assert checkpoint_load(ckpt)[1].sample_rate == 16000
    clip = 0.1 * np.random.default_rng(0).standard_normal(4800)
    loud = corpus / "48k.wav"
    write_wav(loud, clip, sample_rate=48000)
    out = corpus / "48k_out.wav"
    stages = corpus / "48k_stages"
    code = cli.main(["enhance", "--checkpoint", str(ckpt), "--in", str(loud),
                     "--out", str(out), "--dump-stages", str(stages)])
    assert code == 5
    assert "48000 Hz" in capsys.readouterr().err
    assert not out.exists() and not stages.exists()


def rewrite_header(path, dest, edit, version=None):
    """Copy a checkpoint to ``dest`` with ``edit`` applied to its header (and a new version)."""
    raw = path.read_bytes()
    header_len = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16 : 16 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    stamp = raw[4:8] if version is None else struct.pack("<I", version)
    dest.write_bytes(raw[:4] + stamp + struct.pack("<Q", len(blob)) + blob + raw[16 + header_len :])
    return dest


def as_version_1(path, dest):
    """Rewrite a checkpoint as format version 1, which records no sample rate."""
    return rewrite_header(path, dest, lambda h: h["train_state"].pop("sample_rate"), version=1)


def test_version_1_checkpoint_still_loads_and_enhances(corpus, capsys):
    ckpt, _, _ = run_training(corpus, capsys)
    old = as_version_1(ckpt, corpus / "v1.ckpt")
    params, state = checkpoint_load(ckpt)
    old_params, old_state = checkpoint_load(old)
    assert old_state.sample_rate is None
    assert old_state.to_dict() == {**state.to_dict(), "sample_rate": None}
    for name in params:
        np.testing.assert_array_equal(old_params[name].data, params[name].data)
    src = corpus / "corpus" / "clean" / "clean_000.wav"
    outs = []
    for tag, path in (("v2", ckpt), ("v1", old)):
        outs.append(corpus / f"{tag}.wav")
        assert cli.main(["enhance", "--checkpoint", str(path), "--in", str(src),
                         "--out", str(outs[-1])]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def constant_weight_checkpoint(path, value):
    config = ModelConfig(frame_len=64, hop=32, kernel=3, encoder_channels=(2, 2, 4),
                         glu_dilations=(1, 2), glu_bottleneck=2, stages=2, seed=3)
    params = build_model(config)
    for p in params.values():
        p.tensor.data[:] = value
    checkpoint_save(params, TrainState(), path)
    return path


# Long frames on a small network, so that block_frames is 2.
BLOCKY = build_model(ModelConfig(frame_len=2048, kernel=11, encoder_channels=(16, 4),
                                 glu_dilations=(1,), glu_bottleneck=4, stages=2, seed=4))


@settings(max_examples=12)
@given(n_frames=st.integers(min_value=1, max_value=4 * BLOCKY.config.block_frames - 1))
def test_enhance_in_blocks_matches_one_whole_batch_pass(n_frames):
    assert BLOCKY.config.block_frames == 2
    frames = 0.1 * np.random.default_rng(n_frames).standard_normal((n_frames, 1, 2048))
    with T.no_grad():
        blocks = list(forward_blocks(BLOCKY, frames))
        final, want, want_hidden = multistage_forward(BLOCKY, T.Tensor(frames))
    assert [lo for lo, *_ in blocks] == list(range(0, n_frames, 2))
    per_block = [[block_final] + est + hid for _, block_final, est, hid in blocks]
    for got, ref in zip(zip(*per_block), [final] + want + want_hidden, strict=True):
        np.testing.assert_allclose(np.concatenate([t.data for t in got]), ref.data, rtol=1e-12)


def cast_weights(params, dtype):
    """A copy of ``params`` with every weight cast to ``dtype``."""
    copy = build_model(params.config)
    for name, p in copy.items():
        p.tensor.data = params[name].data.astype(dtype)
    return copy


BLOCKY32 = cast_weights(BLOCKY, np.float32)


@settings(max_examples=12)
@given(n_frames=st.integers(min_value=1, max_value=4 * BLOCKY.config.block_frames - 1),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_enhance_frames_keep_the_dtype_they_are_given(n_frames, dtype):
    params = BLOCKY32 if dtype is np.float32 else BLOCKY
    frames = 0.1 * np.random.default_rng(n_frames).standard_normal((n_frames, 1, 2048))
    with T.no_grad():  # float64 frames, each block cast to the weights' dtype
        arrays = [t.data for _, final, est, hid in forward_blocks(params, frames)
                  for t in [final] + est + hid]
    assert [a.dtype for a in arrays] == [np.dtype(dtype)] * len(arrays)
    assert sum(a.shape[0] for a in arrays) == 5 * n_frames


def test_enhance_memory_grows_by_clip_length_arrays_not_by_frames(tmp_path, capsys):
    # 8x overlap, as at full size: were the clip's frames held, the peak
    # would grow by ~8 float64 values per sample for each copy of them.
    config = ModelConfig(frame_len=64, hop=8, kernel=3, encoder_channels=(2, 2, 4),
                         glu_dilations=(1,), glu_bottleneck=2, stages=3, seed=1)
    ckpt = tmp_path / "tiny.ckpt"
    checkpoint_save(build_model(config), TrainState(), ckpt)
    peaks = []
    for n in (64000, 256000):
        clip = tmp_path / f"in_{n}.wav"
        write_wav(clip, 0.1 * np.random.default_rng(n).standard_normal(n))
        tracemalloc.start()
        try:
            code = cli.main(["enhance", "--checkpoint", str(ckpt), "--in", str(clip),
                             "--out", str(tmp_path / "out.wav")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    assert (peaks[1] - peaks[0]) / (256000 - 64000) <= 128


def test_enhance_stage_override_runs_the_first_passes(corpus, capsys, tmp_path):
    config = ModelConfig(frame_len=64, hop=32, kernel=3, encoder_channels=(2, 2, 4),
                         glu_dilations=(1, 2), glu_bottleneck=2, stages=3, seed=3)
    ckpt = tmp_path / "q3.ckpt"
    checkpoint_save(build_model(config), TrainState(), ckpt)
    run = ["enhance", "--checkpoint", str(ckpt),
           "--in", str(corpus / "corpus" / "clean" / "clean_002.wav")]
    full, two, none = tmp_path / "full.wav", tmp_path / "two.wav", tmp_path / "none.wav"
    assert cli.main(run + ["--out", str(full), "--dump-stages", str(tmp_path / "stages")]) == 0
    capsys.readouterr()
    assert cli.main(run + ["--out", str(two), "--stages", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "config:stages=3" in stdout and "config:run_stages=2" in stdout
    assert two.read_bytes() == (tmp_path / "stages" / "stage_2.wav").read_bytes()
    assert two.read_bytes() != full.read_bytes()
    assert cli.main(run + ["--out", str(none), "--stages", "0"]) == 2
    assert "error: stages must be >= 1, got 0" in capsys.readouterr().err
    assert not none.exists()


def test_enhance_zero_weights_give_silence(corpus, capsys, tmp_path):
    ckpt = constant_weight_checkpoint(tmp_path / "zero.ckpt", 0.0)
    src = corpus / "corpus" / "clean" / "clean_001.wav"
    out = tmp_path / "silence.wav"
    assert cli.main(["enhance", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    clip, _ = read_wav(out)
    np.testing.assert_array_equal(clip, 0.0)


def test_enhance_nan_weights_exit_degenerate_code_without_output(corpus, capsys, tmp_path):
    ckpt = constant_weight_checkpoint(tmp_path / "nan.ckpt", np.nan)
    src = corpus / "corpus" / "clean" / "clean_001.wav"
    out = tmp_path / "nan.wav"
    assert cli.main(["enhance", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out)]) == 6
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_json_reports_reference_numbers(capsys):
    import json

    assert cli.main(["analyze", "--json"]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["parameter_total"] == 1_017_345
    assert payload["depth_per_stage"] == 28
    assert payload["unfolded_depth"] == 84
    assert payload["glu_receptive_field"] == 631
    assert payload["parameters_by_layer"]["conv1d_1"] == 368
    assert len(payload["shape_table"]) == 20


def test_analyze_human_readable(capsys, corpus):
    assert cli.main(["analyze", "--config", str(corpus / "micro.cfg")]) == 0
    stdout = capsys.readouterr().out
    assert "depth per stage: 12" in stdout
    assert "config:stages=2" in stdout


def test_metrics_exact_match_reports_cap(tmp_path, capsys):
    clean = tmp_path / "c.wav"
    write_wav(clean, 0.5 * np.sin(np.arange(2000) / 7.0))
    assert cli.main(["metrics", "--clean", str(clean), "--test", str(clean)]) == 0
    assert "snr_db=100.0000" in capsys.readouterr().out


def test_metrics_reports_mixture_snr_and_improvement(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from ftnet.mixer import mix_at_snr

    clean_clip = 0.4 * np.sin(np.arange(4000) / 5.0)
    result = mix_at_snr(clean_clip, 0.4 * rng.standard_normal(4000), -5.0)
    clean, noisy, test = tmp_path / "c.wav", tmp_path / "n.wav", tmp_path / "t.wav"
    write_wav(clean, result.clean)
    write_wav(noisy, result.mixture)
    write_wav(test, result.clean + 0.1 * (result.mixture - result.clean))
    assert cli.main(["metrics", "--clean", str(clean), "--test", str(noisy)]) == 0
    out = capsys.readouterr().out
    snr = float(out.split("snr_db=")[1].splitlines()[0])
    assert snr == pytest.approx(-5.0, abs=0.1)
    assert cli.main(["metrics", "--clean", str(clean), "--test", str(test),
                     "--noisy", str(noisy)]) == 0
    out = capsys.readouterr().out
    improvement = float(out.split("snr_improvement_db=")[1].splitlines()[0])
    assert improvement > 0


@pytest.mark.parametrize("flag", ["--test", "--noisy"])
def test_metrics_rejects_a_clip_at_another_rate_than_clean(tmp_path, capsys, flag):
    samples = 0.5 * np.sin(np.arange(2000) / 7.0)
    clean, other = tmp_path / "c.wav", tmp_path / "o.wav"
    write_wav(clean, samples, sample_rate=16000)
    write_wav(other, samples, sample_rate=8000)
    argv = ["metrics", "--clean", str(clean), "--test", str(clean), "--noisy", str(clean)]
    argv[argv.index(flag) + 1] = str(other)
    assert cli.main(argv) == 5
    captured = capsys.readouterr()
    assert "8000 Hz" in captured.err
    assert "snr_db=" not in captured.out


RATE_RANGE = "sample rate must be >= 1 Hz and <= 2147483647 Hz, got"


@needs_limit
@pytest.mark.parametrize("argv, code, message", [
    (["synth", "--out-dir", "{tmp}/out", "--clean-seconds", "1e9"], 2,
     "clean_seconds 1000000000.0 is 16000000000000 samples at 16000 Hz, more than a 16-bit WAV"),
    (["mix", "--manifest", "{tmp}/manifest.tsv", "--noise-dir", "{tmp}/corpus/noise",
      "--out-dir", "{tmp}/out", "--target-seconds", "1e4"], 4,
     "noise bank (8000 samples) shorter than needed (160000000)"),
    (["synth", "--out-dir", "{tmp}/out", "--n-clean", "1", "--n-noise", "0",
      "--clean-seconds", "1e5"], 2,
     "clean_seconds 100000.0 is 1600000000 samples, more than a generated clip may have (4194304)"),
    (["synth", "--out-dir", "{tmp}/out", "--sample-rate", "1" + "0" * 400], 2,
     f"{RATE_RANGE} 1{'0' * 400}"),
    (["synth", "--out-dir", "{tmp}/out", "--sample-rate", str(2**31),
      "--clean-seconds", "0.000001", "--noise-seconds", "0.000001"], 2, f"{RATE_RANGE} {2**31}"),
    (["mix", "--manifest", "{tmp}/fast/manifest.tsv", "--noise-dir", "{tmp}/fast/corpus/noise",
      "--out-dir", "{tmp}/out", "--target-seconds", "0.000001"], 5,
     f"{{tmp}}/fast/corpus/noise/noise_000.wav: {RATE_RANGE} 3000000000"),
], ids=["synth-clean-seconds", "mix-target-seconds", "synth-clean-seconds-1e5", "synth-rate-huge",
        "synth-rate-2^31", "mix-wav-rate-3e9"])
def test_a_length_too_large_exits_with_its_code_in_a_limited_child(tmp_path, argv, code, message):
    """Unchecked, synth asked for 116 TiB, and mix padded the clean clip to
    10^4 s (1.19 GiB) before it compared the target with the 0.5 s bank.
    10^5 s of synthetic speech asked for 11.9 GiB; a rate of 10^400
    overflowed ``seconds * rate``; and a rate of 2^31 or more, from a flag or
    from WAV headers (the ``fast`` copy of the corpus), stopped ``wave``
    writing a header whose byte rate does not fit 32 bits."""
    assert cli.main(["synth", "--out-dir", str(tmp_path / "corpus"), "--n-clean", "1",
                     "--n-noise", "1", "--noise-seconds", "0.5",
                     "--emit-manifest", str(tmp_path / "manifest.tsv")]) == 0
    shutil.copytree(tmp_path / "corpus", tmp_path / "fast" / "corpus")
    shutil.copy(tmp_path / "manifest.tsv", tmp_path / "fast")
    for path in (tmp_path / "fast").rglob("*.wav"):  # the rate field of each header
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 24, 3_000_000_000)
        path.write_bytes(raw)
    run = run_under_limit(["-m", "ftnet.cli", *(arg.format(tmp=tmp_path) for arg in argv)])
    assert run.returncode == code, run.stderr
    assert f"error: {message.format(tmp=tmp_path)}" in run.stderr and "Traceback" not in run.stderr
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# failure exit codes


def test_missing_input_exits_io_code(tmp_path, capsys):
    code = cli.main(["metrics", "--clean", str(tmp_path / "no.wav"),
                     "--test", str(tmp_path / "no.wav")])
    assert code == 7
    assert "error:" in capsys.readouterr().err


def test_length_mismatch_exits_usage_code(tmp_path, capsys):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, np.zeros(100) + 0.1)
    write_wav(b, np.zeros(101) + 0.1)
    assert cli.main(["metrics", "--clean", str(a), "--test", str(b)]) == 4
    capsys.readouterr()


def test_bad_manifest_exits_format_code(tmp_path, capsys):
    manifest = tmp_path / "bad.tsv"
    manifest.write_text("x.wav\t99\ttrain\n")
    (tmp_path / "noise").mkdir()
    write_wav(tmp_path / "noise" / "n.wav", np.full(4000, 0.1))
    code = cli.main(["mix", "--manifest", str(manifest),
                     "--noise-dir", str(tmp_path / "noise"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 5
    capsys.readouterr()


@pytest.mark.parametrize("cut, crop, named", [
    (0, 999999, "crop_start 999999"), (99999999, 0, "cut_point 99999999"),
], ids=["crop-past-clip", "cut-past-bank"])
def test_mix_rejects_resolved_offsets_outside_the_clip_or_bank(corpus, capsys, cut, crop, named):
    first = MixManifest.load(corpus / "manifest.tsv").records[0]
    manifest = corpus / "resolved.tsv"
    manifest.write_text(f"{first.clean_path}\t0\ttrain\t{cut}\t{crop}\n")
    capsys.readouterr()
    code = cli.main(["mix", "--manifest", str(manifest),
                     "--noise-dir", str(corpus / "corpus" / "noise"),
                     "--out-dir", str(corpus / "out"), "--target-seconds", "0.1"])
    assert code == 5
    err = capsys.readouterr().err
    assert re.search(rf"record 1 \(\S*{re.escape(first.clean_path)}\): {named} ", err), err
    assert not (corpus / "out").exists()


def test_bad_config_value_exits_config_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel = 4\n")
    assert cli.main(["analyze", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["kernle", "clip_grad", "halve_after", "stop_after"])
def test_unknown_config_key_exits_config_code(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 11\n")
    assert cli.main(["analyze", "--config", str(cfg)]) == 2
    assert f"unknown setting {key!r}" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_format_code(tmp_path, capsys):
    ckpt = tmp_path / "junk.ckpt"
    ckpt.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    wav = tmp_path / "x.wav"
    write_wav(wav, np.zeros(64) + 0.1)
    assert cli.main(["enhance", "--checkpoint", str(ckpt), "--in", str(wav),
                     "--out", str(tmp_path / "y.wav")]) == 5
    capsys.readouterr()


def test_degenerate_clean_exits_degenerate_code(tmp_path, capsys):
    clean = tmp_path / "silence.wav"
    write_wav(clean, np.zeros(1600))
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{clean.name}\t0\ttrain\n")
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    write_wav(noise_dir / "n.wav", np.full(4000, 0.1))
    code = cli.main(["mix", "--manifest", str(manifest), "--noise-dir", str(noise_dir),
                     "--out-dir", str(tmp_path / "out"), "--target-seconds", "0.1"])
    assert code == 6
    capsys.readouterr()


def test_clean_clip_at_another_rate_than_the_noise_exits_format_code(tmp_path, capsys):
    clean = tmp_path / "tone.wav"
    write_wav(clean, np.full(800, 0.1), sample_rate=8000)
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{clean.name}\t0\ttrain\n")
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    write_wav(noise_dir / "n.wav", np.full(4000, 0.1))
    code = cli.main(["mix", "--manifest", str(manifest), "--noise-dir", str(noise_dir),
                     "--out-dir", str(tmp_path / "out"), "--target-seconds", "0.1"])
    assert code == 5
    assert "8000 Hz" in capsys.readouterr().err
