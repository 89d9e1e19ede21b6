"""End-to-end command tests driven through cli.main."""

import numpy as np
import pytest

from ftnet import cli
from ftnet.audio import read_wav, write_wav
from ftnet.checkpoint import checkpoint_save
from ftnet.mixer import MixManifest
from ftnet.model import ModelConfig, build_model
from ftnet.training import TrainState

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


def run_training(corpus, capsys, extra=()):
    ckpt = corpus / "run.ckpt"
    log = corpus / "run.csv"
    code = cli.main([
        "train", "--manifest", str(corpus / "manifest.tsv"),
        "--noise-dir", str(corpus / "corpus" / "noise"),
        "--out", str(ckpt), "--log", str(log),
        "--config", str(corpus / "micro.cfg"), *extra,
    ])
    assert code == 0
    return ckpt, log, capsys.readouterr().out


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
    capsys.readouterr()
    original, rate_in = read_wav(noisy_in)
    enhanced, rate_out = read_wav(out_wav)
    assert enhanced.size == original.size
    assert rate_out == rate_in
    stage_files = sorted(stage_dir.glob("stage_*.wav"))
    assert [p.name for p in stage_files] == ["stage_1.wav", "stage_2.wav", "stage_3.wav"]
    # Final dumped stage is the main output, byte for byte.
    assert stage_files[-1].read_bytes() == out_wav.read_bytes()
    hidden_files = sorted(hidden_dir.glob("hidden_stage*_frame*.txt"))
    frames = -(-(4800 - 64) // 32) + 1  # ceil((n - frame) / hop) + 1
    assert len(hidden_files) == 3 * frames
    sample = np.loadtxt(hidden_files[0])
    assert sample.shape == (2, 32)  # state channels x frame_len / 2


def constant_weight_checkpoint(path, value):
    config = ModelConfig(frame_len=64, hop=32, kernel=3, encoder_channels=(2, 2, 4),
                         glu_dilations=(1, 2), glu_bottleneck=2, stages=2, seed=3)
    params = build_model(config)
    for p in params.values():
        p.tensor.data[:] = value
    checkpoint_save(params, TrainState(), path)
    return path


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


def test_bad_config_value_exits_config_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel = 4\n")
    assert cli.main(["analyze", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_unknown_config_key_exits_config_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernle = 11\n")
    assert cli.main(["analyze", "--config", str(cfg)]) == 2
    capsys.readouterr()


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
