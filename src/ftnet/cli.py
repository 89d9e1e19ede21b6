"""Command-line surface: synth, mix, train, enhance, analyze, metrics.

Every command prints its fully resolved configuration as ``config:key=value``
lines before doing work, so any run can be reproduced from its log alone.
Errors map to stable exit codes per category (see EXIT_CODES).
"""

import argparse
import json
import math
import os
import pathlib
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import tensor as T
from .audio import FrameBatch, frame_signal, overlap_add, read_wav, write_wav
from .checkpoint import checkpoint_load, checkpoint_save
from .errors import (
    ConfigError,
    DegenerateSignalError,
    FormatError,
    FTNetError,
    ShapeError,
    UsageError,
)
from .mixer import (
    MixManifest,
    MixRecord,
    NoiseBank,
    build_dataset,
    measure_snr,
    synth_clean,
    synth_noise,
)
from .model import ModelConfig, build_model, multistage_forward, analyze_structure
from .training import BATCH_SIZE, LOG_HEADER, LR, MAX_EPOCHS, TrainState, fit, format_log_row

__all__ = ["main", "EXIT_CODES"]

EXIT_CODES = {
    ConfigError: 2,
    ShapeError: 3,
    UsageError: 4,
    FormatError: 5,
    DegenerateSignalError: 6,
    OSError: 7,
}

MODEL_KEYS = {f.name for f in fields(ModelConfig)}
# A setting whose default is an int is a count (>= 1); the others are
# finite numbers > 0. ftnet.training owns the values it uses.
TRAIN_DEFAULTS = {
    "lr": LR,
    "batch_size": BATCH_SIZE,
    "max_epochs": MAX_EPOCHS,
    "target_seconds": 4.0,
}
TRAIN_KEYS = set(TRAIN_DEFAULTS)


def _parse_scalar(text):
    text = text.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_value(text):
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(",") if part.strip())
    return _parse_scalar(text)


def load_config_file(path):
    """Read ``key = value`` lines; # starts a comment, commas make tuples."""
    overrides = {}
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in MODEL_KEYS | TRAIN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _format_value(value):
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def echo_config(settings, out=None):
    out = out or sys.stdout
    for key in sorted(settings):
        print(f"config:{key}={_format_value(settings[key])}", file=out)


def _check_train_setting(key, value):
    if type(TRAIN_DEFAULTS[key]) is int:
        ok, want = type(value) is int and value >= 1, "an integer >= 1"
    else:
        ok, want = type(value) in (int, float) and 0 < value < math.inf, "a finite number > 0"
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")


def resolve_settings(args):
    """Merge defaults <- config file <- explicit CLI flags, then check the
    training settings; a bad value raises ConfigError naming its key."""
    overrides = load_config_file(args.config) if getattr(args, "config", None) else {}
    model = {k: v for k, v in overrides.items() if k in MODEL_KEYS}
    train = dict(TRAIN_DEFAULTS)
    train.update({k: v for k, v in overrides.items() if k in TRAIN_KEYS})
    for key in MODEL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            model[key] = flag
    for key in TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            train[key] = flag
    for key, value in train.items():
        _check_train_setting(key, value)
    try:
        config = ModelConfig.from_dict(model) if model else ModelConfig()
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return config, train


def _echo_run(command, config=None, extra=None):
    settings = {"command": command}
    if config is not None:
        settings.update(config.to_dict())
    if extra:
        settings.update(extra)
    echo_config(settings)


def _resolve_clean_path(manifest_path, record_path):
    p = pathlib.Path(record_path)
    if not p.is_absolute():
        p = pathlib.Path(manifest_path).parent / p
    return str(p)


def _load_manifest_pairs(args, train, seed):
    """Shared by mix and train: manifest + noise dir -> list of MixedPair."""
    manifest = MixManifest([
        replace(r, clean_path=_resolve_clean_path(args.manifest, r.clean_path))
        for r in MixManifest.load(args.manifest)
    ])
    bank = NoiseBank.from_dir(args.noise_dir, seed=seed)
    target_len = int(round(train["target_seconds"] * bank.sample_rate))
    if target_len < 1:
        raise ConfigError(
            f"target_seconds {train['target_seconds']} is under one sample at "
            f"{bank.sample_rate} Hz"
        )
    return list(build_dataset(manifest, bank, seed=seed, target_len=target_len))


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    """Generate a desk-scale corpus of clean tones and noise beds."""
    if args.n_clean < 0 or args.n_noise < 0:
        raise ConfigError(f"clip counts must be >= 0, got {args.n_clean} clean, {args.n_noise} noise")
    if args.sample_rate < 1:
        raise ConfigError(f"sample rate must be >= 1 Hz, got {args.sample_rate}")
    for key in ("clean_seconds", "noise_seconds"):
        samples = getattr(args, key) * args.sample_rate
        if not (math.isfinite(samples) and round(samples) >= 1):
            raise ConfigError(f"{key} {getattr(args, key)} is under one sample at {args.sample_rate} Hz")
    out = pathlib.Path(args.out_dir)
    clean_dir, noise_dir = out / "clean", out / "noise"
    clean_dir.mkdir(parents=True, exist_ok=True)
    noise_dir.mkdir(parents=True, exist_ok=True)
    if args.emit_manifest:
        manifest_dir = pathlib.Path(args.emit_manifest).parent
        manifest_dir.mkdir(parents=True, exist_ok=True)
    _echo_run("synth", extra={
        "out_dir": str(out), "n_clean": args.n_clean, "n_noise": args.n_noise,
        "clean_seconds": args.clean_seconds, "noise_seconds": args.noise_seconds,
        "seed": args.seed, "sample_rate": args.sample_rate,
    })
    rng = np.random.default_rng(args.seed)
    clean_paths = []
    for i in range(args.n_clean):
        clip = synth_clean(args.clean_seconds, rng, sample_rate=args.sample_rate)
        path = clean_dir / f"clean_{i:03d}.wav"
        write_wav(path, clip, sample_rate=args.sample_rate)
        clean_paths.append(path)
    for i in range(args.n_noise):
        clip = synth_noise(args.noise_seconds, rng, sample_rate=args.sample_rate)
        write_wav(noise_dir / f"noise_{i:03d}.wav", clip, sample_rate=args.sample_rate)
    if args.emit_manifest:
        snrs = list(range(-5, 11))
        n_val = max(1, args.n_clean // 5) if args.n_clean > 1 else 0
        records = []
        for i, path in enumerate(clean_paths):
            split = "val" if i >= args.n_clean - n_val else "train"
            rel = os.path.relpath(path, manifest_dir)
            records.append(MixRecord(rel, float(snrs[i % len(snrs)]), split))
        MixManifest(records).save(args.emit_manifest)
        print(f"wrote {args.emit_manifest} ({len(records)} records)")
    print(f"wrote {args.n_clean} clean and {args.n_noise} noise files under {out}")
    return 0


def cmd_mix(args):
    """Emit noisy/clean WAV pairs plus the fully resolved manifest."""
    config, train = resolve_settings(args)
    seed = config.seed
    out = pathlib.Path(args.out_dir)
    _echo_run("mix", extra={
        "manifest": args.manifest, "noise_dir": args.noise_dir,
        "out_dir": str(out), "seed": seed,
        "target_seconds": train["target_seconds"],
    })
    pairs = _load_manifest_pairs(args, train, seed)
    out.mkdir(parents=True, exist_ok=True)
    resolved = []
    for i, pair in enumerate(pairs):
        write_wav(out / f"pair_{i:04d}_noisy.wav", pair.noisy, pair.sample_rate)
        write_wav(out / f"pair_{i:04d}_clean.wav", pair.clean, pair.sample_rate)
        resolved.append(pair.record)
        measured = measure_snr(pair.clean, pair.noisy)
        print(f"pair_{i:04d}: target {pair.record.snr_db:g} dB, measured {measured:.3f} dB")
    MixManifest(resolved).save(out / "manifest.resolved.tsv")
    print(f"wrote {len(pairs)} pairs under {out}")
    return 0


def _resume_point(path, config):
    """The params and state a checkpoint holds, which must use ``config``."""
    try:
        params, state = checkpoint_load(path)
    except FileNotFoundError:
        raise FormatError(f"{path}: no checkpoint to resume from") from None
    saved, given = params.config.to_dict(), config.to_dict()
    differ = sorted(key for key in saved if saved[key] != given[key])
    if differ:
        raise ConfigError(f"{path} was trained with other {', '.join(differ)}; "
                          "resume with the settings it was trained with")
    return params, state


def _open_log(path, resumed_epochs):
    """The epoch log, open for appending rows.

    A fresh run (``resumed_epochs`` None) starts it with the header. A
    resumed one keeps the header and the checkpoint's epochs' rows, and
    drops a row logged after the checkpoint's last save.
    """
    if resumed_epochs is None:
        fh = open(path, "w", encoding="utf-8")
        print(LOG_HEADER, file=fh)
        return fh
    kept = pathlib.Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    kept = kept[: 1 + resumed_epochs]
    if len(kept) != 1 + resumed_epochs or kept[0] != LOG_HEADER + "\n" or not kept[-1].endswith("\n"):
        raise FormatError(f"{path}: not the log of the checkpoint's {resumed_epochs} epochs")
    os.truncate(path, len("".join(kept).encode("utf-8")))
    return open(path, "a", encoding="utf-8")


def cmd_train(args):
    """Run the harness to its stop condition; write checkpoint + epoch log.

    With ``--resume`` the run continues from the ``--out`` checkpoint, which
    must have been trained with the same model settings, and appends to
    ``--log``. Its learning rate comes from the checkpoint.
    """
    config, train = resolve_settings(args)
    if args.resume:
        params, state = _resume_point(args.out, config)
    _echo_run("train", config, extra={
        "manifest": args.manifest, "noise_dir": args.noise_dir,
        "checkpoint": args.out, "log": args.log or "", "resume": args.resume, **train,
    })
    pairs = _load_manifest_pairs(args, train, config.seed)
    train_pairs = [p for p in pairs if p.record.split == "train"]
    val_pairs = [p for p in pairs if p.record.split == "val"]
    if not train_pairs:
        raise UsageError("manifest has no train-split records")
    if not val_pairs:
        # Desk-scale fallback: validate on the training pairs.
        val_pairs = train_pairs
    rate = train_pairs[0].sample_rate
    if not args.resume:
        params = build_model(config)
        state = TrainState(lr=train["lr"], rng_state=config.seed, sample_rate=rate)
    elif state.sample_rate not in (None, rate):
        raise FormatError(f"{args.out} was trained at {state.sample_rate} Hz, the corpus is {rate} Hz")

    log_fh = _open_log(args.log, state.epoch if args.resume else None) if args.log else None
    try:

        def log_row(row):
            line = format_log_row(row)
            print(line)
            if log_fh:
                print(line, file=log_fh, flush=True)  # a killed run keeps its rows
            checkpoint_save(params, state, args.out)

        print(LOG_HEADER)
        fit(
            params, state, train_pairs, val_pairs,
            max_epochs=train["max_epochs"], batch_size=train["batch_size"], log_fn=log_row,
        )
    finally:
        if log_fh:
            log_fh.close()
    print(f"checkpoint written to {args.out}")
    return 0


def _enhance_frames(params, frames, collect_hidden):
    """Run all frames through the network, ``block_frames`` at a time;
    returns per-stage frame arrays plus per-stage hidden maps (stage-major
    lists; no maps unless collect_hidden), in the dtype of the frames and
    weights it is given."""
    block = params.config.block_frames
    # Estimates always, hidden maps only when asked: slicing the forward's
    # result drops a block's maps as soon as the forward returns.
    wanted = slice(1, 3 if collect_hidden else 2)
    stage_frames = [[] for _ in range(params.config.stages)]
    stage_hidden = [[] for _ in range(params.config.stages)]
    with T.no_grad():
        for lo in range(0, len(frames), block):
            kept = multistage_forward(params, T.Tensor(frames[lo : lo + block]))[wanted]
            for per_stage, tensors in zip((stage_frames, stage_hidden), kept):
                for chunks, tensor in zip(per_stage, tensors):
                    chunks.append(tensor.data)
    return (
        [np.concatenate(chunks) for chunks in stage_frames],
        [np.concatenate(chunks) for chunks in stage_hidden if chunks],
    )


def cmd_enhance(args):
    """Frame -> Q-stage forward -> overlap-add; optional per-stage dumps.

    The forward pass runs in float32: every output is rounded to 16-bit PCM,
    whose step is far coarser than float32's error, so float64 would buy
    nothing but time. The summary line reports the wall time up to the last
    write and its real-time factor.
    """
    start = time.perf_counter()
    params, state = checkpoint_load(args.checkpoint)
    config = params.config
    if args.stages is not None:
        params.config = replace(config, stages=args.stages)
    stages = params.config.stages
    _echo_run("enhance", config, extra={
        "checkpoint": args.checkpoint, "input": args.infile, "output": args.outfile,
        "run_stages": stages,
        "dump_stages": args.dump_stages or "", "dump_hidden": args.dump_hidden or "",
    })
    clip, rate = read_wav(args.infile)
    if state.sample_rate is not None and rate != state.sample_rate:
        raise FormatError(
            f"{args.infile}: {rate} Hz input, but the checkpoint was trained at "
            f"{state.sample_rate} Hz"
        )
    batch = frame_signal(clip, config.frame_len, config.hop)
    for p in params.values():
        p.tensor.data = p.tensor.data.astype(np.float32)
    per_stage, hiddens = _enhance_frames(
        params, batch.frames.astype(np.float32), collect_hidden=bool(args.dump_hidden)
    )

    def rebuild(frames):
        return overlap_add(FrameBatch(frames, batch.hop, batch.original_length))

    enhanced = rebuild(per_stage[-1])
    write_wav(args.outfile, enhanced, rate)
    if args.dump_stages:
        dump_dir = pathlib.Path(args.dump_stages)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for q in range(stages):
            write_wav(dump_dir / f"stage_{q + 1}.wav", rebuild(per_stage[q]), rate)
    if args.dump_hidden:
        hidden_dir = pathlib.Path(args.dump_hidden)
        hidden_dir.mkdir(parents=True, exist_ok=True)
        for q in range(stages):
            for i in range(hiddens[q].shape[0]):
                np.savetxt(
                    hidden_dir / f"hidden_stage{q + 1}_frame{i:04d}.txt",
                    hiddens[q][i], fmt="%.17g",
                )
    wall = time.perf_counter() - start
    print(
        f"enhanced {args.infile} -> {args.outfile} ({stages} stages, {len(batch)} frames) "
        f"in {wall:.3f} s, rtf {wall * rate / batch.original_length:.4f}"
    )
    return 0


def cmd_analyze(args):
    """Report shapes, per-layer parameter counts, depth, receptive field."""
    config, _ = resolve_settings(args)
    _echo_run("analyze", config)
    report = analyze_structure(config)
    if args.json:
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
        return 0
    print(f"depth per stage: {report.depth_per_stage} weight-bearing layers")
    print(f"unfolded depth ({config.stages} stages): {report.unfolded_depth}")
    print(f"dilated-stack receptive field: {report.glu_receptive_field} samples")
    print(f"total trainable parameters: {report.parameter_total}")
    print("shape trace (channels x length):")
    for row in report.shape_table:
        print(
            f"  {row.name:<12} {row.in_channels:>4} x {row.in_length:<6} -> "
            f"{row.out_channels:>4} x {row.out_length}"
        )
    print("parameters by layer:")
    for name, count in report.parameters_by_layer.items():
        print(f"  {name:<20} {count}")
    return 0


def _read_at_rate(path, rate):
    clip, got = read_wav(path)
    if got != rate:
        raise FormatError(f"{path}: {got} Hz clip, but the clean reference is {rate} Hz")
    return clip


def cmd_metrics(args):
    """SNR of a test clip against clean, optionally vs a noisy reference.

    Every clip must share the clean clip's sample rate.
    """
    clean, rate = read_wav(args.clean)
    test = _read_at_rate(args.test, rate)
    noisy = _read_at_rate(args.noisy, rate) if args.noisy else None
    _echo_run("metrics", extra={
        "clean": args.clean, "test": args.test, "noisy": args.noisy or "",
    })
    snr = measure_snr(clean, test)
    print(f"snr_db={snr:.4f}")
    if noisy is not None:
        ref_snr = measure_snr(clean, noisy)
        print(f"noisy_snr_db={ref_snr:.4f}")
        print(f"snr_improvement_db={snr - ref_snr:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(sub):
    sub.add_argument("--config", help="key = value settings file")
    sub.add_argument("--stages", type=int, help="feedback passes Q")
    sub.add_argument("--seed", type=int, help="run seed (overrides the config file)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ftnet",
        description="Time-domain speech enhancement with feedback stages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic desk-scale corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-clean", type=int, default=16)
    p.add_argument("--n-noise", type=int, default=4)
    p.add_argument("--clean-seconds", type=float, default=1.0)
    p.add_argument("--noise-seconds", type=float, default=4.0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-manifest", help="also write a train/val manifest here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mix", help="build noisy/clean pairs from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--noise-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, help="run seed (overrides the config file)")
    p.add_argument("--target-seconds", type=float, dest="target_seconds")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train", help="train to the stop condition")
    p.add_argument("--manifest", required=True)
    p.add_argument("--noise-dir", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="CSV epoch log path")
    p.add_argument("--resume", action="store_true",
                   help="continue from the --out checkpoint, appending to --log")
    _add_model_flags(p)
    p.add_argument("--lr", type=float, dest="lr")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--target-seconds", type=float, dest="target_seconds")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="denoise a WAV with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--stages", type=int, help="override the checkpoint's Q")
    p.add_argument("--dump-stages", help="directory for per-stage WAVs")
    p.add_argument("--dump-hidden", help="directory for hidden-state text dumps")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("analyze", help="structural report for a config")
    _add_model_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("metrics", help="SNR of a test clip against clean")
    p.add_argument("--clean", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--noisy", help="noisy reference for improvement")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FTNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
