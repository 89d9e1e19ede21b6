#!/usr/bin/env python3
"""ftnet benchmark: two closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from ``--seed``. Operations run back to back
until the measured time is as near ``--seconds`` as whole operations allow,
and at least two have run. Every operation is checked against ``oracle.py``
after the loop; a failed check makes the run report ``correct: false`` and
no metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are end-to-end,
measured with only the operation-boundary hooks installed. With
``--trace 1`` one untraced operation runs first (for ``trace_overhead``),
then the operations run with every ftnet function wrapped, and the metrics
are per layer, normalised per operation. The line before it records the
environment. Full results and the span list go to ``.bench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 11
MIN_OPS = 2  # per untraced run, so a median never rests on one sample
RATE = 16000

# Gate tolerances. Float64 results that differ only in summation order agree
# to ~1e-13 relative; one wrong convolution tap moves losses by >1e-4.
LOSS_RTOL = 1e-8
UPDATE_RTOL = 1e-6
PCM_ATOL = 1  # one 16-bit step: rounding may flip on a near-tie


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; numpy is not imported yet."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(np, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_cli(argv):
    """ftnet.cli.main with its stdout (the echoed config, the log rows) discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = ftnet.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ftnet {argv[0]} exited with {code}")


def relative_l2(actual, expected):
    return float(np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300))


def make_utterance(rng, n):
    """Seeded clean tone + coloured noise mixed at an SNR drawn from -5..10 dB."""
    clean = ftnet.mixer.synth_clean(n / RATE, rng)
    noise = ftnet.mixer.synth_noise(n / RATE, rng)
    mix = ftnet.mixer.mix_at_snr(clean, noise, rng.uniform(-5.0, 10.0))
    return SimpleNamespace(noisy=mix.mixture, clean=mix.clean)


def flat_params(params):
    return np.concatenate([p.data.ravel() for p in params.values()])


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One operation is ``op()``; ``before_op``/``after_op`` run untimed around it.

    ``setup`` (one set-up, timed by the runner) is None where set-up is timed
    inside each operation instead. ``verify`` checks every operation against
    the oracle and returns (failure messages, details for the result file).
    """

    setup = None

    def before_op(self):
        pass


class TrainFull(Workload):
    """One training step of the full-size model on 2 utterances of 2,560 samples.

    Every operation restarts from the seeded initial weights and fresh Adam
    moments, so each step does the same work and must give the same loss and
    update as the oracle.
    """

    utterance = 2560

    def __init__(self, seed, work):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pairs = [make_utterance(rng, self.utterance) for _ in range(2)]
        self.config = ftnet.model.ModelConfig(seed=seed)
        self.params = ftnet.model.build_model(self.config)
        self.initial = flat_params(self.params)
        self.snapshot = [p.data.copy() for p in self.params.values()]
        self.frames = sum(len(oracle.frame_signal(p.noisy, self.config.frame_len, self.config.hop)) for p in self.pairs)
        self.losses = []
        self.first_after = None
        self.drift = []

    def setup(self):
        ftnet.model.build_model(self.config)
        for pair in self.pairs:
            ftnet.audio.frame_signal(pair.noisy, self.config.frame_len, self.config.hop)
            ftnet.audio.frame_signal(pair.clean, self.config.frame_len, self.config.hop)

    def before_op(self):
        for p, values in zip(self.params.values(), self.snapshot):
            np.copyto(p.tensor.data, values)
            p.m[...] = 0.0
            p.v[...] = 0.0
            p.step_count = 0

    def op(self):
        state = ftnet.training.TrainState(rng_state=self.seed)
        return ftnet.training.train_epoch(self.params, state, self.pairs, batch_size=2)

    def after_op(self, loss):
        after = flat_params(self.params)
        if self.first_after is None:
            self.first_after = after
        self.losses.append(loss)
        self.drift.append(relative_l2(after - self.initial, self.first_after - self.initial))

    def verify(self):
        trainer = oracle.Trainer(self.config.to_dict(), rng_state=self.seed)
        ref_initial = np.concatenate([v.data.ravel() for v in trainer.params.values()])
        ref_loss = trainer.train_epoch(self.pairs)
        ref_update = np.concatenate([v.data.ravel() for v in trainer.params.values()]) - ref_initial
        init_ok = np.array_equal(ref_initial, self.initial)
        update_err = relative_l2(self.first_after - self.initial, ref_update)
        failures = []
        for i, (loss, drift) in enumerate(zip(self.losses, self.drift)):
            loss_err = abs(loss - ref_loss) / abs(ref_loss)
            if not (init_ok and loss_err <= LOSS_RTOL and update_err + drift <= UPDATE_RTOL):
                failures.append(
                    f"op {i}: initial weights match={init_ok}, loss {loss!r} vs {ref_loss!r} "
                    f"(rel {loss_err:.2e}), update rel err {update_err + drift:.2e}"
                )
        detail = {"reference_loss": ref_loss, "update_rel_err": update_err,
                  "param_checksum": float(self.first_after.sum())}
        return failures, detail

    def end_to_end(self, op_times, hooks):
        epochs = [s[2] - s[1] for s in hooks if s[0] == "training.train_epoch"]
        step = statistics.median(op_times)
        return {
            "step_s_p50": step,
            "epoch_s_p50": statistics.median(epochs),
            "train_frames_per_s": self.frames * len(op_times) / sum(op_times),
            "enhance_rtf": step / (2 * self.utterance / RATE),
        }


def check_enhance(weights, cfg, noisy, outputs):
    """Check ``ftnet enhance`` outputs: [(final samples, [stage samples])] per operation.

    The oracle enhances ``noisy`` with ``weights`` in 32-frame batches and
    rebuilds each stage by overlap-add. The output and every stage dump must
    match it within one 16-bit step at every sample, and so must each
    stage's MAE against the input. Returns (failure messages, detail).
    """
    frames = oracle.frame_signal(noisy / 32768.0, cfg["frame_len"], cfg["hop"])
    batches = [oracle.multistage(weights, cfg, frames[lo : lo + 32])[1] for lo in range(0, len(frames), 32)]
    expected = [
        oracle.quantize(oracle.overlap_add(np.concatenate(stage), cfg["hop"], noisy.size))
        for stage in zip(*batches)
    ]
    ref_mae = [float(np.abs(e - noisy).mean()) for e in expected]
    failures = []
    for i, (final, stages) in enumerate(outputs):
        problems = []
        if final.size != noisy.size or not np.array_equal(final, stages[-1]):
            problems.append("final output differs from the last stage dump")
        for q, (got, want) in enumerate(zip(stages, expected)):
            if got.size != noisy.size:
                problems.append(f"stage {q + 1}: {got.size} samples, expected {noisy.size}")
                continue
            err = int(np.abs(got - want).max())
            mae = float(np.abs(got - noisy).mean())
            if err > PCM_ATOL or abs(mae - ref_mae[q]) > PCM_ATOL:
                problems.append(f"stage {q + 1}: max sample error {err}, MAE {mae} vs {ref_mae[q]}")
        if problems:
            failures.append(f"op {i}: enhance: " + "; ".join(problems))
    detail = {
        "stage_mae_vs_input": [m / 32768.0 for m in ref_mae],
        "expected_peak": int(max(np.abs(e).max() for e in expected)),
    }
    return failures, detail


class TrainDesk(Workload):
    """The desk flow: ``ftnet train`` at desk scale, then ``ftnet enhance``
    with the checkpoint it wrote.

    Training uses the small model, 512-sample utterances and a fixed epoch
    count, with validation and a checkpoint save every epoch. The enhance
    step runs that checkpoint on a 1 s clip (62 frames: one 32-frame
    inference batch plus a 30-frame tail).
    """

    epochs = 3
    utterance_s = 0.032
    clip_s = 1.0
    model_settings = {
        "frame_len": "512", "hop": "256", "kernel": "11", "encoder_channels": "16,16,32",
        "glu_dilations": "1,2", "glu_bottleneck": "16", "stages": "3",
    }

    def __init__(self, seed, work):
        self.seed = seed
        corpus = work / "corpus"
        self.manifest = corpus / "manifest.tsv"
        self.noise_dir = corpus / "noise"
        self.checkpoint = work / "desk.ftnc"
        self.log = work / "desk.csv"
        self.input = work / "noisy.wav"
        self.output = work / "enhanced.wav"
        self.stage_dir = work / "stages"
        config_file = work / "desk.cfg"
        config_file.write_text("".join(f"{k} = {v}\n" for k, v in self.model_settings.items()))
        run_cli(["synth", "--out-dir", str(corpus), "--seed", str(seed), "--emit-manifest", str(self.manifest)])
        clip = make_utterance(np.random.default_rng(seed), int(self.clip_s * RATE)).noisy
        ftnet.audio.write_wav(self.input, clip, RATE)
        self.train_argv = [
            "train", "--manifest", str(self.manifest), "--noise-dir", str(self.noise_dir),
            "--out", str(self.checkpoint), "--log", str(self.log), "--config", str(config_file),
            "--seed", str(seed), "--max-epochs", str(self.epochs),
            "--target-seconds", str(self.utterance_s),
        ]
        self.enhance_argv = [
            "enhance", "--checkpoint", str(self.checkpoint), "--in", str(self.input),
            "--out", str(self.output), "--dump-stages", str(self.stage_dir),
        ]
        self.parts = []  # (train seconds, enhance seconds) per operation
        self.outputs = []

    def op(self):
        start = time.perf_counter()
        run_cli(self.train_argv)
        middle = time.perf_counter()
        run_cli(self.enhance_argv)
        self.parts.append((middle - start, time.perf_counter() - middle))

    def after_op(self, _):
        params, _ = ftnet.checkpoint.checkpoint_load(self.checkpoint)
        self.config = params.config
        stages = [oracle.read_wav(self.stage_dir / f"stage_{q + 1}.wav") for q in range(self.config.stages)]
        enhanced = (oracle.read_wav(self.output), stages)
        self.outputs.append((self.log.read_text(), flat_params(params), enhanced))

    def _pairs(self):
        manifest = ftnet.mixer.MixManifest.load(self.manifest)
        records = [dataclasses.replace(r, clean_path=str(self.manifest.parent / r.clean_path)) for r in manifest]
        bank = ftnet.mixer.NoiseBank.from_dir(self.noise_dir, seed=self.seed)
        pairs = list(ftnet.mixer.build_dataset(
            ftnet.mixer.MixManifest(records), bank, seed=self.seed,
            target_len=int(round(self.utterance_s * RATE)),
        ))
        train = [p for p in pairs if p.record.split == "train"]
        return train, [p for p in pairs if p.record.split == "val"] or train

    def verify(self):
        train, val = self._pairs()
        cfg = self.config.to_dict()
        self.frames_per_epoch = sum(len(oracle.frame_signal(p.noisy, cfg["frame_len"], cfg["hop"])) for p in train)
        trainer = oracle.Trainer(cfg, rng_state=self.seed)
        initial = np.concatenate([v.data.ravel() for v in trainer.params.values()])
        rows = trainer.fit_rows(train, val, self.epochs)
        update = np.concatenate([v.data.ravel() for v in trainer.params.values()]) - initial
        failures = []
        for i, (log, final, _) in enumerate(self.outputs):
            problems = []
            lines = log.splitlines()
            if lines[:1] != ["epoch,train_mae,val_mae,lr,action"] or len(lines) != len(rows) + 1:
                problems.append(f"log has {len(lines)} lines, expected header + {len(rows)}")
            for line, ref in zip(lines[1:], rows):
                epoch, train_mae, val_mae, lr, action = line.split(",")
                values = (float(train_mae), float(val_mae), float(lr))
                if (int(epoch), action) != (ref[0], ref[4]) or any(
                    abs(v - r) > LOSS_RTOL * abs(r) for v, r in zip(values, ref[1:4])
                ):
                    problems.append(f"row {line!r} vs {ref}")
            err = relative_l2(final - initial, update)
            if err > UPDATE_RTOL:
                problems.append(f"checkpoint weights: update rel err {err:.2e}")
            if problems:
                failures.append(f"op {i}: " + "; ".join(problems))
        self.epochs_run = len(rows)
        # The trained weights the oracle reached are what the checkpoint must hold.
        enhance_failures, detail = check_enhance(
            trainer.params, cfg, oracle.read_wav(self.input), [o[2] for o in self.outputs]
        )
        return failures + enhance_failures, {"reference_rows": rows, "enhance": detail}

    def end_to_end(self, op_times, hooks):
        setups, steps, epochs = [], [], []
        main_start = epoch_start = mark = None
        for name, start, end, *_ in sorted(hooks, key=lambda s: s[1]):
            if name == "cli.main":
                main_start = start
            elif name == "training.train_epoch":
                if main_start is not None:
                    setups.append(start - main_start)
                    main_start = None
                epoch_start = mark = start
            elif name == "tensor.adam_step":
                steps.append(end - mark)
                mark = end
            elif name == "checkpoint.checkpoint_save":
                epochs.append(end - epoch_start)
        train, enhance = zip(*self.parts)
        self.setup_samples = setups
        return {
            "step_s_p50": statistics.median(steps),
            "epoch_s_p50": statistics.median(epochs),
            "train_frames_per_s": self.frames_per_epoch * self.epochs_run * len(train) / sum(train),
            "enhance_rtf": sum(enhance) / (len(enhance) * self.clip_s),
        }


WORKLOADS = {"train_full": TrainFull, "train_desk": TrainDesk}


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer(tracer, n_ops, overhead):
    b = spans.layer_breakdown(tracer.spans)
    c = tracer.counts

    def total(kind, name):
        return b[f"{kind}:{name}"] / n_ops

    m = {}
    for conv in spans.CONVS:
        m[f"tensor.{conv}.fwd_s"] = total("self", f"tensor.{conv}")
        m[f"tensor.{conv}.bwd_s"] = total("self", f"tensor.{conv}.bwd")
        m[f"tensor.{conv}.calls"] = c[f"{conv}.calls"] / n_ops
    m["tensor.conv_macs"] = c["conv_macs"] / n_ops
    m["tensor.conv_bytes"] = c["conv_bytes"] / n_ops
    m["tensor.pointwise.fwd_s"] = sum(total("self", f"tensor.{op}") for op in spans.POINTWISE)
    m["tensor.pointwise.bwd_s"] = sum(total("self", f"tensor.{op}.bwd") for op in spans.POINTWISE)
    for name in ("conv1d", "conv1d_transpose", "pointwise"):
        m[f"tensor.{name}.total_s"] = m[f"tensor.{name}.fwd_s"] + m[f"tensor.{name}.bwd_s"]
    m["tensor.graph_s"] = total("self", "tensor.backward")
    m["tensor.adam_s"] = total("incl", "tensor.adam_step")
    for layer in spans.LAYERS:
        fwd, bwd = total("layer", f"{layer}.fwd"), total("layer", f"{layer}.bwd")
        m[f"model.{layer}.fwd_s"], m[f"model.{layer}.bwd_s"] = fwd, bwd
        m[f"model.{layer}.total_s"] = fwd + bwd
    m["model.stage_forward_s"] = total("incl", "model.stage_forward")
    m["checkpoint.save_s"] = total("incl", "checkpoint.checkpoint_save")
    m["checkpoint.load_s"] = total("incl", "checkpoint.checkpoint_load")
    m["checkpoint.bytes"] = c["checkpoint_bytes"] / n_ops
    for fn in ("read_wav", "write_wav", "frame_signal", "overlap_add"):
        m[f"audio.{fn}_s"] = total("incl", f"audio.{fn}")
    m["mixer.build_dataset_s"] = total("incl", "mixer.build_dataset")
    m["mixer.mix_at_snr_s"] = total("incl", "mixer.mix_at_snr")
    m["training.train_epoch_s"] = total("incl", "training.train_epoch")
    m["training.validate_s"] = total("incl", "training.validate")
    m["trace_overhead"] = overhead
    return m


# ---------------------------------------------------------------------------
# runner


def run(workload, seed, seconds, trace, work):
    """Run one workload; returns (result line dict, full record dict)."""
    w = WORKLOADS[workload](seed, work)
    setup_samples = []
    if not trace and w.setup is not None:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            w.setup()
            setup_samples.append(time.perf_counter() - start)

    tracer = spans.Tracer(full=trace)
    errors, op_times, untraced, attempted = [], [], [], 0
    if getattr(w, "params", None) is not None:
        tracer.register_params(w.params)
    tracer.install()
    try:
        # In a traced run, untraced and traced operations alternate, starting
        # untraced; trace_overhead compares the two.
        while True:
            traced = not trace or len(untraced) > len(op_times)
            tracer.op = len(op_times)
            w.before_op()
            # Each operation starts from a collected heap, as a fresh ftnet
            # process would; otherwise the previous operation's autodiff
            # graphs (reference cycles) are still waiting for the collector.
            gc.collect()
            attempted += 1
            tracer.active = traced
            start = time.perf_counter()
            try:
                value = w.op()
            except Exception as exc:  # a failing operation is counted, not fatal
                errors.append(f"op {attempted - 1}: {type(exc).__name__}: {exc}")
                break
            finally:
                tracer.active = False
            elapsed = time.perf_counter() - start
            if value is not None and not np.isfinite(value):
                errors.append(f"op {attempted - 1}: non-finite loss {value!r}")
            try:
                w.after_op(value)
            except Exception as exc:  # unreadable outputs fail the operation
                errors.append(f"op {attempted - 1}: outputs: {type(exc).__name__}: {exc}")
                break
            (op_times if traced else untraced).append(elapsed)
            # Start another operation only if the measured time would then end
            # nearer to ``seconds`` than it does now.
            measured = sum(op_times) + sum(untraced)
            typical = statistics.median(op_times + untraced)
            enough = len(op_times) >= (1 if trace else MIN_OPS) and measured + typical / 2 >= seconds
            if enough or attempted >= 10000:
                break
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        failures, detail = ([], {}) if errors else w.verify()
    except Exception as exc:  # a gate that cannot run fails every operation
        failures, detail = [f"op {i}: gate: {type(exc).__name__}: {exc}" for i in range(attempted)], {}
    failures = errors + failures
    failed = len({f.split(":", 1)[0] for f in failures})
    correct = not failures
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "op_times": op_times, "untraced_op_times": untraced, "failures": failures, "check": detail}
    metrics = {}
    if correct and trace:
        overhead = statistics.median(op_times) / statistics.median(untraced)
        metrics = per_layer(tracer, len(op_times), overhead)
        record["spans"] = [s[:5] + [s[5][0] if s[5] else None, s[6]] for s in tracer.spans]
    elif correct:
        metrics = w.end_to_end(op_times, tracer.spans)
        setup_samples = setup_samples or w.setup_samples
        metrics["setup_s"] = statistics.median(setup_samples)
        metrics["peak_rss_mb"] = peak_rss_mb
        record["setup_samples"] = setup_samples
    record["metrics"] = metrics
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record


def load_program():
    """Cap BLAS threads, then import numpy, ftnet from src/ and the helpers."""
    nproc = cap_threads()
    global np, ftnet, oracle, spans
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    import ftnet.cli
    import oracle
    import spans

    return nproc


@contextlib.contextmanager
def work_dir():
    """A scratch directory under .bench_out/, removed afterwards."""
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        nproc = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    with work_dir() as work:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    record["env"] = environment(np, nproc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, default=str))
    if line["correct"]:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
        line["metrics"] = {m["name"]: {"value": line["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
