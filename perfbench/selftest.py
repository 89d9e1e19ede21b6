#!/usr/bin/env python3
"""Self-test for the benchmark itself (a few minutes on two cores).

    python3 perfbench/selftest.py

1. In a traced ``train_full`` step every conv1d / conv1d_transpose call is
   attributed to one of the 16 named layers, and each layer is seen.
2. The per-layer forward self-times add up to the ``stage_forward`` spans,
   short by no more than the tracer's own time inside them.
3. The correctness gate rejects runs in which one convolution's kernel is
   wrong (one tap dropped, or the taps shifted by one sample), on each
   workload, and on ``train_desk`` also when only its ``ftnet enhance``
   step is wrong.
"""

import contextlib
import sys

import run


@contextlib.contextmanager
def wrong_kernel(param_name, mutate, source="build_model"):
    """Make every forward call with the named weight use ``mutate(weight)`` instead.

    The weight is picked out of the parameters that ``source`` returns:
    ``build_model`` for the ones a training run creates, ``checkpoint_load``
    for the ones ``ftnet enhance`` reads back.
    """
    ftnet, T = run.ftnet, run.ftnet.tensor
    targets = {}
    loaders = {"build_model": ftnet.model.build_model, "checkpoint_load": ftnet.checkpoint.checkpoint_load}
    originals = {source: loaders[source], "conv1d": T.conv1d, "conv1d_transpose": T.conv1d_transpose}

    def load(*args, **kwargs):
        result = originals[source](*args, **kwargs)
        params = result[0] if source == "checkpoint_load" else result
        targets[id(params[param_name].tensor)] = params[param_name].tensor
        return result

    def faulty(conv):
        def call(x, weight, *args, **kwargs):
            if targets.get(id(weight)) is not weight:
                return conv(x, weight, *args, **kwargs)
            saved = weight.data
            weight.data = mutate(saved)
            try:
                return conv(x, weight, *args, **kwargs)
            finally:
                weight.data = saved

        return call

    swaps = [(fn, load if name == source else faulty(fn)) for name, fn in originals.items()]
    restore = []
    for name, module in list(sys.modules.items()):
        if name == "ftnet" or name.startswith("ftnet."):
            for attr, value in list(vars(module).items()):
                for old, new in swaps:
                    if value is old:
                        setattr(module, attr, new)
                        restore.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)


def drop_first_tap(w):
    w = w.copy()
    w[:, :, 0] = 0.0
    return w


def shift_one_sample(w):
    return run.np.roll(w, 1, axis=2)


def tracer_time_in_stages(record):
    """The tracer's own time (wrapper work around each span) inside the
    stage_forward spans, per operation. Part of it lands in the self time of
    stage_forward itself, outside every layer."""
    spans, in_stage = record["spans"], []
    for _name, _start, _end, parent, *_ in spans:  # parents come first
        in_stage.append(parent >= 0 and (spans[parent][0] == "model.stage_forward" or in_stage[parent]))
    return sum(s[6] for s, inside in zip(spans, in_stage) if inside) / len(record["op_times"])


def main():
    run.load_program()
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with run.work_dir() as work:
        line, record = run.run("train_full", 7, 0, True, work)
        check(line["correct"], "traced train_full step passes the gate")
        conv_layers = [s[5] for s in record["spans"] if s[0] in ("tensor.conv1d", "tensor.conv1d_transpose")]
        stray = sorted({layer for layer in conv_layers if layer not in run.spans.LAYERS})
        check(not stray and set(conv_layers) == set(run.spans.LAYERS),
              f"{len(conv_layers)} conv calls all on the 16 named layers (stray: {stray})")

        m = record["metrics"]
        layer_fwd = sum(m[f"model.{layer}.fwd_s"] for layer in run.spans.LAYERS)
        stage = m["model.stage_forward_s"]
        allowance = tracer_time_in_stages(record)
        check(0.0 <= stage - layer_fwd <= allowance,
              f"layer forward self-times {layer_fwd:.4f} s vs stage_forward {stage:.4f} s "
              f"(gap {stage - layer_fwd:.2e} s, tracer cost {allowance:.2e} s)")

        faults = [
            ("train_desk", "glu_2.main_conv.weight", drop_first_tap, "build_model"),
            ("train_desk", "conv_rnn.cand_state.weight", shift_one_sample, "build_model"),
            ("train_full", "deconv1d_2.weight", shift_one_sample, "build_model"),
            # wrong only in ftnet enhance, so the enhance check alone must catch it
            ("train_desk", "conv1d_3.weight", drop_first_tap, "checkpoint_load"),
            ("train_desk", "glu_2.main_conv.weight", drop_first_tap, "checkpoint_load"),
            ("train_desk", "conv_rnn.update_in.weight", shift_one_sample, "checkpoint_load"),
        ]
        for workload, param, mutate, source in faults:
            with wrong_kernel(param, mutate, source):
                line, record = run.run(workload, 7, 0, False, work)
            check(not line["correct"] and line["failed"] == line["attempted"] and not line["metrics"],
                  f"gate rejects {workload} with {param} {mutate.__name__} after {source}: "
                  f"{record['failures'][:1]}")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
