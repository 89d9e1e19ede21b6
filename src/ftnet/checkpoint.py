"""Binary checkpoint container for weights, Adam moments, and run state.

Layout, all little-endian:

    bytes 0..3    magic "FTNC"
    bytes 4..7    format version (uint32)
    bytes 8..15   header length H (uint64)
    H bytes       JSON header: config, train_state, parameter index
                  (name, shape, step_count per entry), payload_bytes
    payload       per parameter, in index order: values, then first and
                  second Adam moments, each as raw float64

Version 2 adds ``sample_rate`` (Hz, or null) to train_state, so that
enhancing can reject audio at another rate than the training audio.
Version 1 files still load, with the rate unknown. A train_state whose
increase counts or best_val disagree with its validation losses, or
whose losses are not all finite, does not load.

The header JSON is serialized with sorted keys and no whitespace and the
container carries no timestamps, so saving the same state twice produces
byte-identical files and a save -> load -> save round trip is exact.
Saving writes ``<path>.tmp`` beside the target, syncs it and renames it
over the target, so a crash mid-save leaves the previous checkpoint whole.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import ConfigError, FormatError
from .model import ModelConfig, build_model, layer_table
from .training import TrainState

__all__ = ["MAGIC", "VERSION", "checkpoint_save", "checkpoint_load"]

MAGIC = b"FTNC"
VERSION = 2


def checkpoint_save(params, state, path):
    """Write params + state to path atomically; same inputs give same bytes."""
    index = [{"name": name, "shape": list(p.shape), "step_count": p.step_count}
             for name, p in params.items()]
    header = {
        "config": params.config.to_dict(),
        "train_state": state.to_dict(),
        "params": index,
        # values, then the two Adam moments, as float64
        "payload_bytes": 3 * 8 * sum(p.data.size for p in params.values()),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for p in params.values():  # each array's own bytes: no copy of the payload
                for values in (p.data, p.m, p.v):
                    fh.write(memoryview(np.ascontiguousarray(values, dtype="<f8")).cast("B"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _count(value, what):
    """A JSON integer >= 0 (not a bool, float or string), else ValueError."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} {value!r} is not a count")
    return value


def _index_entry(entry):
    """(name, shape, step_count) of one parameter index entry."""
    name = entry["name"]
    shape = tuple(_count(s, f"{name}: shape entry") for s in entry["shape"])
    return name, shape, _count(entry["step_count"], f"{name}: step_count")


def checkpoint_load(path):
    """Read a container back into (FTNetParams, TrainState).

    Any structural problem (bad magic, unknown version, truncation, a
    config, train state or index entry that fails its invariants, stored
    counts or best_val that the train state's losses contradict, index not
    matching the config's parameter set) raises FormatError without
    returning partial state.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint container")
    (version,) = struct.unpack("<I", raw[4:8])
    if version not in (1, VERSION):
        raise FormatError(f"{path}: unsupported version {version} (expected 1 or {VERSION})")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        train_state = header["train_state"]
        if version == 1:  # written before checkpoints recorded the training rate
            train_state = {**train_state, "sample_rate": None}
        state = TrainState.from_dict(train_state)
        index = [_index_entry(entry) for entry in header["params"]]
        payload_bytes = _count(header["payload_bytes"], "payload_bytes")
    except (ConfigError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed header ({exc})") from None
    start = 16 + header_len
    if len(raw) - start != payload_bytes:
        raise FormatError(
            f"{path}: payload is {len(raw) - start} bytes, header promises {payload_bytes}"
        )

    # The index must be the config's layout before anything is allocated: a
    # header's sizes alone could ask for any amount of memory.
    layout = [entry for row in layer_table(config) for entry in row.shapes]
    if [name for name, _, _ in index] != [name for name, _ in layout]:
        raise FormatError(f"{path}: parameter index does not match the config's layout")
    end = 0
    for (name, shape, _), (_, expected) in zip(index, layout):
        if shape != expected:
            raise FormatError(f"{path}: {name} stored as {shape}, expected {expected}")
        end += 3 * 8 * math.prod(shape)
        if end > payload_bytes:
            raise FormatError(f"{path}: truncated payload at {name}")
    if end != payload_bytes:
        raise FormatError(f"{path}: {payload_bytes - end} trailing payload bytes")

    # Each entry's values and two Adam moments, viewed in the file's bytes.
    # Copies of the values pass through build_model, which then draws
    # nothing; the moments fill its zeroed arrays in place. So the payload
    # is held about twice at peak.
    payload, stored = np.frombuffer(raw, "<f8", offset=start), []
    for _, shape, _ in index:
        stored.append(payload[: 3 * math.prod(shape)].reshape(3, *shape))
        payload = payload[3 * math.prod(shape) :]
    params = build_model(config, (values.astype(np.float64) for values, _, _ in stored))
    for p, (_, m, v), (_, _, steps) in zip(params.values(), stored, index):
        p.m[...], p.v[...], p.step_count = m, v, steps
    return params, state
