"""Binary checkpoint container for weights, Adam moments, and run state.

Layout, all little-endian:

    bytes 0..3    magic "FTNC"
    bytes 4..7    format version (uint32)
    bytes 8..15   header length H (uint64)
    H bytes       JSON header: config, train_state, parameter index
                  (name, shape, step_count per entry), payload_bytes
    payload       per parameter, in index order: values, then first and
                  second Adam moments, each as raw float64

The header JSON is serialized with sorted keys and no whitespace and the
container carries no timestamps, so saving the same state twice produces
byte-identical files and a save -> load -> save round trip is exact.
Saving writes ``<path>.tmp`` beside the target, syncs it and renames it
over the target, so a crash mid-save leaves the previous checkpoint whole.
"""

import json
import os
import struct

import numpy as np

from .errors import FormatError
from .model import ModelConfig, build_model
from .training import TrainState

__all__ = ["MAGIC", "VERSION", "checkpoint_save", "checkpoint_load"]

MAGIC = b"FTNC"
VERSION = 1


def _param_payload(p):
    return (
        p.tensor.data.astype("<f8", copy=False).tobytes(),
        p.m.astype("<f8", copy=False).tobytes(),
        p.v.astype("<f8", copy=False).tobytes(),
    )


def checkpoint_save(params, state, path):
    """Write params + state to path atomically; same inputs give same bytes."""
    index = []
    chunks = []
    payload_bytes = 0
    for name, p in params.items():
        index.append({"name": name, "shape": list(p.tensor.shape), "step_count": p.step_count})
        for chunk in _param_payload(p):
            chunks.append(chunk)
            payload_bytes += len(chunk)
    header = {
        "config": params.config.to_dict(),
        "train_state": state.to_dict(),
        "params": index,
        "payload_bytes": payload_bytes,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def checkpoint_load(path):
    """Read a container back into (FTNetParams, TrainState).

    Any structural problem (bad magic, unknown version, truncation, index
    not matching the config's parameter set) raises FormatError without
    returning partial state.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint container")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (expected {VERSION})")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        state = TrainState.from_dict(header["train_state"])
        index = header["params"]
        payload_bytes = int(header["payload_bytes"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed header ({exc})") from None
    payload = raw[16 + header_len :]
    if len(payload) != payload_bytes:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {payload_bytes}"
        )

    params = build_model(config)
    names = params.names()
    if [entry.get("name") for entry in index] != names:
        raise FormatError(f"{path}: parameter index does not match the config's layout")
    offset = 0
    for entry in index:
        p = params[entry["name"]]
        shape = tuple(int(s) for s in entry["shape"])
        if shape != p.tensor.shape:
            raise FormatError(
                f"{path}: {entry['name']} stored as {shape}, expected {p.tensor.shape}"
            )
        count = int(np.prod(shape))
        span = count * 8
        if offset + 3 * span > len(payload):
            raise FormatError(f"{path}: truncated payload at {entry['name']}")
        for target in ("data", "m", "v"):
            block = np.frombuffer(payload[offset : offset + span], dtype="<f8").reshape(shape)
            if target == "data":
                p.tensor.data = block.copy()
            elif target == "m":
                p.m = block.copy()
            else:
                p.v = block.copy()
            offset += span
        p.step_count = int(entry["step_count"])
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return params, state
