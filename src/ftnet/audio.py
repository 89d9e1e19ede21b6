"""WAV files and the frame/overlap-add round trip.

Clips live in memory as 1-D float64 arrays in [-1, 1]. On disk they are
16-bit PCM mono WAV. Framing slices a clip into fixed-length windows at a
hop, zero-padding the tail; overlap-add averages the overlapping windows
back into a clip of the original length.
"""

import wave
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignalError, FormatError, UsageError

__all__ = ["FrameBatch", "read_wav", "write_wav", "frame_signal", "overlap_add"]

PCM_SCALE = 32768


def read_wav(path):
    """Load a mono 16-bit PCM WAV; returns (float64 samples in [-1, 1), rate)."""
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            n = wav.getnframes()
            raw = wav.readframes(n)
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a readable PCM WAV ({exc})") from None
    if channels != 1:
        raise FormatError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise FormatError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
    ints = np.frombuffer(raw, dtype="<i2")
    return ints.astype(np.float64) / PCM_SCALE, rate


def write_wav(path, signal, sample_rate=16000):
    """Store a float clip as mono 16-bit PCM, clamping to [-1, 1].

    Quantization rounds half away from zero so a later read returns values
    within one step (1/32768) of the clamped input. A clip holding NaN or
    infinity raises DegenerateSignalError before the file is opened.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise UsageError(f"expected a 1-D clip, got shape {signal.shape}")
    if sample_rate <= 0:
        raise UsageError(f"sample rate must be positive, got {sample_rate}")
    if not np.isfinite(signal).all():
        raise DegenerateSignalError(f"{path}: clip samples are not finite (NaN or infinity)")
    clamped = np.clip(signal, -1.0, 1.0)
    scaled = clamped * PCM_SCALE
    ints = np.trunc(scaled + np.copysign(0.5, scaled))
    ints = np.clip(ints, -PCM_SCALE, PCM_SCALE - 1).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(sample_rate))
        wav.writeframes(ints.tobytes())


@dataclass
class FrameBatch:
    """Frames stacked as (n_frames, 1, frame_len), plus what rebuilds the clip."""

    frames: np.ndarray
    hop: int
    original_length: int

    @property
    def frame_len(self):
        return self.frames.shape[2]

    def __len__(self):
        return self.frames.shape[0]


def frame_signal(clip, frame_len=2048, hop=256):
    """Slice a clip into overlapping frames, zero-padding the tail.

    The frame count is ceil(max(n - frame_len, 0) / hop) + 1: every sample
    lands in at least one frame and a clip shorter than one frame still
    yields a single padded frame.
    """
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 1:
        raise UsageError(f"expected a 1-D clip, got shape {clip.shape}")
    if clip.size == 0:
        raise UsageError("cannot frame an empty clip")
    if frame_len < 1 or hop < 1:
        raise UsageError(f"frame_len and hop must be positive, got {frame_len}, {hop}")
    n = clip.size
    n_frames = -(-max(n - frame_len, 0) // hop) + 1
    padded_len = (n_frames - 1) * hop + frame_len
    padded = np.zeros(padded_len)
    padded[:n] = clip
    frames = np.empty((n_frames, 1, frame_len))
    for i in range(n_frames):
        frames[i, 0, :] = padded[i * hop : i * hop + frame_len]
    return FrameBatch(frames=frames, hop=hop, original_length=n)


def overlap_add(batch):
    """Rebuild the clip by averaging every frame's contribution per sample.

    Rectangular analysis windows make this the exact inverse of
    frame_signal (each covering frame holds an identical copy), so the
    round trip reproduces the clip to float rounding for any hop.
    """
    frames, hop, n = batch.frames, batch.hop, batch.original_length
    if frames.ndim != 3 or frames.shape[1] != 1:
        raise UsageError(f"expected frames shaped (n, 1, L), got {frames.shape}")
    n_frames, _, frame_len = frames.shape
    padded_len = (n_frames - 1) * hop + frame_len
    acc = np.zeros(padded_len)
    count = np.zeros(padded_len)
    for i in range(n_frames):
        acc[i * hop : i * hop + frame_len] += frames[i, 0, :]
        count[i * hop : i * hop + frame_len] += 1.0
    return (acc / count)[:n]
