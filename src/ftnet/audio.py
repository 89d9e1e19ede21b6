"""WAV files and the frame/overlap-add round trip.

Clips live in memory as 1-D float64 arrays in [-1, 1]. On disk they are
16-bit PCM mono WAV. Framing slices a clip into fixed-length windows at a
hop, zero-padding the tail; overlap-add averages the overlapping windows
back into a clip of the original length.
"""

import math
import os
import wave

import numpy as np

from .errors import ConfigError, DegenerateSignalError, FormatError, UsageError

__all__ = ["OverlapAdd", "read_wav", "write_wav", "require_rate", "samples", "frame_signal",
           "overlap_add"]

PCM_SCALE = 32768
# The most samples a 16-bit WAV holds: its data chunk counts bytes in 32 bits.
MAX_WAV_SAMPLES = (1 << 31) - 1
# The highest rate a 16-bit WAV header holds: it stores bytes per second in 32 bits.
MAX_SAMPLE_RATE = (1 << 31) - 1


def require_rate(path, rate, want, whose):
    """Reject ``path``'s sample rate unless it is ``want`` (or ``want`` is None, unknown)."""
    if want is not None and rate != want:
        raise FormatError(f"{path}: sample rate {rate} Hz, but {whose} is {want} Hz")


def _check_rate(rate, error, what):
    """Raise ``error`` about ``what`` unless ``rate`` lies in [1, MAX_SAMPLE_RATE] Hz."""
    if not 1 <= rate <= MAX_SAMPLE_RATE:
        raise error(f"{what} must be >= 1 Hz and <= {MAX_SAMPLE_RATE} Hz, got {rate}")


def samples(seconds, rate, name):
    """``seconds`` at ``rate`` Hz in whole samples; a rate a WAV cannot hold
    raises ConfigError, and so do under one sample or more than a 16-bit WAV
    holds, naming ``name``."""
    _check_rate(rate, ConfigError, "sample rate")
    n = int(round(seconds * rate)) if math.isfinite(seconds * rate) else 0
    if n < 1:
        raise ConfigError(f"{name} {seconds} is under one sample at {rate} Hz")
    if n > MAX_WAV_SAMPLES:
        raise ConfigError(f"{name} {seconds} is {n} samples at {rate} Hz, more than a 16-bit WAV "
                          f"holds ({MAX_WAV_SAMPLES})")
    return n


def read_wav(path):
    """Load a mono 16-bit PCM WAV; returns (float64 samples in [-1, 1), rate).

    No more is read than the file holds, whatever its header promises.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            channels, width, rate, n = wav.getparams()[:4]
            if channels != 1:
                raise FormatError(f"{path}: expected mono, got {channels} channels")
            if width != 2:
                raise FormatError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
            _check_rate(rate, FormatError, f"{path}: sample rate")
            raw = wav.readframes(min(n, os.path.getsize(path) // 2))
    except (wave.Error, EOFError, RuntimeError) as exc:  # wave's RuntimeError: a chunk overruns its parent
        raise FormatError(f"{path}: not a readable PCM WAV ({exc or type(exc).__name__})") from None
    if len(raw) != 2 * n:
        raise FormatError(f"{path}: data chunk holds {len(raw)} bytes, header promises {n} samples")
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
    _check_rate(sample_rate, UsageError, "sample rate")
    if not np.isfinite(signal).all():
        raise DegenerateSignalError(f"{path}: clip samples are not finite (NaN or infinity)")
    # On one copy: |x| * 32768 + 0.5, truncated and given x's sign back,
    # rounds half away from zero as trunc(x * 32768 + copysign(0.5, x)) does.
    scaled = np.clip(signal, -1.0, 1.0)
    np.abs(scaled, out=scaled)
    scaled *= PCM_SCALE
    scaled += 0.5
    np.trunc(scaled, out=scaled)
    np.copysign(scaled, signal, out=scaled)
    ints = np.clip(scaled, -PCM_SCALE, PCM_SCALE - 1, out=scaled).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(sample_rate))
        wav.writeframes(ints)


def frame_signal(clip, frame_len=2048, hop=256):
    """Slice a clip into overlapping frames shaped (n_frames, 1, frame_len),
    zero-padding the tail.

    The frame count is ceil(max(n - frame_len, 0) / hop) + 1: every sample
    lands in at least one frame and a clip shorter than one frame still
    yields a single padded frame. A hop longer than frame_len is rejected.
    The frames are a read-only view of the zero-padded clip, not copies.
    """
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 1:
        raise UsageError(f"expected a 1-D clip, got shape {clip.shape}")
    if clip.size == 0:
        raise UsageError("cannot frame an empty clip")
    if frame_len < 1 or hop < 1:
        raise UsageError(f"frame_len and hop must be positive, got {frame_len}, {hop}")
    if hop > frame_len:
        raise UsageError(f"hop {hop} exceeds frame_len {frame_len}: samples would fall in no frame")
    n_frames = -(-max(clip.size - frame_len, 0) // hop) + 1
    padded = np.concatenate([clip, np.zeros((n_frames - 1) * hop + frame_len - clip.size)])
    frames = np.ndarray((n_frames, 1, frame_len), padded.dtype, padded, strides=(8 * hop, 0, 8))
    frames.flags.writeable = False
    return frames


class OverlapAdd:
    """Overlap-add of one clip's frames for each of ``stages`` stages, fed in
    clip order any number at a time; the stages share one coverage count."""

    def __init__(self, n_frames, frame_len, hop, length, stages=1):
        if not 1 <= hop <= frame_len:
            raise UsageError(f"hop {hop} must lie in [1, frame length {frame_len}]")
        self.n_frames, self.frame_len, self.hop, self.length = n_frames, frame_len, hop, length
        self.added = 0
        self.sums = np.zeros((stages, n_frames - 1 + -(-frame_len // hop), hop))
        self.count = np.zeros(self.sums.shape[1:])

    def add(self, first, *stage_frames):
        """Add frames ``first``, ``first + 1``, ... of each stage, shaped (n, 1, frame_len)."""
        if first != self.added:
            raise UsageError(f"frames added from {first}, but frame {self.added} is next")
        n, hop, frame_len = stage_frames[0].shape[0], self.hop, self.frame_len
        # Add every frame's j-th hop-long chunk at once, last chunk first, so
        # each sample sums its frames in frame order: the same float result
        # as adding the frames one by one, however many calls bring them.
        for j in reversed(range(-(-frame_len // hop))):
            width, rows = min(hop, frame_len - j * hop), slice(first + j, first + j + n)
            for acc, frames in zip(self.sums, stage_frames, strict=True):
                acc[rows, :width] += frames[:, 0, j * hop : j * hop + width]
            self.count[rows, :width] += 1.0
        self.added += n

    def clip(self, stage=0):
        """Stage ``stage``'s rebuilt clip, once every frame is in."""
        if self.added != self.n_frames:
            raise UsageError(f"clip read after {self.added} of {self.n_frames} frames")
        return self.sums[stage].ravel()[: self.length] / self.count.ravel()[: self.length]


def overlap_add(frames, hop, length):
    """Rebuild a ``length``-sample clip from frames ``hop`` apart by averaging
    every frame's contribution per sample.

    Rectangular analysis windows make this the exact inverse of
    frame_signal (each covering frame holds an identical copy), so the
    round trip reproduces the clip to float rounding for any hop.
    """
    if frames.ndim != 3 or frames.shape[1] != 1:
        raise UsageError(f"expected frames shaped (n, 1, L), got {frames.shape}")
    total = OverlapAdd(len(frames), frames.shape[2], hop, length)
    total.add(0, frames)
    return total.clip()
