"""Noisy/clean pair generation with SNR-controlled mixing.

Noise recordings are concatenated into one long bank; each manifest record
names a clean clip, a target SNR, and a split. Pair generation crops or
pads the clean clip to a fixed duration, cuts a noise segment at a random
(or pinned) offset, scales the noise to hit the target SNR, and peak-
normalizes the mixture with the same scale applied to the clean target so
the additive model survives.

Every record derives its own RNG stream from (seed, record index), so
pairs come out identical whether records are processed serially or in
parallel.
"""

import os
import pathlib
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .audio import read_wav, require_rate, samples
from .errors import ConfigError, DegenerateSignalError, FormatError, UsageError, _read_text

__all__ = [
    "TRAIN_VAL_SNRS",
    "TEST_SNRS",
    "NoiseBank",
    "MixRecord",
    "MixManifest",
    "MixResult",
    "MixedPair",
    "mix_at_snr",
    "measure_snr",
    "build_dataset",
    "synth_samples",
    "synth_clean",
    "synth_noise",
]

TRAIN_VAL_SNRS = frozenset(range(-5, 11))
TEST_SNRS = frozenset({-5, -2})


def _energy(x):
    return float(np.dot(x, x))


@dataclass
class NoiseBank:
    """All noise audio end to end in one vector."""

    samples: np.ndarray
    seed: int = 0
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise UsageError("noise bank needs a non-empty 1-D sample vector")

    def __len__(self):
        return self.samples.size

    @classmethod
    def from_clips(cls, clips, seed=0, sample_rate=16000):
        clips = [np.asarray(c, dtype=np.float64) for c in clips]
        if not clips or any(c.size == 0 for c in clips):
            raise UsageError("noise bank needs at least one non-empty clip")
        return cls(np.concatenate(clips), seed, sample_rate)

    @classmethod
    def from_dir(cls, noise_dir, seed=0):
        """Concatenate every .wav in the directory, sorted by file name.

        The bank takes the files' sample rate; files that disagree on it
        raise FormatError.
        """
        paths = sorted(pathlib.Path(noise_dir).glob("*.wav"))
        if not paths:
            raise UsageError(f"no .wav files under {noise_dir}")
        clips, rates = zip(*(read_wav(p) for p in paths))
        for path, rate in zip(paths, rates):
            require_rate(path, rate, rates[0], f"noise file {paths[0]}")
        return cls.from_clips(clips, seed, rates[0])


@dataclass(frozen=True)
class MixRecord:
    """One manifest line; cut/crop offsets are filled in once drawn."""

    clean_path: str
    snr_db: float
    split: str
    cut_point: Optional[int] = None
    crop_start: Optional[int] = None


class MixManifest:
    """Record list with the per-split SNR policy enforced.

    Text form is tab-separated: ``clean_path<TAB>snr_db<TAB>split``, with
    two extra columns (cut_point, crop_start) once resolved. Blank lines
    and lines starting with # are skipped. In a file, clean paths are
    relative to the file's directory; in memory, to the working directory.
    ``load`` and ``save`` convert, so a saved manifest reads back anywhere.
    """

    def __init__(self, records):
        self.records = list(records)
        for r in self.records:
            self._check(r)

    @staticmethod
    def _check(r):
        if r.split not in ("train", "val", "test"):
            raise FormatError(f"unknown split {r.split!r} for {r.clean_path}")
        snr = r.snr_db
        if not float(snr).is_integer():
            raise FormatError(f"SNR must be a whole dB value, got {snr}")
        allowed = TEST_SNRS if r.split == "test" else TRAIN_VAL_SNRS
        if int(snr) not in allowed:
            raise FormatError(
                f"SNR {snr:g} dB not allowed for split {r.split!r} "
                f"(allowed: {sorted(allowed)})"
            )

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @classmethod
    def parse(cls, text):
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) not in (3, 5):
                raise FormatError(f"line {lineno}: expected 3 or 5 tab-separated columns")
            if "\0" in cols[0]:  # no file can be opened by such a name
                raise FormatError(f"line {lineno}: clean path {cols[0]!r} holds a NUL byte")
            try:
                snr = float(cols[1])
            except ValueError:
                snr = np.nan
            if not np.isfinite(snr):
                raise FormatError(f"line {lineno}: bad SNR value {cols[1]!r}")
            cut = crop = None
            if len(cols) == 5:
                try:
                    cut, crop = int(cols[3]), int(cols[4])
                except ValueError:
                    raise FormatError(f"line {lineno}: bad cut/crop offsets") from None
            records.append(MixRecord(cols[0], snr, cols[2], cut, crop))
        return cls(records)

    @classmethod
    def load(cls, path):
        base = pathlib.Path(path).parent
        records = cls.parse(_read_text(path))
        return cls(replace(r, clean_path=str(base / r.clean_path)) for r in records)

    def dump(self):
        lines = []
        for r in self.records:
            cols = [r.clean_path, f"{r.snr_db:g}", r.split]
            if r.cut_point is not None and r.crop_start is not None:
                cols += [str(r.cut_point), str(r.crop_start)]
            lines.append("\t".join(cols))
        return "\n".join(lines) + "\n"

    def save(self, path):
        base = pathlib.Path(path).parent
        relative = MixManifest(replace(r, clean_path=os.path.relpath(r.clean_path, base)) for r in self)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(relative.dump())


class MixResult(NamedTuple):
    """Mixing output. mixture is the exact float sum clean + noise, where
    clean and noise already carry the shared peak-normalization scale."""

    mixture: np.ndarray
    gain: float
    clean: np.ndarray
    noise: np.ndarray
    scale: float


def mix_at_snr(clean, noise_segment, snr_db):
    """Scale the noise so 10*log10(E_clean / E_noise) hits snr_db, then add.

    If the raw sum's peak exceeds 1, both components are scaled down by the
    same factor (nudged by ulps until the summed peak really is <= 1). The
    returned mixture equals returned clean + returned noise bit for bit.
    """
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise_segment, dtype=np.float64)
    if clean.shape != noise.shape or clean.ndim != 1:
        raise UsageError(
            f"clean and noise must be equal-length 1-D clips, got "
            f"{clean.shape} vs {noise.shape}"
        )
    e_s, e_n = _energy(clean), _energy(noise)
    if e_s == 0.0:
        raise DegenerateSignalError("clean clip has zero energy")
    if e_n == 0.0:
        raise DegenerateSignalError("noise segment has zero energy")
    gain = float(np.sqrt(e_s / (e_n * 10.0 ** (snr_db / 10.0))))
    scaled_noise = gain * noise
    peak = float(np.max(np.abs(clean + scaled_noise)))
    scale = 1.0 if peak <= 1.0 else 1.0 / peak
    while True:
        clean_s = clean * scale
        noise_s = scaled_noise * scale
        mixture = clean_s + noise_s
        if float(np.max(np.abs(mixture))) <= 1.0:
            break
        scale = float(np.nextafter(scale, 0.0))
    return MixResult(mixture=mixture, gain=gain, clean=clean_s, noise=noise_s, scale=scale)


def measure_snr(reference, test, cap=100.0):
    """10*log10(E_ref / E_residual) with residual = test - reference, in dB.

    A residual of exactly zero reports the cap; values above the cap clip
    to it. A zero-energy reference is degenerate.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape or reference.ndim != 1:
        raise UsageError(
            f"reference and test must be equal-length 1-D clips, got "
            f"{reference.shape} vs {test.shape}"
        )
    e_ref = _energy(reference)
    if e_ref == 0.0:
        raise DegenerateSignalError("reference clip has zero energy")
    e_res = _energy(test - reference)
    if e_res == 0.0:
        return float(cap)
    return float(min(10.0 * np.log10(e_ref / e_res), cap))


def _crop_or_pad_at(clip, start, target_len):
    if clip.size >= target_len:
        return clip[start : start + target_len]
    out = np.zeros(target_len)
    out[: clip.size] = clip
    return out


def _offset(rng, carried, size, target_len, label, source):
    """Start of a target_len window in a size-sample source: the carried
    offset, checked against [0, max(size - target_len, 0)], or one drawn
    uniformly over that range. Nothing is drawn when it holds one value."""
    top = max(size - target_len, 0)
    if carried is None:
        return int(rng.integers(0, top + 1)) if top else 0
    if not 0 <= carried <= top:
        raise FormatError(
            f"{label} {carried} outside [0, {top}] "
            f"for a {size}-sample {source} and a {target_len}-sample target"
        )
    return carried


@dataclass
class MixedPair:
    """One emitted (noisy, clean) pair plus everything needed to remake it."""

    noisy: np.ndarray
    clean: np.ndarray
    record: MixRecord
    gain: float
    scale: float
    sample_rate: int


def build_dataset(manifest, bank, seed=None, *, target_len, clean_loader=None):
    """Yield one MixedPair per manifest record, deterministically.

    Record i draws from its own stream seeded (seed, i): first the crop
    start, then the noise cut point, so adding records never shifts
    earlier draws. Records that already carry offsets use them verbatim;
    the yielded record always has both filled in. A clean clip whose
    sample rate differs from the bank's, or a carried offset outside the
    range its draw covers, raises FormatError naming the record; a bank
    shorter than the target raises UsageError before any clip is read,
    unless the manifest is empty.
    """
    if len(manifest) and len(bank) < target_len:
        raise UsageError(f"noise bank ({len(bank)} samples) shorter than needed ({target_len})")
    if seed is None:
        seed = bank.seed
    load = clean_loader if clean_loader is not None else read_wav
    for idx, record in enumerate(manifest):
        rng = np.random.default_rng((seed, idx))
        clip, rate = load(record.clean_path)
        require_rate(record.clean_path, rate, bank.sample_rate, "the noise")
        clip = np.asarray(clip, dtype=np.float64)
        if clip.size == 0:
            raise DegenerateSignalError(f"{record.clean_path}: empty clip")
        named = f"record {idx + 1} ({record.clean_path})"
        crop = _offset(rng, record.crop_start, clip.size, target_len, f"{named}: crop_start", "clip")
        clean = _crop_or_pad_at(clip, crop, target_len)
        cut = _offset(rng, record.cut_point, len(bank), target_len, f"{named}: cut_point", "noise bank")
        noise_seg = bank.samples[cut : cut + target_len]
        result = mix_at_snr(clean, noise_seg, record.snr_db)
        yield MixedPair(
            noisy=result.mixture,
            clean=result.clean,
            record=replace(record, cut_point=cut, crop_start=crop),
            gain=result.gain,
            scale=result.scale,
            sample_rate=rate,
        )


# ---------------------------------------------------------------------------
# synthetic desk-scale signals

# The most samples one generated clip may have (262 s at 16 kHz): each is made whole in memory.
MAX_SYNTH_SAMPLES = 1 << 22


def synth_samples(seconds, rate, name):
    """``audio.samples``, and no more than MAX_SYNTH_SAMPLES, else ConfigError naming ``name``."""
    n = samples(seconds, rate, name)
    if n > MAX_SYNTH_SAMPLES:
        raise ConfigError(f"{name} {seconds} is {n} samples, more than a generated clip may have "
                          f"({MAX_SYNTH_SAMPLES})")
    return n


def synth_clean(duration_s, rng, sample_rate=16000):
    """Speech-like test tone: a few wandering harmonics under a slow envelope."""
    n = synth_samples(duration_s, sample_rate, "duration_s")
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(100.0, 250.0)
    drift = 1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(0.3, 1.0) * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * drift) / sample_rate
    clip = np.zeros(n)
    for h in range(1, 5):
        clip += (1.0 / h) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t + rng.uniform(0, 2 * np.pi))
    clip *= envelope
    return 0.7 * clip / np.max(np.abs(clip))


def synth_noise(duration_s, rng, sample_rate=16000):
    """Colored broadband noise via a one-pole lowpass over white samples."""
    n = synth_samples(duration_s, sample_rate, "duration_s")
    white = rng.standard_normal(n)
    a = rng.uniform(0.8, 0.95)
    colored = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = a * prev + (1.0 - a) * white[i]
        colored[i] = prev
    return 0.7 * colored / np.max(np.abs(colored))
