"""WAV round trips and the frame/overlap-add inverse pair."""

import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnet import audio
from ftnet.errors import DegenerateSignalError, FormatError, UsageError

RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# wav io


def test_write_read_roundtrip_within_one_step(tmp_path):
    clip = RNG.uniform(-0.9, 0.9, size=4000)
    path = tmp_path / "clip.wav"
    audio.write_wav(path, clip)
    back, rate = audio.read_wav(path)
    assert rate == 16000
    assert back.shape == clip.shape
    assert np.max(np.abs(back - clip)) <= 1.0 / 32768


def test_integer_levels_survive_roundtrip_exactly(tmp_path):
    levels = np.array([-32768, -12345, -1, 0, 1, 777, 32767])
    clip = levels / 32768
    path = tmp_path / "levels.wav"
    audio.write_wav(path, clip)
    back, _ = audio.read_wav(path)
    np.testing.assert_array_equal(back * 32768, levels)


def test_quantization_rounds_half_away_from_zero(tmp_path):
    # +-0.5 steps must move outward, not toward even.
    clip = np.array([0.5, -0.5, 1.5, -2.5]) / 32768
    path = tmp_path / "half.wav"
    audio.write_wav(path, clip)
    back, _ = audio.read_wav(path)
    np.testing.assert_array_equal(back * 32768, [1.0, -1.0, 2.0, -3.0])


def test_out_of_range_values_clamp(tmp_path):
    path = tmp_path / "hot.wav"
    audio.write_wav(path, np.array([2.0, -2.0, 1.0]))
    back, _ = audio.read_wav(path)
    np.testing.assert_array_equal(back * 32768, [32767.0, -32768.0, 32767.0])


def test_write_rejects_non_finite_samples_before_creating_the_file(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        path = tmp_path / "bad.wav"
        with pytest.raises(DegenerateSignalError, match="not finite"):
            audio.write_wav(path, np.array([0.0, bad, 0.5]))
        assert not path.exists()


def test_custom_sample_rate_roundtrips(tmp_path):
    path = tmp_path / "sr.wav"
    audio.write_wav(path, np.zeros(10), sample_rate=8000)
    _, rate = audio.read_wav(path)
    assert rate == 8000


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(2)
        wav.setsampwidth(2)
        wav.setframerate(16000)
        wav.writeframes(b"\x00\x00" * 8)
    with pytest.raises(FormatError):
        audio.read_wav(path)


def test_eight_bit_rejected(tmp_path):
    path = tmp_path / "8bit.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(1)
        wav.setframerate(16000)
        wav.writeframes(b"\x00" * 8)
    with pytest.raises(FormatError):
        audio.read_wav(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"this is not a wav file at all")
    with pytest.raises(FormatError):
        audio.read_wav(path)


def test_write_rejects_matrix_input(tmp_path):
    with pytest.raises(UsageError):
        audio.write_wav(tmp_path / "x.wav", np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# framing


def test_four_second_clip_frame_count():
    batch = audio.frame_signal(np.zeros(64000), frame_len=2048, hop=256)
    assert len(batch) == 243
    assert batch.frames.shape == (243, 1, 2048)


def test_short_clip_yields_one_padded_frame():
    clip = RNG.standard_normal(1000)
    batch = audio.frame_signal(clip, frame_len=2048, hop=256)
    assert len(batch) == 1
    np.testing.assert_array_equal(batch.frames[0, 0, :1000], clip)
    np.testing.assert_array_equal(batch.frames[0, 0, 1000:], 0.0)
    assert batch.original_length == 1000


def test_exact_frame_length_yields_one_frame():
    batch = audio.frame_signal(np.ones(2048), frame_len=2048, hop=256)
    assert len(batch) == 1


def test_one_extra_sample_adds_a_frame():
    batch = audio.frame_signal(np.ones(2049), frame_len=2048, hop=256)
    assert len(batch) == 2


def test_frames_are_shifted_copies():
    clip = np.arange(600, dtype=np.float64)
    batch = audio.frame_signal(clip, frame_len=256, hop=64)
    for i in range(len(batch)):
        window = np.zeros(256)
        chunk = clip[i * 64 : i * 64 + 256]
        window[: chunk.size] = chunk
        np.testing.assert_array_equal(batch.frames[i, 0], window)


def test_frame_rejects_empty_and_bad_args():
    with pytest.raises(UsageError):
        audio.frame_signal(np.array([]))
    with pytest.raises(UsageError):
        audio.frame_signal(np.zeros(10), frame_len=0)
    with pytest.raises(UsageError):
        audio.frame_signal(np.zeros(10), hop=0)


# ---------------------------------------------------------------------------
# overlap-add


def test_overlap_add_inverts_framing():
    for n in (1, 100, 1000, 2047, 2048, 2049, 64000):
        clip = RNG.standard_normal(n)
        back = audio.overlap_add(audio.frame_signal(clip, 2048, 256))
        assert back.shape == clip.shape
        assert np.max(np.abs(back - clip)) <= 1e-6, n


def test_overlap_add_interior_coverage_is_uniform():
    # With frame_len / hop = 8, interior samples appear in exactly 8 frames.
    batch = audio.frame_signal(np.ones(64000), 2048, 256)
    n_frames, _, frame_len = batch.frames.shape
    count = np.zeros((n_frames - 1) * batch.hop + frame_len)
    for i in range(n_frames):
        count[i * batch.hop : i * batch.hop + frame_len] += 1
    assert count[frame_len : -frame_len].min() == 8
    assert count[frame_len : -frame_len].max() == 8


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5000),
    frame_len=st.integers(min_value=8, max_value=512),
    hop=st.integers(min_value=1, max_value=512),
)
def test_roundtrip_identity_for_any_geometry(n, frame_len, hop):
    clip = np.random.default_rng(n).standard_normal(n)
    back = audio.overlap_add(audio.frame_signal(clip, frame_len, min(hop, frame_len)))
    assert back.shape == clip.shape
    assert np.max(np.abs(back - clip)) <= 1e-9
