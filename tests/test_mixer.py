"""SNR mixing math, cut-point statistics, and manifest-driven generation."""

import numpy as np
import pytest
import scipy.stats

from ftnet import audio, mixer
from ftnet.errors import DegenerateSignalError, FormatError, UsageError

RNG = np.random.default_rng(31337)


def unit_energy(n, rng):
    x = rng.standard_normal(n)
    return x / np.sqrt(np.dot(x, x))


# ---------------------------------------------------------------------------
# mix_at_snr


def test_equal_energy_zero_db_gain_is_exactly_one():
    rng = np.random.default_rng(1)
    clean = 0.3 * rng.standard_normal(4000)
    # Sign flips keep every squared term and the summation order identical,
    # so the two energies are equal bit for bit, not just approximately.
    noise = clean * np.where(np.arange(4000) % 2 == 0, 1.0, -1.0)
    result = mixer.mix_at_snr(clean, noise, 0.0)
    assert result.gain == 1.0


def test_equal_energy_minus5_db_gain_closed_form():
    rng = np.random.default_rng(2)
    clean = unit_energy(4000, rng)
    noise = unit_energy(4000, rng)
    result = mixer.mix_at_snr(clean, noise, -5.0)
    assert result.gain == pytest.approx(10 ** 0.25, rel=1e-12)
    assert result.gain == pytest.approx(1.77828, abs=5e-6)


def test_measured_snr_hits_target_within_hundredth_db():
    rng = np.random.default_rng(3)
    for snr in range(-5, 11):
        clean = 0.4 * rng.standard_normal(6000)
        noise = 0.3 * rng.standard_normal(6000)
        result = mixer.mix_at_snr(clean, noise, float(snr))
        measured = 10 * np.log10(np.dot(result.clean, result.clean)
                                 / np.dot(result.noise, result.noise))
        assert abs(measured - snr) <= 0.01


def test_huge_snr_leaves_mixture_near_clean():
    rng = np.random.default_rng(4)
    clean = 0.5 * np.sin(np.arange(2000) / 9.0)  # peak stays below 1
    noise = rng.standard_normal(2000)
    result = mixer.mix_at_snr(clean, noise, 120.0)
    assert result.gain < 1e-5
    assert result.scale == 1.0
    np.testing.assert_allclose(result.mixture, clean, atol=1e-5)


def test_mixture_is_exact_sum_of_returned_components():
    rng = np.random.default_rng(5)
    clean = 0.9 * rng.standard_normal(3000)
    noise = 0.9 * rng.standard_normal(3000)
    result = mixer.mix_at_snr(clean, noise, -5.0)
    np.testing.assert_array_equal(result.mixture, result.clean + result.noise)


def test_peak_normalization_bounds_mixture_and_scales_clean_identically():
    rng = np.random.default_rng(6)
    clean = 0.99 * np.sin(np.arange(4000) / 3.0)
    noise = rng.standard_normal(4000)
    result = mixer.mix_at_snr(clean, noise, -5.0)
    assert np.max(np.abs(result.mixture)) <= 1.0
    assert 0 < result.scale < 1.0
    np.testing.assert_array_equal(result.clean, clean * result.scale)


def test_quiet_mixture_is_left_unscaled():
    rng = np.random.default_rng(7)
    clean = 0.01 * rng.standard_normal(1000)
    noise = 0.01 * rng.standard_normal(1000)
    result = mixer.mix_at_snr(clean, noise, 5.0)
    assert result.scale == 1.0
    np.testing.assert_array_equal(result.clean, clean)


def test_degenerate_inputs_rejected():
    ones = np.ones(100)
    with pytest.raises(DegenerateSignalError):
        mixer.mix_at_snr(np.zeros(100), ones, 0.0)
    with pytest.raises(DegenerateSignalError):
        mixer.mix_at_snr(ones, np.zeros(100), 0.0)
    with pytest.raises(UsageError):
        mixer.mix_at_snr(np.ones(10), np.ones(11), 0.0)


# ---------------------------------------------------------------------------
# measure_snr


def test_measure_snr_roundtrips_mixture():
    rng = np.random.default_rng(8)
    clean = 0.4 * rng.standard_normal(5000)
    noise = 0.4 * rng.standard_normal(5000)
    result = mixer.mix_at_snr(clean, noise, -2.0)
    assert mixer.measure_snr(result.clean, result.mixture) == pytest.approx(-2.0, abs=0.01)


def test_measure_snr_caps_on_exact_match():
    clean = np.sin(np.arange(100) / 7.0)
    assert mixer.measure_snr(clean, clean.copy()) == 100.0


def test_measure_snr_zero_test_gives_zero_db():
    clean = np.sin(np.arange(100) / 7.0)
    assert mixer.measure_snr(clean, np.zeros(100)) == pytest.approx(0.0, abs=1e-12)


def test_measure_snr_rejects_zero_reference():
    with pytest.raises(DegenerateSignalError):
        mixer.measure_snr(np.zeros(10), np.ones(10))


# ---------------------------------------------------------------------------
# cut points


def test_cut_point_single_valid_position():
    bank = mixer.NoiseBank.from_clips([np.ones(500)])
    assert mixer.draw_cut_point(bank, 500, np.random.default_rng(0)) == 0


def test_cut_point_determinism_per_seed():
    bank = mixer.NoiseBank.from_clips([np.ones(10_000)])
    a = [mixer.draw_cut_point(bank, 100, np.random.default_rng(5)) for _ in range(1)]
    draws1 = np.random.default_rng(5)
    draws2 = np.random.default_rng(5)
    seq1 = [mixer.draw_cut_point(bank, 100, draws1) for _ in range(50)]
    seq2 = [mixer.draw_cut_point(bank, 100, draws2) for _ in range(50)]
    assert seq1 == seq2
    assert a[0] == seq1[0]


def test_cut_point_rejects_short_bank():
    bank = mixer.NoiseBank.from_clips([np.ones(99)])
    with pytest.raises(UsageError):
        mixer.draw_cut_point(bank, 100, np.random.default_rng(0))


def test_cut_point_uniformity_chi_square():
    # 1e5 draws over the 100 possible offsets; uniformity must not be rejected.
    bank = mixer.NoiseBank.from_clips([np.ones(199)])
    rng = np.random.default_rng(123)
    draws = [mixer.draw_cut_point(bank, 100, rng) for _ in range(100_000)]
    counts = np.bincount(draws, minlength=100)
    assert counts.size == 100
    _, p = scipy.stats.chisquare(counts)
    assert p > 0.01


# ---------------------------------------------------------------------------
# crop or pad to the target length, through build_dataset


def quiet_pair(clip, target_len=64_000):
    """build_dataset's pair for one clip at 10 dB over a constant noise bed,
    quiet enough that peak normalization leaves the clean target as cut."""
    bank = mixer.NoiseBank.from_clips([np.ones(100_000)])
    manifest = mixer.MixManifest([mixer.MixRecord("clip.wav", 10.0, "train")])
    (pair,) = mixer.build_dataset(manifest, bank, seed=1, target_len=target_len,
                                  clean_loader=lambda path: (clip, 16000))
    assert pair.scale == 1.0
    return pair


def test_long_clip_cropped_to_target():
    rng = np.random.default_rng(9)
    clip = 0.1 * rng.standard_normal(80_000)
    out = quiet_pair(clip).clean
    assert out.size == 64_000
    # The crop must be contiguous: find it in the source.
    starts = np.flatnonzero(np.isclose(clip, out[0]))
    assert any(np.array_equal(clip[s : s + 64_000], out) for s in starts)


def test_short_clip_padded_with_tail_zeros():
    clip = np.full(48_000, 0.5)
    out = quiet_pair(clip).clean
    np.testing.assert_array_equal(out[:48_000], 0.5)
    np.testing.assert_array_equal(out[48_000:], 0.0)


def test_exact_length_clip_unchanged():
    rng = np.random.default_rng(10)
    clip = 0.1 * rng.standard_normal(64_000)
    out = quiet_pair(clip).clean
    np.testing.assert_array_equal(out, clip)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_parse_and_dump_roundtrip():
    text = "a.wav\t-5\ttrain\nb.wav\t10\tval\nc.wav\t-2\ttest\n"
    manifest = mixer.MixManifest.parse(text)
    assert len(manifest) == 3
    assert manifest.records[0] == mixer.MixRecord("a.wav", -5.0, "train")
    assert mixer.MixManifest.parse(manifest.dump()).records == manifest.records


def test_manifest_resolved_columns_roundtrip():
    rec = mixer.MixRecord("a.wav", 3.0, "train", cut_point=4242, crop_start=17)
    manifest = mixer.MixManifest([rec])
    again = mixer.MixManifest.parse(manifest.dump())
    assert again.records == [rec]


def test_manifest_skips_comments_and_blanks():
    text = "# header\n\na.wav\t0\ttrain\n"
    assert len(mixer.MixManifest.parse(text)) == 1


@pytest.mark.parametrize(
    "line",
    [
        "a.wav\t11\ttrain",     # above the train range
        "a.wav\t-6\tval",       # below the range
        "a.wav\t0\ttest",       # test allows only -5 and -2
        "a.wav\t2.5\ttrain",    # fractional dB
        "a.wav\t0\tdev",        # unknown split
        "a.wav\t0",             # missing column
        "a.wav\tloud\ttrain",   # unparsable SNR
        "a.wav\tnan\ttrain",    # not a number
        "a.wav\tinf\tval",      # infinite
        "a.wav\t-inf\ttrain",
    ],
)
def test_manifest_rejects_bad_records(line):
    with pytest.raises(FormatError):
        mixer.MixManifest.parse(line + "\n")


def test_manifest_allows_snr_extremes_per_split():
    text = "a.wav\t-5\ttrain\nb.wav\t10\tval\nc.wav\t-5\ttest\nd.wav\t-2\ttest\n"
    assert len(mixer.MixManifest.parse(text)) == 4


# ---------------------------------------------------------------------------
# build_dataset


def synthetic_loader(bank_of_clips):
    def load(path):
        return bank_of_clips[path], 16000

    return load


def make_fixture(n_records=4, target_len=2000):
    rng = np.random.default_rng(2024)
    clips = {
        f"clip_{i}.wav": mixer.synth_clean(0.15 + 0.05 * i, rng, sample_rate=16000)
        for i in range(n_records)
    }
    records = [
        mixer.MixRecord(f"clip_{i}.wav", float(snr), "train")
        for i, snr in zip(range(n_records), (-5, 0, 5, 10))
    ]
    bank = mixer.NoiseBank.from_clips([mixer.synth_noise(0.8, rng)], seed=11)
    return mixer.MixManifest(records), bank, synthetic_loader(clips), target_len


def test_build_dataset_is_deterministic():
    manifest, bank, loader, target = make_fixture()
    a = list(mixer.build_dataset(manifest, bank, seed=1, clean_loader=loader, target_len=target))
    b = list(mixer.build_dataset(manifest, bank, seed=1, clean_loader=loader, target_len=target))
    assert len(a) == len(b) == 4
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.noisy, pb.noisy)
        np.testing.assert_array_equal(pa.clean, pb.clean)
        assert pa.record == pb.record


def test_build_dataset_snr_within_tenth_db():
    manifest, bank, loader, target = make_fixture()
    for pair in mixer.build_dataset(manifest, bank, seed=2, clean_loader=loader, target_len=target):
        measured = mixer.measure_snr(pair.clean, pair.noisy)
        assert abs(measured - pair.record.snr_db) <= 0.1


def test_build_dataset_resolved_manifest_reproduces_pairs():
    manifest, bank, loader, target = make_fixture()
    first = list(mixer.build_dataset(manifest, bank, seed=3, clean_loader=loader, target_len=target))
    resolved = mixer.MixManifest([p.record for p in first])
    assert all(r.cut_point is not None and r.crop_start is not None for r in resolved)
    # A different seed no longer matters: offsets are pinned.
    second = list(mixer.build_dataset(resolved, bank, seed=999, clean_loader=loader, target_len=target))
    for pa, pb in zip(first, second):
        np.testing.assert_array_equal(pa.noisy, pb.noisy)
        np.testing.assert_array_equal(pa.clean, pb.clean)


def test_build_dataset_additive_model_holds_bitwise():
    manifest, bank, loader, target = make_fixture()
    for pair in mixer.build_dataset(manifest, bank, seed=4, clean_loader=loader, target_len=target):
        noise_seg = bank.samples[pair.record.cut_point : pair.record.cut_point + target]
        rebuilt = pair.clean + (pair.gain * noise_seg) * pair.scale
        np.testing.assert_array_equal(pair.noisy, rebuilt)


def test_build_dataset_records_are_independent_streams():
    # Dropping the first record must not change what the second produces.
    manifest, bank, loader, target = make_fixture()
    full = list(mixer.build_dataset(manifest, bank, seed=5, clean_loader=loader, target_len=target))
    # same record index -> same stream, regardless of how we got there
    solo_manifest = mixer.MixManifest(manifest.records[:1])
    solo = list(mixer.build_dataset(solo_manifest, bank, seed=5, clean_loader=loader, target_len=target))
    np.testing.assert_array_equal(full[0].noisy, solo[0].noisy)


def test_build_dataset_rejects_a_clean_clip_at_another_rate():
    manifest, bank, loader, target = make_fixture()
    at_8k = lambda path: (loader(path)[0], 8000)
    with pytest.raises(FormatError, match="8000 Hz"):
        list(mixer.build_dataset(manifest, bank, seed=0, clean_loader=at_8k, target_len=target))


def test_noise_bank_from_dir_keeps_the_files_sample_rate(tmp_path):
    for name in ("a.wav", "b.wav"):
        audio.write_wav(tmp_path / name, np.full(400, 0.1), sample_rate=8000)
    bank = mixer.NoiseBank.from_dir(tmp_path)
    assert bank.sample_rate == 8000
    assert len(bank) == 800


def test_noise_bank_from_dir_rejects_files_at_different_rates(tmp_path):
    audio.write_wav(tmp_path / "a.wav", np.full(400, 0.1), sample_rate=16000)
    audio.write_wav(tmp_path / "b.wav", np.full(400, 0.1), sample_rate=8000)
    with pytest.raises(FormatError, match="sample rate"):
        mixer.NoiseBank.from_dir(tmp_path)


def test_build_dataset_empty_manifest_yields_nothing():
    bank = mixer.NoiseBank.from_clips([np.ones(100)])
    assert list(mixer.build_dataset(mixer.MixManifest([]), bank, seed=0, target_len=64_000)) == []


def test_build_dataset_missing_file_raises_oserror_with_path():
    bank = mixer.NoiseBank.from_clips([np.ones(100_000)])
    manifest = mixer.MixManifest([mixer.MixRecord("/no/such/file.wav", 0.0, "train")])
    with pytest.raises(OSError, match="file.wav"):
        list(mixer.build_dataset(manifest, bank, seed=0, target_len=64_000))


# ---------------------------------------------------------------------------
# synthesis helpers


def test_synth_signals_are_bounded_and_nontrivial():
    rng = np.random.default_rng(12)
    clean = mixer.synth_clean(0.25, rng)
    noise = mixer.synth_noise(0.25, rng)
    for clip in (clean, noise):
        assert clip.size == 4000
        assert np.max(np.abs(clip)) <= 0.7 + 1e-12
        assert np.std(clip) > 0.01


# A resolved record's offsets are used verbatim, so they must lie where the
# draw could have put them: crop_start in [0, clip - target] (0 for a clip
# shorter than the target, which is padded) and cut_point in [0, bank - target].
@pytest.mark.parametrize("clip_len, cut, crop, named", [
    (2400, 0, 401, "crop_start 401"),
    (2400, 0, -1, "crop_start -1"),
    (1500, 0, 1, "crop_start 1"),
    (2400, 10_801, 0, "cut_point 10801"),
    (2400, -1, 0, "cut_point -1"),
], ids=["crop-past-end", "crop-negative", "crop-on-short-clip", "cut-past-end", "cut-negative"])
def test_build_dataset_rejects_resolved_offsets_outside_their_range(clip_len, cut, crop, named):
    bank = mixer.NoiseBank.from_clips([np.full(12_800, 0.1)])
    manifest = mixer.MixManifest([mixer.MixRecord("a.wav", 0.0, "train", cut, crop)])
    loader = lambda path: (np.full(clip_len, 0.2), 16000)
    with pytest.raises(FormatError, match=rf"record 1 \(a\.wav\): {named} "):
        list(mixer.build_dataset(manifest, bank, seed=0, clean_loader=loader, target_len=2000))


@pytest.mark.parametrize("clip_len, cut, crop", [
    (2400, 0, 0), (2400, 10_800, 400), (1500, 5, 0), (2000, 0, 0),
])
def test_build_dataset_takes_resolved_offsets_at_the_ends_of_their_range(clip_len, cut, crop):
    bank = mixer.NoiseBank.from_clips([np.full(12_800, 0.1)])
    manifest = mixer.MixManifest([mixer.MixRecord("a.wav", 0.0, "train", cut, crop)])
    loader = lambda path: (np.full(clip_len, 0.2), 16000)
    (pair,) = mixer.build_dataset(manifest, bank, seed=0, clean_loader=loader, target_len=2000)
    assert pair.record.cut_point == cut and pair.record.crop_start == crop
    assert pair.clean.size == 2000
