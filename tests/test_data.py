import numpy as np
import pytest

from latref.data import (
    BAND_MARGIN_HZ,
    MixtureSpec,
    SPEAKER_BANDS,
    SPECTRAL_LEAKAGE_MAX,
    build_splits,
    chunk_or_pad,
    load_wav,
    make_dataset,
    make_sample,
    mix_at_snr,
    sample_rng,
    save_wav,
    synth_sources,
)


def short_spec(**kw):
    kw.setdefault("duration", 0.5)
    return MixtureSpec(**kw)


def band_energy(x, rate, lo, hi):
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / rate)
    m = (freqs >= lo) & (freqs <= hi)
    return float(power[m].sum()), float(power.sum())


# ---------------------------------------------------------------------------
# spec validation


def test_defaults():
    spec = MixtureSpec()
    assert spec.sample_rate == 8000
    assert spec.duration == 4.0
    assert spec.num_samples == 32000
    assert spec.speaker_snr_range == (0.0, 5.0)
    assert spec.noise_snr_range == (-3.0, 6.0)
    assert spec.num_sources == 3
    assert spec.speech_count == 2


def test_enhancement_counts():
    spec = MixtureSpec(task="enhancement")
    assert spec.num_sources == 2
    assert spec.speech_count == 1


def test_bad_task_rejected():
    with pytest.raises(ValueError, match="task"):
        MixtureSpec(task="karaoke")


def test_inverted_range_rejected():
    with pytest.raises(ValueError, match="speaker_snr_range"):
        MixtureSpec(speaker_snr_range=(5.0, 0.0))


@pytest.mark.parametrize("key", ["speaker_snr_range", "noise_snr_range"])
@pytest.mark.parametrize("value", [["1", True], [0.0, float("nan")], [float("-inf"), 0.0],
                                   [0, 1, 2], [1.0], 3.0, "05"], ids=repr)
def test_snr_range_needs_two_finite_numbers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a pair of finite numbers"):
        MixtureSpec(**{key: value})


def test_snr_range_takes_integers_and_numpy_scalars():
    spec = MixtureSpec(speaker_snr_range=[np.int64(1), np.float32(2.5)], noise_snr_range=(-3, 6))
    assert spec.speaker_snr_range == (1.0, 2.5) and spec.noise_snr_range == (-3.0, 6.0)
    assert all(type(v) is float for v in spec.speaker_snr_range + spec.noise_snr_range)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_duration_needs_a_finite_number(value):
    with pytest.raises(ValueError, match="duration must be a finite number"):
        MixtureSpec(duration=value)


def test_fractional_sample_count_rejected():
    with pytest.raises(ValueError, match="whole sample"):
        MixtureSpec(duration=0.50001)


def test_overflowing_sample_count_rejected():
    with pytest.raises(ValueError, match="whole sample"):
        MixtureSpec(duration=1e308)  # finite, but 8000 times it is not


def test_negative_rate_and_duration_rejected():
    with pytest.raises(ValueError, match="sample_rate must be >= 1, got -8000"):
        MixtureSpec(sample_rate=-8000, duration=-0.01)
    with pytest.raises(ValueError, match="duration must be positive, got -0.01"):
        MixtureSpec(duration=-0.01)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        MixtureSpec(seed=-1)


# ---------------------------------------------------------------------------
# sources


def test_source_shapes_separation():
    spec = MixtureSpec()
    src = synth_sources(spec, np.random.default_rng(0))
    assert src.shape == (3, 32000)


def test_source_shapes_enhancement():
    spec = MixtureSpec(task="enhancement")
    src = synth_sources(spec, np.random.default_rng(0))
    assert src.shape == (2, 32000)


def test_sources_unit_rms():
    src = synth_sources(short_spec(), np.random.default_rng(3))
    for row in src:
        assert abs(np.sqrt(np.mean(row * row)) - 1.0) < 1e-9


@pytest.mark.parametrize("s", [0, 1])
def test_speech_stays_in_band(s):
    spec = short_spec()
    for trial in range(5):
        src = synth_sources(spec, np.random.default_rng(100 + trial))
        lo, hi = SPEAKER_BANDS[s]
        inside, total = band_energy(src[s], spec.sample_rate, lo, hi)
        assert (total - inside) / total < SPECTRAL_LEAKAGE_MAX


def test_speaker_bands_disjoint():
    (lo0, hi0), (lo1, hi1) = SPEAKER_BANDS
    assert hi0 < lo1
    assert BAND_MARGIN_HZ > 0


def test_cross_band_energy_tiny():
    # speaker 0's energy inside speaker 1's band is negligible
    spec = short_spec()
    src = synth_sources(spec, np.random.default_rng(7))
    inside, total = band_energy(src[0], spec.sample_rate, *SPEAKER_BANDS[1])
    assert inside / total < 0.01


def test_noise_is_lowpassed():
    spec = short_spec()
    src = synth_sources(spec, np.random.default_rng(11))
    low, total = band_energy(src[-1], spec.sample_rate, 0.0, 1200.0)
    assert low / total > 0.6


# ---------------------------------------------------------------------------
# SNR mixing


def test_mix_at_snr_zero_db_equalises_power():
    s1 = np.array([2.0, 0.0])
    s2 = np.array([1.0, 0.0])
    out = mix_at_snr(s1, s2, 0.0)
    assert np.allclose(out, [2.0, 0.0])


def test_mix_at_snr_ten_db():
    s1 = np.array([2.0])
    s2 = np.array([1.0])
    out = mix_at_snr(s1, s2, 10.0)
    # target power is 4 / 10
    assert abs(float(out[0] ** 2) - 0.4) < 1e-12


def test_mix_at_snr_negative_db_boosts():
    s1 = np.array([2.0])
    s2 = np.array([1.0])
    out = mix_at_snr(s1, s2, -3.0)
    assert abs(float(out[0] ** 2) - 4.0 * 10.0 ** 0.3) < 1e-9


def test_mix_at_snr_round_trip():
    rng = np.random.default_rng(0)
    s1 = rng.normal(size=500)
    s2 = rng.normal(size=500)
    for snr in (-3.0, 0.0, 2.5, 6.0):
        out = mix_at_snr(s1, s2, snr)
        got = 10.0 * np.log10(np.sum(s1 * s1) / np.sum(out * out))
        assert abs(got - snr) < 1e-9


def test_mix_at_snr_zero_power_rejected():
    with pytest.raises(ValueError, match="zero-power"):
        mix_at_snr(np.zeros(4), np.ones(4), 0.0)


# ---------------------------------------------------------------------------
# sample assembly


def test_mixture_is_exact_sum():
    sample = make_sample(short_spec(), np.random.default_rng(5))
    assert np.array_equal(sample.mixture, sample.sources.sum(axis=0))


def test_first_speaker_is_louder():
    for trial in range(8):
        sample = make_sample(short_spec(), np.random.default_rng(trial))
        p0 = np.sum(sample.sources[0] ** 2)
        p1 = np.sum(sample.sources[1] ** 2)
        assert p0 >= p1 - 1e-12


def test_metadata_snrs_in_range():
    spec = short_spec()
    sample = make_sample(spec, np.random.default_rng(9))
    lo, hi = spec.speaker_snr_range
    assert lo <= sample.metadata["speaker_snr_db"] <= hi
    lo, hi = spec.noise_snr_range
    assert lo <= sample.metadata["noise_snr_db"] <= hi


def test_metadata_matches_actual_snr():
    spec = short_spec()
    sample = make_sample(spec, np.random.default_rng(13))
    p0 = np.sum(sample.sources[0] ** 2)
    p1 = np.sum(sample.sources[1] ** 2)
    got = 10.0 * np.log10(p0 / p1)
    assert abs(got - sample.metadata["speaker_snr_db"]) < 1e-9


def test_enhancement_sample_has_no_speaker_snr():
    sample = make_sample(short_spec(task="enhancement"), np.random.default_rng(1))
    assert sample.speech_count == 1
    assert "speaker_snr_db" not in sample.metadata
    assert "noise_snr_db" in sample.metadata


# ---------------------------------------------------------------------------
# dataset determinism


def test_dataset_deterministic():
    spec = short_spec(seed=42)
    a = make_dataset(spec, 3, "train")
    b = make_dataset(spec, 3, "train")
    for x, y in zip(a, b):
        assert x.mixture.tobytes() == y.mixture.tobytes()
        assert x.sources.tobytes() == y.sources.tobytes()


def test_samples_independent_of_batch():
    # sample i is the same whether generated alone or within a run
    spec = short_spec(seed=42)
    batch = make_dataset(spec, 4, "val")
    solo = make_sample(spec, sample_rng(spec, "val", 2))
    assert np.array_equal(batch[2].mixture, solo.mixture)


def test_splits_differ():
    spec = short_spec(seed=42)
    splits = build_splits(spec, 2, 2, 2)
    assert len(splits.train) == 2 and len(splits.val) == 2 and len(splits.test) == 2
    assert not np.array_equal(splits.train[0].mixture, splits.val[0].mixture)
    assert not np.array_equal(splits.val[0].mixture, splits.test[0].mixture)


def test_seed_changes_data():
    a = make_dataset(short_spec(seed=1), 1)[0]
    b = make_dataset(short_spec(seed=2), 1)[0]
    assert not np.array_equal(a.mixture, b.mixture)


def test_unknown_split_rejected():
    with pytest.raises(ValueError, match="split"):
        sample_rng(short_spec(), "dev", 0)


# ---------------------------------------------------------------------------
# chunk_or_pad


def test_chunk_exact_length_copies():
    x = np.arange(6.0)
    out = chunk_or_pad(x, 6)
    assert np.array_equal(out, x)
    out[0] = 99.0
    assert x[0] == 0.0


def test_chunk_eval_takes_prefix():
    x = np.arange(8.0)
    assert np.array_equal(chunk_or_pad(x, 4), [0.0, 1.0, 2.0, 3.0])


def test_chunk_random_offset_in_bounds():
    x = np.arange(10.0)
    seen = set()
    for s in range(20):
        out = chunk_or_pad(x, 4, np.random.default_rng(s))
        start = int(out[0])
        seen.add(start)
        assert 0 <= start <= 6
        assert np.array_equal(out, x[start:start + 4])
    assert len(seen) > 1


def test_pad_appends_zeros():
    x = np.array([1.0, 2.0])
    assert np.array_equal(chunk_or_pad(x, 5), [1.0, 2.0, 0.0, 0.0, 0.0])


def test_chunk_multirow():
    x = np.arange(12.0).reshape(2, 6)
    out = chunk_or_pad(x, 3)
    assert np.array_equal(out, [[0.0, 1.0, 2.0], [6.0, 7.0, 8.0]])


def test_chunk_bad_target():
    with pytest.raises(ValueError, match="target length"):
        chunk_or_pad(np.zeros(4), 0)


# ---------------------------------------------------------------------------
# WAV I/O


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, size=400)
    path = tmp_path / "sig.wav"
    save_wav(path, x, 8000)
    y, rate = load_wav(path)
    assert rate == 8000
    assert y.shape == (400,)
    assert np.max(np.abs(y - x)) <= 1.0 / 32768.0


def test_wav_known_bytes(tmp_path):
    path = tmp_path / "ref.wav"
    save_wav(path, [0.0, 0.5, -0.5, -1.0], 8000)
    raw = path.read_bytes()
    # int16 payload: 0, 16384, -16384, -32768 little-endian
    assert raw[-8:] == b"\x00\x00\x00\x40\x00\xc0\x00\x80"
    y, _ = load_wav(path)
    assert np.array_equal(y, np.array([0, 16384, -16384, -32768]) / 32768.0)


def test_wav_clips_out_of_range(tmp_path):
    path = tmp_path / "hot.wav"
    save_wav(path, [2.0, -2.0], 8000)
    y, _ = load_wav(path)
    assert np.array_equal(y, np.array([32767, -32768]) / 32768.0)


def test_wav_all_zero_ok(tmp_path):
    path = tmp_path / "zero.wav"
    save_wav(path, np.zeros(16), 8000)
    y, _ = load_wav(path)
    assert np.array_equal(y, np.zeros(16))


def test_wav_wrong_rate_rejected(tmp_path):
    path = tmp_path / "fast.wav"
    save_wav(path, np.zeros(8), 16000)
    with pytest.raises(ValueError, match="sample rate"):
        load_wav(path, expected_rate=8000)
    y, rate = load_wav(path)  # fine when no expectation given
    assert rate == 16000


def test_wav_stereo_rejected(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00" * 8)
    with pytest.raises(ValueError, match="channel count"):
        load_wav(path)


def test_wav_8bit_rejected(tmp_path):
    import wave

    path = tmp_path / "thin.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(8000)
        fh.writeframes(b"\x80" * 8)
    with pytest.raises(ValueError, match="sample width"):
        load_wav(path)
