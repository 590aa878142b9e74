"""Synthetic mixtures, chunking, and WAV ingestion.

Speech surrogates are sums of 3-8 amplitude-modulated sinusoid chirps; each
speaker draws from a dedicated frequency band, so two speakers from one draw
stay spectrally separable (leakage outside the own band is bounded by
``SPECTRAL_LEAKAGE_MAX`` of total energy).  Noise is low-pass-filtered
uniform noise (boxcar smoothing), which overlaps the first speaker's band so
enhancement stays non-trivial.  Every source is normalised to unit RMS
before SNR scaling, the first speaker is the louder one, and the emitted
mixture is the exact sum of the emitted source rows.

Generation is pure per (spec, split, index): each sample derives its own
generator from a seed sequence, so datasets are reproducible and safe to
generate in parallel.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
import wave
from dataclasses import dataclass, field

import numpy as np

# Per-speaker chirp bands (Hz) with a guard margin; disjoint by construction.
SPEAKER_BANDS = ((250.0, 1000.0), (1200.0, 2600.0))
BAND_MARGIN_HZ = 50.0
# Max tolerated fraction of a speech surrogate's energy outside its own band.
SPECTRAL_LEAKAGE_MAX = 0.05
# Boxcar length for the noise low-pass; cutoff ~ sample_rate / window.
NOISE_SMOOTH_WIN = 9

_SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}


def check_ints(obj, names, optional=(), prefix: str = ""):
    """Raise ValueError naming the first field of ``obj`` in ``names`` or
    ``optional`` (which may also be None) that holds no integer.  A Python
    or numpy integer passes and is stored as a Python int; a bool or a
    float does not."""
    for name in (*names, *optional):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{prefix}{name} must be an integer, got {value!r}")
        setattr(obj, name, int(value))


def from_mapping(cls, value, path: str = ""):
    """Build dataclass ``cls`` from the JSON object ``value``, strictly.

    A key that is not a field of ``cls`` fails with its dotted path.  A
    field whose type is a dataclass, or a list of one, is read by this
    function one level down, so ``model.blocks[0].x`` is named as such.
    ``path`` names the section: a section's TypeError or ValueError is
    raised as a ValueError naming it, while at the top level (``path``
    empty) the class's own errors pass through unchanged.
    """
    if not isinstance(value, dict):
        raise ValueError(f"config section {path} must be an object, got {value!r}")
    prefix = f"{path}." if path else ""
    unknown = set(value) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config key {prefix}{sorted(unknown)[0]}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, item in value.items():
        kind, sub = hints[key], prefix + key
        elem = typing.get_args(kind)[0] if typing.get_origin(kind) is list else None
        if dataclasses.is_dataclass(kind):
            item = from_mapping(kind, item, sub)
        elif dataclasses.is_dataclass(elem):
            if not isinstance(item, list):
                raise ValueError(f"config section {sub} must be a list, got {item!r}")
            item = [from_mapping(elem, x, f"{sub}[{i}]") for i, x in enumerate(item)]
        kwargs[key] = item
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        if not path:
            raise
        raise ValueError(f"invalid config section {path}: {e}") from e


def _is_finite_real(value) -> bool:
    """An integer or float, Python or numpy, that is finite; not a bool."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def check_floats(obj, names):
    """Raise ValueError naming the first field of ``obj`` in ``names`` that
    holds no finite real number.  An integer or float, Python or numpy,
    passes as it is; a bool, a string, NaN or an infinity does not."""
    for name in names:
        value = getattr(obj, name)
        if not _is_finite_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_float_pair(obj, name):
    """Store field ``name`` of ``obj`` as a tuple of two floats, or raise
    ValueError naming it unless it holds exactly two finite real numbers."""
    value = getattr(obj, name)
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_finite_real, value)):
        raise ValueError(f"{name} must be a pair of finite numbers, got {value!r}")
    setattr(obj, name, tuple(float(v) for v in value))


@dataclass
class MixtureSpec:
    sample_rate: int = 8000
    duration: float = 4.0
    speaker_snr_range: tuple = (0.0, 5.0)
    noise_snr_range: tuple = (-3.0, 6.0)
    task: str = "separation"
    seed: int = 0

    def __post_init__(self):
        check_ints(self, ("sample_rate", "seed"))
        check_floats(self, ("duration",))
        check_float_pair(self, "speaker_snr_range")
        check_float_pair(self, "noise_snr_range")
        if self.task not in ("separation", "enhancement"):
            raise ValueError(f"task must be separation or enhancement, got {self.task!r}")
        for name in ("speaker_snr_range", "noise_snr_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} has lo {lo} > hi {hi}")
        n = self.duration * self.sample_rate
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(f"duration {self.duration}s at {self.sample_rate} Hz is not a whole sample count")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))

    @property
    def num_sources(self) -> int:
        return 3 if self.task == "separation" else 2

    @property
    def speech_count(self) -> int:
        return 2 if self.task == "separation" else 1


@dataclass
class Sample:
    mixture: np.ndarray  # (T,)
    sources: np.ndarray  # (S, T)
    speech_count: int
    metadata: dict


def _unit_rms(x: np.ndarray) -> np.ndarray:
    rms = float(np.sqrt(np.mean(x * x)))
    if rms == 0.0:
        raise ValueError("cannot normalise an all-zero signal")
    return x / rms


def _chirp_voice(n: int, rate: int, band, rng) -> np.ndarray:
    """One speech surrogate: several AM sinusoid chirps inside one band."""
    lo = band[0] + BAND_MARGIN_HZ
    hi = band[1] - BAND_MARGIN_HZ
    t = np.arange(n) / rate
    dur = n / rate
    sig = np.zeros(n)
    for _ in range(int(rng.integers(3, 9))):
        f0 = rng.uniform(lo, hi)
        f1 = rng.uniform(lo, hi)
        phase0 = rng.uniform(0.0, 2.0 * np.pi)
        am_rate = rng.uniform(0.5, 8.0)
        am_phase = rng.uniform(0.0, 2.0 * np.pi)
        depth = rng.uniform(0.2, 0.9)
        inst_phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) / dur * t * t)
        env = 1.0 - depth * 0.5 * (1.0 + np.sin(2.0 * np.pi * am_rate * t + am_phase))
        sig += env * np.sin(inst_phase + phase0)
    return _unit_rms(sig)


def _lowpass_noise(n: int, rng) -> np.ndarray:
    u = rng.uniform(-1.0, 1.0, size=n)
    kernel = np.full(NOISE_SMOOTH_WIN, 1.0 / NOISE_SMOOTH_WIN)
    return _unit_rms(np.convolve(u, kernel, mode="same"))


def synth_sources(spec: MixtureSpec, rng) -> np.ndarray:
    """Unit-RMS source stack; speech rows first, noise last."""
    n = spec.num_samples
    rows = [_chirp_voice(n, spec.sample_rate, SPEAKER_BANDS[s], rng) for s in range(spec.speech_count)]
    rows.append(_lowpass_noise(n, rng))
    return np.stack(rows)


def mix_at_snr(s1: np.ndarray, s2: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale s2 so the power ratio of s1 over the result is snr_db."""
    p1 = float(np.sum(s1 * s1))
    p2 = float(np.sum(s2 * s2))
    if p1 == 0.0 or p2 == 0.0:
        raise ValueError("zero-power input to mix_at_snr")
    scale = np.sqrt(p1 / (p2 * 10.0 ** (snr_db / 10.0)))
    return s2 * scale


def make_sample(spec: MixtureSpec, rng, seed_info=None) -> Sample:
    """Draw one mixture per the SNR recipe; speaker 1 is the louder one."""
    sources = synth_sources(spec, rng)
    meta = {"task": spec.task, "seed": seed_info}
    if spec.speech_count == 2:
        spk_snr = float(rng.uniform(*spec.speaker_snr_range))
        sources[1] = mix_at_snr(sources[0], sources[1], spk_snr)
        meta["speaker_snr_db"] = spk_snr
    noise_snr = float(rng.uniform(*spec.noise_snr_range))
    sources[-1] = mix_at_snr(sources[0], sources[-1], noise_snr)
    meta["noise_snr_db"] = noise_snr
    return Sample(
        mixture=sources.sum(axis=0),
        sources=sources,
        speech_count=spec.speech_count,
        metadata=meta,
    )


def sample_rng(spec: MixtureSpec, split: str, index: int):
    if split not in _SPLIT_TAGS:
        raise ValueError(f"unknown split {split!r}")
    return np.random.default_rng(np.random.SeedSequence((spec.seed, _SPLIT_TAGS[split], index)))


def make_dataset(spec: MixtureSpec, count: int, split: str = "train") -> list[Sample]:
    out = []
    for i in range(count):
        sample = make_sample(spec, sample_rng(spec, split, i), seed_info=[spec.seed, split, i])
        sample.metadata["index"] = i
        out.append(sample)
    return out


@dataclass
class DatasetSplits:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)


def build_splits(spec: MixtureSpec, num_train: int, num_val: int, num_test: int = 0) -> DatasetSplits:
    return DatasetSplits(
        train=make_dataset(spec, num_train, "train"),
        val=make_dataset(spec, num_val, "val"),
        test=make_dataset(spec, num_test, "test"),
    )


def chunk_or_pad(x: np.ndarray, target_len: int, rng=None) -> np.ndarray:
    """Fit a signal to target_len: random chunk when rng given, else offset 0;
    zero-pad at the tail when too short."""
    if target_len < 1:
        raise ValueError(f"target length must be positive, got {target_len}")
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-1]
    if T == target_len:
        return x.copy()
    if T > target_len:
        offset = int(rng.integers(0, T - target_len + 1)) if rng is not None else 0
        return x[..., offset:offset + target_len].copy()
    pad = np.zeros(x.shape[:-1] + (target_len,))
    pad[..., :T] = x
    return pad


# ---------------------------------------------------------------------------
# WAV I/O: 16-bit PCM mono only


def save_wav(path, x, rate: int) -> None:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    q = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(q.tobytes())


def load_wav(path, expected_rate: int | None = None):
    """Returns (samples in [-1, 1), sample_rate); rejects anything that is
    not 16-bit PCM mono at the expected rate."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: channel count {fh.getnchannels()} unsupported, need mono")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: sample width {fh.getsampwidth()} bytes unsupported, need 16-bit")
        if fh.getcomptype() != "NONE":
            raise ValueError(f"{path}: compression type {fh.getcomptype()!r} unsupported, need PCM")
        rate = fh.getframerate()
        if expected_rate is not None and rate != expected_rate:
            raise ValueError(f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz")
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate
