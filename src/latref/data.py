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
import functools
import math
import numbers
import types
import typing
import wave
from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np

# Per-speaker chirp bands (Hz) with a guard margin; disjoint by construction.
SPEAKER_BANDS = ((250.0, 1000.0), (1200.0, 2600.0))
BAND_MARGIN_HZ = 50.0
# Max tolerated fraction of a speech surrogate's energy outside its own band.
SPECTRAL_LEAKAGE_MAX = 0.05
# Boxcar length for the noise low-pass; cutoff ~ sample_rate / window.
NOISE_SMOOTH_WIN = 9

_SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}


def _is_finite_real(value) -> bool:
    """An integer or float, Python or numpy, that is finite as a float; not
    a bool.  An integer past float range (10**400) is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_finite_real, value))


# A field's bound rides on its annotation: the words a message gives it, and its test.
Count = Annotated[int, ">= 0", lambda v: v >= 0]
Size = Annotated[int, ">= 1", lambda v: v >= 1]
Positive = Annotated[float, "positive", lambda v: v > 0]
NonNegative = Annotated[float, ">= 0", lambda v: v >= 0]
Task = Literal["separation", "enhancement"]

# Each plain kind: how a message names it, its test, and how a passing value is stored.
_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool), None),
    int: ("an integer", lambda v: not isinstance(v, bool) and isinstance(v, numbers.Integral), int),
    float: ("a finite number", _is_finite_real, None),
    str: ("a string", lambda v: isinstance(v, str), None),
    tuple[float, float]: ("a pair of finite numbers", _is_pair, lambda v: tuple(map(float, v))),
}


@functools.cache
def _field_kinds(cls) -> dict:
    """Each field of dataclass ``cls`` by its annotation, ``Annotated`` kept;
    read once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _nested(kind):
    """The dataclass a field of ``kind`` holds, itself or as a list, else None."""
    elem = typing.get_args(kind)[0] if typing.get_origin(kind) is list else kind
    return elem if dataclasses.is_dataclass(elem) else None


def _checked(kind, value, key: str, optional: bool = False):
    """``value`` as a field of annotation ``kind`` stores it, or a ValueError
    naming ``key``.  An annotation that is no kind raises TypeError, even
    when an optional field holds None."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        return _checked(next(a for a in args if a is not type(None)), value, key, True)
    if origin is typing.Annotated:
        value = _checked(args[0], value, key, optional)
        words, test = args[1:]
        if value is not None and not test(value):
            raise ValueError(f"{key} must be {words}, got {value}")
        return value
    if origin is typing.Literal:
        words, test, store = ", ".join(args[:-1]) + " or " + args[-1], lambda v: v in args, None
    elif kind in _KINDS:
        words, test, store = _KINDS[kind]
    else:
        raise TypeError(f"{key} has annotation {kind!r}, which check_fields cannot check")
    if optional and value is None:
        return None
    if not test(value):
        raise ValueError(f"{key} must be {words}, got {value!r}")
    value = store(value) if store else value
    if kind == tuple[float, float] and value[0] > value[1]:
        raise ValueError(f"{key} has lo {value[0]} > hi {value[1]}")
    return value


def check_fields(obj, prefix: str = "") -> None:
    """Check every field of dataclass ``obj`` against its annotation, naming
    a bad one as ``prefix`` + its name.

    The annotation is the rule: ``bool``, ``int`` (not a bool; stored as a
    Python int), ``float`` (finite; kept as given), ``str``, ``tuple[float,
    float]`` (an ordered (lo, hi) pair, stored as floats), a ``Literal``,
    and any of these ``| None``.  The bound of a ``Count`` (int >= 0),
    ``Size`` (int >= 1), ``Positive`` (float > 0) or ``NonNegative`` (float
    >= 0) is checked after its type.  A dataclass field, or a list of them,
    is skipped: it checks itself.  Any other annotation is a TypeError, so
    no field goes unchecked.
    """
    for name, kind in _field_kinds(type(obj)).items():
        if _nested(kind) is None:
            setattr(obj, name, _checked(kind, getattr(obj, name), prefix + name))


def from_mapping(cls, value, path: str = ""):
    """Build dataclass ``cls`` from the JSON object ``value``, strictly.

    A key that is not a field of ``cls`` fails with its dotted path.  A
    field whose annotation is a dataclass, or a list of one, is read by
    this function one level down, so ``model.blocks[0].x`` is named as
    such; every other field is checked by the class itself, through
    ``check_fields`` and the same cached annotations.  ``path`` names the
    section: a section's TypeError or ValueError is raised as a ValueError
    naming it, while at the top level (``path`` empty) the class's own
    errors pass through unchanged.
    """
    if not isinstance(value, dict):
        raise ValueError(f"config section {path} must be an object, got {value!r}")
    prefix = f"{path}." if path else ""
    kinds = _field_kinds(cls)
    unknown = set(value) - set(kinds)
    if unknown:
        raise ValueError(f"unknown config key {prefix}{sorted(unknown)[0]}")
    kwargs = {}
    for key, item in value.items():
        kind, nested, sub = kinds[key], _nested(kinds[key]), prefix + key
        if nested is not None and typing.get_origin(kind) is list:
            if not isinstance(item, list):
                raise ValueError(f"config section {sub} must be a list, got {item!r}")
            item = [from_mapping(nested, x, f"{sub}[{i}]") for i, x in enumerate(item)]
        elif nested is not None:
            item = from_mapping(nested, item, sub)
        kwargs[key] = item
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        if not path:
            raise
        raise ValueError(f"invalid config section {path}: {e}") from e


@dataclass
class MixtureSpec:
    sample_rate: Size = 8000
    duration: Positive = 4.0
    speaker_snr_range: tuple[float, float] = (0.0, 5.0)
    noise_snr_range: tuple[float, float] = (-3.0, 6.0)
    task: Task = "separation"
    seed: Count = 0

    def __post_init__(self):
        check_fields(self)
        # a rate past float range has no float product, so no whole count
        n = self.duration * self.sample_rate if _is_finite_real(self.sample_rate) else math.inf
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(f"duration {self.duration}s at {self.sample_rate} Hz is not a whole sample count")

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
