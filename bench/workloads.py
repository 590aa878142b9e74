"""The three benchmark workloads: their inputs, their ops and the checks on them.

Every input is built from the seed passed in: the corpus comes from
``data.build_splits``, parameters and gate from generators seeded with it.
An op is one optimizer step on a batch of four 1 s items (training
workloads) or one 1 s clip through the adaptive separator (inference).

Functions of latref are called through their modules (``training.adam_step``,
not an imported name), so that a tracer patching those modules sees them.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from latref import data, diffcore, gating, losses, sepmodel, training

SAMPLE_RATE = 8000
DURATION_S = 1.0
NUM_SAMPLES = int(SAMPLE_RATE * DURATION_S)
BATCH = 4
NUM_TRAIN = 16  # four optimizer steps per epoch

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Loss and gradient norm of the first step may move by reordered float64
# sums (about 1e-14 relative); a wrong gradient moves them far more.
REFERENCE_RTOL = 1e-9

# Inference: clips are drawn until each exit depth g has this many clips
# whose gate decisions clear the margin, so no last-bit change flips them.
# The first 64 clips suffice for about 95% of seeds (seeds 0..119 needed at
# most 96), so set-up cost barely depends on the seed.
CLIPS_PER_DEPTH = 2
CLIP_CHUNK = 64
MAX_CLIPS = 256
GATE_MARGIN = 1e-6

WORKLOADS = ("train_e2e", "train_progressive", "infer_adaptive")


def desk_config(blocks=None) -> sepmodel.SeparationConfig:
    """The README desk model: one block of 2 sub-blocks x 4 iterations."""
    return sepmodel.SeparationConfig(
        enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32, num_sources=3,
        blocks=blocks or [sepmodel.BlockSpec(sub_blocks=2, iterations=4)],
        sub_scales=3, sub_kernel=5,
    )


def progressive_config() -> sepmodel.SeparationConfig:
    """Two distinct blocks of 2 sub-blocks x 2 iterations: total depth 4."""
    return desk_config([sepmodel.BlockSpec(sub_blocks=2, iterations=2),
                        sepmodel.BlockSpec(sub_blocks=2, iterations=2)])


def train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=1, batch_size=BATCH, lr0=1e-3, lr_decay_every=40,
                                lr_decay_factor=1.0 / 3.0, clip_norm=5.0, seed=seed,
                                augment=True)


def mixture_spec(seed: int) -> data.MixtureSpec:
    return data.MixtureSpec(sample_rate=SAMPLE_RATE, duration=DURATION_S,
                            speaker_snr_range=(0.0, 5.0), noise_snr_range=(-3.0, 6.0),
                            task="separation", seed=seed)


class Corpus:
    """``data.build_splits`` with the time it takes, for data.gen_ms_per_clip."""

    def __init__(self, spec: data.MixtureSpec):
        self.spec = spec
        self.seconds = 0.0
        self.clips = 0

    def splits(self, num_train: int, num_test: int) -> data.DatasetSplits:
        t = perf_counter()
        out = data.build_splits(self.spec, num_train, 0, num_test)
        self.seconds += perf_counter() - t
        self.clips += num_train + num_test
        return out


def peak_traced_mb(fn):
    """(result, tracemalloc peak in MB) of one call, tracing only that call."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


# ---------------------------------------------------------------------------
# Training


@dataclass
class StepResult:
    loss: float
    grad_norm: float  # before clipping
    estimates: list


class StepLoop:
    """The optimizer-step loop of ``training._train_loop``, one step per call.

    It calls the same public functions in the same order and draws from the
    generator in the same order, so whole epochs of it leave parameters
    byte-identical to ``train_end_to_end`` and ``train_progressive`` (the
    benchmark's tests check this).  Epoch-end validation is left out: it
    draws nothing from the generator and changes no parameter.
    """

    def __init__(self, params, train_set, cfg, rng, stage=0, depth=None, freeze=None):
        self.params = params
        self.train_set = train_set
        self.cfg = cfg
        self.rng = rng
        self.stage = stage
        self.depth = depth
        self.speech_count = train_set[0].speech_count
        named = sepmodel.named_parameters(params)
        self.trainable, self.frozen = training.apply_freeze(named, freeze)
        self.state = training.AdamState()
        self.epoch = 0
        self._batches = self._epoch_batches()

    def steps_per_epoch(self) -> int:
        return -(-len(self.train_set) // self.cfg.batch_size)

    def _epoch_batches(self):
        order = self.rng.permutation(len(self.train_set))
        for lo in range(0, len(order), self.cfg.batch_size):
            sources = [self.train_set[int(i)].sources for i in order[lo:lo + self.cfg.batch_size]]
            if self.cfg.augment:
                yield training.augment_batch(sources, self.rng)
            else:
                yield [s.sum(axis=0) for s in sources], sources

    def _next_batch(self):
        try:
            return next(self._batches)
        except StopIteration:
            self.epoch += 1
            self._batches = self._epoch_batches()
            return next(self._batches)

    def step(self) -> StepResult:
        mixtures, sources = self._next_batch()
        lr = training.lr_at_epoch(self.cfg, self.epoch)
        estimates = []
        with diffcore.Tape() as tape:
            acc = None
            for mix, src in zip(mixtures, sources):
                ests, _ = training.run_model(mix, self.params, stage=self.stage, depth=self.depth)
                item_loss = losses.pit_loss(ests, src, self.speech_count).loss
                acc = item_loss if acc is None else acc + item_loss
                estimates.append(ests.data)
            loss = acc * (1.0 / len(mixtures))
            value = loss.item()
            if not np.isfinite(value):
                raise FloatingPointError(f"non-finite loss {value} at epoch {self.epoch}")
            diffcore.backward(tape, loss)
        grads = [
            (name, t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self.trainable
        ]
        grads, norm = training.clip_global_norm(grads, self.cfg.clip_norm)
        training.adam_step(self.state, self.trainable, grads, lr)
        return StepResult(loss=value, grad_norm=norm, estimates=estimates)


def stage_loop(config, params, corpus, cfg, rng, stage: int) -> StepLoop:
    """The step loop of progressive stage ``stage``, set up as
    ``train_progressive`` sets it up."""
    depth = sum(bs.iterations for bs in config.blocks[:stage + 1])
    return StepLoop(params, corpus, cfg, rng, stage=stage, depth=depth,
                    freeze=training.stage_freeze_mask(config, stage))


class TrainWorkload:
    """``train_e2e`` (desk model, one phase) or ``train_progressive``
    (two freeze-trained stages, one phase each)."""

    items_per_op = BATCH
    mem_ops = 1

    def __init__(self, seed: int, progressive: bool):
        self.progressive = progressive
        self.gen = Corpus(mixture_spec(seed))
        self.corpus = self.gen.splits(NUM_TRAIN, 0).train
        self.cfg = train_config(seed)
        if progressive:
            # as train_progressive: one generator for init and every stage
            self.config = progressive_config()
            self.rng = np.random.default_rng(seed)
            self.params = sepmodel.init_params(self.config, self.rng, stages=2)
            self.phases = ["stage0", "stage1"]
        else:
            # as the CLI's train command: init and loop seeded apart
            self.config = desk_config()
            self.params = sepmodel.init_params(self.config, np.random.default_rng(seed))
            self.rng = np.random.default_rng(seed)
            self.phases = ["e2e"]
        self.loop = None
        self.first_step = None

    def begin_phase(self, i: int) -> None:
        """Start phase i and run its untimed warm-up step."""
        if self.progressive:
            self.loop = stage_loop(self.config, self.params, self.corpus, self.cfg, self.rng, i)
        else:
            self.loop = StepLoop(self.params, self.corpus, self.cfg, self.rng)
        self._frozen_ref = [(name, t, t.data.copy()) for name, t in self.loop.frozen]
        result = self.loop.step()
        if i == 0:
            self.first_step = result

    def fingerprint(self):
        """Outputs of set-up that a deterministic rebuild must reproduce."""
        return self.first_step.loss, self.first_step.grad_norm

    def op(self):
        return self.phases[self.loop.stage], self.loop.step()

    def check(self, result: StepResult) -> str | None:
        if not np.isfinite(result.grad_norm):
            return f"non-finite gradient norm {result.grad_norm}"
        for i, ests in enumerate(result.estimates):
            if not np.all(np.isfinite(ests)):
                return f"non-finite estimate for batch item {i}"
        for name, t, ref in self._frozen_ref:
            if not np.array_equal(t.data, ref):
                return f"frozen parameter {name} changed"
        return None

    def clip_fired(self, result: StepResult) -> bool:
        return result.grad_norm > self.cfg.clip_norm

    def analytic_mb(self, phase: int) -> float:
        """memory_account's taped-activation bytes for the phase, in MB."""
        stage = phase if self.progressive else None
        rep = training.memory_account(self.config, BATCH, NUM_SAMPLES, stage=stage)
        return rep.activation_bytes_backward / 1e6


# ---------------------------------------------------------------------------
# Adaptive inference


def infer_model(seed: int):
    """(config, params, gate) of the inference workload, drawn from the seed.

    Residual projections are drawn non-zero (at init they are zero and every
    block is the identity); the gate's process bias is left at zero.
    """
    config = desk_config()
    rng = np.random.default_rng(seed)
    params = sepmodel.init_params(config, rng)
    C = config.latent_channels
    for block in params.blocks:
        for sb in block:
            sb.proj.w.data[...] = rng.uniform(-1.0 / np.sqrt(C), 1.0 / np.sqrt(C),
                                              size=sb.proj.w.shape)
    gate = gating.init_gate(C, config.latent_length(NUM_SAMPLES), rng)
    return config, params, gate


def separate_clip(config, params, gate, sample):
    """One inference op: (g, latent, estimates, SI-SDRi) with early exit."""
    v_enc, v = sepmodel.encode(sample.mixture[None, :], params)
    latent, g = gating.adaptive_separate(v, config, params, gate, "infer")
    ests = sepmodel.mask_and_decode(v_enc, latent, 0, params, out_length=NUM_SAMPLES)
    score = losses.eval_speech_sisdri(ests.data, sample.sources, sample.mixture,
                                      sample.speech_count)
    return g, latent.data, ests.data, score


@dataclass
class ClipRef:
    sample: data.Sample
    g: int  # exit depth, from the gate run without early exit
    latent: np.ndarray  # separate(v, depth=g)
    score: float  # SI-SDRi of the estimates decoded from that latent


class InferWorkload:
    """``infer_adaptive``: the seeded desk model and gate, early exit, no tape.

    The gate's process bias is chosen from the seeded clips so that exits
    spread over every depth 0..N.  Ops cycle through CLIPS_PER_DEPTH clips
    of each depth, so every depth carries the same share of ops whatever the
    seed, and an op's work is fixed by its depth.
    """

    items_per_op = 1

    def __init__(self, seed: int):
        self.config, self.params, self.gate = infer_model(seed)
        self.depths = self.config.total_steps() + 1
        self.mem_ops = self.depths
        self.phases = ["infer"]
        self.gen = Corpus(mixture_spec(seed))
        self.beta, clips = self._calibrate()
        self.gate.proj2.b.data[1] = self.beta
        refs = [self._reference(s) for s in clips]
        self.schedule = [r for p in range(CLIPS_PER_DEPTH) for r in refs[p::CLIPS_PER_DEPTH]]
        self._next = 0

    def _gate_gaps(self, pool):
        """Gate logit gap (process minus skip, zero bias) before each step."""
        gaps = np.empty((len(pool), self.depths - 1))
        for c, sample in enumerate(pool):
            _, v = sepmodel.encode(sample.mixture[None, :], self.params)
            for k in range(self.depths - 1):
                z = gating.gate_logits(v, self.gate).data[:, 0]
                gaps[c, k] = z[1] - z[0]
                v = sepmodel.separate(v, self.config, self.params, depth=k + 1, start=k)
        return gaps

    def _calibrate(self):
        """Draw clips in chunks until every depth has CLIPS_PER_DEPTH of them.

        Returns (bias, clips ordered by depth, CLIPS_PER_DEPTH per depth).
        """
        gaps = np.empty((0, self.depths - 1))
        n = 0
        while n < MAX_CLIPS:
            n += CLIP_CHUNK
            pool = self.gen.splits(0, n).test
            gaps = np.vstack([gaps, self._gate_gaps(pool[n - CLIP_CHUNK:])])
            beta, chosen = choose_bias(gaps, self.depths)
            if min(len(c) for c in chosen) >= CLIPS_PER_DEPTH:
                return beta, [pool[i] for c in chosen for i in c[:CLIPS_PER_DEPTH]]
        raise RuntimeError(f"no gate bias spreads exits over 0..{self.depths - 1} "
                           f"within {MAX_CLIPS} clips")

    def _reference(self, sample) -> ClipRef:
        v_enc, v = sepmodel.encode(sample.mixture[None, :], self.params)
        _, g = gating.adaptive_separate(v, self.config, self.params, self.gate, "infer",
                                        early_exit=False)
        latent = sepmodel.separate(v, self.config, self.params, depth=g)
        ests = sepmodel.mask_and_decode(v_enc, latent, 0, self.params, out_length=NUM_SAMPLES)
        score = losses.eval_speech_sisdri(ests.data, sample.sources, sample.mixture,
                                          sample.speech_count)
        return ClipRef(sample, g, latent.data, score)

    def begin_phase(self, i: int) -> None:
        """Warm up with one untimed pass over the clips."""
        for _ in self.schedule:
            self.op()

    def fingerprint(self):
        return self.beta, tuple((r.g, r.score) for r in self.schedule)

    def op(self):
        ref = self.schedule[self._next % len(self.schedule)]
        self._next += 1
        return f"g{ref.g}", (ref, separate_clip(self.config, self.params, self.gate, ref.sample))

    def check(self, result) -> str | None:
        ref, (g, latent, ests, score) = result
        if g != ref.g:
            return f"exit depth {g}, reference {ref.g}"
        if not np.array_equal(latent, ref.latent):
            return f"early-exit latent differs from separate(v, depth={g})"
        if not np.all(np.isfinite(ests)):
            return "non-finite estimate"
        if score != ref.score:
            return f"SI-SDRi {score} differs from reference {ref.score}"
        return None


def choose_bias(gaps: np.ndarray, depths: int):
    """Gate process bias that best spreads exits over 0..depths-1.

    With bias b the gate processes step k when gap_k + b > 0, so a clip
    exits at the first k where gap_k + b <= 0.  Candidates are midpoints
    between sorted -gap values.  A clip counts for its depth only when
    every gap that decides it clears GATE_MARGIN.  Returns (b, clip indices
    per depth) for the b whose scarcest depth has the most clips.
    """
    cuts = np.unique(-gaps.ravel())
    steps = np.arange(depths - 1)
    best = None
    for b in (cuts[1:] + cuts[:-1]) / 2.0:
        proc = gaps + b > 0
        g = np.where(proc.all(axis=1), depths - 1, np.argmin(proc, axis=1))
        deciding = steps[None, :] <= g[:, None]
        clear = np.where(deciding, np.abs(gaps + b), np.inf).min(axis=1) > GATE_MARGIN
        scarcest = np.bincount(g[clear], minlength=depths).min()
        if best is None or scarcest > best[0]:
            best = (scarcest, float(b), g, clear)
    _, b, g, clear = best
    return b, [np.flatnonzero((g == d) & clear).tolist() for d in range(depths)]


# ---------------------------------------------------------------------------
# Construction and the stored reference


def build(name: str, seed: int):
    if name == "train_e2e":
        return TrainWorkload(seed, progressive=False)
    if name == "train_progressive":
        return TrainWorkload(seed, progressive=True)
    if name == "infer_adaptive":
        return InferWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def reference_values(name: str) -> dict:
    """Figures at REFERENCE_SEED that ``reference.json`` stores."""
    wl = build(name, REFERENCE_SEED)
    if name == "infer_adaptive":
        refs = wl.schedule
        return {"beta": wl.beta, "clips": [r.sample.metadata["index"] for r in refs],
                "g": [r.g for r in refs], "sisdri": [r.score for r in refs]}
    wl.begin_phase(0)
    return {"loss": wl.first_step.loss, "grad_norm": wl.first_step.grad_norm}


def check_reference(name: str) -> str | None:
    """Recompute the stored figures; returns a failure message or None.

    The inference check takes the stored bias and clip indices, so it does
    not depend on the calibration.
    """
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    if name == "infer_adaptive":
        config, params, gate = infer_model(REFERENCE_SEED)
        gate.proj2.b.data[1] = ref["beta"]
        pool = data.build_splits(mixture_spec(REFERENCE_SEED), 0, 0, max(ref["clips"]) + 1).test
        for i, g_ref, score_ref in zip(ref["clips"], ref["g"], ref["sisdri"]):
            g, _, _, score = separate_clip(config, params, gate, pool[i])
            if g != g_ref or not np.isclose(score, score_ref, rtol=REFERENCE_RTOL, atol=0.0):
                return (f"reference clip {i}: g={g} SI-SDRi={score!r}, "
                        f"stored g={g_ref} SI-SDRi={score_ref!r}")
        return None
    wl = build(name, REFERENCE_SEED)
    wl.begin_phase(0)
    for key, got in (("loss", wl.first_step.loss), ("grad_norm", wl.first_step.grad_norm)):
        if not np.isclose(got, ref[key], rtol=REFERENCE_RTOL, atol=0.0):
            return f"first-step {key} {got!r}, stored {ref[key]!r}"
    return None
