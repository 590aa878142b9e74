"""Optimization drivers: end-to-end training, progressive freeze-training,
and joint gate fine-tuning, plus the backward-memory account.

A regime is the progressive stage it trains: ``None`` for end-to-end and
gated training, ``i`` for stage i.  Three functions map it to what runs:
``SeparationConfig.stage_depth`` (the depth), ``SeparationConfig.head_pairs``
(the heads the tree holds) and ``stage_freeze_mask`` (the frozen set); the
head is ``stage or 0``.  Freezing is by top-level name (``encoder``,
``block1``, ``mask1``, ...) and works through ``requires_grad``: frozen
tensors never cause ops to be taped, so a frozen prefix costs no activation
memory and its parameters are bit-identical after any number of steps.
``memory_account`` reads one taped trace of the regime's own step (the
model at its head and depth under its frozen set, and the PIT loss) twice:
the activations the tape holds for backward, and the peak of that tape's
reverse sweep, the most its held arrays, gradients, memos and rebuilds keep
alive at one node.  A batch's account is that peak per item times the
batch, an upper bound for a training step's whole-batch tape.  So it
follows any change to what a training step keeps; tests pin the held set
against a real training forward and the peak against a real sweep counted
by weak references.  It traces no gate, so for gated fine-tuning it is the
ungated step's account: the blend's held block output B(v), C x L floats
per gated step and item, is not in it.  Its trainable/frozen split, like
parameter counts and stage snapshots (``clone_params``), comes from
``named_parameters`` of a real tree and the stage's frozen set, never from
a hand-kept copy of the tree.

Determinism contract: one generator drives shuffling, chunk offsets,
augmentation, and Gumbel draws in a fixed order, so a seed reproduces
training bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Count, Positive, Size, check_fields, chunk_or_pad
from .diffcore import Tape, alive_elems, backward
from .gating import PENALTY_COEF, PENALTY_TARGET, GateParams, adaptive_separate, gate_named_parameters
from .gating import gate_penalty
from .losses import eval_speech_sisdri, pit_loss
from .sepmodel import (
    ModelParams,
    SeparationConfig,
    _ZeroDraws,
    clone_params,
    encode,
    init_params,
    mask_and_decode,
    named_parameters,
    separate,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: Count = 200
    batch_size: Size = 4
    lr0: Positive = 1e-3
    lr_decay_every: Size = 40
    lr_decay_factor: Positive = 1.0 / 3.0
    clip_norm: Positive = 5.0
    seed: Count = 0
    augment: bool = True
    chunk_len: Size | None = None  # None trains on full-length items

    def __post_init__(self):
        check_fields(self)


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def clip_global_norm(named_grads, max_norm: float):
    """Scale the whole gradient set so its global L2 norm is at most max_norm.

    Returns (grads, pre-clip norm); at or under the bound the input list is
    returned untouched.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    sq = 0.0
    for name, g in named_grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        sq += float(np.sum(g * g))
    norm = float(np.sqrt(sq))
    if norm <= max_norm:
        return named_grads, norm
    scale = max_norm / norm
    return [(name, g * scale) for name, g in named_grads], norm


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(state: AdamState, named_params, named_grads, lr: float) -> None:
    """Bias-corrected Adam update, in place on the parameter tensors."""
    grads = dict(named_grads)
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    for name, p in named_params:
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Freezing


def stage_freeze_mask(config: SeparationConfig, stage: int | None) -> frozenset:
    """The top-level names (``encoder``, ``bottleneck``, ``block<j>``,
    ``mask<j>``, ``dec<j>``) that ``stage`` freezes; ``None`` (end-to-end and
    gated training) freezes nothing.  Stage 0 trains the encoder, and every
    stage trains only its own block and head pair, so no block may alias
    another's parameters."""
    if stage is None:
        return frozenset()
    m = len(config.blocks)
    if not 0 <= stage < m:
        raise ValueError(f"stage {stage} out of range for {m} blocks")
    for i, bs in enumerate(config.blocks):
        if bs.shares_params_with is not None:
            raise ValueError(f"progressive training needs distinct block parameters; "
                             f"block {i} aliases {bs.shares_params_with}")
    frozen = {"encoder", "bottleneck"} if stage > 0 else set()
    for j in range(m):
        if j != stage:
            frozen |= {f"block{j}", f"mask{j}", f"dec{j}"}
    return frozenset(frozen)


def apply_freeze(params_named, frozen: frozenset | None):
    """Freeze each parameter whose top-level name (the first dotted part) is
    in ``frozen`` and let every other one train; returns (trainable, frozen)
    name lists."""
    trainable, held = [], []
    for name, t in params_named:
        t.requires_grad = name.split(".")[0] not in (frozen or ())
        (trainable if t.requires_grad else held).append((name, t))
    return trainable, held


def augment_batch(sources_list, rng):
    """Shuffle each source slot independently across batch items and re-sum.

    Slot identity is preserved (speaker 1 stays speaker 1), so band structure
    and the noise slot survive the shuffle.  Returns (mixtures, sources).
    """
    shapes = {s.shape for s in sources_list}
    if len(shapes) != 1:
        raise ValueError(f"augment_batch needs uniform shapes, got {sorted(shapes)}")
    B = len(sources_list)
    S = sources_list[0].shape[0]
    out = [np.empty_like(sources_list[0]) for _ in range(B)]
    for j in range(S):
        perm = rng.permutation(B)
        for i in range(B):
            out[i][j] = sources_list[perm[i]][j]
    mixtures = [o.sum(axis=0) for o in out]
    return mixtures, out


# ---------------------------------------------------------------------------
# Forward drivers


def run_model(mixture, params: ModelParams, stage: int = 0, depth: int | None = None,
              gate: GateParams | None = None, gate_mode: str = "infer", rng=None):
    """Full chain: encode, refine ``depth`` steps (None: the whole schedule),
    then mask and decode with head pair ``stage``, which is the head index.

    Returns (estimates S x T, g); g is None without a gate, an int in infer
    mode, and a straight-through scalar Tensor in train mode.
    """
    x = mixture if mixture.ndim == 2 else mixture[None, :]
    T = x.shape[1]
    v_enc, v = encode(x, params)
    if gate is None:
        s = separate(v, params.config, params, depth=depth)
        g = None
    else:
        s, g = adaptive_separate(v, params.config, params, gate, gate_mode, rng=rng)
    ests = mask_and_decode(v_enc, s, stage, params, out_length=T)
    return ests, g


def evaluate(params: ModelParams, samples, stage: int | None = None,
             gate: GateParams | None = None):
    """Run each sample through ``run_model`` as regime ``stage`` trains it:
    None runs head 0 over the whole schedule, stage i head i at depth
    ``stage_depth(i)``.  Returns the speech SI-SDR improvements and g values
    (each None without a gate), in sample order."""
    depth = params.config.stage_depth(stage)
    scores, gs = [], []
    for sample in samples:
        ests, g = run_model(sample.mixture, params, stage=stage or 0, depth=depth, gate=gate)
        scores.append(
            eval_speech_sisdri(ests.data, sample.sources, sample.mixture, sample.speech_count)
        )
        gs.append(g)
    return scores, gs


def _batch_items(samples, cfg: TrainConfig, rng):
    order = rng.permutation(len(samples))
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        sources = []
        for i in idx:
            src = samples[int(i)].sources
            if cfg.chunk_len is not None:
                src = chunk_or_pad(src, cfg.chunk_len, rng)
            sources.append(src)
        if cfg.augment:
            mixtures, sources = augment_batch(sources, rng)
        else:
            mixtures = [s.sum(axis=0) for s in sources]
        yield mixtures, sources


def _train_loop(params: ModelParams, train_set, val_set, cfg: TrainConfig,
                stage: int | None = None, gate: GateParams | None = None,
                penalty_coef: float = PENALTY_COEF, penalty_target: float = PENALTY_TARGET,
                rng=None):
    if not train_set:
        raise ValueError("empty training set")
    if not val_set:
        raise ValueError("empty validation set")
    speech_count = train_set[0].speech_count
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    named = named_parameters(params)
    if gate is not None:
        named = named + gate_named_parameters(gate)
    trainable, _ = apply_freeze(named, stage_freeze_mask(params.config, stage))
    head, depth = stage or 0, params.config.stage_depth(stage)
    state = AdamState()
    history = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        losses = []
        for step, (mixtures, sources) in enumerate(_batch_items(train_set, cfg, rng)):
            with Tape() as tape:
                acc = None
                for mix, src in zip(mixtures, sources):
                    ests, g = run_model(mix, params, stage=head, depth=depth,
                                        gate=gate, gate_mode="train", rng=rng)
                    item_loss = pit_loss(ests, src, speech_count).loss
                    if gate is not None:
                        item_loss = item_loss + gate_penalty(g, penalty_coef, penalty_target)
                    acc = item_loss if acc is None else acc + item_loss
                loss = acc * (1.0 / len(mixtures))
                value = loss.item()
                if not np.isfinite(value):
                    raise FloatingPointError(
                        f"non-finite loss {value} at epoch {epoch} step {step}"
                    )
                backward(tape, loss)
            grads = [
                (name, t.grad if t.grad is not None else np.zeros_like(t.data))
                for name, t in trainable
            ]
            grads, _ = clip_global_norm(grads, cfg.clip_norm)
            adam_step(state, trainable, grads, lr)
            losses.append(value)
        scores, gs = evaluate(params, val_set, stage=stage, gate=gate)
        rec = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)),
            "val_sisdri": float(np.mean(scores)),
        }
        if gate is not None:
            rec["mean_g"] = float(np.mean(gs))
        history.append(rec)
    return history


def train_end_to_end(params: ModelParams, train_set, val_set, cfg: TrainConfig, rng=None):
    """Train the whole chain against the permutation-invariant loss.

    Returns the per-epoch history; parameters update in place.
    """
    return _train_loop(params, train_set, val_set, cfg, rng=rng)


@dataclass
class StageResult:
    """A finished progressive stage; its depth is ``config.stage_depth(stage)``."""

    stage: int
    params: ModelParams  # snapshot taken when the stage finished
    history: list


def _stage_epochs(total: int, m: int) -> list[int]:
    """``total`` epochs split over ``m`` progressive stages, at least one each."""
    if total < m:
        raise ValueError(f"{m} progressive stages need at least {m} epochs, got {total}")
    base, rem = divmod(total, m)
    return [base + (1 if i < rem else 0) for i in range(m)]


def train_progressive(config: SeparationConfig, train_set, val_set, cfg: TrainConfig,
                      rng=None) -> list[StageResult]:
    """Freeze-train the blocks one stage at a time.

    Stage 0 trains encoder + block 0 + head pair 0; stage i trains only
    block i and head pair i on top of the frozen prefix.  Each stage gets a
    fresh optimizer and schedule, and returns a deployable snapshot.
    """
    m = len(config.blocks)
    stage_freeze_mask(config, 0)  # raises, before any draw, if a block aliases another
    stage_epochs = _stage_epochs(cfg.epochs, m)
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    params = init_params(config, rng, stages=m)
    results = []
    for stage, epochs in enumerate(stage_epochs):
        stage_cfg = replace(cfg, epochs=epochs)
        history = _train_loop(params, train_set, val_set, stage_cfg, stage=stage, rng=rng)
        results.append(StageResult(stage=stage, params=clone_params(params), history=history))
    return results


def finetune_gate(params: ModelParams, gate: GateParams, train_set, val_set,
                  cfg: TrainConfig, penalty_coef: float = PENALTY_COEF,
                  penalty_target: float = PENALTY_TARGET, rng=None):
    """Jointly train model and gate on separation loss plus the iteration
    penalty; history gains a mean inference-g column."""
    return _train_loop(params, train_set, val_set, cfg, gate=gate, penalty_coef=penalty_coef,
                       penalty_target=penalty_target, rng=rng)


# ---------------------------------------------------------------------------
# Backward-memory account


@dataclass
class MemoryReport:
    trainable_param_bytes: int
    frozen_param_bytes: int
    optimizer_state_bytes: int
    activation_bytes_backward: int  # the sweep's peak per item, with the boundary, x batch
    boundary_elems: int  # frozen-prefix outputs retained at the freeze line
    activation_elems: int  # held per batch item, including the boundary

    @property
    def total_bytes(self) -> int:
        return (self.trainable_param_bytes + self.frozen_param_bytes
                + self.optimizer_state_bytes + self.activation_bytes_backward)


def memory_account(config: SeparationConfig, batch_size: int, T: int,
                   stage: int | None = None) -> MemoryReport:
    """Bytes for one backward pass.

    ``stage=None`` accounts full end-to-end training; ``stage=i`` accounts
    progressive stage i, where everything before block i is frozen and only
    hands over its final latent and the maskable encoding.

    The account is one trace of the regime's own step: ``run_model`` at its
    head and depth with its head pairs, under its ``stage_freeze_mask``, and
    ``pit_loss``, taped on a fresh tree whose weights are zero views, never
    drawn, with zero-valued inputs (the loss against all-ones references,
    since it rejects a zero one) and ``num_sources - 1`` speech sources as
    both tasks have.  ``activation_elems`` is the op outputs that tape holds
    for backward (:meth:`Tape.held_output_elems`), each array once;
    ``activation_bytes_backward`` is the peak of its sweep
    (:func:`alive_elems`) per item, times the batch.  That is an upper
    bound for a training step's whole-batch tape, whose sweep of one item
    keeps the other items' held sets, each below its peak.  A frozen prefix
    tapes nothing, so a later stage adds to both the two arrays it hands
    over.  Parameter scalars are that tree's ``named_parameters``, split by
    the same frozen set.
    """
    if batch_size < 1 or T < 1:
        raise ValueError("batch_size and T must be positive")
    params = init_params(config, _ZeroDraws(), stages=config.head_pairs(stage))
    trainable, frozen = apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
    S = config.num_sources
    with Tape() as tape:
        ests, _ = run_model(np.zeros(T), params, stage=stage or 0,
                            depth=config.stage_depth(stage))
        loss = pit_loss(ests, np.ones((S, T)), S - 1).loss
    boundary = (config.enc_bases + config.latent_channels) * config.latent_length(T) if stage else 0
    act = tape.held_output_elems() + boundary
    peak = max(alive_elems(tape, loss)) + boundary
    trainable_scalars = sum(t.size for _, t in trainable)
    return MemoryReport(
        trainable_param_bytes=8 * trainable_scalars,
        frozen_param_bytes=8 * sum(t.size for _, t in frozen),
        optimizer_state_bytes=16 * trainable_scalars,
        activation_bytes_backward=8 * peak * batch_size,
        boundary_elems=boundary,
        activation_elems=act,
    )
