import tracemalloc
import weakref

import numpy as np
import pytest

import latref.diffcore as dc
import latref.training as training
from latref.data import MixtureSpec, build_splits
from latref.diffcore import Tape, Tensor, backward
from latref.losses import eval_speech_sisdri, pit_loss
from latref.sepmodel import (
    BlockSpec,
    SeparationConfig,
    init_params,
    named_parameters,
)
from latref.training import (
    AdamState,
    TrainConfig,
    adam_step,
    apply_freeze,
    augment_batch,
    clip_global_norm,
    evaluate,
    lr_at_epoch,
    memory_account,
    run_model,
    stage_freeze_mask,
    train_end_to_end,
    train_progressive,
    _stage_epochs,
)


def toy_config(iterations=1, num_blocks=1, share=False):
    blocks = [BlockSpec(sub_blocks=1, iterations=iterations)]
    for i in range(1, num_blocks):
        blocks.append(BlockSpec(sub_blocks=1, iterations=iterations,
                                shares_params_with=0 if share else None))
    return SeparationConfig(enc_bases=12, enc_kernel=8, enc_stride=4,
                            latent_channels=6, num_sources=3, blocks=blocks,
                            sub_scales=2, sub_kernel=3)


def toy_splits(n_train=4, n_val=2, duration=0.05, task="separation", seed=0):
    spec = MixtureSpec(duration=duration, task=task, seed=seed)
    return build_splits(spec, n_train, n_val, 0)


def param_bytes(params):
    return {n: t.data.tobytes() for n, t in named_parameters(params)}


# ---------------------------------------------------------------------------
# config and schedule


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.epochs == 200
    assert cfg.batch_size == 4
    assert cfg.lr0 == 1e-3
    assert cfg.lr_decay_every == 40
    assert cfg.lr_decay_factor == pytest.approx(1.0 / 3.0)
    assert cfg.clip_norm == 5.0
    assert cfg.augment is True


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="lr0"):
        TrainConfig(lr0=0.0)


def test_lr_schedule_worked_values():
    cfg = TrainConfig()
    assert lr_at_epoch(cfg, 0) == 1e-3
    assert lr_at_epoch(cfg, 39) == 1e-3
    assert lr_at_epoch(cfg, 40) == pytest.approx(1e-3 / 3)
    assert lr_at_epoch(cfg, 120) == pytest.approx(1e-3 / 27)


def test_lr_non_increasing():
    cfg = TrainConfig(lr_decay_every=7)
    vals = [lr_at_epoch(cfg, e) for e in range(60)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_lr_negative_epoch():
    with pytest.raises(ValueError, match="epoch"):
        lr_at_epoch(TrainConfig(), -1)


# ---------------------------------------------------------------------------
# clipping


def test_clip_under_norm_untouched():
    grads = [("a", np.array([1.0, 2.0]))]
    out, norm = clip_global_norm(grads, 5.0)
    assert out is grads
    assert norm == pytest.approx(np.sqrt(5.0))


def test_clip_boundary_untouched():
    grads = [("a", np.array([3.0, 4.0]))]
    out, norm = clip_global_norm(grads, 5.0)
    assert out is grads
    assert norm == 5.0


def test_clip_scales_to_bound():
    out, norm = clip_global_norm([("a", np.array([6.0, 8.0]))], 5.0)
    assert norm == 10.0
    assert np.array_equal(out[0][1], [3.0, 4.0])


def test_clip_norm_is_global():
    grads = [("a", np.array([3.0])), ("b", np.array([4.0]))]
    out, norm = clip_global_norm(grads, 2.5)
    assert norm == 5.0
    assert np.allclose([out[0][1][0], out[1][1][0]], [1.5, 2.0])


def test_clip_preserves_direction():
    rng = np.random.default_rng(0)
    g = rng.normal(size=10)
    out, _ = clip_global_norm([("a", g.copy())], 0.5)
    c = out[0][1]
    cos = np.dot(g, c) / (np.linalg.norm(g) * np.linalg.norm(c))
    assert cos == pytest.approx(1.0)
    assert np.linalg.norm(c) <= 0.5 + 1e-12


def test_clip_names_nonfinite_param():
    grads = [("fine", np.ones(2)), ("block0.sub0.w", np.array([np.nan]))]
    with pytest.raises(FloatingPointError, match="block0.sub0.w"):
        clip_global_norm(grads, 5.0)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_grad_no_move():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState()
    adam_step(state, [("p", p)], [("p", np.zeros(2))], lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_magnitude():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    state = AdamState()
    adam_step(state, [("p", p)], [("p", np.array([0.3, -7.0]))], lr=1e-3)
    # bias-corrected first step moves by ~lr against the gradient sign
    assert np.allclose(p.data, [-1e-3, 1e-3], atol=1e-6)


def test_adam_quadratic_descent():
    p = Tensor(np.array([10.0]), requires_grad=True)
    state = AdamState()
    for _ in range(400):
        g = 2.0 * (p.data - 3.0)
        adam_step(state, [("p", p)], [("p", g)], lr=0.1)
    assert abs(float(p.data[0]) - 3.0) < 0.1


def test_adam_moment_shapes_match():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    state = AdamState()
    adam_step(state, [("p", p)], [("p", np.ones((2, 3)))], lr=0.01)
    assert state.m["p"].shape == (2, 3)
    assert state.v["p"].shape == (2, 3)


def test_adam_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="shape"):
        adam_step(AdamState(), [("p", p)], [("p", np.ones(4))], lr=0.01)


# ---------------------------------------------------------------------------
# freezing


def test_freeze_mask_dot_boundary():
    # stage 10 of 11 blocks freezes block1, whose name is a prefix of block10's
    config = toy_config(num_blocks=11)
    named = named_parameters(init_params(config, np.random.default_rng(0), stages=11))
    trainable, frozen = apply_freeze(named, stage_freeze_mask(config, 10))
    assert "block1.sub0.down0.w" in {n for n, _ in frozen}
    assert "block10.sub0.down0.w" in {n for n, _ in trainable}


def test_apply_freeze_flips_requires_grad():
    params = init_params(toy_config(num_blocks=2), np.random.default_rng(0), stages=2)
    named = named_parameters(params)
    trainable, frozen = apply_freeze(named, frozenset({"block0", "encoder"}))
    names_frozen = {n for n, _ in frozen}
    assert "encoder.w" in names_frozen
    assert all(not t.requires_grad for _, t in frozen)
    assert all(t.requires_grad for _, t in trainable)
    # None restores everything
    trainable, frozen = apply_freeze(named, None)
    assert not frozen


def test_stage_freeze_mask_contents():
    config = toy_config(num_blocks=2)
    assert stage_freeze_mask(config, None) == frozenset()
    m0 = stage_freeze_mask(config, 0)
    assert "encoder" not in m0 and "bottleneck" not in m0 and "block0" not in m0
    assert "block1" in m0 and "mask1" in m0 and "dec1" in m0
    m1 = stage_freeze_mask(config, 1)
    assert {"encoder", "bottleneck", "block0", "mask0", "dec0"} <= m1
    assert "block1" not in m1 and "mask1" not in m1 and "dec1" not in m1


# ---------------------------------------------------------------------------
# augmentation


def test_augment_exact_sum():
    rng = np.random.default_rng(0)
    batch = [rng.normal(size=(3, 20)) for _ in range(4)]
    mixtures, sources = augment_batch(batch, np.random.default_rng(1))
    for mix, src in zip(mixtures, sources):
        assert np.array_equal(mix, src.sum(axis=0))


def test_augment_preserves_slot_identity():
    rng = np.random.default_rng(0)
    batch = [rng.normal(size=(3, 20)) for _ in range(4)]
    _, sources = augment_batch(batch, np.random.default_rng(1))
    for j in range(3):
        originals = {b[j].tobytes() for b in batch}
        shuffled = {s[j].tobytes() for s in sources}
        assert shuffled == originals


def test_augment_deterministic():
    rng = np.random.default_rng(0)
    batch = [rng.normal(size=(2, 10)) for _ in range(3)]
    m1, s1 = augment_batch(batch, np.random.default_rng(9))
    m2, s2 = augment_batch(batch, np.random.default_rng(9))
    for a, b in zip(s1, s2):
        assert np.array_equal(a, b)


def test_augment_batch_of_one():
    batch = [np.arange(8.0).reshape(2, 4)]
    mixtures, sources = augment_batch(batch, np.random.default_rng(0))
    assert np.array_equal(sources[0], batch[0])
    assert np.array_equal(mixtures[0], batch[0].sum(axis=0))


def test_augment_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="uniform shapes"):
        augment_batch([np.zeros((2, 4)), np.zeros((2, 5))], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# training loop


def test_one_epoch_smoke():
    splits = toy_splits()
    params = init_params(toy_config(), np.random.default_rng(0))
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
    history = train_end_to_end(params, splits.train, splits.val, cfg)
    assert len(history) == 1
    rec = history[0]
    assert rec["epoch"] == 0
    assert rec["lr"] == 1e-3
    assert np.isfinite(rec["train_loss"])
    assert np.isfinite(rec["val_sisdri"])
    assert "mean_g" not in rec


def test_chunk_len_trains_on_chunks(monkeypatch):
    """Training items are cut to chunk_len; validation keeps full-length items."""
    splits = toy_splits()  # 400-sample items
    seen = []
    real = training.run_model

    def spy(mixture, params, **kw):
        seen.append((kw.get("gate_mode", "infer"), mixture.shape[-1]))
        return real(mixture, params, **kw)

    monkeypatch.setattr(training, "run_model", spy)
    params = init_params(toy_config(), np.random.default_rng(0))
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0, chunk_len=96)
    history = train_end_to_end(params, splits.train, splits.val, cfg)
    assert np.isfinite(history[0]["train_loss"])
    assert [n for mode, n in seen if mode == "train"] == [96] * len(splits.train)
    assert [n for mode, n in seen if mode == "infer"] == [400] * len(splits.val)


def test_training_is_deterministic():
    splits = toy_splits()
    finals = []
    for _ in range(2):
        params = init_params(toy_config(), np.random.default_rng(3))
        cfg = TrainConfig(epochs=2, batch_size=2, seed=11)
        history = train_end_to_end(params, splits.train, splits.val, cfg)
        finals.append((param_bytes(params), history))
    assert finals[0][0] == finals[1][0]
    assert finals[0][1] == finals[1][1]


def test_training_moves_parameters():
    splits = toy_splits()
    params = init_params(toy_config(), np.random.default_rng(0))
    before = param_bytes(params)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
    train_end_to_end(params, splits.train, splits.val, cfg)
    after = param_bytes(params)
    assert before != after


def test_frozen_params_bit_identical():
    # progressive stage 1 takes 4 steps over the frozen set it leaves fixed
    splits = toy_splits()
    config = toy_config(num_blocks=2)
    cfg = TrainConfig(epochs=4, batch_size=2, seed=5)
    stage0, stage1 = train_progressive(config, splits.train, splits.val, cfg)
    before, after = param_bytes(stage0.params), param_bytes(stage1.params)
    frozen = stage_freeze_mask(config, 1)
    for name in before:
        if name.split(".")[0] in frozen:
            assert before[name] == after[name], name
    assert any(before[n] != after[n] for n in before if n.split(".")[0] not in frozen)


def test_nonfinite_loss_reports_context():
    splits = toy_splits()
    params = init_params(toy_config(), np.random.default_rng(0))
    params.encoder.w.data[:] = np.nan
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
    with pytest.raises(FloatingPointError, match="epoch 0"):
        train_end_to_end(params, splits.train, splits.val, cfg)


def test_empty_train_set_rejected():
    params = init_params(toy_config(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        train_end_to_end(params, [], [], TrainConfig(epochs=1))


def test_empty_val_set_rejected_before_training():
    # the validation mean of no items would be nan, which history.jsonl cannot hold
    splits = toy_splits()
    params = init_params(toy_config(), np.random.default_rng(0))
    before = param_bytes(params)
    with pytest.raises(ValueError, match="empty validation set"):
        train_end_to_end(params, splits.train, [], TrainConfig(epochs=1, batch_size=2))
    assert param_bytes(params) == before


def test_desk_run_beats_passthrough():
    # short but real training run; the mixture-as-estimate baseline is 0 dB
    splits = toy_splits(n_train=4, n_val=2, duration=0.1, seed=7)
    config = SeparationConfig(enc_bases=16, enc_kernel=16, enc_stride=8,
                              latent_channels=8, num_sources=3,
                              blocks=[BlockSpec(sub_blocks=1, iterations=2)],
                              sub_scales=2, sub_kernel=3)
    params = init_params(config, np.random.default_rng(1))
    cfg = TrainConfig(epochs=30, batch_size=4, lr0=3e-3, seed=1)
    history = train_end_to_end(params, splits.train, splits.val, cfg)
    assert history[-1]["val_sisdri"] > 0.0


# ---------------------------------------------------------------------------
# progressive


def test_stage_epoch_split():
    assert _stage_epochs(7, 2) == [4, 3]
    assert _stage_epochs(200, 3) == [67, 67, 66]
    assert _stage_epochs(4, 4) == [1, 1, 1, 1]


def test_progressive_gives_every_stage_an_epoch(monkeypatch):
    # one epoch over two stages would leave block 1 and head 1 untrained
    config = toy_config(num_blocks=2)
    splits = toy_splits(n_train=2, n_val=1)

    def no_params(*args, **kwargs):
        raise AssertionError("train_progressive built parameters before checking the epochs")

    monkeypatch.setattr(training, "init_params", no_params)
    for epochs in (0, 1):
        with pytest.raises(ValueError, match=f"2 progressive stages need at least 2 epochs, "
                                             f"got {epochs}"):
            train_progressive(config, splits.train, splits.val, TrainConfig(epochs=epochs))


def test_progressive_rejects_shared_blocks():
    config = toy_config(num_blocks=2, share=True)
    splits = toy_splits(n_train=2, n_val=1)
    with pytest.raises(ValueError, match="distinct"):
        train_progressive(config, splits.train, splits.val, TrainConfig(epochs=2))
    # so no progressive stage of such a model has a memory account either
    with pytest.raises(ValueError, match="block 1 aliases 0"):
        memory_account(config, batch_size=1, T=160, stage=1)


def test_progressive_freezes_prefix():
    splits = toy_splits(n_train=2, n_val=1)
    config = toy_config(num_blocks=2)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=3)
    results = train_progressive(config, splits.train, splits.val, cfg)
    assert [r.stage for r in results] == [0, 1]
    assert [config.stage_depth(r.stage) for r in results] == [1, 2]
    b0 = param_bytes(results[0].params)
    b1 = param_bytes(results[1].params)
    for name in b0:
        if any(name.startswith(p) for p in ("encoder", "bottleneck", "block0", "mask0", "dec0")):
            assert b0[name] == b1[name], name
    assert b0["block1.sub0.proj.w"] != b1["block1.sub0.proj.w"]


def test_progressive_stage1_model_reproduced_by_stage2_params():
    splits = toy_splits(n_train=2, n_val=1)
    config = toy_config(num_blocks=2)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=3)
    results = train_progressive(config, splits.train, splits.val, cfg)
    mix = splits.val[0].mixture
    shallow, _ = run_model(mix, results[0].params, stage=0, depth=1)
    deep_at_shallow, _ = run_model(mix, results[1].params, stage=0, depth=1)
    assert np.array_equal(shallow.data, deep_at_shallow.data)


def test_progressive_histories_cover_all_epochs():
    splits = toy_splits(n_train=2, n_val=1)
    config = toy_config(num_blocks=2)
    cfg = TrainConfig(epochs=3, batch_size=2, seed=0)
    results = train_progressive(config, splits.train, splits.val, cfg)
    assert len(results[0].history) == 2
    assert len(results[1].history) == 1


# ---------------------------------------------------------------------------
# memory accounting


MEMORY_CONFIGS = {
    # latent length 40, halved to 20 and 10
    "toy": (toy_config(iterations=2, num_blocks=2), 160),
    # odd T; six scales take the latent length 41 down to 21, 11, 6, 3, 2, 1
    "odd_deep": (SeparationConfig(enc_bases=12, enc_kernel=8, enc_stride=4,
                                  latent_channels=6, num_sources=3,
                                  blocks=[BlockSpec(sub_blocks=2, iterations=2),
                                          BlockSpec(sub_blocks=1, iterations=3)],
                                  sub_scales=6, sub_kernel=3), 161),
    # block 1 applies block 0's parameters; progressive training rejects it
    "shared": (SeparationConfig(enc_bases=12, enc_kernel=8, enc_stride=4, latent_channels=6,
                                num_sources=3,
                                blocks=[BlockSpec(sub_blocks=2, iterations=2),
                                        BlockSpec(sub_blocks=2, iterations=3,
                                                  shares_params_with=0)],
                                sub_scales=2, sub_kernel=3), 160),
    # 1, 3 and 4 sub-blocks, several iterations each; its stage 2 trains the third block
    "sub_blocks_1_3_4": (SeparationConfig(enc_bases=12, enc_kernel=8, enc_stride=4,
                                          latent_channels=6, num_sources=3,
                                          blocks=[BlockSpec(sub_blocks=1, iterations=3),
                                                  BlockSpec(sub_blocks=3, iterations=2),
                                                  BlockSpec(sub_blocks=4, iterations=3)],
                                          sub_scales=2, sub_kernel=3), 163),
    # five scales at odd T take the latent length 41 down to 21, 11, 6, 3, 2
    "five_scales_odd": (SeparationConfig(enc_bases=12, enc_kernel=8, enc_stride=4,
                                         latent_channels=6, num_sources=3,
                                         blocks=[BlockSpec(sub_blocks=2, iterations=2),
                                                 BlockSpec(sub_blocks=1, iterations=2)],
                                         sub_scales=5, sub_kernel=3), 161),
}

# every regime a config trains in: end to end, and each progressive stage
# unless a block shares another's parameters
MEMORY_CASES = [
    pytest.param(stage, name, id=f"{'e2e' if stage is None else f'stage{stage}'}-{name}")
    for name, (config, _) in sorted(MEMORY_CONFIGS.items())
    for stage in ([None] if any(bs.shares_params_with is not None for bs in config.blocks)
                  else [None, *range(len(config.blocks))])
]


def test_every_stage_trains_its_own_block_and_head_pair():
    """No regime leaves nothing to train: each stage's frozen set leaves its
    block and head pair trainable, and stage 0 the encoder as well."""
    for name, (config, _) in sorted(MEMORY_CONFIGS.items()):
        if any(bs.shares_params_with is not None for bs in config.blocks):
            continue
        m = len(config.blocks)
        named = named_parameters(init_params(config, np.random.default_rng(0), stages=m))
        for i in range(m):
            trainable, _ = apply_freeze(named, stage_freeze_mask(config, i))
            want = {f"block{i}", f"mask{i}", f"dec{i}"}
            want |= {"encoder", "bottleneck"} if i == 0 else set()
            assert {n.split(".")[0] for n, _ in trainable} == want, (name, i)


@pytest.mark.parametrize("stage, config_name", MEMORY_CASES)
def test_memory_model_matches_tape(stage, config_name):
    """The account equals what one real training forward and its loss hold
    for backward."""
    config, T = MEMORY_CONFIGS[config_name]
    report = memory_account(config, batch_size=1, T=T, stage=stage)
    params = init_params(config, np.random.default_rng(0),
                         stages=len(config.blocks) if stage is not None else 1)
    if stage is None:
        head, depth = 0, None
    else:
        apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
        head, depth = stage, sum(bs.iterations for bs in config.blocks[:stage + 1])
    sources = np.random.default_rng(1).normal(size=(config.num_sources, T))
    with Tape() as tape:
        ests, _ = run_model(sources.sum(axis=0), params, stage=head, depth=depth)
        pit_loss(ests, sources, config.num_sources - 1)
    # a frozen prefix tapes nothing; the account adds the two tensors it hands over
    assert tape.held_output_elems() == report.activation_elems - report.boundary_elems
    L = config.latent_length(T)
    handed_over = 0 if stage in (None, 0) else (config.enc_bases + config.latent_channels) * L
    assert report.boundary_elems == handed_over


def desk_config(blocks):
    """The README desk model: 64 bases, kernel 16, stride 8, C=32, 3 scales."""
    return SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32,
                            num_sources=3, blocks=blocks, sub_scales=3, sub_kernel=5)


def _desk_regime(stage):
    """(config, params, head, depth) of the desk model trained end to end
    (``stage`` None, one block of 2 sub-blocks x 4) or at progressive
    stage ``stage`` of two blocks of 2 sub-blocks x 2, under its frozen set."""
    if stage is None:
        config = desk_config([BlockSpec(sub_blocks=2, iterations=4)])
    else:
        config = desk_config([BlockSpec(sub_blocks=2, iterations=2),
                              BlockSpec(sub_blocks=2, iterations=2)])
    params = init_params(config, np.random.default_rng(0), stages=config.head_pairs(stage))
    apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
    return config, params, stage or 0, config.stage_depth(stage)


@pytest.mark.parametrize("stage", [None, 0, 1], ids=["e2e", "stage0", "stage1"])
def test_training_item_peak_memory_tracks_account(stage):
    """One training item's forward and backward peaks near the account, at
    T = 2000 and at T = 8000.

    The tape holds only what backward closures read, gradients of op outputs
    are freed as the reverse sweep consumes them, and closures keep no
    input-sized copies.  The leaves' gradients, one array per trainable
    parameter, do not shrink with the activations, so they are taken off
    the peak; the account is the sweep's own peak, so what stays above it
    is what a vjp or a rebuild allocates inside itself and the sum a
    gradient's second term makes.
    """
    config, params, head, depth = _desk_regime(stage)
    for T in (2000, 8000):
        sources = np.random.default_rng(1).normal(size=(3, T))
        report = memory_account(config, batch_size=1, T=T, stage=stage)
        account = report.activation_bytes_backward
        tracemalloc.start()
        try:
            with Tape() as tape:
                ests, _ = run_model(sources.sum(axis=0), params, stage=head, depth=depth)
                loss = pit_loss(ests, sources, 2).loss
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        above = peak - report.trainable_param_bytes
        assert above <= 1.25 * account, \
            f"T = {T}: peak less leaf gradients {above / account:.4f}x the account"


@pytest.mark.parametrize("stage", [None, 0, 1], ids=["e2e", "stage0", "stage1"])
def test_training_batch_peak_memory_tracks_waiting_items_and_one_sweep(stage):
    """A batch-2 desk step at T = 2000, taped and swept as ``_train_loop``
    tapes and sweeps it, peaks in one item's sweep while the other item
    keeps its held set: its peak less leaf gradients is at most 1.25 x
    ((B - 1) x the held bytes of an item + the per-item account)."""
    config, params, head, depth = _desk_regime(stage)
    B, T = 2, 2000
    rng = np.random.default_rng(1)
    batch = [rng.normal(size=(3, T)) for _ in range(B)]
    report = memory_account(config, batch_size=1, T=T, stage=stage)
    account = (B - 1) * 8 * report.activation_elems + report.activation_bytes_backward
    tracemalloc.start()
    try:
        with Tape() as tape:
            acc = None
            for sources in batch:
                ests, _ = run_model(sources.sum(axis=0), params, stage=head, depth=depth)
                item_loss = pit_loss(ests, sources, 2).loss
                acc = item_loss if acc is None else acc + item_loss
            loss = acc * (1.0 / B)
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    above = peak - report.trainable_param_bytes
    assert above <= 1.25 * account, \
        f"peak less leaf gradients {above / account:.4f}x the account"


def _alive_at_each_node(tape, loss):
    """The elements alive just after each vjp of a real sweep of ``tape``
    returns, counted by weak references to every array the sweep could
    still keep: the held op outputs (found in the nodes' saved arrays and
    the recipes' arguments), each memo from when a recipe makes it, and
    each gradient of an op output and each recipe build from when the
    sweep first shows it.  A leaf's gradient is not counted."""
    tracked = {}  # id -> (weak reference, elements)

    def track(a):
        if id(a) not in tracked or tracked[id(a)][0]() is None:
            tracked[id(a)] = (weakref.ref(a), a.size)

    def track_held(arrays):
        for a in arrays:
            if id(a) in tape._held:
                track(a)

    for _, _, saved, _ in tape._nodes:
        track_held(saved)
    for r in tape._made.values():
        track_held(r.args)
    saved = r = None
    rebuilt = [[isinstance(a, dc._Recipe) for a in saved] for _, _, saved, _ in tape._nodes]
    make = dc._Recipe.make

    def tracked_make(recipe):
        memo = make(recipe)
        track(memo.data if isinstance(memo, Tensor) else memo)
        return memo

    def alive(pos, g, built, terms, grads):
        shown = [g, *(b for b, made in zip(built, rebuilt[pos]) if made)]
        shown += [t for ref, t in zip(tape._nodes[pos][1], terms) if type(ref) is int]
        shown += [a for key, a in grads.items() if type(key) is int]
        for a in shown:
            if a is not None:
                track(a)
        return sum(n for ref, n in tracked.values() if ref() is not None)

    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc._Recipe, "make", tracked_make)
        for step in dc._sweep(tape, loss):
            counts.append(alive(*step))
            del step  # keeps nothing into the next node
    return counts


@pytest.mark.parametrize("blocks, stage", [
    pytest.param([BlockSpec(2, 4)], None, id="e2e"),
    pytest.param([BlockSpec(2, 2), BlockSpec(2, 2)], 0, id="stage0"),
    pytest.param([BlockSpec(2, 2), BlockSpec(2, 2)], 1, id="stage1"),
    pytest.param([BlockSpec(2, 2), BlockSpec(2, 2, shares_params_with=0)], None, id="shared"),
])
def test_memory_account_is_the_peak_a_real_sweep_keeps_alive(blocks, stage):
    """At every node of a real sweep of a desk item at T = 2000 on drawn
    weights, the elements the account reads off the tape's structure are
    those alive by weak references; so the account's per-item peak, less
    the arrays a frozen prefix hands over, is the most alive at one node."""
    config, T = desk_config(blocks), 2000
    params = init_params(config, np.random.default_rng(0), stages=config.head_pairs(stage))
    apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
    sources = np.random.default_rng(1).normal(size=(3, T))

    def item_tape():
        with Tape() as tape:
            ests, _ = run_model(sources.sum(axis=0), params, stage=stage or 0,
                                depth=config.stage_depth(stage))
            loss = pit_loss(ests, sources, 2).loss
        return tape, loss  # the sweep alone keeps what it reads

    tape, loss = item_tape()
    held, nodes = tape.held_output_elems(), len(tape)
    counts = _alive_at_each_node(tape, loss)
    assert list(dc.alive_elems(*item_tape())) == counts and len(counts) == nodes
    report = memory_account(config, batch_size=1, T=T, stage=stage)
    assert report.activation_elems - report.boundary_elems == held < max(counts)
    assert report.activation_bytes_backward == 8 * (max(counts) + report.boundary_elems)


def test_sweep_standardises_each_norm_once(monkeypatch):
    """A desk item's backward sweep standardises each taped prelu_norm once:
    the norm's rebuilds for its readers, the rebuilds of convs over it and
    its own vjp share the standardised values its recipe keeps from the
    first build.  No recipe keeps anything after the sweep."""
    config = desk_config([BlockSpec(sub_blocks=2, iterations=4)])
    params = init_params(config, np.random.default_rng(0))
    sources = np.random.default_rng(1).normal(size=(3, 2000))
    calls = []
    standardised = dc._standardised
    # a norm's recipe takes the function it calls when the norm is taped
    monkeypatch.setattr(dc, "_standardised", lambda *a: calls.append(1) or standardised(*a))
    with Tape() as tape:
        ests, _ = run_model(sources.sum(axis=0), params)
        loss = pit_loss(ests, sources, 2).loss
    norms = sum(vjp.__qualname__.startswith("prelu_norm.") for *_, vjp in tape._nodes)
    recipes = list(tape._made.values())
    backward(tape, loss)
    assert (norms, len(calls)) == (48, 48)
    assert recipes and all(r.memo is None for r in recipes)


def test_end_to_end_item_rebuilds_the_bottleneck_output(decline):
    """A desk end-to-end item at T = 2000 (L = 250) holds 64 x L + C x L
    + 8 C x L / 2 + 8 C x (63 + 32) fewer elements than with conv1d
    declined: the encoding v_enc (64 bases), whose ReLU is rebuilt from
    the encoder conv's recipe, which a declined conv1d does not note; the
    bottleneck's output, the first block application's input, is rebuilt
    by its own conv at the end of the sweep instead of held; so is the
    first down conv of each of the 8 sub-blocks, the first from the
    bottleneck's recipe, each application's first from its held input and
    each second one from the recipe of the residual sum under it; and so
    are each sub-block's second and third down convs (63 and 32 columns),
    from their norms' recipes.  With upsample_conv1d declined
    instead, each sub-block holds its three up convs (63, 125 and 250
    columns): the first is rebuilt from a norm's recipe, the two over the
    skip sums from those held sums.  Every gradient is the same to the bit
    either way."""
    config = desk_config([BlockSpec(sub_blocks=2, iterations=4)])
    sources = np.random.default_rng(1).normal(size=(3, 2000))

    def item():
        params = init_params(config, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        for sb in params.blocks[0]:
            sb.proj.w.data[...] = rng.normal(size=sb.proj.w.shape) * 0.3
        with Tape() as tape:
            ests, _ = run_model(sources.sum(axis=0), params)
            loss = pit_loss(ests, sources, 2).loss
        held = tape.held_output_elems()
        backward(tape, loss)
        return held, [t.grad.tobytes() for _, t in named_parameters(params)]

    held, rebuilt = item()
    for op, more in ((dc.conv1d, 64 * 250 + 32 * 250 + 8 * 32 * 125 + 8 * 32 * (63 + 32)),
                     (dc.upsample_conv1d, 8 * 32 * (63 + 125 + 250))):
        decline(op)
        held_off, kept = item()
        assert held_off - held == more
        assert len(rebuilt) == 70 and rebuilt == kept


@pytest.mark.parametrize("stage, on, conv_off, up_off",
                         [(None, 344_000, 664_000, 792_000), (0, 184_000, 392_000, 408_000),
                          (1, 280_000, 392_000, 504_000)], ids=["e2e", "stage0", "stage1"])
def test_memory_account_drops_the_bottleneck_output_where_the_encoder_trains(
        decline, stage, on, conv_off, up_off):
    """At desk T = 8000 (L = 1000) the account drops, per item against
    conv1d declined, 64 x L = 64,000 elements for the encoding v_enc (its
    ReLU is rebuilt from the encoder conv's recipe) and C x L = 32,000 for
    the bottleneck's output end to end and at stage 0, where the encoder
    trains; C x L / 2 = 16,000 for the first down conv
    of each taped sub-block, eight end to end and four per stage (at
    stage 1 the first is rebuilt from the latent the frozen prefix hands
    over untaped, and each second one from the residual sum's recipe);
    and 12,000 for each taped sub-block's second and third down convs.
    Against upsample_conv1d declined, each taped sub-block drops its three
    up convs, 8,000 + 16,000 + 32,000 elements, and holds the two skip sums
    the last two are rebuilt from either way; v_enc is rebuilt either way."""
    blocks = [BlockSpec(sub_blocks=2, iterations=4)] if stage is None else \
        [BlockSpec(sub_blocks=2, iterations=2), BlockSpec(sub_blocks=2, iterations=2)]
    config = desk_config(blocks)
    assert memory_account(config, batch_size=1, T=8000, stage=stage).activation_elems == on
    for op, off in ((dc.conv1d, conv_off), (dc.upsample_conv1d, up_off)):
        decline(op)
        assert memory_account(config, batch_size=1, T=8000, stage=stage).activation_elems == off


def _desk_item_tape(regime, T=2000):
    """The tape of one training item of T samples of the desk model in
    ``regime``: "e2e", "stage0", "stage1" or "gated", its forward and
    loss, unswept."""
    from latref.gating import gate_penalty, init_gate

    head, depth, gate, rng = 0, None, None, None
    if regime.startswith("stage"):
        stage = int(regime[5:])
        config = desk_config([BlockSpec(sub_blocks=2, iterations=2),
                              BlockSpec(sub_blocks=2, iterations=2)])
        params = init_params(config, np.random.default_rng(0), stages=2)
        apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
        head, depth = stage, config.stage_depth(stage)
    else:
        config = desk_config([BlockSpec(sub_blocks=2, iterations=4)])
        params = init_params(config, np.random.default_rng(0))
        if regime == "gated":
            gate = init_gate(config.latent_channels, config.latent_length(T),
                             np.random.default_rng(1))
            rng = np.random.default_rng(2)
    sources = np.random.default_rng(1).normal(size=(3, T))
    with Tape() as tape:
        ests, g = run_model(sources.sum(axis=0), params, stage=head, depth=depth,
                            gate=gate, gate_mode="train", rng=rng)
        loss = pit_loss(ests, sources, 2).loss
        if gate is not None:
            gate_penalty(g)
    return tape


@pytest.mark.parametrize("regime", ["e2e", "stage0", "gated"])
def test_trained_encoding_is_rebuilt_not_held(regime):
    """Where the encoder trains, a desk item at T = 8000 holds no
    enc_bases x L array: the encoding v_enc is relu's output, which the
    bottleneck conv and masked_decode save as relu's recipe over the
    encoder conv's, and which the sweep rebuilds from the mixture."""
    tape = _desk_item_tape(regime, T=8000)
    held = [a for _, _, saved, _ in tape._nodes for a in saved
            if isinstance(a, np.ndarray) and id(a) in tape._held]
    assert held and all(a.shape != (64, 1000) for a in held)
    decode = next(saved for *_, saved, vjp in tape._nodes if vjp.__qualname__.startswith("masked_decode."))
    v_enc = decode[3]
    assert v_enc.fn is dc.relu and v_enc.saved and v_enc.args[0].fn is dc.conv1d
    assert not v_enc.args[0].saved


def _inputs_needing_no_gradient(regime):
    """(the ops ``_desk_item_tape(regime)`` tapes, {op: positions of its
    inputs that need no gradient}), an op named by its vjp's function and
    such an input by the None its node keeps as the input's ref."""
    ops, none = set(), {}
    for _, refs, _, vjp in _desk_item_tape(regime)._nodes:
        op = vjp.__qualname__.split(".")[0]
        ops.add(op)
        none.setdefault(op, set()).update(i for i, ref in enumerate(refs) if ref is None)
    return ops, {op: pos for op, pos in none.items() if pos}


@pytest.mark.parametrize("regime", ["e2e", "stage1", "gated"])
def test_taped_inputs_needing_no_gradient(regime):
    """Every vjp forms every gradient it can, which costs nothing only while
    the inputs that need none are these: a conv's input (the encoder's
    signal, the first conv after a freeze line), a constant or frozen
    operand of add or mul, and masked_decode's v_enc (position 3) under a
    frozen encoder, which is the one gradient a vjp skips by a flag."""
    ops, none = _inputs_needing_no_gradient(regime)
    full = {"prelu_norm", "upsample_conv1d", "_pit_node", "masked_decode", "conv1d"}
    if regime == "gated":
        full |= {"_gate_soft", "_blend"}
    assert full <= ops
    assert none.get("conv1d", {0}) == {0}
    assert none.get("masked_decode") == ({3} if regime == "stage1" else None)
    assert set(none) <= {"conv1d", "masked_decode", "add", "mul"}


@pytest.mark.parametrize("regime", ["e2e", "stage1", "gated"])
def test_recipes_read_held_or_untaped_arrays_and_chain_no_sums(monkeypatch, regime):
    """The one recipe rule on a desk training item: every array a noted
    recipe keeps is one the tape holds or one none of its nodes made (a
    leaf's, a parameter's, the latent a frozen prefix hands over, a norm's
    statistics), and every recipe among a recipe's arguments is one the
    tape notes.  A conv's recipe may take a sum's (``residual``'s), and
    some do, but no sum's recipe takes another sum's, so rebuilds do not
    chain sums.  No ``add`` output carries a recipe: a skip sum is held."""
    tensors = []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__", lambda t, *a, **k: init(t, *a, **k) or tensors.append(t))
    tape = _desk_item_tape(regime)
    outputs = {id(t.data) for t in tensors if t._key is not None and t._key[0] is tape._token}
    recipes = list(tape._made.values())
    args = [a for r in recipes for a in r.args]
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    built = [a for a in args if isinstance(a, dc._Recipe)]
    assert any(id(a) in tape._held for a in arrays) and any(id(a) not in outputs for a in arrays)
    assert all(id(a) in tape._held or id(a) not in outputs for a in arrays)
    fns = {r.fn for r in recipes}
    assert dc.residual in fns and dc.add not in fns and built
    assert all(a in recipes for a in built)
    assert any(a.fn is dc.residual for a in built)
    assert not any(a.fn is dc.residual for r in recipes if r.fn is dc.residual
                   for a in r.args if isinstance(a, dc._Recipe))


def test_every_taped_training_op_is_gradchecked(monkeypatch):
    """Every op a training step tapes, end to end, at progressive stage 1
    and gated, is also taped by a check of ``gradcheck_suite``, so no new
    op reaches training without a finite-difference check."""
    from latref import cli

    tapes = []

    def tape_only(f, params, eps=1e-5):
        with Tape() as tape:
            f()
        tapes.append(tape)
        return 0.0

    monkeypatch.setattr(cli, "grad_check", tape_only)
    cli.gradcheck_suite()
    checked = {vjp.__qualname__.split(".")[0] for tape in tapes for *_, vjp in tape._nodes}
    trained = set().union(*(_inputs_needing_no_gradient(r)[0] for r in ("e2e", "stage1", "gated")))
    assert trained <= checked, sorted(trained - checked)


def test_memory_stage_roughly_halves_activations():
    full = SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8,
                            latent_channels=32, num_sources=3,
                            blocks=[BlockSpec(sub_blocks=1, iterations=16)],
                            sub_scales=3, sub_kernel=5)
    split = SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8,
                             latent_channels=32, num_sources=3,
                             blocks=[BlockSpec(sub_blocks=1, iterations=8),
                                     BlockSpec(sub_blocks=1, iterations=8)],
                             sub_scales=3, sub_kernel=5)
    e2e = memory_account(full, batch_size=1, T=32000, stage=None)
    stage = memory_account(split, batch_size=1, T=32000, stage=1)
    ratio = stage.activation_bytes_backward / e2e.activation_bytes_backward
    assert 0.4 <= ratio <= 0.6


def test_memory_batch_linearity():
    config = toy_config(iterations=3)
    one = memory_account(config, batch_size=1, T=800)
    two = memory_account(config, batch_size=2, T=800)
    assert two.activation_bytes_backward == 2 * one.activation_bytes_backward
    assert two.trainable_param_bytes == one.trainable_param_bytes


def test_memory_iterations_linear_params_flat():
    base = toy_config(iterations=2)
    double = toy_config(iterations=4)
    a = memory_account(base, batch_size=1, T=800)
    b = memory_account(double, batch_size=1, T=800)
    block_a = a.activation_elems - memory_account(toy_config(iterations=1), 1, 800).activation_elems
    block_b = b.activation_elems - memory_account(toy_config(iterations=1), 1, 800).activation_elems
    assert block_b == 3 * block_a  # 4 iterations adds 3 extra blocks vs 1
    assert a.trainable_param_bytes == b.trainable_param_bytes


def test_memory_every_stage_below_end_to_end():
    split = toy_config(iterations=4, num_blocks=2)
    merged = toy_config(iterations=8, num_blocks=1)
    e2e = memory_account(merged, batch_size=1, T=800, stage=None)
    for stage in range(2):
        st = memory_account(split, batch_size=1, T=800, stage=stage)
        assert st.activation_bytes_backward < e2e.activation_bytes_backward


def test_memory_optimizer_state_is_two_copies():
    config = toy_config()
    rep = memory_account(config, batch_size=1, T=160)
    assert rep.optimizer_state_bytes == 2 * rep.trainable_param_bytes


def test_evaluate_scores_each_sample():
    splits = toy_splits(n_train=2, n_val=3)
    params = init_params(toy_config(), np.random.default_rng(0))
    scores, gs = evaluate(params, splits.val)
    assert len(scores) == 3 and all(np.isfinite(scores))
    assert gs == [None, None, None]
    for sample, score in zip(splits.val, scores):
        ests, _ = run_model(sample.mixture, params)
        assert score == eval_speech_sisdri(ests.data, sample.sources, sample.mixture,
                                           sample.speech_count)


# ---------------------------------------------------------------------------
# gate fine-tuning


def make_gate_setup(seed=0, iterations=3, duration=0.05):
    from latref.gating import init_gate

    splits = toy_splits(n_train=2, n_val=2, duration=duration, seed=seed)
    config = toy_config(iterations=iterations)
    params = init_params(config, np.random.default_rng(seed))
    T = splits.train[0].mixture.shape[0]
    gate = init_gate(config.latent_channels, config.latent_length(T), np.random.default_rng(seed + 1))
    return splits, config, params, gate


def test_finetune_smoke_records_mean_g():
    from latref.gating import gate_named_parameters
    from latref.training import finetune_gate

    splits, config, params, gate = make_gate_setup()
    cfg = TrainConfig(epochs=1, batch_size=2, lr0=1e-4, lr_decay_every=5, seed=0)
    before_gate = {n: t.data.tobytes() for n, t in gate_named_parameters(gate)}
    history = finetune_gate(params, gate, splits.train, splits.val, cfg)
    assert len(history) == 1
    assert 0.0 <= history[0]["mean_g"] <= config.total_steps()
    after_gate = {n: t.data.tobytes() for n, t in gate_named_parameters(gate)}
    assert before_gate != after_gate


def test_finetune_deterministic():
    from latref.training import finetune_gate

    runs = []
    for _ in range(2):
        splits, config, params, gate = make_gate_setup(seed=4)
        cfg = TrainConfig(epochs=2, batch_size=2, lr0=1e-4, lr_decay_every=5, seed=9)
        history = finetune_gate(params, gate, splits.train, splits.val, cfg)
        runs.append((history, param_bytes(params)))
    assert runs[0] == runs[1]


def test_penalty_vanishes_when_gate_always_processes():
    from latref.diffcore import Tape
    from latref.gating import adaptive_separate, gate_penalty
    from latref.losses import pit_loss
    from latref.sepmodel import encode, mask_and_decode

    splits, config, params, gate = make_gate_setup(iterations=3)
    gate.proj2.b.data[:] = [-50.0, 50.0]  # saturate toward "process"
    sample = splits.train[0]
    x = sample.mixture[None, :]
    rng = np.random.default_rng(0)
    with Tape():
        v_enc, v = encode(x, params)
        s, g = adaptive_separate(v, config, params, gate, "train", rng=rng)
        ests = mask_and_decode(v_enc, s, 0, params, out_length=x.shape[1])
        sep = pit_loss(ests, sample.sources, sample.speech_count).loss
        pen = gate_penalty(g)
        total = sep + pen
    assert abs(g.item() - 3.0) < 1e-9
    assert pen.item() < 1e-12
    assert abs(total.item() - sep.item()) < 1e-12
