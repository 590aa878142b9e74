import tracemalloc

import numpy as np
import pytest

import latref.training as training
from latref.data import MixtureSpec, build_splits
from latref.diffcore import Tape, Tensor, backward
from latref.losses import pit_loss
from latref.sepmodel import (
    BlockSpec,
    SeparationConfig,
    init_params,
    named_parameters,
)
from latref.training import (
    AdamState,
    FreezeMask,
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
    mask = FreezeMask(("block1", "encoder"))
    assert mask.is_frozen("block1")
    assert mask.is_frozen("block1.sub0.down0.w")
    assert not mask.is_frozen("block10.sub0.down0.w")
    assert mask.is_frozen("encoder.w")
    assert not mask.is_frozen("dec0.w")


def test_apply_freeze_flips_requires_grad():
    params = init_params(toy_config(num_blocks=2), np.random.default_rng(0), stages=2)
    named = named_parameters(params)
    trainable, frozen = apply_freeze(named, FreezeMask(("block0", "encoder")))
    names_frozen = {n for n, _ in frozen}
    assert "encoder.w" in names_frozen
    assert all(not t.requires_grad for _, t in frozen)
    assert all(t.requires_grad for _, t in trainable)
    # mask=None restores everything
    trainable, frozen = apply_freeze(named, None)
    assert not frozen


def test_stage_freeze_mask_contents():
    config = toy_config(num_blocks=2)
    m0 = stage_freeze_mask(config, 0)
    assert not m0.is_frozen("encoder.w")
    assert not m0.is_frozen("block0.sub0.proj.w")
    assert m0.is_frozen("block1.sub0.proj.w")
    assert m0.is_frozen("mask1.w")
    m1 = stage_freeze_mask(config, 1)
    assert m1.is_frozen("encoder.w")
    assert m1.is_frozen("bottleneck.b")
    assert m1.is_frozen("block0.sub0.down0.w")
    assert m1.is_frozen("mask0.w") and m1.is_frozen("dec0.b")
    assert not m1.is_frozen("block1.sub0.down0.w")
    assert not m1.is_frozen("mask1.w")


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
    splits = toy_splits()
    params = init_params(toy_config(), np.random.default_rng(0))
    before = param_bytes(params)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=5)
    freeze = FreezeMask(("encoder", "bottleneck"))
    train_end_to_end(params, splits.train, splits.val, cfg, freeze=freeze)
    after = param_bytes(params)
    for name in before:
        if freeze.is_frozen(name):
            assert before[name] == after[name], name
    assert any(before[n] != after[n] for n in before if not freeze.is_frozen(n))


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


def test_freeze_everything_rejected():
    splits = toy_splits()
    config = toy_config()
    params = init_params(config, np.random.default_rng(0))
    freeze = FreezeMask(("encoder", "bottleneck", "block0", "mask0", "dec0"))
    with pytest.raises(ValueError, match="nothing trainable"):
        train_end_to_end(params, splits.train, splits.val, TrainConfig(epochs=1), freeze=freeze)


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


def test_progressive_rejects_shared_blocks():
    config = toy_config(num_blocks=2, share=True)
    splits = toy_splits(n_train=2, n_val=1)
    with pytest.raises(ValueError, match="distinct"):
        train_progressive(config, splits.train, splits.val, TrainConfig(epochs=2))


def test_progressive_freezes_prefix():
    splits = toy_splits(n_train=2, n_val=1)
    config = toy_config(num_blocks=2)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=3)
    results = train_progressive(config, splits.train, splits.val, cfg)
    assert [r.stage for r in results] == [0, 1]
    assert [r.depth for r in results] == [1, 2]
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
}


@pytest.mark.parametrize("config_name", sorted(MEMORY_CONFIGS))
@pytest.mark.parametrize("stage", [None, 0, 1], ids=["e2e", "stage0", "stage1"])
def test_memory_model_matches_tape(stage, config_name):
    """The account equals what one real training forward tapes."""
    config, T = MEMORY_CONFIGS[config_name]
    report = memory_account(config, batch_size=1, T=T, stage=stage)
    params = init_params(config, np.random.default_rng(0),
                         stages=len(config.blocks) if stage is not None else 1)
    if stage is None:
        head, depth = 0, None
    else:
        apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
        head, depth = stage, sum(bs.iterations for bs in config.blocks[:stage + 1])
    mix = np.random.default_rng(1).normal(size=T)
    with Tape() as tape:
        run_model(mix, params, stage=head, depth=depth)
    # a frozen prefix tapes nothing; the account adds the two tensors it hands over
    assert tape.recorded_output_elems() == report.activation_elems - report.boundary_elems
    L = config.latent_length(T)
    handed_over = 0 if stage in (None, 0) else (config.enc_bases + config.latent_channels) * L
    assert report.boundary_elems == handed_over


def desk_config(blocks):
    """The README desk model: 64 bases, kernel 16, stride 8, C=32, 3 scales."""
    return SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32,
                            num_sources=3, blocks=blocks, sub_scales=3, sub_kernel=5)


@pytest.mark.parametrize("stage", [None, 1], ids=["e2e", "stage1"])
def test_training_item_peak_memory_tracks_account(stage):
    """One training item's forward and backward peaks near the taped activations.

    Gradients of op outputs are freed as the reverse sweep consumes them, and
    backward closures keep no input-sized copies, so what stays above the
    account is the sweep's gradient frontier and the leaves' gradients.
    """
    if stage is None:
        config = desk_config([BlockSpec(sub_blocks=2, iterations=4)])
        head, depth = 0, None
    else:
        config = desk_config([BlockSpec(sub_blocks=2, iterations=2),
                              BlockSpec(sub_blocks=2, iterations=2)])
        head, depth = stage, 4
    T = 2000
    params = init_params(config, np.random.default_rng(0), stages=1 if stage is None else 2)
    if stage is not None:
        apply_freeze(named_parameters(params), stage_freeze_mask(config, stage))
    sources = np.random.default_rng(1).normal(size=(3, T))
    account = memory_account(config, batch_size=1, T=T, stage=stage).activation_bytes_backward
    tracemalloc.start()
    try:
        with Tape() as tape:
            ests, _ = run_model(sources.sum(axis=0), params, stage=head, depth=depth)
            loss = pit_loss(ests, sources, 2).loss
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * account, f"peak {peak / account:.2f}x the account"


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


def test_evaluate_returns_mean_over_val():
    splits = toy_splits(n_train=2, n_val=3)
    params = init_params(toy_config(), np.random.default_rng(0))
    score, mean_g = evaluate(params, splits.val)
    assert np.isfinite(score)
    assert mean_g is None


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
