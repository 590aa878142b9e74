"""Separation model tests: shape contracts, residual identity, weight
sharing, parameter accounting, and checkpoint round trips."""

import dataclasses
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latref import diffcore as dc
from latref import sepmodel
from latref.diffcore import Tape, Tensor, add, backward, grad_check, mul, sum_all, transposed_conv1d
from latref.data import from_mapping
from latref.losses import pit_loss
from latref.sepmodel import (
    BlockSpec,
    SeparationConfig,
    apply_block,
    apply_sub_block,
    clone_params,
    count_params,
    encode,
    fill_named,
    init_params,
    load_checkpoint,
    mask_and_decode,
    named_parameters,
    save_checkpoint,
    separate,
)


def toy_config(**kw):
    base = dict(
        enc_bases=8,
        enc_kernel=8,
        enc_stride=10,
        latent_channels=8,
        num_sources=2,
        blocks=[BlockSpec(sub_blocks=1, iterations=1)],
        sub_scales=2,
        sub_kernel=3,
    )
    base.update(kw)
    return SeparationConfig(**base)


class TestConfig:
    def test_default_preset(self):
        cfg = SeparationConfig()
        assert (cfg.enc_bases, cfg.enc_kernel, cfg.enc_stride, cfg.latent_channels) == (512, 21, 10, 128)
        assert cfg.sub_scales == 5

    def test_share_must_point_earlier_with_same_k(self):
        with pytest.raises(ValueError, match="earlier"):
            SeparationConfig(blocks=[BlockSpec(shares_params_with=0)])
        with pytest.raises(ValueError, match="sub_block counts differ"):
            SeparationConfig(blocks=[BlockSpec(sub_blocks=2), BlockSpec(sub_blocks=3, shares_params_with=0)])

    def test_round_trip_dict(self):
        cfg = toy_config(blocks=[BlockSpec(2, 3), BlockSpec(2, 1, shares_params_with=0)])
        assert from_mapping(SeparationConfig, dataclasses.asdict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            from_mapping(SeparationConfig, {"bogus": 1})


class TestEncode:
    def test_default_preset_shapes(self):
        params = init_params(SeparationConfig(), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, size=(1, 32000)))
        v_enc, v = encode(x, params)
        assert v_enc.shape == (512, 3200)
        assert v.shape == (128, 3200)
        assert np.all(np.isfinite(v.data))

    def test_single_frame_input(self):
        params = init_params(SeparationConfig(), np.random.default_rng(0))
        _v_enc, v = encode(Tensor(np.ones((1, 10))), params)
        assert v.shape == (128, 1)

    def test_empty_input_rejected(self):
        params = init_params(toy_config(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            encode(Tensor(np.ones((1, 0))), params)


class TestBlocks:
    def test_fresh_sub_block_is_identity(self):
        cfg = toy_config()
        params = init_params(cfg, np.random.default_rng(2))
        v = Tensor(np.random.default_rng(3).normal(size=(8, 64)))
        out = apply_block(v, params.blocks[0])
        assert np.array_equal(out.data, v.data)

    def test_zeroed_projection_restores_identity(self):
        cfg = toy_config(blocks=[BlockSpec(sub_blocks=2)])
        rng = np.random.default_rng(4)
        params = init_params(cfg, rng)
        for sb in params.blocks[0]:
            sb.proj.w.data[...] = rng.normal(size=sb.proj.w.shape)
        v = Tensor(rng.normal(size=(8, 40)))
        assert not np.array_equal(apply_block(v, params.blocks[0]).data, v.data)
        for sb in params.blocks[0]:
            sb.proj.w.data[...] = 0.0
        assert np.array_equal(apply_block(v, params.blocks[0]).data, v.data)

    def test_composition_matches_manual(self):
        cfg = toy_config(blocks=[BlockSpec(sub_blocks=2)])
        rng = np.random.default_rng(5)
        params = init_params(cfg, rng)
        for sb in params.blocks[0]:
            sb.proj.w.data[...] = rng.normal(size=sb.proj.w.shape) * 0.1
        v = Tensor(rng.normal(size=(8, 48)))
        manual = apply_sub_block(apply_sub_block(v, params.blocks[0][0]), params.blocks[0][1])
        assert np.array_equal(apply_block(v, params.blocks[0]).data, manual.data)

    def test_shape_and_finiteness(self):
        cfg = toy_config()
        rng = np.random.default_rng(6)
        params = init_params(cfg, rng)
        params.blocks[0][0].proj.w.data[...] = rng.normal(size=(8, 8, 1))
        v = Tensor(rng.normal(size=(8, 64)))
        out = apply_block(v, params.blocks[0])
        assert out.shape == (8, 64)
        assert np.all(np.isfinite(out.data))

    def test_channel_mismatch(self):
        params = init_params(toy_config(), np.random.default_rng(7))
        with pytest.raises(ValueError, match="channel"):
            apply_block(Tensor(np.ones((5, 16))), params.blocks[0])


def desk_block(sub_blocks, seed):
    """A desk-model block of ``sub_blocks`` with non-trivial projections,
    slopes and affines, and two 32 x 1000 draws: an input and a loss weight."""
    cfg = SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32,
                           num_sources=3, blocks=[BlockSpec(sub_blocks=sub_blocks)],
                           sub_scales=3, sub_kernel=5)
    rng = np.random.default_rng(seed)
    block = init_params(cfg, rng).blocks[0]
    for sb in block:
        sb.proj.w.data[...] = rng.normal(size=sb.proj.w.shape) * 0.3
        for sc in sb.down + sb.up:
            sc.slope.data[...] = rng.uniform(-0.5, 0.5, size=sc.slope.shape)
            sc.norm.gamma.data[...] += rng.normal(size=sc.norm.gamma.shape) * 0.2
            sc.norm.beta.data[...] = rng.normal(size=sc.norm.beta.shape) * 0.2
    return block, rng.normal(size=(32, 1000)), rng.normal(size=(32, 1000))


class TestSubBlockTape:
    """A taped sub-block over a held input holds that input and its two
    skip sums: each norm output and each conv output (the conv of the
    held input, ``down0``, the convs over a norm output, ``down1``,
    ``down2`` and ``up0``, and the up convs over the skip sums) is kept as
    a recipe and rebuilt in backward.  A skip sum is a plain sum, held
    where a conv reads it, since ``add`` notes no recipe."""

    @staticmethod
    def taped_grads(sb, x, y):
        x = Tensor(x, requires_grad=True)
        with Tape() as tape:
            v = add(x, 0.0)  # an op output, so the tape counts it
            loss = sum_all(mul(apply_sub_block(v, sb), Tensor(y)))
        held = tape.held_output_elems()
        backward(tape, loss)
        params = [t for sc in sb.down + sb.up for t in (sc.conv.w, sc.conv.b, sc.slope,
                                                        sc.norm.gamma, sc.norm.beta)]
        return held, [t.grad for t in [x, sb.proj.w] + params]

    def test_holds_input_and_conv_outputs_only(self):
        # desk L = 1000: v 32k and the skip sums 8k + 16k; down0 (16k) is a
        # conv of v, down1 (8k), down2 (4k) and up0 (8k) are convs over a
        # norm output, and up1 (16k) and up2 (32k) convs over a skip sum
        (sb,), x, y = desk_block(1, 0)
        held, _ = self.taped_grads(sb, x, y)
        assert held == 32 * (1000 + 250 + 500) == 56_000

    def test_gradients_equal_those_with_skip_sums_held(self, decline):
        (sb,), x, y = desk_block(1, 1)
        held, rebuilt = self.taped_grads(sb, x, y)
        # The skip sums are held and the up convs over them (500 and 1000
        # columns) rebuilt from them; with upsample_conv1d declined those
        # and up0 (250) are held beside the sums, and with conv1d declined
        # too, so are down0, down1 and down2 (500, 250, 125).
        for ops, more in (((dc.upsample_conv1d,), 250 + 500 + 1000),
                          ((dc.upsample_conv1d, dc.conv1d), 250 + 500 + 1000 + 500 + 250 + 125)):
            decline(*ops)
            held_convs, kept = self.taped_grads(sb, x, y)
            assert held_convs - held == 32 * more
            for got, want in zip(rebuilt, kept):
                assert got.tobytes() == want.tobytes()

    def test_gradients_equal_those_with_rebuilt_convs_held(self, decline):
        (sb,), x, y = desk_block(1, 4)
        held, rebuilt = self.taped_grads(sb, x, y)
        # With conv1d declined, down0, down1 and down2 are held (the
        # projection's output only feeds a sum); with upsample_conv1d
        # declined too, so are up0 and the up convs over the skip sums.
        for ops, more in (((dc.conv1d,), 500 + 250 + 125),
                          ((dc.conv1d, dc.upsample_conv1d), 500 + 250 + 125 + 250 + 500 + 1000)):
            decline(*ops)
            held_convs, kept = self.taped_grads(sb, x, y)
            assert held_convs - held == 32 * more
            for got, want in zip(rebuilt, kept):
                assert got.tobytes() == want.tobytes()


class TestBlockTape:
    """A taped block application holds its input and its sub-blocks' skip
    sums, and of the later sub-blocks' inputs only every second one: an
    input built from a held one is kept as a recipe (that input and the
    recipe of the sub-block's last norm output) and rebuilt in backward,
    and one built from a rebuilt one is held, so no sum's rebuild builds
    another.  Every sub-block rebuilds its first down conv, from its
    input or from that input's recipe."""

    @staticmethod
    def taped_grads(block, x, y, held_inputs=False):
        x = Tensor(x, requires_grad=True)
        with Tape() as tape:
            v = add(x, 0.0)  # an op output, so the tape counts it
            if held_inputs:
                # The same graph with each inner sub-block input fed through a
                # zero leaf, so it carries no recipe and the next conv holds it.
                for sb in block[:-1]:
                    v = add(apply_sub_block(v, sb), Tensor(np.zeros(v.shape)))
                out = apply_sub_block(v, block[-1])
            else:
                out = apply_block(v, block)
            loss = sum_all(mul(out, Tensor(y)))
        held = tape.held_output_elems()
        backward(tape, loss)
        return held, [x.grad] + [t.grad for sb in block for _, t in sepmodel._sub_named("", sb)]

    @pytest.mark.parametrize("sub_blocks", [1, 2, 3, 4])
    def test_holds_input_and_conv_outputs_only(self, sub_blocks):
        # desk L = 1000: each held input 32k (the block's own and every second
        # later one) and each sub-block's two skip sums 24k; two sub-blocks
        # hold 80k, 112k with the inner input held
        block, x, y = desk_block(sub_blocks, 2)
        held, _ = self.taped_grads(block, x, y)
        held_inputs = 1 + (sub_blocks - 1) // 2
        assert held == 32_000 * held_inputs + 24_000 * sub_blocks

    @pytest.mark.parametrize("sub_blocks", [1, 2, 3, 4])
    def test_gradients_equal_those_with_inner_inputs_held(self, sub_blocks):
        block, x, y = desk_block(sub_blocks, 3)
        held, rebuilt = self.taped_grads(block, x, y)
        held_inputs, kept = self.taped_grads(block, x, y, held_inputs=True)
        # each inner input rebuilt here (every second one) is held there (32k)
        assert held_inputs - held == sub_blocks // 2 * 32_000
        assert len(rebuilt) == len(kept) == 1 + 31 * sub_blocks
        for got, want in zip(rebuilt, kept):
            assert np.array_equal(got, want)


class TestSeparate:
    def _noisy_params(self, cfg, seed):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        for block in params.blocks:
            for sb in block:
                if not np.any(sb.proj.w.data):
                    sb.proj.w.data[...] = rng.normal(size=sb.proj.w.shape) * 0.2
        return params

    def test_iteration_unrolls_shared_block(self):
        cfg = toy_config(blocks=[BlockSpec(sub_blocks=1, iterations=2)])
        params = self._noisy_params(cfg, 8)
        v = Tensor(np.random.default_rng(9).normal(size=(8, 32)))
        out = separate(v, cfg, params)
        manual = apply_block(apply_block(v, params.blocks[0]), params.blocks[0])
        assert np.array_equal(out.data, manual.data)

    def test_blocks_run_in_order(self):
        cfg = toy_config(blocks=[BlockSpec(1, 2), BlockSpec(1, 2)])
        params = self._noisy_params(cfg, 10)
        v = Tensor(np.random.default_rng(11).normal(size=(8, 32)))
        out = separate(v, cfg, params)
        h = v
        for _ in range(2):
            h = apply_block(h, params.blocks[0])
        for _ in range(2):
            h = apply_block(h, params.blocks[1])
        assert np.array_equal(out.data, h.data)

    def test_depth_zero_is_identity(self):
        cfg = toy_config()
        params = self._noisy_params(cfg, 12)
        v = Tensor(np.random.default_rng(13).normal(size=(8, 32)))
        assert np.array_equal(separate(v, cfg, params, depth=0).data, v.data)

    def test_partial_then_continue_matches_full(self):
        cfg = toy_config(blocks=[BlockSpec(1, 4)])
        params = self._noisy_params(cfg, 14)
        v = Tensor(np.random.default_rng(15).normal(size=(8, 32)))
        full = separate(v, cfg, params)
        part = separate(v, cfg, params, depth=2)
        resumed = separate(part, cfg, params, depth=4, start=2)
        assert np.array_equal(full.data, resumed.data)

    def test_depth_bounds(self):
        cfg = toy_config(blocks=[BlockSpec(1, 2)])
        params = init_params(cfg, np.random.default_rng(16))
        with pytest.raises(ValueError, match="depth"):
            separate(Tensor(np.ones((8, 16))), cfg, params, depth=3)


class TestMaskAndDecode:
    def test_all_ones_mask_reduces_to_decoder(self):
        cfg = toy_config()
        params = init_params(cfg, np.random.default_rng(17))
        rng = np.random.default_rng(18)
        v_enc = Tensor(np.abs(rng.normal(size=(8, 16))))
        lat = Tensor(rng.normal(size=(8, 16)))
        params.mask_nets[0].w.data[...] = 0.0
        params.mask_nets[0].b.data[...] = 1.0  # mask = relu(0 * lat + 1) = 1
        out = mask_and_decode(v_enc, lat, 0, params)
        dec = params.decoders[0]
        direct = transposed_conv1d(v_enc, dec.w, dec.b, stride=cfg.enc_stride,
                                   padding="same", out_length=160)
        assert out.shape == (2, 160)
        for s in range(2):
            assert np.array_equal(out.data[s], direct.data[0])

    def test_all_zeros_mask_leaves_bias_response(self):
        cfg = toy_config()
        params = init_params(cfg, np.random.default_rng(19))
        params.decoders[0].b.data[...] = 0.75
        rng = np.random.default_rng(20)
        v_enc = Tensor(np.abs(rng.normal(size=(8, 16))))
        lat = Tensor(rng.normal(size=(8, 16)))
        params.mask_nets[0].w.data[...] = 0.0
        params.mask_nets[0].b.data[...] = 0.0  # mask = relu(0 * lat + 0) = 0
        out = mask_and_decode(v_enc, lat, 0, params)
        assert np.array_equal(out.data, np.full((2, 160), 0.75))

    def test_default_preset_output_length(self):
        params = init_params(SeparationConfig(), np.random.default_rng(21))
        rng = np.random.default_rng(22)
        v_enc = Tensor(np.abs(rng.normal(size=(512, 3200))))
        lat = Tensor(rng.normal(size=(128, 3200)))
        out = mask_and_decode(v_enc, lat, 0, params)
        assert out.shape == (3, 32000)
        assert np.all(np.isfinite(out.data))

    def test_stage_out_of_range(self):
        params = init_params(toy_config(), np.random.default_rng(23))
        with pytest.raises(ValueError, match="stage"):
            mask_and_decode(Tensor(np.ones((8, 4))), Tensor(np.ones((8, 4))), 1, params)


    @staticmethod
    def desk_heads():
        """The README desk model's heads on 1 s at 8 kHz: S=3, B=64, L=1000."""
        cfg = SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32,
                               num_sources=3, sub_scales=3, sub_kernel=5)
        params = init_params(cfg, np.random.default_rng(36))
        rng = np.random.default_rng(37)
        L = cfg.latent_length(8000)
        v_enc = Tensor(np.abs(rng.normal(size=(64, L))), requires_grad=True)
        lat = Tensor(rng.normal(size=(32, L)), requires_grad=True)
        return params, v_enc, lat

    def test_tapes_one_head_node(self):
        # the mask net's conv is inside the node, which records only its S x T output
        params, v_enc, lat = self.desk_heads()
        with Tape() as tape:
            out = mask_and_decode(v_enc, lat, 0, params, out_length=8000)
        assert len(tape) == 1
        assert tape.recorded_output_elems() == out.size == 3 * 8000
        assert tape.held_output_elems() == 0  # v_enc and the latent are leaves here

    def test_untaped_peak_holds_one_source_stack(self):
        # The masks are one S x B x L array, rectified and then masked source
        # by source in place.  What rides on top is the decoder's per-source
        # temporaries and the S x T output; a second B x L array (a ReLU
        # copy, or one source's masked product made out of place) would take
        # the peak past 1.5x, and a second stack past 2x.
        params, v_enc, lat = self.desk_heads()
        stack_bytes = 8 * 3 * 64 * 1000
        tracemalloc.start()
        try:
            mask_and_decode(v_enc, lat, 0, params, out_length=8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stack_bytes, peak / stack_bytes


def top_level_sizes(cfg, stages=1) -> dict:
    """Scalars per top-level name (``encoder``, ``block1``, ``mask0``, ...)
    of a drawn tree of ``cfg``."""
    sizes = {}
    for name, t in named_parameters(init_params(cfg, np.random.default_rng(0), stages=stages)):
        top = name.split(".")[0]
        sizes[top] = sizes.get(top, 0) + t.size
    return sizes


class TestCountParams:
    def test_draws_no_weights(self):
        # test_07's end-to-end model holds 13.7M scalars (110 MB drawn)
        cfg = SeparationConfig(blocks=[BlockSpec(sub_blocks=16)])
        tracemalloc.start()
        try:
            count = count_params(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 13_737_089
        assert peak <= 10e6, peak

    def test_counts_a_model_past_memory_without_storing_it(self):
        # 10**12 bases: every drawn weight, bias, slope, gain and projection
        # of a zero-draw tree is a view of one scalar.  Each basis adds 558
        # scalars: encoder 21 + 1, bottleneck 128, mask net 3 x (128 + 1)
        # and decoder 21.
        cfg = SeparationConfig(enc_bases=10**12)
        tracemalloc.start()
        try:
            count = count_params(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_params(SeparationConfig()) + 558 * (10**12 - 512) == 558_000_000_840_833
        assert peak < 1e6, peak

    def test_iterations_do_not_change_counts(self):
        for n in (1, 2, 4, 8):
            cfg = toy_config(blocks=[BlockSpec(sub_blocks=1, iterations=n)])
            assert count_params(cfg) == count_params(toy_config())

    def test_shared_block_counts_once(self):
        cfg2 = toy_config(blocks=[BlockSpec(2, 1), BlockSpec(2, 1, shares_params_with=0)])
        cfg1 = toy_config(blocks=[BlockSpec(2, 1)])
        assert count_params(cfg2) == count_params(cfg1)
        assert top_level_sizes(cfg2).get("block1", 0) == 0

    def test_doubling_k_doubles_block_count(self):
        c1 = top_level_sizes(toy_config(blocks=[BlockSpec(1, 1)]))
        c2 = top_level_sizes(toy_config(blocks=[BlockSpec(2, 1)]))
        assert c2["block0"] == 2 * c1["block0"]

    def test_matches_actual_tensor_sizes(self):
        for cfg in (
            toy_config(),
            toy_config(blocks=[BlockSpec(2, 3), BlockSpec(2, 1, shares_params_with=0)]),
            toy_config(blocks=[BlockSpec(1, 2), BlockSpec(3, 1)], num_sources=3),
        ):
            for stages in (1, 2):
                params = init_params(cfg, np.random.default_rng(0), stages=stages)
                actual = sum(t.size for _, t in named_parameters(params))
                assert count_params(cfg, stages=stages) == actual

    def test_stage_heads_add_linearly(self):
        cfg = toy_config()
        c1 = top_level_sizes(cfg)
        assert count_params(cfg, stages=2) - count_params(cfg, stages=1) == c1["mask0"] + c1["dec0"]


class TestSharing:
    def test_aliased_blocks_observe_mutation(self):
        cfg = toy_config(blocks=[BlockSpec(1, 1), BlockSpec(1, 1, shares_params_with=0)])
        params = init_params(cfg, np.random.default_rng(24))
        assert params.blocks[1] is params.blocks[0]
        params.blocks[0][0].down[0].conv.w.data[...] = 3.0
        assert np.all(params.blocks[1][0].down[0].conv.w.data == 3.0)

    def test_named_parameters_deduplicate(self):
        cfg = toy_config(blocks=[BlockSpec(1, 1), BlockSpec(1, 1, shares_params_with=0)])
        params = init_params(cfg, np.random.default_rng(25))
        names = [n for n, _ in named_parameters(params)]
        assert len(names) == len(set(names))
        assert not any(n.startswith("block1.") for n in names)

    def test_clone_preserves_aliasing_and_values(self):
        cfg = toy_config(blocks=[BlockSpec(1, 2), BlockSpec(1, 1, shares_params_with=0)])
        params = init_params(cfg, np.random.default_rng(26))
        copy = clone_params(params)
        assert copy.blocks[1] is copy.blocks[0]
        assert copy.encoder.w is not params.encoder.w
        for (na, ta), (nb, tb) in zip(named_parameters(params), named_parameters(copy)):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_clone_owns_writable_data_and_keeps_requires_grad(self):
        params = init_params(toy_config(), np.random.default_rng(38))
        params.encoder.w.requires_grad = False
        copy = clone_params(params)
        for (_, ta), (_, tb) in zip(named_parameters(params), named_parameters(copy)):
            assert tb.data.flags.writeable and not np.shares_memory(ta.data, tb.data)
            assert tb.requires_grad == ta.requires_grad
        copy.encoder.w.data[...] = 7.0
        assert not np.any(params.encoder.w.data == 7.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = toy_config(blocks=[BlockSpec(2, 2), BlockSpec(2, 1, shares_params_with=0)])
        params = init_params(cfg, np.random.default_rng(27))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"note": "round-trip"})
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.stages == 1
        assert loaded.meta == {"note": "round-trip"}
        named = named_parameters(params)
        assert list(loaded.arrays) == [n for n, _ in named]
        for name, t in named:
            assert t.data.tobytes() == loaded.arrays[name].tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        params = init_params(toy_config(), np.random.default_rng(28))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params)
        save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extra_tensors_round_trip(self, tmp_path):
        params = init_params(toy_config(), np.random.default_rng(29))
        extra = {"gate.w": Tensor(np.arange(6.0).reshape(2, 3))}
        path = tmp_path / "g.ckpt"
        save_checkpoint(path, params, extra_tensors=extra)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.arrays["gate.w"], extra["gate.w"].data)

    @pytest.mark.parametrize("name", ["encoder.w", 3])
    def test_extra_tensor_named_like_a_model_tensor_refused(self, tmp_path, name):
        params = init_params(toy_config(), np.random.default_rng(30))
        path = tmp_path / "g.ckpt"
        with pytest.raises(ValueError, match=rf"extra tensor names \[{name!r}\]"):
            save_checkpoint(path, params, extra_tensors={name: Tensor(np.full((2, 1, 4), 7.0))})
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(32)))
        raw = path.read_bytes()
        assert raw.count(b'"format":1') == 1
        path.write_bytes(raw.replace(b'"format":1', b'"format":2'))
        with pytest.raises(ValueError, match="format 2"):
            load_checkpoint(path)

    def test_header_cut_short_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(34)))
        raw = path.read_bytes()
        # the file ends 30 bytes into the header's JSON
        path.write_bytes(raw[:16 + 30])
        with pytest.raises(ValueError, match=r"model\.ckpt: header has 30 of"):
            load_checkpoint(path)
        # the length field agrees, but the JSON stops after 30 bytes
        path.write_bytes(raw[:8] + (30).to_bytes(8, "little") + raw[16:16 + 30])
        with pytest.raises(ValueError, match=r"model\.ckpt has a malformed header"):
            load_checkpoint(path)

    def test_header_length_beyond_the_file_rejected(self, tmp_path):
        # the length field declares 2**40 header bytes: named before any read
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(39)))
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (2**40).to_bytes(8, "little") + raw[16:])
        with pytest.raises(ValueError, match=rf"model\.ckpt: header has {len(raw) - 16} of "
                                             rf"{2**40} bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["tensors", "config"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(35)))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + hlen])
        del header[key]
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match=f"model\\.ckpt header has no '{key}' key"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, cause", [
        (lambda h: h["tensors"][0].pop("shape"), "malformed tensor entry"),
        (lambda h: h.update(meta=3), "object 'meta'"),
        (lambda h: h.update(stages="2"), "integer 'stages'"),
        (lambda h: h["config"].update(blocks=7), "invalid model config"),
        (lambda h: h["tensors"][0].update(shape=[2.9, 1, 4]), r"\[2\.9, 1, 4\].*non-negative integers"),
        (lambda h: h["tensors"][0].update(shape=[True, 1, 4]), r"\[True, 1, 4\].*non-negative integers"),
        (lambda h: h["tensors"][0].update(shape=[-1, 1, 4]), r"\[-1, 1, 4\].*non-negative integers"),
        (lambda h: h["tensors"][0].update(shape=[-1, -1]), r"\[-1, -1\].*non-negative integers"),
        (lambda h: h["tensors"][0].update(name=["encoder.w"]),
         r"\['encoder\.w'\].*a name is a string that no other entry has"),
        (lambda h: h["tensors"][0].update(name=7), r"'name': 7.*a name is a string"),
        (lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
         r"'name': 'encoder\.w'.*a name is a string that no other entry has"),
        (lambda h: h.update(tensors=5), r"'tensors' is 5, not a list"),
        (lambda h: h.update(tensors=None), r"'tensors' is None, not a list"),
        (lambda h: h["tensors"][0].update(shape=[2**40, 1, 4]),
         r"'encoder\.w'.*\[1099511627776, 1, 4\]\} declares 35184372088832 bytes, \d+ are left"),
        (lambda h: h.update(config=5), "config section model must be an object, got 5"),
        (lambda h: h["config"].update(blocks=5), r"config section model\.blocks must be a list"),
        (lambda h: h["config"].update(blocks=[7]), r"config section model\.blocks\[0\] must be an object"),
        (lambda h: h["config"].update(enc_basez=1), r"unknown config key model\.enc_basez"),
        (lambda h: h["config"].update(blocks=[{"x": 1}]), r"unknown config key model\.blocks\[0\]\.x"),
        (lambda h: h.update(format=True), r"format True, this reader supports 1"),
        (lambda h: h.update(format=1.0), r"format 1\.0, this reader supports 1"),
    ], ids=["tensor_entry", "meta", "stages", "config", "shape_float", "shape_bool",
            "shape_negative", "shape_two_unknown", "name_list", "name_int", "name_repeated",
            "tensors_int", "tensors_null", "shape_beyond_file", "config_int", "config_blocks_int",
            "config_block_int", "config_unknown_key", "config_block_unknown_key", "format_true",
            "format_float"])
    def test_malformed_header_values_rejected(self, tmp_path, edit, cause):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(37)))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + hlen])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match=f"model\\.ckpt.*{cause}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("stages", [True, 0, 1.0], ids=repr)
    def test_stages_must_be_a_positive_integer(self, tmp_path, stages):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(38)))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + hlen])
        header["stages"] = stages
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match=rf"model\.ckpt header needs .*'stages' >= 1, "
                                             rf"got stages {stages!r}"):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_the_tensors(self, tmp_path):
        # 1.7M scalars; drawing a throwaway tree before reading took ~2x
        cfg = SeparationConfig(blocks=[BlockSpec(sub_blocks=2)])
        params = init_params(cfg, np.random.default_rng(36))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        tensor_bytes = 8 * sum(t.size for _, t in named_parameters(params))
        del params
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * tensor_bytes, peak / tensor_bytes
        assert all(a.flags.writeable for a in loaded.arrays.values())

    @pytest.mark.parametrize("cause, names, arrays", [
        ("missing", 20, 0), ("unknown", 0, 20), ("missing", 8, 0),
    ], ids=["twenty_missing", "twenty_unknown", "eight_missing"])
    def test_fill_named_lists_eight_names_and_counts_the_rest(self, cause, names, arrays):
        named = [(f"t{i:02d}", Tensor(np.zeros(1))) for i in range(names)]
        given = {f"t{i:02d}": np.zeros(1) for i in range(arrays)}
        listed = ", ".join(f"'t{i:02d}'" for i in range(8))
        more = "" if max(names, arrays) == 8 else " and 12 more"
        with pytest.raises(ValueError, match=f"^tree tensors {cause}: {re.escape(f'[{listed}]{more}')}$"):
            fill_named(named, given, "tree")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(toy_config(), np.random.default_rng(33)))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def checkpoint_cases(draw):
    """(params, extra tensors, meta) of a small model: 1-3 blocks, some
    aliasing an earlier one, 1-3 head pairs, and JSON meta."""
    blocks = []
    for i in range(draw(st.integers(1, 3))):
        share = draw(st.none() | st.integers(0, i - 1)) if i else None
        sub_blocks = draw(st.integers(1, 2)) if share is None else blocks[share].sub_blocks
        blocks.append(BlockSpec(sub_blocks, draw(st.integers(1, 3)), share))
    config = SeparationConfig(
        enc_bases=draw(st.integers(1, 4)), enc_kernel=draw(st.integers(1, 4)),
        enc_stride=draw(st.integers(1, 3)), latent_channels=draw(st.integers(1, 3)),
        num_sources=draw(st.integers(1, 3)), blocks=blocks,
        sub_scales=draw(st.integers(1, 2)), sub_kernel=draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(config, rng, stages=draw(st.integers(1, 3)))
    for _, t in named_parameters(params):
        t.data = rng.normal(size=t.shape)
    shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
    extra = {name: Tensor(rng.normal(size=shape)) for name, shape in draw(
        st.dictionaries(st.sampled_from(["gate.a", "gate.b", "gate.c"]), shapes, max_size=3)).items()}
    meta = draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))
    return params, extra, meta


class TestCheckpointProperties:
    @given(case=checkpoint_cases())
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, case):
        params, extra, meta = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, params, extra_tensors=extra, meta=meta)
            loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.stages == len(params.mask_nets) == len(params.decoders)
        assert loaded.meta == meta
        want = named_parameters(params) + sorted(extra.items())
        assert list(loaded.arrays) == [n for n, _ in want]
        for name, t in want:
            arr = loaded.arrays[name]
            assert arr.shape == t.shape and arr.tobytes() == t.data.tobytes()

    @given(case=checkpoint_cases(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_cut_file_is_rejected_by_name(self, case, data):
        params, extra, meta = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cut.ckpt"
            save_checkpoint(path, params, extra_tensors=extra, meta=meta)
            raw = path.read_bytes()
            header_end = 16 + int.from_bytes(raw[8:16], "little")
            # every cut in the magic and length fields, both ends of the header, and one drawn cut
            cuts = {*range(17), header_end - 1, header_end,
                    data.draw(st.integers(0, len(raw) - 1), label="cut")}
            for n in sorted(cuts):
                path.write_bytes(raw[:n])
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    load_checkpoint(path)


class TestEndToEndGradients:
    def test_toy_pipeline_grad_check(self):
        cfg = toy_config()
        rng = np.random.default_rng(30)
        params = init_params(cfg, rng)
        params.blocks[0][0].proj.w.data[...] = rng.normal(size=(8, 8, 1)) * 0.1
        x = Tensor(rng.uniform(-1, 1, size=(1, 320)))

        def f():
            v_enc, v = encode(x, params)
            lat = separate(v, cfg, params)
            ests = mask_and_decode(v_enc, lat, 0, params, out_length=320)
            return sum_all(mul(ests, ests))

        err = grad_check(f, [t for _, t in named_parameters(params)])
        assert err < 1e-4

    def test_toy_pipeline_with_pit_loss(self):
        cfg = toy_config()
        rng = np.random.default_rng(31)
        params = init_params(cfg, rng)
        refs = rng.normal(size=(2, 320))
        x = Tensor(refs.sum(axis=0, keepdims=True))

        def f():
            v_enc, v = encode(x, params)
            lat = separate(v, cfg, params)
            ests = mask_and_decode(v_enc, lat, 0, params, out_length=320)
            return pit_loss(ests, refs, speech_count=1).loss

        subset = [t for n, t in named_parameters(params) if n.startswith(("mask0", "dec0", "bottleneck"))]
        err = grad_check(f, subset)
        assert err < 1e-4
