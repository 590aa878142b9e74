"""Gate behaviour: deterministic inference, Gumbel sampling statistics,
straight-through gradients, early exit, and the iteration penalty."""

import numpy as np
import pytest

from latref import gating
from latref.diffcore import Tape, Tensor, backward, conv1d, grad_check, mul, sum_all
from latref.gating import (
    GateParams,
    _blend,
    _gate_soft,
    adaptive_separate,
    gate_forward,
    gate_logits,
    gate_named_parameters,
    gate_penalty,
    gated_step,
    init_gate,
)
from latref.sepmodel import BlockSpec, SeparationConfig, _ZeroDraws, apply_block, fill_named, init_params
from latref.sepmodel import separate


def small_setup(iterations=4, seed=0, noisy=True, L=16):
    cfg = SeparationConfig(
        enc_bases=8, enc_kernel=8, enc_stride=4, latent_channels=4, num_sources=2,
        blocks=[BlockSpec(sub_blocks=1, iterations=iterations)], sub_scales=2, sub_kernel=3,
    )
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    if noisy:
        for sb in params.blocks[0]:
            sb.proj.w.data[...] = rng.normal(size=sb.proj.w.shape) * 0.3
    gate = init_gate(cfg.latent_channels, L, rng)
    return cfg, params, gate


def biased_gate(latent_channels, L, bias):
    """Gate whose body always outputs the given logits."""
    gate = init_gate(latent_channels, L, np.random.default_rng(0))
    gate.proj1.w.data[...] = 0.0
    gate.proj1.b.data[...] = 0.0
    gate.proj2.w.data[...] = 0.0
    gate.proj2.b.data[...] = np.asarray(bias, dtype=np.float64)
    return gate


# Gumbel noise from uniform draws clipped to [1e-12, 1 - 1e-12] lies in
# [-3.4, 27.7], so logits 100 apart decide the same way in train and infer
# mode, and the straight-through value is exactly 0 or 1.
ALWAYS_SKIP = [50.0, -50.0]
ALWAYS_PROCESS = [-50.0, 50.0]


class TestGateForward:
    def test_infer_skip_on_dominant_first_logit(self):
        gate = biased_gate(4, 16, [3.0, -1.0])
        v = Tensor(np.zeros((4, 16)))
        d = gate_forward(v, gate, "infer")
        assert d.hard == 0 and d.soft == 0.0 and d.st is None
        np.testing.assert_allclose(gate_logits(v, gate).data[:, 0], [3.0, -1.0])

    def test_infer_process_on_dominant_second_logit(self):
        gate = biased_gate(4, 16, [-1.0, 3.0])
        d = gate_forward(Tensor(np.zeros((4, 16))), gate, "infer")
        assert d.hard == 1 and d.soft == 1.0

    def test_infer_is_deterministic(self):
        cfg, params, gate = small_setup()
        v = Tensor(np.random.default_rng(1).normal(size=(4, 16)))
        first = gate_forward(v, gate, "infer")
        first_logits = gate_logits(v, gate).data
        for _ in range(5):
            again = gate_forward(v, gate, "infer")
            assert again.hard == first.hard
            assert np.array_equal(gate_logits(v, gate).data, first_logits)

    def test_train_mode_draw_statistics_at_even_logits(self):
        gate = biased_gate(2, 4, [0.0, 0.0])
        v = Tensor(np.zeros((2, 4)))
        rng = np.random.default_rng(123)
        hits = sum(gate_forward(v, gate, "train", rng).hard for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_train_decision_fields(self):
        cfg, params, gate = small_setup()
        v = Tensor(np.random.default_rng(2).normal(size=(4, 16)))
        d = gate_forward(v, gate, "train", np.random.default_rng(3))
        assert d.hard in (0, 1)
        assert 0.0 < d.soft < 1.0
        assert d.st is not None and float(d.st.data) == float(d.hard)

    def test_length_mismatch_rejected(self):
        gate = biased_gate(4, 16, [0.0, 0.0])
        with pytest.raises(ValueError, match="length"):
            gate_forward(Tensor(np.zeros((4, 8))), gate, "infer")

    def test_train_needs_rng(self):
        gate = biased_gate(4, 16, [0.0, 0.0])
        with pytest.raises(ValueError, match="rng"):
            gate_forward(Tensor(np.zeros((4, 16))), gate, "train")

    def test_param_count_formula(self):
        gate = init_gate(128, 3200, np.random.default_rng(0))
        actual = sum(t.size for _, t in gate_named_parameters(gate))
        assert actual == 13062


class TestGatedStep:
    def test_forced_skip_returns_input_bit_exactly(self):
        cfg, params, _ = small_setup()
        gate = biased_gate(4, 16, ALWAYS_SKIP)
        v = Tensor(np.random.default_rng(4).normal(size=(4, 16)))
        for seed in range(20):
            with Tape():  # the gate's two nodes taped, as in training
                out, d = gated_step(v, params.blocks[0], gate, np.random.default_rng(seed))
            assert d.hard == 0 and float(d.st.data) == 0.0
            assert np.array_equal(out.data, v.data)

    def test_forced_process_matches_block(self):
        cfg, params, _ = small_setup()
        gate = biased_gate(4, 16, ALWAYS_PROCESS)
        v = Tensor(np.random.default_rng(5).normal(size=(4, 16)))
        expected = apply_block(v, params.blocks[0])
        for seed in range(20):
            with Tape():  # the gate's two nodes taped, as in training
                out, d = gated_step(v, params.blocks[0], gate, np.random.default_rng(seed))
            assert d.hard == 1 and float(d.st.data) == 1.0
            assert np.array_equal(out.data, expected.data)

    def test_gate_gradient_nonzero_when_block_changes_latent(self):
        cfg, params, gate = small_setup(seed=6)
        v = Tensor(np.random.default_rng(7).normal(size=(4, 16)))
        with Tape() as tape:
            out, d = gated_step(v, params.blocks[0], gate, np.random.default_rng(8))
            loss = sum_all(mul(out, out))
        backward(tape, loss)
        grads = [t.grad for _, t in gate_named_parameters(gate)]
        assert any(g is not None and np.any(g != 0) for g in grads)

    def test_soft_path_matches_finite_differences(self):
        # The straight-through backward is the gradient of the soft surrogate;
        # check that surrogate end to end, through the soft-decision node and
        # the blend, against finite differences.
        cfg, params, gate = small_setup(seed=9)
        rng = np.random.default_rng(10)
        v = Tensor(rng.normal(size=(4, 16)))
        noise = rng.gumbel(size=(2, 1))

        def f():
            p, _ = _gate_soft(v, gate, noise)
            out = _blend(apply_block(v, params.blocks[0]), v, p)
            return sum_all(mul(out, out))

        err = grad_check(f, [t for _, t in gate_named_parameters(gate)])
        assert err < 1e-4


class TestGateNodes:
    """A taped gated step is its block application plus three nodes: the
    soft decision, the straight-through sum and the blend."""

    def latent(self, seed):
        # an op output, as the refinement loop's latent is
        x = Tensor(np.random.default_rng(seed).normal(size=(4, 16)), requires_grad=True)
        return conv1d(x, Tensor(np.eye(4)[:, :, None]))

    def test_gated_step_tapes_three_nodes_beyond_its_block(self):
        cfg, params, gate = small_setup(seed=20)
        with Tape() as plain:
            apply_block(self.latent(21), params.blocks[0])
        with Tape() as gated:
            gated_step(self.latent(21), params.blocks[0], gate, np.random.default_rng(22))
        assert len(gated) == len(plain) + 3

    def test_soft_node_holds_nothing_the_block_does_not(self):
        cfg, params, gate = small_setup(seed=23)
        with Tape() as tape:
            v = self.latent(24)
            apply_block(v, params.blocks[0])
            before = tape.held_output_elems()
            _gate_soft(v, gate, np.zeros((2, 1)))
            assert tape.held_output_elems() == before
        with Tape() as step:
            out, _ = gated_step(self.latent(24), params.blocks[0], gate, np.random.default_rng(25))
        # beyond the block application's arrays, the blend holds B(v)
        assert step.held_output_elems() == before + out.size

    def test_soft_node_forward_is_the_logits_softmax(self):
        cfg, params, gate = small_setup(seed=26)
        v = Tensor(np.random.default_rng(27).normal(size=(4, 16)))
        noise = np.random.default_rng(28).gumbel(size=(2, 1))
        zn = gate_logits(v, gate).data + noise
        e = np.exp(zn - zn.max(axis=0, keepdims=True))
        soft, hard = _gate_soft(v, gate, noise)
        assert soft.item() == (e / e.sum(axis=0, keepdims=True))[1, 0]
        assert hard == int(np.argmax(zn[:, 0]))


class TestAdaptiveSeparate:
    def test_forced_process_equals_full_depth(self):
        cfg, params, _ = small_setup()
        gate = biased_gate(4, 16, ALWAYS_PROCESS)
        v = Tensor(np.random.default_rng(11).normal(size=(4, 16)))
        out, g = adaptive_separate(v, cfg, params, gate, "infer")
        assert g == 4
        assert np.array_equal(out.data, separate(v, cfg, params).data)
        out_t, g_t = adaptive_separate(v, cfg, params, gate, "train", np.random.default_rng(0))
        assert float(g_t.data) == 4.0
        assert np.array_equal(out_t.data, out.data)

    def test_forced_skip_is_identity(self):
        cfg, params, _ = small_setup()
        gate = biased_gate(4, 16, ALWAYS_SKIP)
        v = Tensor(np.random.default_rng(12).normal(size=(4, 16)))
        out, g = adaptive_separate(v, cfg, params, gate, "infer")
        assert g == 0
        assert out is v
        out_t, g_t = adaptive_separate(v, cfg, params, gate, "train", np.random.default_rng(0))
        assert float(g_t.data) == 0.0
        assert np.array_equal(out_t.data, v.data)

    def test_early_exit_matches_full_evaluation(self, monkeypatch):
        cfg, params, gate = small_setup(seed=13)
        # Bias the gate mildly toward skipping so exits happen at varied depths.
        gate.proj2.b.data[...] = [0.4, 0.0]
        counts = {"n": 0}
        real = gating.apply_block

        def counting(v, block):
            counts["n"] += 1
            return real(v, block)

        monkeypatch.setattr(gating, "apply_block", counting)
        rng = np.random.default_rng(14)
        exercised = 0
        for trial in range(20):
            v = Tensor(rng.normal(size=(4, 16)) * 2.0)
            counts["n"] = 0
            lazy, g_lazy = adaptive_separate(v, cfg, params, gate, "infer", early_exit=True)
            lazy_evals = counts["n"]
            counts["n"] = 0
            full, g_full = adaptive_separate(v, cfg, params, gate, "infer", early_exit=False)
            full_evals = counts["n"]
            assert np.array_equal(lazy.data, full.data)
            assert g_lazy == g_full
            assert lazy_evals == g_lazy
            assert full_evals == cfg.total_steps()
            if g_lazy < cfg.total_steps():
                assert lazy_evals < full_evals
                exercised += 1
        assert exercised > 0  # at least one genuine early exit happened

    def test_train_mode_counts_match_hard_draws(self):
        cfg, params, gate = small_setup(seed=15)
        v = Tensor(np.random.default_rng(16).normal(size=(4, 16)))
        out, g = adaptive_separate(v, cfg, params, gate, "train", np.random.default_rng(17))
        assert isinstance(g, Tensor)
        assert float(g.data) in {0.0, 1.0, 2.0, 3.0, 4.0}
        assert out.shape == (4, 16)

    def test_empty_schedule_rejected(self):
        cfg, params, gate = small_setup()
        cfg_empty = SeparationConfig(
            enc_bases=8, enc_kernel=8, enc_stride=4, latent_channels=4, num_sources=2,
            blocks=[BlockSpec(1, 1)], sub_scales=2, sub_kernel=3,
        )
        cfg_empty.blocks = []
        with pytest.raises(ValueError, match="steps"):
            adaptive_separate(Tensor(np.zeros((4, 16))), cfg_empty, params, gate, "infer")


class TestGatePenalty:
    def test_worked_values(self):
        assert gate_penalty(3.0).item() == 0.0
        assert gate_penalty(4.0).item() == 0.75
        assert gate_penalty(1.0).item() == 3.0

    def test_configurable_coefficients(self):
        assert gate_penalty(5.0, coef=2.0, target=1.0).item() == 32.0

    def test_differentiable_in_g(self):
        g = Tensor(np.asarray(2.0), requires_grad=True)
        with Tape() as tape:
            loss = gate_penalty(g)
        backward(tape, loss)
        assert g.grad == pytest.approx(0.75 * 2 * (2.0 - 3.0))


def filled_gate(arrays, latent_channels, latent_len):
    """The gate over a ``latent_channels`` x ``latent_len`` latent, filled
    from ``arrays`` as the checkpoint reader fills it."""
    gate = init_gate(latent_channels, latent_len, _ZeroDraws())
    fill_named(gate_named_parameters(gate), arrays, "gate")
    return gate


class TestGateSerialization:
    def test_named_round_trip(self):
        gate = init_gate(6, 12, np.random.default_rng(18))
        arrays = {n: t.data for n, t in gate_named_parameters(gate)}
        rebuilt = filled_gate(arrays, 6, 12)
        for (na, ta), (nb, tb) in zip(gate_named_parameters(gate), gate_named_parameters(rebuilt)):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_missing_tensor_detected(self):
        with pytest.raises(ValueError, match="missing"):
            filled_gate({"gate.proj1.w": np.zeros((2, 4, 1))}, 4, 7)

    @pytest.mark.parametrize("edit, cause", [
        (lambda a: a.pop("gate.slope"), r"gate tensors missing: \['gate\.slope'\]"),
        (lambda a: a.update({"gate.proj3.w": np.zeros(2)}), r"gate tensors unknown: \['gate\.proj3\.w'\]"),
        (lambda a: a.update({"gate.proj2.w": np.zeros((2, 2, 6))}),
         r"gate tensor gate\.proj2\.w of shape \(2, 2, 6\), expected \(2, 2, 7\)"),
        (lambda a: a.update({"gate.proj1.w": np.zeros((2, 5, 1))}),
         r"gate tensor gate\.proj1\.w of shape \(2, 5, 1\), expected \(2, 4, 1\)"),
    ], ids=["missing", "unknown", "span", "channels"])
    def test_tensors_checked_against_the_latent_shape(self, edit, cause):
        arrays = {n: t.data for n, t in gate_named_parameters(init_gate(4, 7, np.random.default_rng(19)))}
        edit(arrays)
        with pytest.raises(ValueError, match=cause):
            filled_gate(arrays, 4, 7)
