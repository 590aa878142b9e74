"""Tests for the reverse-mode core: op forwards against naive oracles,
adjoint identities, and finite-difference gradient checks."""

import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latref import diffcore as dc
from latref.diffcore import (
    Tape,
    Tensor,
    add,
    backward,
    conv1d,
    grad_check,
    masked_decode,
    mul,
    prelu_norm,
    relu,
    sum_all,
    transposed_conv1d,
    upsample_conv1d,
)
from latref.gating import _blend, _gate_soft, gate_named_parameters, init_gate
from latref.losses import pit_loss
from reference_ops import slice_rows, upsample_nearest


def conv1d_oracle(x, w, b=None, stride=1, padding="same"):
    """Naive loop implementation used as the independent reference."""
    Cout, Cin, K = w.shape
    T = x.shape[1]
    if padding == "same":
        Tp = -(-T // stride)
        total = max(0, K + (Tp - 1) * stride - T)
        left = total // 2
        xpad = np.zeros((Cin, T + total))
        xpad[:, left:left + T] = x
    else:
        Tp = (T - K) // stride + 1
        xpad = x
    out = np.zeros((Cout, Tp))
    for o in range(Cout):
        for t in range(Tp):
            acc = 0.0
            for i in range(Cin):
                for k in range(K):
                    acc += w[o, i, k] * xpad[i, t * stride + k]
            out[o, t] = acc
        if b is not None:
            out[o] += b[o]
    return out


def tconv1d_oracle(v, w, b=None, stride=1):
    """Naive full overlap-add (the "valid" mode)."""
    Cin, Cout, K = w.shape
    L = v.shape[1]
    out = np.zeros((Cout, (L - 1) * stride + K))
    for c in range(Cin):
        for o in range(Cout):
            for l in range(L):
                for k in range(K):
                    out[o, l * stride + k] += w[c, o, k] * v[c, l]
    if b is not None:
        out += b[:, None]
    return out


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 17)))
        w = np.zeros((3, 3, 1))
        w[np.arange(3), np.arange(3), 0] = 1.0
        out = conv1d(x, Tensor(w), stride=1, padding="same")
        assert np.array_equal(out.data, x.data)

    def test_valid_small_example(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        w = Tensor(np.array([[[1.0, 1.0]]]))
        out = conv1d(x, w, stride=1, padding="valid")
        assert np.array_equal(out.data, np.array([[3.0, 5.0]]))

    def test_same_length_contract(self):
        # Output length is always ceil(T / stride), including the 8 kHz
        # 4-second preset geometry.
        x = Tensor(np.zeros((1, 32000)))
        w = Tensor(np.zeros((2, 1, 21)))
        out = conv1d(x, w, stride=10, padding="same")
        assert out.shape == (2, 3200)
        for T, K, s in [(10, 21, 10), (7, 3, 2), (5, 5, 1), (64, 1, 3)]:
            out = conv1d(Tensor(np.zeros((1, T))), Tensor(np.zeros((1, 1, K))), stride=s)
            assert out.shape == (1, -(-T // s)), (T, K, s)

    @pytest.mark.parametrize("padding,stride", [("same", 1), ("same", 3), ("valid", 1), ("valid", 2)])
    def test_matches_oracle(self, padding, stride):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 19))
        w = rng.normal(size=(4, 2, 5))
        b = rng.normal(size=4)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = conv1d_oracle(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)

    def test_channel_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(3, 8\).*\(2, 4, 5\)"):
            conv1d(Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 4, 5))))

    def test_valid_needs_long_enough_input(self):
        with pytest.raises(ValueError, match="kernel"):
            conv1d(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 1, 5))), padding="valid")

    def test_geometry_and_tap_runs_are_memoised_and_immutable(self):
        # A memoised value is shared by every caller, so none may change it.
        runs = dc._tap_runs(17, 5, 2, 2, 9)
        assert runs is dc._tap_runs(17, 5, 2, 2, 9)
        assert isinstance(runs, tuple) and all(isinstance(run, tuple) for run in runs)
        assert dc._conv_geometry(17, 5, 2, "same") is dc._conv_geometry(17, 5, 2, "same") == (9, 2, 2)


class TestTransposedConv1d:
    def test_overlap_add_example(self):
        v = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[[1.0, 1.0]]]))
        out = transposed_conv1d(v, w, stride=1, padding="valid")
        assert np.array_equal(out.data, np.array([[1.0, 3.0, 2.0]]))

    def test_matches_oracle_valid(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 7))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=2)
        out = transposed_conv1d(Tensor(v), Tensor(w), Tensor(b), stride=2, padding="valid")
        np.testing.assert_allclose(out.data, tconv1d_oracle(v, w, b, stride=2), atol=1e-12)

    def test_same_mode_default_length(self):
        rng = np.random.default_rng(6)
        v = Tensor(rng.normal(size=(2, 6)))
        w = Tensor(rng.normal(size=(2, 1, 4)))
        out = transposed_conv1d(v, w, stride=2, padding="same")
        assert out.shape == (1, 12)

    @pytest.mark.parametrize("K,stride,L,T", [(2, 3, 4, 10), (4, 5, 3, 12), (5, 6, 3, 14), (1, 4, 5, 17)])
    def test_gaps_are_zeros(self, K, stride, L, T):
        # stride > K: samples that no kernel copy reaches hold the bias alone
        rng = np.random.default_rng(K * 10 + stride)
        v, w, b = rng.normal(size=(2, L)), rng.normal(size=(2, 3, K)), rng.normal(size=3)
        full = tconv1d_oracle(v, w, b, stride=stride)
        out = transposed_conv1d(Tensor(v), Tensor(w), Tensor(b), stride=stride, padding="valid")
        assert out.shape == full.shape == (3, (L - 1) * stride + K)
        np.testing.assert_allclose(out.data, full, rtol=0, atol=1e-12)
        gaps = np.arange(full.shape[1]) % stride >= K
        assert gaps.any() and np.array_equal(out.data[:, gaps], np.repeat(b[:, None], gaps.sum(), 1))
        # "same" crops the full overlap-add where a "same" conv over T samples pads
        left = max(0, K + (L - 1) * stride - T) // 2
        same = np.repeat(b[:, None], T, axis=1)
        n = min(T, full.shape[1] - left)
        same[:, :n] = full[:, left:left + n]
        out = transposed_conv1d(Tensor(v), Tensor(w), Tensor(b), stride=stride, out_length=T)
        np.testing.assert_allclose(out.data, same, rtol=0, atol=1e-12)

    def test_valid_takes_any_length_its_conv_maps_back(self):
        # a valid conv over 13 samples reads only the first 12; its adjoint's 13th is zero
        rng = np.random.default_rng(4)
        y, w = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 3, 4)))
        full = transposed_conv1d(y, w, stride=2, padding="valid").data
        out = transposed_conv1d(y, w, stride=2, padding="valid", out_length=13).data
        assert np.array_equal(out, np.concatenate([full, np.zeros((3, 1))], axis=1))
        with pytest.raises(ValueError, match="out_length 14 to 6 samples, not the input's 5"):
            transposed_conv1d(y, w, stride=2, padding="valid", out_length=14)

    @pytest.mark.parametrize("needs", ["v", "w"])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_vjp_of_one_operand(self, padding, needs):
        rng = np.random.default_rng(9)
        v = Tensor(rng.normal(size=(2, 5)), requires_grad=needs == "v")
        w = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=needs == "w")
        b = Tensor(rng.normal(size=3))

        def f():
            h = transposed_conv1d(v, w, b, stride=2, padding=padding)
            return sum_all(mul(h, h))

        assert grad_check(f, [v if needs == "v" else w]) < 1e-4
        assert (w if needs == "v" else v).grad is None

    @pytest.mark.parametrize("stride,K,T", [(1, 3, 11), (2, 4, 12), (3, 5, 13), (10, 21, 32)])
    def test_adjoint_identity_same(self, stride, K, T):
        # <conv(x, w), y> == <x, conv_T(y, w)> with matching geometry.
        rng = np.random.default_rng(stride * 100 + K)
        Cin, Cout = 3, 2
        x = rng.normal(size=(Cin, T))
        w = rng.normal(size=(Cout, Cin, K))
        y = rng.normal(size=(Cout, -(-T // stride)))
        lhs = float(np.sum(conv1d(Tensor(x), Tensor(w), stride=stride, padding="same").data * y))
        xt = transposed_conv1d(
            Tensor(y), Tensor(w), stride=stride, padding="same", out_length=T
        )
        rhs = float(np.sum(x * xt.data))
        assert abs(lhs - rhs) / max(1e-12, abs(lhs)) < 1e-10

    def test_adjoint_identity_valid(self):
        rng = np.random.default_rng(3)
        Cin, Cout, K, stride = 2, 3, 4, 2
        T = 12  # (T - K) divisible by stride, so windows tile exactly
        x = rng.normal(size=(Cin, T))
        w = rng.normal(size=(Cout, Cin, K))
        Tp = (T - K) // stride + 1
        y = rng.normal(size=(Cout, Tp))
        lhs = float(np.sum(conv1d(Tensor(x), Tensor(w), stride=stride, padding="valid").data * y))
        xt = transposed_conv1d(Tensor(y), Tensor(w), stride=stride, padding="valid")
        rhs = float(np.sum(x * xt.data))
        assert abs(lhs - rhs) / max(1e-12, abs(lhs)) < 1e-10

    @given(
        stride=st.integers(1, 4),
        K=st.integers(1, 6),
        T=st.integers(4, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity_property(self, stride, K, T, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, T))
        w = rng.normal(size=(2, 2, K))
        y = rng.normal(size=(2, -(-T // stride)))
        lhs = float(np.sum(conv1d(Tensor(x), Tensor(w), stride=stride).data * y))
        xt = transposed_conv1d(
            Tensor(y), Tensor(w), stride=stride, out_length=T
        )
        rhs = float(np.sum(x * xt.data))
        assert abs(lhs - rhs) / max(1e-12, abs(lhs) + abs(rhs)) < 1e-10


# (T, K, stride, padding) of conv1d vjp cases
CONV_VJP_CASES = [
    (3, 7, 1, "same"),  # K > T: the outer taps read padding only
    (4, 9, 2, "same"),  # the same, strided: taps 0 and 8 read padding only
    (11, 4, 2, "same"),  # odd T, stride 2
    (12, 4, 2, "valid"),
    (13, 4, 2, "valid"),  # the last sample is read by no window
]


class TestConv1dVjp:
    """The vjp runs per tap over the unpadded input, so the geometry of the
    taps that read padding is checked against the adjoint and by differences."""

    @staticmethod
    def inputs(T, K, stride, padding):
        rng = np.random.default_rng(T * 100 + K * 10 + stride)
        x = rng.normal(size=(3, T))
        w = rng.normal(size=(2, 3, K))
        Tp = conv1d(Tensor(x), Tensor(w), stride=stride, padding=padding).shape[1]
        return x, w, rng.normal(size=(2, Tp))

    @pytest.mark.parametrize("needs", ["x,w", "x", "w"])
    @pytest.mark.parametrize("T,K,stride,padding", CONV_VJP_CASES)
    def test_vjp_is_transposed_conv(self, T, K, stride, padding, needs):
        x, w, y = self.inputs(T, K, stride, padding)
        xt = Tensor(x, requires_grad="x" in needs)
        wt = Tensor(w, requires_grad="w" in needs)
        with Tape() as tape:
            loss = sum_all(mul(conv1d(xt, wt, stride=stride, padding=padding), Tensor(y)))
        backward(tape, loss)
        if "x" in needs:
            # <conv(x, w), y> = <x, conv_T(y, w)>, so the x-gradient is conv_T(y, w)
            adj = transposed_conv1d(Tensor(y), Tensor(w), stride=stride, padding=padding,
                                    out_length=T if padding == "same" else None).data
            expected = np.zeros_like(x)
            expected[:, :adj.shape[1]] = adj  # valid: samples past the last window get 0
            np.testing.assert_allclose(xt.grad, expected, rtol=1e-12, atol=1e-12)
        else:
            assert xt.grad is None
        if "w" in needs:
            # the loss is linear in w, so <grad_w, w> equals the loss
            assert np.isclose(np.sum(wt.grad * w), loss.item(), rtol=1e-12, atol=0.0)
        else:
            assert wt.grad is None

    @pytest.mark.parametrize("needs", ["x,w", "x", "w"])
    @pytest.mark.parametrize("T,K,stride,padding", CONV_VJP_CASES)
    def test_vjp_grad_check(self, T, K, stride, padding, needs):
        x, w, _ = self.inputs(T, K, stride, padding)
        xt = Tensor(x, requires_grad="x" in needs)
        wt = Tensor(w, requires_grad="w" in needs)
        b = Tensor(np.array([0.3, -0.2]), requires_grad=True)

        def f():
            h = conv1d(xt, wt, b, stride=stride, padding=padding)
            return sum_all(mul(h, h))

        params = [t for t in (xt, wt, b) if t.requires_grad]
        assert grad_check(f, params) < 1e-4


# (S, B, L, K, stride, out_length) of masked_decode cases
DECODE_CASES = [
    (3, 4, 6, 4, 2, 12),  # out_length = L * stride
    (2, 3, 7, 4, 3, 20),  # out_length not a multiple of the stride
    (2, 3, 4, 3, 5, 18),  # stride > K leaves gaps, and 18 is not a multiple of 5
]
# The README desk model's heads on 1 s at 8 kHz, with its 32 latent channels
DESK_DECODE = (3, 64, 1000, 16, 8, 8000)


def made(tape, t):
    """The recipe ``tape`` notes for its taped output ``t``, or None."""
    return tape._made.get(t._key[1]) if t._key is not None and t._key[0] is tape._token else None


def masked_decode_chain(latent, mask_w, mask_b, v_enc, w, b, stride, out_length):
    """The mask conv over all sources, ReLU, masking and one transposed conv
    per source: the ops masked_decode fuses, on plain arrays."""
    B = v_enc.shape[0]
    m = np.maximum(conv1d(latent, mask_w, mask_b).data, 0.0)
    return np.concatenate([
        transposed_conv1d(v_enc * m[s * B:(s + 1) * B], w, b, stride=stride,
                          out_length=out_length).data
        for s in range(mask_w.shape[0] // B)])


class TestFusedOps:
    """prelu_norm and masked_decode each tape one node in place of a chain of
    ops; their forwards equal that chain bit for bit."""

    @staticmethod
    def norm_inputs():
        rng = np.random.default_rng(41)
        return (rng.normal(size=(3, 10)) + 0.05, np.array([0.25, 0.6, -0.1]),
                rng.normal(size=3) + 1.0, rng.normal(size=3))

    @staticmethod
    def decode_inputs(S, B, L, K, stride, out_length, C=3):
        """(latent, mask_w, mask_b, v_enc, w, b) of a C-channel latent."""
        rng = np.random.default_rng(S * 1000 + L * 10 + stride)
        return (rng.normal(size=(C, L)), rng.normal(size=(S * B, C, 1)), rng.normal(size=S * B),
                np.abs(rng.normal(size=(B, L))), rng.normal(size=(B, 1, K)), rng.normal(size=1))

    def test_prelu_norm_matches_chain(self):
        x, s, gamma, beta = self.norm_inputs()
        h = np.maximum(x, 0.0) + s[:, None] * np.minimum(x, 0.0)
        xc = h - h.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + dc.NORM_EPS)
        expected = gamma[:, None] * (xc * inv) + beta[:, None]
        out = prelu_norm(Tensor(x), Tensor(s), Tensor(gamma), Tensor(beta))
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("S,B,L,K,stride,out_length", DECODE_CASES)
    def test_masked_decode_matches_chain(self, S, B, L, K, stride, out_length, C=3):
        arrays = self.decode_inputs(S, B, L, K, stride, out_length, C)
        expected = masked_decode_chain(*arrays, stride, out_length)
        out = masked_decode(*(Tensor(a) for a in arrays), stride, out_length)
        assert out.shape == (S, out_length)
        assert out.data.tobytes() == expected.tobytes()

    def test_masked_decode_matches_chain_at_desk_shape(self):
        self.test_masked_decode_matches_chain(*DESK_DECODE, C=32)

    def test_each_tapes_one_node(self):
        x, s, gamma, beta = (Tensor(a, requires_grad=True) for a in self.norm_inputs())
        ts = [Tensor(a, requires_grad=True) for a in self.decode_inputs(*DECODE_CASES[1])]
        with Tape() as tape:
            h = prelu_norm(x, s, gamma, beta)
        assert len(tape) == 1 and tape.recorded_output_elems() == h.size
        with Tape() as tape:
            out = masked_decode(*ts, 3, 20)
        assert len(tape) == 1 and tape.recorded_output_elems() == out.size == 2 * 20

    @pytest.mark.parametrize("off", [None, 0, 1, 2, 3])
    def test_prelu_norm_grad_check(self, off):
        ts = [Tensor(a, requires_grad=i != off) for i, a in enumerate(self.norm_inputs())]
        y = Tensor(np.random.default_rng(42).normal(size=(3, 10)))
        assert grad_check(lambda: sum_all(mul(prelu_norm(*ts), y)),
                          [t for t in ts if t.requires_grad]) < 1e-4
        if off is not None:
            assert ts[off].grad is None

    @pytest.mark.parametrize("off", [None, 0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("S,B,L,K,stride,out_length", DECODE_CASES)
    def test_masked_decode_grad_check(self, S, B, L, K, stride, out_length, off):
        arrays = self.decode_inputs(S, B, L, K, stride, out_length)
        ts = [Tensor(a, requires_grad=i != off) for i, a in enumerate(arrays)]

        def f():
            out = masked_decode(*ts, stride, out_length)
            return sum_all(mul(out, out))

        assert grad_check(f, [t for t in ts if t.requires_grad]) < 1e-4
        if off is not None:
            assert ts[off].grad is None

    def test_masked_decode_gradients_equal_the_chains(self):
        # The chain tapes the mask conv and its ReLU, then per source a row
        # slice, the masking and a transposed conv; backward adds their terms
        # in the order the fused vjp does, so every gradient is equal.
        arrays = self.decode_inputs(*DECODE_CASES[0])
        y = np.random.default_rng(43).normal(size=(3, 12))

        def chain_loss(latent, mask_w, mask_b, v_enc, w, b):
            m = relu(conv1d(latent, mask_w, mask_b))
            loss = None
            for s in range(3):
                out = transposed_conv1d(mul(slice_rows(m, 4 * s, 4 * s + 4), v_enc), w, b,
                                        stride=2, out_length=12)
                term = sum_all(mul(out, Tensor(y[s:s + 1])))
                loss = term if loss is None else add(loss, term)
            return loss

        grads = []
        for fused in (True, False):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape() as tape:
                loss = sum_all(mul(masked_decode(*ts, 2, 12), Tensor(y))) if fused else chain_loss(*ts)
            backward(tape, loss)
            grads.append([t.grad for t in ts])
        for fused, chain in zip(*grads):
            assert np.array_equal(fused, chain)

    def test_masked_decode_vjp_transient_at_desk_shape(self):
        # Besides the (S * B) x L masks, which turn into the logit gradients,
        # and the B x L v_enc gradient, the vjp works each source in one
        # B x L buffer, and drops it before the mask conv's vjp makes the
        # C x L latent gradient.
        S, B, L, K, stride, out_length = DESK_DECODE
        C = 32
        ts = [Tensor(a, requires_grad=True) for a in self.decode_inputs(*DESK_DECODE, C=C)]
        with Tape() as tape:
            out = masked_decode(*ts, stride, out_length)
        g = np.random.default_rng(47).normal(size=out.shape)
        _, _, saved, vjp = tape._nodes[0]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grads = vjp(g, *saved)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [gr.shape for gr in grads] == [t.shape for t in ts]
        bound = (S * B * L + 2 * B * L + C * L) * 8
        assert peak <= 1.1 * bound, f"vjp transient {peak / bound:.3f}x"

    def test_masked_decode_forward_transient_at_desk_shape(self):
        # The forward makes the (S * B) x L masks, decodes each source into
        # its own Cout x T array (through the transposed conv's Cout x K x L
        # products) and joins them only after dropping the masks, so no
        # Cout x T array is alive beside the masks and the S decoded sources.
        S, B, L, K, stride, out_length = DESK_DECODE
        Cout = 1
        ts = [Tensor(a) for a in self.decode_inputs(*DESK_DECODE, C=32)]
        masked_decode(*ts, stride, out_length)  # memoises the geometries
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = masked_decode(*ts, stride, out_length)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert out.shape == (S * Cout, out_length)
        bound = (S * B * L + S * Cout * out_length + Cout * K * L) * 8
        assert peak - bound < Cout * out_length * 8 // 2, f"forward transient {peak / bound:.3f}x"

    def test_masked_decode_rejects_partial_source_block(self):
        with pytest.raises(ValueError, match="source blocks"):
            masked_decode(Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 2, 1))),
                          Tensor(np.zeros(5)), Tensor(np.zeros((2, 4))),
                          Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros(1)), 2, 8)

    def test_conv_over_prelu_norm_holds_its_input_only(self):
        # The conv keeps the norm's recipe, not its C x T output, and its
        # vjp reads the output rebuilt bit for bit: the weight gradient
        # equals that of the same conv over a leaf holding the output.  The
        # norm's input, a conv of a leaf, is remade from the leaf's array,
        # so the tape holds no op output.
        rng = np.random.default_rng(44)
        x0 = Tensor(rng.normal(size=(2, 17)), requires_grad=True)
        w0 = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        s, gamma, beta = (Tensor(a, requires_grad=True) for a in
                          (np.array([0.25, 0.6, -0.1]), rng.normal(size=3) + 1.0, rng.normal(size=3)))
        w = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        g = rng.normal(size=(4, 9))

        def f():
            x = conv1d(x0, w0)
            return sum_all(mul(conv1d(prelu_norm(x, s, gamma, beta), w, stride=2), Tensor(g)))

        with Tape() as tape:
            x = conv1d(x0, w0)
            h = prelu_norm(x, s, gamma, beta)
            loss = sum_all(mul(conv1d(h, w, stride=2), Tensor(g)))
        assert tape.held_output_elems() == 0 and made(tape, x).args[0] is x0.data
        assert made(tape, h).args[0] is made(tape, x)
        assert made(tape, x).build().tobytes() == x.data.tobytes()
        assert tape._nodes[2][2][0] is made(tape, h) and made(tape, h).build().tobytes() == h.data.tobytes()
        backward(tape, loss)
        # conv1d's gradients by the textbook loops, then prelu_norm's oracle
        hpad = np.zeros((3, 21))  # "same": 17 samples padded by 2 on each side
        hpad[:, 2:19] = h.data
        gw, ghpad = np.zeros((4, 3, 5)), np.zeros((3, 21))
        for j in range(9):
            gw += g[:, j, None, None] * hpad[None, :, 2 * j:2 * j + 5]
            ghpad[:, 2 * j:2 * j + 5] += np.einsum("o,oik->ik", g[:, j], w.data)
        np.testing.assert_allclose(w.grad, gw, rtol=1e-10, atol=1e-12)
        for t, want in zip((s, gamma, beta), prelu_norm_grads_oracle(
                x.data, s.data, gamma.data, ghpad[:, 2:19])[1:]):
            np.testing.assert_allclose(t.grad, want, rtol=1e-10, atol=1e-12)
        h_leaf = Tensor(h.data, requires_grad=True)
        w_grad = w.grad
        with Tape() as tape:
            loss = sum_all(mul(conv1d(h_leaf, w, stride=2), Tensor(g)))
        backward(tape, loss)
        assert w.grad.tobytes() == w_grad.tobytes()
        assert grad_check(f, [x0, w0, s, gamma, beta, w]) < 1e-4

    def test_skip_sum_is_held_and_a_conv_over_it_is_remade(self):
        # A skip sum of two norm outputs is a plain sum: it carries no
        # recipe, so a conv that reads it holds it, and that conv's output
        # is remade from the held sum, bit for bit.  No rebuild builds a sum.
        rng = np.random.default_rng(45)
        xs = [Tensor(rng.normal(size=(3, 40)), requires_grad=True) for _ in range(2)]
        norms = [[Tensor(a, requires_grad=True) for a in
                  (rng.uniform(-0.5, 0.5, size=3), rng.normal(size=3) + 1.0, rng.normal(size=3))]
                 for _ in range(2)]
        w = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        with Tape() as tape:
            a, b = (prelu_norm(x, *ps) for x, ps in zip(xs, norms))
            total = add(a, b)
            over = conv1d(total, w)
            plain = add(a, xs[0])
        assert made(tape, total) is None and made(tape, plain) is None
        assert made(tape, over).fn is conv1d and made(tape, over).args[0] is total.data
        assert tape._nodes[3][2][0] is total.data
        assert made(tape, over).build().tobytes() == over.data.tobytes()
        assert tape.held_output_elems() == total.size == 120  # the norms' inputs are leaves

    def test_residual_sum_is_a_recipe(self, decline):
        # residual's sum v + conv1d(u, w) is remade by residual when v and u
        # are each held, a leaf's array or a recipe that is not a sum's;
        # never when v is a sum's recipe.  A conv saves the recipe in the
        # sum's place, and it rebuilds the sum bit for bit; the conv itself
        # is remade from that recipe.  A conv of a
        # held array is remade, so a sum over one is remade from its
        # recipe; with conv1d declined that conv is held, and a sum over it
        # is remade from its array.  v is a plain sum, held since a conv
        # reads it.
        rng = np.random.default_rng(48)
        x = Tensor(rng.normal(size=(3, 40)), requires_grad=True)
        norm = [Tensor(a, requires_grad=True) for a in
                (rng.uniform(-0.5, 0.5, size=3), rng.normal(size=3) + 1.0, rng.normal(size=3))]
        w, proj = (Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in ((3, 3, 5), (3, 3, 1)))

        def taped():
            with Tape() as tape:
                v = add(x, x)  # a plain sum, held: the conv below saves it
                c = conv1d(v, w)  # a conv of the held v, rebuilt from it
                u = prelu_norm(c, *norm)
                once = dc.residual(v, u, proj)
                over = conv1d(once, w)  # rebuilt from once's recipe
                twice = dc.residual(once, u, proj)  # once is a sum's recipe: twice is held
                after = conv1d(twice, w)  # holds twice, so it is rebuilt from it
                thrice = dc.residual(twice, u, proj)
                conv1d(thrice, w)
                of_leaf = dc.residual(x, u, proj)
                of_unheld = dc.residual(add(x, 0.0), u, proj)  # no node saves that sum
                of_conv = dc.residual(v, c, proj)  # c is remade
                of_plain = dc.residual(v, x, proj)  # a leaf u enters as its array
            return tape, (v, c, once, over, twice, after, thrice, of_leaf, of_unheld, of_conv,
                          of_plain)

        tape, (v, c, once, over, twice, after, thrice, of_leaf, of_unheld, of_conv,
               of_plain) = taped()
        assert made(tape, once).fn is dc.residual and made(tape, once).args[0] is v.data
        assert isinstance(made(tape, once).args[1], dc._Normalised)
        assert made(tape, once).args[2] is proj.data
        assert tape._nodes[5][2][0] is made(tape, once) and made(tape, twice) is None
        assert made(tape, over).fn is conv1d and made(tape, over).args[0] is made(tape, once)
        assert made(tape, thrice).args[0] is twice.data and tape._nodes[11][2][0] is made(tape, thrice)
        assert made(tape, of_unheld) is None and made(tape, of_plain).args[1] is x.data
        assert made(tape, c).args[0] is v.data and made(tape, after).args[0] is twice.data
        assert made(tape, of_conv).args[:2] == (v.data, made(tape, c))
        for r in (c, once, over, after, thrice, of_leaf, of_conv, of_plain):
            assert made(tape, r).build().tobytes() == r.data.tobytes()
        assert tape.held_output_elems() == v.size + twice.size
        decline(conv1d)
        tape, (v, c, *_, of_conv, _) = taped()
        assert made(tape, c) is None and made(tape, of_conv).args[1] is c.data
        assert tape.held_output_elems() == v.size + c.size + twice.size

    def test_conv_of_held_array_is_remade_from_it(self, decline):
        # A conv of an output the tape holds, pointwise, wider or strided,
        # is remade by its own forward on that array, a recipe with no
        # recipe among its arguments, which a node saves in the output's
        # place; a conv of that conv is remade from its recipe.  A residual
        # sum over it is remade by a recipe that builds it; a sum over that
        # sum is held.  A conv of a leaf is remade from the leaf's array.
        # Every rebuild equals its output, and the gradients those with
        # conv1d declined.  The held output is a plain sum, which no recipe
        # rebuilds.
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(size=(3, 40)), requires_grad=True)
        norm = [Tensor(a, requires_grad=True) for a in
                (rng.uniform(-0.5, 0.5, size=3), rng.normal(size=3) + 1.0, rng.normal(size=3))]
        w, pw, proj = (Tensor(rng.normal(size=shape), requires_grad=True)
                       for shape in ((3, 3, 5), (3, 3, 1), (3, 3, 1)))
        b = Tensor(rng.normal(size=3), requires_grad=True)
        g = rng.normal(size=(3, 40))

        def taped():
            with Tape() as tape:
                r = add(x, x)  # a plain sum, held: the convs below save it
                p = conv1d(r, pw, b)
                c = conv1d(p, w)  # saves p's recipe
                u = prelu_norm(c, *norm)
                once = dc.residual(p, u, proj)
                twice = dc.residual(once, u, proj)  # once is a sum's recipe: held
                wide = conv1d(r, w, stride=2)  # the product below saves its recipe twice
                loss = add(sum_all(mul(conv1d(twice, w), Tensor(g))), sum_all(mul(wide, wide)))
                others = (conv1d(r, pw, stride=2), conv1d(x, pw))
            return tape, (r, p, c, once, twice, wide), others, loss

        tape, (r, p, c, once, twice, wide), others, loss = taped()
        rp = made(tape, p)
        assert rp.fn is conv1d and rp.args[0] is r.data
        assert not any(isinstance(a, dc._Recipe) for a in rp.args)
        assert tape._nodes[2][2][0] is rp and made(tape, once).args[0] is rp
        assert made(tape, c).args[0] is rp and made(tape, twice) is None
        assert made(tape, others[1]).args[0] is x.data
        assert tape._nodes[12][2] == (made(tape, wide),) * 2
        assert made(tape, wide).args[0] is made(tape, others[0]).args[0] is r.data
        for t in (p, c, once, wide, *others):
            assert made(tape, t).build().tobytes() == t.data.tobytes()
        assert tape.held_output_elems() == r.size + twice.size
        leaves = [x, pw, b, w, proj, *norm]
        tape, _, _, loss = taped()
        backward(tape, loss)
        rebuilt = [t.grad.tobytes() for t in leaves]
        decline(conv1d)
        tape, (r, p, c, once, twice, wide), _, loss = taped()
        assert made(tape, p) is None and made(tape, wide) is None and made(tape, once).args[0] is p.data
        assert tape.held_output_elems() == r.size + p.size + c.size + twice.size + wide.size
        backward(tape, loss)
        assert [t.grad.tobytes() for t in leaves] == rebuilt

    @staticmethod
    def relu_of_conv():
        """(tape, conv output, its ReLU, loss) of relu over a strided conv of
        an untaped array, as the encoder's v_enc, read by a conv and by a
        product with itself."""
        rng = np.random.default_rng(51)
        x = rng.normal(size=(1, 80))
        w, b = Tensor(rng.normal(size=(6, 1, 8)), requires_grad=True), Tensor(rng.normal(size=6))
        w2 = Tensor(rng.normal(size=(3, 6, 3)), requires_grad=True)
        g = Tensor(rng.normal(size=(3, 20)))
        with Tape() as tape:
            c = conv1d(x, w, b, stride=4)
            v = relu(c)
            loss = add(sum_all(mul(conv1d(v, w2), g)), sum_all(mul(v, v)))
        return tape, c, v, loss, (w, w2)

    def test_relu_of_a_rebuilt_conv_is_remade(self, decline):
        # relu notes its own recipe, here relu of the conv's recipe, and its
        # node saves that recipe in its own output's place, as do the nodes
        # that read the output, so the tape holds nothing.  The gradients
        # equal those with relu's recipe declined, which holds the output.
        tape, c, v, loss, leaves = self.relu_of_conv()
        rv = made(tape, v)
        assert rv.fn is relu and rv.args == (made(tape, c),)
        assert made(tape, c).fn is conv1d and not made(tape, c).saved
        assert [tape._nodes[pos][2] for pos in (1, 2, 5)] == [(rv,), (rv, leaves[1].data), (rv, rv)]
        assert rv.saved and tape.held_output_elems() == 0 and tape._held == {}
        assert rv.build().tobytes() == v.data.tobytes()
        backward(tape, loss)
        rebuilt = [t.grad.tobytes() for t in leaves]
        decline(relu)
        tape, c, v, loss, leaves = self.relu_of_conv()
        assert made(tape, v) is None and tape._nodes[1][2] == (v.data,)
        assert tape.held_output_elems() == v.size
        backward(tape, loss)
        assert [t.grad.tobytes() for t in leaves] == rebuilt

    def test_only_a_saved_recipe_keeps_its_memo(self):
        # The conv's recipe, which only relu's recipe reads, is saved by no
        # node: each build makes it afresh and keeps nothing, so alive_elems
        # never counts it.  relu's recipe, which nodes save, keeps its first
        # build from the first node that reads it (the product, node 5)
        # until its own node.  So at relu's node the output's gradient, the
        # memo and the conv's gradient are alive, and at the conv's node
        # only the conv's gradient.
        tape, c, v, loss, _ = self.relu_of_conv()
        rc, rv = made(tape, c), made(tape, v)
        kept = [(pos, rv.memo is not None, rc.memo is None) for pos, *_ in dc._sweep(tape, loss)]
        assert kept == [(7, False, True), (6, False, True), *((pos, True, True) for pos in range(5, 0, -1)),
                        (0, False, True)]
        tape, c, v, loss, _ = self.relu_of_conv()
        assert list(dc.alive_elems(tape, loss))[-2:] == [3 * v.size, c.size]

    def test_conv_over_norm_of_held_input_is_a_recipe(self, decline):
        # A conv or upsample conv over a norm output is remade by its own
        # forward on the norm's recipe, which the norm over it saves in the
        # conv output's place and which rebuilds the output bit for bit; so
        # is a conv over that norm (of a rebuilt input), whose rebuild
        # reaches down through three convs and two norms to a leaf's array.
        # The sweep runs each rebuild's op once: the norm over the output
        # and that norm's rebuilds share its memo, which is gone once the
        # sweep has passed the conv's node.
        rng = np.random.default_rng(49)
        x0 = Tensor(rng.normal(size=(3, 40)), requires_grad=True)
        norms = [[Tensor(a, requires_grad=True) for a in
                  (rng.uniform(-0.5, 0.5, size=3), rng.normal(size=3) + 1.0, rng.normal(size=3))]
                 for _ in range(3)]
        w, b = Tensor(rng.normal(size=(3, 3, 5)), requires_grad=True), Tensor(rng.normal(size=3))
        g = rng.normal(size=(3, 20))

        def grads():
            leaves = [x0, w] + [t for ps in norms for t in ps]
            with Tape() as tape:
                x = conv1d(x0, w)
                h = prelu_norm(x, *norms[0])
                c = conv1d(h, w, b, stride=2)
                up = upsample_conv1d(h, w, b, 79)
                h2 = prelu_norm(c, *norms[1])
                h3 = prelu_norm(up, *norms[2])
                deep = conv1d(h2, w)  # the conv below saves its recipe
                loss = sum_all(mul(add(conv1d(deep, w), conv1d(h3, w, stride=4)), Tensor(g)))
            return tape, (x, h, c, up, h2, deep), loss, leaves

        tape, (x, h, c, up, h2, deep), loss, leaves = grads()
        assert made(tape, c).fn is conv1d and made(tape, up).fn is upsample_conv1d
        assert made(tape, c).args[0] is made(tape, h) and made(tape, h2).args[0] is made(tape, c)
        assert made(tape, deep).args[0] is made(tape, h2) and tape._nodes[7][2][0] is made(tape, deep)
        assert tape._nodes[4][2][0] is made(tape, c) and tape._made[2] is made(tape, c)
        assert made(tape, h).args[0] is made(tape, x) and made(tape, x).args[0] is x0.data
        for t in (x, c, up, h2, deep):
            assert made(tape, t).build().tobytes() == t.data.tobytes()
        assert tape.held_output_elems() == 0
        # A fresh tape, so no build above leaves a memo the sweep would use.
        tape, (x, h, c, up, h2, deep), loss, leaves = grads()
        recipes = [made(tape, t) for t in (x, h, c, up, h2, deep)]
        calls = []
        for r in (recipes[0], recipes[2], recipes[3], recipes[5]):
            r.fn = lambda *a, op=r.fn: calls.append(op) or op(*a)
        backward(tape, loss)
        assert sorted(op.__name__ for op in calls) == ["conv1d"] * 3 + ["upsample_conv1d"]
        assert all(r.memo is None for r in recipes) and tape._made == {}
        rebuilt = [t.grad for t in leaves]
        decline(conv1d, upsample_conv1d)
        tape, (x, h, c, up, h2, deep), loss, leaves = grads()
        assert tape.held_output_elems() == x.size + c.size + up.size + deep.size
        backward(tape, loss)
        for got, t in zip(rebuilt, leaves):
            assert got.tobytes() == t.grad.tobytes()

    def test_norm_gradients_do_not_depend_on_a_consumer_rebuild(self, monkeypatch):
        # With the consumer's weight trained, its vjp rebuilds the norm output
        # and the norm's vjp takes that rebuild's standardised values from
        # the recipe's memo; with it frozen, nothing is rebuilt and the norm's
        # vjp has the recipe make them.  Either way the sweep standardises
        # once, leaves no memo and gives equal gradients.
        rng = np.random.default_rng(46)
        x0 = rng.normal(size=(2, 30))
        w0 = rng.normal(size=(3, 2, 3))
        s, gamma, beta = rng.uniform(-0.5, 0.5, size=3), rng.normal(size=3) + 1.0, rng.normal(size=3)
        w, g = rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 15))
        calls = []
        standardised = dc._standardised
        monkeypatch.setattr(dc, "_standardised", lambda *a: calls.append(1) or standardised(*a))

        def grads(w_trained):
            leaves = [Tensor(a, requires_grad=True) for a in (x0, w0, s, gamma, beta)]
            with Tape() as tape:
                h = prelu_norm(conv1d(leaves[0], leaves[1]), *leaves[2:])
                loss = sum_all(mul(conv1d(h, Tensor(w, requires_grad=w_trained), stride=2), Tensor(g)))
            recipe = made(tape, h)
            calls.clear()
            backward(tape, loss)
            assert len(calls) == 1 and recipe.memo is None
            return [t.grad for t in leaves]

        for rebuilt, made_by_vjp in zip(grads(True), grads(False)):
            assert rebuilt.tobytes() == made_by_vjp.tobytes()


class TestUpsampleConv1d:
    """upsample_conv1d runs conv1d over upsample_nearest at the source rate."""

    @staticmethod
    def inputs(src, K, seed=0):
        rng = np.random.default_rng(seed * 1000 + src * 10 + K)
        return rng.normal(size=(3, src)), rng.normal(size=(4, 3, K)), rng.normal(size=4)

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 7])
    @pytest.mark.parametrize("src", [1, 2, 5, 9])
    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    def test_matches_chain(self, src, K, odd):
        u, w, b = self.inputs(src, K)
        length = 2 * src - odd
        expected = conv1d(upsample_nearest(Tensor(u), length), Tensor(w), Tensor(b)).data
        out = upsample_conv1d(Tensor(u), Tensor(w), Tensor(b), length)
        assert out.shape == (4, length)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("needs", ["u,w,b", "u", "w", "b"])
    @pytest.mark.parametrize("src,K,length", [(4, 5, 8), (4, 5, 7), (6, 4, 11), (3, 7, 5),
                                              (5, 2, 9), (1, 3, 1)])
    def test_grad_check(self, src, K, length, needs):
        ts = [Tensor(a, requires_grad=name in needs.split(","))
              for name, a in zip("uwb", self.inputs(src, K, seed=1))]

        def f():
            out = upsample_conv1d(*ts, length)
            return sum_all(mul(out, out))

        assert grad_check(f, [t for t in ts if t.requires_grad]) < 1e-4
        for t in ts:
            assert (t.grad is None) != t.requires_grad

    @pytest.mark.parametrize("K,length", [(5, 7), (4, 8), (3, 11)])
    def test_gradients_match_chain(self, K, length):
        src = (length + 1) // 2
        arrays = self.inputs(src, K, seed=2)
        y = Tensor(np.random.default_rng(K).normal(size=(4, length)))

        def grads(op):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape() as tape:
                loss = sum_all(mul(op(*ts), y))
            backward(tape, loss)
            return [t.grad for t in ts]

        fused = grads(lambda u, w, b: upsample_conv1d(u, w, b, length))
        chain = grads(lambda u, w, b: conv1d(upsample_nearest(u, length), w, b))
        for got, want in zip(fused, chain):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_tapes_one_node(self):
        u, w, b = (Tensor(a, requires_grad=True) for a in self.inputs(5, 5))
        with Tape() as tape:
            out = upsample_conv1d(u, w, b, 9)
        assert len(tape) == 1 and tape.recorded_output_elems() == out.size == 4 * 9

    @pytest.mark.parametrize("length", [4, 7, 12, 20])
    def test_rejects_other_lengths(self, length):
        u, w, b = (Tensor(a) for a in self.inputs(5, 3))
        with pytest.raises(ValueError, match=f"5 samples to 9 or 10, not {length}"):
            upsample_conv1d(u, w, b, length)


def prelu_norm_grads_oracle(x, s, gamma, g):
    """prelu_norm's gradients by the textbook chain: mean-centred norm
    gradient, then a select on the sign of x (zero takes the slope)."""
    h = np.maximum(x, 0.0) + s[:, None] * np.minimum(x, 0.0)
    xc = h - h.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + dc.NORM_EPS)
    xhat = xc * inv
    gh = g * gamma[:, None]
    gh = inv * (gh - gh.mean(axis=1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=1, keepdims=True))
    gx = np.where(x > 0, gh, gh * s[:, None])
    gs = (gh * np.minimum(x, 0.0)).sum(axis=1)
    return gx, gs, (g * xhat).sum(axis=1), g.sum(axis=1)


def gate_soft_grads_oracle(v, w1, b1, s, w2, b2, gumbel):
    """The gate's soft-decision gradients by the textbook chain, in
    ``gate_named_parameters`` order after v's: the logistic's derivative,
    the spanning conv's contraction, then a select on the sign of the
    hidden layer (zero takes the slope)."""
    h = np.einsum("oc,ct->ot", w1[:, :, 0], v) + b1[:, None]
    hp = np.where(h > 0, h, s[:, None] * h)
    z = np.einsum("ock,ck->o", w2, hp) + b2 + gumbel[:, 0]
    p = np.exp(z - z.max())
    p /= p.sum()
    gz = p[1] * (np.eye(2)[1] - p)
    ghp = np.einsum("o,ock->ck", gz, w2)
    gh = np.where(h > 0, ghp, ghp * s[:, None])
    gs = (ghp * np.minimum(h, 0.0)).sum(axis=1)
    return w1[:, :, 0].T @ gh, (gh @ v.T)[:, :, None], gh.sum(axis=1), gs, gz[:, None, None] * hp, gz


def gate_with_logits(channels, length, logits):
    """A gate whose logits are ``logits`` whatever the latent."""
    gate = init_gate(channels, length, np.random.default_rng(0))
    for t in (gate.proj1.w, gate.proj1.b, gate.proj2.w):
        t.data[...] = 0.0
    gate.proj2.b.data[...] = logits
    return gate


class TestMaskingGradients:
    """Masking vjps multiply by the comparison: 0 or the slope side at x = 0
    (relu's kink is in TestBackward)."""

    def test_prelu_norm_matches_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 50))
        x[0] = 1e3 + rng.normal(size=50)  # mean 1e3 times the spread
        x[1, ::5] = 0.0  # exact zeros take the slope side
        s, gamma, beta = np.array([0.25, 0.6, -0.1, 0.0]), rng.normal(size=4) + 1.0, rng.normal(size=4)
        g = rng.normal(size=(4, 50))
        ts = [Tensor(a, requires_grad=True) for a in (x, s, gamma, beta)]
        with Tape() as tape:
            loss = sum_all(mul(prelu_norm(*ts), Tensor(g)))
        backward(tape, loss)
        for t, want in zip(ts, prelu_norm_grads_oracle(x, s, gamma, g)):
            np.testing.assert_allclose(t.grad, want, rtol=1e-10, atol=0)

    def test_prelu_zero_takes_slope(self):
        # the gate's PReLU: zero latent columns and a zero proj1 bias make
        # the hidden layer exactly 0 there
        rng = np.random.default_rng(7)
        v = rng.normal(size=(3, 6))
        v[:, ::2] = 0.0
        gate = init_gate(3, 6, rng)
        gate.slope.data[...] = [0.25, -0.5]
        gate.proj2.w.data[...] = rng.normal(size=(2, 2, 6))
        gate.proj2.b.data[...] = rng.normal(size=2)
        gumbel = rng.gumbel(size=(2, 1))
        ts = [Tensor(v, requires_grad=True)] + [t for _, t in gate_named_parameters(gate)]
        with Tape() as tape:
            soft, _ = _gate_soft(ts[0], gate, gumbel)
        backward(tape, soft)
        h = np.einsum("oc,ct->ot", gate.proj1.w.data[:, :, 0], v)
        assert np.all(h[:, ::2] == 0.0) and np.all(h[:, 1::2] != 0.0)
        for t, want in zip(ts, gate_soft_grads_oracle(v, *(t.data for t in ts[1:]), gumbel)):
            np.testing.assert_allclose(t.grad, want, rtol=1e-12, atol=1e-300)

    def test_masked_decode_gradient_zero_at_zero_logit(self):
        # zero latent columns and a zero mask bias make every logit there 0
        rng = np.random.default_rng(8)
        latent = rng.normal(size=(3, 6))
        latent[:, ::2] = 0.0
        ts = [Tensor(a, requires_grad=True) for a in
              (latent, rng.normal(size=(4, 3, 1)), np.zeros(4),
               np.abs(rng.normal(size=(2, 6))) + 0.1, rng.normal(size=(2, 1, 4)), np.zeros(1))]
        with Tape() as tape:
            out = masked_decode(*ts, 2, 12)
            loss = sum_all(mul(out, out))
        backward(tape, loss)
        z = np.einsum("rc,ct->rt", ts[1].data[:, :, 0], latent)
        assert np.all(ts[0].grad[:, ::2] == 0.0)
        assert np.all(ts[0].grad[:, 1::2] != 0.0) and np.all(z[:, 1::2].max(axis=0) > 0)


class TestElementwise:
    # The PReLU that prelu_norm and the gate share, max(x, 0) + s * min(x, 0).
    def test_prelu_worked_example(self):
        x = np.array([-4.0])
        assert dc._prelu_into(np.maximum(x, 0.0), x, 0.25)[0] == -1.0

    def test_prelu_per_channel(self):
        x = np.array([[-2.0, 4.0], [-2.0, 4.0]])
        out = dc._prelu_into(np.maximum(x, 0.0), x, np.array([[0.5], [0.25]]))
        np.testing.assert_allclose(out, [[-1.0, 4.0], [-0.5, 4.0]])

    # The softmax over the gate's two logits, inside its soft-decision node.
    def test_softmax_uniform(self):
        soft, hard = _gate_soft(Tensor(np.zeros((2, 4))), gate_with_logits(2, 4, [0.0, 0.0]),
                                np.zeros((2, 1)))
        assert (soft.item(), hard) == (0.5, 0)

    def test_softmax_normalises(self):
        # shifted by the larger logit, so logits past exp's range still give
        # the logistic of their difference
        rng = np.random.default_rng(2)
        for z in [[800.0, -800.0], [-800.0, 800.0]] + list(rng.normal(size=(5, 2)) * 30):
            soft, _ = _gate_soft(Tensor(np.zeros((2, 4))), gate_with_logits(2, 4, z), np.zeros((2, 1)))
            want = np.exp(-np.logaddexp(0.0, z[0] - z[1]))
            np.testing.assert_allclose(soft.item(), want, rtol=1e-12, atol=0)

    def test_prelu_norm_statistics(self):
        # slope 1 makes the PReLU the identity, leaving a plain channel norm
        rng = np.random.default_rng(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 64))
        out = prelu_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=1), np.ones(4), atol=1e-4)

    def test_upsample_nearest_doubling(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = upsample_nearest(x, 6)
        assert np.array_equal(out.data, np.array([[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]]))

    @pytest.mark.parametrize("src,length", [(3, 3), (3, 5), (4, 7), (5, 10), (3, 11), (7, 20)])
    def test_upsample_nearest_vjp_sums_each_run(self, src, length):
        rng = np.random.default_rng(length)
        x = Tensor(rng.normal(size=(2, src)), requires_grad=True)
        g = rng.normal(size=(2, length))
        with Tape() as tape:
            loss = sum_all(mul(upsample_nearest(x, length), Tensor(g)))
        backward(tape, loss)
        owner = (np.arange(length) * src) // length
        expected = np.stack([g[:, owner == i].sum(axis=1) for i in range(src)], axis=1)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15, atol=1e-15)

    def test_slice_concat_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 4))
        t = Tensor(x)
        parts = [slice_rows(t, i, i + 2) for i in range(0, 6, 2)]
        assert np.array_equal(np.concatenate([p.data for p in parts]), x)

    def test_broadcasting_add(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.array(2.0))
        assert np.array_equal(add(a, b).data, np.full((3, 4), 3.0))

    def test_add_and_mul_broadcast_only_a_scalar(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        s = Tensor(np.array(2.0), requires_grad=True)
        for op in (add, mul):
            for a, b in ((x, Tensor(np.ones((1, 4)))), (Tensor(np.ones(4)), x)):
                with pytest.raises(ValueError, match=rf"{re.escape(str(a.shape))} and "
                                                     rf"{re.escape(str(b.shape))} differ"):
                    op(a, b)
        with Tape() as tape:
            loss = sum_all(add(mul(s, x), s))
        backward(tape, loss)
        assert s.grad == x.data.sum() + 12.0
        assert np.array_equal(x.grad, np.full((3, 4), 2.0))


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        assert x.grad[0] == 6.0

    def test_relu_subgradient_at_kink(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(relu(x))
        backward(tape, loss)
        assert np.array_equal(x.grad, np.array([0.0, 0.0, 1.0]))

    def test_off_path_tensor_gets_zeros(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            _unused = mul(y, y)
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        assert np.array_equal(y.grad, np.array([0.0]))

    def test_grad_set_on_leaves_only(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            h = mul(x, x)
            unused = mul(y, y)
            loss = sum_all(h)
        backward(tape, loss)
        assert h.grad is None and unused.grad is None and loss.grad is None
        assert np.array_equal(x.grad, np.array([2.0, 4.0]))
        assert np.array_equal(y.grad, np.array([0.0]))

    def test_second_backward_replaces_leaf_grads(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([1.0]), requires_grad=True)
        for on_path, off_path, expected in ((x, y, (2.0, 0.0)), (y, x, (0.0, 2.0))):
            with Tape() as tape:
                loss = sum_all(mul(on_path, 2.0))
                _unused = mul(off_path, 1.0)
            backward(tape, loss)
            assert (x.grad[0], y.grad[0]) == expected

    def test_tape_intact_after_backward(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 16)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
        with Tape() as tape:
            h = prelu_norm(conv1d(x, w, stride=2), Tensor(np.full(3, 0.25)),
                           Tensor(np.ones(3)), Tensor(np.zeros(3)))
            loss = sum_all(mul(h, h))
        before = (len(tape), tape.recorded_output_elems())
        backward(tape, loss)
        assert (len(tape), tape.recorded_output_elems()) == before == (4, 3 * 3 * 8 + 1)

    def test_shared_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(mul(x, x), mul(x, x)))
        backward(tape, loss)
        assert x.grad[0] == 8.0

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_no_tape_means_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = mul(x, x)
        assert not out.requires_grad

    def test_bit_deterministic_repeat(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 16)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)

        def run():
            with Tape() as tape:
                h = relu(conv1d(x, w, stride=2))
                loss = sum_all(mul(h, h))
            backward(tape, loss)
            return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


class TestGradCheck:
    def test_square_is_tight(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        err = grad_check(lambda: sum_all(mul(x, x)), [x])
        assert err < 1e-8

    def test_constant_function_is_exact(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda: sum_all(mul(Tensor(np.zeros(2)), x)), [x])
        assert err == 0.0

    def test_non_finite_reports_location(self):
        # x * x overflows to inf on both sides, so the central difference is nan
        x = Tensor(np.array([1e200]), requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="parameter 0"):
                grad_check(lambda: sum_all(mul(x, x)), [x])

    @pytest.mark.parametrize(
        "name",
        [
            "add", "mul", "relu", "gate_soft", "blend",
            "sum", "norm", "prelu_norm", "conv_same", "conv_valid",
            "tconv_same", "tconv_valid", "upsample", "upsample_conv", "slice",
            "masked_decode", "pit",
        ],
    )
    def test_each_op(self, name):
        # One gradient check per op, smooth test points away from kinks.  The
        # seed is a stable function of the name (str hash is salted per run).
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = Tensor(rng.normal(size=(2, 12)) + 0.05, requires_grad=True)
        y = Tensor(rng.normal(size=(2, 12)), requires_grad=True)
        if name == "add":
            f, ps = lambda: sum_all(mul(add(x, y), add(x, y))), [x, y]
        elif name == "mul":
            f, ps = lambda: sum_all(mul(x, y)), [x, y]
        elif name == "relu":
            f, ps = lambda: sum_all(mul(relu(x), relu(x))), [x]
        elif name == "gate_soft":
            # x as a 2-channel latent of 12 samples, under fixed Gumbel noise
            gate = init_gate(2, 12, rng)
            noise = rng.gumbel(size=(2, 1))
            f, ps = lambda: _gate_soft(x, gate, noise)[0], [x] + [t for _, t in gate_named_parameters(gate)]
        elif name == "blend":
            st = Tensor(np.array(0.3), requires_grad=True)
            f, ps = lambda: sum_all(mul(_blend(x, y, st), _blend(x, y, st))), [x, y, st]
        elif name == "sum":
            f, ps = lambda: mul(sum_all(x), sum_all(x)), [x]
        elif name == "norm":
            # slope 1: the PReLU is the identity, leaving the channel norm
            gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
            beta = Tensor(rng.normal(size=2), requires_grad=True)
            one = Tensor(np.ones(2))
            f, ps = lambda: sum_all(mul(prelu_norm(x, one, gamma, beta), y)), [x, gamma, beta]
        elif name == "prelu_norm":
            s = Tensor(np.array([0.3, 0.7]), requires_grad=True)
            gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
            beta = Tensor(rng.normal(size=2), requires_grad=True)
            f, ps = lambda: sum_all(mul(prelu_norm(x, s, gamma, beta), y)), [x, s, gamma, beta]
        elif name == "conv_same":
            w = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
            b = Tensor(rng.normal(size=3), requires_grad=True)
            f, ps = lambda: sum_all(mul(conv1d(x, w, b, stride=2), conv1d(x, w, b, stride=2))), [x, w, b]
        elif name == "conv_valid":
            w = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
            f, ps = (
                lambda: sum_all(mul(conv1d(x, w, stride=1, padding="valid"),
                                    conv1d(x, w, stride=1, padding="valid"))),
                [x, w],
            )
        elif name == "tconv_same":
            w = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=3), requires_grad=True)
            f, ps = (
                lambda: sum_all(mul(transposed_conv1d(x, w, b, stride=2),
                                    transposed_conv1d(x, w, b, stride=2))),
                [x, w, b],
            )
        elif name == "tconv_valid":
            w = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            f, ps = (
                lambda: sum_all(mul(transposed_conv1d(x, w, stride=2, padding="valid"),
                                    transposed_conv1d(x, w, stride=2, padding="valid"))),
                [x, w],
            )
        elif name == "upsample":
            f, ps = lambda: sum_all(mul(upsample_nearest(x, 20), upsample_nearest(x, 20))), [x]
        elif name == "upsample_conv":
            w = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
            b = Tensor(rng.normal(size=3), requires_grad=True)
            y23 = Tensor(rng.normal(size=(3, 23)))
            f, ps = lambda: sum_all(mul(upsample_conv1d(x, w, b, 23), y23)), [x, w, b]
        elif name == "slice":
            f, ps = lambda: sum_all(mul(slice_rows(x, 0, 1), slice_rows(x, 1, 2))), [x]
        elif name == "pit":
            # 2 speech rows given swapped, and a noise row kept on the identity
            refs = rng.normal(size=(3, 12))
            ests = Tensor(refs[[1, 0, 2]] + 0.3 * rng.normal(size=(3, 12)), requires_grad=True)
            assert pit_loss(ests, refs, speech_count=2).permutation == (1, 0)
            f, ps = lambda: pit_loss(ests, refs, speech_count=2).loss, [ests]
        else:
            # x is the latent whose 1 x 1 conv gives one source's mask over
            # y's encoding of 2 bases
            w = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=1), requires_grad=True)
            mw = Tensor(rng.normal(size=(2, 2, 1)), requires_grad=True)
            mb = Tensor(rng.normal(size=2), requires_grad=True)
            f, ps = lambda: sum_all(mul(masked_decode(x, mw, mb, y, w, b, 2, 23),
                                        masked_decode(x, mw, mb, y, w, b, 2, 23))), [x, mw, mb, y, w, b]
        assert grad_check(f, ps) < 1e-4

    def test_composed_graph(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(1, 24)))
        w1 = Tensor(rng.normal(size=(3, 1, 5)) * 0.5, requires_grad=True)
        b1 = Tensor(np.zeros(3), requires_grad=True)
        slope = Tensor(np.full(3, 0.25), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 1, 5)) * 0.5, requires_grad=True)

        def f():
            h = prelu_norm(conv1d(x, w1, b1, stride=2), slope, gamma, beta)
            y = transposed_conv1d(h, w2, stride=2)
            return sum_all(mul(y, y))

        assert grad_check(f, [w1, b1, slope, gamma, beta, w2]) < 1e-4


def closure_leaks(vjp):
    """What a vjp's closure captures beyond shapes, flags and C x 1
    statistics: any Tensor, and any array with more than one column."""
    leaks = []
    stack = [cell.cell_contents for cell in vjp.__closure__ or ()]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, Tensor):
            leaks.append(value)
        elif isinstance(value, np.ndarray) and value.ndim > 1 and value.shape[1] > 1:
            leaks.append(value.shape)
    return leaks


def tape_leaks(tape):
    return [(pos, leak) for pos, (_, _, _, vjp) in enumerate(tape._nodes)
            for leak in closure_leaks(vjp)]


class TestTapeHoldsWhatBackwardReads:
    """A node keeps the arrays its vjp reads and nothing else: no closure
    captures a Tensor, gradients route by key, and an op output no vjp reads
    is freed with its last reference."""

    def test_gradcheck_suite_closures_capture_no_tensor(self, monkeypatch):
        from latref import cli

        tapes = []

        def tape_only(f, params, eps=1e-5):
            with Tape() as tape:
                f()
            tapes.append(tape)
            return 0.0

        monkeypatch.setattr(cli, "grad_check", tape_only)
        cli.gradcheck_suite()
        assert tapes and all(len(t) for t in tapes)
        for tape in tapes:
            assert tape_leaks(tape) == []

    @pytest.mark.parametrize("gated", [False, True], ids=["e2e", "gate"])
    def test_desk_training_tape_closures_capture_no_tensor(self, gated):
        from latref.gating import gate_penalty
        from latref.sepmodel import BlockSpec, SeparationConfig, init_params
        from latref.training import run_model

        config = SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32,
                                  num_sources=3, blocks=[BlockSpec(sub_blocks=2, iterations=4)],
                                  sub_scales=3, sub_kernel=5)
        rng = np.random.default_rng(3)
        T = 800
        params = init_params(config, rng)
        gate = init_gate(32, config.latent_length(T), rng) if gated else None
        sources = rng.normal(size=(3, T))
        with Tape() as tape:
            ests, g = run_model(sources.sum(axis=0), params, gate=gate, gate_mode="train", rng=rng)
            loss = pit_loss(ests, sources, 2).loss
            if gated:
                loss = loss + gate_penalty(g)
        ops = {vjp.__qualname__.split(".")[0] for _, _, _, vjp in tape._nodes}
        assert {"conv1d", "prelu_norm", "upsample_conv1d", "masked_decode", "relu"} <= ops
        assert not gated or {"_gate_soft", "_blend"} <= ops
        assert "slice_rows" not in ops
        assert tape_leaks(tape) == []

    def test_gradients_route_by_key_when_ids_are_reused(self):
        # Each conv output is freed as soon as relu has read it, and the leaf
        # made next takes its id: routed by id(), that node would take the
        # leaf's gradient as its own.
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 9)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        calls = []

        def f():
            out_ids, leaf_ids = [], []
            h = x
            for _ in range(6):
                c = conv1d(h, w, b)
                out_ids.append(id(c))
                c = relu(c)
                k = Tensor(np.array(0.5), requires_grad=True)
                leaf_ids.append(id(k))
                h = add(mul(c, k), x)
            calls.append((out_ids, leaf_ids))
            return sum_all(mul(h, h))

        err = grad_check(f, [x, w, b])
        out_ids, leaf_ids = calls[0]  # the taped call
        assert set(out_ids) & set(leaf_ids)
        assert err < 1e-4

    def test_output_of_another_tape_is_a_leaf(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape():
            h = mul(x, x)
            with Tape() as inner:
                loss = sum_all(mul(h, 3.0))
        backward(inner, loss)
        assert np.array_equal(h.grad, [3.0, 3.0]) and x.grad is None

    def test_output_only_an_add_reads_is_freed(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(8, 4000)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 8, 3)), requires_grad=True)
        r = Tensor(rng.normal(size=(16, 4000)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                c = conv1d(x, w)
                out = add(c, r)
                nbytes = c.data.nbytes
                before = tracemalloc.get_traced_memory()[0]
                del c
                after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert before - after >= nbytes == 16 * 4000 * 8
        assert tape.held_output_elems() == 0  # the conv keeps x, a leaf
        assert tape.recorded_output_elems() == 2 * out.size

    def test_sweep_releases_saved_arrays_once(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(8, 4000)))
        w = Tensor(rng.normal(size=(8, 8, 3)), requires_grad=True)
        ones = Tensor(np.ones((8, 4000)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                h = add(conv1d(x, w), ones)  # a plain sum, which the second conv keeps
                loss = sum_all(mul(conv1d(h, w), ones))
            nbytes = h.data.nbytes
            del h
            before = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert before > nbytes > 10 * after  # h was held; after the sweep, w's gradient and no h
        assert all(saved is None for _, _, saved, _ in tape._nodes)
        assert (len(tape), tape.held_output_elems()) == (5, 8 * 4000)  # counts stay as recorded
        with pytest.raises(ValueError, match="already swept"):
            backward(tape, loss)

    def test_held_counts_each_array_once_by_producer(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 10)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        with Tape() as tape:
            r = add(x, x)  # a plain sum, which add does not keep ...
            h = conv1d(r, w)  # ... and the conv keeps as its input
            s = add(h, h)  # keeps nothing
            loss = sum_all(mul(s, s))  # mul(s, s) keeps s twice: counted once; sum_all nothing
        backward(tape, loss)
        assert len(tape) == 5
        assert tape.held_output_elems() == r.size + s.size
        # (producing node, elements) of each held array: node 1, the conv, is
        # absent, since only add reads h and add keeps nothing
        assert sorted(tape._held.values()) == [(0, r.size), (2, s.size)]

    def test_accumulation_never_writes_into_a_passed_through_gradient(self):
        # add's vjp hands its own output gradient to both inputs, so x's
        # first term is the array the outer nodes' gradients are
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            h = add(x, x)
            loss = sum_all(add(add(h, h), add(x, h)))
        backward(tape, loss)
        assert np.array_equal(x.grad, [7.0, 7.0])
