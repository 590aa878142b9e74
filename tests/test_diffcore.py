"""Tests for the reverse-mode core: op forwards against naive oracles,
adjoint identities, and finite-difference gradient checks."""

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
    concat_rows,
    conv1d,
    global_layer_norm,
    grad_check,
    log,
    mean_all,
    mul,
    prelu,
    relu,
    slice_rows,
    softmax,
    sub,
    sum_all,
    transposed_conv1d,
    upsample_nearest,
)


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

    def test_gap_guard(self):
        v = Tensor(np.zeros((1, 4)))
        w = Tensor(np.zeros((1, 1, 2)))
        with pytest.raises(ValueError, match="gap"):
            transposed_conv1d(v, w, stride=3, padding="valid")
        out = transposed_conv1d(v, w, stride=3, padding="valid", allow_gaps=True)
        assert out.shape == (1, 11)

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
            Tensor(y), Tensor(w), stride=stride, padding="same", out_length=T, allow_gaps=True
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
            Tensor(y), Tensor(w), stride=stride, out_length=T, allow_gaps=True
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
                                    out_length=T if padding == "same" else None,
                                    allow_gaps=True).data
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


class TestElementwise:
    def test_prelu_worked_example(self):
        out = prelu(Tensor(np.array([-4.0])), Tensor(np.array(0.25)))
        assert out.data[0] == -1.0

    def test_prelu_per_channel(self):
        x = np.array([[-2.0, 4.0], [-2.0, 4.0]])
        slope = np.array([0.5, 0.25])
        out = prelu(Tensor(x), Tensor(slope))
        np.testing.assert_allclose(out.data, [[-1.0, 4.0], [-0.5, 4.0]])

    def test_softmax_uniform(self):
        out = softmax(Tensor(np.array([0.0, 0.0])), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_normalises(self):
        rng = np.random.default_rng(2)
        out = softmax(Tensor(rng.normal(size=(5, 3)) * 30), axis=0)
        np.testing.assert_allclose(out.data.sum(axis=0), np.ones(3), atol=1e-12)

    def test_softmax_empty_axis(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(Tensor(np.zeros((0, 3))), axis=0)

    def test_global_layer_norm_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 64))
        out = global_layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=1), np.ones(4), atol=1e-4)

    def test_upsample_nearest_doubling(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = upsample_nearest(x, 6)
        assert np.array_equal(out.data, np.array([[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]]))

    def test_slice_concat_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 4))
        t = Tensor(x)
        parts = [slice_rows(t, i, i + 2) for i in range(0, 6, 2)]
        out = concat_rows(parts)
        assert np.array_equal(out.data, x)

    def test_broadcasting_add(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.array(2.0))
        assert np.array_equal(add(a, b).data, np.full((3, 4), 3.0))


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        assert x.grad[0] == 6.0

    def test_relu_subgradient_at_kink(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(relu(x))
        backward(tape, loss)
        assert np.array_equal(x.grad, np.array([0.0, 1.0]))

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
            h = global_layer_norm(relu(conv1d(x, w, stride=2)), Tensor(np.ones(3)),
                                  Tensor(np.zeros(3)))
            loss = mean_all(mul(h, h))
        before = (len(tape), tape.recorded_output_elems())
        backward(tape, loss)
        assert (len(tape), tape.recorded_output_elems()) == before == (5, 4 * 3 * 8 + 1)

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
                loss = mean_all(mul(h, h))
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
        x = Tensor(np.array([0.0]), requires_grad=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="parameter 0"):
                grad_check(lambda: sum_all(log(x)), [x])

    @pytest.mark.parametrize(
        "name",
        [
            "add", "sub", "mul", "relu", "prelu", "softmax", "log",
            "sum", "mean", "norm", "conv_same", "conv_valid",
            "tconv_same", "tconv_valid", "upsample", "slice", "concat",
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
        elif name == "sub":
            f, ps = lambda: sum_all(mul(sub(x, y), sub(x, y))), [x, y]
        elif name == "mul":
            f, ps = lambda: sum_all(mul(x, y)), [x, y]
        elif name == "relu":
            f, ps = lambda: sum_all(mul(relu(x), relu(x))), [x]
        elif name == "prelu":
            s = Tensor(np.array([0.3, 0.7]), requires_grad=True)
            f, ps = lambda: sum_all(mul(prelu(x, s), prelu(x, s))), [x, s]
        elif name == "softmax":
            f, ps = lambda: sum_all(mul(softmax(x, 0), y)), [x]
        elif name == "log":
            xp = Tensor(np.abs(rng.normal(size=(2, 8))) + 0.5, requires_grad=True)
            f, ps = lambda: sum_all(mul(log(xp), log(xp))), [xp]
        elif name == "sum":
            f, ps = lambda: mul(sum_all(x), sum_all(x)), [x]
        elif name == "mean":
            f, ps = lambda: mul(mean_all(x), mean_all(x)), [x]
        elif name == "norm":
            gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
            beta = Tensor(rng.normal(size=2), requires_grad=True)
            f, ps = lambda: sum_all(mul(global_layer_norm(x, gamma, beta), y)), [x, gamma, beta]
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
        elif name == "slice":
            f, ps = lambda: sum_all(mul(slice_rows(x, 0, 1), slice_rows(x, 1, 2))), [x]
        else:
            f, ps = lambda: sum_all(mul(concat_rows([x, y]), concat_rows([y, x]))), [x, y]
        assert grad_check(f, ps) < 1e-4

    def test_composed_graph(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(1, 24)))
        w1 = Tensor(rng.normal(size=(3, 1, 5)) * 0.5, requires_grad=True)
        b1 = Tensor(np.zeros(3), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 1, 5)) * 0.5, requires_grad=True)

        def f():
            h = global_layer_norm(relu(conv1d(x, w1, b1, stride=2)), gamma, beta)
            y = transposed_conv1d(h, w2, stride=2)
            return mean_all(mul(y, y))

        assert grad_check(f, [w1, b1, gamma, beta, w2]) < 1e-4
