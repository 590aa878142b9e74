"""SI-SDR metric and PIT loss tests against direct-formula and
brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latref.diffcore import Tape, Tensor, backward, grad_check, mul
from latref.losses import (
    CLAMP_DB,
    POWER_EPS,
    best_speech_permutation,
    eval_speech_sisdri,
    pit_loss,
    si_sdr,
    si_sdr_improvement,
)

TEN_LOG10_9 = 9.542425094393249
TEN_LOG10_4 = 6.020599913279624


def si_sdr_direct(est, ref):
    """Independent evaluation of the projection formula, used as oracle."""
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    rho = float(np.dot(est, ref) / np.dot(ref, ref))
    target = rho * ref
    num = float(np.dot(target, target))
    den = float(np.dot(target - est, target - est))
    if den == 0.0:
        return 100.0
    if num == 0.0:
        return -100.0
    return float(np.clip(10.0 * np.log10(num / den), -100.0, 100.0))


class TestSiSdr:
    def test_arrays_are_read_in_place(self):
        # an ndarray's own ``data`` is its memoryview buffer, not the array
        from latref.losses import _as_1d

        a = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert _as_1d(a, "est").base is a
        assert _as_1d(Tensor(a), "est").base is a
        assert np.array_equal(_as_1d([1, 2], "est"), [1.0, 2.0])

    def test_scaled_copy_hits_upper_clamp(self):
        ref = np.array([1.0, -2.0, 0.5])
        assert si_sdr(2.0 * ref, ref) == 100.0

    def test_zero_db_example(self):
        db = si_sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(db - 0.0) < 1e-12

    def test_nine_ratio_example(self):
        db = si_sdr(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert abs(db - TEN_LOG10_9) < 1e-12

    def test_orthogonal_estimate_hits_lower_clamp(self):
        assert si_sdr(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -100.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            est = rng.normal(size=64)
            ref = rng.normal(size=64)
            assert abs(si_sdr(est, ref) - si_sdr_direct(est, ref)) < 1e-9

    def test_scale_invariance_exact_for_pow2(self):
        rng = np.random.default_rng(7)
        est = rng.normal(size=32)
        ref = rng.normal(size=32)
        base = si_sdr(est, ref)
        for k in (-6, -1, 1, 3, 10):
            assert si_sdr((2.0**k) * est, ref) == base

    @given(alpha=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, alpha, seed):
        rng = np.random.default_rng(seed)
        est = rng.normal(size=24)
        ref = rng.normal(size=24)
        base = si_sdr(est, ref)
        if abs(base) < 99.0:
            assert abs(si_sdr(alpha * est, ref) - base) < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="zero reference"):
            si_sdr(np.ones(4), np.zeros(4))
        with pytest.raises(ValueError, match="empty"):
            si_sdr(np.ones(0), np.ones(0))
        with pytest.raises(ValueError, match="mismatch"):
            si_sdr(np.ones(4), np.ones(5))


class TestNegSisdrLoss:
    """The mean negative SI-SDR: ``pit_loss`` with one speech source, every
    row kept on its own reference."""

    def test_perfect_reconstruction_any_scale(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 0.01, 37.5):
            refs = rng.normal(size=(2, 40)) * scale
            loss = pit_loss(Tensor(refs), refs, 1).loss
            assert loss.item() == -100.0

    def test_single_source_reduces_to_metric(self):
        rng = np.random.default_rng(4)
        est = rng.normal(size=(1, 50))
        ref = rng.normal(size=(1, 50))
        loss = pit_loss(Tensor(est), ref, 1).loss
        assert abs(loss.item() + si_sdr(est, ref)) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        ests = Tensor(rng.normal(size=(2, 24)), requires_grad=True)
        refs = rng.normal(size=(2, 24))
        err = grad_check(lambda: pit_loss(ests, refs, 1).loss, [ests])
        assert err < 1e-4


class TestPitLoss:
    def test_swapped_rows_recovered(self):
        rng = np.random.default_rng(8)
        refs = rng.normal(size=(2, 32))
        swapped = refs[::-1].copy()
        res = pit_loss(Tensor(swapped), refs, speech_count=2)
        assert res.permutation == (1, 0)
        identity = pit_loss(Tensor(refs), refs, 1).loss
        assert res.loss.item() == identity.item()

    def test_single_speech_is_plain_loss(self):
        rng = np.random.default_rng(9)
        ests = rng.normal(size=(2, 20))
        refs = rng.normal(size=(2, 20))
        res = pit_loss(Tensor(ests), refs, speech_count=1)
        assert res.permutation == (0,)
        assert res.loss.item() == pit_loss(Tensor(ests), refs, 1).loss.item()

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            ests = rng.normal(size=(2, 64))
            refs = rng.normal(size=(2, 64))
            res = pit_loss(Tensor(ests), refs, speech_count=2)
            brute = min(
                pit_loss(Tensor(ests[list(p)]), refs, 1).loss.item()
                for p in itertools.permutations(range(2))
            )
            assert res.loss.item() == brute

    def test_noise_row_kept_on_identity(self):
        rng = np.random.default_rng(11)
        refs = rng.normal(size=(3, 48))
        ests = refs.copy()
        ests[[0, 1]] = ests[[1, 0]]  # swap the speech rows only
        res = pit_loss(Tensor(ests), refs, speech_count=2)
        assert res.permutation == (1, 0)
        assert res.loss.item() == -100.0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_identity(self, seed):
        rng = np.random.default_rng(seed)
        ests = rng.normal(size=(2, 24))
        refs = rng.normal(size=(2, 24))
        res = pit_loss(Tensor(ests), refs, speech_count=2)
        assert res.loss.item() <= pit_loss(Tensor(ests), refs, 1).loss.item() + 1e-12

    def test_symmetric_under_joint_permutation(self):
        rng = np.random.default_rng(13)
        ests = rng.normal(size=(2, 24))
        refs = rng.normal(size=(2, 24))
        a = pit_loss(Tensor(ests), refs, speech_count=2).loss.item()
        b = pit_loss(Tensor(ests[::-1].copy()), refs[::-1].copy(), speech_count=2).loss.item()
        assert a == b

    def test_gradient_flows_through_selected_branch(self):
        rng = np.random.default_rng(14)
        ests = Tensor(rng.normal(size=(2, 16)), requires_grad=True)
        refs = rng.normal(size=(2, 16))
        err = grad_check(lambda: pit_loss(ests, refs, speech_count=2).loss, [ests])
        assert err < 1e-4

    def test_speech_count_bounds(self):
        with pytest.raises(ValueError, match="speech_count"):
            pit_loss(Tensor(np.ones((2, 8))), np.ones((2, 8)), speech_count=3)


def neg_sisdr_grad_closed_form(est, ref):
    """Gradient of one term's -SI-SDR (dB) with respect to the estimate:
    -(20 / ln 10) (t / (|t|^2 + eps) + (t - est) / (|t - est|^2 + eps)) with
    t = rho ref, inside the clamp, and zero outside it."""
    power = ref @ ref
    eps = POWER_EPS * power
    t = (est @ ref) / power * ref
    num, den = t @ t + eps, (t - est) @ (t - est) + eps
    if abs(10.0 * np.log10(num / den)) >= CLAMP_DB:
        return np.zeros_like(est)
    return -(20.0 / np.log(10.0)) * (t / num + (t - est) / den)


def taped(loss_fn, ests):
    """(tape, loss) of ``loss_fn`` on a leaf copy of ``ests``, swept backward."""
    with Tape() as tape:
        loss = loss_fn(ests)
    backward(tape, loss)
    return tape, loss


class TestLossNode:
    """The loss tapes one node, whose vjp is checked against the closed form."""

    def test_each_loss_tapes_one_node(self):
        rng = np.random.default_rng(40)
        refs = rng.normal(size=(3, 30))
        x = Tensor(rng.normal(size=(3, 30)), requires_grad=True)
        for fn in (lambda e: pit_loss(e, refs, 2).loss, lambda e: pit_loss(e, refs, 1).loss):
            tape, _ = taped(fn, x)
            assert len(tape) == 1 and tape.recorded_output_elems() == 1
            assert x.grad.shape == x.shape
        row = Tensor(refs[:1] + rng.normal(size=(1, 30)), requires_grad=True)
        tape, _ = taped(lambda e: pit_loss(e, refs[:1], 1).loss, row)
        assert len(tape) == 1
        np.testing.assert_allclose(row.grad[0], neg_sisdr_grad_closed_form(row.data[0], refs[0]),
                                   rtol=1e-9, atol=0)

    def test_holds_the_estimates_and_nothing_of_the_references(self):
        rng = np.random.default_rng(41)
        refs = rng.normal(size=(3, 30))
        x = Tensor(rng.normal(size=(3, 30)), requires_grad=True)
        with Tape() as tape:
            ests = mul(x, 2.0)  # an op output, which only the loss reads
            pit_loss(ests, refs, 2)
        assert len(tape) == 2
        assert tape.held_output_elems() == ests.size
        assert list(tape._held.values()) == [(0, ests.size)]  # held as node 0's output
        assert tape._nodes[1][2][1] is refs  # saved as given, not copied

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_closed_form(self, seed):
        rng = np.random.default_rng(50 + seed)
        refs = rng.normal(size=(3, 64)) * rng.uniform(0.1, 10.0)
        ests = refs[[1, 0, 2]] + rng.uniform(0.05, 2.0) * rng.normal(size=(3, 64)) * np.std(refs)
        x = Tensor(ests, requires_grad=True)
        _, loss = taped(lambda e: pit_loss(e, refs, 2).loss, x)
        assert pit_loss(ests, refs, 2).permutation == (1, 0)
        assigned = (1, 0, 2)  # reference of each estimate row
        expected = np.stack([neg_sisdr_grad_closed_form(ests[i], refs[j])
                             for i, j in enumerate(assigned)]) / 3
        np.testing.assert_allclose(x.grad, expected, rtol=1e-9, atol=0)

    def test_clamped_term_is_minus_100_with_zero_gradient(self):
        rng = np.random.default_rng(61)
        refs = rng.normal(size=(2, 40))
        ests = np.stack([refs[0] * 3.0, refs[1] + rng.normal(size=40)])
        x = Tensor(ests, requires_grad=True)
        _, loss = taped(lambda e: pit_loss(e, refs, 1).loss, x)
        assert pit_loss(ests[:1], refs[:1], 1).loss.item() == -100.0
        assert np.all(x.grad[0] == 0.0)
        np.testing.assert_allclose(x.grad[1], neg_sisdr_grad_closed_form(ests[1], refs[1]) / 2,
                                   rtol=1e-9, atol=0)


class TestImprovement:
    def test_mixture_as_estimate_is_zero(self):
        rng = np.random.default_rng(15)
        ref = rng.normal(size=40)
        mix = ref + rng.normal(size=40)
        assert si_sdr_improvement(mix, ref, mix) == 0.0

    def test_perfect_estimate_hits_clamp_gap(self):
        rng = np.random.default_rng(16)
        ref = rng.normal(size=40)
        mix = ref + 0.5 * rng.normal(size=40)
        gain = si_sdr_improvement(ref, ref, mix)
        assert gain == 100.0 - si_sdr(mix, ref)

    def test_worked_example(self):
        ref = np.array([1.0, 0.0])
        mix = np.array([1.0, 1.0])
        est = np.array([1.0, 0.5])
        assert abs(si_sdr_improvement(est, ref, mix) - TEN_LOG10_4) < 1e-12

    def test_eval_helper_uses_best_assignment(self):
        rng = np.random.default_rng(17)
        refs = rng.normal(size=(2, 32))
        mix = refs.sum(axis=0)
        ests = refs[::-1].copy()
        assert best_speech_permutation(ests, refs, 2) == (1, 0)
        direct = np.mean([si_sdr_improvement(refs[j], refs[j], mix) for j in range(2)])
        assert eval_speech_sisdri(ests, refs, mix, 2) == pytest.approx(direct)
