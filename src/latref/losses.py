"""Scale-invariant SDR metric and training losses.

Two routes on purpose.  :func:`si_sdr` is the evaluation metric: the direct
formula on numpy floats, with explicit special cases and a hard clamp at
+/- 100 dB.  :func:`pit_loss` is the training loss: the same quantity
stabilised with a small epsilon relative to the reference power, so that
perfect reconstruction yields a finite -100 exactly at any signal scale,
and clamped by ReLUs.  It is one taped node, whose forward runs every term
as a graph of elementwise ops would, op for op, and whose vjp replays that
graph's reverse sweep for the chosen terms from the saved estimates and
references, so values and gradients are the graph's own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor, _finish

CLAMP_DB = 100.0
POWER_EPS = 1e-10
_LOG10_SCALE = 10.0 / math.log(10.0)


@dataclass
class PITResult:
    """Best assignment of estimates to references.

    ``loss`` is a scalar Tensor so it can sit inside a training graph; use
    ``loss.item()`` for the float.  ``permutation[j]`` is the 0-based index
    of the estimate assigned to speech reference j.
    """

    loss: Tensor
    permutation: tuple


def _as_1d(x, name: str) -> np.ndarray:
    arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    return arr


def si_sdr(est, ref) -> float:
    """Scale-invariant SDR of ``est`` against ``ref`` in dB, clamped to +/-100.

    The plain projection formula, with no centering.
    """
    e = _as_1d(est, "est")
    s = _as_1d(ref, "ref")
    if e.shape != s.shape:
        raise ValueError(f"length mismatch: est {e.shape} vs ref {s.shape}")
    ref_power = float(s @ s)
    if ref_power == 0.0:
        raise ValueError("zero reference signal")
    rho = float(e @ s) / ref_power
    target = rho * s
    num = float(target @ target)
    err = target - e
    den = float(err @ err)
    if den == 0.0:
        return CLAMP_DB
    if num == 0.0:
        return -CLAMP_DB
    return min(CLAMP_DB, max(-CLAMP_DB, 10.0 * math.log10(num / den)))


def _neg_sisdr_term(e: np.ndarray, s: np.ndarray):
    """-SI-SDR of the 1 x T estimate row ``e`` against the reference row ``s``.

    Returns the value and the scalars the vjp reads: the reference power,
    rho, the two stabilised powers and whether the dB value lies inside the
    clamp.  The float ops, in their order, are those of the same term built
    from elementwise ops on 1 x T rows, with the clamp built from ReLUs as
    ``hi - relu(hi - x)``, then ``relu(. - lo) + lo``.
    """
    power = float(np.sum(s * s))
    if power == 0.0:
        raise ValueError("zero reference signal")
    rho = (e * s).sum() * (1.0 / power)
    target = rho * s
    err = target - e
    floor = POWER_EPS * power
    num = (target * target).sum() + floor
    den = (err * err).sum() + floor
    db = (np.log(num) - np.log(den)) * _LOG10_SCALE
    r1 = np.maximum(CLAMP_DB - db, 0.0)
    r2 = np.maximum((CLAMP_DB - r1) - -CLAMP_DB, 0.0)
    return (r2 + -CLAMP_DB) * -1.0, (power, rho, num, den, r1 > 0 and r2 > 0)


def _neg_sisdr_vjp(g, e: np.ndarray, s: np.ndarray, power, rho, num, den, inside):
    """Gradient of one term with respect to ``e``, given the term's gradient
    ``g``: the elementwise graph's reverse sweep, with target and error
    recomputed from the rows.  Outside the clamp it is all zeros."""
    gd = g * -1.0 * inside * _LOG10_SCALE  # through the negation, the clamp and the dB scale
    target = rho * s
    err = target - e
    gerr = -gd / den * err
    gerr = gerr + gerr  # err * err: one term per operand
    gtarget = gd / num * target
    gtarget = gtarget + gtarget + gerr
    grho = (gtarget * s).sum(axis=(0, 1)) * (1.0 / power)
    return -gerr + grho * s


def _pit_node(ests: Tensor, refs: np.ndarray, speech_count: int):
    """(loss, permutation) of :func:`pit_loss` over the S x T ``refs``, with
    ``ests`` holding the same number of samples; one node is taped."""
    rows = ests.data.reshape(refs.shape)
    S = refs.shape[0]
    # Pairwise speech terms are shared across permutations so each is
    # computed once; floats then match a brute-force enumeration exactly.
    terms = {(i, j): _neg_sisdr_term(rows[i:i + 1], refs[j:j + 1])
             for i in range(speech_count) for j in range(speech_count)}
    terms.update({(j, j): _neg_sisdr_term(rows[j:j + 1], refs[j:j + 1])
                  for j in range(speech_count, S)})
    best = None
    for perm in itertools.permutations(range(speech_count)):
        pairs = [(perm[j], j) for j in range(speech_count)]
        pairs += [(j, j) for j in range(speech_count, S)]
        acc = None
        for pair in pairs:
            value = terms[pair][0]
            acc = value if acc is None else acc + value
        loss = acc * (1.0 / S)
        if best is None or loss < best[0]:
            best = (loss, perm, pairs)
    loss, perm, pairs = best
    chosen = [(i, j, terms[(i, j)][1]) for i, j in pairs]
    shape = ests.shape

    def vjp(g, ests_data, refs_data):
        g = g * (1.0 / S)  # the mean hands every term the same gradient
        e = ests_data.reshape(refs_data.shape)
        gx = np.zeros(e.shape)
        for i, j, saved in chosen:
            gx[i:i + 1] = _neg_sisdr_vjp(g, e[i:i + 1], refs_data[j:j + 1], *saved)
        return (gx.reshape(shape),)

    return _finish(np.asarray(loss), (ests,), vjp, (ests.data, refs)), perm


def pit_loss(ests, refs, speech_count: int) -> PITResult:
    """Permutation-invariant mean negative SI-SDR over speech sources.

    The first ``speech_count`` rows are matched by exhaustive search over
    assignments; remaining rows (a noise estimate, say) keep the identity
    assignment.  Ties prefer the identity permutation.
    """
    ests = ests if isinstance(ests, Tensor) else Tensor(ests)
    refs_arr = np.asarray(refs.data if isinstance(refs, Tensor) else refs, dtype=np.float64)
    if ests.ndim != 2 or ests.shape != refs_arr.shape:
        raise ValueError(f"shape mismatch: ests {ests.shape} vs refs {refs_arr.shape}")
    S = ests.shape[0]
    if not 0 < speech_count <= S:
        raise ValueError(f"speech_count {speech_count} out of range for {S} sources")
    loss, perm = _pit_node(ests, refs_arr, speech_count)
    return PITResult(loss=loss, permutation=perm)


def si_sdr_improvement(est, ref, mix) -> float:
    """SI-SDR gain of ``est`` over using the raw mixture as the estimate."""
    return si_sdr(est, ref) - si_sdr(mix, ref)


def best_speech_permutation(ests: np.ndarray, refs: np.ndarray, speech_count: int) -> tuple:
    """Metric-side assignment: maximise mean SI-SDR over speech sources."""
    best = None
    for perm in itertools.permutations(range(speech_count)):
        score = sum(si_sdr(ests[perm[j]], refs[j]) for j in range(speech_count))
        if best is None or score > best[0]:
            best = (score, perm)
    return best[1]


def eval_speech_sisdri(ests: np.ndarray, refs: np.ndarray, mix: np.ndarray, speech_count: int) -> float:
    """Mean SI-SDR improvement over speech sources under the best assignment."""
    perm = best_speech_permutation(ests, refs, speech_count)
    vals = [si_sdr_improvement(ests[perm[j]], refs[j], mix) for j in range(speech_count)]
    return float(np.mean(vals))
