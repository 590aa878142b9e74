"""Scale-invariant SDR metric and training losses.

Two routes on purpose.  :func:`si_sdr` is the evaluation metric: the direct
formula on numpy floats, with explicit special cases and a hard clamp at
+/- 100 dB.  :func:`neg_sisdr_loss` is the training loss: the same quantity
built from taped ops, stabilised with a small epsilon relative to the
reference power so that perfect reconstruction yields a finite -100 exactly
at any signal scale, and clamped smoothly inside the +/- 100 dB band.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor, log, mul, relu, reshape, slice_rows, sub, sum_all

CLAMP_DB = 100.0
POWER_EPS = 1e-10
_LOG10_SCALE = 10.0 / math.log(10.0)


@dataclass
class SISDRResult:
    value_db: float
    rho: float


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
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    return arr


def si_sdr(est, ref) -> SISDRResult:
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
        return SISDRResult(CLAMP_DB, rho)
    if num == 0.0:
        return SISDRResult(-CLAMP_DB, rho)
    db = 10.0 * math.log10(num / den)
    db = min(CLAMP_DB, max(-CLAMP_DB, db))
    return SISDRResult(db, rho)


def _clamp_scalar(x: Tensor, lo: float, hi: float) -> Tensor:
    # min(x, hi) = hi - relu(hi - x); max(., lo) = lo + relu(. - lo)
    capped = sub(hi, relu(sub(hi, x)))
    return relu(sub(capped, lo)) + lo


def _neg_sisdr_term(est_row: Tensor, ref_row: np.ndarray) -> Tensor:
    """Differentiable -SI-SDR of one estimate row against one reference row."""
    ref_row = ref_row.reshape(1, -1)
    if est_row.shape != ref_row.shape:
        raise ValueError(f"length mismatch: est {est_row.shape} vs ref {ref_row.shape}")
    ref_power = float(np.sum(ref_row * ref_row))
    if ref_power == 0.0:
        raise ValueError("zero reference signal")
    ref_c = Tensor(ref_row)
    rho = mul(sum_all(mul(est_row, ref_c)), 1.0 / ref_power)
    target = mul(rho, ref_c)
    err = sub(target, est_row)
    floor = POWER_EPS * ref_power
    num = sum_all(mul(target, target)) + floor
    den = sum_all(mul(err, err)) + floor
    db = mul(sub(log(num), log(den)), _LOG10_SCALE)
    return -_clamp_scalar(db, -CLAMP_DB, CLAMP_DB)


def neg_sisdr_loss(ests, refs) -> Tensor:
    """Mean over sources of the negative SI-SDR, as a differentiable scalar.

    ``ests`` is an S x T tensor (or 1-D for a single source); ``refs`` is a
    matching array and is treated as constant.
    """
    ests = ests if isinstance(ests, Tensor) else Tensor(ests)
    refs_arr = np.asarray(getattr(refs, "data", refs), dtype=np.float64)
    if ests.ndim == 1:
        ests = reshape(ests, (1, -1))
        refs_arr = refs_arr.reshape(1, -1)
    if ests.shape != refs_arr.shape:
        raise ValueError(f"shape mismatch: ests {ests.shape} vs refs {refs_arr.shape}")
    S = ests.shape[0]
    acc = None
    for j in range(S):
        term = _neg_sisdr_term(slice_rows(ests, j, j + 1), refs_arr[j])
        acc = term if acc is None else acc + term
    return mul(acc, 1.0 / S)


def pit_loss(ests, refs, speech_count: int) -> PITResult:
    """Permutation-invariant mean negative SI-SDR over speech sources.

    The first ``speech_count`` rows are matched by exhaustive search over
    assignments; remaining rows (a noise estimate, say) keep the identity
    assignment.  Ties prefer the identity permutation.
    """
    ests = ests if isinstance(ests, Tensor) else Tensor(ests)
    refs_arr = np.asarray(getattr(refs, "data", refs), dtype=np.float64)
    if ests.ndim != 2 or ests.shape != refs_arr.shape:
        raise ValueError(f"shape mismatch: ests {ests.shape} vs refs {refs_arr.shape}")
    S = ests.shape[0]
    if not 0 < speech_count <= S:
        raise ValueError(f"speech_count {speech_count} out of range for {S} sources")
    est_rows = [slice_rows(ests, i, i + 1) for i in range(S)]
    # Pairwise speech terms are shared across permutations so each scalar is
    # computed once; floats then match a brute-force enumeration exactly.
    pair = {}
    for i in range(speech_count):
        for j in range(speech_count):
            pair[(i, j)] = _neg_sisdr_term(est_rows[i], refs_arr[j])
    tail = [_neg_sisdr_term(est_rows[j], refs_arr[j]) for j in range(speech_count, S)]
    best = None
    for perm in itertools.permutations(range(speech_count)):
        acc = None
        for j in range(speech_count):
            term = pair[(perm[j], j)]
            acc = term if acc is None else acc + term
        for term in tail:
            acc = acc + term
        loss = mul(acc, 1.0 / S)
        value = float(loss.data)
        if best is None or value < best[0]:
            best = (value, loss, perm)
    return PITResult(loss=best[1], permutation=best[2])


def si_sdr_improvement(est, ref, mix) -> float:
    """SI-SDR gain of ``est`` over using the raw mixture as the estimate."""
    return si_sdr(est, ref).value_db - si_sdr(mix, ref).value_db


def best_speech_permutation(ests: np.ndarray, refs: np.ndarray, speech_count: int) -> tuple:
    """Metric-side assignment: maximise mean SI-SDR over speech sources."""
    best = None
    for perm in itertools.permutations(range(speech_count)):
        score = sum(si_sdr(ests[perm[j]], refs[j]).value_db for j in range(speech_count))
        if best is None or score > best[0]:
            best = (score, perm)
    return best[1]


def eval_speech_sisdri(ests: np.ndarray, refs: np.ndarray, mix: np.ndarray, speech_count: int) -> float:
    """Mean SI-SDR improvement over speech sources under the best assignment."""
    perm = best_speech_permutation(ests, refs, speech_count)
    vals = [si_sdr_improvement(ests[perm[j]], refs[j], mix) for j in range(speech_count)]
    return float(np.mean(vals))
