"""Adaptive early-exit gating for the refinement loop.

A small gate network maps the current latent to two logits (skip, process).
During training the decision is sampled with Gumbel noise and passed
downstream as a straight-through scalar: the forward value is the hard 0/1
draw, the gradient is that of the soft process probability.  At inference
the gate is deterministic (argmax, no noise) and the loop exits at the
first skip, so the number of block evaluations equals the iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor, conv1d, mul, prelu, slice_rows, softmax, sub, sum_all
from .sepmodel import ConvParams, ModelParams, SeparationConfig, _step_schedule, _ZeroDraws, apply_block


@dataclass
class GateParams:
    proj1: ConvParams  # latent_channels -> 2, kernel 1
    slope: Tensor  # PReLU slope per gate channel
    proj2: ConvParams  # 2 -> 2, kernel spanning the whole latent length


def init_gate(latent_channels: int, latent_len: int, rng) -> GateParams:
    a1 = 1.0 / np.sqrt(latent_channels)
    a2 = 1.0 / np.sqrt(2 * latent_len)
    return GateParams(
        proj1=ConvParams(
            w=Tensor(rng.uniform(-a1, a1, size=(2, latent_channels, 1)), requires_grad=True),
            b=Tensor(np.zeros(2), requires_grad=True),
        ),
        slope=Tensor(np.full(2, 0.25), requires_grad=True),
        proj2=ConvParams(
            w=Tensor(rng.uniform(-a2, a2, size=(2, 2, latent_len)), requires_grad=True),
            b=Tensor(np.zeros(2), requires_grad=True),
        ),
    )


def gate_named_parameters(gate: GateParams) -> list[tuple[str, Tensor]]:
    return [
        ("gate.proj1.w", gate.proj1.w),
        ("gate.proj1.b", gate.proj1.b),
        ("gate.slope", gate.slope),
        ("gate.proj2.w", gate.proj2.w),
        ("gate.proj2.b", gate.proj2.b),
    ]


def gate_from_arrays(arrays: dict) -> GateParams:
    """Rebuild gate parameters from checkpoint tensors named as in
    ``gate_named_parameters``."""
    gate = init_gate(1, 1, _ZeroDraws())
    named = gate_named_parameters(gate)
    missing = [n for n, _ in named if n not in arrays]
    if missing:
        raise ValueError(f"gate tensors missing from checkpoint: {missing}")
    for name, t in named:
        t.data = np.asarray(arrays[name], dtype=np.float64)
    return gate


@dataclass
class GateDecision:
    hard: int  # forward value of the decision
    soft: float  # process probability used on the backward path
    st: Tensor | None = None  # straight-through scalar, train mode only


def gate_logits(v: Tensor, gate: GateParams) -> Tensor:
    L = gate.proj2.w.shape[2]
    if v.ndim != 2 or v.shape[1] != L:
        raise ValueError(f"latent length {v.shape} does not match gate kernel span {L}")
    h = conv1d(v, gate.proj1.w, gate.proj1.b, stride=1)
    h = prelu(h, gate.slope)
    return conv1d(h, gate.proj2.w, gate.proj2.b, stride=1, padding="valid")  # (2, 1)


def gate_forward(v: Tensor, gate: GateParams, mode: str, rng=None) -> GateDecision:
    """One gate evaluation.

    Train mode draws Gumbel noise from ``rng`` and returns a straight-through
    scalar in ``st``; inference is deterministic with ``soft == hard``.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown gate mode {mode!r}")
    z = gate_logits(v, gate)
    if mode == "infer":
        hard = int(np.argmax(z.data[:, 0]))
        return GateDecision(hard=hard, soft=float(hard))
    if rng is None:
        raise ValueError("train-mode gating needs an rng")
    u = np.clip(rng.random(2), 1e-12, 1.0 - 1e-12)
    gumbel = -np.log(-np.log(u))
    zn = z + Tensor(gumbel[:, None])
    hard = int(np.argmax(zn.data[:, 0]))
    p = softmax(zn, axis=0)
    soft_t = sum_all(slice_rows(p, 1, 2))
    soft = float(soft_t.data)
    st = Tensor(float(hard) - soft) + soft_t  # forward = hard, gradient = d soft
    return GateDecision(hard=hard, soft=soft, st=st)


def gated_step(v: Tensor, block, gate: GateParams, rng) -> tuple[Tensor, GateDecision]:
    """One train-mode gated refinement step: B(v) if the decision is 1, v if 0,
    as a straight-through blend."""
    d = gate_forward(v, gate, "train", rng)
    bv = apply_block(v, block)
    out = mul(bv, d.st) + mul(v, sub(1.0, d.st))
    return out, d


def adaptive_separate(v: Tensor, config: SeparationConfig, params: ModelParams,
                      gate: GateParams, mode: str, rng=None, early_exit: bool = True):
    """Run the gated refinement loop.

    Train mode evaluates all N scheduled steps and returns g as a
    differentiable sum of straight-through decisions.  Infer mode counts
    completed steps as an int and, with ``early_exit``, stops at the first
    skip; disabling early exit evaluates every gate but produces the same
    latent because a skipped step leaves the latent unchanged.
    """
    schedule = _step_schedule(config)
    if not schedule:
        raise ValueError("config has no refinement steps to gate")
    if mode == "infer":
        g = 0
        for bi in schedule:
            d = gate_forward(v, gate, "infer")
            if early_exit:
                if d.hard == 0:
                    break
                v = apply_block(v, params.blocks[bi])
                g += 1
            else:
                # literal gated update: the block runs every step and a skip
                # multiplies it away
                bv = apply_block(v, params.blocks[bi])
                h = float(d.hard)
                v = Tensor(bv.data * h + v.data * (1.0 - h))
                g += d.hard
        return v, g
    if mode != "train":
        raise ValueError(f"unknown gate mode {mode!r}")
    g_acc = None
    for bi in schedule:
        v, d = gated_step(v, params.blocks[bi], gate, rng)
        g_acc = d.st if g_acc is None else g_acc + d.st
    return v, g_acc


def gate_penalty(g, coef: float = 0.75, target: float = 3.0) -> Tensor:
    """Quadratic pull of the iteration count toward ``target``."""
    diff = sub(g, target)
    return mul(mul(diff, diff), coef)
