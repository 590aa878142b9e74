"""Adaptive early-exit gating for the refinement loop.

A small gate network maps the current latent to two logits (skip, process):
a 1 x 1 conv to two channels, a PReLU, and a "valid" conv whose kernel
spans the latent, so that it has one output column.  During training the
decision is sampled with Gumbel noise and passed downstream as a
straight-through scalar: the forward value is the hard 0/1 draw, the
gradient is that of the soft process probability.  A train-mode step tapes
three nodes beyond its block application: the soft decision
(:func:`_gate_soft`, softmax(z + gumbel)[1] from the latent and the gate's
weights, which rebuilds the gate's hidden layer in its vjp), the
straight-through sum, and the blend st * B(v) + (1 - st) * v
(:func:`_blend`).  At inference the gate is deterministic (argmax, no
noise) and the loop exits at the first skip, so the number of block
evaluations equals the iteration count.

The gate's parameters are a tree named like the model's
(``gate_named_parameters``); a checkpoint stores them as ``gate.*``
tensors, and ``cli.read_model`` fills the gate it builds from the config
file, at the dataset's latent length, in the one ``fill_named`` pass that
fills the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor, _conv_vjp, _finish, _prelu_into, _prelu_slopes, add, conv1d, mul
from .sepmodel import (ConvParams, ModelParams, SeparationConfig, _conv_named, _param, _step_schedule,
                       _uniform, apply_block)

# the skip penalty's defaults: a quadratic pull of the iteration count toward 3
PENALTY_COEF = 0.75
PENALTY_TARGET = 3.0


@dataclass
class GateParams:
    proj1: ConvParams  # latent_channels -> 2, kernel 1
    slope: Tensor  # PReLU slope per gate channel
    proj2: ConvParams  # 2 -> 2, kernel spanning the whole latent length


def init_gate(latent_channels: int, latent_len: int, rng) -> GateParams:
    return GateParams(
        proj1=ConvParams(w=_param(_uniform(rng, (2, latent_channels, 1), latent_channels)),
                         b=_param(np.zeros(2))),
        slope=_param(np.full(2, 0.25)),
        proj2=ConvParams(w=_param(_uniform(rng, (2, 2, latent_len), 2 * latent_len)),
                         b=_param(np.zeros(2))),
    )


def gate_named_parameters(gate: GateParams) -> list[tuple[str, Tensor]]:
    return [*_conv_named("gate.proj1", gate.proj1), ("gate.slope", gate.slope),
            *_conv_named("gate.proj2", gate.proj2)]


@dataclass
class GateDecision:
    hard: int  # forward value of the decision
    soft: float  # process probability used on the backward path
    st: Tensor | None = None  # straight-through scalar, train mode only


def _hidden(v, w1, b1, slope):
    """The gate's 2 x L hidden layer of latent ``v`` before and after its
    PReLU, by the forwards of a conv and a PReLU on plain arrays."""
    h = conv1d(v, w1, b1).data
    return h, _prelu_into(np.maximum(h, 0.0), h, slope[:, None])


def gate_logits(v: Tensor, gate: GateParams) -> Tensor:
    """The gate's (2, 1) logits of latent ``v``, as a constant: nothing is
    taped, and train mode's gradient runs through :func:`_gate_soft`."""
    L = gate.proj2.w.shape[2]
    if v.ndim != 2 or v.shape[1] != L:
        raise ValueError(f"latent length {v.shape} does not match gate kernel span {L}")
    _, hp = _hidden(v.data, gate.proj1.w.data, gate.proj1.b.data, gate.slope.data)
    return conv1d(hp, gate.proj2.w.data, gate.proj2.b.data, padding="valid")


def _gate_soft(v: Tensor, gate: GateParams, gumbel) -> tuple[Tensor, int]:
    """(soft, hard) of latent ``v`` under the (2, 1) Gumbel draw ``gumbel``:
    softmax(z + gumbel)[1] as one taped node and argmax(z + gumbel), z being
    :func:`gate_logits`' values.

    The node holds ``v`` and the weights, and its vjp rebuilds the hidden
    layer from them.  ``proj2``'s one output column makes its vjp one outer
    product (its weight gradient) and one contraction over the two logits
    (the hidden layer's gradient); ``proj1``, a one-tap conv, takes a conv's
    own vjp.
    """
    zn = gate_logits(v, gate).data + gumbel
    hard = int(np.argmax(zn[:, 0]))
    e = np.exp(zn - zn.max(axis=0, keepdims=True))
    p = e / e.sum(axis=0, keepdims=True)
    w1, b1, slope, w2, b2 = gate.proj1.w, gate.proj1.b, gate.slope, gate.proj2.w, gate.proj2.b
    v_shape, w1_shape = v.shape, w1.shape

    def vjp(g, v_data, w1_data, b1_data, slope_data, w2_data):
        gp = np.zeros((2, 1))
        gp[1] = g
        gz = p * (gp - (gp * p).sum(axis=0, keepdims=True))  # softmax's vjp
        h, hp = _hidden(v_data, w1_data, b1_data, slope_data)
        gw2 = gz[:, :, None] * hp
        ghp = w2_data[0] * gz[0] + w2_data[1] * gz[1]
        gs = (ghp * np.minimum(h, 0.0)).sum(axis=1)
        gh = ghp * _prelu_slopes(h, slope_data[:, None])
        gv, gw1 = _conv_vjp(gh, v_data, w1_data, v_shape, w1_shape, 1, 0)
        return (gv, gw1, gh.sum(axis=1), gs, gw2, gz[:, 0])

    soft = _finish(np.asarray(p[1, 0]), (v, w1, b1, slope, w2, b2), vjp,
                   (v.data, w1.data, b1.data, slope.data, w2.data))
    return soft, hard


def _blend(bv: Tensor, v: Tensor, st: Tensor) -> Tensor:
    """st * bv + (1 - st) * v for a scalar ``st`` as one node, computed as
    the graph mul(bv, st) + mul(v, 1 - st) would.  It holds ``bv`` and ``v``
    for st's gradient, which it returns as that graph's two terms,
    -sum(g * v) through 1 - st and then sum(g * bv); ``st`` is named twice
    among the node's inputs, one per term, so the sweep adds them in that
    graph's order and st's gradient equals the graph's bit for bit."""
    s = st.data
    out = bv.data * s + v.data * (1.0 - s)

    def vjp(g, bv_data, v_data):
        return (g * s, g * (1.0 - s), -(g * v_data).sum(axis=(0, 1)), (g * bv_data).sum(axis=(0, 1)))

    return _finish(out, (bv, v, st, st), vjp, (bv.data, v.data))


def gate_forward(v: Tensor, gate: GateParams, mode: str, rng=None) -> GateDecision:
    """One gate evaluation.

    Train mode draws Gumbel noise from ``rng`` and returns a straight-through
    scalar in ``st``; inference is deterministic with ``soft == hard``.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown gate mode {mode!r}")
    if mode == "infer":
        hard = int(np.argmax(gate_logits(v, gate).data[:, 0]))
        return GateDecision(hard=hard, soft=float(hard))
    if rng is None:
        raise ValueError("train-mode gating needs an rng")
    u = np.clip(rng.random(2), 1e-12, 1.0 - 1e-12)
    gumbel = -np.log(-np.log(u))
    soft_t, hard = _gate_soft(v, gate, gumbel[:, None])
    soft = float(soft_t.data)
    st = Tensor(float(hard) - soft) + soft_t  # forward = hard, gradient = d soft
    return GateDecision(hard=hard, soft=soft, st=st)


def gated_step(v: Tensor, block, gate: GateParams, rng) -> tuple[Tensor, GateDecision]:
    """One train-mode gated refinement step: B(v) if the decision is 1, v if 0,
    as a straight-through blend."""
    d = gate_forward(v, gate, "train", rng)
    return _blend(apply_block(v, block), v, d.st), d


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


def gate_penalty(g, coef: float = PENALTY_COEF, target: float = PENALTY_TARGET) -> Tensor:
    """Quadratic pull of the iteration count toward ``target``."""
    diff = add(g, -target)
    return mul(mul(diff, diff), coef)
