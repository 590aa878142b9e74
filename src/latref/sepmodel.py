"""Mask-based separation model with iterable, weight-shareable blocks.

The pipeline is encoder -> bottleneck -> a chain of refinement blocks ->
mask network -> decoder.  Each block is a list of sub-blocks; a sub-block is
a small U-shaped unit (strided downsampling convs, nearest-neighbour
upsampling convs, skip additions) whose final projection starts at zero, so
an untrained sub-block is the identity and iteration count is a pure
refinement knob.  Blocks may alias the parameters of an earlier block, and
a block's iteration count multiplies compute without adding parameters.

Checkpoints are a flat binary container: magic, a sorted-key JSON header
describing config and tensor shapes, then raw little-endian float64 payload.
The header's config is read back as the config file's ``model`` section is,
by ``data.from_mapping``, so a malformed one fails by its dotted key.
``load_checkpoint`` checks the container and returns the header and the
tensors by name, building no tree, so no size in a header allocates
anything; ``cli.read_model`` decides which tree they fill, the one the
config file names.
No timestamps anywhere, so identical states serialize to identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Count, Size, check_fields, from_mapping
from .diffcore import Tensor, conv1d, masked_decode, prelu_norm, relu, residual, upsample_conv1d

_CKPT_MAGIC = b"LRCKPT01"
_CKPT_FORMAT = 1


@dataclass
class BlockSpec:
    sub_blocks: Size = 1
    iterations: Size = 1
    shares_params_with: Count | None = None


@dataclass
class SeparationConfig:
    enc_bases: Size = 512
    enc_kernel: Size = 21
    enc_stride: Size = 10
    latent_channels: Size = 128
    num_sources: Size = 3
    blocks: list[BlockSpec] = field(default_factory=lambda: [BlockSpec()])
    sub_scales: Size = 5
    sub_kernel: Size = 5

    def __post_init__(self):
        check_fields(self)
        if not self.blocks:
            raise ValueError("config needs at least one block")
        for i, bs in enumerate(self.blocks):
            check_fields(bs, f"blocks[{i}].")
            ref = bs.shares_params_with
            if ref is not None:
                if not 0 <= ref < i:
                    raise ValueError(f"block {i} shares params with {ref}, which is not an earlier block")
                if self.blocks[ref].sub_blocks != bs.sub_blocks:
                    raise ValueError(
                        f"block {i} shares params with block {ref} but sub_block counts differ "
                        f"({bs.sub_blocks} vs {self.blocks[ref].sub_blocks})"
                    )

    def total_steps(self) -> int:
        return sum(bs.iterations for bs in self.blocks)

    def stage_depth(self, stage: int | None) -> int | None:
        """Refinement steps through block ``stage``: the depth progressive
        stage ``stage`` trains and runs at.  None (end-to-end and gated
        training) is None, which runs the whole schedule."""
        return None if stage is None else sum(bs.iterations for bs in self.blocks[:stage + 1])

    def head_pairs(self, stage: int | None) -> int:
        """Mask-net/decoder pairs the tree of regime ``stage`` holds: one per
        block for a progressive stage, one for None (end-to-end and gated)."""
        return 1 if stage is None else len(self.blocks)

    def latent_length(self, T: int) -> int:
        return -(-T // self.enc_stride)


# ---------------------------------------------------------------------------
# Parameter containers


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor | None = None


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class ScaleParams:
    """One resolution level of a sub-block: conv, PReLU slope, channel norm."""

    conv: ConvParams
    slope: Tensor
    norm: NormParams


@dataclass
class SubBlockParams:
    down: list[ScaleParams]
    up: list[ScaleParams]
    proj: ConvParams  # 1x1 residual projection, zero at init, no bias


@dataclass
class ModelParams:
    config: SeparationConfig
    encoder: ConvParams
    bottleneck: ConvParams
    blocks: list[list[SubBlockParams]]
    mask_nets: list[ConvParams]
    decoders: list[ConvParams]


def _uniform(rng, shape, fan_in) -> np.ndarray:
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape)


class _ZeroDraws:
    """Generator stand-in for ``init_params``: every draw, and every
    constant (:func:`_constant`), is a read-only view of one scalar, so the
    tree has a real tree's names, shapes and aliasing but stores no array
    of a parameter's size.  Counting and tracing use it as it is; clones
    and checkpoint loads give each of its tensors new ``data``."""

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)


def _constant(rng, shape, value: float) -> np.ndarray:
    """An initial bias, slope, gain or projection: ``value`` at ``shape``,
    a new array for a drawn tree and a read-only view for a zero-draw one."""
    if isinstance(rng, _ZeroDraws):
        return np.broadcast_to(value, shape)
    return np.full(shape, value)


def _param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _init_scale(rng, C: int, ks: int) -> ScaleParams:
    return ScaleParams(
        conv=ConvParams(w=_param(_uniform(rng, (C, C, ks), C * ks)),
                        b=_param(_constant(rng, C, 0.0))),
        slope=_param(_constant(rng, C, 0.25)),
        norm=NormParams(gamma=_param(_constant(rng, C, 1.0)), beta=_param(_constant(rng, C, 0.0))),
    )


def _init_sub_block(rng, config: SeparationConfig) -> SubBlockParams:
    C, ks, S = config.latent_channels, config.sub_kernel, config.sub_scales
    return SubBlockParams(
        down=[_init_scale(rng, C, ks) for _ in range(S)],
        up=[_init_scale(rng, C, ks) for _ in range(S)],
        proj=ConvParams(w=_param(_constant(rng, (C, C, 1), 0.0))),
    )


def init_params(config: SeparationConfig, rng, stages: int = 1) -> ModelParams:
    """Draw fresh parameters; aliased blocks share the same objects.

    ``stages`` controls how many mask-net/decoder head pairs exist (one per
    progressive stage; end-to-end training uses a single pair).
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    B, K, C, S = config.enc_bases, config.enc_kernel, config.latent_channels, config.num_sources
    encoder = ConvParams(w=_param(_uniform(rng, (B, 1, K), K)), b=_param(_constant(rng, B, 0.0)))
    bottleneck = ConvParams(w=_param(_uniform(rng, (C, B, 1), B)), b=_param(_constant(rng, C, 0.0)))
    blocks: list[list[SubBlockParams]] = []
    for bs in config.blocks:
        if bs.shares_params_with is not None:
            blocks.append(blocks[bs.shares_params_with])
        else:
            blocks.append([_init_sub_block(rng, config) for _ in range(bs.sub_blocks)])
    mask_nets = [
        ConvParams(w=_param(_uniform(rng, (S * B, C, 1), C)), b=_param(_constant(rng, S * B, 0.0)))
        for _ in range(stages)
    ]
    decoders = [
        ConvParams(w=_param(_uniform(rng, (B, 1, K), B * K)), b=_param(_constant(rng, 1, 0.0)))
        for _ in range(stages)
    ]
    return ModelParams(config, encoder, bottleneck, blocks, mask_nets, decoders)


def _conv_named(prefix: str, cp: ConvParams):
    yield f"{prefix}.w", cp.w
    if cp.b is not None:
        yield f"{prefix}.b", cp.b


def _sub_named(prefix: str, sb: SubBlockParams):
    for tag, scales in (("down", sb.down), ("up", sb.up)):
        for s, sc in enumerate(scales):
            yield from _conv_named(f"{prefix}.{tag}{s}", sc.conv)
            yield f"{prefix}.{tag}{s}.slope", sc.slope
            yield f"{prefix}.{tag}{s}.gamma", sc.norm.gamma
            yield f"{prefix}.{tag}{s}.beta", sc.norm.beta
    yield from _conv_named(f"{prefix}.proj", sb.proj)


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Deterministic (name, tensor) list; aliased blocks appear once."""
    out = [*_conv_named("encoder", params.encoder), *_conv_named("bottleneck", params.bottleneck)]
    for i, block in enumerate(params.blocks):
        if any(block is params.blocks[j] for j in range(i)):
            continue
        for j, sb in enumerate(block):
            out += _sub_named(f"block{i}.sub{j}", sb)
    for j, mn in enumerate(params.mask_nets):
        out += _conv_named(f"mask{j}", mn)
    for j, dec in enumerate(params.decoders):
        out += _conv_named(f"dec{j}", dec)
    return out


def fill_named(named, arrays: dict, what: str) -> None:
    """Give each (name, tensor) of ``named``, a zero-draw tree's list, its
    array in ``arrays``, which must hold exactly those names, each at its
    tensor's shape; ``what`` names the tree in the error, which lists the
    first 8 missing or unknown names and counts the rest."""
    names = {name for name, _ in named}
    for cause, bad in (("missing", names - set(arrays)), ("unknown", set(arrays) - names)):
        if bad:
            bad = sorted(bad)
            more = f" and {len(bad) - 8} more" if len(bad) > 8 else ""
            raise ValueError(f"{what} tensors {cause}: {bad[:8]}{more}")
    for name, t in named:
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != t.shape:
            raise ValueError(f"{what} tensor {name} of shape {arr.shape}, expected {t.shape}")
        t.data = arr


def clone_params(params: ModelParams) -> ModelParams:
    """Deep copy preserving the aliasing structure and each ``requires_grad``.

    The copy is a zero-view tree of the same config and head count whose
    tensors then take a copy of the source's data, name by name.
    """
    copy = init_params(params.config, _ZeroDraws(), stages=len(params.mask_nets))
    for (_, src), (_, dst) in zip(named_parameters(params), named_parameters(copy), strict=True):
        dst.data = src.data.copy()
        dst.requires_grad = src.requires_grad
    return copy


# ---------------------------------------------------------------------------
# Forward passes


def encode(x, params: ModelParams):
    """Mixture 1 x T -> (maskable v_enc enc_bases x L, latent v C x L).

    Taped, neither is held: v_enc, the ReLU of the encoder conv, carries
    relu's recipe over that conv's, so the bottleneck conv and the mask +
    decode node save the recipe and the backward sweep rebuilds v_enc from
    the mixture; the latent is rebuilt by the bottleneck conv from it."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.size == 0:
        raise ValueError("empty input signal")
    if x.ndim != 2 or x.shape[0] != 1:
        raise ValueError(f"encode expects a 1 x T input, got shape {x.shape}")
    cfg = params.config
    v_enc = relu(conv1d(x, params.encoder.w, params.encoder.b, stride=cfg.enc_stride))
    v = conv1d(v_enc, params.bottleneck.w, params.bottleneck.b, stride=1)
    return v_enc, v


def _u_net(v: Tensor, sb: SubBlockParams) -> Tensor:
    """A sub-block's U-shaped body over ``v``: its last norm output."""
    lengths = [v.shape[1]]
    h = v
    downs = []
    for sc in sb.down:
        h = conv1d(h, sc.conv.w, sc.conv.b, stride=2)
        h = prelu_norm(h, sc.slope, sc.norm.gamma, sc.norm.beta)
        downs.append(h)
        lengths.append(h.shape[1])
    u = downs[-1]
    n = len(sb.up)
    for idx, sc in enumerate(sb.up):
        target = lengths[n - 1 - idx]
        u = upsample_conv1d(u, sc.conv.w, sc.conv.b, target)
        u = prelu_norm(u, sc.slope, sc.norm.gamma, sc.norm.beta)
        skip = n - 2 - idx
        if skip >= 0:
            u = u + downs[skip]
    return u


def apply_sub_block(v: Tensor, sb: SubBlockParams) -> Tensor:
    """One sub-block's residual update, v + proj(u), as a plain sum."""
    return v + conv1d(_u_net(v, sb), sb.proj.w, stride=1)


def apply_block(v: Tensor, block: list[SubBlockParams]) -> Tensor:
    """Apply the sub-blocks in turn.  Each later sub-block's input is a
    ``residual`` sum, which the sweep rebuilds by ``residual`` itself from
    the input before it and the recipe of that sub-block's last norm
    output, unless that input is a rebuilt sum: by ``diffcore``'s one
    recipe rule, no sum's rebuild builds another sum.  Taped, an
    application of two sub-blocks holds only its input of the block's
    residual stream (one over the bottleneck's output not even that), and
    one of k holds every second input after it; every sub-block rebuilds
    its first down conv from its input, held or rebuilt.  Each sub-block
    holds its U-Net skip sums, ``add``'s plain sums, and rebuilds the up
    convs over them from them.  The block's output is a plain sum too,
    held, so no rebuild reaches across a block boundary."""
    if not block:
        raise ValueError("block has no sub-blocks")
    C = block[0].down[0].conv.w.shape[1]
    if v.ndim != 2 or v.shape[0] != C:
        raise ValueError(f"latent shape {v.shape} does not match block channel count {C}")
    for sb in block[:-1]:
        v = residual(v, _u_net(v, sb), sb.proj.w)
    return apply_sub_block(v, block[-1])


def _step_schedule(config: SeparationConfig) -> list[int]:
    return [i for i, bs in enumerate(config.blocks) for _ in range(bs.iterations)]


def separate(v: Tensor, config: SeparationConfig, params: ModelParams,
             depth: int | None = None, start: int = 0) -> Tensor:
    """Run refinement steps [start, depth) of the block schedule.

    Step j applies the block that owns the j-th iteration; depth=None means
    the full schedule.  Running to depth d and then continuing from d
    composes to the full-depth result.
    """
    schedule = _step_schedule(config)
    N = len(schedule)
    if depth is None:
        depth = N
    if not 0 <= depth <= N:
        raise ValueError(f"depth {depth} out of range for {N} total steps")
    if not 0 <= start <= depth:
        raise ValueError(f"start {start} out of range for depth {depth}")
    for bi in schedule[start:depth]:
        v = apply_block(v, params.blocks[bi])
    return v


def mask_and_decode(v_enc: Tensor, s_latent: Tensor, stage: int, params: ModelParams,
                    out_length: int | None = None) -> Tensor:
    """Estimate masks from the latent and decode each source from v_enc.

    Returns num_sources x T.  ``out_length`` fixes T (default L * enc_stride).
    """
    cfg = params.config
    if not 0 <= stage < len(params.mask_nets):
        raise ValueError(f"stage {stage} out of range for {len(params.mask_nets)} head pairs")
    mn = params.mask_nets[stage]
    dec = params.decoders[stage]
    T = v_enc.shape[1] * cfg.enc_stride if out_length is None else out_length
    return masked_decode(s_latent, mn.w, mn.b, v_enc, dec.w, dec.b, cfg.enc_stride, T)


# ---------------------------------------------------------------------------
# Parameter accounting


def count_params(config: SeparationConfig, stages: int = 1) -> int:
    """Exact trainable-scalar count of a fresh tree with ``stages`` head
    pairs, summed over its ``named_parameters``, so an aliased block counts
    once; iteration counts never enter."""
    params = init_params(config, _ZeroDraws(), stages=stages)
    return sum(t.size for _, t in named_parameters(params))


# ---------------------------------------------------------------------------
# Checkpoint container


def save_checkpoint(path, params: ModelParams, extra_tensors=None, meta=None) -> None:
    """Serialize config + named tensors (+ optional extras) byte-deterministically.

    An extra tensor's name must be a string that no model tensor has, so
    every name in the file is unique."""
    named = named_parameters(params)
    if extra_tensors:
        taken = {n for n, _ in named}
        bad = [n for n in extra_tensors if not isinstance(n, str) or n in taken]
        if bad:
            raise ValueError(f"extra tensor names {bad!r} are not strings or are model tensor names")
        named = named + sorted(extra_tensors.items())
    header = {
        "format": _CKPT_FORMAT,
        "config": dataclasses.asdict(params.config),
        "stages": len(params.mask_nets),
        "meta": meta or {},
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


@dataclass
class LoadedCheckpoint:
    """A checkpoint's header fields and its tensors by name."""

    config: SeparationConfig
    stages: int
    meta: dict
    arrays: dict


def load_checkpoint(path) -> LoadedCheckpoint:
    """Read a checkpoint, checking every declared length against the bytes
    left in the file before reading, so a malformed file fails by name
    before any large allocation, and every tensor value for inf and NaN,
    which no trained model holds.  No tree is built: the header's config
    and ``stages`` are returned unchecked against the tensors."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic {magic!r})")
        hlen = int.from_bytes(fh.read(8), "little")
        if hlen > size - fh.tell():
            raise ValueError(f"truncated checkpoint {path}: header has {size - fh.tell()} of "
                             f"{hlen} bytes")
        blob = fh.read(hlen)
        try:
            header = json.loads(blob.decode())
        except (ValueError, RecursionError) as e:  # bad bytes, bad or too deeply nested JSON
            raise ValueError(f"checkpoint {path} has a malformed header: {e}") from e
        fmt = header.get("format") if isinstance(header, dict) else None
        if type(fmt) is not int or fmt != _CKPT_FORMAT:  # true and 1.0 equal 1 but are no format
            raise ValueError(f"checkpoint {path} has format {fmt!r}, "
                             f"this reader supports {_CKPT_FORMAT}")
        for key in ("config", "tensors"):
            if key not in header:
                raise ValueError(f"checkpoint {path} header has no {key!r} key")
        if not isinstance(header["tensors"], list):
            raise ValueError(f"checkpoint {path} header's 'tensors' is {header['tensors']!r}, "
                             f"not a list of tensor entries")
        arrays = {}
        for entry in header["tensors"]:
            try:
                name, shape = entry["name"], tuple(entry["shape"])
            except (KeyError, TypeError) as e:
                raise ValueError(f"checkpoint {path} has a malformed tensor entry {entry!r}") from e
            if any(type(n) is not int or n < 0 for n in shape):
                raise ValueError(f"checkpoint {path} has a malformed tensor entry {entry!r}: "
                                 f"a shape holds non-negative integers")
            if not isinstance(name, str) or name in arrays:
                raise ValueError(f"checkpoint {path} has a malformed tensor entry {entry!r}: "
                                 f"a name is a string that no other entry has")
            n_bytes = 8 * math.prod(shape)
            if n_bytes > size - fh.tell():
                raise ValueError(f"truncated checkpoint {path}: tensor entry {entry!r} declares "
                                 f"{n_bytes} bytes, {size - fh.tell()} are left")
            arrays[name] = np.frombuffer(fh.read(n_bytes), dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"checkpoint {path} tensor {name!r} holds inf or NaN")
        if fh.read(1):
            raise ValueError(f"checkpoint {path} has trailing bytes after the last tensor")
    meta, stages = header.get("meta", {}), header.get("stages", 1)
    if not isinstance(meta, dict) or type(stages) is not int or stages < 1:
        raise ValueError(f"checkpoint {path} header needs an object 'meta' and an integer "
                         f"'stages' >= 1, got stages {stages!r}")
    try:
        config = from_mapping(SeparationConfig, header["config"], "model")
    except ValueError as e:
        raise ValueError(f"checkpoint {path} has an invalid model config: {e}") from e
    return LoadedCheckpoint(config=config, stages=stages, meta=meta, arrays=arrays)
