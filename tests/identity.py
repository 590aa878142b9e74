"""Bit-identity manifest: the sha256 of every output a change must keep.

    python tests/identity.py OUT.json               write the manifest
    python tests/identity.py --compare A.json B.json list the names that differ

Run from a checkout, it imports that checkout's ``src`` and runs at one BLAS
thread.  Its cases:

- ``step/...``: one batch-2 training step of the README desk model with
  every sub-block projection drawn, so every parameter's gradient is live
  (estimates of each item, the loss and every trainable leaf's gradient):
  end to end at T = 2000, 1999 and 8000, at progressive stages 0 and 1 of
  a two-block split and stage 2 of a three-block one, gated, with the
  gate's gradients, end to end with a second block that shares the
  first's parameters, and end to end at T = 2000 for one block of 1-4
  sub-blocks x 2 iterations at 1, 2, 4 and 5 scales;
- ``memory/...``: ``memory_account(...).activation_elems`` of one desk item
  at T = 2000, end to end and at stages 0 and 1 of two blocks of 1-4
  sub-blocks x 1-3 iterations at 1 and 3 scales, so a change to what the
  tape holds shows case by case; ``memory_peak/...``, the same cases'
  ``activation_bytes_backward``, so does a change to the sweep's peak;
- ``op/...``: the output and every input gradient of one op under a drawn
  output gradient: ``conv1d`` and ``transposed_conv1d`` (its adjoint
  geometry) at odd and even lengths and kernels, strides above the
  kernel, "valid" padding and outputs shorter than the kernel, and
  ``masked_decode`` with and without ``v_enc`` needing a gradient;
- ``cli/<mode>/<task>/<command>/...``: ``latref train``, ``eval`` and
  ``eval --passthrough`` of a toy config in every mode and task: every file
  the command leaves in the output directory, its stdout and its exit code,
  with a report's ``memory_bytes`` (the memory account, which a change to
  what the tape holds moves on purpose) hashed under its own name;
- ``gradcheck``: ``gradcheck_suite``'s error;
- ``env/...``: the BLAS library numpy runs and its thread count, on which
  the bits of a sum over time can depend.

The manifest maps each name to a sha256, sorted, so two runs, of one
commit or of two, compare name by name.  Every API it calls is one a
bit-identical change keeps, so one copy of this file runs on both sides.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import contextlib
import ctypes
import hashlib
import io
import json
import tempfile

import numpy as np

from latref.cli import gradcheck_suite, main
from latref.data import MixtureSpec, make_dataset
from latref.diffcore import Tape, Tensor, backward, conv1d, masked_decode, mul, sum_all
from latref.diffcore import transposed_conv1d
from latref.gating import gate_named_parameters, gate_penalty, init_gate
from latref.losses import pit_loss
from latref.sepmodel import BlockSpec, SeparationConfig, init_params, named_parameters
from latref.training import apply_freeze, memory_account, run_model, stage_freeze_mask


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = repr(data.shape).encode() + np.ascontiguousarray(data, dtype="<f8").tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def desk_config(blocks=None, sub_scales=3) -> SeparationConfig:
    """The README desk model: one block of 2 sub-blocks x 4 iterations."""
    return SeparationConfig(enc_bases=64, enc_kernel=16, enc_stride=8, latent_channels=32,
                            num_sources=3, blocks=blocks or [BlockSpec(2, 4)],
                            sub_scales=sub_scales, sub_kernel=5)


def step_hashes(name: str, config: SeparationConfig, T: int, stage=None, gated=False) -> dict:
    """One batch-2 training step of ``config`` on T-sample items as regime
    ``stage`` (gated: with a gate in train mode), from seed 0.  The
    projections, which start at zero, are drawn, so the sweep's rebuilds
    reach every gradient."""
    rng = np.random.default_rng(0)
    params = init_params(config, rng, stages=config.head_pairs(stage))
    for block in params.blocks:
        for sb in block:
            sb.proj.w.data = rng.normal(size=sb.proj.w.shape) * 0.3
    named = named_parameters(params)
    gate = None
    if gated:
        gate = init_gate(config.latent_channels, config.latent_length(T), rng)
        named += gate_named_parameters(gate)
    trainable, _ = apply_freeze(named, stage_freeze_mask(config, stage))
    items = make_dataset(MixtureSpec(duration=max(0.25, T / 8000), seed=0), 2)
    out = {}
    with Tape() as tape:
        acc = None
        for i, item in enumerate(items):
            sources = item.sources[:, :T]
            ests, g = run_model(sources.sum(axis=0), params, stage=stage or 0,
                                depth=config.stage_depth(stage), gate=gate,
                                gate_mode="train", rng=rng)
            out[f"{name}/ests{i}"] = _sha(ests.data)
            loss = pit_loss(ests, sources, item.speech_count).loss
            if gated:
                loss = loss + gate_penalty(g)
            acc = loss if acc is None else acc + loss
        loss = acc * 0.5
        backward(tape, loss)
    out[f"{name}/loss"] = _sha(loss.data)
    for leaf, t in trainable:
        out[f"{name}/grad/{leaf}"] = _sha(t.grad if t.grad is not None else np.zeros_like(t.data))
    return out


# (sub-blocks, scales) of the one-block end-to-end steps
MATRIX = tuple((k, scales) for k in (1, 2, 3, 4) for scales in (1, 2, 4, 5))


def all_step_hashes() -> dict:
    split = desk_config([BlockSpec(2, 2), BlockSpec(2, 2)])
    out = {}
    out.update(step_hashes("step/e2e/T2000", desk_config(), 2000))
    out.update(step_hashes("step/e2e/T1999", desk_config(), 1999))
    out.update(step_hashes("step/e2e/T8000", desk_config(), 8000))
    out.update(step_hashes("step/stage0/T2000", split, 2000, stage=0))
    out.update(step_hashes("step/stage1/T2000", split, 2000, stage=1))
    out.update(step_hashes("step/stage2of3/T2000", desk_config([BlockSpec(2, 2) for _ in range(3)]),
                           2000, stage=2))
    out.update(step_hashes("step/gated/T2000", desk_config(), 2000, gated=True))
    shared = desk_config([BlockSpec(2, 2), BlockSpec(2, 2, shares_params_with=0)])
    out.update(step_hashes("step/shared/T2000", shared, 2000))
    for k, scales in MATRIX:
        out.update(step_hashes(f"step/e2e/k{k}s{scales}/T2000",
                               desk_config([BlockSpec(k, 2)], scales), 2000))
    return out


# (sub-blocks, iterations, scales) of the two-block memory accounts
MEMORY_MATRIX = tuple((k, n, scales) for k in (1, 2, 3, 4) for n in (1, 2, 3) for scales in (1, 3))


def memory_hashes() -> dict:
    out = {}
    for k, n, scales in MEMORY_MATRIX:
        config = desk_config([BlockSpec(k, n), BlockSpec(k, n)], scales)
        for stage in (None, 0, 1):
            regime = "e2e" if stage is None else f"stage{stage}"
            report = memory_account(config, batch_size=1, T=2000, stage=stage)
            out[f"memory/k{k}n{n}s{scales}/{regime}"] = _sha(str(report.activation_elems))
            out[f"memory_peak/k{k}n{n}s{scales}/{regime}"] = _sha(
                str(report.activation_bytes_backward))
    return out


# (T, K, stride, padding) of a conv over T samples; the transposed conv
# maps that conv's output length back to T
CONV_CASES = (
    (37, 5, 1, "same"), (38, 5, 2, "same"), (37, 4, 2, "same"), (38, 4, 3, "same"),
    (38, 3, 5, "same"), (37, 2, 3, "same"),  # strides above K
    (37, 5, 2, "valid"), (38, 4, 1, "valid"), (37, 3, 4, "valid"),  # the last strides above K
    (5, 7, 2, "same"), (4, 6, 1, "same"), (9, 7, 1, "valid"),  # outputs shorter than K
)


def op_hashes(name: str, op, inputs: dict) -> dict:
    """``op`` on ``inputs``, each name's (array, whether it needs a
    gradient), then a sweep under a drawn output gradient: the hashes of
    the output and of each gradient."""
    tensors = {k: Tensor(a, requires_grad=grad) for k, (a, grad) in inputs.items()}
    with Tape() as tape:
        out = op(**tensors)
        g = np.random.default_rng(1).normal(size=out.shape)
        backward(tape, sum_all(mul(out, Tensor(g))))
    hashes = {f"{name}/out": _sha(out.data)}
    hashes.update((f"{name}/grad/{k}", _sha(t.grad)) for k, t in tensors.items() if t.requires_grad)
    return hashes


def all_op_hashes() -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for T, K, stride, padding in CONV_CASES:
        case = f"T{T}K{K}s{stride}{padding}"
        x, w, b = rng.normal(size=(3, T)), rng.normal(size=(2, 3, K)), rng.normal(size=2)
        out.update(op_hashes(f"op/conv1d/{case}",
                             lambda x, w, b: conv1d(x, w, b, stride=stride, padding=padding),
                             {"x": (x, True), "w": (w, True), "b": (b, True)}))
        L = conv1d(x, w, stride=stride, padding=padding).shape[1]
        v, w = rng.normal(size=(3, L)), rng.normal(size=(3, 2, K))
        out.update(op_hashes(f"op/transposed_conv1d/{case}",
                             lambda v, w, b: transposed_conv1d(v, w, b, stride=stride,
                                                               padding=padding, out_length=T),
                             {"v": (v, True), "w": (w, True), "b": (b, True)}))
    # 3 sources of 5 bases over 20 columns, decoded at stride 3 (> K = 2) to
    # 59 samples, one short of 20 whole strides
    arrays = {"latent": rng.normal(size=(4, 20)), "mask_w": rng.normal(size=(15, 4, 3)),
              "mask_b": rng.normal(size=15), "v_enc": np.abs(rng.normal(size=(5, 20))),
              "w": rng.normal(size=(5, 2, 2)), "b": rng.normal(size=2)}
    for case, v_grad in (("v_enc_trains", True), ("v_enc_frozen", False)):
        inputs = {k: (a, k != "v_enc" or v_grad) for k, a in arrays.items()}
        out.update(op_hashes(f"op/masked_decode/{case}",
                             lambda **t: masked_decode(stride=3, out_length=59, **t), inputs))
    return out


def blas_hashes() -> dict:
    """numpy's BLAS library and the thread count it runs at, read from the
    bundled OpenBLAS where numpy ships one, else "unknown"."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))  # numpy's own copy, already loaded
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(cdll, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                threads = str(get())
                break
    return {"env/blas": _sha(f"{blas['name']} {blas['version']}"), "env/blas_threads": _sha(threads)}


def toy_mapping(mode: str, task: str, out: Path) -> dict:
    """A config that trains in well under a second: two blocks in progressive mode."""
    blocks = [{"sub_blocks": 1, "iterations": 1}]
    if mode == "progressive":
        blocks.append({"sub_blocks": 1, "iterations": 2})
    return {
        "task": task, "mode": mode,
        "model": {"enc_bases": 12, "enc_kernel": 8, "enc_stride": 4, "latent_channels": 6,
                  "num_sources": 3 if task == "separation" else 2, "blocks": blocks,
                  "sub_scales": 2, "sub_kernel": 3},
        "train": {"epochs": 2, "batch_size": 2, "seed": 0},
        "dataset": {"duration": 0.05, "seed": 0, "num_train": 2, "num_val": 2, "num_test": 4},
        "output_dir": str(out),
    }


def cli_hashes(mode: str, task: str, root: Path) -> dict:
    """``train``, ``eval`` and ``eval --passthrough`` of the toy config of
    ``mode`` and ``task`` in ``root``: after each, every file in the output
    directory, stdout and the exit code."""
    out_dir = root / "out"
    path = root / "config.json"
    path.write_text(json.dumps(toy_mapping(mode, task, out_dir)))
    out = {}
    for command, argv in (("train", ["train"]), ("eval", ["eval"]),
                          ("passthrough", ["eval", "--passthrough"])):
        name = f"cli/{mode}/{task}/{command}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--config", str(path)])
        out[f"{name}/exit"] = _sha(str(code))
        out[f"{name}/stdout"] = _sha(stdout.getvalue())
        for f in sorted(out_dir.iterdir()):
            data = f.read_bytes()
            if f.name == "report.json":
                report = json.loads(data)
                out[f"{name}/report.json/memory_bytes"] = _sha(str(report["row"].pop("memory_bytes")))
                data = json.dumps(report, sort_keys=True)
            out[f"{name}/{f.name}"] = _sha(data)
    return out


def all_cli_hashes() -> dict:
    out = {}
    for mode in ("end_to_end", "progressive", "adaptive"):
        for task in ("separation", "enhancement"):
            with tempfile.TemporaryDirectory() as tmp:
                out.update(cli_hashes(mode, task, Path(tmp)))
    return out


def manifest() -> dict:
    out = {**all_step_hashes(), **memory_hashes(), **all_op_hashes(), **all_cli_hashes(),
           **blas_hashes(), "gradcheck": _sha(repr(gradcheck_suite()))}
    return dict(sorted(out.items()))


def compare(a: dict, b: dict) -> list:
    """The names whose hashes differ, or that only one manifest has."""
    return sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n))


def run(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        differ = compare(a, b)
        sys.stdout.write("".join(f"{n}\n" for n in differ))
        sys.stdout.write(f"{len(differ)} of {len(a.keys() | b.keys())} names differ\n")
        return 1 if differ else 0
    if len(argv) == 1:
        m = manifest()
        Path(argv[0]).write_text(json.dumps(m, indent=1, sort_keys=True) + "\n")
        sys.stdout.write(f"{len(m)} names written to {argv[0]}\n")
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
