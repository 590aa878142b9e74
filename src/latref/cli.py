"""Experiment front door: config files, run orchestration, reports.

The config is one JSON file with nested sections (task, mode, model, train,
dataset, finetune, output_dir), each optional.  ``data.from_mapping`` reads
every section strictly: an unknown key anywhere fails with its dotted path
(``model.blocks[0].x``), so a typo cannot silently fall back to a default,
and a section that is not an object fails by its path as well.  Each
key's type and bound are its field's annotation (``Count``, ``Size``,
``Positive``, ``NonNegative``, a ``Literal``), which ``data.check_fields``
checks when the section is built, so a bad value is named before any data
is; only rules across keys are written out below.  A config file that
cannot be read or decoded, or an ``--out`` that is a file, exits 2 with
the path named.
``mode`` is the one regime switch: ``train`` runs the regime it names, the
checkpoint records it, and ``eval`` runs the head, depth and gate the
checkpoint holds.  ``read_model`` alone decides which tree a checkpoint
fills: it compares the header's config, meta and ``stages`` with the
config file first, then fills the tree ``cfg.model`` names (and the gate,
in adaptive mode) in one checked pass, so no size in a header is ever
allocated.
All artifacts (history, checkpoints, reports) are byte-deterministic for a
given config and seed; nothing embeds a timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Count, MixtureSpec, NonNegative, Positive, Size, Task, build_splits, check_fields
from .data import from_mapping, make_dataset
from .diffcore import Tensor, conv1d, grad_check, masked_decode, mul, prelu_norm
from .diffcore import relu, sum_all, transposed_conv1d, upsample_conv1d
from .gating import PENALTY_COEF, PENALTY_TARGET, GateParams, _blend, _gate_soft
from .gating import gate_named_parameters, init_gate
from .losses import eval_speech_sisdri, pit_loss
from .sepmodel import (
    BlockSpec,
    ConvParams,
    ModelParams,
    SeparationConfig,
    _ZeroDraws,
    count_params,
    fill_named,
    init_params,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    _stage_epochs,
    evaluate,
    finetune_gate,
    memory_account,
    run_model,
    stage_freeze_mask,
    train_end_to_end,
    train_progressive,
)

GRADCHECK_TOL = 1e-4
Mode = typing.Literal["end_to_end", "progressive", "adaptive"]
MODES = typing.get_args(Mode)


@dataclass
class FinetuneConfig:
    """Joint gate fine-tune phase; its epochs come out of train.epochs."""

    epochs: Count = 0  # 0 means one tenth of the total, at least 1
    lr0: Positive = 1e-4
    lr_decay_every: Size = 5
    lr_decay_factor: Positive = 1.0 / 3.0
    penalty_coef: NonNegative = PENALTY_COEF
    penalty_target: float = PENALTY_TARGET

    def __post_init__(self):
        check_fields(self)

    def resolve_epochs(self, total: int) -> int:
        # a tenth, rounded half to even in integers, so no total overflows a float
        ft = self.epochs if self.epochs > 0 else max(1, round(total, -1) // 10)
        if ft >= total:
            raise ValueError(
                f"finetune.epochs {ft} leaves no pretraining epochs out of train.epochs {total}"
            )
        return ft


@dataclass
class DataSection(MixtureSpec):
    """The dataset section: the mixture recipe and the size of each split."""

    num_train: Count = 8
    num_val: Count = 4
    num_test: Count = 4


@dataclass
class ExperimentConfig:
    task: Task = "separation"
    mode: Mode = "end_to_end"
    model: SeparationConfig = field(default_factory=SeparationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: DataSection = None
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    output_dir: str = "runs/exp"

    def __post_init__(self):
        check_fields(self)
        if self.dataset is None:
            self.dataset = DataSection(task=self.task)
        if self.task != self.dataset.task:
            raise ValueError(
                f"task {self.task!r} does not match dataset.task {self.dataset.task!r}"
            )
        expected = self.dataset.num_sources
        if self.model.num_sources != expected:
            raise ValueError(
                f"model.num_sources {self.model.num_sources} does not fit task {self.task!r} (needs {expected})"
            )
        if self.mode == "adaptive":
            self.finetune.resolve_epochs(self.train.epochs)  # raises if no pretraining is left
        if self.mode == "progressive":
            # raise if a stage gets no epoch or a block aliases another's parameters
            _stage_epochs(self.train.epochs, len(self.model.blocks))
            stage_freeze_mask(self.model, 0)
        chunk = self.train.chunk_len
        if self.mode == "adaptive" and chunk is not None:
            # the gate's second conv spans the dataset's latent length exactly
            got, want = self.model.latent_length(chunk), _gate_latent_len(self)
            if got != want:
                raise ValueError(
                    f"train.chunk_len {chunk} gives latent length {got}, but adaptive mode "
                    f"needs the dataset's latent length {want}"
                )


def config_from_mapping(d: dict) -> ExperimentConfig:
    """Build the config through the one strict reader; the one rule of its
    own is that ``dataset.task`` defaults to the top-level ``task``."""
    ds = d.get("dataset", {})
    if isinstance(ds, dict):
        d = {**d, "dataset": {"task": d.get("task", ExperimentConfig.task), **ds}}
    return from_mapping(ExperimentConfig, d)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except (ValueError, RecursionError) as e:  # undecodable bytes, bad or too deeply nested JSON
        raise ValueError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    return config_from_mapping(raw)


# ---------------------------------------------------------------------------
# Artifacts


def _gate_latent_len(cfg: ExperimentConfig) -> int:
    return cfg.model.latent_length(cfg.dataset.num_samples)


@dataclass
class TrainedModel:
    """A checkpoint's model: its parameters, mode, the progressive stage it
    trained (None unless progressive; the stage fixes head and depth) and its gate."""

    params: ModelParams
    mode: str
    stage: int | None = None
    gate: GateParams | None = None


def write_model(path, cfg: ExperimentConfig, model: TrainedModel) -> None:
    """The one checkpoint writer: meta keeps the mode, the task and a progressive
    model's stage and depth; an adaptive model's gate goes in as ``gate.*`` tensors."""
    meta = {"mode": model.mode, "task": cfg.task}
    if model.mode == "progressive":
        meta.update(stage=model.stage, depth=cfg.model.stage_depth(model.stage))
    extras = None if model.gate is None else dict(gate_named_parameters(model.gate))
    save_checkpoint(path, model.params, extra_tensors=extras, meta=meta)


def read_model(path: Path, cfg: ExperimentConfig) -> TrainedModel:
    """The one checkpoint reader: check ``path`` against ``cfg`` before any data
    is built, so a checkpoint that cannot run fails with its file and key named.
    The header's config, meta and ``stages`` are compared first; only then is
    a tree built, the one ``cfg.model`` names with the head pairs of its stage
    (plus the gate in adaptive mode), and one ``fill_named`` fills it.  Only a
    progressive checkpoint's ``meta.stage`` is read."""
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}; train first or pass --passthrough")
    loaded = load_checkpoint(path)
    want, got = dataclasses.asdict(cfg.model), dataclasses.asdict(loaded.config)
    for key in sorted(want):
        if want[key] != got[key]:
            raise ValueError(f"checkpoint {path} has model.{key} = {got[key]!r}, "
                             f"but the config has {want[key]!r}")
    meta, allowed = loaded.meta, {"mode": MODES}
    if meta.get("mode") == "progressive":
        allowed.update(stage=range(len(cfg.model.blocks)), depth=None)
    for key, values in allowed.items():
        if key not in meta:
            raise ValueError(f"checkpoint {path} has no meta.{key}")
        if key == "depth":  # the stage, checked before it, fixes the depth
            depth = cfg.model.stage_depth(meta["stage"])
            values = range(depth, depth + 1)
        # `in range` alone admits 1.0 and True, which compare equal to 1
        if isinstance(values, range) and type(meta[key]) is not int:
            raise ValueError(f"checkpoint {path} has meta.{key} {meta[key]!r}, not an integer")
        if meta[key] not in values:
            raise ValueError(f"checkpoint {path} has meta.{key} {meta[key]!r}, not in {values!r}")
    mode, stage = meta["mode"], meta["stage"] if "stage" in allowed else None
    heads = cfg.model.head_pairs(stage)
    if loaded.stages != heads:
        raise ValueError(f"checkpoint {path} header's stages says {loaded.stages} head pairs, "
                         f"but {mode} training of this config writes {heads}")
    model = TrainedModel(init_params(cfg.model, _ZeroDraws(), stages=heads), mode, stage)
    named = named_parameters(model.params)
    if mode == "adaptive":
        model.gate = init_gate(cfg.model.latent_channels, _gate_latent_len(cfg), _ZeroDraws())
        named += gate_named_parameters(model.gate)
    fill_named(named, loaded.arrays, f"checkpoint {path}")
    return model


# ---------------------------------------------------------------------------
# Quartiles and reports


def quartile_analysis(results):
    """Bin per-sample (snr, si_sdri, g) records into 4 SNR quartiles.

    Sorting ties break by original index; bin sizes follow the uneven-split
    convention (earlier bins take the remainder).  Bin 1 is the lowest SNR.
    """
    rows = list(results)
    if len(rows) < 4:
        raise ValueError(f"quartile analysis needs at least 4 samples, got {len(rows)}")
    order = sorted(range(len(rows)), key=lambda i: (rows[i][0], i))
    base, rem = divmod(len(rows), 4)
    bins = []
    start = 0
    for b in range(4):
        size = base + (1 if b < rem else 0)
        idx = order[start:start + size]
        start += size
        snrs = [rows[i][0] for i in idx]
        sisdris = [rows[i][1] for i in idx]
        gs = [rows[i][2] for i in idx if rows[i][2] is not None]
        bins.append({
            "bin": b + 1,
            "count": len(idx),
            "mean_snr": float(np.mean(snrs)),
            "mean_sisdri": float(np.mean(sisdris)),
            "mean_g": float(np.mean(gs)) if gs else None,
        })
    return bins


def _model_row(cfg: ExperimentConfig, model: TrainedModel | None) -> dict:
    """Report row of the model that runs, before its scores: its config,
    its parameter count with its head pairs and an adaptive model's gate
    (2C + 4L + 6 scalars), its mode, and the memory account of its regime
    (a progressive model's at its own stage).  The account traces no gate,
    so an adaptive row's leaves out the B(v) a gated step holds.

    Passthrough (``model`` None) describes the config file's model, a
    progressive one at its last stage and an adaptive one with a gate at
    the dataset's latent length.  A model numpy cannot build (a size past
    its largest dimension or its memory) fails naming the ``model``
    section and numpy's cause.
    """
    if model is None:
        config, mode = cfg.model, cfg.mode
        stage = len(config.blocks) - 1 if mode == "progressive" else None
    else:
        config, mode, stage = model.params.config, model.mode, model.stage
    try:
        params = count_params(config, stages=config.head_pairs(stage))
        if mode == "adaptive":
            gate = model.gate if model is not None else \
                init_gate(config.latent_channels, _gate_latent_len(cfg), _ZeroDraws())
            params += sum(t.size for _, t in gate_named_parameters(gate))
        mem = memory_account(config, batch_size=1, T=cfg.dataset.num_samples, stage=stage)
    except (ValueError, MemoryError) as e:
        raise ValueError(f"config section 'model' cannot be built: {e}") from e
    return {
        "blocks": len(config.blocks),
        "sub_blocks": config.blocks[0].sub_blocks,
        "iters": [bs.iterations for bs in config.blocks],
        "params": params,
        "memory_bytes": mem.total_bytes,
        "mode": mode,
        "task": cfg.task,
    }


def eval_model(cfg: ExperimentConfig, model: TrainedModel | None) -> dict:
    """Score the test split; returns the full report mapping.

    A model runs with its own head, depth and gate, and the report row
    describes it.  ``None`` scores the mixture itself as every estimate
    (passthrough).  The row's counts come first, so a model too large to
    count fails before any data is made.
    """
    row = _model_row(cfg, model)
    test = make_dataset(cfg.dataset, cfg.dataset.num_test, "test")
    if model is None:
        scores = [eval_speech_sisdri(np.tile(s.mixture, (s.sources.shape[0], 1)), s.sources,
                                     s.mixture, s.speech_count) for s in test]
        gs = [None] * len(test)
    else:
        scores, gs = evaluate(model.params, test, model.stage, model.gate)
    per_sample = [{"snr_db": s.metadata["noise_snr_db"], "sisdri": v, "g": g}
                  for s, v, g in zip(test, scores, gs)]
    gated = [g for g in gs if g is not None]
    row.update(mean_sisdri=float(np.mean(scores)), mean_g=float(np.mean(gated)) if gated else None)
    return {
        "row": row,
        "per_sample": per_sample,
        "quartiles": quartile_analysis(
            [(r["snr_db"], r["sisdri"], r["g"]) for r in per_sample]
        ) if len(per_sample) >= 4 else [],
        "passthrough": model is None,
    }


_COLUMNS = [
    ("Blocks", lambda r: str(r["blocks"])),
    ("Sub-Blocks", lambda r: str(r["sub_blocks"])),
    ("Iter.", lambda r: "x".join(str(i) for i in r["iters"])),
    ("SI-SDRi", lambda r: f"{r['mean_sisdri']:.2f}"),
    ("Params", lambda r: str(r["params"])),
    ("Mean g", lambda r: "-" if r.get("mean_g") is None else f"{r['mean_g']:.2f}"),
]


def render_table(rows) -> str:
    cells = [[name for name, _ in _COLUMNS]]
    for r in rows:
        cells.append([fmt(r) for _, fmt in _COLUMNS])
    widths = [max(len(row[c]) for row in cells) for c in range(len(_COLUMNS))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_quartiles(quartiles) -> str:
    lines = ["Quartile  MeanSNR(dB)  SI-SDRi(dB)  Mean g"]
    for q in quartiles:
        g = "-" if q["mean_g"] is None else f"{q['mean_g']:.2f}"
        lines.append(f"{q['bin']:>8}  {q['mean_snr']:>11.2f}  {q['mean_sisdri']:>11.2f}  {g:>6}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gradient verification suite


def gradcheck_suite(rng=None) -> float:
    """Finite-difference check of every op plus the whole training graph."""
    rng = rng if rng is not None else np.random.default_rng(0)

    def t(shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    errs = []
    x = t((3, 7))
    y = t((3, 7))
    w = t((4, 3, 3), 0.5)
    b = t(4)
    tw = t((3, 2, 4), 0.5)
    slope = t(3, 0.3)
    gamma, beta = t(3), t(3)
    checks = [
        (lambda: sum_all(mul(x + y, x)), [x, y]),
        (lambda: sum_all(relu(x) * y), [x, y]),
        (lambda: sum_all(conv1d(x, w, b, stride=2)), [x, w, b]),
        (lambda: sum_all(transposed_conv1d(x, tw, stride=2)), [x, tw]),
        (lambda: sum_all(mul(prelu_norm(x, slope, gamma, beta), y)), [x, slope, gamma, beta]),
        (lambda: sum_all(mul(x, x)), [x]),
    ]
    for f, ps in checks:
        errs.append(grad_check(f, ps))

    # whole pipeline at toy size
    config = SeparationConfig(enc_bases=6, enc_kernel=6, enc_stride=3,
                              latent_channels=4, num_sources=2,
                              blocks=[BlockSpec(sub_blocks=1, iterations=2)],
                              sub_scales=2, sub_kernel=3)
    params = init_params(config, rng)
    params.blocks[0][0].proj.w.data[:] = rng.normal(size=params.blocks[0][0].proj.w.shape) * 0.1
    mix = rng.normal(size=48)
    refs = rng.normal(size=(2, 48))

    def full():
        ests, _ = run_model(mix, params, stage=0)
        return pit_loss(ests, refs, speech_count=2).loss

    leaves = [p for _, p in named_parameters(params)]
    errs.append(grad_check(full, leaves))

    # drawn last, so the test points above stay where they were
    z, dw, db = t((6, 7)), t((3, 1, 4), 0.5), t(1)  # z: a 6-channel latent over x's 7 samples

    uw, ub = t((2, 3, 5), 0.5), t(2)  # x's 7 samples doubled to 13 and 14
    for length in (13, 14):
        errs.append(grad_check(
            lambda n=length: sum_all(mul(upsample_conv1d(x, uw, ub, n),
                                         upsample_conv1d(x, uw, ub, n))), [x, uw, ub]))

    gw, gb = t((3, 2, 4), 0.5), t(2)  # stride 5 > K 4: zeros between the kernel copies
    for padding in ("same", "valid"):
        errs.append(grad_check(
            lambda p=padding: sum_all(mul(transposed_conv1d(x, gw, gb, stride=5, padding=p),
                                          transposed_conv1d(x, gw, gb, stride=5, padding=p))),
            [x, gw, gb]))

    prefs = rng.normal(size=(3, 7))  # PIT over 2 speech rows given swapped, and a noise row
    pests = Tensor(prefs[[1, 0, 2]] + 0.3 * rng.normal(size=(3, 7)), requires_grad=True)
    errs.append(grad_check(lambda: pit_loss(pests, prefs, speech_count=2).loss, [pests]))

    mw, mb = t((6, 6, 1), 0.5), t(6)  # the mask net: 2 sources' masks over x's 3 rows

    def decoded():
        out = masked_decode(z, mw, mb, x, dw, db, 3, 20)
        return sum_all(mul(out, out))

    errs.append(grad_check(decoded, [z, mw, mb, x, dw, db]))

    # the gate over x as a 3-channel latent of 7 samples, under fixed noise,
    # and the blend of y, as a block's output, with x by a leaf st
    gate = GateParams(proj1=ConvParams(t((2, 3, 1), 0.5), t(2)), slope=t(2, 0.3),
                      proj2=ConvParams(t((2, 2, 7), 0.5), t(2)))
    gumbel = rng.gumbel(size=(2, 1))
    errs.append(grad_check(lambda: _gate_soft(x, gate, gumbel)[0],
                           [x] + [p for _, p in gate_named_parameters(gate)]))
    st = t(())
    errs.append(grad_check(lambda: sum_all(mul(_blend(y, x, st), _blend(y, x, st))), [y, x, st]))
    return max(errs)


# ---------------------------------------------------------------------------
# Commands


def _train_adaptive(cfg: ExperimentConfig, splits):
    """Pretrain end to end, then fine-tune model and gate jointly."""
    rng = np.random.default_rng(cfg.train.seed)
    params = init_params(cfg.model, rng)
    gate = init_gate(cfg.model.latent_channels, _gate_latent_len(cfg), rng)
    ft_epochs = cfg.finetune.resolve_epochs(cfg.train.epochs)
    pre_cfg = dataclasses.replace(cfg.train, epochs=cfg.train.epochs - ft_epochs)
    ft_cfg = dataclasses.replace(
        cfg.train, epochs=ft_epochs, lr0=cfg.finetune.lr0,
        lr_decay_every=cfg.finetune.lr_decay_every,
        lr_decay_factor=cfg.finetune.lr_decay_factor,
    )
    pre_hist = train_end_to_end(params, splits.train, splits.val, pre_cfg, rng=rng)
    ft_hist = finetune_gate(params, gate, splits.train, splits.val, ft_cfg,
                            penalty_coef=cfg.finetune.penalty_coef,
                            penalty_target=cfg.finetune.penalty_target, rng=rng)
    records = [{**r, "phase": "pretrain"} for r in pre_hist]
    records += [{**r, "epoch": r["epoch"] + len(pre_hist), "phase": "finetune"} for r in ft_hist]
    return records, TrainedModel(params, cfg.mode, gate=gate)


def _cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    """Train in the regime ``cfg.mode`` names.  Writes history.jsonl and
    model.ckpt, and a progressive run also stage<i>.ckpt per stage.  The
    model is counted and accounted first, as ``eval`` does, so a config
    too large to build fails before any data is made."""
    _model_row(cfg, None)
    splits = build_splits(cfg.dataset, cfg.dataset.num_train, cfg.dataset.num_val)
    if cfg.mode == "progressive":
        results = train_progressive(cfg.model, splits.train, splits.val, cfg.train)
        records = [{**rec, "stage": res.stage} for res in results for rec in res.history]
        for res in results:
            model = TrainedModel(res.params, cfg.mode, res.stage)
            write_model(out / f"stage{res.stage}.ckpt", cfg, model)
    elif cfg.mode == "adaptive":
        records, model = _train_adaptive(cfg, splits)
    else:
        params = init_params(cfg.model, np.random.default_rng(cfg.train.seed))
        records = train_end_to_end(params, splits.train, splits.val, cfg.train)
        model = TrainedModel(params, cfg.mode)
    (out / "history.jsonl").write_text(
        "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    write_model(out / "model.ckpt", cfg, model)
    return 0


def _cmd_eval(cfg: ExperimentConfig, out: Path, passthrough: bool) -> int:
    model = None if passthrough else read_model(out / "model.ckpt", cfg)
    report = eval_model(cfg, model)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    text = render_table([report["row"]])
    if report["quartiles"]:
        text += "\n" + render_quartiles(report["quartiles"])
    (out / "report.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_report(out: Path) -> int:
    """Tabulate the row of every report.json under ``out`` into summary.txt;
    a file that cannot be read, decoded or rendered fails by its path first."""
    paths = sorted(out.glob("**/report.json"))
    if not paths:
        raise FileNotFoundError(f"no report.json found under {out}")
    rows = []
    for p in paths:
        try:
            row = json.loads(p.read_text())["row"]
            render_table([row])  # a row that cannot be rendered fails here, by its file
        except KeyError as e:
            raise ValueError(f"report file {p} has no key {e}") from e
        except (OSError, ValueError, TypeError, OverflowError, RecursionError) as e:
            raise ValueError(f"report file {p} is malformed: {e}") from e
        rows.append(row)
    text = render_table(rows)
    sys.stdout.write(text)
    (out / "summary.txt").write_text(text)
    return 0


def _cmd_gradcheck() -> int:
    err = gradcheck_suite()
    sys.stdout.write(f"max relative gradient error: {err:.3e} (tolerance {GRADCHECK_TOL:.0e})\n")
    return 0 if err < GRADCHECK_TOL else 1


def run(command: str, config_path=None, seed: int | None = None, out=None,
        passthrough: bool = False) -> int:
    """Execute one CLI command; raises on invalid input, returns exit code."""
    if command == "gradcheck":
        return _cmd_gradcheck()
    if command == "report" and config_path is None:
        return _cmd_report(Path(out))
    cfg = load_config(config_path)
    if seed is not None:
        if seed < 0:
            raise ValueError(f"--seed must be >= 0, got {seed}")
        cfg.train = dataclasses.replace(cfg.train, seed=seed)
        cfg.dataset = dataclasses.replace(cfg.dataset, seed=seed)
    # train reads the train and val splits, eval the test split: none may be empty
    for key in {"train": ("num_train", "num_val"), "eval": ("num_test",)}.get(command, ()):
        if getattr(cfg.dataset, key) == 0:
            raise ValueError(f"dataset.{key} is 0, but {command} needs at least one item")
    out_dir = Path(out) if out is not None else Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if command == "train":
        return _cmd_train(cfg, out_dir)
    if command == "eval":
        return _cmd_eval(cfg, out_dir, passthrough)
    if command == "report":
        return _cmd_report(out_dir)
    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latref",
        description="Iterative-refinement source separation experiments.",
    )
    parser.add_argument("command", choices=["train", "eval", "report", "gradcheck"],
                        help="train runs the regime the config's mode names")
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the training and dataset seeds")
    parser.add_argument("--out", default=None, help="override output_dir")
    parser.add_argument("--passthrough", action="store_true",
                        help="eval only: score the mixture itself as the estimate")
    args = parser.parse_args(argv)
    if args.command != "gradcheck" and args.command != "report" and args.config is None:
        parser.error(f"{args.command} requires --config")
    if args.command == "report" and args.config is None and args.out is None:
        parser.error("report needs --config or --out")
    try:
        return run(args.command, args.config, seed=args.seed, out=args.out,
                   passthrough=args.passthrough)
    except (ValueError, OSError, FloatingPointError, MemoryError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
