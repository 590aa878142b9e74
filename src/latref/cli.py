"""Experiment front door: config files, run orchestration, reports.

The config is one JSON file with nested sections (task, mode, model, train,
dataset, finetune, output_dir).  Parsing is strict: an unknown key anywhere
fails with its full path, so a typo cannot silently fall back to a default.
All artifacts (history, checkpoints, reports) are byte-deterministic for a
given config and seed; nothing embeds a timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import MixtureSpec, build_splits
from .diffcore import Tensor, conv1d, grad_check, mean_all, prelu, relu, softmax
from .diffcore import global_layer_norm, mul, sum_all, transposed_conv1d, upsample_nearest
from .gating import gate_from_arrays, gate_named_parameters, init_gate
from .losses import eval_speech_sisdri, pit_loss
from .sepmodel import (
    BlockSpec,
    LoadedCheckpoint,
    SeparationConfig,
    config_from_dict,
    config_to_dict,
    count_params,
    init_params,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    finetune_gate,
    memory_account,
    run_model,
    train_end_to_end,
    train_progressive,
)

GRADCHECK_TOL = 1e-4


@dataclass
class FinetuneConfig:
    """Joint gate fine-tune phase; its epochs come out of train.epochs."""

    epochs: int = 0  # 0 means one tenth of the total, at least 1
    lr0: float = 1e-4
    lr_decay_every: int = 5
    lr_decay_factor: float = 1.0 / 3.0
    penalty_coef: float = 0.75
    penalty_target: float = 3.0

    def resolve_epochs(self, total: int) -> int:
        ft = self.epochs if self.epochs > 0 else max(1, round(total / 10))
        if ft >= total:
            raise ValueError(
                f"finetune.epochs {ft} leaves no pretraining epochs out of train.epochs {total}"
            )
        return ft


@dataclass
class DataSection:
    spec: MixtureSpec
    num_train: int = 8
    num_val: int = 4
    num_test: int = 4


@dataclass
class ExperimentConfig:
    task: str = "separation"
    mode: str = "end_to_end"
    model: SeparationConfig = field(default_factory=SeparationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: DataSection = None
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    output_dir: str = "runs/exp"

    def __post_init__(self):
        if self.dataset is None:
            self.dataset = DataSection(spec=MixtureSpec(task=self.task))
        if self.mode not in ("end_to_end", "progressive", "adaptive"):
            raise ValueError(f"mode must be end_to_end, progressive or adaptive, got {self.mode!r}")
        if self.task != self.dataset.spec.task:
            raise ValueError(
                f"task {self.task!r} does not match dataset.task {self.dataset.spec.task!r}"
            )
        expected = 3 if self.task == "separation" else 2
        if self.model.num_sources != expected:
            raise ValueError(
                f"model.num_sources {self.model.num_sources} does not fit task {self.task!r} (needs {expected})"
            )
        chunk = self.train.chunk_len
        if self.mode == "adaptive" and chunk is not None:
            # the gate's second conv spans the dataset's latent length exactly
            got, want = self.model.latent_length(chunk), _gate_latent_len(self)
            if got != want:
                raise ValueError(
                    f"train.chunk_len {chunk} gives latent length {got}, but adaptive mode "
                    f"needs the dataset's latent length {want}"
                )


def _strict_section(d: dict, cls, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ValueError(f"unknown config key {path}.{sorted(unknown)[0]}")
    try:
        return cls(**d)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid config section {path}: {e}") from e


def config_from_mapping(d: dict) -> ExperimentConfig:
    top = {"task", "mode", "model", "train", "dataset", "finetune", "output_dir"}
    unknown = set(d) - top
    if unknown:
        raise ValueError(f"unknown config key {sorted(unknown)[0]}")
    task = d.get("task", "separation")
    kwargs = {"task": task, "mode": d.get("mode", "end_to_end"),
              "output_dir": d.get("output_dir", "runs/exp")}
    try:
        kwargs["model"] = config_from_dict(d.get("model", {}))
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid config section model: {e}") from e
    kwargs["train"] = _strict_section(d.get("train", {}), TrainConfig, "train")
    kwargs["finetune"] = _strict_section(d.get("finetune", {}), FinetuneConfig, "finetune")
    ds = dict(d.get("dataset", {}))
    counts = {k: ds.pop(k) for k in ("num_train", "num_val", "num_test") if k in ds}
    ds.setdefault("task", task)
    spec = _strict_section(ds, MixtureSpec, "dataset")
    kwargs["dataset"] = DataSection(spec=spec, **counts)
    return ExperimentConfig(**kwargs)


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    ds = dataclasses.asdict(cfg.dataset.spec)
    ds["speaker_snr_range"] = list(cfg.dataset.spec.speaker_snr_range)
    ds["noise_snr_range"] = list(cfg.dataset.spec.noise_snr_range)
    ds.update(num_train=cfg.dataset.num_train, num_val=cfg.dataset.num_val,
              num_test=cfg.dataset.num_test)
    return {
        "task": cfg.task,
        "mode": cfg.mode,
        "model": config_to_dict(cfg.model),
        "train": dataclasses.asdict(cfg.train),
        "dataset": ds,
        "finetune": dataclasses.asdict(cfg.finetune),
        "output_dir": cfg.output_dir,
    }


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    return config_from_mapping(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_mapping(cfg), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Artifacts


def write_history(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _splits(cfg: ExperimentConfig):
    ds = cfg.dataset
    return build_splits(ds.spec, ds.num_train, ds.num_val, ds.num_test)


def _gate_latent_len(cfg: ExperimentConfig) -> int:
    return cfg.model.latent_length(cfg.dataset.spec.num_samples)


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


def _model_row(cfg: ExperimentConfig, loaded: LoadedCheckpoint | None, mean_sisdri: float,
               mean_g) -> dict:
    """Report row of the checkpoint's model: its config, head count and mode.

    Passthrough (``loaded`` None) describes the config file's model.
    """
    if loaded is None:
        model, mode = cfg.model, cfg.mode
        stages = len(model.blocks) if mode == "progressive" else 1
    else:
        model, mode, stages = loaded.config, loaded.meta["mode"], len(loaded.params.mask_nets)
    counts = count_params(model, stages=stages)
    mem = memory_account(model, batch_size=1, T=cfg.dataset.spec.num_samples,
                         stage=None if mode != "progressive" else len(model.blocks) - 1)
    return {
        "blocks": len(model.blocks),
        "sub_blocks": model.blocks[0].sub_blocks,
        "iters": [bs.iterations for bs in model.blocks],
        "params": counts.total,
        "memory_bytes": mem.total_bytes,
        "mean_sisdri": mean_sisdri,
        "mean_g": mean_g,
        "mode": mode,
        "task": cfg.task,
    }


def eval_model(cfg: ExperimentConfig, loaded: LoadedCheckpoint | None) -> dict:
    """Score the test split; returns the full report mapping.

    A checkpoint runs with the head, depth and gate stored in it, and the
    report row describes its config.  ``None`` scores the mixture itself as
    every estimate (passthrough).
    """
    splits = _splits(cfg)
    if loaded is not None:
        meta = loaded.meta
        gate = gate_from_arrays(loaded.extra_tensors) if meta.get("mode") == "adaptive" else None
        stage, depth = meta.get("stage", 0), meta.get("depth")
    per_sample = []
    for sample in splits.test:
        if loaded is None:
            ests, g = np.tile(sample.mixture, (sample.sources.shape[0], 1)), None
        else:
            out, g = run_model(sample.mixture, loaded.params, stage=stage, depth=depth, gate=gate)
            ests = out.data
        sisdri = eval_speech_sisdri(ests, sample.sources, sample.mixture, sample.speech_count)
        per_sample.append({
            "snr_db": sample.metadata["noise_snr_db"],
            "sisdri": sisdri,
            "g": g,
        })
    mean_sisdri = float(np.mean([r["sisdri"] for r in per_sample]))
    gs = [r["g"] for r in per_sample if r["g"] is not None]
    mean_g = float(np.mean(gs)) if gs else None
    report = {
        "row": _model_row(cfg, loaded, mean_sisdri, mean_g),
        "per_sample": per_sample,
        "quartiles": quartile_analysis(
            [(r["snr_db"], r["sisdri"], r["g"]) for r in per_sample]
        ) if len(per_sample) >= 4 else [],
        "passthrough": loaded is None,
    }
    return report


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
        (lambda: mean_all(mul(x + y, x - y)), [x, y]),
        (lambda: mean_all(relu(x) + prelu(x, slope)), [x, slope]),
        (lambda: mean_all(softmax(x, axis=0) * y), [x, y]),
        (lambda: mean_all(conv1d(x, w, b, stride=2)), [x, w, b]),
        (lambda: mean_all(transposed_conv1d(x, tw, stride=2)), [x, tw]),
        (lambda: mean_all(mul(global_layer_norm(x, gamma, beta), y)), [x, gamma, beta]),
        (lambda: mean_all(mul(upsample_nearest(x, 16), upsample_nearest(y, 16))), [x, y]),
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
    return max(errs)


# ---------------------------------------------------------------------------
# Commands


def _cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    splits = _splits(cfg)
    params = init_params(cfg.model, np.random.default_rng(cfg.train.seed))
    history = train_end_to_end(params, splits.train, splits.val, cfg.train)
    write_history(out / "history.jsonl", history)
    save_checkpoint(out / "model.ckpt", params, meta={"mode": cfg.mode, "task": cfg.task})
    return 0


def _cmd_train_progressive(cfg: ExperimentConfig, out: Path) -> int:
    splits = _splits(cfg)
    results = train_progressive(cfg.model, splits.train, splits.val, cfg.train)
    all_records = []
    for res in results:
        for rec in res.history:
            all_records.append({**rec, "stage": res.stage})
        save_checkpoint(out / f"stage{res.stage}.ckpt", res.params,
                        meta={"mode": cfg.mode, "task": cfg.task, "stage": res.stage,
                              "depth": res.depth})
    write_history(out / "history.jsonl", all_records)
    save_checkpoint(out / "model.ckpt", results[-1].params,
                    meta={"mode": cfg.mode, "task": cfg.task, "stage": results[-1].stage,
                          "depth": results[-1].depth})
    return 0


def _cmd_finetune_gate(cfg: ExperimentConfig, out: Path) -> int:
    splits = _splits(cfg)
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
    write_history(out / "history.jsonl", records)
    extras = {name: t.data for name, t in gate_named_parameters(gate)}
    save_checkpoint(out / "model.ckpt", params, extra_tensors=extras,
                    meta={"mode": "adaptive", "task": cfg.task})
    return 0


def _cmd_eval(cfg: ExperimentConfig, out: Path, passthrough: bool) -> int:
    loaded = None
    if not passthrough:
        ckpt_path = out / "model.ckpt"
        if not ckpt_path.exists():
            raise FileNotFoundError(f"no checkpoint at {ckpt_path}; train first or pass --passthrough")
        loaded = load_checkpoint(ckpt_path)
        want, got = config_to_dict(cfg.model), config_to_dict(loaded.config)
        for key in sorted(want):
            if want[key] != got[key]:
                raise ValueError(f"checkpoint {ckpt_path} has model.{key} = {got[key]!r}, "
                                 f"but the config has {want[key]!r}")
    report = eval_model(cfg, loaded)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    text = render_table([report["row"]])
    if report["quartiles"]:
        text += "\n" + render_quartiles(report["quartiles"])
    (out / "report.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_report(out: Path) -> int:
    paths = sorted(out.glob("**/report.json"))
    if not paths:
        raise FileNotFoundError(f"no report.json found under {out}")
    rows = [json.loads(p.read_text())["row"] for p in paths]
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
        cfg.train = dataclasses.replace(cfg.train, seed=seed)
        cfg.dataset.spec = dataclasses.replace(cfg.dataset.spec, seed=seed)
    out_dir = Path(out) if out is not None else Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if command == "train":
        return _cmd_train(cfg, out_dir)
    if command == "train-progressive":
        return _cmd_train_progressive(cfg, out_dir)
    if command == "finetune-gate":
        return _cmd_finetune_gate(cfg, out_dir)
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
    parser.add_argument("command",
                        choices=["train", "train-progressive", "finetune-gate",
                                 "eval", "report", "gradcheck"])
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
    except (ValueError, FileNotFoundError, FloatingPointError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
