import contextlib
import copy
import dataclasses
import functools
import io
import json
import re
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latref import cli, data
from latref.cli import (
    DataSection,
    ExperimentConfig,
    FinetuneConfig,
    config_from_mapping,
    gradcheck_suite,
    load_config,
    main,
    quartile_analysis,
    read_model,
    render_table,
    run,
)
from latref.data import build_splits
from latref.gating import gate_named_parameters, init_gate
from latref.sepmodel import BlockSpec, SeparationConfig, count_params, init_params, load_checkpoint
from latref.sepmodel import named_parameters, save_checkpoint
from latref.training import TrainConfig, evaluate, memory_account


def tiny_mapping(tmp_path, mode="end_to_end", task="separation", **over):
    m = {
        "task": task,
        "mode": mode,
        "model": {
            "enc_bases": 12, "enc_kernel": 8, "enc_stride": 4,
            "latent_channels": 6, "num_sources": 3 if task == "separation" else 2,
            "blocks": [{"sub_blocks": 1, "iterations": 1}],
            "sub_scales": 2, "sub_kernel": 3,
        },
        # adaptive mode spends one epoch on the gate and needs one before it
        "train": {"epochs": 2 if mode == "adaptive" else 1, "batch_size": 2, "seed": 0},
        "dataset": {"duration": 0.05, "task": task, "seed": 0,
                    "num_train": 2, "num_val": 2, "num_test": 4},
        "output_dir": str(tmp_path / "out"),
    }
    m.update(over)
    return m


def write_config(tmp_path, mapping):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_fill_in():
    cfg = config_from_mapping({"task": "separation"})
    assert cfg.mode == "end_to_end"
    assert cfg.train.epochs == 200
    assert cfg.dataset.sample_rate == 8000
    assert cfg.dataset.num_train == 8


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="outputdir"):
        config_from_mapping({"outputdir": "x"})


def test_unknown_nested_key_names_path(tmp_path):
    m = tiny_mapping(tmp_path)
    m["train"]["learning_rate"] = 0.1
    with pytest.raises(ValueError, match="train.learning_rate"):
        config_from_mapping(m)


def test_unknown_model_key_rejected(tmp_path):
    m = tiny_mapping(tmp_path)
    m["model"]["enc_basez"] = 3
    with pytest.raises(ValueError, match="enc_basez"):
        config_from_mapping(m)


def test_unknown_dataset_key_rejected(tmp_path):
    m = tiny_mapping(tmp_path)
    m["dataset"]["sample_rte"] = 4000
    with pytest.raises(ValueError, match="dataset.sample_rte"):
        config_from_mapping(m)


def test_task_model_mismatch_rejected(tmp_path):
    m = tiny_mapping(tmp_path, task="enhancement")
    m["model"]["num_sources"] = 3
    with pytest.raises(ValueError, match="num_sources"):
        config_from_mapping(m)


def test_bad_mode_rejected(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        config_from_mapping(tiny_mapping(tmp_path, mode="sideways"))


def test_adaptive_chunk_len_must_keep_latent_length(tmp_path):
    m = tiny_mapping(tmp_path, mode="adaptive")  # 400 samples, stride 4: latent length 100
    m["train"]["chunk_len"] = 80
    with pytest.raises(ValueError, match="chunk_len 80 gives latent length 20.*100"):
        config_from_mapping(m)
    m["train"]["chunk_len"] = 397
    assert config_from_mapping(m).train.chunk_len == 397
    config_from_mapping(tiny_mapping(tmp_path, train={"chunk_len": 80}))


@pytest.mark.parametrize("train,finetune", [(1, None), (3, 3), (4, 5)])
def test_adaptive_finetune_epochs_rejected_before_building_data(
        tmp_path, monkeypatch, capsys, train, finetune):
    m = tiny_mapping(tmp_path, mode="adaptive")
    m["train"]["epochs"] = train
    if finetune is not None:
        m["finetune"] = {"epochs": finetune}
    path = write_config(tmp_path, m)

    def no_data(*args, **kwargs):
        raise AssertionError("train built the dataset before checking the config")

    monkeypatch.setattr(cli, "build_splits", no_data)
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"finetune.epochs {finetune or 1} leaves no pretraining epochs out of " \
           f"train.epochs {train}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,message", [
    ("epochs", -3, "epochs must be >= 0, got -3"),
    ("lr0", -1, "lr0 must be positive, got -1"),
    ("lr_decay_every", 0, "lr_decay_every must be >= 1, got 0"),
    ("lr_decay_factor", 0.0, "lr_decay_factor must be positive, got 0.0"),
    ("penalty_coef", -0.5, "penalty_coef must be >= 0, got -0.5"),
])
def test_bad_finetune_value_rejected_before_building_data(
        tmp_path, monkeypatch, capsys, key, value, message):
    m = tiny_mapping(tmp_path, mode="adaptive")
    m["finetune"] = {key: value}
    path = write_config(tmp_path, m)

    def no_data(*args, **kwargs):
        raise AssertionError("train built the dataset before checking the config")

    monkeypatch.setattr(cli, "build_splits", no_data)
    assert main(["train", "--config", path]) == 2
    assert f"invalid config section finetune: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path,value", [
    (("model", "enc_bases"), 12.0),
    (("model", "enc_kernel"), 8.0),
    (("model", "enc_stride"), True),
    (("model", "latent_channels"), 6.0),
    (("model", "num_sources"), 3.0),
    (("model", "sub_scales"), 2.0),
    (("model", "sub_kernel"), True),
    (("model", "blocks", 0, "sub_blocks"), 1.5),
    (("model", "blocks", 0, "iterations"), True),
    (("model", "blocks", 0, "shares_params_with"), False),
    (("train", "epochs"), 1.5),
    (("train", "batch_size"), 2.0),
    (("train", "lr_decay_every"), 40.0),
    (("train", "seed"), 0.5),
    (("train", "chunk_len"), 40.0),
    (("train", "augment"), "no"),
    (("finetune", "epochs"), 1.5),
    (("finetune", "lr_decay_every"), True),
    (("dataset", "sample_rate"), 8000.0),
    (("dataset", "seed"), True),
    (("dataset", "num_train"), 2.0),
    (("dataset", "num_val"), True),
    (("dataset", "num_test"), 4.0),
    (("dataset", "duration"), True),
    (("train", "lr0"), True),
    (("train", "clip_norm"), "5"),
    (("train", "lr_decay_factor"), True),
    (("finetune", "penalty_coef"), "0.75"),
    (("finetune", "penalty_target"), True),
    (("train", "lr0"), float("nan")),
    (("train", "clip_norm"), float("nan")),
    (("train", "lr_decay_factor"), float("inf")),
    (("finetune", "lr0"), float("nan")),
    (("finetune", "penalty_target"), float("-inf")),
    (("dataset", "duration"), float("nan")),
    (("dataset", "speaker_snr_range"), ["1", True]),
    (("dataset", "noise_snr_range"), [0, float("nan")]),
    (("dataset", "speaker_snr_range"), [0, 1, 2]),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
def test_wrongly_typed_config_value_rejected(tmp_path, path, value):
    m = tiny_mapping(tmp_path)
    section = m.setdefault(path[0], {})
    for key in path[1:-1]:
        section = section[key]
    section[path[-1]] = value
    # the key as the message names it: model.blocks[0].sub_blocks -> "model: blocks[0].sub_blocks"
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:]).lstrip(".")
    with pytest.raises(ValueError, match=re.escape(f"invalid config section {path[0]}: {field} must be")):
        load_config(write_config(tmp_path, m))


@pytest.mark.parametrize("section,value,message", [
    (("train",), 5, "config section train must be an object, got 5"),
    (("dataset",), 5, "config section dataset must be an object, got 5"),
    (("finetune",), [], "config section finetune must be an object, got []"),
    (("model",), 5, "config section model must be an object, got 5"),
    (("model", "blocks"), 5, "config section model.blocks must be a list, got 5"),
    (("model", "blocks"), [{}, 7], "config section model.blocks[1] must be an object, got 7"),
    (("model", "enc_basez"), 3, "unknown config key model.enc_basez"),
    (("model", "blocks"), [{"x": 1}], "unknown config key model.blocks[0].x"),
    (("train", "seed"), -1, "invalid config section train: seed must be >= 0, got -1"),
    (("output_dir",), 5, "output_dir must be a string, got 5"),
    (("output_dir",), None, "output_dir must be a string, got None"),
], ids=["train", "dataset", "finetune", "model", "blocks", "block", "model_key", "block_key",
        "train_seed", "output_dir_int", "output_dir_null"])
def test_malformed_section_fails_by_its_path_before_building_data(
        tmp_path, monkeypatch, capsys, section, value, message):
    m = tiny_mapping(tmp_path)
    parent = m
    for key in section[:-1]:
        parent = parent[key]
    parent[section[-1]] = value
    path = write_config(tmp_path, m)

    def no_data(*args, **kwargs):
        raise AssertionError("train built the dataset before checking the config")

    monkeypatch.setattr(cli, "build_splits", no_data)
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _build_with(cls, name, value):
    """``cls`` built with field ``name`` set to ``value``; a block through the
    model config, which checks its blocks."""
    if cls is BlockSpec:
        return SeparationConfig(blocks=[BlockSpec(**{name: value})])
    return cls(**{name: value})


# every field but the sections and block lists, which check themselves
_CONFIG_FIELDS = [(cls, name) for cls in (ExperimentConfig, TrainConfig, FinetuneConfig, DataSection,
                                          SeparationConfig, BlockSpec)
                  for name, value in vars(cls()).items()
                  if not (dataclasses.is_dataclass(value) or isinstance(value, list))]


@pytest.mark.parametrize("cls,name", _CONFIG_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_every_config_field_is_checked(cls, name):
    with pytest.raises(ValueError, match=rf"(^|\.){name} must be .*, got <object object"):
        _build_with(cls, name, object())


def test_check_fields_refuses_an_annotation_it_cannot_check():
    @dataclasses.dataclass
    class Odd:
        n: int = 1
        z: complex | None = None  # None must not let an unknown kind pass

    with pytest.raises(TypeError, match="z has annotation"):
        data.check_fields(Odd())


def test_readme_complete_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A complete config:\n\n```json\n(.*?)```", readme, re.S).group(1)
    cfg = config_from_mapping(json.loads(block))
    assert (cfg.mode, cfg.dataset.num_train, cfg.finetune.epochs) == ("end_to_end", 16, 10)


@pytest.mark.parametrize("key", ["num_train", "num_val", "num_test"])
def test_negative_split_count_rejected(tmp_path, key):
    m = tiny_mapping(tmp_path)
    m["dataset"][key] = -2
    with pytest.raises(ValueError, match=f"invalid config section dataset: {key} must be >= 0, got -2"):
        config_from_mapping(m)


@pytest.mark.parametrize("command,key", [("train", "num_train"), ("train", "num_val"),
                                         ("eval", "num_test")])
def test_empty_split_rejected_before_building_data(tmp_path, monkeypatch, capsys, command, key):
    m = tiny_mapping(tmp_path)
    m["dataset"][key] = 0
    path = write_config(tmp_path, m)

    def no_data(*args, **kwargs):
        raise AssertionError(f"{command} built data before checking the split counts")

    monkeypatch.setattr(cli, "build_splits", no_data)
    monkeypatch.setattr(cli, "make_dataset", no_data)
    argv = [command, "--config", path] + (["--passthrough"] if command == "eval" else [])
    assert main(argv) == 2
    assert f"error: dataset.{key} is 0, but {command} needs at least one item" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epochs, shares, cause", [
    (1, None, "2 progressive stages need at least 2 epochs, got 1"),
    (2, 0, "progressive training needs distinct block parameters; block 1 aliases 0"),
], ids=["fewer_epochs_than_stages", "shared_block"])
def test_untrainable_progressive_config_rejected_before_building_data(
        tmp_path, monkeypatch, capsys, epochs, shares, cause):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 1, "shares_params_with": shares}]
    m["train"]["epochs"] = epochs
    path = write_config(tmp_path, m)

    def no_data(*args, **kwargs):
        raise AssertionError("train built data before checking the progressive stages")

    monkeypatch.setattr(cli, "build_splits", no_data)
    monkeypatch.setattr(cli, "make_dataset", no_data)
    assert main(["train", "--config", path]) == 2
    assert f"error: {cause}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numpy_integer_config_values_are_stored_as_ints(tmp_path):
    m = tiny_mapping(tmp_path)
    m["train"]["epochs"] = np.int64(3)
    m["model"]["blocks"] = [{"sub_blocks": np.int32(1), "iterations": np.int64(2)}]
    cfg = config_from_mapping(m)
    assert type(cfg.train.epochs) is int and cfg.train.epochs == 3
    assert [type(v) for v in (cfg.model.blocks[0].sub_blocks, cfg.model.blocks[0].iterations)] == [int, int]


def test_missing_config_file():
    with pytest.raises(FileNotFoundError, match="nope.json"):
        load_config("nope.json")


def _no_data(*args, **kwargs):
    raise AssertionError("train built the dataset before checking its paths")


def test_config_directory_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_splits", _no_data)
    assert main(["train", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_undecodable_config_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
    monkeypatch.setattr(cli, "build_splits", _no_data)
    assert main(["train", "--config", str(path)]) == 2
    assert f"error: config file {path} is not valid JSON: 'utf-8' codec" in capsys.readouterr().err


def test_out_that_is_a_file_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "build_splits", _no_data)
    assert main(["train", "--config", path, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(path)


_TOO_DEEP = "[" * 10**5 + "]" * 10**5  # 200 kB that json's decoder cannot nest


def test_too_deeply_nested_config_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_TOO_DEEP)
    monkeypatch.setattr(cli, "build_splits", _no_data)
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON: maximum recursion"), err


@pytest.mark.parametrize("section, key", [("train", "lr0"), ("dataset", "duration"),
                                          ("finetune", "penalty_coef")])
def test_float_field_past_float_range_exits_2_naming_it(tmp_path, monkeypatch, capsys, section, key):
    # 10**400 is an integer, which a float field takes, but no float holds it
    m = tiny_mapping(tmp_path, mode="adaptive")
    m.setdefault(section, {})[key] = 10**400
    monkeypatch.setattr(cli, "build_splits", _no_data)
    assert main(["train", "--config", write_config(tmp_path, m)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid config section {section}: {key} must be a finite "
                          f"number, got 1000"), err


def test_sample_rate_past_float_range_exits_2_naming_its_section(tmp_path, monkeypatch, capsys):
    m = tiny_mapping(tmp_path)
    m["dataset"]["sample_rate"] = 10**400
    monkeypatch.setattr(cli, "build_splits", _no_data)
    assert main(["train", "--config", write_config(tmp_path, m)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config section dataset: duration 0.05s at 1000"), err
    assert err.rstrip().endswith("Hz is not a whole sample count"), err


def test_finetune_epochs_default_to_a_tenth_of_any_total(tmp_path):
    # half a tenth rounds to even, as round(total / 10) does, and a total
    # past float range still gets its tenth
    ft = FinetuneConfig()
    assert [ft.resolve_epochs(t) for t in (2, 9, 14, 15, 25, 26, 35, 200)] == [1, 1, 1, 2, 2, 3, 4, 20]
    m = tiny_mapping(tmp_path, mode="adaptive")
    m["train"]["epochs"] = 10**400
    assert config_from_mapping(m).finetune.resolve_epochs(10**400) == 10**399


# ---------------------------------------------------------------------------
# quartiles


def test_quartile_even_split():
    rows = [(float(s), 1.0, 4) for s in range(8)]
    bins = quartile_analysis(rows)
    assert [b["count"] for b in bins] == [2, 2, 2, 2]
    assert [b["mean_snr"] for b in bins] == [0.5, 2.5, 4.5, 6.5]
    assert all(b["mean_g"] == 4.0 for b in bins)


def test_quartile_hand_computed():
    rows = [(3.0, 10.0, 1), (-1.0, 8.0, 4), (0.5, 6.0, 2), (2.0, 4.0, 3),
            (5.0, 2.0, 1), (-2.0, 12.0, 4), (1.0, 9.0, 2), (4.0, 7.0, 2)]
    bins = quartile_analysis(rows)
    # sorted snr order: -2, -1, 0.5, 1, 2, 3, 4, 5
    assert bins[0]["mean_snr"] == pytest.approx(-1.5)
    assert bins[0]["mean_sisdri"] == pytest.approx(10.0)
    assert bins[0]["mean_g"] == pytest.approx(4.0)
    assert bins[3]["mean_snr"] == pytest.approx(4.5)
    assert bins[3]["mean_sisdri"] == pytest.approx(4.5)
    assert bins[3]["mean_g"] == pytest.approx(1.5)


def test_quartile_uneven_sizes():
    rows = [(float(s), 0.0, None) for s in range(6)]
    bins = quartile_analysis(rows)
    assert [b["count"] for b in bins] == [2, 2, 1, 1]
    assert all(b["mean_g"] is None for b in bins)


def test_quartile_tie_break_by_index():
    rows = [(1.0, 10.0, 1), (1.0, 20.0, 2), (1.0, 30.0, 3), (1.0, 40.0, 4)]
    bins = quartile_analysis(rows)
    assert [b["mean_sisdri"] for b in bins] == [10.0, 20.0, 30.0, 40.0]


def test_quartile_too_few():
    with pytest.raises(ValueError, match="at least 4"):
        quartile_analysis([(0.0, 0.0, None)] * 3)


# ---------------------------------------------------------------------------
# commands


def test_train_writes_artifacts(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    assert run("train", path) == 0
    out = tmp_path / "out"
    assert (out / "model.ckpt").exists()
    lines = (out / "history.jsonl").read_text().strip().split("\n")
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert set(rec) >= {"epoch", "lr", "train_loss", "val_sisdri"}


def test_train_byte_identical_reruns(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    run("train", path, out=str(tmp_path / "a"))
    run("train", path, out=str(tmp_path / "b"))
    for name in ("model.ckpt", "history.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_artifacts(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    run("train", path, out=str(tmp_path / "a"))
    run("train", path, seed=99, out=str(tmp_path / "b"))
    assert (tmp_path / "a" / "model.ckpt").read_bytes() != (tmp_path / "b" / "model.ckpt").read_bytes()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_seed_override_names_the_flag_before_building_data(
        tmp_path, monkeypatch, capsys, command):
    path = write_config(tmp_path, tiny_mapping(tmp_path))

    def no_data(*args, **kwargs):
        raise AssertionError(f"{command} built data before checking --seed")

    monkeypatch.setattr(cli, "build_splits", no_data)
    monkeypatch.setattr(cli, "make_dataset", no_data)
    argv = [command, "--config", path, "--seed", "-1"]
    assert main(argv + (["--passthrough"] if command == "eval" else [])) == 2
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_passthrough_is_zero_db(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    assert run("eval", path, passthrough=True) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["row"]["mean_sisdri"] == pytest.approx(0.0, abs=1e-9)
    assert len(report["per_sample"]) == 4


def test_eval_needs_checkpoint(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    with pytest.raises(FileNotFoundError, match="model.ckpt"):
        run("eval", path)


def test_eval_after_train(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    run("train", path)
    assert run("eval", path) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    mean = np.mean([r["sisdri"] for r in report["per_sample"]])
    assert report["row"]["mean_sisdri"] == pytest.approx(mean, abs=1e-9)
    assert (tmp_path / "out" / "report.txt").exists()
    assert len(report["quartiles"]) == 4


def test_progressive_command_writes_stages(tmp_path):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 1}]
    m["train"]["epochs"] = 2
    path = write_config(tmp_path, m)
    assert run("train", path) == 0
    out = tmp_path / "out"
    assert (out / "stage0.ckpt").exists()
    assert (out / "stage1.ckpt").exists()
    stages = [json.loads(l)["stage"] for l in (out / "history.jsonl").read_text().strip().split("\n")]
    assert stages == [0, 1]


def test_progressive_eval_runs_stored_head_and_depth(tmp_path):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 1}]
    m["train"]["epochs"] = 2
    path = write_config(tmp_path, m)
    run("train", path)
    assert run("eval", path) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    loaded = load_checkpoint(tmp_path / "out" / "model.ckpt")
    assert (loaded.meta["stage"], loaded.meta["depth"]) == (1, 2)
    cfg = load_config(path)
    ds = cfg.dataset
    test = build_splits(ds, ds.num_train, ds.num_val, ds.num_test).test
    scores, _ = evaluate(read_model(tmp_path / "out" / "model.ckpt", cfg).params, test, stage=1)
    assert report["row"]["mean_sisdri"] == float(np.mean(scores))
    assert [r["sisdri"] for r in report["per_sample"]] == scores
    assert report["row"]["blocks"] == 2


def test_eval_row_describes_checkpoint_not_config_mode(tmp_path):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 1}]
    m["train"]["epochs"] = 2
    run("train", write_config(tmp_path, m))
    m["mode"] = "end_to_end"
    path = write_config(tmp_path, m)
    assert run("eval", path) == 0
    row = json.loads((tmp_path / "out" / "report.json").read_text())["row"]
    loaded = load_checkpoint(tmp_path / "out" / "model.ckpt")
    assert row["mode"] == "progressive"
    assert row["params"] == count_params(loaded.config, stages=2)
    T = load_config(path).dataset.num_samples
    assert row["memory_bytes"] == memory_account(loaded.config, 1, T, stage=1).total_bytes


def test_eval_row_of_a_stage_snapshot_accounts_its_own_stage(tmp_path):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 2}]
    m["train"]["epochs"] = 2
    path = write_config(tmp_path, m)
    run("train", path)
    out = tmp_path / "out"
    (out / "model.ckpt").write_bytes((out / "stage0.ckpt").read_bytes())
    assert run("eval", path) == 0
    row = json.loads((out / "report.json").read_text())["row"]
    cfg = load_config(path)
    T = cfg.dataset.num_samples
    assert row["memory_bytes"] == memory_account(cfg.model, 1, T, stage=0).total_bytes
    # stage 0 trains the encoder too: its optimizer state outweighs stage 1's
    # higher sweep peak, which carries the two arrays a frozen prefix hands over
    assert row["memory_bytes"] > memory_account(cfg.model, 1, T, stage=1).total_bytes


def test_train_on_progressive_config_trains_every_stage(tmp_path):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 2}]
    m["train"]["epochs"] = 2
    path = write_config(tmp_path, m)
    assert main(["train", "--config", path]) == 0
    assert main(["eval", "--config", path]) == 0
    row = json.loads((tmp_path / "out" / "report.json").read_text())["row"]
    cfg = load_config(path)
    assert row["mode"] == "progressive"
    assert row["params"] == count_params(cfg.model, stages=2)
    T = cfg.dataset.num_samples
    assert row["memory_bytes"] == memory_account(cfg.model, 1, T, stage=1).total_bytes
    assert load_checkpoint(tmp_path / "out" / "model.ckpt").meta == {
        "mode": "progressive", "task": "separation", "stage": 1, "depth": 3}


def _write_checkpoint(tmp_path, mode, meta, extras=None, heads=1):
    """A config of ``mode`` with one block of one iteration per head pair,
    or, for ``heads`` a (blocks, heads) pair, with that many blocks, and a
    model.ckpt of its model with the given meta and extra tensors; returns
    the config path."""
    blocks, heads = heads if isinstance(heads, tuple) else (heads, heads)
    m = tiny_mapping(tmp_path, mode=mode)
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1}] * blocks
    m["train"]["epochs"] = max(blocks, m["train"]["epochs"])  # an epoch per progressive stage
    path = write_config(tmp_path, m)
    params = init_params(load_config(path).model, np.random.default_rng(0), stages=heads)
    (tmp_path / "out").mkdir()
    save_checkpoint(tmp_path / "out" / "model.ckpt", params, extra_tensors=extras, meta=meta)
    return path


def _gate_arrays(latent_len):
    # tiny_mapping's model has 6 latent channels; its dataset's latent length is 100
    return {n: t.data for n, t in gate_named_parameters(
        init_gate(6, latent_len, np.random.default_rng(1)))}


_BAD_CHECKPOINTS = {
    "no_mode": ("end_to_end", {"task": "separation"}, None, 1, "no meta.mode"),
    "unknown_mode": ("end_to_end", {"mode": "sideways"}, None, 1, "meta.mode 'sideways'"),
    "unknown_tensor": ("end_to_end", {"mode": "end_to_end"}, {"typo.w": np.zeros(3)}, 1,
                       r"model\.ckpt tensors unknown: \['typo\.w'\]"),
    "gate_without_adaptive": ("end_to_end", {"mode": "end_to_end"}, _gate_arrays(100), 1,
                              r"model\.ckpt tensors unknown: \['gate\.proj1\.b', 'gate\.proj1\.w'"),
    "adaptive_without_gate": ("adaptive", {"mode": "adaptive"}, None, 1,
                              r"model\.ckpt tensors missing: \['gate\.proj1\.b', 'gate\.proj1\.w'"),
    "gate_span": ("adaptive", {"mode": "adaptive"}, _gate_arrays(50), 1,
                  r"model\.ckpt tensor gate\.proj2\.w of shape \(2, 2, 50\), expected \(2, 2, 100\)"),
    "progressive_no_depth": ("progressive", {"mode": "progressive", "stage": 0}, None, 1,
                             "no meta.depth"),
    "progressive_depth": ("progressive", {"mode": "progressive", "stage": 0, "depth": 5}, None, 1,
                          r"meta.depth 5, not in range\(1, 2\)"),
    "progressive_stage_depth": ("progressive", {"mode": "progressive", "stage": 0, "depth": 2},
                                None, 2, r"meta.depth 2, not in range\(1, 2\)"),
    "progressive_stage": ("progressive", {"mode": "progressive", "stage": 2, "depth": 1}, None, 2,
                          r"meta.stage 2, not in range\(0, 2\)"),
    "progressive_bool": ("progressive", {"mode": "progressive", "stage": True, "depth": True},
                         None, 2, "meta.stage True, not an integer"),
    "progressive_float": ("progressive", {"mode": "progressive", "stage": 0, "depth": 1.0},
                          None, 1, "meta.depth 1.0, not an integer"),
    # training writes one head pair per progressive stage and one in any other mode
    "end_to_end_heads": ("end_to_end", {"mode": "end_to_end"}, None, (1, 3),
                         "3 head pairs, but end_to_end training of this config writes 1"),
    "adaptive_heads": ("adaptive", {"mode": "adaptive"}, _gate_arrays(100), (1, 2),
                       "2 head pairs, but adaptive training of this config writes 1"),
    "progressive_heads": ("progressive", {"mode": "progressive", "stage": 1, "depth": 2}, None,
                          (2, 3), "3 head pairs, but progressive training of this config writes 2"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINTS))
def test_eval_rejects_bad_checkpoint_before_building_data(tmp_path, monkeypatch, capsys, case):
    mode, meta, extras, heads, cause = _BAD_CHECKPOINTS[case]
    path = _write_checkpoint(tmp_path, mode, meta, extras, heads)

    def no_data(*args, **kwargs):
        raise AssertionError("eval built the dataset before checking the checkpoint")

    monkeypatch.setattr(data, "build_splits", no_data)
    monkeypatch.setattr(cli, "build_splits", no_data)
    assert main(["eval", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and "model.ckpt" in err
    assert re.search(cause, err), err
    assert not (tmp_path / "out" / "report.json").exists()


def test_end_to_end_checkpoint_ignores_progressive_meta(tmp_path):
    # only a progressive checkpoint's stage and depth pick the head and depth it runs
    path = _write_checkpoint(tmp_path, "end_to_end", {"mode": "end_to_end"})
    assert run("eval", path) == 0
    plain = (tmp_path / "out" / "report.json").read_bytes()
    model = read_model(tmp_path / "out" / "model.ckpt", load_config(path))
    save_checkpoint(tmp_path / "out" / "model.ckpt", model.params,
                    meta={"mode": "end_to_end", "stage": 0, "depth": 1})
    assert run("eval", path) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == plain


def test_eval_rejects_a_stage_past_the_config_blocks(tmp_path, monkeypatch, capsys):
    # three head pairs over one block: stage 2 has a head but no block
    path = _write_checkpoint(tmp_path, "progressive", {})
    params = init_params(load_config(path).model, np.random.default_rng(0), stages=3)
    save_checkpoint(tmp_path / "out" / "model.ckpt", params,
                    meta={"mode": "progressive", "stage": 2, "depth": 1})

    def no_data(*args, **kwargs):
        raise AssertionError("eval built the dataset before checking the checkpoint")

    monkeypatch.setattr(cli, "make_dataset", no_data)
    assert main(["eval", "--config", path]) == 2
    assert re.search(r"model\.ckpt has meta\.stage 2, not in range\(0, 1\)", capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train-progressive", "finetune-gate"])
def test_removed_subcommands_are_usage_errors(tmp_path, capsys, command):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_checkpoint_of_other_model(tmp_path, capsys):
    m = tiny_mapping(tmp_path)
    run("train", write_config(tmp_path, m))
    m["model"]["latent_channels"] = 5
    path = write_config(tmp_path, m)
    with pytest.raises(ValueError, match="model.latent_channels = 6.*5"):
        run("eval", path)
    assert not (tmp_path / "out" / "report.json").exists()
    assert main(["eval", "--config", path]) == 2
    assert "latent_channels" in capsys.readouterr().err


def _write_toy_model(root: Path, mode: str, blocks: list, seed: int):
    """A two-epoch config of ``mode`` over ``blocks`` and, as training of it
    would write them, a freshly drawn model (and gate) in ``root``/model.ckpt;
    returns the config, the model and the checkpoint's path."""
    m = tiny_mapping(root, mode=mode)
    m["model"]["blocks"] = blocks
    m["train"]["epochs"] = 2
    cfg = load_config(write_config(root, m))
    rng = np.random.default_rng(seed)
    stage = 1 if mode == "progressive" else None
    params = init_params(cfg.model, rng, stages=cfg.model.head_pairs(stage))
    L = cli._gate_latent_len(cfg)
    gate = init_gate(cfg.model.latent_channels, L, rng) if mode == "adaptive" else None
    model = cli.TrainedModel(params, mode, stage, gate)
    cli.write_model(root / "model.ckpt", cfg, model)
    return cfg, model, root / "model.ckpt"


@pytest.mark.parametrize("mode", cli.MODES)
def test_read_model_round_trip(tmp_path, mode):
    # every tensor comes back bit for bit into a trainable tree of its own,
    # whose shared blocks alias as init_params' do, with the gate in adaptive mode
    share = None if mode == "progressive" else 0  # progressive training shares no block
    cfg, saved, ckpt = _write_toy_model(tmp_path, mode, [
        {"sub_blocks": 2, "iterations": 2},
        {"sub_blocks": 2, "iterations": 1, "shares_params_with": share}], seed=5)
    model = read_model(ckpt, cfg)
    assert (model.mode, model.stage, model.gate is None) == (mode, saved.stage, saved.gate is None)
    got, want = named_parameters(model.params), named_parameters(saved.params)
    if saved.gate is not None:
        got, want = got + gate_named_parameters(model.gate), want + gate_named_parameters(saved.gate)
    assert [n for n, _ in got] == [n for n, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.data.tobytes() == b.data.tobytes() and a.shape == b.shape
        assert a.requires_grad and a.data.flags.writeable and not np.shares_memory(a.data, b.data)
    assert (model.params.blocks[1] is model.params.blocks[0]) == (share == 0)


def _edit_header(ckpt: Path, edit) -> None:
    """Rewrite checkpoint ``ckpt``'s JSON header through ``edit``, keeping its tensor bytes."""
    raw = ckpt.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    ckpt.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:])


@contextlib.contextmanager
def _time_budget(seconds: float):
    """Fail the test if the block runs longer than ``seconds`` of wall time."""
    def expire(signum, frame):
        pytest.fail(f"ran past its {seconds} s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# header edits of a few bytes whose sizes a tree built from the header would
# have to allocate or walk: millions of head pairs or sub-blocks, terabytes of encoder
_HEADER_SIZES = {
    "stages": (lambda h: h.update(stages=10**6), r"stages says 1000000 head pairs"),
    "sub_blocks": (lambda h: h["config"]["blocks"][0].update(sub_blocks=10**6),
                   r"model\.blocks = \[\{'sub_blocks': 1000000"),
    "enc_bases": (lambda h: h["config"].update(enc_bases=10**12),
                  r"model\.enc_bases = 1000000000000, but the config has 12"),
}


@pytest.mark.parametrize("case", sorted(_HEADER_SIZES))
def test_header_sizes_fail_by_name_before_any_tree_is_built(tmp_path, capsys, case):
    edit, cause = _HEADER_SIZES[case]
    path = _write_checkpoint(tmp_path, "end_to_end", {"mode": "end_to_end", "task": "separation"})
    _edit_header(tmp_path / "out" / "model.ckpt", edit)
    with _time_budget(5.0):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"model\.ckpt.*" + cause):
            run("eval", path)
        assert time.perf_counter() - start < 0.1
        assert main(["eval", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and re.search(r"model\.ckpt.*" + cause, err), err
    assert not (tmp_path / "out" / "report.json").exists()


def test_too_deeply_nested_checkpoint_header_exits_2_naming_it(tmp_path, capsys):
    path = _write_checkpoint(tmp_path, "end_to_end", {"mode": "end_to_end", "task": "separation"})
    blob = _TOO_DEEP.encode()
    (tmp_path / "out" / "model.ckpt").write_bytes(b"LRCKPT01" + len(blob).to_bytes(8, "little") + blob)
    assert main(["eval", "--config", path]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: checkpoint \S*model\.ckpt has a malformed header: maximum recursion", err), err
    assert not (tmp_path / "out" / "report.json").exists()


_DROP = object()  # stands for removing the leaf from its object or list
_LEAF_VALUES = [None, True, False, 0, 2, -1, 10**6, 10**30, -10**30, 1e308, -1e308, "x",
                [], [1], {}, {"a": 1}, _DROP]


def _leaves(node, path=()):
    """Paths to the scalar leaves of a JSON tree, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


@pytest.fixture(scope="module")
def toy_checkpoints(tmp_path_factory):
    """Per mode, the config and the (header, tensor bytes) of a saved
    two-block toy checkpoint of that mode."""
    out = {}
    for mode in cli.MODES:
        cfg, _, ckpt = _write_toy_model(tmp_path_factory.mktemp(mode), mode, [
            {"sub_blocks": 1, "iterations": 1}, {"sub_blocks": 1, "iterations": 2}], seed=7)
        raw = ckpt.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        out[mode] = cfg, json.loads(raw[16:16 + hlen]), raw[16 + hlen:]
    return out


@given(mode=st.sampled_from(cli.MODES), data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_model_loads_or_names_the_file_for_any_header_edit(toy_checkpoints, mode, data):
    # one or two leaves of the header replaced or dropped: the reader either
    # loads the file or raises ValueError naming it, within a second, and
    # never lets MemoryError, TypeError or KeyError out
    cfg, header, payload = toy_checkpoints[mode]
    header = copy.deepcopy(header)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        # a section first, so `stages` and `format` are drawn as often as the tensor list
        sections = {key: list(_leaves(value, (key,))) for key, value in header.items()}
        key = data.draw(st.sampled_from(sorted(k for k, leaves in sections.items() if leaves)),
                        label="section")
        *up, last = data.draw(st.sampled_from(sections[key]), label="leaf")
        parent = functools.reduce(lambda node, key: node[key], up, header)
        value = data.draw(st.sampled_from(_LEAF_VALUES), label="value")
        if value is _DROP:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(value)
    blob = json.dumps(header).encode()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "model.ckpt"
        ckpt.write_bytes(b"LRCKPT01" + len(blob).to_bytes(8, "little") + blob + payload)
        with _time_budget(1.0):
            try:
                read_model(ckpt, cfg)
            except ValueError as e:
                assert str(ckpt) in str(e), e


@pytest.fixture(scope="module")
def toy_eval_runs(tmp_path_factory):
    """Per mode, the config path of a toy two-block model and the bytes of
    its checkpoint, which ``eval`` reads from the config's output_dir."""
    out = {}
    for mode in cli.MODES:
        root = tmp_path_factory.mktemp(f"eval_{mode}")
        cfg, _, ckpt = _write_toy_model(root, mode, [
            {"sub_blocks": 1, "iterations": 1}, {"sub_blocks": 1, "iterations": 2}], seed=7)
        Path(cfg.output_dir).mkdir()
        out[mode] = root / "config.json", Path(cfg.output_dir) / "model.ckpt", ckpt.read_bytes()
    return out


@given(mode=st.sampled_from(cli.MODES), data=st.data())
@settings(max_examples=150, deadline=None)
def test_eval_exits_0_or_names_the_file_for_any_byte_flip_or_cut(toy_eval_runs, mode, data):
    # one byte of a saved checkpoint flipped, or the file cut short: `latref
    # eval` either scores it or exits 2 naming the file, and no MemoryError,
    # TypeError or KeyError reaches main
    path, ckpt, raw = toy_eval_runs[mode]
    # the magic and header length, the JSON header and the tensor bytes are
    # drawn from alike, though the tensors fill most of the file
    end = 16 + int.from_bytes(raw[8:16], "little")
    start, stop = data.draw(st.sampled_from([(0, 16), (16, end), (end, len(raw))]), label="part")
    at = data.draw(st.integers(start, stop - 1), label="at")
    if data.draw(st.booleans(), label="flip"):
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="bits")]) + raw[at + 1:]
    else:
        raw = raw[:at]
    ckpt.write_bytes(raw)
    raised = []

    def recording_run(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        except Exception as e:
            raised.append(e)
            raise

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), _time_budget(2.0):
        mp.setattr(cli, "run", recording_run)
        code = main(["eval", "--config", str(path)])
    assert not any(isinstance(e, (MemoryError, TypeError, KeyError)) for e in raised), raised
    assert code == 0 or (code == 2 and err.getvalue().startswith("error: ")
                         and str(ckpt) in err.getvalue()), (code, err.getvalue())


# every key of every section given, so each one can be replaced or dropped
_FULL_ADAPTIVE = {
    "task": "separation", "mode": "adaptive",
    "model": {"enc_bases": 12, "enc_kernel": 8, "enc_stride": 4, "latent_channels": 6,
              "num_sources": 3, "sub_scales": 2, "sub_kernel": 3,
              "blocks": [{"sub_blocks": 1, "iterations": 2, "shares_params_with": None}]},
    "train": {"epochs": 4, "batch_size": 2, "lr0": 1e-3, "lr_decay_every": 2,
              "lr_decay_factor": 0.5, "clip_norm": 5.0, "seed": 0, "augment": True,
              "chunk_len": None},
    "dataset": {"sample_rate": 8000, "duration": 0.05, "speaker_snr_range": [0.0, 5.0],
                "noise_snr_range": [-3.0, 6.0], "task": "separation", "seed": 0,
                "num_train": 2, "num_val": 2, "num_test": 4},
    "finetune": {"epochs": 1, "lr0": 1e-4, "lr_decay_every": 5, "lr_decay_factor": 0.5,
                 "penalty_coef": 0.01, "penalty_target": 0.0},
    "output_dir": "runs/x",
}
# a top-level key by its name, a section's key by its dotted path or its section
_KEY_PATH = re.compile(r"^(task|mode|output_dir) |config section (model|train|dataset|finetune)\b"
                       r"|\b(model|train|dataset|finetune)(\[\d+\])?\.\w")
_HOSTILE_VALUES = st.one_of(
    st.sampled_from(_LEAF_VALUES + [10**400, -10**400, float("nan")]),
    st.integers(-10**400, 10**400))


def _edit_leaves(tree, data):
    """``tree`` with one or two of its leaves replaced by a hostile value or dropped."""
    tree = copy.deepcopy(tree)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        *up, last = data.draw(st.sampled_from(list(_leaves(tree))), label="leaf")
        parent = functools.reduce(lambda node, key: node[key], up, tree)
        value = data.draw(_HOSTILE_VALUES, label="value")
        if value is _DROP:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(value)
    return tree


def test_full_adaptive_config_builds():
    assert config_from_mapping(copy.deepcopy(_FULL_ADAPTIVE)).mode == "adaptive"


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_config_builds_or_names_a_key_for_any_leaf_edit(data):
    # never OverflowError, TypeError or KeyError: a hostile value is named by its key
    mapping = _edit_leaves(_FULL_ADAPTIVE, data)
    try:
        config_from_mapping(mapping)
    except ValueError as e:
        assert _KEY_PATH.search(str(e)), e


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_report_renders_or_names_the_file_for_any_row_edit(data):
    row = {"blocks": 2, "sub_blocks": 1, "iters": [1, 2], "params": 373, "memory_bytes": 9000,
           "mode": "progressive", "task": "separation", "mean_sisdri": 1.5, "mean_g": None}
    report = {"row": _edit_leaves(row, data), "per_sample": [], "quartiles": [], "passthrough": False}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a" / "report.json"
        path.parent.mkdir()
        path.write_text(json.dumps(report))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["report", "--out", tmp])
    assert code == 0 or (code == 2 and err.getvalue().startswith(f"error: report file {path} ")), \
        (code, err.getvalue())


@pytest.mark.parametrize("argv", [["train"], ["eval", "--passthrough"]], ids=["train", "passthrough"])
def test_main_reports_a_memory_error_like_any_error(tmp_path, capsys, argv):
    # a 10**12-basis encoder asks numpy for terabytes, which it refuses at once
    m = tiny_mapping(tmp_path)
    m["model"]["enc_bases"] = 10**12
    assert main([*argv, "--config", write_config(tmp_path, m)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err, err


def test_passthrough_counts_the_model_before_making_the_test_split(tmp_path, monkeypatch, capsys):
    # the row's parameter count of a 10**12-basis encoder fails before any data is made
    m = tiny_mapping(tmp_path)
    m["model"]["enc_bases"] = 10**12

    def no_data(*args, **kwargs):
        raise AssertionError("eval made the test split before counting the model")

    monkeypatch.setattr(cli, "make_dataset", no_data)
    assert main(["eval", "--passthrough", "--config", write_config(tmp_path, m)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err, err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("bases, cause", [(10**12, "allocate"), (10**400, "dimension")],
                         ids=["1e12", "1e400"])
@pytest.mark.parametrize("mode", ["end_to_end", "progressive", "adaptive"])
def test_train_counts_the_model_before_building_the_splits(tmp_path, monkeypatch, capsys,
                                                            mode, bases, cause):
    # the parameter count of an encoder too large to build fails before any split is made
    m = tiny_mapping(tmp_path, mode=mode)
    m["model"]["enc_bases"] = bases
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build_splits(*args, **kwargs)

    monkeypatch.setattr(cli, "build_splits", counted)
    assert main(["train", "--config", write_config(tmp_path, m)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err, err
    assert calls == [] and not (tmp_path / "out" / "history.jsonl").exists()


@pytest.mark.parametrize("bases, cause", [(10**12, "Unable to allocate"),
                                          (10**400, "Maximum allowed dimension exceeded")],
                         ids=["1e12", "1e400"])
@pytest.mark.parametrize("argv", [["train"], ["eval", "--passthrough"]], ids=["train", "passthrough"])
def test_a_model_too_large_to_build_names_the_model_section(tmp_path, monkeypatch, capsys,
                                                            argv, bases, cause):
    # numpy's refusal reaches the user with the config section it comes from,
    # before any data is made
    m = tiny_mapping(tmp_path)
    m["model"]["enc_bases"] = bases
    calls = []

    def counted(make):
        return lambda *args, **kwargs: calls.append(make.__name__) or make(*args, **kwargs)

    monkeypatch.setattr(cli, "build_splits", counted(cli.build_splits))
    monkeypatch.setattr(cli, "make_dataset", counted(cli.make_dataset))
    assert main([*argv, "--config", write_config(tmp_path, m)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config section 'model' cannot be built: ") and cause in err, err
    assert calls == []


def test_unknown_tensors_message_lists_eight_names_and_counts_the_rest(tmp_path, capsys):
    extras = {f"typo{i:04d}.w": np.zeros(1) for i in range(1000)}
    path = _write_checkpoint(tmp_path, "end_to_end", {"mode": "end_to_end"}, extras)
    assert main(["eval", "--config", path]) == 2
    err = capsys.readouterr().err
    listed = ", ".join(f"'typo{i:04d}.w'" for i in range(8))
    assert err.startswith("error: checkpoint ") and "model.ckpt" in err
    assert err.endswith(f"model.ckpt tensors unknown: [{listed}] and 992 more\n"), err
    assert len(err) < 400, len(err)


def test_finetune_gate_command(tmp_path):
    m = tiny_mapping(tmp_path, mode="adaptive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 3}]
    m["train"]["epochs"] = 2
    m["finetune"] = {"epochs": 1}
    path = write_config(tmp_path, m)
    assert run("train", path) == 0
    lines = (tmp_path / "out" / "history.jsonl").read_text().strip().split("\n")
    recs = [json.loads(l) for l in lines]
    assert [r["phase"] for r in recs] == ["pretrain", "finetune"]
    assert "mean_g" in recs[-1]
    run("eval", path)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["row"]["mean_g"] is not None
    assert all(r["g"] is not None for r in report["per_sample"])


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--passthrough"]], ids=["model", "passthrough"])
def test_adaptive_row_counts_the_gate(tmp_path, argv):
    # the gate's 2C + 4L + 6 scalars at the dataset's latent length, drawn
    # or (passthrough) of a zero-draw gate, join the model's count
    m = tiny_mapping(tmp_path, mode="adaptive")
    path = write_config(tmp_path, m)
    assert run("train", path) == 0
    assert main([*argv, "--config", path]) == 0
    row = json.loads((tmp_path / "out" / "report.json").read_text())["row"]
    cfg = load_config(path)
    C, L = cfg.model.latent_channels, cfg.model.latent_length(cfg.dataset.num_samples)
    assert row["mode"] == "adaptive"
    assert row["params"] == count_params(cfg.model) + 2 * C + 4 * L + 6


def test_report_renders_rows(tmp_path):
    for sub, iters in (("a", 1), ("b", 2), ("c", 4)):
        m = tiny_mapping(tmp_path)
        m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": iters}]
        m["output_dir"] = str(tmp_path / "sweep" / sub)
        path = write_config(tmp_path, m)
        run("train", path)
        run("eval", path)
    assert run("report", None, out=str(tmp_path / "sweep")) == 0
    text = (tmp_path / "sweep" / "summary.txt").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("Blocks")
    assert "Sub-Blocks" in lines[0] and "Iter." in lines[0]
    assert "SI-SDRi" in lines[0] and "Params" in lines[0]
    assert len(lines) == 5  # header, rule, 3 rows


@pytest.mark.parametrize("text, cause", [
    ('{"x": 1}', "has no key 'row'"),
    ("[1]", "is malformed: list indices"),
    ('{"row": {"blocks": 1}}', "has no key 'sub_blocks'"),
    ("{", "is malformed: Expecting property name"),
    (_TOO_DEEP, "is malformed: maximum recursion depth exceeded"),
    ('{"row": {"blocks": 1, "sub_blocks": 1, "iters": [1], "params": 1, "mean_sisdri": %d}}'
     % 10**400, "is malformed: int too large to convert to float"),
], ids=["no_row", "not_an_object", "row_missing_a_column", "invalid_json", "nested_too_deep",
        "number_past_float_range"])
def test_report_names_a_malformed_report_file(tmp_path, capsys, text, cause):
    bad = tmp_path / "sweep" / "b" / "report.json"
    bad.parent.mkdir(parents=True)
    bad.write_text(text)
    assert main(["report", "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: report file {bad} {cause}"), err
    assert not (tmp_path / "sweep" / "summary.txt").exists()


def test_report_without_reports_fails(tmp_path):
    with pytest.raises(FileNotFoundError, match="report.json"):
        run("report", None, out=str(tmp_path))


def test_render_table_alignment():
    rows = [
        {"blocks": 1, "sub_blocks": 1, "iters": [4], "mean_sisdri": 1.234,
         "params": 12345, "mean_g": None},
        {"blocks": 10, "sub_blocks": 2, "iters": [8, 8], "mean_sisdri": -0.5,
         "params": 7, "mean_g": 3.5},
    ]
    text = render_table(rows)
    lines = text.strip().split("\n")
    assert len({len(l) > 0 for l in lines}) == 1
    assert "8x8" in lines[3]
    assert "3.50" in lines[3]


# ---------------------------------------------------------------------------
# gradcheck and main()


def test_gradcheck_suite_under_tolerance():
    assert gradcheck_suite() < 1e-4


def test_main_gradcheck_exit_zero(capsys):
    assert main(["gradcheck"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


def test_gradcheck_ignores_config(tmp_path, capsys):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    assert main(["gradcheck", "--config", path]) == 0
    assert "max relative gradient error" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_main_invalid_config_exits_nonzero(tmp_path, capsys):
    m = tiny_mapping(tmp_path)
    m["train"]["learning_rate"] = 1.0
    path = write_config(tmp_path, m)
    code = main(["train", "--config", path])
    assert code == 2
    assert "train.learning_rate" in capsys.readouterr().err


def test_main_missing_file_exits_nonzero(capsys):
    assert main(["train", "--config", "missing.json"]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_main_train_and_eval(tmp_path):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    assert main(["train", "--config", path]) == 0
    assert main(["eval", "--config", path]) == 0


@pytest.mark.parametrize("passthrough", [False, True])
def test_eval_synthesises_only_the_test_split(tmp_path, monkeypatch, passthrough):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    if not passthrough:
        run("train", path)
    made = []
    make_dataset = data.make_dataset

    def counted(spec, count, split="train"):
        made.append((split, count))
        return make_dataset(spec, count, split)

    monkeypatch.setattr(data, "make_dataset", counted)
    monkeypatch.setattr(cli, "make_dataset", counted)
    assert run("eval", path, passthrough=passthrough) == 0
    assert made == [("test", 4)]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["per_sample"]) == 4


def test_train_synthesises_only_the_train_and_val_splits(tmp_path, monkeypatch):
    path = write_config(tmp_path, tiny_mapping(tmp_path))
    made = []
    sample_rng = data.sample_rng

    def counted(spec, split, index):
        made.append(split)
        return sample_rng(spec, split, index)

    monkeypatch.setattr(data, "sample_rng", counted)
    assert run("train", path) == 0
    assert made == ["train", "train", "val", "val"]


def test_experiment_config_direct_construction():
    cfg = ExperimentConfig()
    assert cfg.dataset.task == "separation"
