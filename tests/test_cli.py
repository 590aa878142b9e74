import json

import numpy as np
import pytest

from latref.cli import (
    ExperimentConfig,
    config_from_mapping,
    config_to_mapping,
    gradcheck_suite,
    load_config,
    main,
    quartile_analysis,
    render_table,
    run,
    save_config,
)
from latref.data import build_splits
from latref.sepmodel import count_params, load_checkpoint
from latref.training import evaluate, memory_account


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
        "train": {"epochs": 1, "batch_size": 2, "seed": 0},
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


def test_config_round_trip(tmp_path):
    cfg = config_from_mapping(tiny_mapping(tmp_path))
    path = tmp_path / "echo.json"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg


def test_config_defaults_fill_in():
    cfg = config_from_mapping({"task": "separation"})
    assert cfg.mode == "end_to_end"
    assert cfg.train.epochs == 200
    assert cfg.dataset.spec.sample_rate == 8000
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


def test_missing_config_file():
    with pytest.raises(FileNotFoundError, match="nope.json"):
        load_config("nope.json")


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(path)


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
    assert run("train-progressive", path) == 0
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
    run("train-progressive", path)
    assert run("eval", path) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    loaded = load_checkpoint(tmp_path / "out" / "model.ckpt")
    assert (loaded.meta["stage"], loaded.meta["depth"]) == (1, 2)
    ds = load_config(path).dataset
    test = build_splits(ds.spec, ds.num_train, ds.num_val, ds.num_test).test
    expected, _ = evaluate(loaded.params, test, stage=1, depth=2)
    assert report["row"]["mean_sisdri"] == expected
    assert report["row"]["blocks"] == 2


def test_eval_row_describes_checkpoint_not_config_mode(tmp_path):
    m = tiny_mapping(tmp_path, mode="progressive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 1},
                            {"sub_blocks": 1, "iterations": 1}]
    m["train"]["epochs"] = 2
    run("train-progressive", write_config(tmp_path, m))
    m["mode"] = "end_to_end"
    path = write_config(tmp_path, m)
    assert run("eval", path) == 0
    row = json.loads((tmp_path / "out" / "report.json").read_text())["row"]
    loaded = load_checkpoint(tmp_path / "out" / "model.ckpt")
    assert row["mode"] == "progressive"
    assert row["params"] == count_params(loaded.config, stages=2).total
    T = load_config(path).dataset.spec.num_samples
    assert row["memory_bytes"] == memory_account(loaded.config, 1, T, stage=1).total_bytes


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


def test_finetune_gate_command(tmp_path):
    m = tiny_mapping(tmp_path, mode="adaptive")
    m["model"]["blocks"] = [{"sub_blocks": 1, "iterations": 3}]
    m["train"]["epochs"] = 2
    m["finetune"] = {"epochs": 1}
    path = write_config(tmp_path, m)
    assert run("finetune-gate", path) == 0
    lines = (tmp_path / "out" / "history.jsonl").read_text().strip().split("\n")
    recs = [json.loads(l) for l in lines]
    assert [r["phase"] for r in recs] == ["pretrain", "finetune"]
    assert "mean_g" in recs[-1]
    run("eval", path)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["row"]["mean_g"] is not None
    assert all(r["g"] is not None for r in report["per_sample"])


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


def test_experiment_config_direct_construction():
    cfg = ExperimentConfig()
    assert cfg.dataset.spec.task == "separation"
    m = config_to_mapping(cfg)
    assert config_from_mapping(m) == cfg
