"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from latref import data, diffcore, sepmodel, training

BENCH = Path(__file__).resolve().parent


def tiny_config(blocks):
    return sepmodel.SeparationConfig(enc_bases=8, enc_kernel=4, enc_stride=2,
                                     latent_channels=4, num_sources=3, blocks=blocks,
                                     sub_scales=2, sub_kernel=3)


def tiny_splits(seed=5):
    spec = data.MixtureSpec(sample_rate=8000, duration=0.01, seed=seed)
    return data.build_splits(spec, 6, 1)


def tiny_train_config(epochs):
    return training.TrainConfig(epochs=epochs, batch_size=4, seed=3, augment=True)


def param_bytes(params):
    return [(name, t.data.tobytes()) for name, t in sepmodel.named_parameters(params)]


def test_step_loop_matches_train_end_to_end():
    config = tiny_config([sepmodel.BlockSpec(sub_blocks=1, iterations=2)])
    splits = tiny_splits()
    cfg = tiny_train_config(epochs=1)
    ref = sepmodel.init_params(config, np.random.default_rng(cfg.seed))
    training.train_end_to_end(ref, splits.train, splits.val, cfg)

    params = sepmodel.init_params(config, np.random.default_rng(cfg.seed))
    loop = workloads.StepLoop(params, splits.train, cfg, np.random.default_rng(cfg.seed))
    for _ in range(loop.steps_per_epoch()):
        loop.step()
    assert loop.steps_per_epoch() == 2  # a short last batch is part of the epoch
    assert param_bytes(params) == param_bytes(ref)


def test_step_loop_matches_train_progressive():
    config = tiny_config([sepmodel.BlockSpec(sub_blocks=1, iterations=1),
                          sepmodel.BlockSpec(sub_blocks=1, iterations=2)])
    splits = tiny_splits()
    cfg = tiny_train_config(epochs=2)  # one epoch per stage
    ref = training.train_progressive(config, splits.train, splits.val, cfg)[-1].params

    rng = np.random.default_rng(cfg.seed)
    params = sepmodel.init_params(config, rng, stages=2)
    for stage in range(2):
        loop = workloads.stage_loop(config, params, splits.train, cfg, rng, stage)
        for _ in range(loop.steps_per_epoch()):
            loop.step()
    assert param_bytes(params) == param_bytes(ref)


def test_tracer_self_times_cover_the_op_and_leave_outputs_unchanged():
    config = tiny_config([sepmodel.BlockSpec(sub_blocks=2, iterations=2)])
    params = sepmodel.init_params(config, np.random.default_rng(0))
    mix = tiny_splits().train[0].mixture
    plain = training.run_model(mix, params)[0].data

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(7)
        traced = training.run_model(mix, params)[0].data
        tracer.end_op()
    finally:
        tracer.remove()

    assert traced.tobytes() == plain.tobytes()
    assert sepmodel.conv1d is diffcore.conv1d  # originals restored
    assert not hasattr(training.encode, "__wrapped__")
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(tracer.op_durations()[7], rel=1e-9)
    # encoder + bottleneck, 2 x 2 sub-blocks of 2 down, 2 up and a projection
    # conv, the mask net and one decoder per source
    assert tracer.totals()["conv_calls"] == 2 + 4 * 5 + 1 + 3
    assert tracer.totals()["block_applies"] == 2
    assert {s[0] for s in tracer.spans} >= {"bench.op", "sepmodel.encode", "sepmodel.refine",
                                            "sepmodel.heads", "diffcore.conv_fwd"}


def test_choose_bias_spreads_exits():
    # a bias in (-0.1, 0.2] sends clips 3, 2, 1 and 0 to depths 0, 1, 2, 3
    gaps = np.array([[0.9, 0.5, 0.1], [0.9, 0.5, -0.3], [0.9, -0.4, 0.2],
                     [-0.2, 0.8, 0.8], [0.7, 0.6, 0.4], [0.6, -0.5, 0.0]])
    b, chosen = workloads.choose_bias(gaps, depths=4)
    assert all(chosen), chosen
    for d, clips in enumerate(chosen):
        for c in clips:
            proc = gaps[c] + b > 0
            exit_depth = 3 if proc.all() else int(np.argmin(proc))
            assert exit_depth == d


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_stored_reference_reproduces(name):
    assert workloads.check_reference(name) is None


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train_e2e",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
