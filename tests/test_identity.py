"""Smoke test of the bit-identity manifest script, ``tests/identity.py``."""

import json

import identity
from latref.sepmodel import BlockSpec, _ZeroDraws, init_params, named_parameters
from latref.training import stage_freeze_mask


def test_manifest_covers_its_cases_and_compare_names_a_changed_hash(tmp_path, monkeypatch, capsys):
    # the smallest and the largest block of each matrix keep this test short
    monkeypatch.setattr(identity, "MATRIX", ((1, 1), (4, 5)))
    monkeypatch.setattr(identity, "MEMORY_MATRIX", ((1, 1, 1), (4, 3, 3)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert identity.run([str(a)]) == 0
    m = json.loads(a.read_text())
    assert all(len(h) == 64 for h in m.values()) and list(m) == sorted(m)
    cases = {case: identity.desk_config() for case in ("e2e/T2000", "e2e/T1999", "e2e/T8000",
                                                       "gated/T2000")}
    cases["shared/T2000"] = identity.desk_config([BlockSpec(2, 2),
                                                  BlockSpec(2, 2, shares_params_with=0)])
    cases.update({f"e2e/k{k}s{s}/T2000": identity.desk_config([BlockSpec(k, 2)], s)
                  for k, s in identity.MATRIX})
    for case, config in cases.items():
        assert {f"step/{case}/{x}" for x in ("ests0", "ests1", "loss")} <= m.keys()
        grads = {k for k in m if k.startswith(f"step/{case}/grad/")}
        assert {f"step/{case}/grad/{n}" for n, _ in
                named_parameters(init_params(config, _ZeroDraws()))} <= grads
    # stage 1 hashes the gradients of its own block and head pair only
    frozen = stage_freeze_mask(identity.desk_config([BlockSpec(2, 2)] * 2), 1)
    tops = {k.split("/")[4].split(".")[0] for k in m if k.startswith("step/stage1/T2000/grad/")}
    assert tops == {"block1", "mask1", "dec1"} and not tops & frozen
    tops = {k.split("/")[4].split(".")[0] for k in m if k.startswith("step/stage2of3/T2000/grad/")}
    assert tops == {"block2", "mask2", "dec2"}
    for mode in ("end_to_end", "progressive", "adaptive"):
        for task in ("separation", "enhancement"):
            name = f"cli/{mode}/{task}"
            assert {f"{name}/train/model.ckpt", f"{name}/eval/report.json",
                    f"{name}/eval/report.json/memory_bytes",
                    f"{name}/passthrough/stdout", f"{name}/passthrough/exit"} <= m.keys()
    assert {f"memory/k{k}n{n}s{s}/{regime}" for k, n, s in identity.MEMORY_MATRIX
            for regime in ("e2e", "stage0", "stage1")} == {k for k in m if k.startswith("memory/")}
    assert {f"memory_peak/k{k}n{n}s{s}/{regime}" for k, n, s in identity.MEMORY_MATRIX
            for regime in ("e2e", "stage0", "stage1")} == {k for k in m if k.startswith("memory_peak/")}
    for T, K, stride, padding in identity.CONV_CASES:
        case = f"T{T}K{K}s{stride}{padding}"
        assert {f"op/conv1d/{case}/{x}" for x in ("out", "grad/x", "grad/w", "grad/b")} <= m.keys()
        assert {f"op/transposed_conv1d/{case}/{x}" for x in ("out", "grad/v", "grad/w", "grad/b")} \
            <= m.keys()
    # a frozen encoder's v_enc has no gradient to hash
    decode = {k for k in m if k.startswith("op/masked_decode/")}
    assert "op/masked_decode/v_enc_trains/grad/v_enc" in decode
    assert {k.replace("v_enc_trains", "v_enc_frozen") for k in decode if "v_enc_trains" in k} \
        - {"op/masked_decode/v_enc_frozen/grad/v_enc"} == {k for k in decode if "v_enc_frozen" in k}
    assert {"gradcheck", "env/blas", "env/blas_threads"} <= m.keys()

    assert identity.run(["--compare", str(a), str(a)]) == 0
    b.write_text(json.dumps({**m, "gradcheck": "0" * 64, "new": "1" * 64}))
    capsys.readouterr()
    assert identity.run(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"gradcheck\nnew\n2 of {len(m) + 1} names differ\n"
