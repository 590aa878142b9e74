"""latref benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train_e2e --seed 1 --seconds 36 --trace 0

Runs one workload (see workloads.py) in a closed loop, one client, one
process, BLAS pinned to one thread, from the root of a source checkout.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The environment record, the noise
flag and a summary go to stderr and, with every metric and the spans, to
``.bench_out/`` in the checkout.  NOTES.md defines each metric.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MAX_LOGGED_FAILURES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train_e2e", "train_progressive", "infer_adaptive"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    if args.seconds <= 0:
        ap.error(f"--seconds must be positive, got {args.seconds}")
    return args


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }


def pct(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def balanced_pct(ms_by_key: dict, q: float) -> float:
    """Mean over op keys of the q-th percentile within each key.

    Ops of one key do the same work (one training stage, or one exit depth),
    and every key carries the same number of ops, so this is the percentile
    of a typical op without a pooled median falling between two modes.
    """
    return statistics.fmean(pct(v, q) for v in ms_by_key.values())


def spread(ms_by_key: dict) -> float:
    """Largest within-key interquartile range, as a share of its median."""
    out = 0.0
    for v in ms_by_key.values():
        if len(v) >= 8:
            q1, med, q3 = statistics.quantiles(v, n=4)
            out = max(out, (q3 - q1) / med)
    return out


class Run:
    """Timed op records and failure counts of one run."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.ms = {True: {}, False: {}}  # traced? -> op key -> [ms]
        self.attempted = 0
        self.failed = 0
        self.op_key = {}  # op id -> op key, for timed ops
        self.clip_fired = 0
        self.clip_seen = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED_FAILURES:
            print(f"bench: op {self.attempted} failed: {what}", file=sys.stderr)

    def checked(self, result) -> None:
        """Count one attempted op and run the workload's output check on it."""
        self.attempted += 1
        try:
            err = self.wl.check(result)
        except Exception:
            err = traceback.format_exc()
        if err is not None:
            self.fail(err)
        fired = getattr(self.wl, "clip_fired", None)
        if fired is not None:
            self.clip_seen += 1
            self.clip_fired += bool(fired(result))

    def timed_op(self, traced: bool) -> None:
        op_id = self.attempted
        if traced:
            self.tracer.install()
            self.tracer.begin_op(op_id)
        t = perf_counter()
        try:
            key, result = self.wl.op()
        except Exception:
            key, result = None, traceback.format_exc()
        dt = perf_counter() - t
        if traced:
            self.tracer.end_op()
            self.tracer.remove()
        if key is None:
            self.attempted += 1
            self.fail(result)
            return
        self.ms[traced].setdefault(key, []).append(dt * 1e3)
        self.op_key[op_id] = key
        self.checked(result)

    def mem_pass(self) -> float:
        """Peak tracemalloc MB over the workload's memory ops, each checked."""
        from workloads import peak_traced_mb

        peak = 0.0
        for _ in range(self.wl.mem_ops):
            try:
                (_, result), mb = peak_traced_mb(self.wl.op)
            except Exception:
                self.attempted += 1
                self.fail(traceback.format_exc())
                continue
            self.checked(result)
            peak = max(peak, mb)
        return peak


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latref" / "__init__.py").is_file():
        print(f"bench: no latref sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads
    from tracing import Tracer

    import_s = perf_counter() - T_START
    env = environment(np)

    # Set-up: build every input from the seed and warm up, several times.
    setup_s, fingerprints, gen_ms = [], [], []
    for _ in range(SETUP_REPS):
        t = perf_counter()
        wl = workloads.build(args.workload, args.seed)
        wl.begin_phase(0)
        setup_s.append(perf_counter() - t)
        fingerprints.append(wl.fingerprint())
        gen_ms.append(wl.gen.seconds * 1e3 / wl.gen.clips)

    tracer = Tracer() if args.trace else None
    run = Run(wl, tracer)
    run.attempted += 1
    if len(set(map(repr, fingerprints))) != 1:
        run.fail(f"set-up is not deterministic: {fingerprints}")

    # Timed ops.  Phase 0 runs for its share of the time; later phases run
    # as many ops as phase 0 did.  Traced runs trace every other op.
    phase_peak = []
    n_phase0 = None
    for i in range(len(wl.phases)):
        if i > 0:
            wl.begin_phase(i)
        deadline = perf_counter() + args.seconds / len(wl.phases)
        n = 0
        while (perf_counter() < deadline) if n_phase0 is None else (n < n_phase0):
            run.timed_op(traced=bool(args.trace) and n % 2 == 1)
            n += 1
        if n_phase0 is None:
            n_phase0 = n
        phase_peak.append(run.mem_pass())

    run.attempted += 1
    try:
        err = workloads.check_reference(args.workload)
    except Exception:
        err = traceback.format_exc()
    if err is not None:
        run.fail(f"reference check: {err}")

    env["loadavg_after"] = os.getloadavg()
    untraced = run.ms[False]
    noise = spread(untraced)
    bound = _bound("op_ms_p50")
    noisy = bound is not None and noise > bound

    e2e = {
        "op_ms_p50": (balanced_pct(untraced, 50), "ms"),
        "op_ms_p90": (balanced_pct(untraced, 90), "ms"),
        "audio_s_per_s": (_audio_rate(run, untraced), "s/s"),
        "peak_mem_mb": (max(phase_peak), "MB"),
        "ok_rate": (1.0 - run.failed / run.attempted, "ratio"),
        "setup_s": (import_s + statistics.median(setup_s), "s"),
    }
    layers = per_layer(run, wl, phase_peak, statistics.median(gen_ms)) if args.trace else {}
    metrics = layers if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "noise": {"within_key_iqr_over_median": noise, "bound": bound, "noisy": noisy},
        "setup_reps_s": setup_s, "import_s": import_s,
        "ops": {("traced" if k else "untraced"): {key: len(v) for key, v in d.items()}
                for k, d in run.ms.items()},
        "op_ms": {("traced" if k else "untraced"): d for k, d in run.ms.items()},
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": {k: v for k, (v, _) in layers.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    print(json.dumps({"environment": env, "noise": record["noise"], "ops": record["ops"]}),
          file=sys.stderr)
    if noisy:
        print(f"bench: NOISY run: within-key op-time spread {noise:.3f} exceeds the "
              f"op_ms_p50 bound {bound}", file=sys.stderr)

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _bound(name: str):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((m["bound"] for m in spec.get("end_to_end", []) if m["name"] == name), None)


def _audio_rate(run: Run, untraced: dict) -> float:
    n = sum(len(v) for v in untraced.values())
    busy = sum(sum(v) for v in untraced.values()) / 1e3
    return n * run.wl.items_per_op / busy


def per_layer(run: Run, wl, phase_peak, gen_ms_per_clip) -> dict:
    tr = run.tracer
    durations = tr.op_durations()
    n_ops = len(durations)
    op_ms = sum(durations.values()) * 1e3 / n_ops
    self_ms = {k: v * 1e3 / n_ops for k, v in tr.self_times().items()}
    counts = tr.totals()
    layer_ms = sum(v for k, v in self_ms.items() if k != "bench.op")
    training = hasattr(wl, "analytic_mb")
    analytic = [wl.analytic_mb(i) for i in range(len(wl.phases))] if training else [0.0]
    out = {
        "data.gen_ms_per_clip": (gen_ms_per_clip, "ms"),
        "diffcore.backward_ms": (self_ms.get("diffcore.backward", 0.0), "ms"),
        "diffcore.conv_fwd_ms": (self_ms.get("diffcore.conv_fwd", 0.0), "ms"),
        "diffcore.conv_gmac": (counts.get("conv_macs", 0.0) / 1e9 / n_ops, "GMAC_computed"),
        "diffcore.conv_calls": (counts.get("conv_calls", 0.0) / n_ops, "count"),
        "diffcore.tape_nodes": (counts.get("tape_nodes", 0.0) / n_ops, "count"),
        "diffcore.tape_output_mb": (counts.get("tape_output_bytes", 0.0) / 1e6 / n_ops, "MB"),
        "sepmodel.encode_ms": (self_ms.get("sepmodel.encode", 0.0), "ms"),
        "sepmodel.refine_ms": (self_ms.get("sepmodel.refine", 0.0), "ms"),
        "sepmodel.heads_ms": (self_ms.get("sepmodel.heads", 0.0), "ms"),
        "sepmodel.block_applies": (counts.get("block_applies", 0.0) / n_ops, "count"),
        "losses.pit_ms": (self_ms.get("losses.pit", 0.0), "ms"),
        "losses.score_ms": (self_ms.get("losses.score", 0.0), "ms"),
        "gating.gate_ms": (self_ms.get("gating.gate", 0.0), "ms"),
        "gating.gate_evals": (counts.get("gate_evals", 0.0) / n_ops, "count"),
        "gating.steps_processed": (counts.get("steps_processed", 0.0) / n_ops, "count"),
        "gating.process_ratio": (counts.get("steps_processed", 0.0)
                                 / max(counts.get("steps_scheduled", 0.0), 1.0), "ratio"),
        "training.augment_ms": (self_ms.get("training.augment", 0.0), "ms"),
        "training.clip_ms": (self_ms.get("training.clip", 0.0), "ms"),
        "training.adam_ms": (self_ms.get("training.adam", 0.0), "ms"),
        "training.clip_fired": (run.clip_fired / max(run.clip_seen, 1), "count"),
        "training.memory_account_mb": (max(analytic), "MB"),
        "training.mem_measured_over_analytic": (
            max(phase_peak) / max(analytic) if training else 0.0, "ratio"),
        "bench.loop_ms": (self_ms.get("bench.op", 0.0), "ms"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.self_time_coverage": (layer_ms / op_ms, "ratio"),
        "trace.overhead_ms": (balanced_pct(run.ms[True], 50) - balanced_pct(run.ms[False], 50),
                              "ms"),
    }
    for i in range(2):
        key = f"stage{i}"
        staged = wl.phases == ["stage0", "stage1"]
        ids = {op for op, k in run.op_key.items() if k == key and op in durations}
        kc = tr.totals(ids)
        out[f"training.{key}.op_ms_p50"] = (pct(run.ms[False][key], 50) if staged else 0.0, "ms")
        out[f"training.{key}.peak_mem_mb"] = (phase_peak[i] if staged else 0.0, "MB")
        out[f"training.{key}.memory_account_mb"] = (analytic[i] if staged else 0.0, "MB")
        out[f"training.{key}.tape_output_mb"] = (
            kc.get("tape_output_bytes", 0.0) / 1e6 / len(ids) if ids else 0.0, "MB")
    return out


if __name__ == "__main__":
    sys.exit(main())
