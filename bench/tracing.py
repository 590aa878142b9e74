"""Span tracing of latref's layers from outside the package.

A :class:`Tracer` wraps chosen public functions of latref and records one
span per call: name, start, end, parent span and op id.  The modules import
each other's functions by name (``sepmodel`` holds its own ``conv1d``,
``training`` its own ``encode``), so a function is patched in every latref
module whose namespace binds it, not only where it is defined.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; calls are strictly nested on one
thread, so children never overlap.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "bench.op"  # span around one whole op; its self time is loop glue


def _count_conv(counts, args, kwargs, result):
    cout, cin, k = args[1].shape  # weight
    counts["conv_calls"] += 1
    counts["conv_macs"] += cout * cin * k * result.shape[1]


def _count_tconv(counts, args, kwargs, result):
    cin, cout, k = args[1].shape  # weight
    counts["conv_calls"] += 1
    counts["conv_macs"] += cin * cout * k * args[0].shape[1]


def _count_backward(counts, args, kwargs, result):
    tape = args[0]
    counts["tape_nodes"] += len(tape)
    counts["tape_output_bytes"] += 8 * tape.recorded_output_elems()


def _count_block(counts, args, kwargs, result):
    counts["block_applies"] += 1


def _count_gate(counts, args, kwargs, result):
    counts["gate_evals"] += 1


def _count_adaptive(counts, args, kwargs, result):
    config = args[1]
    counts["steps_processed"] += result[1]
    counts["steps_scheduled"] += config.total_steps()


# (module, function, span name, counter).  Span names are "<layer>.<part>".
TARGETS = (
    ("latref.diffcore", "backward", "diffcore.backward", _count_backward),
    ("latref.diffcore", "conv1d", "diffcore.conv_fwd", _count_conv),
    ("latref.diffcore", "transposed_conv1d", "diffcore.conv_fwd", _count_tconv),
    ("latref.sepmodel", "encode", "sepmodel.encode", None),
    ("latref.sepmodel", "apply_block", "sepmodel.refine", _count_block),
    ("latref.sepmodel", "mask_and_decode", "sepmodel.heads", None),
    ("latref.losses", "pit_loss", "losses.pit", None),
    ("latref.losses", "eval_speech_sisdri", "losses.score", None),
    ("latref.gating", "gate_forward", "gating.gate", _count_gate),
    ("latref.gating", "adaptive_separate", "gating.gate", _count_adaptive),
    ("latref.training", "clip_global_norm", "training.clip", None),
    ("latref.training", "adam_step", "training.adam", None),
    ("latref.training", "augment_batch", "training.augment", None),
)


class Tracer:
    """Records spans while installed; ``install``/``remove`` patch latref."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = defaultdict(lambda: defaultdict(float))  # op id -> counter -> total
        self._stack = []
        self._op = None
        self._patches = []
        for module_name, attr, span, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "latref" or mod_name.startswith("latref."):
                    for name, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, name, original, wrapper))

    def _wrap(self, span, fn, counter):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent, self._op)
            if counter is not None:
                counter(self.counts[self._op], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def remove(self):
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def begin_op(self, op_id: int):
        """Open the root span of one op."""
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append((ROOT, perf_counter(), None, -1, op_id))

    def end_op(self):
        idx = self._stack[0]
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, op)
        self._stack = []
        self._op = None

    def self_times(self) -> dict:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def op_durations(self) -> dict:
        """Root-span duration in seconds per op id."""
        return {op: end - start for name, start, end, _, op in self.spans if name == ROOT}

    def totals(self, op_ids=None) -> dict:
        """Counters summed over the given ops (default: every op)."""
        out = defaultdict(float)
        for op, per_op in self.counts.items():
            if op_ids is None or op in op_ids:
                for k, v in per_op.items():
                    out[k] += v
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span, in start order of their calls."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
