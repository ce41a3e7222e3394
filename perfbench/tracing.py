"""Span recorder that wraps the program's layers from outside.

``Tracer.install`` replaces the module attributes through which callers
reach each layer with wrappers that record a span (id, parent, name,
start, end, op, tag, note). Spans stay in memory; ``dump`` writes them as
JSON and ``layer_metrics`` reduces them to the per-layer metrics listed
in ``LAYER_METRICS``. A span's parent is the innermost open span of the
same thread, so self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

from inputs import RUNGS

# (module, attribute, span name). Two steps have no public entry point:
# ``_cosine_grads`` and ``_Optimizer.step`` are wrapped where ``train``
# reaches them. ``forward`` is wrapped in both modules that call it.
TARGETS = [
    ("ipsim.pipeline", "preprocess", "frontend.preprocess"),
    ("ipsim.pipeline", "parse_unit", "frontend.parse"),
    ("ipsim.pipeline", "flatten_hierarchy", "frontend.elaborate"),
    ("ipsim.pipeline", "build_dfg", "dfg.build"),
    ("ipsim.dfg", "trim", "dfg.trim"),
    ("ipsim.corpus", "load_graphs", "corpus.load_graphs"),
    ("ipsim.encode", "encode", "encode"),
    ("ipsim.model", "embed", "model.embed"),
    ("ipsim.model", "forward", "model.forward"),
    ("ipsim.train", "forward", "model.forward"),
    ("ipsim.train", "backward", "model.backward"),
    ("ipsim.train", "_cosine_grads", "train.pair_grad"),
    ("ipsim.train._Optimizer", "step", "train.optimizer_step"),
    ("ipsim.train", "evaluate", "train.evaluate"),
    ("ipsim.train", "load_checkpoint", "train.load_checkpoint"),
    ("ipsim.detect", "judge", "detect.judge"),
]


def _note(name: str, args, result):
    """Sizes recorded with a span: graph sizes around trim, and whether
    an embedding took the sparse path."""
    if name == "dfg.trim":
        return [args[0].num_nodes, result.num_nodes]
    if name == "model.embed":
        return bool(args[1].is_sparse)
    return None


def _resolve(path: str):
    """A module by dotted path, or a class inside one."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class OpContext:
    """Which op the workload is running; spans carry it."""

    def __init__(self):
        self.op = 0
        self.tag = ""

    def begin(self, tag: str = ""):
        self.op += 1
        self.tag = tag


class Tracer:
    def __init__(self, ctx: OpContext):
        self.ctx = ctx
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, ids, ctx = self.spans, self._ids, self.ctx

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                note = _note(name, args, result) if result is not None else None
                spans.append((sid, parent, name, start, end, ctx.op, ctx.tag, note))

        return traced

    def install(self):
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path):
        keys = ["id", "parent", "name", "start_ns", "end_ns", "op", "tag", "note"]
        with open(path, "w") as fh:
            json.dump({"keys": keys, "spans": self.spans}, fh, separators=(",", ":"))


# (metric, unit). Times are per call unless the name ends in _calls, which
# counts calls per op. dfg.build_ms is self time (trim excluded).
LAYER_METRICS = [
    ("import.ipsim_ms", "ms"),
    ("corpus.load_graphs_ms", "ms"),
    ("train.load_checkpoint_ms", "ms"),
    ("frontend.preprocess_ms", "ms"),
    ("frontend.parse_ms", "ms"),
    ("frontend.elaborate_ms", "ms"),
    ("dfg.build_ms", "ms"),
    ("dfg.trim_ms", "ms"),
    *((f"dfg.trim_ms.{shape}_{size}", "ms") for shape, size in RUNGS),
    ("dfg.nodes_raw", "count"),
    ("dfg.nodes_trimmed", "count"),
    ("encode.ms", "ms"),
    ("model.embed_ms", "ms"),
    ("model.embed_ms.dense", "ms"),
    ("model.embed_ms.sparse", "ms"),
    ("model.forward_us", "us"),
    ("model.forward_calls", "count/op"),
    ("model.backward_us", "us"),
    ("model.backward_calls", "count/op"),
    ("train.pair_grad_us", "us"),
    ("train.pair_grad_calls", "count/op"),
    ("train.optimizer_step_us", "us"),
    ("train.evaluate_ms", "ms"),
    ("detect.judge_us", "us"),
    ("trace.spans_per_op", "count/op"),
    ("trace.overhead_op_p50_pct", "%"),
    ("trace.overhead_work_per_s_pct", "%"),
]

_SCALE = {"ms": 1e-6, "us": 1e-3}


def layer_metrics(spans: list[tuple], ops: int, import_s: float) -> dict[str, float]:
    """Reduce spans to every per-layer metric except the two overhead
    figures, which need an untraced run. A layer never called reads 0."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, name, start, end, *_ in spans:
        if parent:
            child_ns[parent] += end - start
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    sizes = [0, 0]
    for sid, parent, name, start, end, op, tag, note in spans:
        dur = end - start
        keys = [name]
        if name == "dfg.build":
            dur -= child_ns[sid]
        elif name == "dfg.trim":
            keys.append(f"dfg.trim.{tag}")
            if note:
                sizes[0] += note[0]
                sizes[1] += note[1]
        elif name == "model.embed":
            keys.append("model.embed.sparse" if note else "model.embed.dense")
        for key in keys:
            total[key] += dur
            calls[key] += 1

    def per_call(span: str, unit: str) -> float:
        return total[span] * _SCALE[unit] / calls[span] if calls[span] else 0.0

    out = {"import.ipsim_ms": import_s * 1e3}
    for metric, unit in LAYER_METRICS:
        if metric in out or metric.startswith("trace.overhead"):
            continue
        if metric == "dfg.nodes_raw":
            out[metric] = sizes[0] / calls["dfg.trim"] if calls["dfg.trim"] else 0.0
        elif metric == "dfg.nodes_trimmed":
            out[metric] = sizes[1] / calls["dfg.trim"] if calls["dfg.trim"] else 0.0
        elif metric == "trace.spans_per_op":
            out[metric] = len(spans) / ops
        elif metric.endswith("_calls"):
            out[metric] = calls[metric[: -len("_calls")]] / ops
        else:
            out[metric] = per_call(_span_of(metric), unit)
    return out


def _span_of(metric: str) -> str:
    """``dfg.trim_ms.parity_32`` -> ``dfg.trim.parity_32``; ``encode.ms`` ->
    ``encode``; ``model.forward_us`` -> ``model.forward``."""
    if metric == "encode.ms":
        return "encode"
    head, _, rest = metric.partition("_ms")
    if not _:
        head, _, rest = metric.partition("_us")
    return head + rest
