"""Run one workload in this fresh interpreter and write its result.

Started by ``run.py`` once per set-up probe and once per measured run:

    python3 perfbench/workload.py SPEC OUT --mode probe|run|trace
        --seconds S --t0 T

T is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` spans
interpreter start, the ``ipsim`` import and the workload's set-up. Ops
run in whole rounds until S seconds have passed. Peak RSS is read when
the timed window ends; the checks run after it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import VARIANT_STEM
from tracing import OpContext, Tracer, layer_metrics

DESK_EPOCHS = 6         # epochs per desk_train round, one training from init
# The desk recipe's seed, for its pair split and its training. desk_train
# does not take the workload seed: backward calls per epoch follow the
# training trajectory and range from 450 to 970 over seeds 0-11, which
# would make op_p50_ms depend on the seed by about 10%.
DESK_SEED = 9
MIN_ACCURACY = 0.90     # held-out accuracy at delta 0.5, as the desk criterion
# Weights for compare_stream and netlist_ladder. Inference cost does not
# depend on them, and some init seeds leave shipped designs with an
# all-zero embedding, which ``detect`` refuses to score (see README.md).
MODEL_SEED = 0
TOLERANCE = 1e-9


def _close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= TOLERANCE))


class DeskTrain:
    """Rounds of the desk recipe trained from init; op = one epoch."""

    def __init__(self, spec, ipsim, ctx):
        self.ipsim, self.ctx = ipsim, ctx
        self.hyper = ipsim.model.Hyper(hidden_dim=16, num_layers=2, pool_ratio=0.5,
                                       readout="max", dropout=0.1)
        self.config = ipsim.train.TrainConfig(
            lr=0.005, optimizer="adam", batch_size=64, epochs=DESK_EPOCHS, margin=0.5,
            delta=0.5, patience=None, seed=DESK_SEED)
        self.corpus = spec["corpus"]
        self.results = []
        self.notes = {}

    def setup(self):
        corpus = self.ipsim.corpus
        families = corpus.scan_corpus(self.corpus)
        self.entries = corpus.flatten_families(families)
        self.graphs = corpus.load_graphs(self.entries)
        self.tensors = {name: self.ipsim.encode.encode(g) for name, g in self.graphs.items()}
        train_recs, test_recs = corpus.split_pairs(corpus.make_pairs(families), 0.2,
                                                   seed=DESK_SEED)
        self.train_pairs = [p.as_tuple() for p in train_recs]
        self.test_pairs = [p.as_tuple() for p in test_recs]

    def round(self, index, latencies):
        marks = [perf_counter()]
        self.ctx.begin()

        def log(_row):
            marks.append(perf_counter())
            self.ctx.begin()

        result = self.ipsim.train.train(self.tensors, self.train_pairs, self.test_pairs,
                                        self.hyper, self.config, log=log)
        self.results.append(result)
        latencies.extend(b - a for a, b in zip(marks, marks[1:]))
        return DESK_EPOCHS, 0, DESK_EPOCHS * len(self.train_pairs)

    def check(self, refmodel) -> list[str]:
        ipsim, problems = self.ipsim, []
        variants = _variant_pairs(self.entries)
        accuracies = []
        for i, result in enumerate(self.results):
            losses = [row.train_loss for row in result.trace]
            if not all(math.isfinite(x) for x in losses):
                problems.append(f"round {i}: non-finite loss {losses}")
            elif not losses[-1] < losses[0]:
                problems.append(f"round {i}: loss did not fall {losses}")
            emb = {name: ipsim.model.embed(result.params, gt, self.hyper)
                   for name, gt in self.tensors.items()}
            for name, graph in self.graphs.items():
                ref = refmodel.embed_graph(graph, ipsim.dfg.NODE_KINDS, result.params,
                                           self.hyper.pool_ratio)
                if not _close(emb[name], ref):
                    problems.append(f"round {i}: {name} embedding differs from reference")
            for base, variant in variants:
                if not (emb[base].any() and emb[variant].any()):
                    problems.append(f"round {i}: {variant} or {base} has a zero embedding")
                    continue
                score = ipsim.detect.judge(base, variant, emb[base], emb[variant]).score
                if abs(score - 1.0) > TOLERANCE:
                    problems.append(f"round {i}: {variant} scores {score!r} against {base}")
            acc, _ = ipsim.train.evaluate(result.params, self.hyper, self.tensors,
                                          self.test_pairs, self.config.delta)
            accuracies.append(acc)
            if acc < MIN_ACCURACY:
                problems.append(f"round {i}: held-out accuracy {acc} < {MIN_ACCURACY}")
        self.notes["held_out_accuracy"] = accuracies
        return problems


def _variant_pairs(entries) -> list[tuple[str, str]]:
    """(seed design, variant) name pairs for every shipped ``_v<i>`` file."""
    pairs = []
    for e in entries:
        match = VARIANT_STEM.match(e.path.stem)
        if match:
            pairs.append((f"{e.family}:{e.abstraction}:{match.group('base')}", e.name))
    return pairs


class CompareStream:
    """Closed loop, one caller; op = compile, encode, embed and judge one
    pair from disk, with nothing cached between ops."""

    def __init__(self, spec, ipsim, ctx):
        self.ipsim, self.ctx = ipsim, ctx
        self.stream = spec["stream"]
        self.checkpoint = spec["checkpoint"]
        self.outputs = []
        self.notes = {}

    def setup(self):
        model, train = self.ipsim.model, self.ipsim.train
        hyper = model.Hyper()
        train.save_checkpoint(self.checkpoint, model.init_params(hyper, MODEL_SEED), hyper)
        self.params, self.hyper, _ = train.load_checkpoint(self.checkpoint)

    def _embed(self, path):
        ipsim = self.ipsim
        graph = ipsim.pipeline.compile_design([path])
        return ipsim.model.embed(self.params, ipsim.encode.encode(graph), self.hyper)

    def round(self, index, latencies):
        for position, op in enumerate(self.stream):
            self.ctx.begin()
            start = perf_counter()
            emb_a = self._embed(op["a"])
            emb_b = self._embed(op["b"])
            verdict = self.ipsim.detect.judge(op["a"], op["b"], emb_a, emb_b)
            latencies.append(perf_counter() - start)
            self.outputs.append((position, emb_a, emb_b, verdict.score))
        return len(self.stream), 0, len(self.stream)

    def check(self, refmodel) -> list[str]:
        ipsim, problems, ref = self.ipsim, [], {}
        for op in self.stream:
            for path in (op["a"], op["b"]):
                if path not in ref:
                    graph = ipsim.pipeline.compile_design([path])
                    ref[path] = refmodel.embed_graph(graph, ipsim.dfg.NODE_KINDS,
                                                     self.params, self.hyper.pool_ratio)
        for index, emb_a, emb_b, score in self.outputs:
            op = self.stream[index]
            a, b = ref[op["a"]], ref[op["b"]]
            if not (_close(emb_a, a) and _close(emb_b, b)):
                problems.append(f"{op['a']} vs {op['b']}: embedding differs from reference")
            if abs(score - refmodel.cosine(a, b)) > TOLERANCE:
                problems.append(f"{op['a']} vs {op['b']}: score {score!r} differs from reference")
            if op["variant"] and abs(score - 1.0) > TOLERANCE:
                problems.append(f"{op['b']} scores {score!r} against its seed design")
        return problems


class NetlistLadder:
    """Rounds of the fixed rung multiset; op = compile and embed one
    netlist. Round i compiles each rung's variant i mod the variant
    count. An op that raises counts as failed."""

    def __init__(self, spec, ipsim, ctx):
        self.ipsim, self.ctx = ipsim, ctx
        self.rungs = spec["rungs"]
        self.outputs = []
        self.failures = {}
        self.notes = {}

    def setup(self):
        self.hyper = self.ipsim.model.Hyper()
        self.params = self.ipsim.model.init_params(self.hyper, MODEL_SEED)

    def round(self, index, latencies):
        ipsim, failed, nodes = self.ipsim, 0, 0
        variant = index % len(self.rungs[0]["paths"])
        for position, rung in enumerate(self.rungs):
            self.ctx.begin(rung["name"])
            start = perf_counter()
            try:
                graph = ipsim.pipeline.compile_design([rung["paths"][variant]])
                emb = ipsim.model.embed(self.params, ipsim.encode.encode(graph), self.hyper)
            except Exception as exc:  # a failing op is counted and reported, not fatal
                failed += 1
                self.failures.setdefault(rung["name"], type(exc).__name__)
                continue
            latencies.append(perf_counter() - start)
            nodes += graph.num_nodes
            self.outputs.append((position, variant, graph.kind_counts(), emb))
        return len(self.rungs), failed, nodes

    def check(self, refmodel) -> list[str]:
        ipsim, problems, ref = self.ipsim, [], {}
        self.notes["failed_rungs"] = self.failures
        for name in self.failures:
            if not name.startswith("chain_"):
                problems.append(f"rung {name} failed: {self.failures[name]}")
        for index, variant, kinds, emb in self.outputs:
            rung = self.rungs[index]
            if kinds != rung["kinds"]:
                problems.append(f"rung {rung['name']}: kinds {kinds} != {rung['kinds']}")
            if (index, variant) not in ref:
                graph = ipsim.pipeline.compile_design([rung["paths"][variant]])
                ref[index, variant] = refmodel.embed_graph(
                    graph, ipsim.dfg.NODE_KINDS, self.params, self.hyper.pool_ratio)
            if not _close(emb, ref[index, variant]):
                problems.append(f"rung {rung['name']}: embedding differs from reference")
        return problems


WORKLOADS = {"desk_train": DeskTrain, "compare_stream": CompareStream,
             "netlist_ladder": NetlistLadder}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    spec = json.loads(args.spec.read_text())

    start = perf_counter()
    import ipsim.corpus, ipsim.detect, ipsim.dfg, ipsim.encode  # noqa: E401
    import ipsim.model, ipsim.pipeline, ipsim.train  # noqa: E401
    import_s = perf_counter() - start

    ctx = OpContext()
    tracer = Tracer(ctx) if args.mode == "trace" else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[spec["workload"]](spec, ipsim, ctx)
    workload.setup()
    if tracer:
        tracer.uninstall()
    first = perf_counter()
    result = {"setup_s": first - args.t0, "import_s": import_s}
    if args.mode == "probe":
        args.out.write_text(json.dumps(result))
        return 0

    # Traced runs take rounds in pairs, round i once untraced and once
    # traced, so the overhead compares the same work at the same machine
    # speed. The order alternates from pair to pair: the second of two
    # compiles of one netlist can be 15% faster or slower than the first.
    # Only the traced rounds record spans.
    latencies: dict[bool, list[float]] = {False: [], True: []}
    ops = {False: 0, True: 0}
    work = {False: 0, True: 0}
    busy = {False: 0.0, True: 0.0}
    attempted = failed = rounds = 0
    while perf_counter() - first < args.seconds or (tracer and rounds % 2):
        traced = bool(tracer) and rounds % 2 != rounds // 2 % 2
        if traced:
            tracer.install()
        start = perf_counter()
        done, bad, units = workload.round(rounds // 2 if tracer else rounds, latencies[traced])
        busy[traced] += perf_counter() - start
        if traced:
            tracer.uninstall()
        attempted += done
        failed += bad
        ops[traced] += done
        work[traced] += units
        rounds += 1
    window = perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import refmodel
    problems = workload.check(refmodel)
    plain = latencies[False]
    result.update({
        "attempted": attempted, "failed": failed, "problems": problems,
        "notes": workload.notes, "ops_timed": len(plain) + len(latencies[True]),
        "op_p50_ms": statistics.median(plain) * 1e3 if plain else None,
        "work_per_s": work[False] / (window if not tracer else busy[False]),
        "peak_rss_mb": peak_rss_mb, "window_s": window,
    })
    if tracer:
        layers = layer_metrics(tracer.spans, ops[True], import_s)
        layers["trace.overhead_op_p50_pct"] = (
            statistics.median(latencies[True]) / statistics.median(plain) - 1) * 100
        layers["trace.overhead_work_per_s_pct"] = (
            (work[False] / busy[False]) / (work[True] / busy[True]) - 1) * 100
        result["layers"] = layers
        tracer.dump(args.out.with_suffix(".spans.json"))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
