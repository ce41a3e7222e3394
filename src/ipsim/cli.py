"""Command line interface.

Exit codes: 0 success (a compare verdict is data, not an exit status),
2 usage or input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import os
from pathlib import Path

import numpy as np

from ipsim import __version__
from ipsim.corpus import (
    flatten_families,
    load_corpus,
    read_pair_manifest,
    scan_corpus,
    split_pairs,
    write_pair_manifest,
)
from ipsim.detect import DEFAULT_DELTA, Verdict, check_delta, sweep_delta
from ipsim.dfg import serialize
from ipsim.encode import GraphTensors, encode, pack
from ipsim.errors import IpsimError
from ipsim.frontend.preprocess import read_source
from ipsim.model import Hyper, embed
from ipsim.pipeline import compile_design
from ipsim.project import pca_project, projection_csv
from ipsim.train import OPTIMIZERS, TrainConfig, fit, load_checkpoint, score_pairs, write_trace
from ipsim.variants import synthesize_variants

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def atomic_write(path: str | Path, data: str | bytes):
    """Write through a temp file and rename so readers never observe a
    partial file."""
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Timer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.last = time.perf_counter()

    def lap(self, stage: str, samples: int | None = None):
        now = time.perf_counter()
        if self.enabled:
            extra = ""
            if samples:
                extra = f" ({1000.0 * (now - self.last) / samples:.3f} ms/sample)"
            print(f"[timing] {stage}: {now - self.last:.3f}s{extra}", file=sys.stderr)
        self.last = now


def _parse_defines(items: list[str] | None) -> dict[str, str]:
    defines = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not name:
            raise IpsimError(f"bad define {item!r}, expected NAME or NAME=VALUE")
        defines[name] = value
    return defines


def _add_corpus_args(sub):
    sub.add_argument("--corpus", help="corpus root directory (family/*.v)")
    sub.add_argument("--manifest", help="design manifest: 'family_id, path, rtl|netlist' lines;"
                     " overrides --corpus")
    sub.add_argument("--mix-abstractions", action="store_true",
                     help="pair RTL designs with netlist designs too")


def _load_corpus(args, timer: _Timer):
    """Load the --corpus/--manifest designs, skipping out-of-subset ones."""
    if not (args.corpus or args.manifest):
        raise IpsimError("need --corpus or --manifest")
    families = scan_corpus(args.corpus, manifest=args.manifest)

    def warn_skip(entry, exc):
        print(f"skipping {entry.path}: {exc.cause}", file=sys.stderr)

    corpus = load_corpus(flatten_families(families), args.mix_abstractions, on_skip=warn_skip)
    timer.lap("load", len(corpus.entries))
    return corpus


def _print_stats(graph):
    counts = graph.kind_counts()
    print(f"name: {graph.name}")
    print(f"nodes: {graph.num_nodes}")
    print(f"edges: {len(graph.edges)}")
    print(f"roots: {len(graph.roots)}")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")


def cmd_dfg(args) -> int:
    timer = _Timer(args.timing)
    graph = compile_design(args.files, top=args.top, defines=_parse_defines(args.define),
                           trimmed=not args.no_trim)
    timer.lap("compile")
    text = serialize(graph)
    if args.out:
        atomic_write(args.out, text + "\n")
    if args.stats:
        _print_stats(graph)
    elif not args.out:
        print(text)
    timer.lap("write")
    return EXIT_OK


def cmd_variants(args) -> int:
    source = read_source(args.file)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem
    for i, text in enumerate(synthesize_variants(source, args.count, args.seed, args.file)):
        target = out_dir / f"{stem}_v{i}.v"
        atomic_write(target, text)
        print(target)
    return EXIT_OK


def _hyper_from(args) -> Hyper:
    return Hyper(hidden_dim=args.hidden, num_layers=args.layers,
                 pool_ratio=args.pool_ratio, readout=args.readout,
                 dropout=args.dropout)


def cmd_train(args) -> int:
    timer = _Timer(args.timing)
    hyper = _hyper_from(args)
    config = TrainConfig(lr=args.lr, batch_size=args.batch_size, epochs=args.epochs,
                         margin=args.margin, delta=args.delta, seed=args.seed,
                         patience=args.patience if args.patience >= 0 else None,
                         optimizer=args.optimizer)
    corpus = _load_corpus(args, timer)
    train_pairs, test_pairs = split_pairs(corpus.pairs, args.test_fraction, seed=args.seed)
    print(f"designs: {len(corpus.entries)}  pairs: {len(corpus.pairs)} "
          f"(train {len(train_pairs)}, test {len(test_pairs)})")
    if args.pairs_out:
        paths = {e.name: e.path for e in corpus.entries}
        write_pair_manifest(args.pairs_out, train_pairs + test_pairs, paths)

    def log(row):
        if not args.quiet:
            test = "-" if row.test_acc is None else f"{row.test_acc:.4f}"
            print(f"epoch {row.epoch:3d}  loss {row.train_loss:.6f}  "
                  f"train_acc {row.train_acc:.4f}  test_acc {test}")

    result, data = fit(corpus, train_pairs, test_pairs, hyper, config, log=log)
    timer.lap("train", len(train_pairs) * len(result.trace))
    atomic_write(args.out, data)
    print(f"saved {args.out} (best epoch {result.best_epoch})")
    if args.trace:
        write_trace(args.trace, result.trace)
    timer.lap("write")
    return EXIT_OK


def _manifest_graphs(manifest, pairs) -> dict[str, GraphTensors]:
    """Each design ref the pairs of a pair manifest name, compiled and
    encoded once. A relative ref that is not a file from the working
    directory resolves against the manifest's directory."""
    base = Path(manifest).parent
    paths = {ref: Path(ref) for pair in pairs for ref in (pair.a, pair.b)}
    return {ref: encode(compile_design([path if path.is_absolute() or path.is_file() else base / ref]))
            for ref, path in paths.items()}


def cmd_compare(args) -> int:
    check_delta(args.delta)
    timer = _Timer(args.timing)
    params, hyper, _ = load_checkpoint(args.checkpoint)
    if args.batch:
        records = read_pair_manifest(args.batch)
        graphs = _manifest_graphs(args.batch, records)
        pairs = keys = [(rec.a, rec.b) for rec in records]
    elif args.a and args.b:
        # One file under two --top values is two designs.
        sides = [(args.a, args.top_a), (args.b, args.top_b)]
        names = [f"{path} (top {top})" if top else path for path, top in sides]
        graphs = {name: encode(compile_design([path], top=top))
                  for name, (path, top) in dict(zip(names, sides)).items()}
        pairs, keys = [(args.a, args.b)], [tuple(names)]
    else:
        raise IpsimError("compare needs two design files or --batch")
    timer.lap("load", len(graphs))
    scores = score_pairs(params, hyper, graphs, keys)
    timer.lap("score", len(pairs))
    lines = [Verdict(a, b, score, args.delta).to_json() for (a, b), score in zip(pairs, scores)]
    for line in lines:
        print(line)
    if args.jsonl:
        with open(args.jsonl, "a") as fh:
            for line in lines:
                fh.write(line + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    check_delta(args.delta)
    timer = _Timer(args.timing)
    params, hyper, _ = load_checkpoint(args.checkpoint)
    if args.pairs:
        pairs = [p for p in read_pair_manifest(args.pairs)
                 if args.split == "all" or p.split == args.split]
        graphs = _manifest_graphs(args.pairs, pairs)
        timer.lap("load", len(graphs))
    elif args.corpus or args.manifest:
        corpus = _load_corpus(args, timer)
        graphs, pairs = corpus.tensors, corpus.pairs
        if args.split != "all":
            train_pairs, test_pairs = split_pairs(pairs, args.test_fraction, seed=args.seed)
            pairs = test_pairs if args.split == "test" else train_pairs
    else:
        raise IpsimError("need --corpus, --manifest or --pairs")
    if not pairs:
        raise IpsimError("no pairs to evaluate")
    scores = score_pairs(params, hyper, graphs, [p.as_tuple() for p in pairs])
    timer.lap("score", len(pairs))
    labels = [p.label for p in pairs]
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == -1]
    tp = sum(s > args.delta for s in pos)
    tn = sum(s <= args.delta for s in neg)
    fn, fp = len(pos) - tp, len(neg) - tn
    acc = (tp + tn) / len(pairs)
    print(f"pairs: {len(pairs)} (+{len(pos)} / -{len(neg)})")
    print(f"accuracy at delta={args.delta}: {acc:.4f}")
    print(f"confusion: TP={tp} TN={tn} FP={fp} FN={fn}")
    if pos:
        print(f"mean similar score: {float(np.mean(pos)):.4f}")
    if neg:
        print(f"mean different score: {float(np.mean(neg)):.4f}")
    if args.sweep:
        best_delta, best_acc = sweep_delta(labels, scores)
        print(f"best delta: {best_delta:.2f} (accuracy {best_acc:.4f})")
    if args.out:
        verdicts = [Verdict(p.a, p.b, s, args.delta) for p, s in zip(pairs, scores)]
        if args.format == "csv":
            lines = ["a,b,score,delta,label"] + [
                f"{v.a},{v.b},{v.score:.10g},{v.delta},{v.label}" for v in verdicts]
        else:
            lines = [v.to_json() for v in verdicts]
        atomic_write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_project(args) -> int:
    timer = _Timer(args.timing)
    params, hyper, _ = load_checkpoint(args.checkpoint)
    corpus = _load_corpus(args, timer)
    names = [e.name for e in corpus.entries]
    fams = [e.family for e in corpus.entries]
    matrix = embed(params, pack([corpus.tensors[name] for name in names]), hyper)
    projection = pca_project(matrix, k=2)
    timer.lap("project", len(names))
    atomic_write(args.out, projection_csv(names, fams, projection.coords))
    print(f"wrote {args.out} (variance explained: "
          f"{projection.explained[0]:.3f}, {projection.explained[1]:.3f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ipsim", description="RTL similarity detection toolkit")
    parser.add_argument("--version", action="version", version=f"ipsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_dfg = subs.add_parser("dfg", help="compile Verilog to a data-flow graph")
    p_dfg.add_argument("files", nargs="+")
    p_dfg.add_argument("--top", help="top module (default: inferred)")
    p_dfg.add_argument("--define", "-D", action="append", metavar="NAME[=VALUE]")
    p_dfg.add_argument("--out", help="write graph JSON here instead of stdout")
    p_dfg.add_argument("--stats", action="store_true", help="print node/edge statistics")
    p_dfg.add_argument("--no-trim", action="store_true", help="keep alias and dead nodes")
    p_dfg.add_argument("--timing", action="store_true")
    p_dfg.set_defaults(func=cmd_dfg)

    p_var = subs.add_parser("variants", help="synthesize dataflow-preserving rewrites")
    p_var.add_argument("file")
    p_var.add_argument("--count", type=int, default=4)
    p_var.add_argument("--seed", type=int, default=0)
    p_var.add_argument("--out-dir", required=True)
    p_var.set_defaults(func=cmd_variants)

    p_train = subs.add_parser("train", help="train an embedding model on a corpus")
    _add_corpus_args(p_train)
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--trace", help="write per-epoch CSV here")
    p_train.add_argument("--pairs-out", help="write the labeled pair split as CSV")
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--lr", type=float, default=0.001)
    p_train.add_argument("--optimizer", choices=OPTIMIZERS, default="sgd")
    p_train.add_argument("--margin", type=float, default=0.5)
    p_train.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--test-fraction", type=float, default=0.2)
    p_train.add_argument("--patience", type=int, default=10,
                         help="early-stop patience in epochs, -1 disables")
    p_train.add_argument("--hidden", type=int, default=16)
    p_train.add_argument("--layers", type=int, default=2)
    p_train.add_argument("--pool-ratio", type=float, default=0.5)
    p_train.add_argument("--readout", choices=("max", "mean", "sum"), default="max")
    p_train.add_argument("--dropout", type=float, default=0.1)
    p_train.add_argument("--quiet", action="store_true")
    p_train.add_argument("--timing", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_cmp = subs.add_parser("compare", help="score two designs against a threshold")
    p_cmp.add_argument("a", nargs="?", help="first design file")
    p_cmp.add_argument("b", nargs="?", help="second design file")
    p_cmp.add_argument("--checkpoint", "--model", dest="checkpoint", required=True)
    p_cmp.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p_cmp.add_argument("--top-a", help="top module of the first design")
    p_cmp.add_argument("--top-b", help="top module of the second design")
    p_cmp.add_argument("--batch", help="pair manifest (a_path,b_path,label,split) to score")
    p_cmp.add_argument("--jsonl", help="append verdict records to this JSONL file")
    p_cmp.add_argument("--timing", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = subs.add_parser("eval", help="score labeled pairs with a trained model")
    _add_corpus_args(p_eval)
    p_eval.add_argument("--pairs", help="pair manifest CSV instead of a corpus")
    p_eval.add_argument("--checkpoint", "--model", dest="checkpoint", required=True)
    p_eval.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p_eval.add_argument("--sweep", action="store_true",
                        help="report the accuracy-maximizing threshold")
    p_eval.add_argument("--split", choices=("all", "train", "test"), default="all",
                        help="pairs to score; with --pairs, rows whose split column matches")
    p_eval.add_argument("--test-fraction", type=float, default=0.2)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", help="write per-pair verdicts here")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--timing", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_proj = subs.add_parser("project", help="write 2d embedding coordinates as CSV")
    _add_corpus_args(p_proj)
    p_proj.add_argument("--checkpoint", "--model", dest="checkpoint", required=True)
    p_proj.add_argument("--out", required=True)
    p_proj.add_argument("--timing", action="store_true")
    p_proj.set_defaults(func=cmd_project)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IpsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal bug escape hatch
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
