#!/usr/bin/env python3
"""End-to-end desk experiment on the shipped corpus.

Compiles every design, builds the labeled pair set, trains the detector
with the pinned configuration, and reports held-out accuracy, the swept
decision threshold, and per-class mean scores. Writes a checkpoint and a
per-epoch trace next to the corpus by default.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ipsim.corpus import (  # noqa: E402
    flatten_families,
    load_graphs,
    make_pairs,
    scan_corpus,
    split_pairs,
)
from ipsim.detect import sweep_delta  # noqa: E402
from ipsim.encode import encode  # noqa: E402
from ipsim.model import Hyper  # noqa: E402
from ipsim.train import (  # noqa: E402
    TrainConfig,
    evaluate,
    save_checkpoint,
    train,
    write_trace,
)

# One fixed recipe so two runs of this script agree byte for byte.
PINNED_SEED = 9
PINNED = dict(lr=0.005, optimizer="adam", batch_size=64, epochs=50,
              margin=0.5, delta=0.5, patience=None)
HYPER = Hyper(hidden_dim=16, num_layers=2, pool_ratio=0.5, readout="max",
              dropout=0.1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=Path,
                        default=Path(__file__).resolve().parent.parent / "corpus")
    parser.add_argument("--out", type=Path, default=Path("desk_model.ckpt"))
    parser.add_argument("--trace", type=Path, default=Path("desk_trace.csv"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--epochs", type=int, default=PINNED["epochs"])
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    families = scan_corpus(args.corpus)
    entries = flatten_families(families)
    graphs = load_graphs(entries)
    tensors = {name: encode(g) for name, g in graphs.items()}
    pairs = make_pairs(families)
    train_pairs, test_pairs = split_pairs(pairs, 0.2, seed=args.seed)
    print(f"families={len(families)} designs={len(entries)} pairs={len(pairs)} "
          f"(train {len(train_pairs)} / test {len(test_pairs)})")

    recipe = dict(PINNED, epochs=args.epochs)
    config = TrainConfig(seed=args.seed, **recipe)

    def log(row):
        if not args.quiet:
            print(f"epoch {row.epoch:3d}  loss {row.train_loss:.6f}  "
                  f"train_acc {row.train_acc:.4f}  test_acc {row.test_acc:.4f}")

    result = train(tensors, [p.as_tuple() for p in train_pairs],
                   [p.as_tuple() for p in test_pairs], HYPER, config, log=log)

    _, scores = evaluate(result.params, HYPER, tensors,
                         [p.as_tuple() for p in test_pairs], config.delta)
    labels = [p.label for p in test_pairs]
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == -1]
    delta, acc = sweep_delta(labels, scores)
    wall = time.perf_counter() - t0

    meta = {"seed": args.seed, "epochs_run": len(result.trace),
            "best_epoch": result.best_epoch, "designs": len(entries),
            "train_pairs": len(train_pairs), "test_pairs": len(test_pairs)}
    args.out.write_bytes(save_checkpoint(None, result.params, HYPER, meta))
    write_trace(args.trace, result.trace)

    print(f"held-out accuracy {acc:.4f} at swept delta {delta:+.2f}")
    print(f"mean similar score  {float(np.mean(pos)):+.4f}")
    print(f"mean different score {float(np.mean(neg)):+.4f}")
    print(f"wall time {wall:.1f}s; wrote {args.out} and {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
