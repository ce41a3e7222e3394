#!/usr/bin/env python3
"""End-to-end desk experiment on the shipped corpus.

The same run as ``ipsim train --seed 9 --lr 0.005 --optimizer adam
--patience -1`` (same checkpoint and trace, byte for byte), followed by
a held-out report: accuracy at the swept decision threshold and the
per-class mean scores. Writes the checkpoint and the per-epoch trace to
the working directory by default.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ipsim.corpus import flatten_families, load_corpus, scan_corpus, split_pairs  # noqa: E402
from ipsim.detect import sweep_delta  # noqa: E402
from ipsim.model import Hyper  # noqa: E402
from ipsim.train import TrainConfig, fit, score_pairs, write_trace  # noqa: E402

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
    corpus = load_corpus(flatten_families(families))
    train_pairs, test_pairs = split_pairs(corpus.pairs, 0.2, seed=args.seed)
    print(f"families={len(families)} designs={len(corpus.entries)} "
          f"pairs={len(corpus.pairs)} (train {len(train_pairs)} / test {len(test_pairs)})")
    config = TrainConfig(seed=args.seed, **dict(PINNED, epochs=args.epochs))

    def log(row):
        if not args.quiet:
            print(f"epoch {row.epoch:3d}  loss {row.train_loss:.6f}  "
                  f"train_acc {row.train_acc:.4f}  test_acc {row.test_acc:.4f}")

    result, checkpoint = fit(corpus, train_pairs, test_pairs, HYPER, config, log=log)
    # Written before scoring, so a model that the report rejects (a zero
    # embedding) can still be inspected.
    args.out.write_bytes(checkpoint)
    write_trace(args.trace, result.trace)
    scores = score_pairs(result.params, HYPER, corpus.tensors, [p.as_tuple() for p in test_pairs])
    labels = [p.label for p in test_pairs]
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == -1]
    delta, acc = sweep_delta(labels, scores)
    wall = time.perf_counter() - t0

    print(f"held-out accuracy {acc:.4f} at swept delta {delta:+.2f}")
    print(f"mean similar score  {float(np.mean(pos)):+.4f}")
    print(f"mean different score {float(np.mean(neg)):+.4f}")
    print(f"wall time {wall:.1f}s; wrote {args.out} and {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
