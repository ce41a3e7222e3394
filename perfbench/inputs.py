"""Seeded workload inputs, made before the workload process starts.

The program under test receives only what these functions write: the
ladder's netlist files, and the list of corpus file pairs for
compare_stream. desk_train trains on the shipped corpus as it is.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import ladder

# One round of netlist_ladder: a fixed multiset, so every run has the
# same median rung. Nodes: 64, 130, 256, 258, 512 (dense), 514 and 768
# (sparse, past encode.SPARSE_THRESHOLD = 512), and a 400-stage inverter
# chain that overflows the builder's recursion today.
RUNGS = [("parity", 32), ("adder", 16), ("parity", 128), ("adder", 32),
         ("parity", 256), ("adder", 64), ("parity", 384), ("chain", 400)]
# Netlists per rung; round r compiles variant r mod LADDER_VARIANTS. Two
# seeds of one rung can differ by 10% in compile time, so a run averages
# over several instead of resting its median on one.
LADDER_VARIANTS = 4

VARIANT_STEM = re.compile(r"^(?P<base>.+)_v\d+$")


def write_ladder(out_dir: Path, seed: int) -> list[dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    rungs = []
    for shape, size in RUNGS:
        paths = []
        for variant in range(LADDER_VARIANTS):
            netlist = ladder.SHAPES[shape](size, seed * LADDER_VARIANTS + variant)
            path = out_dir / f"{netlist.name}_{variant}.v"
            path.write_text(netlist.text)
            paths.append(str(path))
        rungs.append({"name": netlist.name, "paths": paths, "kinds": netlist.kinds})
    return rungs


def corpus_designs(root: Path) -> list[dict]:
    """Every design file with its family and abstraction, laid out as
    ``ipsim.corpus.scan_corpus`` reads a directory tree."""
    designs = []
    for family in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(family.rglob("*.v")):
            rel = path.relative_to(family)
            netlist = "netlist" in rel.parts[:-1] or path.stem.endswith("_nl")
            designs.append({"family": family.name, "path": str(path),
                            "abstraction": "netlist" if netlist else "rtl"})
    return designs


def compare_stream(root: Path, seed: int) -> list[dict]:
    """One round of compare_stream, all pairs within one abstraction level.

    Every ``_v<i>`` variant is paired with its seed design. The designs of
    each level are then put in a seeded cyclic order and each is paired
    with the next, which gives mostly cross-family and some same-family
    pairs. Every design is thus compiled the same number of times in every
    round, whatever the seed, so the work per round does not depend on it.
    """
    designs = corpus_designs(root)
    by_path = {d["path"]: d for d in designs}
    ops = []
    for d in designs:
        path = Path(d["path"])
        match = VARIANT_STEM.match(path.stem)
        if match:
            base = str(path.with_name(match.group("base") + path.suffix))
            if base not in by_path:
                raise ValueError(f"variant {path} has no seed design")
            ops.append({"a": base, "b": d["path"], "label": 1, "variant": True})
    rng = random.Random(f"compare_stream/{seed}")
    for level in ("rtl", "netlist"):
        ring = [d for d in designs if d["abstraction"] == level]
        rng.shuffle(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            label = 1 if a["family"] == b["family"] else -1
            ops.append({"a": a["path"], "b": b["path"], "label": label, "variant": False})
    rng.shuffle(ops)
    return ops


def write_inputs(workload: str, seed: int, corpus: Path, out_dir: Path) -> Path:
    """Write the workload's input spec and return its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "corpus": str(corpus)}
    if workload == "netlist_ladder":
        spec["rungs"] = write_ladder(out_dir / "ladder", seed)
    elif workload == "compare_stream":
        spec["stream"] = compare_stream(corpus, seed)
        spec["checkpoint"] = str(out_dir / "model.ckpt")
    path = out_dir / "spec.json"
    path.write_text(json.dumps(spec, indent=1))
    return path
