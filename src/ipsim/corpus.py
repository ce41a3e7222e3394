"""Design corpus handling: discovery, pair labeling, and splits.

A corpus is either a directory tree (``root/<family>/*.v``, with an
optional ``rtl``/``netlist`` subdirectory level or an ``_nl`` filename
suffix marking netlist members) or an explicit manifest of
``family_id, path, rtl|netlist`` lines, which takes precedence when
given. Same-family pairs are positives (+1), cross-family pairs are
negatives (-1), and RTL only pairs with RTL unless mixing is requested.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from ipsim.dfg import Graph
from ipsim.encode import GraphTensors, encode
from ipsim.errors import CorpusError, PipelineError, UnsupportedConstruct
from ipsim.pipeline import compile_design

ABSTRACTIONS = ("rtl", "netlist")


@dataclass(frozen=True)
class DesignEntry:
    family: str
    name: str           # unique id: family:abstraction:stem
    path: Path
    abstraction: str


@dataclass
class DesignFamily:
    family: str
    members: list[DesignEntry] = field(default_factory=list)


@dataclass(frozen=True)
class PairRecord:
    a: str
    b: str
    label: int          # +1 same family, -1 different
    split: str = ""     # "", "train", or "test"

    def as_tuple(self) -> tuple[str, str, int]:
        return (self.a, self.b, self.label)


def _entry(family: str, path: Path, abstraction: str, seen: set[str]) -> DesignEntry:
    if abstraction not in ABSTRACTIONS:
        raise CorpusError(f"{path}: abstraction must be rtl or netlist, got {abstraction!r}")
    name = f"{family}:{abstraction}:{path.stem}"
    if name in seen:
        raise CorpusError(f"duplicate design id {name!r}")
    seen.add(name)
    return DesignEntry(family=family, name=name, path=path, abstraction=abstraction)


def _infer_abstraction(path: Path, family_dir: Path) -> str:
    relative = path.relative_to(family_dir)
    if "netlist" in relative.parts[:-1] or path.stem.endswith("_nl"):
        return "netlist"
    return "rtl"


def scan_corpus(root: str | Path, manifest: str | Path | None = None) -> list[DesignFamily]:
    """Group designs by family, sorted by family id. A manifest wins over
    directory layout when both are available."""
    if manifest is not None:
        return group_families(read_manifest(manifest))
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    entries: list[DesignEntry] = []
    seen: set[str] = set()
    for family_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(family_dir.rglob("*.v")):
            entries.append(_entry(family_dir.name, path,
                                  _infer_abstraction(path, family_dir), seen))
    if not entries:
        raise CorpusError(f"no .v files found under {root}")
    return group_families(entries)


def group_families(entries: list[DesignEntry]) -> list[DesignFamily]:
    by_id: dict[str, DesignFamily] = {}
    for entry in entries:
        by_id.setdefault(entry.family, DesignFamily(entry.family)).members.append(entry)
    return [by_id[fid] for fid in sorted(by_id)]


def flatten_families(families: list[DesignFamily]) -> list[DesignEntry]:
    return [entry for fam in families for entry in fam.members]


def read_manifest(path: str | Path) -> list[DesignEntry]:
    """Manifest lines: ``family_id, path, rtl|netlist``. Blank lines,
    ``#`` comments, and a literal header line are ignored. Relative
    paths resolve against the manifest's directory."""
    path = Path(path)
    base = path.parent
    entries: list[DesignEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if fields == ["family", "path", "abstraction"] or fields == ["family_id", "path", "abstraction"]:
            continue
        if len(fields) != 3:
            raise CorpusError(f"{path}:{lineno}: expected 'family_id, path, rtl|netlist'")
        family, rel, abstraction = fields
        if not family or not rel:
            raise CorpusError(f"{path}:{lineno}: family and path are required")
        file_path = Path(rel)
        if not file_path.is_absolute():
            file_path = base / file_path
        if not file_path.is_file():
            raise CorpusError(f"{path}:{lineno}: no such file {file_path}")
        entries.append(_entry(family, file_path, abstraction, seen))
    if not entries:
        raise CorpusError(f"{path}: manifest lists no designs")
    return entries


def load_graphs(entries: list[DesignEntry], on_skip=None) -> dict[str, Graph]:
    """Compile every entry to a graph, in order. Out-of-subset designs are
    skipped through on_skip(entry, error) when given, otherwise they raise."""
    graphs: dict[str, Graph] = {}
    for entry in entries:
        try:
            graphs[entry.name] = compile_design([entry.path])
        except PipelineError as exc:
            if on_skip is not None and isinstance(exc.cause, UnsupportedConstruct):
                on_skip(entry, exc)
                continue
            raise
    return graphs


@dataclass
class Corpus:
    entries: list[DesignEntry]          # the designs that compiled, in order
    tensors: dict[str, GraphTensors]
    mix_abstractions: bool = False

    @cached_property
    def pairs(self) -> list[PairRecord]:
        """Labeled pairs of the compiled designs, built on first use so a
        one-family corpus still loads for projection."""
        return make_pairs(group_families(self.entries), self.mix_abstractions)


def load_corpus(entries: list[DesignEntry], mix_abstractions: bool = False,
                on_skip=None) -> Corpus:
    """Compile and encode every entry; skipped designs (see load_graphs)
    are left out of the kept entries and of the pairs."""
    graphs = load_graphs(entries, on_skip=on_skip)
    kept = [e for e in entries if e.name in graphs]
    tensors = {name: encode(g) for name, g in graphs.items()}
    return Corpus(kept, tensors, mix_abstractions)


def make_pairs(families: list[DesignFamily],
               mix_abstractions: bool = False) -> list[PairRecord]:
    """All unordered design pairs. Without mixing, only same-abstraction
    designs pair, so the count law C(n,2) holds per abstraction."""
    if len(families) < 2:
        raise CorpusError("pair generation needs at least two families")
    entries = flatten_families(families)
    pairs: list[PairRecord] = []
    for a, b in combinations(entries, 2):
        if not mix_abstractions and a.abstraction != b.abstraction:
            continue
        pairs.append(PairRecord(a.name, b.name, 1 if a.family == b.family else -1))
    return pairs


def split_pairs(pairs: list[PairRecord], test_fraction: float = 0.2,
                seed: int = 0) -> tuple[list[PairRecord], list[PairRecord]]:
    """Stratified-by-label seeded split; returned records carry their
    split tag."""
    if not 0.0 < test_fraction < 1.0:
        raise CorpusError(f"test fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, len(pairs)])))
    train: list[PairRecord] = []
    test: list[PairRecord] = []
    for label in (1, -1):
        bucket = [p for p in pairs if p.label == label]
        order = rng.permutation(len(bucket))
        chosen = set(order[:int(round(len(bucket) * test_fraction))].tolist())
        for i, pair in enumerate(bucket):
            if i in chosen:
                test.append(replace(pair, split="test"))
            else:
                train.append(replace(pair, split="train"))
    return train, test


def write_pair_manifest(path: str | Path, pairs: list[PairRecord],
                        paths_by_name: dict[str, Path] | None = None):
    """CSV of a_path,b_path,label,split; design names are written as-is
    unless a name-to-path mapping is supplied."""

    def ref(name: str) -> str:
        if paths_by_name and name in paths_by_name:
            return str(paths_by_name[name])
        return name

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_path", "b_path", "label", "split"])
        for pair in pairs:
            writer.writerow([ref(pair.a), ref(pair.b), pair.label, pair.split])


def read_pair_manifest(path: str | Path) -> list[PairRecord]:
    path = Path(path)
    pairs: list[PairRecord] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"a_path", "b_path", "label"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise CorpusError(f"{path}: pair manifest needs columns a_path,b_path,label[,split]")
        for lineno, row in enumerate(reader, start=2):
            try:
                label = int(row["label"])
            except (TypeError, ValueError):
                raise CorpusError(f"{path}:{lineno}: label must be +1 or -1")
            if label not in (1, -1):
                raise CorpusError(f"{path}:{lineno}: label must be +1 or -1")
            pairs.append(PairRecord(row["a_path"], row["b_path"], label,
                                    (row.get("split") or "").strip()))
    if not pairs:
        raise CorpusError(f"{path}: pair manifest lists no pairs")
    return pairs
