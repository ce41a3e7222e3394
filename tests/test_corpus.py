from math import comb
from pathlib import Path

import pytest

from ipsim.corpus import (
    group_families,
    load_corpus,
    load_graphs,
    make_pairs,
    read_manifest,
    read_pair_manifest,
    scan_corpus,
    split_pairs,
    write_pair_manifest,
)
from ipsim.errors import CorpusError, PipelineError

INV = "module inv(input x, output y);\n  assign y = ~x;\nendmodule\n"
BUF = "module buffer(input x, output y);\n  assign y = x;\nendmodule\n"
ORG = "module org(input a, input b, output y);\n  assign y = a | b;\nendmodule\n"
BAD = "module bad(input x, output y);\n  initial y = 0;\nendmodule\n"


def make_tree(root: Path) -> Path:
    (root / "famA").mkdir(parents=True)
    (root / "famA" / "netlist").mkdir()
    (root / "famB").mkdir()
    (root / "famA" / "one.v").write_text(INV)
    (root / "famA" / "two.v").write_text(BUF)
    (root / "famA" / "netlist" / "gates.v").write_text(INV)
    (root / "famA" / "three_nl.v").write_text(BUF)
    (root / "famB" / "one.v").write_text(ORG)
    (root / "famB" / "two.v").write_text(INV)
    return root


def test_scan_layout_and_abstractions(tmp_path):
    families = scan_corpus(make_tree(tmp_path))
    assert [f.family for f in families] == ["famA", "famB"]
    fam_a = {e.name: e for e in families[0].members}
    assert set(fam_a) == {
        "famA:rtl:one", "famA:rtl:two",
        "famA:netlist:gates", "famA:netlist:three_nl",
    }
    assert fam_a["famA:netlist:gates"].abstraction == "netlist"
    assert fam_a["famA:netlist:three_nl"].abstraction == "netlist"
    assert fam_a["famA:rtl:one"].abstraction == "rtl"
    assert all(e.path.is_file() for e in fam_a.values())


def test_scan_missing_or_empty_root(tmp_path):
    with pytest.raises(CorpusError):
        scan_corpus(tmp_path / "nope")
    (tmp_path / "hollow").mkdir()
    with pytest.raises(CorpusError):
        scan_corpus(tmp_path / "hollow")


def test_scan_duplicate_ids(tmp_path):
    (tmp_path / "famA" / "sub").mkdir(parents=True)
    (tmp_path / "famA" / "one.v").write_text(INV)
    (tmp_path / "famA" / "sub" / "one.v").write_text(BUF)
    with pytest.raises(CorpusError, match="duplicate"):
        scan_corpus(tmp_path)


def test_manifest_parsing(tmp_path):
    make_tree(tmp_path)
    manifest = tmp_path / "designs.csv"
    manifest.write_text(
        "family, path, abstraction\n"
        "# comment line\n"
        "\n"
        "famA, famA/one.v, rtl\n"
        "famA, famA/netlist/gates.v, netlist\n"
        f"famB, {tmp_path / 'famB' / 'one.v'}, rtl\n"
    )
    entries = read_manifest(manifest)
    assert [e.name for e in entries] == [
        "famA:rtl:one", "famA:netlist:gates", "famB:rtl:one"]
    assert all(e.path.is_absolute() or e.path.is_file() for e in entries)
    # A manifest takes precedence over whatever the directory holds.
    families = scan_corpus(tmp_path, manifest=manifest)
    assert sum(len(f.members) for f in families) == 3


def test_manifest_errors(tmp_path):
    make_tree(tmp_path)
    bad_arity = tmp_path / "m1.csv"
    bad_arity.write_text("famA, famA/one.v\n")
    with pytest.raises(CorpusError, match="expected"):
        read_manifest(bad_arity)
    bad_abs = tmp_path / "m2.csv"
    bad_abs.write_text("famA, famA/one.v, gate\n")
    with pytest.raises(CorpusError, match="rtl or netlist"):
        read_manifest(bad_abs)
    missing = tmp_path / "m3.csv"
    missing.write_text("famA, famA/ghost.v, rtl\n")
    with pytest.raises(CorpusError, match="no such file"):
        read_manifest(missing)
    empty = tmp_path / "m4.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(CorpusError, match="no designs"):
        read_manifest(empty)


def test_pair_count_law_and_labels(tmp_path):
    families = scan_corpus(make_tree(tmp_path))
    pairs = make_pairs(families)
    n_rtl = sum(1 for f in families for e in f.members if e.abstraction == "rtl")
    n_net = sum(1 for f in families for e in f.members if e.abstraction == "netlist")
    assert len(pairs) == comb(n_rtl, 2) + comb(n_net, 2)
    mixed = make_pairs(families, mix_abstractions=True)
    assert len(mixed) == comb(n_rtl + n_net, 2)
    by_name = {e.name: e for f in families for e in f.members}
    for pair in mixed:
        same = by_name[pair.a].family == by_name[pair.b].family
        assert pair.label == (1 if same else -1)


def test_make_pairs_needs_two_families(tmp_path):
    (tmp_path / "famA").mkdir()
    (tmp_path / "famA" / "one.v").write_text(INV)
    (tmp_path / "famA" / "two.v").write_text(BUF)
    families = scan_corpus(tmp_path)
    with pytest.raises(CorpusError, match="two families"):
        make_pairs(families)


def test_split_is_deterministic_and_stratified(tmp_path):
    families = scan_corpus(make_tree(tmp_path))
    pairs = make_pairs(families, mix_abstractions=True)
    train1, test1 = split_pairs(pairs, test_fraction=0.25, seed=5)
    train2, test2 = split_pairs(pairs, test_fraction=0.25, seed=5)
    assert train1 == train2 and test1 == test2
    _, test_other = split_pairs(pairs, test_fraction=0.25, seed=6)
    assert {(p.a, p.b) for p in test_other} != {(p.a, p.b) for p in test1}

    for label in (1, -1):
        total = sum(1 for p in pairs if p.label == label)
        held = sum(1 for p in test1 if p.label == label)
        assert held == round(total * 0.25)
    assert all(p.split == "train" for p in train1)
    assert all(p.split == "test" for p in test1)
    key = lambda p: (p.a, p.b, p.label)
    assert sorted(map(key, train1 + test1)) == sorted(map(key, pairs))


def test_split_rejects_bad_fraction(tmp_path):
    families = scan_corpus(make_tree(tmp_path))
    pairs = make_pairs(families)
    for fraction in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(CorpusError):
            split_pairs(pairs, test_fraction=fraction)


def test_pair_manifest_round_trip(tmp_path):
    families = scan_corpus(make_tree(tmp_path))
    pairs = make_pairs(families)
    train, test = split_pairs(pairs, test_fraction=0.25, seed=0)
    path = tmp_path / "pairs.csv"
    write_pair_manifest(path, train + test)
    back = read_pair_manifest(path)
    assert [(p.a, p.b, p.label, p.split) for p in back] == \
        [(p.a, p.b, p.label, p.split) for p in train + test]


def test_pair_manifest_errors(tmp_path):
    bad_header = tmp_path / "p1.csv"
    bad_header.write_text("left,right\nx,y\n")
    with pytest.raises(CorpusError, match="columns"):
        read_pair_manifest(bad_header)
    bad_label = tmp_path / "p2.csv"
    bad_label.write_text("a_path,b_path,label\nx,y,both\n")
    with pytest.raises(CorpusError, match="label"):
        read_pair_manifest(bad_label)
    empty = tmp_path / "p3.csv"
    empty.write_text("a_path,b_path,label\n")
    with pytest.raises(CorpusError, match="no pairs"):
        read_pair_manifest(empty)


def test_load_graphs_compiles_and_skips(tmp_path):
    root = make_tree(tmp_path)
    (root / "famB" / "three.v").write_text(BAD)
    families = scan_corpus(root)
    entries = [e for f in families for e in f.members]

    with pytest.raises(PipelineError):
        load_graphs(entries)

    skipped = []
    graphs = load_graphs(entries, on_skip=lambda e, exc: skipped.append(e.name))
    assert skipped == ["famB:rtl:three"]
    assert set(graphs) == {e.name for e in entries} - {"famB:rtl:three"}
    for graph in graphs.values():
        assert graph.num_nodes > 0

    corpus = load_corpus(entries, on_skip=lambda e, exc: None)
    assert [e.name for e in corpus.entries] == [e.name for e in entries if e.name in graphs]
    assert set(corpus.tensors) == set(graphs)
    assert len(corpus.pairs) == comb(4, 2) + 1  # four RTL designs left, two netlists
    # Pairs are built on first use: one family still loads, for projection.
    one_family = load_corpus([e for e in entries if e.family == "famA"])
    assert len(one_family.tensors) == 4
    with pytest.raises(CorpusError, match="two families"):
        one_family.pairs


def test_shipped_corpus_is_large_enough(corpus_root):
    families = scan_corpus(corpus_root)
    assert len(families) >= 8
    assert all(len(f.members) >= 6 for f in families)


def test_group_families_sorts_by_id(tmp_path):
    families = scan_corpus(make_tree(tmp_path))
    entries = [e for f in reversed(families) for e in f.members]
    grouped = group_families(entries)
    assert [g.family for g in grouped] == ["famA", "famB"]
    assert sum(len(g.members) for g in grouped) == len(entries)
