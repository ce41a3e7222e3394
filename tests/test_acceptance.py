"""End-to-end acceptance checks for the piracy-detection pipeline.

Each criterion is one test with pinned tolerances; every test finishes
by printing a single PASS line with the measured numbers (visible under
``pytest -s``, and ``pytest -v`` gives the one-line verdict per test).
The desk-scale run uses the pinned recipe reproduced standalone by
``scripts/run_desk_eval.py``.
"""

import json
import math
import re
import zlib
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

import gradcheck
from conftest import CORPUS_ROOT, graph_from_edges, make_graph, random_graph_edges
from ipsim.cli import main
from ipsim.corpus import (
    flatten_families,
    group_families,
    load_graphs,
    make_pairs,
    scan_corpus,
    split_pairs,
)
from ipsim.detect import cosine_similarity, judge
from ipsim.dfg import NODE_KINDS, Graph, is_isomorphic
from ipsim.encode import adjacency, encode
from ipsim.model import Hyper, embed, gcn_layer, init_params
from ipsim.pipeline import compile_design, compile_text
from ipsim.train import TrainConfig, cosine_embedding_loss, evaluate, train
from ipsim.variants import synthesize_variants
from reference import (
    gcn_layer_reference,
    has_path,
    normalized_propagation_reference,
)

HYPER = Hyper(hidden_dim=16, num_layers=2, pool_ratio=0.5, readout="max", dropout=0.1)
SEED = 9
PINNED = TrainConfig(lr=0.005, batch_size=64, epochs=50, margin=0.5,
                     delta=0.5, seed=SEED, patience=None, optimizer="adam")
VARIANT_STEM = re.compile(r"^(?P<base>.+)_v\d+$")


def swept_delta(labels, scores):
    """Best threshold on a centi-grid, ties to the smaller delta."""
    best_acc, best_delta = -1.0, 0.0
    for delta in np.arange(-0.99, 1.0, 0.01):
        acc = sum((l == 1) == (s > delta) for l, s in zip(labels, scores)) / len(labels)
        if acc > best_acc:
            best_acc, best_delta = acc, float(delta)
    return best_acc, best_delta


@pytest.fixture(scope="module")
def desk():
    """One pinned desk-scale run shared by the trained-model criteria."""
    t0 = perf_counter()
    families = scan_corpus(CORPUS_ROOT)
    entries = flatten_families(families)
    graphs = load_graphs(entries)
    kept = [e for e in entries if e.name in graphs]
    tensors = {name: encode(g) for name, g in graphs.items()}
    pairs = make_pairs(group_families(kept))
    train_recs, test_recs = split_pairs(pairs, test_fraction=0.2, seed=SEED)
    train_pairs = [p.as_tuple() for p in train_recs]
    test_pairs = [p.as_tuple() for p in test_recs]
    result = train(tensors, train_pairs, test_pairs, HYPER, PINNED)
    _, scores = evaluate(result.params, HYPER, tensors, test_pairs, PINNED.delta)
    wall = perf_counter() - t0
    labels = [label for _, _, label in test_pairs]
    return SimpleNamespace(
        families=families, kept=kept, graphs=graphs, tensors=tensors,
        pairs=pairs, train_pairs=train_pairs, test_pairs=test_pairs,
        params=result.params, labels=labels, scores=scores, wall=wall)


def test_criterion_01_adder_outputs_reach_every_input():
    t0 = perf_counter()
    graph = compile_design([CORPUS_ROOT / "fa" / "fulladd.v"])
    ids = {node.label: node.id for node in graph.nodes if node.label}
    for out in ("Sum", "Cout"):
        for inp in ("Num1", "Num2", "Cin"):
            assert has_path(graph.edges, ids[out], ids[inp]), f"{out} -> {inp}"
    wall = perf_counter() - t0
    assert wall < 1.0
    print(f"criterion 1 PASS: Sum and Cout reach Num1, Num2, Cin ({wall * 1e3:.0f} ms)")


def test_criterion_02_propagation_layer_matches_reference():
    t0 = perf_counter()
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        edges = random_graph_edges(rng, n)
        g = graph_from_edges(f"g{seed}", edges, n)
        x = rng.standard_normal((n, 7))
        w = rng.standard_normal((7, 5))
        got = gcn_layer(encode(g).p, x, w)
        ref = np.array(gcn_layer_reference(edges, x.tolist(), w.tolist()))
        err = float(np.abs(got - ref).max()) / max(float(np.abs(ref).max()), 1.0)
        worst = max(worst, err)
        assert err <= 1e-12

    from ipsim.encode import normalize_adjacency
    fixtures = {
        "path": ([(0, 1), (1, 2)], 3, [
            [1 / 2, 1 / math.sqrt(6), 0.0],
            [1 / math.sqrt(6), 1 / 3, 1 / math.sqrt(6)],
            [0.0, 1 / math.sqrt(6), 1 / 2]]),
        "complete": ([(0, 1), (0, 2), (1, 2)], 3, [[1 / 3] * 3] * 3),
        "isolated": ([], 1, [[1.0]]),
    }
    for name, (edges, n, expected) in fixtures.items():
        g = graph_from_edges(name, edges, n)
        np.testing.assert_allclose(normalize_adjacency(adjacency(g)),
                                   np.array(expected), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            np.array(normalized_propagation_reference(edges, n)),
            np.array(expected), rtol=0, atol=1e-15)
    wall = perf_counter() - t0
    assert wall < 5.0
    print(f"criterion 2 PASS: 25 random graphs, worst relative error "
          f"{worst:.2e}; hand fixtures exact ({wall:.1f} s)")


def test_criterion_03_training_gradients_match_finite_differences():
    t0 = perf_counter()
    checked = 0
    worst = 0.0
    attempt = 0
    while checked < 20:
        attempt += 1
        assert attempt < 2000, "could not draw enough differentiable pairs"
        label = 1 if checked < 10 else -1
        rng = np.random.default_rng(31_000 + attempt)
        gts = {}
        for tag in ("a", "b"):
            n = int(rng.integers(5, 11))
            g = graph_from_edges(tag, random_graph_edges(rng, n), n)
            gts[tag] = encode(g)
        batch = [("a", "b", label)]
        config = TrainConfig(seed=int(rng.integers(0, 2**31)), margin=0.5)
        params = init_params(HYPER, seed=int(rng.integers(0, 2**31)))
        if not gradcheck.differentiable_batch(params, gts, batch, HYPER, config):
            continue
        masks = gradcheck.mask_plan(config, HYPER, gts, ("a", "b"))
        loss = gradcheck.batch_loss(params, gts, batch, HYPER, config.margin, masks)
        if label == -1 and loss == 0.0:
            continue  # inactive hinge has trivially zero gradients
        an = gradcheck.analytic_grads(params, gts, batch, HYPER, config)
        if min(float(np.abs(g).max()) for g in an) < 1e-5:
            continue  # a matrix without measurable signal cannot be
            # distinguished from finite-difference noise; redraw
        fd = gradcheck.fd_grads(params, gts, batch, HYPER, config)
        errs = gradcheck.matrix_rel_errors(fd, an)
        assert max(errs) <= 1e-4, f"pair {checked}: {errs}"
        worst = max(worst, max(errs))
        checked += 1
    wall = perf_counter() - t0
    assert wall < 60.0
    print(f"criterion 3 PASS: {checked} pairs, worst per-matrix relative "
          f"error {worst:.2e} ({wall:.1f} s)")


def relabeled(graph: Graph, perm: np.ndarray) -> Graph:
    nodes = [("", "")] * graph.num_nodes
    for node in graph.nodes:
        nodes[int(perm[node.id])] = (node.kind, node.label)
    edges = [(int(perm[s]), int(perm[d])) for s, d in graph.edges]
    roots = sorted(int(perm[r]) for r in graph.roots)
    return make_graph(graph.name, nodes, edges, roots)


def test_criterion_04_embeddings_invariant_to_relabeling():
    t0 = perf_counter()
    params = init_params(HYPER, seed=0)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        kinds = [NODE_KINDS[int(k)] for k in rng.integers(0, len(NODE_KINDS), n)]
        g = graph_from_edges(f"g{seed}", random_graph_edges(rng, n), n, kinds=kinds)
        perm = rng.permutation(n)
        base = embed(params, encode(g), HYPER)
        shuffled = embed(params, encode(relabeled(g, perm)), HYPER)
        diff = float(np.abs(base - shuffled).max())
        worst = max(worst, diff)
        assert diff <= 1e-9, f"graph {seed}: drift {diff}"
    wall = perf_counter() - t0
    print(f"criterion 4 PASS: 50 relabeled graphs, worst embedding drift "
          f"{worst:.2e} ({wall:.1f} s)")


def test_criterion_05_pair_loss_fixed_points():
    assert cosine_embedding_loss(1.0, 1, margin=0.5) == 0.0
    assert cosine_embedding_loss(0.3, -1, margin=0.5) == 0.0
    assert cosine_embedding_loss(0.9, -1, margin=0.5) == 0.4
    print("criterion 5 PASS: loss (1,+1)=0, (0.3,-1)=0, (0.9,-1)=0.4 exactly")


def test_criterion_06_self_comparison_scores_one(desk):
    name = "fa:rtl:fulladd"
    emb = embed(desk.params, desk.tensors[name], HYPER)
    verdict = judge(name, name, emb, emb, delta=0.5)
    assert abs(verdict.score - 1.0) <= 1e-9
    assert verdict.label == "piracy"
    print(f"criterion 6 PASS: self pair scores {verdict.score:.12f}, "
          f"label {verdict.label} at delta 0.5")


def test_criterion_07_desk_scale_training_and_detection(desk):
    assert len(desk.families) >= 8
    assert all(len(f.members) >= 6 for f in desk.families)
    held_fraction = len(desk.test_pairs) / len(desk.pairs)
    assert held_fraction == pytest.approx(0.2, abs=0.01)

    acc, delta = swept_delta(desk.labels, desk.scores)
    similar = [s for s, l in zip(desk.scores, desk.labels) if l == 1]
    different = [s for s, l in zip(desk.scores, desk.labels) if l == -1]
    mean_similar = float(np.mean(similar))
    mean_different = float(np.mean(different))

    assert acc >= 0.90
    assert mean_similar >= 0.9
    assert mean_different <= 0.1
    assert desk.wall <= 600.0
    print(f"criterion 7 PASS: {len(desk.families)} families, "
          f"{len(desk.kept)} designs, {len(desk.pairs)} pairs; held-out "
          f"accuracy {acc:.4f} at delta {delta:+.2f}; mean similar "
          f"{mean_similar:+.4f}, mean different {mean_different:+.4f}; "
          f"{desk.wall:.1f} s total")


def test_criterion_08_variants_score_as_copies_of_their_family(desk):
    t0 = perf_counter()
    by_family: dict[str, list] = {}
    for entry in desk.kept:
        stem = entry.name.split(":")[-1]
        if entry.abstraction == "rtl" and not VARIANT_STEM.match(stem):
            by_family.setdefault(entry.family, []).append(entry)
    rep_embs = {
        fam: embed(desk.params, desk.tensors[members[0].name], HYPER)
        for fam, members in sorted(by_family.items())
    }

    same_scores, cross_scores = [], []
    for fam, members in sorted(by_family.items()):
        for entry in members:
            origin = embed(desk.params, desk.tensors[entry.name], HYPER)
            text = entry.path.read_text()
            seed = zlib.crc32(entry.name.encode()) & 0x7FFFFFFF
            for idx, variant in enumerate(synthesize_variants(text, 3, seed=seed)):
                graph = compile_text(variant, path=f"{entry.name}~v{idx}")
                emb = embed(desk.params, encode(graph), HYPER)
                score = cosine_similarity(emb, origin)
                assert score > PINNED.delta, f"{entry.name} variant {idx}: {score:.4f}"
                same_scores.append(score)
                cross_scores.extend(
                    cosine_similarity(emb, rep_embs[other])
                    for other in rep_embs if other != fam)

    mean_same = float(np.mean(same_scores))
    mean_cross = float(np.mean(cross_scores))
    assert mean_same >= 0.9
    assert mean_cross < 0.2
    wall = perf_counter() - t0
    print(f"criterion 8 PASS: {len(same_scores)} fresh variants all above "
          f"delta {PINNED.delta}; mean same-family {mean_same:+.4f}, mean "
          f"cross-family {mean_cross:+.4f} over {len(cross_scores)} pairs "
          f"({wall:.1f} s)")


def test_criterion_09_training_and_scoring_deterministic(tmp_path, capsys):
    t0 = perf_counter()
    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}.ckpt"
        code = main(["train", "--corpus", str(CORPUS_ROOT), "--out", str(out),
                     "--epochs", "8", "--lr", "0.005", "--optimizer", "adam",
                     "--seed", str(SEED), "--patience", "-1", "--quiet"])
        assert code == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]

    a = str(CORPUS_ROOT / "fa" / "fulladd.v")
    b = str(CORPUS_ROOT / "fa" / "fa_cpg.v")
    outputs = []
    for _ in range(2):
        code = main(["compare", a, b, "--checkpoint", str(tmp_path / "run0.ckpt")])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    score = json.loads(outputs[0])["score"]
    wall = perf_counter() - t0
    print(f"criterion 9 PASS: checkpoints byte-identical "
          f"({len(blobs[0])} bytes); repeated compare bit-identical "
          f"(score {score:.12f}) ({wall:.1f} s)")


def test_criterion_10_shipped_variants_isomorphic_to_seeds(desk):
    t0 = perf_counter()
    names = {entry.name for entry in desk.kept}
    checked = 0
    for entry in desk.kept:
        stem = entry.name.split(":")[-1]
        match = VARIANT_STEM.match(stem)
        if not match:
            continue
        base = f"{entry.family}:{entry.abstraction}:{match.group('base')}"
        assert base in names, f"variant {entry.name} has no seed design"
        assert is_isomorphic(desk.graphs[base], desk.graphs[entry.name]), entry.name
        checked += 1
    assert checked > 0
    wall = perf_counter() - t0
    print(f"criterion 10 PASS: {checked}/{checked} shipped variants "
          f"isomorphic to their seed designs ({wall:.1f} s)")
