"""Packing is invisible: a packed batch gives what the same code gives
run on each graph alone (a batch of one)."""

import numpy as np
import pytest

import gradcheck
from conftest import densify, graph_from_edges, random_graph_edges
from ipsim.detect import cosine_similarity
from ipsim.encode import CSR, SPARSE_THRESHOLD, encode, pack, take
from ipsim.errors import NonFiniteLoss, ShapeMismatch
from ipsim.model import (
    Buffers,
    Hyper,
    ModelParams,
    backward,
    embed,
    forward,
    init_params,
    make_dropout_masks,
    top_k_indices,
)
from ipsim.train import TrainConfig, _cosine_grads, evaluate, train
from reference import cosine_reference, top_k_reference

TOL = 1e-12


def random_tensors(seed: int, count: int, low: int = 3, high: int = 30) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(low, high))
        out.append(encode(graph_from_edges(f"g{i}", random_graph_edges(rng, n), n)))
    return out


def chain(name: str, n: int):
    return encode(graph_from_edges(name, [(i, i + 1) for i in range(n - 1)], n))


def assert_packing_invisible(gts: list, hyper: Hyper, params, seed: int = 0):
    """Packed forward/backward against one forward/backward per graph,
    with the packed dropout masks split per graph."""
    rng = np.random.default_rng(seed)
    packed = pack(gts)
    masks = make_dropout_masks(hyper, packed.num_nodes, rng) if hyper.dropout else None
    cache = forward(params, packed, hyper, masks=masks)
    assert cache.embedding.shape == (len(gts), hyper.hidden_dim)
    d_emb = rng.standard_normal(cache.embedding.shape)
    grads = backward(params, hyper, cache, d_emb)

    total = np.zeros_like(params.flat)
    for i, gt in enumerate(gts):
        rows = slice(packed.offsets[i], packed.offsets[i + 1])
        one = forward(params, gt, hyper, masks=masks and [m[rows] for m in masks])
        np.testing.assert_allclose(cache.embedding[i], one.embedding, rtol=0, atol=TOL)
        total += backward(params, hyper, one, d_emb[i]).flat
    for got, want in zip(grads.arrays(), ModelParams(total, params.shapes).arrays()):
        scale = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) <= TOL * scale


@pytest.mark.parametrize("readout", ["max", "mean", "sum"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_packed_batch_matches_batches_of_one(readout, seed):
    hyper = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout=readout, dropout=0.1)
    assert_packing_invisible(random_tensors(seed, 7), hyper, init_params(hyper, seed), seed)


@pytest.mark.parametrize("readout", ["max", "mean", "sum"])
def test_sparse_graph_packs_with_dense_ones(readout):
    hyper = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout=readout, dropout=0.1)
    gts = [*random_tensors(5, 2), chain("big", 600), *random_tensors(6, 2)]
    assert [gt.is_sparse for gt in gts] == [False, False, True, False, False]
    assert_packing_invisible(gts, hyper, init_params(hyper, 3))


@pytest.mark.parametrize("readout", ["max", "mean", "sum"])
def test_ties_across_segments_and_all_zero_readout_columns(readout):
    # Identical graphs side by side tie on every attention score across
    # the segment boundary; a zero output column of the last layer makes
    # every readout column entry zero, a tie on every row.
    hyper = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout=readout, dropout=0.0)
    params = init_params(hyper, 4)
    params.weights[-1][:, :3] = 0.0
    same = [chain("a", 6), chain("b", 6), chain("c", 6)]
    cache = forward(params, pack(same), hyper)
    assert not cache.pool.x[:, :3].any()
    np.testing.assert_array_equal(cache.pool.selected.reshape(3, -1) % 6,
                                  np.tile(cache.pool.selected[:3], (3, 1)))
    assert_packing_invisible(same, hyper, params)
    assert_packing_invisible([chain("d", 4), *random_tensors(7, 3)], hyper, params)


def forward_backward(params, gt, hyper: Hyper, seed: int, buffers=None):
    """The cache of one dropout-mask draw and forward pass, and the
    masks, hidden states, embedding and gradients of that pass and the
    backward pass after it."""
    masks = []
    if hyper.dropout:
        rng = np.random.Generator(np.random.PCG64(seed))
        masks = make_dropout_masks(hyper, gt.num_nodes, rng, buffers)
    cache = forward(params, gt, hyper, masks=masks or None, buffers=buffers)
    d_emb = np.random.default_rng(seed).standard_normal(cache.embedding.shape)
    grads = backward(params, hyper, cache, d_emb)
    return cache, [*masks, *cache.hidden, cache.embedding, *grads.arrays()]


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("readout", ["max", "mean", "sum"])
def test_reused_buffers_give_what_allocating_calls_give(readout, dropout):
    # One set of buffers serves a pack, then a smaller pack over rows the
    # first one left behind, then one unpacked (dense) graph; a call
    # given no buffers allocates its own.
    hyper = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout=readout, dropout=dropout)
    params = init_params(hyper, 5)
    gts = [*random_tensors(11, 6), chain("big", 530)]
    graphs = [pack(gts), pack(gts[1:4]), gts[0]]
    assert graphs[1].num_nodes < graphs[0].num_nodes and not graphs[2].is_sparse
    buffers = Buffers.alloc(hyper, graphs[0].num_nodes)
    for seed, gt in enumerate(graphs):
        cache, got = forward_backward(params, gt, hyper, seed, buffers)
        assert np.shares_memory(cache.hidden[-1], buffers.hidden[-1])
        _, want = forward_backward(params, gt, hyper, seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_buffers_refuse_a_pack_larger_than_they_are():
    hyper = Hyper(hidden_dim=8, num_layers=2, dropout=0.0)
    gt = pack(random_tensors(12, 3))
    with pytest.raises(ShapeMismatch):
        forward(init_params(hyper, 0), gt, hyper, buffers=Buffers.alloc(hyper, gt.num_nodes - 1))


def test_top_k_per_segment_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 5)))
        alpha = rng.integers(-2, 3, size=int(sizes.sum())).astype(float)  # many ties
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        ratio = float(rng.uniform(0.05, 1.0))
        want = [first + i for first, last in zip(offsets, offsets[1:])
                for i in top_k_reference(alpha[first:last].tolist(), ratio)]
        assert top_k_indices(alpha, ratio, offsets).tolist() == want
    # A global top-k would take all four rows from the larger second segment.
    np.testing.assert_array_equal(
        top_k_indices(np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0]), 0.5, np.array([0, 3, 6])),
        [0, 1, 3, 4])


def block_diagonal(gts: list) -> np.ndarray:
    out = np.zeros((sum(gt.num_nodes for gt in gts),) * 2)
    first = 0
    for gt in gts:
        last = first + gt.num_nodes
        out[first:last, first:last] = densify(gt.p)
        first = last
    return out


def test_pack_is_dense_up_to_the_threshold_and_csr_past_it():
    for extra, sparse in ((0, False), (1, True)):
        gts = [chain("a", 100), chain("b", SPARSE_THRESHOLD - 100 + extra)]
        packed = pack(gts)
        assert packed.num_nodes == SPARSE_THRESHOLD + extra
        assert packed.is_sparse is sparse and isinstance(packed.p, CSR) is sparse
        np.testing.assert_array_equal(densify(packed.p), block_diagonal(gts))


@pytest.mark.parametrize("members, which, sparse", [
    ("small", [1, 3, 0], False),
    ("big", [1, 3, 4], True),
    ("big", [2, 0, 3], False),  # a sub-batch of a CSR pack, within the threshold
], ids=["dense", "csr", "csr-to-dense"])
def test_take_equals_packing_the_subset(members, which, sparse):
    gts = random_tensors(8, 4) + ([chain("big", 520)] if members == "big" else [])
    full = pack(gts)
    assert full.is_sparse is (members == "big")
    got = take(full, np.array(which))
    want = pack([gts[i] for i in which])
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.x, want.x)
    assert got.is_sparse is want.is_sparse is sparse
    np.testing.assert_array_equal(densify(got.p), densify(want.p))
    np.testing.assert_array_equal(densify(got.p), block_diagonal([gts[i] for i in which]))


def test_evaluate_scores_match_single_graph_embeddings():
    hyper = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout="max", dropout=0.1)
    gts = {f"g{i}": gt for i, gt in enumerate(random_tensors(9, 6))}
    params = init_params(hyper, 2)
    pairs = [("g0", "g1", 1), ("g2", "g0", -1), ("g5", "g3", 1), ("g4", "g4", 1)]
    _, scores = evaluate(params, hyper, gts, pairs, delta=0.5)
    emb = {name: embed(params, gt, hyper) for name, gt in gts.items()}
    for (a, b, _), score in zip(pairs, scores):
        assert abs(score - cosine_similarity(emb[a], emb[b])) <= TOL


def test_pair_loss_scores_dead_embeddings_zero():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    a[1] = 0.0
    b[2] = 0.0
    a[3] = b[3] = 0.0
    with np.errstate(all="raise"):
        score, d_a, d_b = _cosine_grads(a, b)
    assert np.isfinite(score).all() and np.isfinite(d_a).all() and np.isfinite(d_b).all()
    np.testing.assert_array_equal(score[1:], 0.0)
    np.testing.assert_array_equal(d_a[1:], 0.0)
    np.testing.assert_array_equal(d_b[1:], 0.0)
    assert abs(score[0] - cosine_reference(a[0], b[0])) <= TOL
    # d/da of cos(a, b), written out for the one live row.
    na, nb = np.linalg.norm(a[0]), np.linalg.norm(b[0])
    np.testing.assert_allclose(d_a[0], b[0] / (na * nb) - score[0] * a[0] / na ** 2,
                               rtol=0, atol=TOL)


def test_non_finite_loss_names_epoch_batch_and_pair():
    hyper = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout="max", dropout=0.1)
    gts = {f"g{i}": gt for i, gt in enumerate(random_tensors(10, 4))}
    pairs = [("g0", "g1", 1), ("g2", "g3", -1), ("g1", "g2", 1)]
    params = init_params(hyper, 0)
    train(gts, pairs, None, hyper, TrainConfig(epochs=1, batch_size=2, patience=None),
          init=params)  # finite as given
    params.weights[0][:] = np.nan
    config = TrainConfig(epochs=2, batch_size=2, patience=None)
    # Every pair is non-finite, so the first one epoch 1 visits is named.
    a, b, _ = pairs[gradcheck.pair_order(config, len(pairs))[0]]
    with pytest.raises(NonFiniteLoss, match=rf"epoch 1 batch 0 pair \({a}, {b}\)"):
        train(gts, pairs, None, hyper, config, init=params)
