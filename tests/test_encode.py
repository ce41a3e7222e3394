import importlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ipsim.encode
from conftest import densify, graph_from_edges, random_graph_edges
from ipsim.dfg import KIND_INDEX
from ipsim.encode import (
    FEATURE_DIM,
    CSR,
    SPARSE_THRESHOLD,
    VOCAB_VERSION,
    adjacency,
    encode,
    normalize_adjacency,
    one_hot_features,
    pack,
    propagate,
    take,
)
from ipsim.errors import EmptyGraph
from ipsim.model import Hyper, embed, init_params
from ipsim.pipeline import compile_text
from reference import normalized_propagation_reference
from test_scanners import PERFBENCH

# Hand-computed normalization fixtures. For the three-node path 0-1-2
# with self loops the degrees are (2, 3, 2), so the diagonal is
# (1/2, 1/3, 1/2) and the off-diagonals are 1/sqrt(6).
PATH3_EXPECTED = np.array([
    [1 / 2, 1 / math.sqrt(6), 0.0],
    [1 / math.sqrt(6), 1 / 3, 1 / math.sqrt(6)],
    [0.0, 1 / math.sqrt(6), 1 / 2],
])

# Complete graph on three nodes: every degree is 3, every entry 1/3.
COMPLETE3_EXPECTED = np.full((3, 3), 1 / 3)

# A single isolated node has only its self loop: P = [[1]].
ISOLATED_EXPECTED = np.array([[1.0]])


def test_path_graph_normalization():
    g = graph_from_edges("p3", [(0, 1), (1, 2)], 3)
    p = normalize_adjacency(adjacency(g))
    np.testing.assert_allclose(p, PATH3_EXPECTED, rtol=0, atol=1e-15)


def test_complete_graph_normalization():
    g = graph_from_edges("k3", [(0, 1), (0, 2), (1, 2)], 3)
    p = normalize_adjacency(adjacency(g))
    np.testing.assert_allclose(p, COMPLETE3_EXPECTED, rtol=0, atol=1e-15)


def test_isolated_node_normalization():
    g = graph_from_edges("i1", [], 1)
    p = normalize_adjacency(adjacency(g))
    np.testing.assert_allclose(p, ISOLATED_EXPECTED, rtol=0, atol=0)


def test_one_hot_shape_and_placement(full_adder_graph):
    x = one_hot_features(full_adder_graph)
    assert x.shape == (full_adder_graph.num_nodes, FEATURE_DIM)
    assert x.dtype == np.bool_
    np.testing.assert_array_equal(x.sum(axis=1), np.ones(len(x)))
    for node in full_adder_graph.nodes:
        assert x[node.id, KIND_INDEX[node.kind]] == 1.0


def test_adjacency_symmetric_with_self_loops(full_adder_graph):
    count = full_adder_graph.num_nodes
    rows, cols = adjacency(full_adder_graph)
    keys = rows * count + cols
    assert (np.diff(keys) > 0).all()  # row-major, each entry once
    np.testing.assert_array_equal(np.sort(cols * count + rows), keys)  # symmetric
    np.testing.assert_array_equal(rows[rows == cols], np.arange(count))
    edges = {pair for s, d in full_adder_graph.edges for pair in ((s, d), (d, s))}
    assert set(zip(rows.tolist(), cols.tolist())) == edges | {(i, i) for i in range(count)}


def test_antiparallel_edges_collapse():
    g = graph_from_edges("cyc", [(0, 1), (1, 0)], 2)
    rows, cols = adjacency(g)
    np.testing.assert_array_equal(rows, [0, 0, 1, 1])
    np.testing.assert_array_equal(cols, [0, 1, 0, 1])


def test_empty_graph_rejected():
    g = graph_from_edges("none", [], 0)
    with pytest.raises(EmptyGraph):
        adjacency(g)
    with pytest.raises(EmptyGraph):
        encode(g)


def test_encode_dense_below_threshold(full_adder_graph):
    gt = encode(full_adder_graph)
    assert isinstance(gt.p, np.ndarray)


def test_encode_sparse_above_threshold():
    n = 600
    edges = [(i, i + 1) for i in range(n - 1)]
    g = graph_from_edges("big", edges, n)
    gt = encode(g)
    assert gt.is_sparse and isinstance(gt.p, CSR)
    assert gt.p.indptr.dtype == gt.p.indices.dtype == np.int64
    ref = np.array(normalized_propagation_reference(edges, n))
    np.testing.assert_allclose(densify(gt.p), ref, rtol=0, atol=1e-15)


def csr_products(seed: int):
    """(P X, scipy's P @ X) for the CSRs that encode, pack and take
    give, with X of three widths."""
    rng = np.random.default_rng(seed)
    gts = [encode(graph_from_edges(f"g{i}", random_graph_edges(rng, size), size))
           for i, size in enumerate((260, 17, 40, 310))]
    packed = pack(gts)
    for p in (gts[0].p, packed.p, take(packed, np.array([3, 1, 0])).p):
        assert isinstance(p, CSR)
        for width in (1, 5, 16):
            x = rng.standard_normal((p.shape[1], width))
            want = sp.csr_matrix((p.data, p.indices, p.indptr), shape=p.shape) @ x
            yield propagate(p, x, np.full((p.shape[0], width), np.nan)), want


def test_csr_product_is_scipys_bit_for_bit():
    # The product's kernel is the extension loaded alone, not the one
    # scipy.sparse imported for the reference product.
    assert ipsim.encode._csr_matvecs().__module__ == "_sparsetools"
    for seed in (0, 1):
        for got, want in csr_products(seed):
            np.testing.assert_array_equal(got, want)


def test_sparse_path_embeds_as_dense_one_node_past_threshold(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder = importlib.import_module("ladder")
    graph = compile_text(ladder.chain(SPARSE_THRESHOLD - 1, 0).text)
    assert graph.num_nodes == SPARSE_THRESHOLD + 1
    sparse = encode(graph)
    monkeypatch.setattr(ipsim.encode, "SPARSE_THRESHOLD", graph.num_nodes)
    dense = encode(graph)
    assert sparse.is_sparse and not dense.is_sparse
    hyper = Hyper()
    for seed in range(3):
        params = init_params(hyper, seed)
        want = embed(params, dense, hyper)
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(embed(params, sparse, hyper), want, rtol=0, atol=1e-12)


def test_vocab_version_mentions_dimension():
    assert str(FEATURE_DIM) in VOCAB_VERSION


def test_rows_of_p_scale_with_degree():
    # Each P entry is 1/sqrt(d_i d_j); spot-check a star graph's center.
    g = graph_from_edges("star", [(0, i) for i in range(1, 5)], 5)
    p = normalize_adjacency(adjacency(g))
    assert p[0, 0] == pytest.approx(1 / 5)
    assert p[0, 1] == pytest.approx(1 / math.sqrt(5 * 2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 16))
def test_normalization_matches_reference(seed, size):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, size)
    g = graph_from_edges(f"g{seed}", edges, size)
    p = normalize_adjacency(adjacency(g))
    ref = np.array(normalized_propagation_reference(edges, size))
    np.testing.assert_allclose(p, ref, rtol=0, atol=1e-14)
