import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_edges, random_graph_edges
from ipsim.encode import FEATURE_DIM, encode
from ipsim.errors import ShapeMismatch
from ipsim.model import (
    Hyper,
    embed,
    forward,
    gcn_layer,
    init_params,
    make_dropout_masks,
    readout,
    sag_pool,
    top_k_indices,
)
from reference import (
    gcn_layer_reference,
    max_readout_reference,
    top_k_reference,
)

HYPER = Hyper(hidden_dim=16, num_layers=2, pool_ratio=0.5, readout="max", dropout=0.1)


def test_inference_pass_allocates_no_masks_or_gradient(full_adder_graph):
    cache = forward(init_params(HYPER, 0), encode(full_adder_graph), HYPER)
    assert cache.rows.masks == [] and cache.rows.grad is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 6))
def test_gcn_layer_matches_dense_reference(seed, size, dout):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, size)
    g = graph_from_edges(f"g{seed}", edges, size)
    gt = encode(g)
    x = rng.standard_normal((size, 5))
    w = rng.standard_normal((5, dout))
    got = gcn_layer(gt.p, x, w)
    ref = np.array(gcn_layer_reference(edges, x.tolist(), w.tolist()))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_gcn_layer_shape_mismatch():
    g = graph_from_edges("p2", [(0, 1)], 2)
    gt = encode(g)
    with pytest.raises(ShapeMismatch):
        gcn_layer(gt.p, np.ones((2, 3)), np.ones((4, 2)))


def test_gcn_layer_refuses_an_out_a_csr_product_cannot_write_through():
    # The CSR kernel writes through a flat view of ``out`` and checks no
    # shape: a column slice has no flat view, so a copy would lose the
    # product, and a misfit shape would be read or written past its end.
    gt = encode(graph_from_edges("chain", [(i, i + 1) for i in range(299)], 300))
    assert gt.is_sparse
    rng = np.random.default_rng(3)
    x, w = rng.standard_normal((300, 5)), rng.standard_normal((5, 16))
    for rows, out in ((x, np.zeros((300, 32))[:, :16]), (x, np.zeros((300, 8))),
                      (x, np.zeros((299, 16))), (x[:299], np.zeros((300, 16)))):
        with pytest.raises(ShapeMismatch):
            gcn_layer(gt.p, rows, w, out=out)
    dense = encode(graph_from_edges("chain", [(i, i + 1) for i in range(99)], 100))
    out = np.zeros((100, 32))[:, :16]
    np.testing.assert_allclose(gcn_layer(dense.p, x[:100], w, out=out),
                               np.maximum(dense.p @ (x[:100] @ w), 0.0), rtol=1e-12, atol=0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20),
    st.floats(0.05, 1.0),
)
def test_top_k_matches_reference(alpha, ratio):
    got = top_k_indices(np.array(alpha), ratio)
    assert list(got) == top_k_reference(alpha, ratio)


def test_top_k_tie_prefers_lower_id():
    np.testing.assert_array_equal(top_k_indices(np.array([1.0, 1.0, 1.0, 1.0]), 0.5), [0, 1])


def test_top_k_keeps_at_least_one():
    np.testing.assert_array_equal(top_k_indices(np.array([3.0, 7.0]), 0.01), [1])


def test_sag_pool_gates_and_induces_submatrix():
    rng = np.random.default_rng(7)
    size = 9
    edges = random_graph_edges(rng, size)
    g = graph_from_edges("pool", edges, size)
    gt = encode(g)
    x = rng.standard_normal((size, 4))
    score = rng.standard_normal((4, 1))
    res = sag_pool(gt.p, x, score, 0.5)
    alpha = (gt.p @ x) @ score
    np.testing.assert_allclose(res.alpha, alpha.ravel())
    assert list(res.selected) == top_k_reference(alpha.ravel().tolist(), 0.5)
    assert list(res.selected) == sorted(res.selected)
    np.testing.assert_allclose(res.gate, np.tanh(res.alpha[res.selected]))
    np.testing.assert_allclose(res.x, x[res.selected] * res.gate[:, None])


def test_sag_pool_sparse_propagation():
    rng = np.random.default_rng(11)
    size = 30
    edges = random_graph_edges(rng, size)
    g = graph_from_edges("sp", edges, size)
    dense = encode(g).p
    sparse = sp.csr_matrix(dense)
    x = rng.standard_normal((size, 3))
    score = rng.standard_normal((3, 1))
    d = sag_pool(dense, x, score, 0.4)
    s = sag_pool(sparse, x, score, 0.4)
    np.testing.assert_array_equal(d.selected, s.selected)
    np.testing.assert_allclose(s.alpha, d.alpha)
    np.testing.assert_allclose(s.x, d.x)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 10), st.integers(1, 6))
def test_max_readout_matches_reference(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols))
    np.testing.assert_allclose(readout(x, "max"), max_readout_reference(x.tolist()))


def test_readout_modes():
    x = np.array([[1.0, -2.0], [3.0, 5.0]])
    np.testing.assert_array_equal(readout(x, "max"), [3.0, 5.0])
    np.testing.assert_array_equal(readout(x, "mean"), [2.0, 1.5])
    np.testing.assert_array_equal(readout(x, "sum"), [4.0, 3.0])
    with pytest.raises(ValueError):
        readout(x, "median")


def test_init_params_deterministic_and_shaped():
    a = init_params(HYPER, seed=3)
    b = init_params(HYPER, seed=3)
    c = init_params(HYPER, seed=4)
    for wa, wb in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(wa, wb)
    assert any((wa != wc).any() for wa, wc in zip(a.arrays(), c.arrays()))
    dims = HYPER.layer_dims()
    assert dims == [(FEATURE_DIM, 16), (16, 16)]
    assert [w.shape for w in a.weights] == dims
    assert a.score.shape == (16, 1)


def test_init_params_within_glorot_bounds():
    p = init_params(HYPER, seed=0)
    for w in p.weights:
        limit = math.sqrt(6.0 / sum(w.shape))
        assert np.abs(w).max() <= limit


def test_hyper_validation():
    with pytest.raises(ValueError):
        Hyper(readout="median")
    with pytest.raises(ValueError):
        Hyper(pool_ratio=0.0)
    with pytest.raises(ValueError):
        Hyper(pool_ratio=1.5)
    with pytest.raises(ValueError):
        Hyper(dropout=1.0)
    with pytest.raises(ValueError):
        Hyper(num_layers=0)
    with pytest.raises(ValueError):
        Hyper(hidden_dim=0)


def test_dropout_masks_shapes_and_values():
    rng = np.random.default_rng(0)
    masks = make_dropout_masks(HYPER, 7, rng)
    assert [m.shape for m in masks] == [(7, 16), (7, 16)]
    for m in masks:
        assert set(np.unique(m)) <= {0.0, 1.0}
    none_dropped = make_dropout_masks(Hyper(dropout=0.0), 7, np.random.default_rng(0))
    for m in none_dropped:
        np.testing.assert_array_equal(m, np.ones_like(m))


def test_forward_embedding_matches_embed(full_adder_graph):
    gt = encode(full_adder_graph)
    params = init_params(HYPER, seed=1)
    cache = forward(params, gt, HYPER)
    emb = embed(params, gt, HYPER)
    assert cache.embedding.shape == (HYPER.hidden_dim,)
    np.testing.assert_array_equal(cache.embedding, emb)
    np.testing.assert_array_equal(emb, embed(params, gt, HYPER))


def test_forward_with_masks_drops_units(full_adder_graph):
    gt = encode(full_adder_graph)
    params = init_params(HYPER, seed=1)
    rng = np.random.default_rng(5)
    masks = make_dropout_masks(HYPER, gt.num_nodes, rng)
    cache = forward(params, gt, HYPER, masks=masks)
    for h, m in zip(cache.hidden[1:], masks):
        np.testing.assert_array_equal(h[m == 0.0], 0.0)


def test_forward_is_built_from_the_layer_functions(full_adder_graph, monkeypatch):
    import ipsim.model as model_mod
    calls = {"gcn_layer": 0, "sag_pool": 0, "readout": 0}
    for name in calls:
        original = getattr(model_mod, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(model_mod, name, spy)
    hyper = Hyper(hidden_dim=8, num_layers=3, readout="mean", dropout=0.0)
    forward(init_params(hyper, seed=1), encode(full_adder_graph), hyper)
    assert calls == {"gcn_layer": 3, "sag_pool": 1, "readout": 1}

