"""The reference embedding on tiny graphs worked out by hand."""

import math
from pathlib import Path

import numpy as np

import refmodel

VOCAB = ("Input", "Output", "Unknown")
R6 = math.sqrt(6)


def test_propagation_of_a_path():
    # 0 - 1 - 2 with self loops: degrees 2, 3, 2.
    p = refmodel.propagation(3, [(1, 0), (1, 2)])
    expect = np.array([[1 / 2, 1 / R6, 0], [1 / R6, 1 / 3, 1 / R6], [0, 1 / R6, 1 / 2]])
    assert np.abs(p - expect).max() <= 1e-15


def test_features_one_hot_with_unknown():
    assert refmodel.features(["Output", "Xor"], VOCAB).tolist() == [[0, 1, 0], [0, 0, 1]]


def test_top_k_ties_go_to_the_lower_id():
    assert refmodel.top_k([3.0, 3.0, 1.0], 0.5) == [0, 1]
    assert refmodel.top_k([1.0, 3.0, 3.0], 0.34) == [1, 2]
    assert refmodel.top_k([2.0, 5.0, 5.0, 1.0], 0.25) == [1]
    assert refmodel.top_k([0.0], 0.1) == [0]


def test_path_embedding():
    # Kinds Input, Output, Input; W picks the Input column, so X W = [1, 0, 1]
    # and h = P X W = [1/2, 2/sqrt6, 1/2]. alpha = P h = [7/12, 5/(3 sqrt6), 7/12].
    # k = ceil(0.34 * 3) = 2 keeps node 1 and node 0 (tie with node 2).
    w = np.array([[1.0], [0.0], [0.0]])
    emb = refmodel.embed(["Input", "Output", "Input"], [(1, 0), (1, 2)], VOCAB,
                         [w], np.array([[1.0]]), 0.34)
    expect = max(0.5 * math.tanh(7 / 12), 2 / R6 * math.tanh(5 / (3 * R6)))
    assert emb.shape == (1,)
    assert abs(emb[0] - expect) <= 1e-15

    dead = refmodel.embed(["Input", "Output", "Input"], [(1, 0), (1, 2)], VOCAB,
                          [-w], np.array([[1.0]]), 0.34)
    assert dead.tolist() == [0.0]


def test_cosine():
    assert abs(refmodel.cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
               - 1 / math.sqrt(2)) <= 1e-15
    assert refmodel.cosine(np.array([2.0, 0.0]), np.array([-1.0, 0.0])) == -1.0


def test_matches_program_on_a_shipped_design():
    from ipsim.dfg import NODE_KINDS
    from ipsim.encode import encode
    from ipsim.model import Hyper, embed, init_params
    from ipsim.pipeline import compile_design

    path = Path(__file__).resolve().parents[2] / "corpus" / "fa" / "fulladd.v"
    graph = compile_design([path])
    hyper = Hyper()
    params = init_params(hyper, seed=3)
    ref = refmodel.embed_graph(graph, NODE_KINDS, params, hyper.pool_ratio)
    assert np.abs(ref - embed(params, encode(graph), hyper)).max() <= 1e-12
