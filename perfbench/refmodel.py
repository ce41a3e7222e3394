"""Independent dense-numpy reference of the embedding network and score.

Written from the model's equations, not from ``ipsim.encode`` or
``ipsim.model``, so the benchmark can check the program's outputs
against it:

    P      = D^-1/2 (A + I) D^-1/2      A symmetrized, entries 0/1
    H_l    = relu(P H_{l-1} W_l)         H_0 = one-hot node kinds
    alpha  = P H_L s                     SAG attention score
    keep   = top ceil(ratio * n) nodes by alpha, ties to the lower id
    X      = H_L[keep] * tanh(alpha[keep])
    embed  = max over the rows of X
    score  = cosine(embed_a, embed_b)
"""

from __future__ import annotations

import math

import numpy as np


def propagation(num_nodes: int, edges) -> np.ndarray:
    a = np.eye(num_nodes)
    for s, d in edges:
        a[s, d] = 1.0
        a[d, s] = 1.0
    deg = a.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(deg))
    return d_inv_sqrt @ a @ d_inv_sqrt


def features(kinds: list[str], vocabulary: tuple[str, ...]) -> np.ndarray:
    index = {kind: i for i, kind in enumerate(vocabulary)}
    x = np.zeros((len(kinds), len(vocabulary)))
    for row, kind in enumerate(kinds):
        x[row, index.get(kind, index["Unknown"])] = 1.0
    return x


def top_k(alpha, ratio: float) -> list[int]:
    """Ids of the ceil(ratio * n) highest scores, ties to the lower id,
    in ascending order."""
    n = len(alpha)
    k = min(max(math.ceil(ratio * n), 1), n)
    return sorted(sorted(range(n), key=lambda i: (-alpha[i], i))[:k])


def embed(kinds: list[str], edges, vocabulary: tuple[str, ...],
          weights: list[np.ndarray], score: np.ndarray, ratio: float) -> np.ndarray:
    n = len(kinds)
    p = propagation(n, edges)
    h = features(kinds, vocabulary)
    for w in weights:
        h = np.maximum(p @ h @ w, 0.0)
    alpha = (p @ h @ score).ravel()
    keep = top_k(alpha, ratio)
    x = h[keep] * np.tanh(alpha[keep])[:, None]
    return x.max(axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))


def embed_graph(graph, vocabulary, params, ratio: float) -> np.ndarray:
    """Reference embedding of an ``ipsim.dfg.Graph`` under ``ModelParams``."""
    kinds = [node.kind for node in graph.nodes]
    return embed(kinds, graph.edges, vocabulary, params.weights, params.score, ratio)
