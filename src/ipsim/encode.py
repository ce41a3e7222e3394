"""Graph to tensor encoding.

Features are one-hot node kinds over the fixed vocabulary. The message
passing operator is the symmetric degree-normalized adjacency with self
loops. Everything is float64; graphs past the sparse threshold switch
to CSR so netlist-sized designs stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ipsim.dfg import KIND_INDEX, NODE_KINDS, Graph
from ipsim.errors import EmptyGraph

VOCAB_VERSION = "kinds-v1.36"
FEATURE_DIM = len(NODE_KINDS)
SPARSE_THRESHOLD = 512


@dataclass
class GraphTensors:
    """Model-ready view of one graph."""

    name: str
    x: np.ndarray                      # (n, FEATURE_DIM) one-hot kinds
    p: np.ndarray | sp.csr_matrix     # (n, n) normalized adjacency

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.p)


def one_hot_features(graph: Graph) -> np.ndarray:
    x = np.zeros((graph.num_nodes, FEATURE_DIM), dtype=np.float64)
    unknown = KIND_INDEX["Unknown"]
    for node in graph.nodes:
        x[node.id, KIND_INDEX.get(node.kind, unknown)] = 1.0
    return x


def adjacency(graph: Graph, sparse: bool = False):
    """Symmetrized adjacency with self loops (A + I), parallel and
    antiparallel edges collapsed to weight one."""
    count = graph.num_nodes
    if count == 0:
        raise EmptyGraph(f"graph {graph.name!r} has no nodes")
    if sparse:
        rows, cols = [], []
        for s, d in graph.edges:
            rows.extend((s, d))
            cols.extend((d, s))
        rows.extend(range(count))
        cols.extend(range(count))
        data = np.ones(len(rows), dtype=np.float64)
        mat = sp.coo_matrix((data, (rows, cols)), shape=(count, count)).tocsr()
        mat.data[:] = 1.0  # duplicate entries summed by coo; flatten back to 0/1
        return mat
    mat = np.zeros((count, count), dtype=np.float64)
    for s, d in graph.edges:
        mat[s, d] = 1.0
        mat[d, s] = 1.0
    mat[np.diag_indices(count)] = 1.0
    return mat


def normalize_adjacency(a_hat):
    """D^-1/2 (A + I) D^-1/2 for dense or CSR input."""
    if sp.issparse(a_hat):
        deg = np.asarray(a_hat.sum(axis=1)).ravel()
        inv_sqrt = 1.0 / np.sqrt(deg)
        d_mat = sp.diags(inv_sqrt)
        return (d_mat @ a_hat @ d_mat).tocsr()
    deg = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def encode(graph: Graph) -> GraphTensors:
    """Lower a graph to (features, propagation matrix)."""
    if graph.num_nodes == 0:
        raise EmptyGraph(f"graph {graph.name!r} has no nodes")
    sparse = graph.num_nodes > SPARSE_THRESHOLD
    return GraphTensors(
        name=graph.name,
        x=one_hot_features(graph),
        p=normalize_adjacency(adjacency(graph, sparse=sparse)),
    )
