"""Graph to tensor encoding.

Features are one-hot node kinds over the fixed vocabulary, stored as
booleans: a pack holds the features of dozens of designs at once, and
the model's float64 products read them exactly. Each model pass casts
its features to float64 once, into the buffers that its forward and
backward steps share (``ipsim.model.Buffers``).
The message passing operator is the symmetric degree-normalized
adjacency with self loops, in float64; graphs past the sparse threshold
switch to CSR so netlist-sized designs stay cheap. ``pack`` lays a list
of graphs out as one block-diagonal batch (stacked features, one CSR
propagation matrix, segment offsets) and ``take`` gathers a sub-batch
of a pack, so training embeds a mini-batch in one model pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ipsim.dfg import KIND_INDEX, NODE_KINDS, Graph
from ipsim.errors import EmptyGraph

VOCAB_VERSION = "kinds-v1.36"
FEATURE_DIM = len(NODE_KINDS)
SPARSE_THRESHOLD = 192  # nodes: dense embeds win up to here, CSR ones from about 220


@dataclass
class GraphTensors:
    """Model-ready view of one graph, or of a packed batch of graphs."""

    name: str
    x: np.ndarray                      # (n, FEATURE_DIM) one-hot kinds, bool
    p: np.ndarray | sp.csr_matrix     # (n, n) normalized adjacency, symmetric
    offsets: np.ndarray | None = None  # packs only: each graph's first row, then n

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.p)


def one_hot_features(graph: Graph) -> np.ndarray:
    x = np.zeros((graph.num_nodes, FEATURE_DIM), dtype=bool)
    unknown = KIND_INDEX["Unknown"]
    for node in graph.nodes:
        x[node.id, KIND_INDEX.get(node.kind, unknown)] = True
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


def _entries(p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of a propagation
    matrix, dense or CSR, in row-major order."""
    if sp.issparse(p):
        coo = p.tocoo()
        return coo.row, coo.col, coo.data
    rows, cols = np.nonzero(p)
    return rows, cols, p[rows, cols]


def pack(tensors: list[GraphTensors]) -> GraphTensors:
    """Block-diagonal batch of the graphs in list order."""
    offsets = np.cumsum([0] + [t.num_nodes for t in tensors])
    entries = [_entries(t.p) for t in tensors]
    rows = np.concatenate([r + first for (r, _, _), first in zip(entries, offsets)])
    cols = np.concatenate([c + first for (_, c, _), first in zip(entries, offsets)])
    size = int(offsets[-1])
    # The entries are row-major, so each row's count gives the row pointers.
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
    p = sp.csr_matrix((np.concatenate([v for _, _, v in entries]), cols, indptr),
                      shape=(size, size))
    return GraphTensors(name="pack", x=np.concatenate([t.x for t in tensors]), p=p,
                        offsets=offsets)


def take(packed: GraphTensors, which: np.ndarray) -> GraphTensors:
    """The graphs at positions ``which`` of a pack, as a pack in that
    order, gathered by index arithmetic: each graph's rows, and the CSR
    entries of those rows, move as one block, and a block's column
    indices shift with its first row."""
    starts = packed.offsets[which]
    sizes = packed.offsets[which + 1] - starts
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    shift = np.repeat(starts - offsets[:-1], sizes)
    rows = np.arange(offsets[-1]) + shift
    first, counts = packed.p.indptr[rows], np.diff(packed.p.indptr)[rows]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    src = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], counts)
    size = int(offsets[-1])
    p = sp.csr_matrix((packed.p.data[src], packed.p.indices[src] - np.repeat(shift, counts),
                       indptr), shape=(size, size))
    return GraphTensors(name=packed.name, x=packed.x[rows], p=p, offsets=offsets)
