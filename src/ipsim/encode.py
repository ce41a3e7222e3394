"""Graph to tensor encoding.

Features are one-hot node kinds over the fixed vocabulary, stored as
booleans: a pack holds the features of dozens of designs at once, and
the model's float64 products read them exactly. Each model pass casts
its features to float64 once, into the buffers that its forward and
backward steps share (``ipsim.model.Buffers``).
The message passing operator is the symmetric degree-normalized
adjacency with self loops, in float64. ``propagation`` gives every such
matrix, of one graph or of a pack, its form: dense up to
``SPARSE_THRESHOLD`` rows, a ``CSR`` of plain arrays past it, so
netlist-sized designs stay cheap. ``propagate`` is the one product P X
of either form. ``pack`` lays a list of graphs out as one block-diagonal
batch (stacked features, one propagation matrix, segment offsets) and
``take`` gathers a sub-batch of a pack, so training embeds a mini-batch
in one model pass.

A CSR product runs scipy's compiled kernel, ``csr_matvecs``, the one
that ``scipy.sparse`` multiplies with. It is loaded on its own, from
scipy's directory, without importing scipy or ``scipy.sparse``: that
import costs more time and memory than the products of a netlist compare.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ipsim.dfg import KIND_INDEX, NODE_KINDS, Graph
from ipsim.errors import EmptyGraph, ShapeMismatch

VOCAB_VERSION = "kinds-v1.36"
FEATURE_DIM = len(NODE_KINDS)
# Rows. Measured crossover: CSR embeds of ladder netlists are faster
# from about 100 rows. The value is held at 192 until a benchmark change
# can move with it, since it decides which path each ladder rung takes.
SPARSE_THRESHOLD = 192


class CSR(NamedTuple):
    """A sparse matrix in compressed sparse row form: row r holds
    ``data[indptr[r]:indptr[r + 1]]`` at columns ``indices[...]`` of the
    same range. Both index arrays are int64."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


@dataclass
class GraphTensors:
    """Model-ready view of one graph, or of a packed batch of graphs."""

    x: np.ndarray                      # (n, FEATURE_DIM) one-hot kinds, bool
    p: np.ndarray | CSR                # (n, n) normalized adjacency, symmetric
    offsets: np.ndarray | None = None  # packs only: each graph's first row, then n

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.p, np.ndarray)


def one_hot_features(graph: Graph) -> np.ndarray:
    x = np.zeros((graph.num_nodes, FEATURE_DIM), dtype=bool)
    unknown = KIND_INDEX["Unknown"]
    for node in graph.nodes:
        x[node.id, KIND_INDEX.get(node.kind, unknown)] = True
    return x


def adjacency(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the nonzeros of the symmetrized adjacency
    with self loops (A + I), in row-major order: parallel and
    antiparallel edges collapse to one entry."""
    count = graph.num_nodes
    if count == 0:
        raise EmptyGraph(f"graph {graph.name!r} has no nodes")
    ends = np.fromiter(itertools.chain.from_iterable(graph.edges), np.int64, 2 * len(graph.edges))
    src, dst = ends[0::2], ends[1::2]
    keys = np.concatenate((src * count + dst, dst * count + src, np.arange(0, count * count, count + 1)))
    keys.sort()
    first = np.ones(keys.size, bool)  # the first of each run of equal keys
    first[1:] = keys[1:] != keys[:-1]
    return np.divmod(keys[first], count)


def _pointers(counts) -> np.ndarray:
    """0, then the running sums of ``counts``."""
    out = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def normalize_adjacency(nonzeros: tuple[np.ndarray, np.ndarray]):
    """D^-1/2 (A + I) D^-1/2 from the nonzeros of A + I, in the form
    ``propagation`` gives it."""
    rows, cols = nonzeros
    degree = np.bincount(rows)
    inv_sqrt = 1.0 / np.sqrt(degree)
    return propagation(degree, cols, inv_sqrt[rows] * inv_sqrt[cols])


def propagation(counts: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The square matrix whose row r holds the next ``counts[r]`` of these
    columns and values: dense up to ``SPARSE_THRESHOLD`` rows, CSR past it."""
    size = len(counts)
    if size > SPARSE_THRESHOLD:
        return CSR(_pointers(counts), cols.astype(np.int64, copy=False), values, (size, size))
    p = np.zeros((size, size))
    p[np.repeat(np.arange(size), counts), cols] = values
    return p


@functools.cache
def _csr_matvecs():
    """scipy's CSR times dense kernel, from ``scipy.sparse``'s extension
    module loaded alone out of scipy's directory."""
    dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "_sparsetools", [os.path.join(d, "sparse") for d in dirs])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.csr_matvecs


def propagate(p, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P X for a dense or CSR propagation matrix, written into ``out``,
    shaped as P X. A CSR may be scipy's: the product reads only its
    ``indptr``, ``indices``, ``data`` and ``shape``. As scipy's own
    product does, it zeroes the result and has ``csr_matvecs`` add P X
    into it, so the values are those of scipy's ``p @ x`` bit for bit.
    The kernel writes through a flat view of ``out``, so a CSR product
    needs ``out`` C-contiguous."""
    if isinstance(p, np.ndarray):
        return np.matmul(p, x, out=out)
    rows, cols = p.shape
    if x.shape[0] != cols or out.shape != (rows, x.shape[1]) or not out.flags.c_contiguous:
        raise ShapeMismatch(f"P {p.shape} times X {x.shape} needs a C-contiguous "
                            f"{(rows, x.shape[1])} out, got {out.shape}")
    out.fill(0.0)
    _csr_matvecs()(rows, cols, x.shape[1], p.indptr, p.indices, p.data, x.ravel(), out.ravel())
    return out


def _nonzeros(p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros per row, columns and values of the nonzeros of a
    propagation matrix, dense or CSR, in row-major order."""
    if not isinstance(p, np.ndarray):
        return np.diff(p.indptr), p.indices, p.data
    rows, cols = np.nonzero(p)
    return np.bincount(rows, minlength=len(p)), cols, p[rows, cols]


def encode(graph: Graph) -> GraphTensors:
    """Lower a graph to (features, propagation matrix)."""
    return GraphTensors(x=one_hot_features(graph), p=normalize_adjacency(adjacency(graph)))


def pack(tensors: list[GraphTensors]) -> GraphTensors:
    """Block-diagonal batch of the graphs in list order."""
    offsets = _pointers([t.num_nodes for t in tensors])
    parts = [_nonzeros(t.p) for t in tensors]
    p = propagation(np.concatenate([counts for counts, _, _ in parts]),
                    np.concatenate([c + first for (_, c, _), first in zip(parts, offsets)]),
                    np.concatenate([v for _, _, v in parts]))
    return GraphTensors(x=np.concatenate([t.x for t in tensors]), p=p, offsets=offsets)


def take(packed: GraphTensors, which: np.ndarray) -> GraphTensors:
    """The graphs at positions ``which`` of a pack, as a pack in that
    order, gathered by index arithmetic: each graph's rows, and the
    nonzeros of those rows, move as one block, and a block's column
    indices shift with its first row."""
    starts = packed.offsets[which]
    sizes = packed.offsets[which + 1] - starts
    offsets = _pointers(sizes)
    shift = np.repeat(starts - offsets[:-1], sizes)
    rows = np.arange(offsets[-1]) + shift
    counts, cols, values = _nonzeros(packed.p)
    first, counts = _pointers(counts)[rows], counts[rows]
    kept = _pointers(counts)
    src = np.arange(kept[-1]) + np.repeat(first - kept[:-1], counts)
    p = propagation(counts, cols[src] - np.repeat(shift, counts), values[src])
    return GraphTensors(x=packed.x[rows], p=p, offsets=offsets)
