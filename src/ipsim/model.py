"""Graph embedding network.

Two spectral convolution layers, self-attention top-k pooling, then a
global readout. ``forward`` is built from ``gcn_layer``, ``sag_pool``
and ``readout``; ``backward`` is its exact gradient in numpy, with the
top-k selection treated as locally constant and max readout routing
gradient to the first maximal row per column.

Both run on one graph or on a pack of graphs (``ipsim.encode.pack``):
a block-diagonal propagation matrix keeps the graphs apart in the
convolutions, and the segment offsets keep them apart in pooling and
readout. The matrix is dense, or CSR past ``encode.SPARSE_THRESHOLD``
rows, and ``encode.propagate`` multiplies either form. A single graph is
a batch of one whose embedding is a vector; a pack gives one embedding
row per graph.

Every pass writes into ``Buffers``: the caller's, which a training loop
reuses from batch to batch, or new ones sized to the graph. The cache
keeps the rows its pass wrote, for ``backward`` to write there too. The
parameters, and a gradient, are one float64 vector with a view per matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ipsim.encode import FEATURE_DIM, GraphTensors, propagate
from ipsim.errors import ConfigError, ShapeMismatch

READOUTS = ("max", "mean", "sum")


@dataclass
class Hyper:
    """Architecture settings (fixed at init, stored in checkpoints)."""

    feat_dim: int = FEATURE_DIM
    hidden_dim: int = 16
    num_layers: int = 2
    pool_ratio: float = 0.5
    readout: str = "max"
    dropout: float = 0.1

    def __post_init__(self):
        if self.readout not in READOUTS:
            raise ConfigError(f"readout must be one of {READOUTS}, got {self.readout!r}")
        if not 0.0 < self.pool_ratio <= 1.0:
            raise ConfigError("pool_ratio must be in (0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.num_layers < 1:
            raise ConfigError("need at least one convolution layer")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be at least 1")

    def layer_dims(self) -> list[tuple[int, int]]:
        fan_in = [self.feat_dim] + [self.hidden_dim] * (self.num_layers - 1)
        return [(d_in, self.hidden_dim) for d_in in fan_in]

    def param_shapes(self) -> list[tuple[int, int]]:
        """Shapes of W0..Wn and the attention scorer, in checkpoint order."""
        return [*self.layer_dims(), (self.hidden_dim, 1)]


class ModelParams:
    """Every parameter in one float64 vector, ``flat``, in checkpoint
    order: ``weights`` (one (d_in, d_out) per conv layer), then ``score``
    (the (hidden, 1) attention scorer), each a view of ``flat`` with its
    entry of ``shapes``. A gradient has the same layout, so an optimizer
    step is one set of vector operations."""

    def __init__(self, flat: np.ndarray, shapes: list[tuple[int, ...]]):
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        if flat.shape != (ends[-1],):
            raise ShapeMismatch(f"{flat.shape} parameters do not fill shapes {shapes}")
        self.flat, self.shapes = flat, shapes
        *self.weights, self.score = [flat[end - math.prod(shape):end].reshape(shape)
                                     for shape, end in zip(shapes, ends)]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.shapes)

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, self.score]


def init_params(hyper: Hyper, seed: int = 0) -> ModelParams:
    """Glorot-uniform weights from a PCG64 stream, draw order W0..Wn, score."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    shapes = hyper.param_shapes()
    return ModelParams(np.concatenate([glorot(*shape).ravel() for shape in shapes]), shapes)


def gcn_layer(p, x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """One propagation step, relu(P X W). The result goes to ``out`` and
    X W to ``scratch`` when they are given."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"features {x.shape} incompatible with weight {w.shape}")
    xw = np.matmul(x, w, out=scratch)
    out = np.empty_like(xw) if out is None else out
    return np.maximum(propagate(p, xw, out), 0.0, out=out)


@dataclass
class PoolResult:
    selected: np.ndarray      # kept node ids, ascending
    alpha: np.ndarray         # raw attention scores, all nodes
    gate: np.ndarray          # tanh(alpha) on kept nodes
    x: np.ndarray             # gated features of kept nodes
    offsets: np.ndarray | None = None  # segment offsets of the kept rows (packs)


def _bounds(offsets: np.ndarray | None, count: int) -> np.ndarray:
    """Segment offsets; None stands for one segment of ``count`` rows."""
    return np.array([0, count]) if offsets is None else offsets


def top_k_indices(alpha: np.ndarray, ratio: float,
                  offsets: np.ndarray | None = None) -> np.ndarray:
    """Indices of the ceil(ratio*n) largest scores of each segment of n
    rows; ties favor the lower node id; result sorted ascending."""
    if offsets is None:  # one segment: its first keep rows by score
        keep = min(max(math.ceil(ratio * alpha.shape[0]), 1), alpha.shape[0])
        return np.sort(np.argsort(-alpha, kind="stable")[:keep])
    sizes = np.diff(offsets)
    keep = np.minimum(np.maximum(np.ceil(ratio * sizes).astype(np.int64), 1), sizes)
    # Segment ids in the smallest integer type, which numpy sorts stably
    # by radix.
    segment = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)), sizes)
    position = np.arange(alpha.shape[0])
    # Stable sorts keep ties in row order: by score, then by segment. The
    # result is ``np.lexsort((-alpha, segment))``, in half its time.
    by_score = np.argsort(-alpha, kind="stable")
    order = by_score[np.argsort(segment[by_score], kind="stable")]
    # ``order`` keeps every segment on its own rows, so a row's rank in
    # its segment is its distance from the segment's first row.
    return np.sort(order[position - offsets[segment] < keep[segment]])


def sag_pool(p, x: np.ndarray, score: np.ndarray, ratio: float,
             offsets: np.ndarray | None = None) -> PoolResult:
    xs = x @ score
    alpha = propagate(p, xs, np.empty_like(xs)).ravel()
    sel = top_k_indices(alpha, ratio, offsets)
    gate = np.tanh(alpha[sel])
    kept = None if offsets is None else np.searchsorted(sel, offsets)
    return PoolResult(selected=sel, alpha=alpha, gate=gate, x=x[sel] * gate[:, None],
                      offsets=kept)


def readout(x: np.ndarray, mode: str = "max", offsets: np.ndarray | None = None) -> np.ndarray:
    """Reduce each segment's rows to one: a vector for one graph, one
    row per graph for a pack."""
    bounds = _bounds(offsets, x.shape[0])
    if mode == "max":
        out = np.maximum.reduceat(x, bounds[:-1], axis=0)
    elif mode == "mean":
        out = np.add.reduceat(x, bounds[:-1], axis=0) / np.diff(bounds)[:, None]
    elif mode == "sum":
        out = np.add.reduceat(x, bounds[:-1], axis=0)
    else:
        raise ValueError(f"unknown readout {mode!r}")
    # A copy, so that a kept vector does not keep its (1, d) base alive.
    return out[0].copy() if offsets is None else out


@dataclass
class Buffers:
    """Arrays that ``make_dropout_masks``, ``forward`` and ``backward``
    write into through ``out=``, so that a loop of batches reuses the
    same memory. ``alloc(hyper, size)`` makes them for packs of up to
    ``size`` rows; a pass writes views of the leading rows it needs
    (``rows``). A call given none allocates its own, sized to its graph.
    Scratch that is dead before a later step writes it shares one
    array: the dropout draws, X W and P d_h all go to ``scratch``. A
    cache holds views of the rows its pass wrote, so it is valid until
    the next pass that writes them. ``forward``'s own have no masks or
    ``grad``, so a ``backward`` of that pass allocates its d_h."""

    features: np.ndarray         # one-hot features, cast to float64
    hidden: list[np.ndarray]     # h_{l+1} per layer
    masks: list[np.ndarray]      # bool keep mask per layer
    scratch: np.ndarray
    grad: np.ndarray | None      # d_h

    @classmethod
    def alloc(cls, hyper: Hyper, size: int, forward_only: bool = False) -> "Buffers":
        width, layers = hyper.hidden_dim, range(hyper.num_layers)  # every layer is width wide
        return cls(np.empty((size, hyper.feat_dim)), [np.empty((size, width)) for _ in layers],
                   [] if forward_only else [np.empty((size, width), bool) for _ in layers],
                   np.empty((size, width)), None if forward_only else np.empty((size, width)))

    def rows(self, count: int) -> "Buffers":
        """Views of the first ``count`` rows of every buffer."""
        if count > len(self.features):
            raise ShapeMismatch(f"{count} rows do not fit in buffers of {len(self.features)}")
        return Buffers(self.features[:count], [h[:count] for h in self.hidden],
                       [m[:count] for m in self.masks], self.scratch[:count],
                       self.grad[:count])


@dataclass
class ForwardCache:
    """Everything the reverse pass needs, captured during forward: the
    buffer rows the pass wrote, which ``backward`` writes into too."""

    tensors: GraphTensors
    rows: Buffers
    hidden: list[np.ndarray]             # h_0 .. h_L (post activation+dropout), views of rows
    masks: list[np.ndarray] | None
    pool: PoolResult
    embedding: np.ndarray


def make_dropout_masks(hyper: Hyper, num_nodes: int, rng: np.random.Generator,
                       buffers: Buffers | None = None) -> list[np.ndarray]:
    """One boolean keep mask per conv layer, drawn in layer order, into
    ``buffers`` (or new ones)."""
    rows = buffers.rows(num_nodes) if buffers else Buffers.alloc(hyper, num_nodes)
    return [np.greater_equal(rng.random(mask.shape, out=rows.scratch), hyper.dropout, out=mask)
            for mask in rows.masks]


def forward(params: ModelParams, gt: GraphTensors, hyper: Hyper,
            masks: list[np.ndarray] | None = None,
            buffers: Buffers | None = None) -> ForwardCache:
    """Embed one graph or each graph of a pack. Passing masks (rows as
    in ``gt``) enables (inverted) dropout. The layers write into
    ``buffers`` (or new ones), where the features are cast to float64
    once, for this pass and for ``backward``."""
    if gt.x.shape[1] != hyper.feat_dim:
        raise ShapeMismatch(f"expected {hyper.feat_dim} features, got {gt.x.shape[1]}")
    if len(params.weights) != hyper.num_layers:
        raise ShapeMismatch(f"expected {hyper.num_layers} layers, got {len(params.weights)}")
    rows = buffers.rows(gt.num_nodes) if buffers else Buffers.alloc(hyper, gt.num_nodes, forward_only=True)
    keep = 1.0 - hyper.dropout
    np.copyto(rows.features, gt.x)
    hidden = [rows.features]
    for l, w in enumerate(params.weights):
        h = gcn_layer(gt.p, hidden[-1], w, out=rows.hidden[l], scratch=rows.scratch)
        if masks is not None and hyper.dropout > 0.0:
            h *= masks[l]
            h /= keep
        hidden.append(h)
    pool = sag_pool(gt.p, hidden[-1], params.score, hyper.pool_ratio, gt.offsets)
    return ForwardCache(gt, rows, hidden, masks, pool,
                        readout(pool.x, hyper.readout, pool.offsets))


def embed(params: ModelParams, gt: GraphTensors, hyper: Hyper) -> np.ndarray:
    """Inference-mode embedding (no dropout)."""
    return forward(params, gt, hyper).embedding


def backward(params: ModelParams, hyper: Hyper, cache: ForwardCache,
             d_embedding: np.ndarray) -> ModelParams:
    """Exact gradient of the embedding against every parameter; for a
    pack, the sum over its graphs of each graph's gradient, with one
    ``d_embedding`` row per graph. d_h and P d_h go to the buffer rows
    the forward pass wrote.

    Top-k selection is piecewise constant, so its gradient contribution
    is zero; max readout sends gradient to the first maximal row of each
    segment and column, so ties, all-zero columns included, go to the
    lower row.
    """
    gt, rows = cache.tensors, cache.rows
    pool = cache.pool
    sel = pool.selected
    k, dim = pool.x.shape
    bounds = _bounds(pool.offsets, k)
    sizes = np.diff(bounds)
    segment = np.repeat(np.arange(sizes.size), sizes)
    d_out = d_embedding.reshape(sizes.size, dim)

    if hyper.readout == "max":
        is_max = pool.x == cache.embedding.reshape(sizes.size, dim)[segment]
        first = np.minimum.reduceat(np.where(is_max, np.arange(k)[:, None], k), bounds[:-1],
                                    axis=0)
        d_xpool = np.zeros((k, dim))
        d_xpool[first, np.arange(dim)] = d_out
    elif hyper.readout == "mean":
        d_xpool = d_out[segment] / sizes[segment, None]
    else:
        d_xpool = d_out[segment]

    d_gate = (d_xpool * cache.hidden[-1][sel]).sum(axis=1)
    d_alpha = np.zeros((gt.num_nodes, 1))
    d_alpha[sel, 0] = d_gate * (1.0 - pool.gate ** 2)

    # P is symmetric, so P^T d = P d, and (P h)^T d = h^T (P d): each
    # step propagates its output gradient once. Every gradient entry is
    # written below.
    grads = ModelParams(np.empty_like(params.flat), params.shapes)
    d_prop = propagate(gt.p, d_alpha, np.empty_like(d_alpha))
    np.matmul(cache.hidden[-1].T, d_prop, out=grads.score)
    d_h = np.multiply(d_prop, params.score.ravel(), out=rows.grad)
    d_xpool *= pool.gate[:, None]
    d_h[sel] += d_xpool

    keep = 1.0 - hyper.dropout
    for l in range(hyper.num_layers - 1, -1, -1):
        if cache.masks is not None and hyper.dropout > 0.0:
            d_h *= cache.masks[l]
            d_h /= keep
        # h_{l+1} > 0 where the relu is active and the unit was kept;
        # dropped units are zero in d_h already, so this is the relu gate.
        d_h *= cache.hidden[l + 1] > 0.0
        d_prop = propagate(gt.p, d_h, rows.scratch)
        np.matmul(cache.hidden[l].T, d_prop, out=grads.weights[l])
        if l:  # the features need no gradient
            d_h = np.matmul(d_prop, params.weights[l].T, out=rows.grad)
    return grads
