"""Graph embedding network.

Two spectral convolution layers, self-attention top-k pooling, then a
global readout. ``forward`` is built from ``gcn_layer``, ``sag_pool``
and ``readout``; ``backward`` is its exact gradient in numpy, with the
top-k selection treated as locally constant and max readout routing
gradient to the first maximal row per column.

Both run on one graph or on a pack of graphs (``ipsim.encode.pack``):
a block-diagonal propagation matrix keeps the graphs apart in the
convolutions, and the segment offsets keep them apart in pooling and
readout. A single graph is a batch of one whose embedding is a vector;
a pack gives one embedding row per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # csr_matvecs: scipy's own P @ X kernel

from ipsim.encode import FEATURE_DIM, GraphTensors
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
        dims = []
        fan_in = self.feat_dim
        for _ in range(self.num_layers):
            dims.append((fan_in, self.hidden_dim))
            fan_in = self.hidden_dim
        return dims


@dataclass
class ModelParams:
    weights: list[np.ndarray]       # one (d_in, d_out) per conv layer
    score: np.ndarray               # (hidden, 1) attention scorer

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], self.score.copy())

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, self.score]


def init_params(hyper: Hyper, seed: int = 0) -> ModelParams:
    """Glorot-uniform weights from a PCG64 stream, draw order W0..Wn, score."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    weights = [glorot(din, dout) for din, dout in hyper.layer_dims()]
    return ModelParams(weights, glorot(hyper.hidden_dim, 1))


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams([np.zeros_like(w) for w in params.weights], np.zeros_like(params.score))


def add_scaled(dst: ModelParams, src: ModelParams, scale: float = 1.0):
    for dw, sw in zip(dst.weights, src.weights):
        dw += scale * sw
    dst.score += scale * src.score


def _propagate(p, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P X for a dense or CSR propagation matrix, written into ``out``
    (C-contiguous float64) when one is given. scipy's product takes no
    ``out``: it zeroes a new array and has ``csr_matvecs`` add P X into
    it. Here that array is ``out``, so the values are those of ``p @ x``
    bit for bit."""
    if out is None:
        return np.asarray(p @ x)
    if not sp.issparse(p):
        return np.matmul(p, x, out=out)
    out.fill(0.0)
    _sparsetools.csr_matvecs(*p.shape, x.shape[1], p.indptr, p.indices, p.data,
                             x.ravel(), out.ravel())
    return out


def gcn_layer(p, x: np.ndarray, w: np.ndarray, activate: bool = True,
              out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """One propagation step: relu(P X W), relu optional. The result goes
    to ``out`` and X W to ``scratch`` when they are given."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"features {x.shape} incompatible with weight {w.shape}")
    z = _propagate(p, np.matmul(x, w, out=scratch), out)
    return np.maximum(z, 0.0, out=out) if activate else z


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
    bounds = _bounds(offsets, alpha.shape[0])
    sizes = np.diff(bounds)
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
    return np.sort(order[position - bounds[segment] < keep[segment]])


def sag_pool(p, x: np.ndarray, score: np.ndarray, ratio: float,
             offsets: np.ndarray | None = None) -> PoolResult:
    alpha = _propagate(p, x @ score).ravel()
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
    write into through ``out=`` instead of allocating, so that a loop of
    batches reuses the same memory. ``alloc(hyper, size)`` makes them for
    packs of up to ``size`` rows; a call writes views of the leading rows
    it needs (``rows``).
    Scratch that is dead before a later step writes it shares one
    array: the dropout draws, X W and P d_h all go to ``scratch``. A
    cache made with buffers holds views of them, so it is valid until
    the next call that writes them."""

    features: np.ndarray         # one-hot features, cast to float64
    pre_act: list[np.ndarray]    # z_l per layer
    hidden: list[np.ndarray]     # h_{l+1} per layer
    masks: list[np.ndarray]      # bool keep mask per layer
    scratch: np.ndarray
    grad: np.ndarray             # d_h

    @classmethod
    def alloc(cls, hyper: Hyper, size: int) -> "Buffers":
        def per_layer(dtype=np.float64) -> list[np.ndarray]:
            return [np.empty((size, dout), dtype) for _, dout in hyper.layer_dims()]

        return cls(np.empty((size, hyper.feat_dim)), per_layer(), per_layer(), per_layer(bool),
                   np.empty((size, hyper.hidden_dim)), np.empty((size, hyper.hidden_dim)))

    def rows(self, count: int) -> "Buffers":
        """Views of the first ``count`` rows of every buffer."""
        if count > len(self.features):
            raise ShapeMismatch(f"{count} rows do not fit in buffers of {len(self.features)}")
        return Buffers(self.features[:count], [z[:count] for z in self.pre_act],
                       [h[:count] for h in self.hidden], [m[:count] for m in self.masks],
                       self.scratch[:count], self.grad[:count])


@dataclass
class ForwardCache:
    """Everything the reverse pass needs, captured during forward."""

    tensors: GraphTensors
    hidden: list[np.ndarray] = field(default_factory=list)   # h_0 .. h_L (post activation+dropout)
    pre_act: list[np.ndarray] = field(default_factory=list)  # z_l per layer
    masks: list[np.ndarray] | None = None
    pool: PoolResult | None = None
    embedding: np.ndarray | None = None


def make_dropout_masks(hyper: Hyper, num_nodes: int, rng: np.random.Generator,
                       buffers: Buffers | None = None) -> list[np.ndarray]:
    """One boolean keep mask per conv layer, drawn in layer order; into
    ``buffers`` when they are given."""
    out = buffers and buffers.rows(num_nodes)
    return [np.greater_equal(rng.random((num_nodes, dout), out=out and out.scratch),
                             hyper.dropout, out=out and out.masks[l])
            for l, (_, dout) in enumerate(hyper.layer_dims())]


def forward(params: ModelParams, gt: GraphTensors, hyper: Hyper,
            masks: list[np.ndarray] | None = None,
            buffers: Buffers | None = None) -> ForwardCache:
    """Embed one graph or each graph of a pack. Passing masks (rows as
    in ``gt``) enables (inverted) dropout. With ``buffers``, the layers
    write into them, and the features are cast to float64 there once,
    for this pass and for ``backward``."""
    if gt.x.shape[1] != hyper.feat_dim:
        raise ShapeMismatch(f"expected {hyper.feat_dim} features, got {gt.x.shape[1]}")
    if len(params.weights) != hyper.num_layers:
        raise ShapeMismatch(f"expected {hyper.num_layers} layers, got {len(params.weights)}")
    out = buffers and buffers.rows(gt.num_nodes)
    cache = ForwardCache(tensors=gt, masks=masks)
    keep = 1.0 - hyper.dropout
    h = gt.x
    if out:
        np.copyto(out.features, h)
        h = out.features
    cache.hidden.append(h)
    for l, w in enumerate(params.weights):
        z = gcn_layer(gt.p, h, w, activate=False, out=out and out.pre_act[l],
                      scratch=out and out.scratch)
        h = np.maximum(z, 0.0, out=out and out.hidden[l])
        if masks is not None and hyper.dropout > 0.0:
            h *= masks[l]
            h /= keep
        cache.pre_act.append(z)
        cache.hidden.append(h)
    cache.pool = sag_pool(gt.p, h, params.score, hyper.pool_ratio, gt.offsets)
    cache.embedding = readout(cache.pool.x, hyper.readout, cache.pool.offsets)
    return cache


def embed(params: ModelParams, gt: GraphTensors, hyper: Hyper) -> np.ndarray:
    """Inference-mode embedding (no dropout)."""
    return forward(params, gt, hyper).embedding


def backward(params: ModelParams, hyper: Hyper, cache: ForwardCache,
             d_embedding: np.ndarray, buffers: Buffers | None = None) -> ModelParams:
    """Exact gradient of the embedding against every parameter; for a
    pack, the sum over its graphs of each graph's gradient, with one
    ``d_embedding`` row per graph.

    Top-k selection is piecewise constant, so its gradient contribution
    is zero; max readout sends gradient to the first maximal row of each
    segment and column, so ties, all-zero columns included, go to the
    lower row. With ``buffers`` (those ``forward`` wrote the cache
    into), d_h and P d_h go there.
    """
    gt = cache.tensors
    out = buffers and buffers.rows(gt.num_nodes)
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
    d_alpha = np.zeros(gt.num_nodes)
    d_alpha[sel] = d_gate * (1.0 - pool.gate ** 2)

    # P is symmetric, so P^T d = P d, and (P h)^T d = h^T (P d): each
    # step propagates its output gradient once.
    grads = zeros_like_params(params)
    d_prop = _propagate(gt.p, d_alpha)[:, None]
    grads.score[:] = cache.hidden[-1].T @ d_prop
    d_h = np.multiply(d_prop, params.score.ravel(), out=out and out.grad)
    d_xpool *= pool.gate[:, None]
    d_h[sel] += d_xpool

    keep = 1.0 - hyper.dropout
    for l in range(hyper.num_layers - 1, -1, -1):
        if cache.masks is not None and hyper.dropout > 0.0:
            d_h *= cache.masks[l]
            d_h /= keep
        d_h *= cache.pre_act[l] > 0.0
        d_prop = _propagate(gt.p, d_h, out and out.scratch)
        grads.weights[l][:] = cache.hidden[l].T @ d_prop
        if l:  # the features need no gradient
            d_h = np.matmul(d_prop, params.weights[l].T, out=out and out.grad)
    return grads
