"""Graph embedding network.

Two spectral convolution layers, self-attention top-k pooling, then a
global readout. ``forward`` is built from ``gcn_layer``, ``sag_pool``
and ``readout``; ``backward`` is its exact gradient in numpy, with the
top-k selection treated as locally constant and max readout routing
gradient to the first maximal row per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def gcn_layer(p, x: np.ndarray, w: np.ndarray, activate: bool = True) -> np.ndarray:
    """One propagation step: relu(P X W), relu optional."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"features {x.shape} incompatible with weight {w.shape}")
    z = (p @ x) @ w
    return np.maximum(z, 0.0) if activate else z


@dataclass
class PoolResult:
    selected: np.ndarray      # kept node ids, ascending
    alpha: np.ndarray         # raw attention scores, all nodes
    gate: np.ndarray          # tanh(alpha) on kept nodes
    x: np.ndarray             # gated features of kept nodes
    prop: np.ndarray          # P @ x, the scorer's input


def top_k_indices(alpha: np.ndarray, ratio: float) -> np.ndarray:
    """Indices of the ceil(ratio*n) largest scores; ties favor the lower
    node id; result sorted ascending."""
    count = alpha.shape[0]
    k = min(max(int(math.ceil(ratio * count)), 1), count)
    order = np.lexsort((np.arange(count), -alpha))
    return np.sort(order[:k])


def sag_pool(p, x: np.ndarray, score: np.ndarray, ratio: float) -> PoolResult:
    prop = np.asarray(p @ x)
    alpha = (prop @ score).ravel()
    sel = top_k_indices(alpha, ratio)
    gate = np.tanh(alpha[sel])
    return PoolResult(selected=sel, alpha=alpha, gate=gate, x=x[sel] * gate[:, None], prop=prop)


def readout(x: np.ndarray, mode: str = "max") -> np.ndarray:
    if mode == "max":
        return x.max(axis=0)
    if mode == "mean":
        return x.mean(axis=0)
    if mode == "sum":
        return x.sum(axis=0)
    raise ValueError(f"unknown readout {mode!r}")


@dataclass
class ForwardCache:
    """Everything the reverse pass needs, captured during forward."""

    tensors: GraphTensors
    hidden: list[np.ndarray] = field(default_factory=list)   # h_0 .. h_L (post activation+dropout)
    pre_act: list[np.ndarray] = field(default_factory=list)  # z_l per layer
    masks: list[np.ndarray] | None = None
    pool: PoolResult | None = None
    embedding: np.ndarray | None = None


def make_dropout_masks(hyper: Hyper, num_nodes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One keep/drop mask per conv layer, drawn in layer order."""
    return [
        (rng.random((num_nodes, dout)) >= hyper.dropout).astype(np.float64)
        for _, dout in hyper.layer_dims()
    ]


def forward(params: ModelParams, gt: GraphTensors, hyper: Hyper,
            masks: list[np.ndarray] | None = None) -> ForwardCache:
    """Embed one graph. Passing masks enables (inverted) dropout."""
    if gt.x.shape[1] != hyper.feat_dim:
        raise ShapeMismatch(f"expected {hyper.feat_dim} features, got {gt.x.shape[1]}")
    if len(params.weights) != hyper.num_layers:
        raise ShapeMismatch(f"expected {hyper.num_layers} layers, got {len(params.weights)}")
    cache = ForwardCache(tensors=gt, masks=masks)
    keep = 1.0 - hyper.dropout
    h = gt.x
    cache.hidden.append(h)
    for l, w in enumerate(params.weights):
        z = gcn_layer(gt.p, h, w, activate=False)
        h = np.maximum(z, 0.0)
        if masks is not None and hyper.dropout > 0.0:
            h = h * masks[l] / keep
        cache.pre_act.append(z)
        cache.hidden.append(h)
    cache.pool = sag_pool(gt.p, h, params.score, hyper.pool_ratio)
    cache.embedding = readout(cache.pool.x, hyper.readout)
    return cache


def embed(params: ModelParams, gt: GraphTensors, hyper: Hyper) -> np.ndarray:
    """Inference-mode embedding (no dropout)."""
    return forward(params, gt, hyper).embedding


def backward(params: ModelParams, hyper: Hyper, cache: ForwardCache,
             d_embedding: np.ndarray) -> ModelParams:
    """Exact gradient of the embedding against every parameter.

    Top-k selection is piecewise constant, so its gradient contribution
    is zero; max readout sends gradient to the first argmax row.
    """
    gt = cache.tensors
    pool = cache.pool
    sel = pool.selected
    k, dim = pool.x.shape

    d_xpool = np.zeros((k, dim))
    if hyper.readout == "max":
        d_xpool[pool.x.argmax(axis=0), np.arange(dim)] = d_embedding
    elif hyper.readout == "mean":
        d_xpool[:] = d_embedding / k
    else:
        d_xpool[:] = d_embedding

    h_top = cache.hidden[-1]
    d_h = np.zeros_like(h_top)
    d_h[sel] += d_xpool * pool.gate[:, None]
    d_gate = (d_xpool * h_top[sel]).sum(axis=1)
    d_alpha = np.zeros(gt.num_nodes)
    d_alpha[sel] = d_gate * (1.0 - pool.gate ** 2)

    grads = zeros_like_params(params)
    grads.score[:] = pool.prop.T @ d_alpha[:, None]
    d_prop_pool = d_alpha[:, None] * params.score.ravel()[None, :]
    d_h += np.asarray(gt.p.T @ d_prop_pool)

    keep = 1.0 - hyper.dropout
    for l in range(hyper.num_layers - 1, -1, -1):
        if cache.masks is not None and hyper.dropout > 0.0:
            d_h = d_h * cache.masks[l] / keep
        d_z = d_h * (cache.pre_act[l] > 0.0)
        grads.weights[l][:] = np.asarray(gt.p @ cache.hidden[l]).T @ d_z
        d_prop = d_z @ params.weights[l].T
        d_h = np.asarray(gt.p.T @ d_prop)
    return grads
