"""Pair training loop and checkpoint persistence.

Pairs carry labels +1 (same source design) or -1 (unrelated). The loss
is the cosine embedding hinge: positive pairs pay 1 - score, negative
pairs pay max(0, score - margin). ``train`` packs the designs of the
training pairs once (``PackedPairs``, built on ``ipsim.encode.pack``).
Each epoch visits the pairs in a permutation seeded with (seed, epoch);
each mini-batch gathers the designs its pairs name from that pack, in
sorted-name order, and embeds them all in one packed forward pass, so
each design is embedded once per batch. The batch's dropout masks come
from one generator per batch, seeded with (seed, epoch, batch number)
and drawn in packed row order. The pair losses and their gradients are
computed for the whole batch at once, and one packed backward pass
returns the batch gradient, a flat vector like the parameters
(``model.ModelParams``), so that the optimizer updates all parameters
with one set of vector operations. One ``model.Buffers`` serves every
batch and every evaluation of a ``train`` call, so they write into the
same arrays instead of allocating their own. ``PackedPairs`` likewise embeds
every design a list of pairs names in one pass; ``evaluate`` (the
training-time monitor, whose test designs ``train`` packs once) and
``score_pairs`` (the scorer behind every report) score its rows.
``fit`` runs one experiment on a loaded corpus and returns its
checkpoint bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from ipsim.detect import check_delta, cosine_similarity
from ipsim.encode import VOCAB_VERSION, GraphTensors, pack, take
from ipsim.errors import (CheckpointError, ConfigError, MissingGraph, NonFiniteLoss, TrainingError,
                          VocabularyMismatch)
from ipsim.model import (Buffers, Hyper, ModelParams, backward, forward, init_params,
                         make_dropout_masks)

Pair = tuple[str, str, int]

OPTIMIZERS = ("sgd", "momentum", "adam")
MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def cosine_embedding_loss(score, label, margin: float = 0.5):
    """Hinge-style pair loss on a cosine score: 1 - score for similar
    pairs, max(0, score - margin) for dissimilar ones. Takes scalars, or
    arrays of scores and labels for an array of losses."""
    label = np.asarray(label)
    if (np.abs(label) != 1).any():
        raise ValueError(f"pair label must be +1 or -1, got {label}")
    loss = np.where(label == 1, 1.0 - score, np.maximum(score - margin, 0.0))
    return float(loss) if loss.ndim == 0 else loss


def _cosine_grads(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine score of each row pair of two row-stacked embedding arrays,
    with its gradient against either row."""
    norm_a = np.linalg.norm(a, axis=1, keepdims=True)
    norm_b = np.linalg.norm(b, axis=1, keepdims=True)
    # A zero embedding means every active unit was gated off (relu or
    # dropout), so no gradient can reach the parameters through this
    # design anyway; score 0 with zero grads is the exact subgradient. A
    # NaN norm stays live, so a non-finite embedding gives a NaN score.
    live = (norm_a != 0.0) & (norm_b != 0.0)
    norm_a = np.where(live, norm_a, 1.0)
    norm_b = np.where(live, norm_b, 1.0)
    unit_a, unit_b = a / norm_a, b / norm_b
    score = np.where(live, (unit_a * unit_b).sum(axis=1, keepdims=True), 0.0)
    d_a = np.where(live, (unit_b - score * unit_a) / norm_a, 0.0)
    d_b = np.where(live, (unit_a - score * unit_b) / norm_b, 0.0)
    return score.ravel(), d_a, d_b


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 50
    margin: float = 0.5
    delta: float = 0.5
    seed: int = 0
    patience: int | None = 10
    optimizer: str = "sgd"          # one of OPTIMIZERS

    def __post_init__(self):
        check_delta(self.delta)
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError(f"lr must be a finite number of at least 0, got {self.lr}")
        if not math.isfinite(self.margin):
            raise ConfigError(f"margin must be a finite number, got {self.margin}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float | None


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[EpochStats]
    best_epoch: int
    stopped_early: bool


class _Optimizer:
    """Steps the flat parameter vector in place; its state (velocity, or
    Adam's moments) is flat vectors too."""

    def __init__(self, config: TrainConfig, params: ModelParams):
        self.config = config
        self.step_count = 0
        if config.optimizer == "momentum":
            self.velocity = np.zeros_like(params.flat)
        elif config.optimizer == "adam":
            self.first = np.zeros_like(params.flat)
            self.second = np.zeros_like(params.flat)

    def step(self, params: ModelParams, grads: ModelParams):
        cfg = self.config
        w, g = params.flat, grads.flat
        self.step_count += 1
        if cfg.optimizer == "sgd":
            w += -cfg.lr * g
        elif cfg.optimizer == "momentum":
            self.velocity *= MOMENTUM
            self.velocity += g
            w -= cfg.lr * self.velocity
        else:
            t, m, v = self.step_count, self.first, self.second
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            w -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _check_pairs(graphs: dict[str, GraphTensors], pairs: list[Pair]):
    for a, b, label in pairs:
        if a not in graphs:
            raise MissingGraph(a)
        if b not in graphs:
            raise MissingGraph(b)
        if label not in (1, -1):
            raise ValueError(f"pair label must be +1 or -1, got {label!r}")


@dataclass
class PackedPairs:
    """Every design a list of (a, b, ...) pairs names, packed once in
    sorted-name order, and each pair's two positions in that pack."""

    names: list[str]
    designs: GraphTensors
    first: np.ndarray
    second: np.ndarray

    @classmethod
    def of(cls, graphs: dict[str, GraphTensors], pairs: list[tuple]) -> "PackedPairs":
        names = sorted({name for pair in pairs for name in pair[:2]})
        position = {name: i for i, name in enumerate(names)}
        index = np.array([(position[pair[0]], position[pair[1]]) for pair in pairs],
                         dtype=np.int64).reshape(-1, 2)
        return cls(names, pack([graphs[name] for name in names]), index[:, 0], index[:, 1])

    def embeddings(self, params: ModelParams, hyper: Hyper,
                   buffers: Buffers | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The embedding rows of each pair's two designs, from one packed
        forward pass (which writes into ``buffers`` when given)."""
        emb = forward(params, self.designs, hyper, buffers=buffers).embedding
        return emb[self.first], emb[self.second]


def _count_correct(scores: np.ndarray, labels: np.ndarray, delta: float) -> int:
    """Pairs whose verdict (score > delta) matches their label."""
    return int(np.count_nonzero((labels == 1) == (scores > delta)))


def evaluate(params: ModelParams, hyper: Hyper, graphs: dict[str, GraphTensors],
             pairs: list[Pair], delta: float, packed: PackedPairs | None = None,
             buffers: Buffers | None = None) -> tuple[float, list[float]]:
    """Accuracy of score>delta against pair labels, plus raw scores. A
    caller that evaluates the same pairs again and again passes them
    packed once (``PackedPairs.of(graphs, pairs)``), and may pass the
    ``buffers`` its forward pass writes into."""
    if not pairs:
        return 0.0, []
    # _cosine_grads scores a dead embedding as 0 instead of raising, so a
    # mid-training evaluation never aborts the run.
    packed = packed or PackedPairs.of(graphs, pairs)
    scores = _cosine_grads(*packed.embeddings(params, hyper, buffers))[0]
    labels = np.array([label for _, _, label in pairs])
    return _count_correct(scores, labels, delta) / len(pairs), scores.tolist()


def score_pairs(params: ModelParams, hyper: Hyper, graphs: dict[str, GraphTensors],
                pairs: list[tuple]) -> list[float]:
    """The clamped cosine score (``detect.cosine_similarity``) of each
    (a, b, ...) pair. Unlike ``evaluate``, a zero or non-finite embedding
    raises ZeroEmbedding naming the design."""
    rows = zip(pairs, *PackedPairs.of(graphs, pairs).embeddings(params, hyper))
    return [cosine_similarity(emb_a, emb_b, pair[:2]) for pair, emb_a, emb_b in rows]


def train(graphs: dict[str, GraphTensors], train_pairs: list[Pair],
          test_pairs: list[Pair] | None, hyper: Hyper, config: TrainConfig,
          init: ModelParams | None = None,
          log=None) -> TrainResult:
    _check_pairs(graphs, train_pairs)
    if test_pairs:
        _check_pairs(graphs, test_pairs)
    if not train_pairs:
        raise TrainingError(f"no training pairs (train 0, test {len(test_pairs or ())})")
    train_set = PackedPairs.of(graphs, train_pairs)
    test_set = PackedPairs.of(graphs, test_pairs) if test_pairs else None
    labels = np.array([label for _, _, label in train_pairs])
    # One set of buffers serves every batch and every evaluation of the
    # call: no batch is larger than the pack of all training designs.
    buffers = Buffers.alloc(hyper, max(s.designs.num_nodes for s in (train_set, test_set) if s))
    params = init.copy() if init is not None else init_params(hyper, config.seed)
    optimizer = _Optimizer(config, params)
    trace: list[EpochStats] = []
    best_params = params.copy()
    best_key: tuple | None = None
    best_epoch = 0
    stale = 0
    stopped_early = False

    for epoch in range(1, config.epochs + 1):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, epoch])))
        order = rng.permutation(len(train_pairs))
        # Summed once per epoch in pair order, so the epoch loss does not
        # depend on the order the permuted batches visit the pairs in.
        losses = np.empty(len(train_pairs))
        correct = 0
        for batch_idx in range(0, len(order), config.batch_size):
            batch = order[batch_idx:batch_idx + config.batch_size]
            losses[batch], correct_b = _train_batch(
                params, optimizer, train_set, buffers, batch, labels[batch], hyper, config,
                epoch, batch_idx // config.batch_size)
            correct += correct_b
        train_loss = float(losses.sum()) / len(train_pairs)
        train_acc = correct / len(train_pairs)
        test_acc = None
        if test_pairs:
            test_acc, _ = evaluate(params, hyper, graphs, test_pairs, config.delta, test_set,
                                   buffers)
        trace.append(EpochStats(epoch, train_loss, train_acc, test_acc))
        if log is not None:
            log(trace[-1])

        # Higher test accuracy wins; without a test set, lower train loss.
        key = (test_acc, -train_loss) if test_pairs else (-train_loss,)
        if best_key is None or key > best_key:
            best_key = key
            best_params = params.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if config.patience is not None and stale >= config.patience:
                stopped_early = True
                break

    return TrainResult(params=best_params, trace=trace,
                       best_epoch=best_epoch, stopped_early=stopped_early)


def fit(corpus, train_pairs, test_pairs, hyper: Hyper, config: TrainConfig,
        log=None) -> tuple[TrainResult, bytes]:
    """Train on the tensors of a loaded ``ipsim.corpus.Corpus`` with its
    PairRecords; return the result and the checkpoint bytes."""
    result = train(corpus.tensors, [p.as_tuple() for p in train_pairs],
                   [p.as_tuple() for p in test_pairs], hyper, config, log=log)
    meta = {"seed": config.seed, "epochs_run": len(result.trace),
            "best_epoch": result.best_epoch, "designs": len(corpus.entries),
            "train_pairs": len(train_pairs), "test_pairs": len(test_pairs)}
    return result, save_checkpoint(None, result.params, hyper, meta)


def _train_batch(params: ModelParams, optimizer: _Optimizer, train_set: PackedPairs,
                 buffers: Buffers, pairs: np.ndarray, labels: np.ndarray, hyper: Hyper,
                 config: TrainConfig, epoch: int, batch_no: int) -> tuple[np.ndarray, int]:
    """One optimizer step on the training pairs at positions ``pairs``,
    with their ``labels``. Returns each pair's loss and the number of
    pairs judged right."""
    first, second = train_set.first[pairs], train_set.second[pairs]
    used, rows = np.unique(np.concatenate((first, second)), return_inverse=True)
    batch = take(train_set.designs, used)
    masks = None
    if hyper.dropout > 0.0:
        seq = np.random.SeedSequence([config.seed, epoch, batch_no])
        masks = make_dropout_masks(hyper, batch.num_nodes, np.random.Generator(np.random.PCG64(seq)),
                                   buffers)
    cache = forward(params, batch, hyper, masks=masks, buffers=buffers)
    row_a, row_b = rows[:len(first)], rows[len(first):]
    score, d_a, d_b = _cosine_grads(cache.embedding[row_a], cache.embedding[row_b])

    loss = cosine_embedding_loss(score, labels, config.margin)
    bad = np.flatnonzero(~np.isfinite(loss))
    if bad.size:
        names, i = train_set.names, bad[0]
        raise NonFiniteLoss(f"epoch {epoch} batch {batch_no} pair "
                            f"({names[first[i]]}, {names[second[i]]})")
    upstream = np.where(labels == 1, -1.0, (score > config.margin).astype(np.float64))[:, None]
    d_emb = np.zeros_like(cache.embedding)
    np.add.at(d_emb, row_a, upstream * d_a)
    np.add.at(d_emb, row_b, upstream * d_b)

    grads = backward(params, hyper, cache, d_emb)
    grads.flat /= len(first)
    if not np.isfinite(grads.flat).all():
        raise NonFiniteLoss(f"non-finite gradient in epoch {epoch} batch {batch_no}")
    optimizer.step(params, grads)
    return loss, _count_correct(score, labels, config.delta)


def write_trace(path, trace: list[EpochStats]):
    lines = ["epoch,train_loss,train_acc,test_acc"]
    for row in trace:
        test = "" if row.test_acc is None else f"{row.test_acc:.6f}"
        lines.append(f"{row.epoch},{row.train_loss:.6f},{row.train_acc:.6f},{test}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- checkpoints -------------------------------------------------------------

MAGIC = b"IPSIMNET\x01"
CKPT_VERSION = 1


def save_checkpoint(path, params: ModelParams, hyper: Hyper, meta: dict | None = None) -> bytes:
    """Write a self-describing binary checkpoint; returns the bytes."""
    header = {
        "format_version": CKPT_VERSION,
        "vocab_version": VOCAB_VERSION,
        "hyper": asdict(hyper),
        "meta": meta or {},
        "arrays": len(params.arrays()),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(blob))
    out += blob
    for arr in params.arrays():
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    data = bytes(out)
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(data)
    return data


def load_checkpoint(path=None, data: bytes | None = None) -> tuple[ModelParams, Hyper, dict]:
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    view = memoryview(data)
    pos = 0

    def take(count: int, what: str) -> memoryview:
        nonlocal pos
        if pos + count > len(view):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = view[pos:pos + count]
        pos += count
        return chunk

    if bytes(take(len(MAGIC), "magic")) != MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic)")
    (header_len,) = struct.unpack("<I", take(4, "header length"))
    try:
        header = json.loads(bytes(take(header_len, "header")).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}")
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    if header.get("format_version") != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('format_version')!r}")
    if header.get("vocab_version") != VOCAB_VERSION:
        raise VocabularyMismatch(VOCAB_VERSION, header.get("vocab_version"))
    try:
        hyper, array_ids = Hyper(**header["hyper"]), range(header["arrays"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {type(exc).__name__}: {exc}")
    arrays = []
    for i in array_ids:
        (ndim,) = struct.unpack("<I", take(4, f"array {i} rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"array {i} shape"))
        raw = take(8 * math.prod(shape), f"array {i} data")
        arrays.append(np.frombuffer(raw, dtype="<f8").reshape(shape))
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after checkpoint payload")
    shapes = hyper.param_shapes()
    if [a.shape for a in arrays] != shapes:
        raise CheckpointError(f"corrupt checkpoint header: hyper needs arrays of shapes {shapes}, "
                              f"the payload has {[a.shape for a in arrays]}")
    flat = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
    return ModelParams(flat, shapes), hyper, header.get("meta", {})
