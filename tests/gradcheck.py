"""Central-difference harness for checking training-loss gradients.

The loss closure replays the exact dropout masks the trainer draws for
a given (seed, epoch, batch) coordinate, split per design, so finite
differences and the analytic reverse pass see the same stochastic
computation. The analytic gradient is recovered through the public API
by running one full-batch plain-SGD step at learning rate 1 and reading
the parameter delta, which equals the mean-loss gradient exactly.
"""
import numpy as np

from ipsim.model import Hyper, ModelParams, forward, make_dropout_masks
from ipsim.train import TrainConfig, train
from reference import cosine_reference, loss_reference

# Minimum distance from any relu kink, pooling tie, readout tie, or
# hinge corner for a batch to count as differentiable. Perturbations of
# size h=1e-6 cannot cross a gap this wide.
KINK_TOL = 1e-4


def mask_plan(config: TrainConfig, hyper: Hyper, gts: dict, names,
              epoch: int = 1, batch_no: int = 0) -> dict:
    """The dropout masks _train_batch would draw for this batch: one
    generator per batch, drawn over the packed rows of the designs in
    sorted-name order, then split back per design."""
    names = sorted(names)
    if hyper.dropout == 0.0:
        return {name: None for name in names}
    seq = np.random.SeedSequence([config.seed, epoch, batch_no])
    sizes = [gts[name].num_nodes for name in names]
    masks = make_dropout_masks(hyper, sum(sizes), np.random.Generator(np.random.PCG64(seq)))
    parts = [np.split(mask, np.cumsum(sizes)[:-1]) for mask in masks]
    return {name: [part[i] for part in parts] for i, name in enumerate(names)}


def pair_order(config: TrainConfig, count: int, epoch: int = 1) -> np.ndarray:
    """The order in which the trainer visits ``count`` pairs in an
    epoch: a permutation seeded with (seed, epoch)."""
    seq = np.random.SeedSequence([config.seed, epoch])
    return np.random.Generator(np.random.PCG64(seq)).permutation(count)


def batch_names(batch) -> list[str]:
    return sorted({name for a, b, _ in batch for name in (a, b)})


def batch_loss(params: ModelParams, gts: dict, batch, hyper: Hyper,
               margin: float, masks: dict) -> float:
    """Mean cosine-embedding loss over the batch, scored by the oracle."""
    embs = {
        name: forward(params, gts[name], hyper, masks=masks[name]).embedding
        for name in batch_names(batch)
    }
    total = 0.0
    for a, b, label in batch:
        score = cosine_reference(embs[a].tolist(), embs[b].tolist())
        total += loss_reference(score, label, margin)
    return total / len(batch)


def analytic_grads(params: ModelParams, gts: dict, batch, hyper: Hyper,
                   config: TrainConfig) -> list[np.ndarray]:
    """Mean-loss gradient per parameter matrix, via a unit-lr SGD probe
    whose pairs are laid out so that the trainer visits them in batch
    order."""
    probe = TrainConfig(lr=1.0, batch_size=len(batch), epochs=1,
                        margin=config.margin, delta=config.delta,
                        seed=config.seed, patience=None, optimizer="sgd")
    laid_out = list(batch)
    for position, index in enumerate(pair_order(probe, len(batch))):
        laid_out[index] = batch[position]
    result = train(gts, laid_out, None, hyper, probe, init=params)
    return [before - after
            for before, after in zip(params.arrays(), result.params.arrays())]


def fd_grads(params: ModelParams, gts: dict, batch, hyper: Hyper,
             config: TrainConfig, h: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of the mean batch loss, every entry."""
    masks = mask_plan(config, hyper, gts, batch_names(batch))
    work = params.copy()
    grads = []
    for arr in work.arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = batch_loss(work, gts, batch, hyper, config.margin, masks)
            arr[idx] = orig - h
            down = batch_loss(work, gts, batch, hyper, config.margin, masks)
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def matrix_rel_errors(fd: list[np.ndarray], an: list[np.ndarray]) -> list[float]:
    """Worst absolute deviation per matrix, scaled by that matrix's
    largest finite-difference magnitude."""
    errs = []
    for f, a in zip(fd, an):
        scale = max(float(np.abs(f).max()), 1e-12)
        errs.append(float(np.abs(f - a).max()) / scale)
    return errs


def differentiable_batch(params: ModelParams, gts: dict, batch,
                         hyper: Hyper, config: TrainConfig) -> bool:
    """True when every piecewise boundary is at least KINK_TOL away:
    relu pre-activations, the top-k pooling cut, the max-readout argmax
    gap per column, the hinge corner for dissimilar pairs, and embedding
    norms (so the cosine stays well conditioned). Batches failing this
    are redrawn rather than tested."""
    masks = mask_plan(config, hyper, gts, batch_names(batch))
    embs = {}
    for name in batch_names(batch):
        gt = gts[name]
        cache = forward(params, gt, hyper, masks=masks[name])
        for h, w in zip(cache.hidden, params.weights):
            if np.abs(gt.p @ (h @ w)).min() < KINK_TOL:  # layer input to pre-activation
                return False
        pool = cache.pool
        ranked = np.sort(pool.alpha)[::-1]
        k = len(pool.selected)
        if k < len(ranked) and ranked[k - 1] - ranked[k] < KINK_TOL:
            return False
        # Readout argmax: entries clamped to zero (relu or dropout) are
        # constant under perturbation, so a column is only ambiguous if a
        # live entry sits near the clamped plateau or near another live
        # entry. A column whose live entries are all safely negative has
        # a constant max of zero and zero gradient on both sides.
        h_sel = cache.hidden[-1][pool.selected]
        for col, live_col in zip(pool.x.T, (h_sel > 0.0).T):
            live = col[live_col]
            if live.size == 0:
                continue
            clamped = not live_col.all()
            if clamped and abs(float(live.max())) < KINK_TOL:
                return False
            if clamped and live.max() < 0.0:
                continue
            ranked_live = np.sort(live)[::-1]
            if ranked_live.size > 1 and ranked_live[0] - ranked_live[1] < KINK_TOL:
                return False
        if float(np.linalg.norm(cache.embedding)) < 1e-3:
            return False
        embs[name] = cache.embedding
    for a, b, label in batch:
        score = cosine_reference(embs[a].tolist(), embs[b].tolist())
        if label == -1 and abs(score - config.margin) < 10 * KINK_TOL:
            return False
    return True
