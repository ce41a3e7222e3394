import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_edges, random_graph_edges
from ipsim.encode import VOCAB_VERSION, encode
from ipsim.errors import (
    CheckpointError,
    MissingGraph,
    ConfigError,
    NonFiniteLoss,
    TrainingError,
    VocabularyMismatch,
)
from ipsim.model import Buffers, Hyper, ModelParams, init_params
from ipsim.train import (
    MAGIC,
    TrainConfig,
    _Optimizer,
    cosine_embedding_loss,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_trace,
)
from reference import loss_reference, optimizer_reference

HYPER = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout="max", dropout=0.1)


def toy_setup(num_graphs: int = 6, seed: int = 0):
    rng = np.random.default_rng(seed)
    gts = {}
    for i in range(num_graphs):
        n = int(rng.integers(5, 12))
        g = graph_from_edges(f"g{i}", random_graph_edges(rng, n), n)
        gts[g.name] = encode(g)
    names = sorted(gts)
    pairs = [(names[i], names[(i + 1) % len(names)], 1 if i % 2 == 0 else -1)
             for i in range(len(names))]
    return gts, pairs


def test_loss_values_exact():
    assert cosine_embedding_loss(1.0, 1, margin=0.5) == 0.0
    assert cosine_embedding_loss(0.3, -1, margin=0.5) == 0.0
    assert cosine_embedding_loss(0.9, -1, margin=0.5) == 0.4


def test_loss_rejects_bad_label():
    with pytest.raises(ValueError):
        cosine_embedding_loss(0.5, 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1, 1), st.sampled_from([1, -1]), st.floats(0.0, 1.0))
def test_loss_matches_reference_and_bounds(score, label, margin):
    got = cosine_embedding_loss(score, label, margin=margin)
    assert got == loss_reference(score, label, margin)
    assert 0.0 <= got <= 2.0


def test_hinge_flat_below_margin():
    for score in (-1.0, -0.2, 0.0, 0.4999):
        assert cosine_embedding_loss(score, -1, margin=0.5) == 0.0


def fresh_nan_rows(self, count: int) -> Buffers:
    """Stands in for ``Buffers.rows``: new arrays full of NaN (True for
    masks) on every call, so nothing an earlier call wrote can be read."""
    def fresh(a):
        return np.full((count, *a.shape[1:]), np.nan).astype(a.dtype)

    return Buffers(fresh(self.features), [fresh(h) for h in self.hidden],
                   [fresh(m) for m in self.masks], fresh(self.scratch), fresh(self.grad))


def test_training_is_deterministic(monkeypatch):
    gts, pairs = toy_setup()
    config = TrainConfig(lr=0.01, batch_size=4, epochs=5, seed=11, patience=None)
    runs = []
    for _ in range(2):
        result = train(gts, pairs, None, HYPER, config)
        runs.append(save_checkpoint(None, result.params, HYPER,
                                    meta={"epoch": result.best_epoch}))
    assert runs[0] == runs[1]

    # Batches of 4, 4 and 1 pairs over graphs of 5 to 11 nodes differ in
    # row count, and the last is short. ``train`` reuses one set of
    # buffers for them all; a stale row read from a reused buffer would
    # set it apart from a run that gets new NaN-filled arrays each call.
    gts, pairs = toy_setup(num_graphs=9, seed=3)
    config = TrainConfig(lr=0.05, batch_size=4, epochs=4, seed=5, patience=None)
    runs = [train(gts, pairs, pairs[:4], HYPER, config) for _ in range(2)]
    monkeypatch.setattr(Buffers, "rows", fresh_nan_rows)
    runs.append(train(gts, pairs, pairs[:4], HYPER, config))
    blobs = {save_checkpoint(None, r.params, HYPER) for r in runs}
    traces = {tuple(map(str, r.trace)) for r in runs}
    assert len(blobs) == 1 and len(traces) == 1


def test_different_seed_changes_checkpoint():
    gts, pairs = toy_setup()
    blobs = []
    for seed in (1, 2):
        config = TrainConfig(lr=0.01, batch_size=4, epochs=3, seed=seed, patience=None)
        result = train(gts, pairs, None, HYPER, config)
        blobs.append(save_checkpoint(None, result.params, HYPER))
    assert blobs[0] != blobs[1]


def test_checkpoint_round_trip(tmp_path):
    params = init_params(HYPER, seed=5)
    meta = {"epoch": 7, "loss": 0.125, "seed": 5}
    path = tmp_path / "model.ckpt"
    data = save_checkpoint(path, params, HYPER, meta=meta)
    assert path.read_bytes() == data
    loaded, hyper, got_meta = load_checkpoint(path)
    assert hyper == HYPER
    assert got_meta == meta
    for a, b in zip(params.arrays(), loaded.arrays()):
        np.testing.assert_array_equal(a, b)
    from_bytes, _, _ = load_checkpoint(data=data)
    for a, b in zip(params.arrays(), from_bytes.arrays()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_truncation_detected():
    params = init_params(HYPER, seed=0)
    data = save_checkpoint(None, params, HYPER)
    for cut in (3, len(MAGIC) + 2, len(data) // 2, len(data) - 1):
        with pytest.raises(CheckpointError):
            load_checkpoint(data=data[:cut])


def test_checkpoint_bad_magic_and_trailing_garbage():
    params = init_params(HYPER, seed=0)
    data = save_checkpoint(None, params, HYPER)
    with pytest.raises(CheckpointError):
        load_checkpoint(data=b"NOTAMODEL" + data[9:])
    with pytest.raises(CheckpointError):
        load_checkpoint(data=data + b"\x00")


def doctor_header(data: bytes, edit) -> bytes:
    """The checkpoint with its JSON header replaced by edit(header)."""
    header_len = struct.unpack("<I", data[len(MAGIC):len(MAGIC) + 4])[0]
    start = len(MAGIC) + 4
    blob = json.dumps(edit(json.loads(data[start:start + header_len]))).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + data[start + header_len:]


def test_checkpoint_vocabulary_mismatch():
    params = init_params(HYPER, seed=0)
    data = save_checkpoint(None, params, HYPER)
    doctored = doctor_header(data, lambda header: {**header, "vocab_version": "bogus-v0"})
    with pytest.raises(VocabularyMismatch):
        load_checkpoint(data=doctored)
    assert VOCAB_VERSION != "bogus-v0"


MALFORMED_HEADERS = {
    "unknown-hyper-key": (lambda header: {**header, "hyper": {**header["hyper"], "width": 3}},
                          "TypeError: .*unexpected keyword argument 'width'"),
    "no-arrays": (lambda header: {k: v for k, v in header.items() if k != "arrays"},
                  "KeyError: 'arrays'"),
    "list": (lambda header: [header], "not a JSON object"),
    # The arrays are 8 wide; a header that claims 16 contradicts them.
    "hyper-contradicts-arrays": (
        lambda header: {**header, "hyper": {**header["hyper"], "hidden_dim": 16}},
        r"hyper needs arrays of shapes \[\(\d+, 16\), "),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_checkpoint_header_is_checkpoint_error(case):
    edit, message = MALFORMED_HEADERS[case]
    data = save_checkpoint(None, init_params(HYPER, seed=0), HYPER)
    with pytest.raises(CheckpointError, match=f"^corrupt checkpoint header: {message}"):
        load_checkpoint(data=doctor_header(data, edit))


def test_missing_graph_and_bad_pair_label():
    gts, pairs = toy_setup()
    config = TrainConfig(epochs=1, patience=None)
    with pytest.raises(MissingGraph):
        train(gts, [("g0", "nope", 1)], None, HYPER, config)
    with pytest.raises(ValueError):
        train(gts, [("g0", "g1", 2)], None, HYPER, config)
    with pytest.raises(TrainingError, match=r"no training pairs \(train 0, test 0\)"):
        train(gts, [], None, HYPER, config)


def test_non_finite_loss_aborts():
    gts, pairs = toy_setup()
    params = init_params(HYPER, seed=0)
    params.weights[0][0, 0] = np.nan
    config = TrainConfig(epochs=1, patience=None)
    with pytest.raises(NonFiniteLoss):
        train(gts, pairs, None, HYPER, config, init=params)


def test_early_stopping_respects_patience():
    gts, pairs = toy_setup()
    # With dropout off and a zero learning rate nothing ever improves,
    # so the run stops after exactly 1 (baseline) + patience epochs,
    # whatever order each seed's shuffles visit the pairs in.
    frozen = Hyper(hidden_dim=8, num_layers=2, pool_ratio=0.5, readout="max", dropout=0.0)
    for seed in (3, 7, 9):
        config = TrainConfig(lr=0.0, epochs=50, seed=seed, patience=2)
        result = train(gts, pairs, pairs, frozen, config)
        assert result.stopped_early, f"seed {seed}"
        assert len(result.trace) == 3, f"seed {seed}"
    no_stop = TrainConfig(lr=0.0, epochs=5, seed=3, patience=None)
    result = train(gts, pairs, pairs, frozen, no_stop)
    assert not result.stopped_early
    assert len(result.trace) == 5


def test_best_epoch_checkpoint_returned():
    gts, pairs = toy_setup()
    config = TrainConfig(lr=0.05, batch_size=4, epochs=8, seed=2, patience=None)
    result = train(gts, pairs, pairs, HYPER, config)
    assert 1 <= result.best_epoch <= 8
    accs = [row.test_acc for row in result.trace]
    assert accs[result.best_epoch - 1] == max(accs)


def test_optimizers_diverge_from_sgd():
    gts, pairs = toy_setup()
    blobs = {}
    for opt in ("sgd", "momentum", "adam"):
        config = TrainConfig(lr=0.01, batch_size=4, epochs=3, seed=4,
                             patience=None, optimizer=opt)
        result = train(gts, pairs, None, HYPER, config)
        blobs[opt] = save_checkpoint(None, result.params, HYPER)
    assert blobs["sgd"] != blobs["momentum"]
    assert blobs["sgd"] != blobs["adam"]
    assert blobs["momentum"] != blobs["adam"]


@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
def test_optimizer_matches_per_array_reference(optimizer):
    params = init_params(HYPER, seed=6)
    rng = np.random.default_rng(6)
    grads = [ModelParams(rng.standard_normal(params.flat.shape), params.shapes)
             for _ in range(25)]
    stepped = params.copy()
    step = _Optimizer(TrainConfig(lr=0.01, optimizer=optimizer), stepped)
    for g in grads:
        step.step(stepped, g)
    want = optimizer_reference(optimizer, 0.01, params.arrays(), [g.arrays() for g in grads])
    for got, expected in zip(stepped.arrays(), want, strict=True):
        assert np.array_equal(got, expected)
    assert not np.array_equal(stepped.flat, params.flat)


def test_unknown_optimizer_rejected():
    with pytest.raises(ConfigError, match="optimizer must be one of"):
        TrainConfig(optimizer="rmsprop")


def test_evaluate_self_pairs_and_empty():
    gts, _ = toy_setup()
    from ipsim.model import embed
    # Pick an init whose embeddings are all alive; a dead (all-zero)
    # embedding legitimately scores 0 against itself.
    for seed in range(32):
        params = init_params(HYPER, seed=seed)
        if all(embed(params, gt, HYPER).any() for gt in gts.values()):
            break
    else:
        raise AssertionError("no init with live embeddings for every graph")
    pairs = [(n, n, 1) for n in sorted(gts)]
    acc, scores = evaluate(params, HYPER, gts, pairs, delta=0.5)
    assert acc == 1.0
    for s in scores:
        assert s == pytest.approx(1.0, abs=1e-12)
    acc, scores = evaluate(params, HYPER, gts, [], delta=0.5)
    assert acc == 0.0 and scores == []


def test_trace_csv_format(tmp_path):
    gts, pairs = toy_setup()
    config = TrainConfig(lr=0.01, batch_size=4, epochs=3, seed=0, patience=None)
    result = train(gts, pairs, pairs, HYPER, config)
    path = tmp_path / "trace.csv"
    write_trace(path, result.trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 1 + len(result.trace)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(result.trace[0].train_loss, abs=1e-6)
    # Without a test set the last column is left empty.
    no_test = train(gts, pairs, None, HYPER, config)
    write_trace(path, no_test.trace)
    assert all(line.endswith(",") for line in path.read_text().splitlines()[1:])
