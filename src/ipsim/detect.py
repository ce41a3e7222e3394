"""Similarity scoring and piracy verdicts."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ipsim.errors import ConfigError, ZeroEmbedding

DEFAULT_DELTA = 0.5


def cosine_similarity(a: np.ndarray, b: np.ndarray, names: tuple[str, str] = ("a", "b")) -> float:
    """Cosine of the angle between two embeddings, clamped to [-1, 1]. A
    zero embedding, or one holding NaN or inf, raises ZeroEmbedding with the
    design's name."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    for name, norm in zip(names, (norm_a, norm_b)):
        if norm == 0.0:
            raise ZeroEmbedding(f"design {name!r} has a zero embedding; "
                                "the model is untrained or degenerate")
        if not np.isfinite(norm):
            raise ZeroEmbedding(f"design {name!r} has a NaN or inf embedding; "
                                "the model is degenerate")
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


@dataclass(frozen=True)
class Verdict:
    a: str
    b: str
    score: float
    delta: float

    @property
    def label(self) -> str:
        return "piracy" if self.score > self.delta else "no-piracy"

    def to_json(self) -> str:
        return json.dumps(
            {"a": self.a, "b": self.b, "score": self.score,
             "delta": self.delta, "label": self.label},
            separators=(", ", ": "))


def check_delta(delta: float) -> None:
    """Reject a piracy threshold outside the range of a cosine."""
    if not -1.0 <= delta <= 1.0:
        raise ConfigError(f"delta must lie in [-1, 1], got {delta}")


def judge(name_a: str, name_b: str, emb_a: np.ndarray, emb_b: np.ndarray,
          delta: float = DEFAULT_DELTA) -> Verdict:
    check_delta(delta)
    return Verdict(name_a, name_b, cosine_similarity(emb_a, emb_b, (name_a, name_b)), delta)


def sweep_delta(labels: list[int], scores: list[float]) -> tuple[float, float]:
    """The delta on the centi-grid -0.99..0.99 that maximizes the accuracy
    of score > delta against +1/-1 labels; ties go to the smaller delta.
    Returns (delta, accuracy)."""
    grid = np.arange(-99, 100) / 100
    correct = ((np.asarray(scores) > grid[:, None]) == (np.asarray(labels) == 1)).sum(axis=1)
    best = int(np.argmax(correct))  # the first of the best, so the smallest delta
    return float(grid[best]), int(correct[best]) / len(labels)
