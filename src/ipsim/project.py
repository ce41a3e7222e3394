"""Linear projection of embeddings for plotting elsewhere."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ipsim.errors import ShapeMismatch


@dataclass
class Projection:
    coords: np.ndarray       # (m, k)
    components: np.ndarray   # (k, d) principal directions, rows unit norm
    explained: np.ndarray    # (k,) fraction of variance per component


def pca_project(embeddings: np.ndarray, k: int = 2) -> Projection:
    """Principal components of centered embeddings, eigenvalues descending.

    Sign convention: the largest-magnitude coefficient of each component
    is positive, which makes projections reproducible across runs.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeMismatch(f"a projection needs two or more embeddings, got shape {x.shape}")
    k = min(k, x.shape[1])
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    components = eigvecs[:, order].T[:k]
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    total = eigvals.sum()
    explained = eigvals[:k] / total if total > 0 else np.zeros(k)
    return Projection(coords=centered @ components.T, components=components,
                      explained=explained)


def projection_csv(names: list[str], families: list[str], coords: np.ndarray) -> str:
    lines = ["name,family,x,y"]
    for name, family, row in zip(names, families, coords):
        lines.append(f"{name},{family},{row[0]:.10g},{row[1]:.10g}")
    return "\n".join(lines) + "\n"
