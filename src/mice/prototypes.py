"""Cluster prototypes.

Two kinds live here: the fixed gating prototypes (a maximally dispersed,
equiangular frame built by sequential construction) and the expert prototypes
mu, updated once per epoch from accumulated teacher embeddings. mu is stored
unnormalized between updates and l2-normalized wherever it enters a score.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    InvalidInputError,
    LabelOutOfRangeError,
    TooManyClustersError,
    ZeroNormError,
)
from .numcore import ZERO_NORM_EPS, l2_normalize


def max_mahalanobis_centers(num_clusters: int, dim: int) -> np.ndarray:
    """K unit vectors in R^dim with every pairwise dot product equal to -1/(K-1).

    Sequential construction: row 0 is e1; each later row i fills components
    j < i by forcing the required dot product against row j, then sets its
    diagonal component to sqrt(1 - ||partial||^2). Requires K <= dim + 1; when
    K = dim + 1 the last row has no diagonal slot left and its radicand is
    structurally zero. A rounding-negative radicand is clamped to 0 with a
    warning.
    """
    if num_clusters < 2:
        raise InvalidInputError(f"need at least 2 clusters, got {num_clusters}")
    if num_clusters > dim + 1:
        raise TooManyClustersError(
            f"{num_clusters} equiangular unit vectors do not fit in {dim} dimensions"
        )
    target = -1.0 / (num_clusters - 1)
    omega = np.zeros((num_clusters, dim))
    omega[0, 0] = 1.0
    for i in range(1, num_clusters):
        for j in range(i):
            # Components beyond j are still zero in row i, so the slice is the full dot.
            partial = float(np.dot(omega[i, :j], omega[j, :j]))
            omega[i, j] = (target - partial) / omega[j, j]
        radicand = 1.0 - float(np.dot(omega[i, :i], omega[i, :i]))
        if i < dim:
            if radicand < 0.0:
                warnings.warn(
                    f"clamping negative radicand {radicand!r} at row {i}", RuntimeWarning
                )
                radicand = 0.0
            omega[i, i] = np.sqrt(radicand)
        elif abs(radicand) > 1e-9:
            raise InvalidInputError(
                f"row {i} has no diagonal slot but residual radicand {radicand!r}"
            )
    return omega


class PrototypeAccumulator:
    """Per-epoch sums of teacher embeddings, bucketed by hard assignment."""

    def __init__(self, num_clusters: int, dim: int):
        if num_clusters < 1 or dim < 1:
            raise InvalidInputError("num_clusters and dim must be >= 1")
        self.sums = np.zeros((num_clusters, dim))
        self.counts = np.zeros(num_clusters, dtype=np.int64)

    @property
    def num_clusters(self) -> int:
        return self.sums.shape[0]

    def add(self, teacher_blocks: np.ndarray, hard_labels) -> None:
        """Add row `label` (1-indexed) of each teacher block to that label's bucket.

        Takes a (B, K, d) batch with B integer labels. The sums take the batch in
        row order (np.add.at), so they equal those of B one-block adds bit for
        bit; the counts are one bincount.
        """
        blocks = np.asarray(teacher_blocks, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[1:] != self.sums.shape:
            raise InvalidInputError(
                f"teacher blocks {blocks.shape} are not (B, K, d) with (K, d) = {self.sums.shape}"
            )
        labels = np.asarray(hard_labels)
        if labels.shape != blocks.shape[:1] or labels.dtype.kind not in "iu":
            raise InvalidInputError(
                f"need {blocks.shape[0]} integer labels, got {labels.dtype} {labels.shape}"
            )
        if labels.min(initial=1) < 1 or labels.max(initial=1) > self.num_clusters:
            outside = (labels < 1) | (labels > self.num_clusters)
            raise LabelOutOfRangeError(
                f"label {labels[outside][0]} outside 1..{self.num_clusters}"
            )
        rows = labels - 1
        np.add.at(self.sums, rows, blocks[np.arange(rows.shape[0]), rows])
        self.counts += np.bincount(rows, minlength=self.num_clusters)

    def reset(self) -> None:
        self.sums[:] = 0.0
        self.counts[:] = 0


def analytic_prototype_update(
    acc: PrototypeAccumulator, previous_mu: np.ndarray
) -> np.ndarray:
    """Closed-form M-step for mu: each row is the normalized sum of its bucket.

    A bucket whose sum has norm <= 1e-12 (empty, or exactly cancelling) keeps the
    previous prototype, normalized.
    """
    prev = np.asarray(previous_mu, dtype=np.float64)
    if prev.shape != acc.sums.shape:
        raise InvalidInputError(
            f"previous mu shape {prev.shape} does not match accumulator {acc.sums.shape}"
        )
    out = np.empty_like(acc.sums)
    for k in range(acc.num_clusters):
        norm = float(np.sqrt(np.dot(acc.sums[k], acc.sums[k])))
        if norm <= ZERO_NORM_EPS:
            out[k] = l2_normalize(prev[k])
        else:
            out[k] = acc.sums[k] / norm
    return out


def unit_prototypes_with_norms(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """normalized_prototypes(mu) and the (K, 1) row norms it divided by."""
    m = np.asarray(mu, dtype=np.float64)
    norms = np.sqrt(np.sum(np.square(m), axis=-1, keepdims=True))
    if np.any(norms <= ZERO_NORM_EPS):
        raise ZeroNormError("prototype row has zero norm")
    return m / norms, norms


def normalized_prototypes(mu: np.ndarray) -> np.ndarray:
    """mu with each row l2-normalized — the form in which mu enters every score."""
    return unit_prototypes_with_norms(mu)[0]
