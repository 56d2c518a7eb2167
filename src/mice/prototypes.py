"""Cluster prototypes.

Two kinds live here: the fixed gating prototypes (a maximally dispersed,
equiangular frame built by sequential construction) and the expert prototypes
mu, updated once per epoch from accumulated teacher embeddings. mu is stored
unnormalized between updates and l2-normalized wherever it enters a score.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidInputError,
    LabelOutOfRangeError,
    TooManyClustersError,
    ZeroNormError,
)
from .numcore import ZERO_NORM_EPS


# max_mahalanobis_centers takes a radicand this close to 0 as 0.
_RADICAND_TOL = 1e-9


def max_mahalanobis_centers(num_clusters: int, dim: int) -> np.ndarray:
    """K unit vectors in R^dim with every pairwise dot product equal to -1/(K-1).

    Sequential construction: row 0 is e1; each later row i fills components
    j < i by forcing the required dot product against row j, then sets its
    diagonal component to sqrt(1 - ||partial||^2). Requires K <= dim + 1. The
    radicand of row K - 1 is exactly 0 in theory, and when K = dim + 1 that row
    has no diagonal slot left. A rounding residue within _RADICAND_TOL of 0 is
    taken as 0 silently; a larger one is an InvalidInputError.
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
        if radicand < -_RADICAND_TOL or (i == dim and radicand > _RADICAND_TOL):
            raise InvalidInputError(f"row {i} has radicand {radicand!r}, beyond rounding of 0")
        if i < dim:
            omega[i, i] = np.sqrt(max(radicand, 0.0))
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
    previous prototype, divided by its norm. That row must have a finite norm
    (else InvalidInputError) above 1e-12 (else ZeroNormError).
    """
    prev = np.asarray(previous_mu, dtype=np.float64)
    if prev.shape != acc.sums.shape:
        raise InvalidInputError(
            f"previous mu shape {prev.shape} does not match accumulator {acc.sums.shape}"
        )
    out = np.empty_like(acc.sums)
    for k in range(acc.num_clusters):
        row = acc.sums[k]
        norm = float(np.sqrt(np.dot(row, row)))
        if norm <= ZERO_NORM_EPS:
            row = prev[k]
            norm = float(np.sqrt(np.dot(row, row)))
            if not np.isfinite(norm):
                raise InvalidInputError(f"previous prototype {k} has norm {norm!r}")
            if norm <= ZERO_NORM_EPS:
                raise ZeroNormError(f"previous prototype {k} has norm {norm!r}")
        out[k] = row / norm
    return out
