"""Baselines and reduction checks.

spherical_kmeans is the classical cosine k-means used both as a standalone
baseline and inside the two-stage pipeline (instance-discrimination ablation
followed by k-means on teacher embeddings). kmeans_equivalence_check verifies
that under uniform gating + single head the analytic prototype update is
exactly one spherical k-means iteration on the teacher embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import encoder as enc
from .data import Dataset
from .errors import EmptyQueueError, FlagMismatchError, InvalidInputError
from .numcore import ZERO_NORM_EPS, logsumexp_rows, make_rng, normalize_rows, row_norms
from .prototypes import PrototypeAccumulator, analytic_prototype_update
from .trainer import fit

KMEANS_RESTARTS = 10


@dataclass
class KMeansResult:
    labels: np.ndarray  # (N,) 1-indexed
    centroids: np.ndarray  # (K, d) unit rows
    objective: float  # sum over points of cosine to the assigned centroid


def spherical_kmeans(
    points: np.ndarray,
    num_clusters: int,
    init_centroids: np.ndarray,
    max_iters: int = 100,
) -> KMeansResult:
    """Cosine k-means on unit vectors.

    Assignment is argmax cosine with ties to the lowest cluster index; the
    update renormalizes each cluster sum and an empty cluster keeps its
    centroid. Stops at a label fixpoint or after max_iters. The objective is
    checked to be non-decreasing every iteration.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidInputError(f"points must be (N, d), got {pts.shape}")
    if not np.all(np.abs(row_norms(pts) - 1.0) <= 1e-6):  # NaN rows fail here too
        raise InvalidInputError("points must be unit-norm rows")
    _check_cluster_count(num_clusters, pts.shape[0])
    centroids = np.array(init_centroids, dtype=np.float64)
    if centroids.shape != (num_clusters, pts.shape[1]):
        raise InvalidInputError(f"init centroids shape {centroids.shape} is wrong")
    if max_iters < 1:
        raise InvalidInputError("max_iters must be >= 1")

    n = pts.shape[0]
    labels_prev: np.ndarray | None = None
    objective_prev = -np.inf
    labels = np.zeros(n, dtype=np.int64)
    objective = 0.0
    for _ in range(max_iters):
        scores = pts @ centroids.T
        labels = np.argmax(scores, axis=1) + 1  # first max wins: lowest index on ties
        objective = float(scores[np.arange(n), labels - 1].sum())
        if not objective >= objective_prev - 1e-9 * max(1.0, abs(objective_prev)):
            raise InvalidInputError(
                f"spherical k-means objective fell from {objective_prev!r} to {objective!r}"
            )
        for k in range(1, num_clusters + 1):
            members = pts[labels == k]
            if members.shape[0] == 0:
                continue  # empty cluster keeps its centroid
            total = members.sum(axis=0)
            norm = float(np.sqrt(np.dot(total, total)))
            if norm > ZERO_NORM_EPS:
                centroids[k - 1] = total / norm
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        objective_prev = objective
    return KMeansResult(labels, centroids, objective)


def _check_cluster_count(num_clusters: int, n: int) -> None:
    if not 1 <= num_clusters <= n:
        raise InvalidInputError(f"need 1 <= K <= N, got K={num_clusters}, N={n}")


def best_of_restarts(points: np.ndarray, num_clusters: int, seed: int) -> KMeansResult:
    """KMEANS_RESTARTS runs, each from K distinct points sampled without replacement;
    the best objective wins."""
    _check_cluster_count(num_clusters, points.shape[0])
    rng = make_rng(seed)
    best: KMeansResult | None = None
    for _ in range(KMEANS_RESTARTS):
        chosen = rng.choice(points.shape[0], size=num_clusters, replace=False)
        result = spherical_kmeans(points, num_clusters, points[chosen])
        if best is None or result.objective > best.objective:
            best = result
    return best


def infonce_loss(f: np.ndarray, v: np.ndarray, queue_rows: np.ndarray, tau: float) -> float:
    """Single-pair InfoNCE: -log of the positive's share of exp(score/tau) mass."""
    if not tau > 0.0:
        raise InvalidInputError(f"tau {tau!r} must be > 0")
    fv = np.asarray(f, dtype=np.float64)
    vv = np.asarray(v, dtype=np.float64)
    q = np.asarray(queue_rows, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] == 0:
        raise EmptyQueueError("infonce_loss needs at least one negative row")
    pos = float(np.dot(vv, fv)) / tau
    scores = np.concatenate(([pos], (q @ fv) / tau))
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("infonce_loss scores must be finite")
    return float(logsumexp_rows(scores)) - pos


def two_stage_pipeline(config, dataset: Dataset) -> np.ndarray:
    """Instance-discrimination ablation (uniform gating, single head, no class term)
    trained with the shared trainer, then restarted spherical k-means on the final
    teacher embeddings. Returns 1-indexed labels."""
    _check_cluster_count(config.num_clusters, dataset.points.shape[0])  # before any training
    ablated = replace(
        config, a3_uniform_gating=True, a4_single_head=True, a5_no_class_term=True
    )
    state, _ = fit(ablated, dataset)
    embeddings = enc.forward_teacher(dataset.points, state.teacher)[:, 0, :]
    result = best_of_restarts(embeddings, config.num_clusters, config.seed)
    return result.labels


def kmeans_equivalence_check(state, dataset: Dataset) -> tuple[bool, dict]:
    """Under uniform gating + single head (class term kept), the hard E-step plus the
    analytic prototype update must equal one spherical k-means iteration on the
    teacher embeddings: identical labels and prototypes within 1e-12.

    Returns (ok, diagnostics).
    """
    flags = state.config.flags
    if not (flags.a3_uniform_gating and flags.a4_single_head) or flags.a5_no_class_term:
        raise FlagMismatchError(
            "equivalence check needs a3_uniform_gating and a4_single_head set, a5 unset"
        )
    embeddings = enc.forward_teacher(dataset.points, state.teacher)[:, 0, :]
    mu_unit = normalize_rows(state.mu)
    k = mu_unit.shape[0]

    # Model path: hard assignments from the simplified posterior, whose argmax is
    # the argmax of v . mu_k (tau > 0 is a monotone rescale), then the closed-form update.
    scores = embeddings @ mu_unit.T
    labels_model = np.argmax(scores, axis=1) + 1
    acc_ = PrototypeAccumulator(k, embeddings.shape[1])
    acc_.add(np.repeat(embeddings[:, np.newaxis, :], k, axis=1), labels_model)
    mu_next = analytic_prototype_update(acc_, state.mu)

    # Reference path: one spherical k-means iteration from the same centroids.
    result = spherical_kmeans(embeddings, k, mu_unit, max_iters=1)

    label_mismatches = int(np.sum(labels_model != result.labels))
    prototype_deviation = float(np.max(np.abs(mu_next - result.centroids)))
    ok = label_mismatches == 0 and prototype_deviation <= 1e-12
    return ok, {
        "label_mismatches": label_mismatches,
        "prototype_deviation": prototype_deviation,
    }
