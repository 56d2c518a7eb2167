"""Baseline and reduction tests.

spherical_kmeans is validated through its optimality conditions (returned
labels re-derivable from returned centroids, centroids equal to normalized
bucket sums) rather than by replaying the loop; InfoNCE against closed forms;
the k-means equivalence check both on real trained states and for sensitivity.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mice import encoder as enc
from mice.baselines import (
    KMEANS_RESTARTS,
    best_of_restarts,
    infonce_loss,
    kmeans_equivalence_check,
    spherical_kmeans,
    two_stage_pipeline,
)
from mice.data import SyntheticSpec, generate
from mice.errors import EmptyQueueError, FlagMismatchError, InvalidInputError
from mice.metrics import acc
from mice.model import ModelFlags, elbo_batch
from mice.numcore import make_rng, normalize_rows
from mice.prototypes import PrototypeAccumulator, analytic_prototype_update
from mice.trainer import TrainConfig, fit, init_state

ABLATED = dict(a3_uniform_gating=True, a4_single_head=True, a5_no_class_term=True)


def small_config(**overrides):
    base = dict(
        seed=1,
        num_clusters=3,
        embed_dim=5,
        hidden_widths=(8,),
        queue_size=16,
        batch_size=32,
        epochs=2,
        aug_sigma=0.05,
        aug_rho=0.05,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSphericalKmeans:
    def test_every_point_its_own_cluster(self):
        pts = np.eye(4)
        result = spherical_kmeans(pts, 4, pts.copy())
        np.testing.assert_array_equal(result.labels, [1, 2, 3, 4])
        assert result.objective == 4.0
        np.testing.assert_array_equal(result.centroids, pts)

    def test_immediate_fixpoint(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = spherical_kmeans(pts, 2, pts.copy())
        np.testing.assert_array_equal(result.labels, [1, 2])
        assert result.objective == 2.0

    def test_tie_prefers_lowest_cluster(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0]])
        result = spherical_kmeans(pts, 2, pts.copy())
        np.testing.assert_array_equal(result.labels, [1, 1])

    def test_empty_cluster_keeps_centroid(self):
        pts = normalize_rows(np.array([[1.0, 0.1], [1.0, -0.1]]))
        init = np.array([[1.0, 0.0], [-1.0, 0.0]])
        result = spherical_kmeans(pts, 2, init)
        np.testing.assert_array_equal(result.labels, [1, 1])
        np.testing.assert_array_equal(result.centroids[1], [-1.0, 0.0])

    def test_fixpoint_optimality_conditions(self):
        """At convergence: labels = argmax cosine against returned centroids, and
        every non-empty centroid is the normalized sum of its members."""
        rng = make_rng(40)
        pts = normalize_rows(rng.standard_normal((60, 5)))
        init = pts[rng.choice(60, size=4, replace=False)]
        result = spherical_kmeans(pts, 4, init.copy())

        scores = pts @ result.centroids.T
        np.testing.assert_array_equal(np.argmax(scores, axis=1) + 1, result.labels)
        recomputed_objective = float(scores[np.arange(60), result.labels - 1].sum())
        np.testing.assert_allclose(result.objective, recomputed_objective, rtol=1e-9)

        for k in range(1, 5):
            members = pts[result.labels == k]
            if members.shape[0] == 0:
                continue
            total = members.sum(axis=0)
            np.testing.assert_allclose(
                result.centroids[k - 1], total / np.linalg.norm(total), atol=1e-12
            )

        initial_objective = float(
            np.max(pts @ init.T, axis=1).sum()
        )  # objective of the very first assignment
        assert result.objective >= initial_objective - 1e-9

    def test_validation(self):
        pts = normalize_rows(make_rng(1).standard_normal((5, 3)))
        with pytest.raises(InvalidInputError):
            spherical_kmeans(pts * 1.5, 2, pts[:2])
        with_nan = pts.copy()
        with_nan[3] = np.nan
        with pytest.raises(InvalidInputError, match="unit-norm"):
            spherical_kmeans(with_nan, 2, pts[:2])
        with pytest.raises(InvalidInputError):
            spherical_kmeans(pts, 6, pts)
        with pytest.raises(InvalidInputError):
            spherical_kmeans(pts, 2, pts[:3])
        with pytest.raises(InvalidInputError):
            spherical_kmeans(pts, 2, pts[:2], max_iters=0)

    def test_best_of_restarts_replays_the_draw_sequence(self):
        rng_pts = make_rng(41)
        pts = normalize_rows(rng_pts.standard_normal((30, 4)))
        best = best_of_restarts(pts, 3, seed=7)

        rng = make_rng(7)
        objectives = []
        for _ in range(KMEANS_RESTARTS):
            chosen = rng.choice(30, size=3, replace=False)
            objectives.append(spherical_kmeans(pts, 3, pts[chosen]).objective)
        assert best.objective == max(objectives)

    def test_recovers_separated_clusters(self):
        ds = generate(SyntheticSpec(2, 4, 30, 100.0, seed=3))
        result = best_of_restarts(ds.points, 2, seed=0)
        assert acc(ds.truth, result.labels) == 1.0


class TestInfoNce:
    def test_identical_negative_gives_log_two(self):
        f = np.array([1.0, 0.0])
        loss = infonce_loss(f, f, f[np.newaxis, :], tau=0.7)
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-15)

    @pytest.mark.parametrize("nu", [1, 5])
    def test_orthogonal_negatives_closed_form(self, nu):
        """Aligned positive, nu orthogonal negatives, tau 1: log(e + nu) - 1."""
        d = 8
        f = np.zeros(d)
        f[0] = 1.0
        queue = np.eye(d)[1 : 1 + nu]
        loss = infonce_loss(f, f, queue, tau=1.0)
        np.testing.assert_allclose(loss, math.log(math.e + nu) - 1.0, rtol=1e-14)

    def test_monotonicity(self):
        rng = make_rng(42)
        f = normalize_rows(rng.standard_normal((1, 6)))[0]
        queue = normalize_rows(rng.standard_normal((4, 6)))
        worse_v = normalize_rows(rng.standard_normal((1, 6)))[0]
        assert infonce_loss(f, f, queue, 1.0) < infonce_loss(f, worse_v, queue, 1.0)
        assert infonce_loss(f, f, queue, 1.0) < infonce_loss(f, f, np.vstack([queue, queue]), 1.0)

    def test_validation(self):
        f = np.array([1.0, 0.0])
        with pytest.raises(EmptyQueueError):
            infonce_loss(f, f, np.zeros((0, 2)), 1.0)
        with pytest.raises(InvalidInputError):
            infonce_loss(f, f, f[np.newaxis, :], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        f = np.array([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            infonce_loss(f, np.array([bad, 0.0]), f[np.newaxis, :], 1.0)
        with pytest.raises(InvalidInputError):
            infonce_loss(f, f, np.array([[1.0, 0.0], [bad, 0.0]]), 1.0)

    def test_ablated_elbo_is_negative_infonce(self):
        """All three ablations on: the batch objective collapses to InfoNCE of the
        row-0 pair against the row-0 queue column, for any K."""
        rng = make_rng(43)
        k, d = 3, 5
        f = normalize_rows(rng.standard_normal((1, k, d)))
        v = normalize_rows(rng.standard_normal((1, k, d)))
        queue = normalize_rows(rng.standard_normal((6, k, d)))
        from mice.prototypes import max_mahalanobis_centers

        omega = max_mahalanobis_centers(k, d)
        g = normalize_rows(rng.standard_normal((1, d)))
        res = elbo_batch(
            f, v, g, queue, None, omega, 0.8, 1.0, ModelFlags(True, True, True)
        )
        reference = infonce_loss(f[0, 0], v[0, 0], queue[:, 0, :], 0.8)
        np.testing.assert_allclose(-res.elbo, reference, rtol=1e-12)


class TestEquivalenceCheck:
    def test_holds_at_init_and_after_training(self):
        cfg = small_config(a3_uniform_gating=True, a4_single_head=True)
        ds = generate(SyntheticSpec(3, 6, 20, 10.0, seed=2))
        state = init_state(cfg, ds)
        ok, diag = kmeans_equivalence_check(state, ds)
        assert ok, diag
        assert diag["label_mismatches"] == 0
        assert diag["prototype_deviation"] <= 1e-12

        trained, _ = fit(cfg, ds)
        ok, diag = kmeans_equivalence_check(trained, ds)
        assert ok, diag

    def test_requires_the_right_flags(self):
        ds = generate(SyntheticSpec(3, 6, 10, 10.0, seed=2))
        with pytest.raises(FlagMismatchError):
            kmeans_equivalence_check(init_state(small_config(), ds), ds)
        with pytest.raises(FlagMismatchError):
            kmeans_equivalence_check(
                init_state(small_config(**ABLATED), ds), ds
            )

    def test_comparison_detects_a_real_difference(self):
        """The 1e-12 tolerance is not vacuous: flipping a single hard assignment
        moves the analytic prototypes far above it."""
        cfg = small_config(a3_uniform_gating=True, a4_single_head=True)
        ds = generate(SyntheticSpec(3, 6, 20, 10.0, seed=2))
        state = init_state(cfg, ds)
        embeddings = enc.forward_teacher(ds.points, state.teacher)[:, 0, :]
        mu_unit = normalize_rows(state.mu)
        labels = np.argmax(embeddings @ mu_unit.T, axis=1) + 1

        def analytic(assignment):
            acc = PrototypeAccumulator(3, embeddings.shape[1])
            for i, lab in enumerate(assignment):
                acc.add(np.tile(embeddings[i], (1, 3, 1)), [lab])
            return analytic_prototype_update(acc, state.mu)

        flipped = labels.copy()
        flipped[0] = 1 + (flipped[0] % 3)
        deviation = float(np.max(np.abs(analytic(flipped) - analytic(labels))))
        assert deviation > 1e-12


class TestTwoStage:
    def test_zero_epochs_reduces_to_kmeans_on_init_embeddings(self):
        cfg = small_config(epochs=0)
        ds = generate(SyntheticSpec(3, 6, 15, 20.0, seed=4))
        labels = two_stage_pipeline(cfg, ds)

        state = init_state(replace(cfg, **ABLATED), ds)
        embeddings = enc.forward_teacher(ds.points, state.teacher)[:, 0, :]
        expected = best_of_restarts(embeddings, cfg.num_clusters, cfg.seed).labels
        np.testing.assert_array_equal(labels, expected)

    def test_deterministic_and_in_range(self):
        cfg = small_config(epochs=1)
        ds = generate(SyntheticSpec(3, 6, 15, 20.0, seed=4))
        a = two_stage_pipeline(cfg, ds)
        b = two_stage_pipeline(cfg, ds)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (45,)
        assert set(np.unique(a)) <= {1, 2, 3}
