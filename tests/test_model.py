"""Mixture-model core tests.

The full-dataset ELBO and posterior get an independent pure-loop oracle (plain
exp sums, no shared code with the implementation). elbo_batch gradients are
checked against central finite differences directly on its own inputs, which
isolates the score/partition/posterior algebra from the encoder backward.
"""

import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mice.errors import (
    DegenerateDistributionError,
    DimensionMismatchError,
    EmptyQueueError,
    InvalidInputError,
    NonPositiveTemperatureError,
)
from mice.model import (
    ElboResult,
    EmbeddingQueue,
    ModelFlags,
    Temperatures,
    elbo_batch,
    entropy_mean,
    exact_elbo,
    expert_log_scores,
    full_batch_elbo_grads,
    gating_distribution,
    hard_assign,
    log_partition_estimates,
    posterior,
)
from mice import model
from mice.model import _needs_shift, _route_heads, _score_core
from mice.numcore import logsumexp_rows, make_rng, normalize_rows, softmax_rows
from mice.prototypes import max_mahalanobis_centers, normalized_prototypes

PLAIN = ModelFlags()


def _combined(f, mu, flags):
    """w = f + mu_hat as the scoring core takes it; f alone under a5."""
    return f if flags.a5_no_class_term else f + normalized_prototypes(mu)


def random_instance(seed, n=6, k=3, d=4, fill=5):
    rng = make_rng(seed)
    f = normalize_rows(rng.standard_normal((n, k, d)))
    v = normalize_rows(rng.standard_normal((n, k, d)))
    g = normalize_rows(rng.standard_normal((n, d)))
    queue = normalize_rows(rng.standard_normal((fill, k, d)))
    mu = rng.standard_normal((k, d))
    omega = max_mahalanobis_centers(k, d)
    return f, v, g, queue, mu, omega


def brute_score_matrix(f, v, g, mu, omega, tau, kappa):
    """Pure-loop s_ik = log gate + positive score - log Z, exact Z via plain exp sums."""
    n, k, _ = f.shape
    mu_hat = mu / np.linalg.norm(mu, axis=1, keepdims=True)
    scores = np.empty((n, k))
    for i in range(n):
        gate = np.exp((omega @ g[i]) / kappa)
        gate = gate / gate.sum()
        for c in range(k):
            w = f[i, c] + mu_hat[c]
            pos = float(v[i, c] @ w) / tau
            z = sum(math.exp(float(v[j, c] @ w) / tau) for j in range(n))
            scores[i, c] = math.log(gate[c]) + pos - math.log(z)
    return scores


def brute_full_elbo(f, v, g, mu, omega, tau, kappa):
    """Pure-loop reference ELBO and posterior built on brute_score_matrix."""
    scores = brute_score_matrix(f, v, g, mu, omega, tau, kappa)
    elbos, posts = [], []
    for s in scores:
        m = float(np.max(s))
        lse = m + math.log(sum(math.exp(x - m) for x in s))
        elbos.append(lse)
        posts.append([math.exp(x - lse) for x in s])
    return float(np.mean(elbos)), np.array(posts)


class TestQueue:
    def test_fifo_eviction(self):
        q = EmbeddingQueue(2, 1, 2)
        a, b, c = (np.full((1, 1, 2), x) for x in (1.0, 2.0, 3.0))
        q.push(a)
        q.push(b)
        q.push(c)
        assert q.fill == 2
        np.testing.assert_array_equal(q.snapshot(), np.concatenate([b, c]))

    def test_partial_fill_snapshot(self):
        q = EmbeddingQueue(4, 2, 3)
        block = make_rng(0).standard_normal((1, 2, 3))
        q.push(block)
        snap = q.snapshot()
        assert snap.shape == (1, 2, 3)
        np.testing.assert_array_equal(snap[0], block[0])

    def test_snapshot_is_a_copy(self):
        q = EmbeddingQueue(2, 1, 2)
        q.push(np.ones((1, 1, 2)))
        snap = q.snapshot()
        snap[:] = 99.0
        np.testing.assert_array_equal(q.snapshot(), np.ones((1, 1, 2)))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EmbeddingQueue(0, 1, 2)
        q = EmbeddingQueue(2, 1, 2)
        with pytest.raises(DimensionMismatchError):
            q.push(np.ones((2, 2)))
        with pytest.raises(DimensionMismatchError):
            q.push(np.ones((3, 2, 2)))
        with pytest.raises(DimensionMismatchError):  # one unbatched (K, d) block
            q.push(np.ones((1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 9),
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_push_equals_single_pushes(self, capacity, sizes, seed):
        """One batch push per batch leaves buffer, head and fill bit-identical to
        pushing its blocks one at a time as batches of one, also when a batch
        exceeds the capacity."""
        rng = make_rng(seed)
        batched = EmbeddingQueue(capacity, 2, 3)
        single = EmbeddingQueue(capacity, 2, 3)
        for size in sizes:
            blocks = rng.standard_normal((size, 2, 3))
            batched.push(blocks)
            for i in range(size):
                single.push(blocks[i : i + 1])
            np.testing.assert_array_equal(batched.buffer, single.buffer)
            assert (batched.head, batched.fill) == (single.head, single.fill)


def routed(blocks, flags):
    """Reference head routing: under a4 every expert row is a copy of row 0."""
    if flags.a4_single_head:
        return np.repeat(blocks[..., :1, :], blocks.shape[-2], axis=-2)
    return blocks


def naive_scores(f, v, queue, mu, tau, flags, include_positive=True):
    """einsum + concatenate + np.logaddexp.reduce reference for the scoring core:
    (l_pos, log_z, sig0, weights of the queue blocks)."""
    f, v, queue = (routed(b, flags) for b in (f, v, queue))
    w = f if flags.a5_no_class_term else f + mu / np.linalg.norm(mu, axis=1, keepdims=True)
    l_pos = np.einsum("bkd,bkd->bk", v, w) / tau
    l_neg = np.einsum("fkd,bkd->bkf", queue, w) / tau
    logits = np.concatenate((l_pos[..., np.newaxis], l_neg), axis=-1) if include_positive else l_neg
    log_z = np.logaddexp.reduce(logits, axis=-1)
    weights = np.exp(logits - log_z[..., np.newaxis])
    if include_positive:
        return l_pos, log_z, weights[..., 0], weights[..., 1:]
    return l_pos, log_z, np.zeros_like(log_z), weights


def core_scores(f, v, queue, mu, tau, flags, include_positive=True):
    w = _combined(_route_heads(f, flags), mu, flags)
    return _score_core(
        w, _route_heads(v, flags), _route_heads(queue, flags), tau, include_positive
    )


def assert_core_matches(got, want, queue):
    """Core output equals the reference to 1e-12 and is finite; the mixture equals
    the reference weights applied to the routed queue blocks."""
    l_pos, log_z, sig0, weights = want
    mixture = np.einsum("bkf,fkd->bkd", weights, queue)
    for g, w in zip((got.l_pos, got.log_z, got.sig0, got.mixture), (l_pos, log_z, sig0, mixture)):
        assert g.shape == w.shape
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestScoreCore:
    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.integers(1, 7),
        k=st.integers(1, 4),
        d=st.integers(1, 6),
        fill=st.sampled_from([1, 2, 5, 33]),
        flags=st.sampled_from(
            [PLAIN, ModelFlags(a4_single_head=True), ModelFlags(a5_no_class_term=True),
             ModelFlags(a4_single_head=True, a5_no_class_term=True)]
        ),
        include_positive=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_reference(self, batch, k, d, fill, flags, include_positive, seed):
        rng = make_rng(seed)
        f, v = rng.standard_normal((2, batch, k, d))
        queue = rng.standard_normal((fill, k, d))
        mu = rng.standard_normal((k, d)) + 0.1
        tau = float(rng.uniform(0.2, 2.0))
        assert_core_matches(
            core_scores(f, v, queue, mu, tau, flags, include_positive),
            naive_scores(f, v, queue, mu, tau, flags, include_positive),
            routed(queue, flags),
        )
        # The block weights sum to 1 - sig0: F copies of one block c mix to (1 - sig0) c.
        same = np.repeat(queue[:1], fill, axis=0)
        got = core_scores(f, v, same, mu, tau, flags, include_positive)
        want = (1.0 - got.sig0)[..., np.newaxis] * routed(same, flags)[0]
        np.testing.assert_allclose(got.mixture, want, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.integers(1, 13),
        rows=st.integers(1, 6),
        k=st.integers(1, 3),
        fill=st.sampled_from([1, 3, 17]),
        shifted=st.booleans(),
        include_positive=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=7, rows=3, k=2, fill=3, shifted=False, include_positive=True, seed=1)
    @example(batch=5, rows=1, k=3, fill=17, shifted=True, include_positive=True, seed=2)
    @example(batch=12, rows=4, k=1, fill=1, shifted=False, include_positive=False, seed=3)
    def test_row_tiles_match_naive_reference(
        self, batch, rows, k, fill, shifted, include_positive, seed
    ):
        """With _TILE_BYTES patched to `rows` rows of logits, the batch spans several
        tiles, the last one ragged or a single row, in either shift branch."""
        rng = make_rng(seed)
        f, v = rng.standard_normal((2, batch, k, 4))
        queue = rng.standard_normal((fill, k, 4))
        mu = rng.standard_normal((k, 4)) + 0.1
        tau = float(rng.uniform(0.2, 2.0))
        row_bytes = k * fill * 8
        with (
            mock.patch.object(model, "_TILE_BYTES", rows * row_bytes + row_bytes - 1),
            mock.patch.object(model, "_needs_shift", lambda *args: shifted),
        ):
            got = core_scores(f, v, queue, mu, tau, PLAIN, include_positive)
        assert_core_matches(got, naive_scores(f, v, queue, mu, tau, PLAIN, include_positive), queue)

    def test_shift_only_when_logits_may_leave_the_safe_range(self):
        """Unit rows at tau >= 1/150 score unshifted; the tau = 0.05, logits ~1e3 case
        and NaN inputs take the exact row-max shift. Both branches match the reference."""
        rng = make_rng(40)
        decisions = []

        def spy(*args):
            decisions.append(_needs_shift(*args))
            return decisions[-1]

        f, v = normalize_rows(rng.standard_normal((2, 16, 3, 5)))
        queue = normalize_rows(rng.standard_normal((64, 3, 5)))
        mu = rng.standard_normal((3, 5))
        big = 7.0 * rng.standard_normal((3, 16, 3, 5))
        with mock.patch.object(model, "_needs_shift", spy):
            for tau in (1.0, 1.0 / 150.0):
                for include_positive in (True, False):
                    want = naive_scores(f, v, queue, mu, tau, PLAIN, include_positive)
                    got = core_scores(f, v, queue, mu, tau, PLAIN, include_positive)
                    assert_core_matches(got, want, queue)
            assert decisions == [False] * 4
            want = naive_scores(big[0], big[1], big[2], mu, 0.05, PLAIN)
            assert np.max(np.abs(want[0])) > 500.0
            assert_core_matches(core_scores(big[0], big[1], big[2], mu, 0.05, PLAIN), want, big[2])
            assert decisions[-1] is True
        w = _combined(f, mu, PLAIN)
        l_pos = np.sum(v * w, axis=-1)
        nan_w, nan_queue, nan_pos = w.copy(), queue.copy(), l_pos.copy()
        nan_w[3, 1, 2] = nan_queue[5, 0, 0] = nan_pos[2, 2] = np.nan
        assert _needs_shift(nan_w, queue, l_pos)
        assert _needs_shift(w, nan_queue, None)
        assert _needs_shift(w, queue, nan_pos)
        assert not _needs_shift(w, queue, l_pos)

    def test_empty_batch_or_no_experts(self):
        """A batch of zero points or zero experts scores to empty partitions."""
        for batch, k in ((0, 3), (2, 0)):
            f = np.zeros((batch, k, 4))
            log_z = log_partition_estimates(f, f, np.ones((5, k, 4)), np.ones((k, 4)), 1.0, PLAIN)
            assert log_z.shape == (batch, k)

    @pytest.mark.parametrize("where", ["f", "v", "queue"])
    def test_nan_scores_raise(self, where):
        f, v, g, queue, mu, omega = random_instance(seed=44)
        {"f": f, "v": v, "queue": queue}[where][0, 0, 0] = np.nan
        with pytest.raises(DegenerateDistributionError):
            elbo_batch(f, v, g, queue, mu, omega, Temperatures(), PLAIN)

    def test_large_logits_at_small_tau(self):
        """tau = 0.05 with logits of magnitude ~1e3: finite, and equal to the reference."""
        rng = make_rng(40)
        f, v = 7.0 * rng.standard_normal((2, 16, 3, 5))
        queue = 7.0 * rng.standard_normal((64, 3, 5))
        mu = rng.standard_normal((3, 5))
        for flags in (PLAIN, ModelFlags(a4_single_head=True), ModelFlags(a5_no_class_term=True)):
            want = naive_scores(f, v, queue, mu, 0.05, flags)
            assert np.max(np.abs(want[0])) > 500.0
            assert_core_matches(
                core_scores(f, v, queue, mu, 0.05, flags), want, routed(queue, flags)
            )

    def test_elbo_batch_allocates_one_logits_buffer(self):
        """A default-shape call (B=256, K=4, d=8, F=1024) peaks near one (B, K, F) array."""
        batch, k, d, fill = 256, 4, 8, 1024
        f, v, g, queue, mu, omega = random_instance(seed=41, n=batch, k=k, d=d, fill=fill)
        temps = Temperatures()
        elbo_batch(f, v, g, queue, mu, omega, temps, PLAIN)  # warm numpy's internal caches
        tracemalloc.start()
        try:
            elbo_batch(f, v, g, queue, mu, omega, temps, PLAIN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * batch * k * fill * 8

    def test_elbo_batch_peaks_under_two_mib(self):
        """Row tiles keep a default-shape call under 2 MiB, warm and on a thread's
        first call, which allocates its scratch buffers."""
        batch, k, d, fill = 256, 4, 8, 1024
        f, v, g, queue, mu, omega = random_instance(seed=41, n=batch, k=k, d=d, fill=fill)
        args = (f, v, g, queue, mu, omega, Temperatures(), PLAIN)
        elbo_batch(*args)  # warm numpy's internal caches and this thread's scratch
        results = []
        thread = threading.Thread(target=lambda: results.append(elbo_batch(*args)))
        tracemalloc.start()
        try:
            elbo_batch(*args)
            _, warm = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            thread.start()
            thread.join(timeout=60.0)
            _, first = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not thread.is_alive() and len(results) == 1
        assert warm < 2 * 2**20
        assert first < 2 * 2**20


class TestGating:
    def test_closed_form_two_clusters(self):
        """Dots (1, 0) at kappa 1: (e/(e+1), 1/(e+1))."""
        omega = np.eye(2)
        p = gating_distribution(np.array([[1.0, 0.0]]), omega, 1.0, PLAIN)
        e = math.e
        np.testing.assert_allclose(p, [[e / (e + 1), 1 / (e + 1)]], rtol=1e-15)

    def test_equal_dots_give_uniform(self):
        omega = max_mahalanobis_centers(3, 4)
        p = gating_distribution(np.zeros((1, 4)), omega, 1.0, PLAIN)
        np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_kappa_rescales_logits(self):
        omega = max_mahalanobis_centers(3, 3)
        g = normalize_rows(make_rng(2).standard_normal((4, 3)))
        p_half = gating_distribution(g, omega, 0.5, PLAIN)
        doubled = gating_distribution(2.0 * g, omega, 1.0, PLAIN)
        np.testing.assert_allclose(p_half, doubled, rtol=1e-12)

    def test_uniform_flag_ignores_input(self):
        omega = max_mahalanobis_centers(4, 4)
        g = make_rng(3).standard_normal((5, 4))
        p = gating_distribution(g, omega, 1.0, ModelFlags(a3_uniform_gating=True))
        np.testing.assert_array_equal(p, np.full((5, 4), 0.25))

    def test_rows_sum_to_one(self):
        omega = max_mahalanobis_centers(5, 6)
        g = make_rng(4).standard_normal((50, 6)) * 3.0
        p = gating_distribution(g, omega, 0.7, PLAIN)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0.0)

    def test_validation(self):
        omega = np.eye(2)
        with pytest.raises(NonPositiveTemperatureError):
            gating_distribution(np.ones(2), omega, 0.0, PLAIN)
        with pytest.raises(DimensionMismatchError):
            gating_distribution(np.ones(3), omega, 1.0, PLAIN)


class TestExpertScores:
    def test_aligned_unit_vectors(self):
        """v = f = mu = e_k rows: each score is e_k . (2 e_k) / tau = 2 / tau."""
        eye = np.eye(2)
        np.testing.assert_allclose(
            expert_log_scores(eye[np.newaxis], eye[np.newaxis], eye, 1.0, PLAIN), [[2.0, 2.0]],
            rtol=1e-15,
        )

    def test_orthogonal_gives_zero(self):
        v = np.array([[[0.0, 1.0]]])
        f = np.array([[[1.0, 0.0]]])
        mu = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(expert_log_scores(v, f, mu, 1.0, PLAIN), [[0.0]], atol=1e-15)

    def test_halving_tau_doubles_scores(self):
        f, v, _, _, mu, _ = random_instance(seed=5)
        s1 = expert_log_scores(v, f, mu, 1.0, PLAIN)
        s2 = expert_log_scores(v, f, mu, 0.5, PLAIN)
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_no_class_term_drops_mu(self):
        f, v, _, _, mu, _ = random_instance(seed=6)
        a5 = ModelFlags(a5_no_class_term=True)
        with_mu = expert_log_scores(v, f, mu, 1.0, a5)
        without = expert_log_scores(v, f, None, 1.0, a5)
        np.testing.assert_array_equal(with_mu, without)
        with pytest.raises(InvalidInputError):
            expert_log_scores(v, f, None, 1.0, PLAIN)

    def test_single_head_routes_row_zero(self):
        """Expert rows beyond 0 are ignored; per-cluster mu still applies."""
        v = np.eye(2)[np.newaxis]
        f = np.eye(2)[np.newaxis]
        mu = np.eye(2)
        out = expert_log_scores(v, f, mu, 1.0, ModelFlags(a4_single_head=True))
        # shared pair is (e1, e1); cluster 0 sees w = 2 e1, cluster 1 sees w = e1 + e2
        np.testing.assert_allclose(out, [[2.0, 1.0]], rtol=1e-15)

    def test_validation(self):
        eye = np.eye(2)
        with pytest.raises(NonPositiveTemperatureError):
            expert_log_scores(eye, eye, eye, 0.0, PLAIN)
        with pytest.raises(DimensionMismatchError):
            expert_log_scores(eye, np.eye(3), np.eye(3), 1.0, PLAIN)


class TestLogPartition:
    def test_one_identical_block_adds_log_two(self):
        """Queue holding exactly the positive block: LSE of two equal scores."""
        eye = np.eye(2)
        queue = eye[np.newaxis, ...]
        scores = expert_log_scores(queue, queue, eye, 1.0, PLAIN)
        est = log_partition_estimates(queue, queue, queue, eye, 1.0, PLAIN)
        np.testing.assert_allclose(est, scores + math.log(2.0), rtol=1e-15)

    def test_queue_only_variant_drops_positive(self):
        eye = np.eye(2)
        queue = eye[np.newaxis, ...]
        scores = expert_log_scores(queue, queue, eye, 1.0, PLAIN)
        est = log_partition_estimates(
            queue, queue, queue, eye, 1.0, PLAIN, include_positive=False
        )
        np.testing.assert_allclose(est, scores, rtol=1e-15)

    def test_all_but_self_queue_equals_exact_partition(self):
        """Positive term plus every other block sums the identical terms as exact Z."""
        f, v, _, _, mu, _ = random_instance(seed=8, n=12)
        mu_hat = mu / np.linalg.norm(mu, axis=1, keepdims=True)
        tau = 0.9
        for i in range(12):
            rest = np.delete(v, i, axis=0)
            est = log_partition_estimates(f[i : i + 1], v[i : i + 1], rest, mu, tau, PLAIN)
            for c in range(3):
                w = f[i, c] + mu_hat[c]
                z = sum(math.exp(float(v[j, c] @ w) / tau) for j in range(12))
                np.testing.assert_allclose(est[0, c], math.log(z), rtol=1e-13)

    def test_single_head_ignores_other_queue_rows(self):
        f, v, _, queue, mu, _ = random_instance(seed=9)
        a4 = ModelFlags(a4_single_head=True)
        base = log_partition_estimates(f, v, queue, mu, 1.0, a4)
        poisoned = queue.copy()
        poisoned[:, 1:, :] = 123.0
        np.testing.assert_array_equal(
            log_partition_estimates(f, v, poisoned, mu, 1.0, a4), base
        )
        changed = log_partition_estimates(f, v, poisoned, mu, 1.0, PLAIN)
        assert not np.allclose(changed, log_partition_estimates(f, v, queue, mu, 1.0, PLAIN))

    def test_empty_queue_rejected(self):
        eye = np.eye(2)
        with pytest.raises(EmptyQueueError):
            log_partition_estimates(
                eye[np.newaxis], eye[np.newaxis], np.zeros((0, 2, 2)), eye, 1.0, PLAIN
            )


class TestPosterior:
    def test_hand_two_thirds(self):
        """Uniform gating, scores (ln 2, 0), equal partitions -> (2/3, 1/3)."""
        q = posterior([0.5, 0.5], [math.log(2.0), 0.0], [0.0, 0.0])
        np.testing.assert_allclose(q, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_scale_invariance(self):
        """Multiplying unnormalized gating by a constant changes nothing."""
        p = np.array([0.2, 0.3, 0.5])
        s = np.array([1.0, -0.5, 0.2])
        z = np.array([0.4, 0.4, 0.4])
        np.testing.assert_allclose(posterior(7.0 * p, s, z), posterior(p, s, z), rtol=1e-13)

    def test_identical_ratios_give_uniform(self):
        q = posterior([0.25] * 4, [1.3] * 4, [0.7] * 4)
        np.testing.assert_allclose(q, 0.25, atol=1e-15)

    def test_rows_normalized_on_random_batches(self):
        rng = make_rng(10)
        p = rng.dirichlet(np.ones(5), size=200)
        s = rng.uniform(-30, 30, size=(200, 5))
        z = rng.uniform(-30, 30, size=(200, 5))
        q = posterior(p, s, z)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(q >= 0.0)

    def test_one_sided_zero_gate_is_fine(self):
        q = posterior([0.0, 1.0], [0.3, 0.3], [0.1, 0.1])
        np.testing.assert_array_equal(q, [0.0, 1.0])

    def test_all_zero_row_degenerates(self):
        with pytest.raises(DegenerateDistributionError):
            posterior([0.0, 0.0], [0.3, 0.3], [0.1, 0.1])

    def test_nan_degenerates(self):
        with pytest.raises(DegenerateDistributionError):
            posterior([-0.5, 1.5], [0.0, 0.0], [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            posterior([0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0])


class TestHardAssign:
    def test_examples(self):
        assert hard_assign(np.array([[0.1, 0.7, 0.2]])) == 2
        assert hard_assign(np.array([[0.5, 0.5]])) == 1
        assert isinstance(hard_assign(np.array([[0.5, 0.5]])), np.ndarray)

    def test_batch(self):
        q = np.array([[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]])
        np.testing.assert_array_equal(hard_assign(q), [1, 2, 1])


class TestTemperatures:
    def test_validation(self):
        with pytest.raises(NonPositiveTemperatureError):
            Temperatures(tau=-1.0)
        with pytest.raises(NonPositiveTemperatureError):
            Temperatures(kappa=0.0)
        t = Temperatures()
        assert t.tau == 1.0 and t.kappa == 1.0


class TestElboBatch:
    def test_single_expert_single_item(self):
        """K=1, queue = [v]: gate is 1, KL is 0, ELBO = -log 2."""
        v = np.array([[[1.0, 0.0]]])
        f = np.array([[[1.0, 0.0]]])
        g = np.array([[1.0, 0.0]])
        mu = np.array([[1.0, 0.0]])
        omega = np.array([[1.0, 0.0]])
        res = elbo_batch(f, v, g, v, mu, omega, Temperatures(), PLAIN)
        np.testing.assert_allclose(res.elbo, -math.log(2.0), rtol=1e-14)
        np.testing.assert_allclose(res.loss, math.log(2.0), rtol=1e-14)
        assert abs(res.kl_term) < 1e-15
        np.testing.assert_allclose(res.posterior, [[1.0]], atol=1e-15)

    def test_evidence_identity(self):
        """elbo = mean_i sum_k q_ik (s_ik - log Z_ik) - kl_term, and loss = -elbo."""
        f, v, g, queue, mu, omega = random_instance(seed=11)
        temps = Temperatures(0.8, 1.2)
        res = elbo_batch(f, v, g, queue, mu, omega, temps, PLAIN)
        scores = expert_log_scores(v, f, mu, temps.tau, PLAIN)
        log_z = log_partition_estimates(f, v, queue, mu, temps.tau, PLAIN)
        expert = np.mean(np.sum(res.posterior * (scores - log_z), axis=-1))
        np.testing.assert_allclose(res.elbo, expert - res.kl_term, atol=1e-12)
        assert res.loss == -res.elbo
        np.testing.assert_allclose(res.posterior.sum(axis=1), 1.0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        f, v, g, queue, mu, omega = random_instance(seed=12, n=3, k=2, d=3, fill=4)
        temps = Temperatures(0.7, 1.3)

        def loss(f_, g_, mu_):
            return elbo_batch(f_, v, g_, queue, mu_, omega, temps, PLAIN).loss

        res = elbo_batch(f, v, g, queue, mu, omega, temps, PLAIN)
        h = 1e-6
        for arr, grad in ((f, res.grad_f), (g, res.grad_g), (mu, res.grad_mu)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss(f, g, mu)
                arr[idx] = orig - h
                down = loss(f, g, mu)
                arr[idx] = orig
                np.testing.assert_allclose(grad[idx], (up - down) / (2 * h), rtol=2e-5, atol=1e-9)

    def test_uniform_gating_flag(self):
        f, v, g, queue, mu, omega = random_instance(seed=13)
        res = elbo_batch(f, v, g, queue, mu, omega, Temperatures(), ModelFlags(a3_uniform_gating=True))
        assert not np.any(res.grad_g)
        np.testing.assert_allclose(res.kl_term, math.log(3.0) - res.entropy, atol=1e-12)

    def test_single_head_equals_tiled_rows(self):
        """a4 on arbitrary blocks == plain flags on blocks with row 0 tiled everywhere."""
        f, v, g, queue, mu, omega = random_instance(seed=14)
        a4 = ModelFlags(a4_single_head=True)
        res_a4 = elbo_batch(f, v, g, queue, mu, omega, Temperatures(), a4)

        tile = lambda b: np.broadcast_to(b[..., :1, :], b.shape).copy()
        res_plain = elbo_batch(
            tile(f), tile(v), g, tile(queue), mu, omega, Temperatures(), PLAIN
        )
        np.testing.assert_allclose(res_a4.elbo, res_plain.elbo, rtol=1e-12)
        np.testing.assert_allclose(res_a4.posterior, res_plain.posterior, atol=1e-12)
        # shared-input chain rule: the single head collects the sum over experts
        np.testing.assert_allclose(
            res_a4.grad_f[:, 0, :], res_plain.grad_f.sum(axis=1), atol=1e-12
        )
        assert not np.any(res_a4.grad_f[:, 1:, :])

    def test_no_class_term_flag(self):
        f, v, g, queue, mu, omega = random_instance(seed=15)
        a5 = ModelFlags(a5_no_class_term=True)
        with_mu = elbo_batch(f, v, g, queue, mu, omega, Temperatures(), a5)
        without = elbo_batch(f, v, g, queue, None, omega, Temperatures(), a5)
        assert with_mu.elbo == without.elbo
        assert not np.any(with_mu.grad_mu)

    def test_all_ablations_give_uniform_posterior(self):
        f, v, g, queue, _, omega = random_instance(seed=16)
        flags = ModelFlags(True, True, True)
        res = elbo_batch(f, v, g, queue, None, omega, Temperatures(), flags)
        np.testing.assert_allclose(res.posterior, 1.0 / 3.0, atol=1e-12)

    def test_validation(self):
        f, v, g, queue, mu, omega = random_instance(seed=17)
        with pytest.raises(DimensionMismatchError):
            elbo_batch(f, v[:-1], g, queue, mu, omega, Temperatures(), PLAIN)
        with pytest.raises(EmptyQueueError):
            elbo_batch(f, v, g, np.zeros((0, 3, 4)), mu, omega, Temperatures(), PLAIN)
        with pytest.raises(DimensionMismatchError):
            elbo_batch(f, v, g, queue, mu, omega[:2], Temperatures(), PLAIN)


class TestFullDataset:
    def test_matches_brute_force(self):
        """N=50, K=3 against the pure-loop oracle."""
        f, v, g, _, mu, omega = random_instance(seed=18, n=50, k=3, d=4)
        temps = Temperatures(0.9, 1.1)
        res = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN)
        ref_elbo, ref_post = brute_full_elbo(f, v, g, mu, omega, temps.tau, temps.kappa)
        np.testing.assert_allclose(res.elbo, ref_elbo, rtol=1e-12)
        np.testing.assert_allclose(res.posterior, ref_post, atol=1e-12)
        value = exact_elbo(f, v, g, res.posterior, mu, omega, temps, PLAIN)
        np.testing.assert_allclose(value, ref_elbo, rtol=1e-12)

    def test_posterior_maximizes_exact_elbo(self):
        """100 multiplicative perturbations of q never beat the fresh posterior."""
        f, v, g, _, mu, omega = random_instance(seed=19, n=15, k=3, d=4)
        temps = Temperatures()
        res = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN)
        base = exact_elbo(f, v, g, res.posterior, mu, omega, temps, PLAIN)
        np.testing.assert_allclose(base, res.elbo, rtol=1e-12)
        rng = make_rng(20)
        for _ in range(100):
            noisy = res.posterior * np.exp(0.3 * rng.standard_normal(res.posterior.shape))
            noisy /= noisy.sum(axis=1, keepdims=True)
            assert exact_elbo(f, v, g, noisy, mu, omega, temps, PLAIN) <= base + 1e-12

    def test_one_hot_q(self):
        """Hard responsibilities: ELBO reduces to the mean of the selected scores
        (q log q vanishes), computed here from the pure-loop score matrix."""
        f, v, g, _, mu, omega = random_instance(seed=21, n=8, k=3, d=4)
        temps = Temperatures()
        res = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN)
        labels = np.argmax(res.posterior, axis=1)
        one_hot = np.zeros_like(res.posterior)
        one_hot[np.arange(8), labels] = 1.0
        value = exact_elbo(f, v, g, one_hot, mu, omega, temps, PLAIN)

        scores = brute_score_matrix(f, v, g, mu, omega, temps.tau, temps.kappa)
        np.testing.assert_allclose(value, float(np.mean(scores[np.arange(8), labels])), rtol=1e-12)
        assert value <= res.elbo + 1e-12

    def test_q_override_with_fresh_posterior_changes_nothing(self):
        f, v, g, _, mu, omega = random_instance(seed=22, n=10, k=3, d=4)
        temps = Temperatures(0.8, 1.0)
        free = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN)
        pinned = full_batch_elbo_grads(
            f, v, g, mu, omega, temps, PLAIN, q_override=free.posterior
        )
        np.testing.assert_allclose(pinned.elbo, free.elbo, rtol=1e-12)
        np.testing.assert_allclose(pinned.grad_f, free.grad_f, atol=1e-14)
        np.testing.assert_allclose(pinned.grad_g, free.grad_g, atol=1e-14)
        np.testing.assert_allclose(pinned.grad_mu, free.grad_mu, atol=1e-14)

    def test_per_point_queue_equals_full_dataset(self):
        """elbo_batch with an all-but-self queue per point reproduces the exact ELBO
        and its gradients (the estimator's bias vanishes by construction)."""
        f, v, g, _, mu, omega = random_instance(seed=23, n=9, k=3, d=4)
        temps = Temperatures()
        full = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN)
        n = 9
        elbos = []
        grad_mu_sum = np.zeros_like(mu)
        for i in range(n):
            rest = np.delete(v, i, axis=0)
            res_i = elbo_batch(
                f[i : i + 1], v[i : i + 1], g[i : i + 1], rest, mu, omega, temps, PLAIN
            )
            elbos.append(res_i.elbo)
            np.testing.assert_allclose(res_i.grad_f[0] / n, full.grad_f[i], atol=1e-12)
            np.testing.assert_allclose(res_i.grad_g[0] / n, full.grad_g[i], atol=1e-12)
            np.testing.assert_allclose(res_i.posterior[0], full.posterior[i], atol=1e-12)
            grad_mu_sum += res_i.grad_mu
        np.testing.assert_allclose(float(np.mean(elbos)), full.elbo, rtol=1e-12)
        np.testing.assert_allclose(grad_mu_sum / n, full.grad_mu, atol=1e-12)

    def test_exact_posterior_is_bayes(self):
        """All-but-self queue posterior equals a from-scratch Bayes computation."""
        f, v, g, _, mu, omega = random_instance(seed=24, n=10, k=3, d=4)
        temps = Temperatures(1.3, 0.7)
        mu_hat = mu / np.linalg.norm(mu, axis=1, keepdims=True)
        full = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN)
        for i in range(10):
            gate = np.exp((omega @ g[i]) / temps.kappa)
            gate = gate / gate.sum()
            weights = []
            for c in range(3):
                w = f[i, c] + mu_hat[c]
                phi = math.exp(float(v[i, c] @ w) / temps.tau)
                z = sum(math.exp(float(v[j, c] @ w) / temps.tau) for j in range(10))
                weights.append(gate[c] * phi / z)
            bayes = np.array(weights) / sum(weights)
            np.testing.assert_allclose(full.posterior[i], bayes, atol=1e-10)


def previous_tail(fb, vb, blocks, g, mu, omega, temps, flags, include_positive, q_override=None):
    """The ELBO tail as written before the one-pass rewrite, kept as its oracle:
    separate softmax, logsumexp, KL and entropy passes, mu normalized again for
    its gradient. One departure: its KL gave NaN where q = 0 met p = 0 (0 times
    inf), and those terms count 0 here."""
    v_eff = _route_heads(vb, flags)
    w = _combined(_route_heads(fb, flags), mu, flags)
    gate = gating_distribution(g, omega, temps.kappa, flags)
    scores = _score_core(w, v_eff, _route_heads(blocks, flags), temps.tau, include_positive)
    batch, num_k, dim = fb.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        log_gate = np.log(gate)
        s = log_gate + scores.l_pos - scores.log_z
        fresh = softmax_rows(s)
        if q_override is None:
            post = fresh
            elbo_items = logsumexp_rows(s)
        else:
            post = q_override
            log_q = np.log(np.where(post > 0.0, post, 1.0))
            elbo_items = np.sum(np.where(post > 0.0, post * (s - log_q), 0.0), axis=-1)
        direction = (1.0 - scores.sig0)[..., np.newaxis] * v_eff - scores.mixture
        grad_w = post[..., np.newaxis] * direction / temps.tau
        scale = -1.0 / batch
        if flags.a4_single_head:
            grad_f = np.zeros_like(fb)
            grad_f[:, 0, :] = scale * np.sum(grad_w, axis=1)
        else:
            grad_f = scale * grad_w
        if flags.a5_no_class_term:
            grad_mu = np.zeros((num_k, dim))
        else:
            norms = np.sqrt(np.sum(np.square(mu), axis=-1, keepdims=True))
            m_hat = mu / norms
            grad_mu_normalized = scale * np.sum(grad_w, axis=0)
            inner = np.sum(grad_mu_normalized * m_hat, axis=-1, keepdims=True)
            grad_mu = (grad_mu_normalized - m_hat * inner) / norms
        if flags.a3_uniform_gating:
            grad_g = np.zeros((batch, omega.shape[1]))
        else:
            grad_g = scale * ((post - gate) @ omega) / temps.kappa
        kl_terms = post * (np.log(np.maximum(post, 1e-300)) - log_gate)
        kl = float(np.mean(np.sum(np.where(post > 0.0, kl_terms, 0.0), axis=-1)))
        q_log_q = np.where(post > 0.0, post * np.log(np.where(post > 0.0, post, 1.0)), 0.0)
        entropy = float(np.mean(-np.sum(q_log_q, axis=-1)))
    return {
        "loss": -float(np.mean(elbo_items)),
        "posterior": fresh,
        "grad_f": grad_f,
        "grad_g": grad_g,
        "grad_mu": grad_mu,
        "kl_term": kl,
        "entropy": entropy,
    }


def assert_matches_previous_tail(res: ElboResult, ref: dict):
    """Loss, posterior and gradients bit for bit; the diagnostics within 1e-12."""
    assert res.loss == ref["loss"]
    assert res.elbo == -res.loss
    for name in ("posterior", "grad_f", "grad_g", "grad_mu"):
        got = getattr(res, name)
        assert got.shape == ref[name].shape and got.tobytes() == ref[name].tobytes(), name
    for name in ("kl_term", "entropy"):
        assert math.isclose(getattr(res, name), ref[name], rel_tol=0.0, abs_tol=1e-12), name


class TestElboTail:
    @settings(max_examples=300, deadline=None)
    @given(
        batch=st.integers(1, 6),
        k=st.integers(1, 4),
        d=st.integers(1, 5),
        fill=st.integers(1, 6),
        ablations=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        tau=st.sampled_from([0.05, 1.0]) | st.floats(0.05, 5.0),
        kappa=st.sampled_from([1e-3, 1.0]) | st.floats(1e-3, 5.0),
        q_kind=st.sampled_from(["none", "fresh", "with_zeros", "one_hot"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_previous_tail(
        self, batch, k, d, fill, ablations, tau, kappa, q_kind, seed
    ):
        """elbo_batch and full_batch_elbo_grads against the multi-pass tail, with
        and without held responsibilities, raising no floating-point warning."""
        rng = make_rng(seed)
        f = normalize_rows(rng.standard_normal((batch, k, d)))
        v = normalize_rows(rng.standard_normal((batch, k, d)))
        g = normalize_rows(rng.standard_normal((batch, d)))
        queue = normalize_rows(rng.standard_normal((fill, k, d)))
        omega = normalize_rows(rng.standard_normal((k, d)))
        flags = ModelFlags(*ablations)
        mu = None if flags.a5_no_class_term else rng.standard_normal((k, d))
        temps = Temperatures(tau, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = elbo_batch(f, v, g, queue, mu, omega, temps, flags)
            free = full_batch_elbo_grads(f, v, g, mu, omega, temps, flags)
        assert_matches_previous_tail(
            res, previous_tail(f, v, queue, g, mu, omega, temps, flags, include_positive=True)
        )
        assert_matches_previous_tail(
            free, previous_tail(f, v, v, g, mu, omega, temps, flags, include_positive=False)
        )

        if q_kind == "none":
            return
        if q_kind == "fresh":
            q = free.posterior
        elif q_kind == "with_zeros":
            q = rng.random((batch, k)) * (rng.random((batch, k)) < 0.6)
        else:
            q = np.eye(k)[rng.integers(0, k, size=batch)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = full_batch_elbo_grads(f, v, g, mu, omega, temps, flags, q_override=q)
        assert_matches_previous_tail(
            held, previous_tail(f, v, v, g, mu, omega, temps, flags, False, q_override=q)
        )

    def underflowed_gate_instance(self):
        """Every g row on omega[0] at kappa = 1e-3: the other gates underflow to 0."""
        f, v, _, queue, mu, omega = random_instance(seed=31, n=5, k=4, d=4)
        g = np.tile(omega[0], (5, 1))
        temps = Temperatures(1.0, 1e-3)
        assert np.count_nonzero(gating_distribution(g, omega, temps.kappa, PLAIN) == 0.0) == 15
        return f, v, g, queue, mu, omega, temps

    def test_kl_is_finite_when_a_gate_underflows(self):
        f, v, g, queue, mu, omega, temps = self.underflowed_gate_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = elbo_batch(f, v, g, queue, mu, omega, temps, PLAIN)
        q = res.posterior
        p = gating_distribution(g, omega, temps.kappa, PLAIN)
        expected = float(np.mean([
            sum(q[i, c] * (math.log(q[i, c]) - math.log(p[i, c])) for c in range(4) if q[i, c] > 0)
            for i in range(5)
        ]))
        assert math.isfinite(res.kl_term)
        assert math.isclose(res.kl_term, expected, rel_tol=0.0, abs_tol=1e-12)
        assert math.isfinite(res.entropy)

    def test_held_responsibilities_against_a_zero_gate_give_infinite_kl(self):
        """q > 0 where p = 0 keeps KL = +inf, the KL's value there, without a warning."""
        f, v, g, _, mu, omega, temps = self.underflowed_gate_instance()
        q = np.full((5, 4), 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = full_batch_elbo_grads(f, v, g, mu, omega, temps, PLAIN, q_override=q)
        assert res.kl_term == math.inf
        assert math.isfinite(res.entropy)


B, K, D, F = 6, 3, 4, 5
# Each entry point with the arguments it scores and a call on a dict of them.
ENTRY_POINTS = {
    "expert_log_scores": (
        ("f", "v", "mu"), lambda a: expert_log_scores(a["v"], a["f"], a["mu"], 1.0, PLAIN)
    ),
    "log_partition_estimates": (
        ("f", "v", "mu", "blocks"),
        lambda a: log_partition_estimates(a["f"], a["v"], a["blocks"], a["mu"], 1.0, PLAIN),
    ),
    "elbo_batch": (
        ("f", "v", "g", "mu", "omega", "blocks"),
        lambda a: elbo_batch(
            a["f"], a["v"], a["g"], a["blocks"], a["mu"], a["omega"], Temperatures(), PLAIN
        ),
    ),
    "full_batch_elbo_grads": (
        ("f", "v", "g", "mu", "omega"),
        lambda a: full_batch_elbo_grads(
            a["f"], a["v"], a["g"], a["mu"], a["omega"], Temperatures(), PLAIN
        ),
    ),
    "exact_elbo": (
        ("v", "g", "mu", "omega"),
        lambda a: exact_elbo(
            a["f"], a["v"], a["g"], np.full((B, K), 1.0 / K), a["mu"], a["omega"],
            Temperatures(), PLAIN,
        ),
    ),
}
# Malformed shapes per argument, against f of shape (B, K, D) and g of width D.
# An unbatched f takes v and g with it, so only the missing batch axis is wrong.
MALFORMED = {
    "f": {"unbatched": (K, D)},
    "v": {"batch": (B - 1, K, D), "experts": (B, K - 1, D), "dim": (B, K, D + 1)},
    "g": {"batch": (B - 1, D), "dim": (B, D + 1)},
    "mu": {"experts": (K - 1, D), "dim": (K, D + 1), "one_row": (1, D), "vector": (D,)},
    "omega": {"experts": (K - 1, D), "dim": (K, D + 1)},
    "blocks": {"experts": (F, K - 1, D), "dim": (F, K, D + 1)},
}


def well_formed_arguments() -> dict:
    f, v, g, blocks, mu, omega = random_instance(seed=61, n=B, k=K, d=D, fill=F)
    return {"f": f, "v": v, "g": g, "blocks": blocks, "mu": mu, "omega": omega}


class TestShapeContract:
    def test_well_formed_arguments_score(self):
        for _, call in ENTRY_POINTS.values():
            call(well_formed_arguments())

    @pytest.mark.parametrize(
        "entry,arg,kind",
        [
            (entry, arg, kind)
            for entry, (args, _) in ENTRY_POINTS.items()
            for arg in args
            for kind in MALFORMED[arg]
        ],
    )
    def test_malformed_shape_raises(self, entry, arg, kind):
        """A wrong batch size, K or d is a DimensionMismatchError, never a numpy
        broadcast error or a mu of one row broadcast to every expert."""
        args = well_formed_arguments()
        args[arg] = np.ones(MALFORMED[arg][kind])
        if arg == "f":
            args["v"], args["g"] = args["f"], args["g"][0]
        with pytest.raises(DimensionMismatchError):
            ENTRY_POINTS[entry][1](args)

    def test_scalar_posterior_inputs_raise(self):
        with pytest.raises(DimensionMismatchError):
            posterior(0.5, 0.0, 0.0)

    @pytest.mark.parametrize("entry", ["log_partition_estimates", "elbo_batch"])
    def test_empty_blocks_raise(self, entry):
        args = well_formed_arguments()
        args["blocks"] = np.zeros((0, K, D))
        with pytest.raises(EmptyQueueError):
            ENTRY_POINTS[entry][1](args)


OMEGA = max_mahalanobis_centers(K, D)
G = np.ones((2, D))
A3 = ModelFlags(a3_uniform_gating=True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gating_distribution(G, np.ones(D), 1.0, PLAIN),
        lambda: gating_distribution(G, [1.0] * D, 1.0, PLAIN),
        lambda: gating_distribution(G, np.zeros((0, D)), 1.0, PLAIN),
        lambda: gating_distribution(G, np.zeros((0, D)), 1.0, A3),
        lambda: gating_distribution(np.ones((2, 2, D)), OMEGA, 1.0, PLAIN),
        lambda: gating_distribution(np.ones((2, 2, D)), OMEGA, 1.0, A3),
        lambda: gating_distribution(1.0, OMEGA, 1.0, PLAIN),
        lambda: gating_distribution(G[0], OMEGA, 1.0, PLAIN),
        lambda: gating_distribution(G[0], OMEGA, 1.0, A3),
        lambda: entropy_mean([]),
        lambda: entropy_mean(0.5),
        lambda: hard_assign(np.zeros((3, 0))),
        lambda: hard_assign([]),
        lambda: hard_assign(0.5),
        lambda: hard_assign([0.1, 0.7, 0.2]),
    ],
    ids=[
        "gating-1d-omega", "gating-list-1d-omega", "gating-0-row-omega", "gating-0-row-omega-a3",
        "gating-3d-g", "gating-3d-g-a3", "gating-0d-g", "gating-1d-g", "gating-1d-g-a3",
        "entropy-empty-list", "entropy-0d", "hard-assign-0-columns", "hard-assign-empty-list",
        "hard-assign-0d", "hard-assign-1d",
    ],
)
def test_public_helpers_reject_malformed_shapes(call):
    """Outside `_checked`'s contract too, a malformed shape is a DimensionMismatchError,
    not a numpy error or an array of the wrong shape."""
    with pytest.raises(DimensionMismatchError):
        call()


def test_public_helpers_take_lists():
    g = make_rng(5).standard_normal((3, D))
    gate = gating_distribution(g, OMEGA, 0.5, PLAIN)
    assert gating_distribution(g.tolist(), OMEGA.tolist(), 0.5, PLAIN).tobytes() == gate.tobytes()
    assert entropy_mean(gate.tolist()) == entropy_mean(gate)


class TestPosteriorPaths:
    @settings(max_examples=240, deadline=None)
    @given(
        batch=st.integers(1, 6),
        k=st.integers(1, 4),
        d=st.integers(1, 5),
        fill=st.integers(1, 6),
        ablations=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        tau=st.sampled_from([1.0, 0.05, 0.003]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_train_and_evaluate_posteriors_agree_bit_for_bit(
        self, batch, k, d, fill, ablations, tau, seed
    ):
        """elbo_batch's posterior (training) equals posterior() of the three
        forward entry points (evaluate); tau = 0.003 takes the shifted core."""
        rng = make_rng(seed)
        f = normalize_rows(rng.standard_normal((batch, k, d)))
        v = normalize_rows(rng.standard_normal((batch, k, d)))
        g = normalize_rows(rng.standard_normal((batch, d)))
        queue = normalize_rows(rng.standard_normal((fill, k, d)))
        omega = normalize_rows(rng.standard_normal((k, d)))
        flags = ModelFlags(*ablations)
        mu = None if flags.a5_no_class_term else rng.standard_normal((k, d))
        temps = Temperatures(tau, 1.0)
        trained = elbo_batch(f, v, g, queue, mu, omega, temps, flags).posterior
        evaluated = posterior(
            gating_distribution(g, omega, temps.kappa, flags),
            expert_log_scores(v, f, mu, tau, flags),
            log_partition_estimates(f, v, queue, mu, tau, flags),
        )
        assert trained.shape == evaluated.shape
        assert trained.tobytes() == evaluated.tobytes()
