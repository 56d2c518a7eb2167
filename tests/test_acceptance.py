"""Acceptance gate: one test per shipped criterion.

Run `pytest tests/test_acceptance.py -v` for a pass/fail line per criterion;
add `-s` to see each measured margin. Every tolerance and runtime budget is
asserted, never just printed. The slow end-to-end comparison (c09) dominates
the wall clock at a few minutes; everything else finishes in seconds.
"""

import itertools
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from mice import verify
from mice.baselines import two_stage_pipeline
from mice.cli import cli_main
from mice.data import Dataset, SyntheticSpec, generate
from mice.metrics import acc, ari, nmi
from mice.model import (
    ModelFlags,
    expert_log_scores,
    gating_distribution,
    log_partition_estimates,
    posterior,
)
from mice.numcore import make_rng, normalize_rows
from mice.prototypes import max_mahalanobis_centers
from mice.trainer import (
    TrainConfig,
    classical_em_run,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
)


def report(line: str) -> None:
    print(line)


def test_c01_prototype_dispersion():
    start = time.perf_counter()
    results = verify.check_dispersion()
    elapsed = time.perf_counter() - start
    for result in results:
        report(f"[c01] {result.name}: {result.detail}")
        assert result.passed, result.detail
    report(f"[c01] runtime {elapsed:.2f}s (budget 1s)")
    assert elapsed < 1.0


def test_c02_posterior_rows_normalized():
    start = time.perf_counter()
    rng = make_rng(23)
    flags = ModelFlags()
    worst = 0.0
    states = 0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(max(3, k - 1), 10))
        fill = int(rng.integers(1, 17))
        tau = float(rng.uniform(0.2, 3.0))
        kappa = float(rng.uniform(0.2, 3.0))
        f = normalize_rows(rng.standard_normal((100, k, d)))
        v = normalize_rows(rng.standard_normal((100, k, d)))
        g = normalize_rows(rng.standard_normal((100, d)))
        queue = normalize_rows(rng.standard_normal((fill, k, d)))
        mu = normalize_rows(rng.standard_normal((k, d)))
        omega = max_mahalanobis_centers(k, d)
        gate = gating_distribution(g, omega, kappa, flags)
        scores = expert_log_scores(v, f, mu, tau, flags)
        partitions = log_partition_estimates(f, v, queue, mu, tau, flags)
        post = posterior(gate, scores, partitions)
        worst = max(worst, float(np.max(np.abs(post.sum(axis=1) - 1.0))))
        states += post.shape[0]
    elapsed = time.perf_counter() - start
    report(f"[c02] worst |row sum - 1| {worst:.3e} over {states} states in {elapsed:.2f}s")
    assert states == 10_000
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_c03_gradient_fidelity():
    start = time.perf_counter()
    result = verify.check_gradients()
    elapsed = time.perf_counter() - start
    report(f"[c03] {result.detail}; runtime {elapsed:.2f}s (budget 30s)")
    assert result.passed, result.detail
    assert elapsed < 30.0


def test_c04_ablated_objective_is_infonce():
    result = verify.check_infonce_reduction()
    report(f"[c04] {result.detail}")
    assert result.passed, result.detail


def test_c05_ablated_posterior_is_uniform():
    result = verify.check_uniform_posterior()
    report(f"[c05] {result.detail}")
    assert result.passed, result.detail


def test_c06_hard_em_step_is_spherical_kmeans():
    result = verify.check_kmeans_equivalence()
    report(f"[c06] {result.detail}")
    assert result.passed, result.detail


def test_c07a_partition_estimate_bound():
    result = verify.check_partition_bound()
    report(f"[c07a] {result.detail}")
    assert result.passed, result.detail


def test_c07b_full_batch_em_monotonicity():
    cfg = TrainConfig(
        seed=3, num_clusters=4, embed_dim=8, hidden_widths=(16,),
        aug_sigma=0.0, aug_rho=0.0, queue_size=8,
    )
    ds = generate(SyntheticSpec(4, 12, 50, 20.0, seed=3))  # N = 200
    record = classical_em_run(cfg, ds, steps=200, lr=1e-3)
    after_e = np.asarray(record["after_e"])
    after_m = np.asarray(record["after_m"])

    worst_step = float(np.min(np.diff(after_e)))
    worst_refresh = float(np.min(after_e[1:] - after_m[:-1]))
    report(
        f"[c07b] min per-step ELBO delta {worst_step:+.3e} (>= -1e-6 required), "
        f"min E-refresh delta {worst_refresh:+.3e} (>= 0 required)"
    )
    assert worst_step >= -1e-6
    assert worst_refresh >= 0.0


def test_c08_exact_posterior_matches_bayes_oracle():
    """Queue set to the entire dataset: the estimator is the exact partition
    function, so the module posterior must equal a from-scratch Bayes rule."""
    rng = make_rng(29)
    n, k, d = 500, 3, 8
    tau, kappa = 1.3, 0.7
    flags = ModelFlags()
    f_all = normalize_rows(rng.standard_normal((n, k, d)))
    v_all = normalize_rows(rng.standard_normal((n, k, d)))
    g_all = normalize_rows(rng.standard_normal((n, d)))
    mu = normalize_rows(rng.standard_normal((k, d)))
    omega = max_mahalanobis_centers(k, d)

    gate = gating_distribution(g_all, omega, kappa, flags)
    scores = expert_log_scores(v_all, f_all, mu, tau, flags)
    partitions = log_partition_estimates(
        f_all, v_all, v_all, mu, tau, flags, include_positive=False
    )
    post = posterior(gate, scores, partitions)

    # Independent oracle in plain probability space: no log-sum-exp machinery.
    mu_unit = mu / np.sqrt(np.sum(mu * mu, axis=1))[:, np.newaxis]
    unnormalized = np.zeros((n, k))
    for i in range(n):
        w = (f_all[i] + mu_unit) / tau  # (K, d)
        phi = np.exp(np.sum(v_all[i] * w, axis=1))
        z = np.array([np.exp(v_all[:, c, :] @ w[c]).sum() for c in range(k)])
        unnormalized[i] = gate[i] * phi / z
    oracle = unnormalized / unnormalized.sum(axis=1, keepdims=True)

    worst = float(np.max(np.abs(post - oracle)))
    report(f"[c08] max |posterior - Bayes oracle| {worst:.3e} over N={n} (tolerance 1e-10)")
    assert worst <= 1e-10


@pytest.mark.slow
def test_c09_end_to_end_beats_two_stage_baseline():
    mice_accs, two_stage_accs = [], []
    for seed in range(5):
        ds = generate(SyntheticSpec(4, 16, 500, 50.0, seed=seed))
        cfg = TrainConfig(seed=seed)

        start = time.perf_counter()
        state, _ = fit(cfg, ds)
        labels, _ = evaluate(state, ds)
        mice_elapsed = time.perf_counter() - start
        mice_accs.append(acc(ds.truth, labels))
        assert mice_elapsed < 300.0, f"seed {seed} took {mice_elapsed:.0f}s"

        two_stage_accs.append(acc(ds.truth, two_stage_pipeline(cfg, ds)))
        report(
            f"[c09] seed {seed}: acc {mice_accs[-1]:.4f} "
            f"(two-stage {two_stage_accs[-1]:.4f}, {mice_elapsed:.0f}s)"
        )
    mean_mice = float(np.mean(mice_accs))
    mean_two = float(np.mean(two_stage_accs))
    report(f"[c09] mean acc {mean_mice:.4f} vs two-stage {mean_two:.4f}")
    assert mean_mice >= 0.95
    assert mean_mice >= mean_two


def _acc_by_permutation(truth, labels):
    truth = np.asarray(truth)
    labels = np.asarray(labels)
    values = sorted(set(labels.tolist()) | set(truth.tolist()))
    best = 0
    for perm in itertools.permutations(values):
        relabel = dict(zip(values, perm))
        best = max(best, sum(1 for t, p in zip(truth, labels) if t == relabel[p]))
    return best / truth.shape[0]


def _nmi_by_counts(truth, labels):
    n = len(truth)
    t_counts = Counter(truth)
    l_counts = Counter(labels)
    joint = Counter(zip(truth, labels))
    info = sum(
        (c / n) * math.log(n * c / (t_counts[t] * l_counts[l]))
        for (t, l), c in joint.items()
    )
    h_t = -sum((c / n) * math.log(c / n) for c in t_counts.values())
    h_l = -sum((c / n) * math.log(c / n) for c in l_counts.values())
    if h_t == 0.0 and h_l == 0.0:
        return 1.0
    if h_t == 0.0 or h_l == 0.0:
        return 0.0
    return info / ((h_t + h_l) / 2.0)


def _ari_by_pairs(truth, labels):
    n = len(truth)
    joint = Counter(zip(truth, labels))
    sum_ij = sum(c * (c - 1) // 2 for c in joint.values())
    sum_t = sum(c * (c - 1) // 2 for c in Counter(truth).values())
    sum_l = sum(c * (c - 1) // 2 for c in Counter(labels).values())
    total = n * (n - 1) // 2
    expected = sum_t * sum_l / total
    maximum = (sum_t + sum_l) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


def test_c10_metric_oracles():
    rng = make_rng(31)
    worst_nmi = worst_ari = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(2, 7))
        truth = rng.integers(1, k + 1, size=n)
        labels = rng.integers(1, k + 1, size=n)
        assert acc(truth, labels) == _acc_by_permutation(truth, labels)
        worst_nmi = max(worst_nmi, abs(nmi(truth, labels) - _nmi_by_counts(truth.tolist(), labels.tolist())))
        worst_ari = max(worst_ari, abs(ari(truth, labels) - _ari_by_pairs(truth.tolist(), labels.tolist())))
    report(f"[c10] acc == brute force on 100 pairs; nmi dev {worst_nmi:.3e}, ari dev {worst_ari:.3e}")
    assert worst_nmi <= 1e-12
    assert worst_ari <= 1e-12

    independent = ari(rng.integers(1, 11, size=10_000), rng.integers(1, 11, size=10_000))
    report(f"[c10] independent-label ARI {independent:+.4f} (|.| < 0.02 required)")
    assert abs(independent) < 0.02


def test_c11_determinism_and_persistence(tmp_path):
    (tmp_path / "spec.txt").write_text(
        "num_clusters = 3\ninput_dim = 6\npoints_per_cluster = 20\nconcentration = 20\nseed = 3\n"
    )
    (tmp_path / "config.txt").write_text(
        "seed = 2\nnum_clusters = 3\nembed_dim = 4\nhidden_widths = 8\n"
        "queue_size = 32\nbatch_size = 16\nepochs = 3\n"
    )
    data = str(tmp_path / "data.csv")
    assert cli_main(["gen-data", "--spec", str(tmp_path / "spec.txt"), "--out", data]) == 0

    reports = []
    for name in ("first.json", "second.json"):
        code = cli_main([
            "train", "--config", str(tmp_path / "config.txt"), "--data", data,
            "--report", str(tmp_path / name),
        ])
        assert code == 0
        loaded = json.loads((tmp_path / name).read_text())
        loaded.pop("wall_clock_seconds")
        reports.append(json.dumps(loaded, sort_keys=True))
    assert reports[0] == reports[1]
    report("[c11] seeded RunReports identical up to wall clock")

    ds = generate(SyntheticSpec(3, 6, 20, 20.0, seed=3))
    cfg = TrainConfig(
        seed=2, num_clusters=3, embed_dim=4, hidden_widths=(8,),
        queue_size=32, batch_size=16, epochs=3,
    )
    full_state, full_log = fit(cfg, ds)

    half_state, half_log = fit(cfg, ds, stop_epoch=1)
    ckpt = tmp_path / "half.ckpt"
    save_checkpoint(half_state, ckpt)
    loaded = load_checkpoint(ckpt)

    def arrays(state):
        return [
            state.student.vec, state.teacher.vec, state.mu, state.omega,
            state.queue.snapshot(), state.opt_mu, state.opt_student,
            state.accumulator.sums, state.accumulator.counts,
        ]

    for a, b in zip(arrays(loaded), arrays(half_state), strict=True):
        np.testing.assert_array_equal(a, b)
    assert loaded.rng.bit_generator.state == half_state.rng.bit_generator.state
    report("[c11] checkpoint round-trip bitwise")

    resumed_state, resumed_log = fit(cfg, ds, state=loaded)
    for a, b in zip(arrays(resumed_state), arrays(full_state), strict=True):
        np.testing.assert_array_equal(a, b)
    assert half_log + resumed_log == full_log
    report("[c11] resumed run bitwise-identical to uninterrupted run")
