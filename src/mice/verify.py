"""First-class verification suites, runnable from the CLI (`mice verify --suite ...`).

Each check is a pure function returning a CheckResult; suites group them:
mmd (prototype dispersion), gradients (finite-difference fidelity), theorems
(ablation reductions and the k-means equivalence), bound (partition estimate
bound). The acceptance test suite drives the same implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import encoder as enc
from .baselines import infonce_loss, kmeans_equivalence_check
from .data import Dataset
from .errors import InvalidInputError
from .model import ModelFlags, Temperatures, elbo_batch, log_partition_estimates
from .numcore import make_rng, normalize_rows
from .prototypes import max_mahalanobis_centers
from .trainer import TrainConfig, init_state


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_dispersion() -> list[CheckResult]:
    """Equiangular centers for d in {2, 8, 16, 128}, K = 2..min(64, d+1):
    unit rows within 1e-12 and pairwise dots at -1/(K-1) within 1e-9."""
    results = []
    for dim in (2, 8, 16, 128):
        worst_norm = 0.0
        worst_dot = 0.0
        for k in range(2, min(64, dim + 1) + 1):
            omega = max_mahalanobis_centers(k, dim)
            norms = np.sqrt(np.sum(omega * omega, axis=1))
            worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
            dots = omega @ omega.T
            off = dots[~np.eye(k, dtype=bool)]
            worst_dot = max(worst_dot, float(np.max(np.abs(off + 1.0 / (k - 1)))))
        passed = worst_norm <= 1e-12 and worst_dot <= 1e-9
        results.append(
            CheckResult(
                f"dispersion d={dim}",
                passed,
                f"max |norm-1| {worst_norm:.3e}, max dot deviation {worst_dot:.3e}",
            )
        )
    return results


def _numeric_gradient(loss_fn, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Central finite differences (step 1e-5) of a scalar function over a list of live arrays."""
    h = 1e-5
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + h
            up = loss_fn()
            arr[idx] = original - h
            down = loss_fn()
            arr[idx] = original
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def gradient_instance(seed: int = 7):
    """The fixed tiny instance used by the gradient fidelity check:
    input 8, hidden 16, embed 4, K=3, batch 4, queue fill 8, full model flags."""
    rng = make_rng(seed)
    params = enc.init_params(8, [16], 4, 3, rng)
    mu = normalize_rows(rng.uniform(-1.0, 1.0, size=(3, 4)))
    omega = max_mahalanobis_centers(3, 4)
    batch = rng.standard_normal((4, 8))
    teacher_in = rng.standard_normal((4, 8))
    queue = normalize_rows(rng.standard_normal((8, 3, 4)))
    teacher = enc.init_params(8, [16], 4, 3, rng).teacher_copy()
    v = enc.forward_teacher(teacher_in, teacher)
    return params, mu, omega, batch, v, queue


def check_gradients() -> CheckResult:
    """Analytic gradients of the batch loss (unit temperatures, no ablation) versus
    central differences over every parameter (trunk, expert heads, gating head, raw mu)."""
    params, mu, omega, batch, v, queue = gradient_instance()
    temps, flags = Temperatures(), ModelFlags()

    def loss_fn() -> float:
        f, _ = enc.forward_student(batch, params)
        g, _ = enc.forward_gating(batch, params)
        return elbo_batch(f, v, g, queue, mu, omega, temps, flags).loss

    f, tape_f = enc.forward_student(batch, params)
    g, tape_g = enc.forward_gating(batch, params)
    result = elbo_batch(f, v, g, queue, mu, omega, temps, flags)
    grads = enc.add_bundles(
        enc.backward(tape_f, result.grad_f, params),
        enc.backward(tape_g, result.grad_g, params),
    )
    analytic = [grads.vec, result.grad_mu]
    numeric = _numeric_gradient(loss_fn, [params.vec, mu])
    worst = 0.0
    for a, n in zip(analytic, numeric):
        rel = np.abs(a - n) / np.maximum(1e-6, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(rel)))
    return CheckResult(
        "gradient fidelity", worst < 1e-4, f"max relative error {worst:.3e} (tolerance 1e-4)"
    )


def check_infonce_reduction(instances: int = 100, seed: int = 11) -> CheckResult:
    """Under uniform gating + single head + no class term, the negated batch ELBO
    equals the batch-mean InfoNCE loss to 1e-10."""
    rng = make_rng(seed)
    flags = ModelFlags(a3_uniform_gating=True, a4_single_head=True, a5_no_class_term=True)
    worst = 0.0
    for _ in range(instances):
        b = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        d = int(rng.integers(3, 9))
        fill = int(rng.integers(1, 12))
        tau = float(rng.uniform(0.3, 2.0))
        f = normalize_rows(rng.standard_normal((b, k, d)))
        v = normalize_rows(rng.standard_normal((b, k, d)))
        g = normalize_rows(rng.standard_normal((b, d)))
        queue = normalize_rows(rng.standard_normal((fill, k, d)))
        omega = max_mahalanobis_centers(k, d)
        temps = Temperatures(tau, 1.0)
        res = elbo_batch(f, v, g, queue, None, omega, temps, flags)
        reference = float(
            np.mean(
                [infonce_loss(f[i, 0], v[i, 0], queue[:, 0, :], tau) for i in range(b)]
            )
        )
        worst = max(worst, abs(res.loss - reference))
    return CheckResult(
        "infonce reduction", worst < 1e-10, f"max |loss - infonce| {worst:.3e} over {instances}"
    )


def check_uniform_posterior(instances: int = 100, seed: int = 13) -> CheckResult:
    """Same ablation: every posterior row must be exactly uniform (within 1e-12)."""
    rng = make_rng(seed)
    flags = ModelFlags(a3_uniform_gating=True, a4_single_head=True, a5_no_class_term=True)
    worst = 0.0
    for _ in range(instances):
        b = int(rng.integers(1, 6))
        k = int(rng.integers(2, 6))
        d = int(rng.integers(max(3, k - 1), 9))
        fill = int(rng.integers(1, 12))
        f = normalize_rows(rng.standard_normal((b, k, d)))
        v = normalize_rows(rng.standard_normal((b, k, d)))
        g = normalize_rows(rng.standard_normal((b, d)))
        queue = normalize_rows(rng.standard_normal((fill, k, d)))
        omega = max_mahalanobis_centers(k, d)
        res = elbo_batch(f, v, g, queue, None, omega, Temperatures(), flags)
        worst = max(worst, float(np.max(np.abs(res.posterior - 1.0 / k))))
    return CheckResult(
        "uniform posterior", worst < 1e-12, f"max |q - 1/K| {worst:.3e} over {instances}"
    )


def check_kmeans_equivalence(instances: int = 100, seed: int = 17) -> CheckResult:
    """Hard E-step + analytic prototype update == one spherical k-means iteration,
    on freshly initialized states over random datasets (N <= 128). One instance
    plants duplicate prototypes to exercise the tie-break."""
    rng = make_rng(seed)
    failures = 0
    worst = 0.0
    for trial in range(instances):
        n = int(rng.integers(8, 129))
        d_in = int(rng.integers(4, 10))
        k = int(rng.integers(2, 5))
        embed = int(rng.integers(k, 9))
        config = TrainConfig(
            num_clusters=k,
            embed_dim=embed,
            hidden_widths=(12,),
            queue_size=16,
            seed=int(rng.integers(0, 2**31)),
            a3_uniform_gating=True,
            a4_single_head=True,
            epochs=1,
        )
        dataset = Dataset(normalize_rows(rng.standard_normal((n, d_in))))
        state = init_state(config, dataset)
        if trial == 0:
            state.mu[1] = state.mu[0]  # deliberate tie: duplicate prototypes
        ok, diag = kmeans_equivalence_check(state, dataset)
        failures += 0 if ok else 1
        worst = max(worst, diag["prototype_deviation"])
    return CheckResult(
        "kmeans equivalence",
        failures == 0,
        f"{failures} failures over {instances}, max prototype deviation {worst:.3e}",
    )


def check_partition_bound(instances: int = 1000, seed: int = 19) -> CheckResult:
    """log(Z / Zhat) <= log N - log(effective count) + 4/tau for random states,
    with the estimator run both with and without the positive term."""
    rng = make_rng(seed)
    flags = ModelFlags()
    worst_margin = -np.inf
    for _ in range(instances):
        n = int(rng.integers(4, 65))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(2, 9))
        fill = int(rng.integers(1, n + 1))
        tau = float(rng.uniform(0.25, 3.0))
        v_all = normalize_rows(rng.standard_normal((n, k, d)))
        f = normalize_rows(rng.standard_normal((1, k, d)))
        mu = normalize_rows(rng.standard_normal((k, d)))
        own = int(rng.integers(0, n))
        queue_idx = rng.choice(n, size=fill, replace=False)
        positive, queue = v_all[own : own + 1], v_all[queue_idx]
        # exact: the sum over all N blocks, the own one among them
        log_z = log_partition_estimates(
            f, positive, v_all, mu, tau, flags, include_positive=False
        )
        # queue-only estimator: effective count = fill
        est_queue = log_partition_estimates(
            f, positive, queue, mu, tau, flags, include_positive=False
        )
        bound_queue = np.log(n) - np.log(fill) + 4.0 / tau
        margin = float(np.max((log_z - est_queue) - bound_queue))
        worst_margin = max(worst_margin, margin)
        # positive + queue estimator: effective count = fill + 1
        est_full = log_partition_estimates(f, positive, queue, mu, tau, flags)
        bound_full = np.log(n) - np.log(fill + 1) + 4.0 / tau
        margin = float(np.max((log_z - est_full) - bound_full))
        worst_margin = max(worst_margin, margin)
    return CheckResult(
        "partition bound",
        worst_margin <= 0.0,
        f"worst margin {worst_margin:.6f} (<= 0 required) over {instances} states",
    )


SUITES = {
    "mmd": lambda: check_dispersion(),
    "gradients": lambda: [check_gradients()],
    "theorems": lambda: [
        check_infonce_reduction(),
        check_uniform_posterior(),
        check_kmeans_equivalence(),
    ],
    "bound": lambda: [check_partition_bound()],
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in ("mmd", "gradients", "theorems", "bound"):
            results.extend(SUITES[suite]())
        return results
    if name not in SUITES:
        raise InvalidInputError(f"unknown suite {name!r}")
    return SUITES[name]()
