"""Training loop: queue-approximated EM over the mixture of contrastive experts.

Each step draws three augmented views per point (student, teacher, gating),
computes the batch ELBO against the queue snapshot, takes one SGD step on the
student encoder and the raw prototypes, EMA-updates the teacher, enqueues the
teacher blocks, and buckets them by hard assignment. Once per epoch the
prototypes are replaced by their closed-form update from the buckets.

The student, its gradient and its SGD momentum buffer are flat vectors in one
encoder `Layout`, and the teacher's vector lines up with a prefix of it, so the
optimizer step and the EMA are a few whole-vector operations. `checkpoint.py`
writes and reads the whole state in the v1 checkpoint format; its
`save_checkpoint` and `load_checkpoint` are re-exported here.

All randomness (init, augmentation, shuffling) flows through one PCG64 stream
owned by the state, so fixed seeds reproduce runs bitwise and a checkpointed
run continues exactly as the uninterrupted one.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import encoder as enc
from .data import Dataset
from .errors import (
    ConfigError,
    EmptyInputError,
    InvalidInputError,
    NonFiniteLossError,
)
from .metrics import acc, ari, nmi
from .model import (
    EmbeddingQueue,
    ModelFlags,
    Temperatures,
    elbo_batch,
    exact_elbo,
    full_batch_elbo_grads,
    gating_distribution,
    hard_assign,
    log_partition_estimates,
    expert_log_scores,
    posterior,
)
from .numcore import make_rng, normalize_rows
from .prototypes import PrototypeAccumulator, analytic_prototype_update, max_mahalanobis_centers

# evaluate() splits work into fixed-size chunks so results do not depend on the
# worker count configured through MICE_THREADS.
_EVAL_CHUNK = 256


def worker_count() -> int:
    """Worker pool cap: MICE_THREADS when set, else machine parallelism."""
    env = os.environ.get("MICE_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise InvalidInputError(f"MICE_THREADS={env!r} is not an integer") from exc
        if n < 1:
            raise InvalidInputError(f"MICE_THREADS={env!r} must be >= 1")
        return n
    return os.cpu_count() or 1


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the dataset. Defaults are desk scale. Every
    construction checks the value types: a bool is no number, an int is a float."""

    tau: float = 1.0
    kappa: float = 1.0
    queue_size: int = 1024
    ema_momentum: float = 0.999
    batch_size: int = 256
    epochs: int = 200
    lr_initial: float = 0.3
    lr_milestones: tuple[float, ...] = (0.48, 0.64, 0.80)
    lr_decay: float = 0.1
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    num_clusters: int = 4
    embed_dim: int = 8
    hidden_widths: tuple[int, ...] = (64,)
    a3_uniform_gating: bool = False
    a4_single_head: bool = False
    a5_no_class_term: bool = False
    aug_sigma: float = 0.1
    aug_rho: float = 0.1

    def __post_init__(self):
        for name, spec in self.__dataclass_fields__.items():
            value, default = getattr(self, name), spec.default
            if isinstance(default, tuple):
                ok = isinstance(value, tuple) and all(_of_type(v, type(default[0])) for v in value)
            else:
                ok = _of_type(value, type(default))
            if not ok:
                raise ConfigError(f"config key {name!r}: {value!r} has the wrong type")
        for name in ("tau", "kappa", "lr_initial", "weight_decay", "aug_sigma"):
            # NaN fails too, and so does an int too large for a float (from JSON).
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        checks = [
            (self.tau > 0, "tau must be > 0"),
            (self.kappa > 0, "kappa must be > 0"),
            (self.queue_size >= 1, "queue_size must be >= 1"),
            (0.0 <= self.ema_momentum < 1.0, "ema_momentum must lie in [0, 1)"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.lr_initial >= 0.0, "lr_initial must be >= 0"),
            (0.0 < self.lr_decay <= 1.0, "lr_decay must lie in (0, 1]"),
            (0.0 <= self.sgd_momentum < 1.0, "sgd_momentum must lie in [0, 1)"),
            (self.weight_decay >= 0.0, "weight_decay must be >= 0"),
            (self.num_clusters >= 2, "num_clusters must be >= 2"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (all(w >= 1 for w in self.hidden_widths), "hidden widths must be >= 1"),
            (self.aug_sigma >= 0.0, "aug_sigma must be >= 0"),
            (0.0 <= self.aug_rho < 1.0, "aug_rho must lie in [0, 1)"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        ms = self.lr_milestones
        if any(not 0.0 < m < 1.0 for m in ms) or any(a >= b for a, b in zip(ms, ms[1:])):
            raise ConfigError("lr_milestones must be strictly increasing fractions in (0, 1)")

    @cached_property
    def flags(self) -> ModelFlags:
        return ModelFlags(self.a3_uniform_gating, self.a4_single_head, self.a5_no_class_term)

    @cached_property
    def temps(self) -> Temperatures:
        return Temperatures(self.tau, self.kappa)

    @cached_property
    def augmentation(self) -> enc.AugmentConfig:
        return enc.AugmentConfig(self.aug_sigma, self.aug_rho)

    def to_dict(self) -> dict:
        d = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            d[name] = list(value) if isinstance(value, tuple) else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of to_dict: lists become tuples. Unknown keys and values of the wrong
        type are a ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{name: tuple(v) if isinstance(v, list) else v for name, v in d.items()})


def _of_type(value, kind: type) -> bool:
    """Config value check: bools are not numbers, and an int is also a float."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, int) or (kind is float and isinstance(value, float))


@dataclass
class TrainState:
    config: TrainConfig
    student: enc.Params
    teacher: enc.Params
    mu: np.ndarray
    omega: np.ndarray
    queue: EmbeddingQueue
    accumulator: PrototypeAccumulator
    opt_student: np.ndarray  # SGD momentum buffer, laid out like student.vec
    opt_mu: np.ndarray
    epoch: int
    rng: np.random.Generator

    @classmethod
    def zeros(cls, config: TrainConfig, layout: enc.Layout) -> "TrainState":
        """Zeroed state of the shapes `config` and the student `layout` imply, at
        epoch 0 with the config's seeded stream; `init_state` and `load_checkpoint`
        fill it in."""
        k, d = config.num_clusters, config.embed_dim
        return cls(
            config=config,
            student=enc.Params(layout),
            teacher=enc.Params(layout.teacher),
            mu=np.zeros((k, d)),
            omega=np.zeros((k, d)),
            queue=EmbeddingQueue(config.queue_size, k, d),
            accumulator=PrototypeAccumulator(k, d),
            opt_student=np.zeros(layout.size),
            opt_mu=np.zeros((k, d)),
            epoch=0,
            rng=make_rng(config.seed),
        )


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Learning rate for the given 0-based epoch; milestones are fractions of total epochs."""
    boundaries = [int(round(m * config.epochs)) for m in config.lr_milestones]
    passed = sum(1 for b in boundaries if epoch >= b)
    return config.lr_initial * config.lr_decay**passed


def init_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    """Seeded state: student init, teacher copy, dispersed omega, random unit mu,
    queue pre-filled by one teacher pass over min(queue_size, N) augmented points."""
    d_in, k, d = dataset.points.shape[1], config.num_clusters, config.embed_dim
    try:  # the config sizes these; one too large for memory is a config error
        state = TrainState.zeros(config, enc.Layout(d_in, config.hidden_widths, d, k))
        state.student.vec[...] = enc.init_params(
            d_in, list(config.hidden_widths), d, k, state.rng
        ).vec
    except MemoryError as exc:
        raise ConfigError(f"the config needs more memory than is available: {exc}") from exc
    state.teacher.vec[...] = state.student.vec[: state.teacher.vec.size]
    state.omega[...] = max_mahalanobis_centers(k, d)
    state.mu[...] = normalize_rows(state.rng.uniform(-1.0, 1.0, size=(k, d)))
    n_prefill = min(config.queue_size, dataset.points.shape[0])
    warmup = enc.augment(dataset.points[:n_prefill], state.rng, config.augmentation)
    state.queue.push(enc.forward_teacher(warmup, state.teacher))
    return state


def _sgd_step(param: np.ndarray, grad: np.ndarray, buf: np.ndarray, lr: float, cfg: TrainConfig):
    """buf = momentum * buf + (grad + weight_decay * param); param -= lr * buf, in place."""
    tmp = cfg.weight_decay * param
    tmp += grad
    buf *= cfg.sgd_momentum
    buf += tmp
    np.multiply(lr, buf, out=tmp)
    param -= tmp


def train_step(state: TrainState, batch: np.ndarray) -> dict:
    """One optimization step on one batch of raw points; returns step metrics."""
    cfg = state.config
    aug = cfg.augmentation
    x_f = enc.augment(batch, state.rng, aug)
    x_v = enc.augment(batch, state.rng, aug)
    x_g = enc.augment(batch, state.rng, aug)

    f, tape_f = enc.forward_student(x_f, state.student)
    v = enc.forward_teacher(x_v, state.teacher)  # constant target embeddings
    g, tape_g = enc.forward_gating(x_g, state.student)

    snapshot = state.queue.snapshot()  # taken before enqueue: negatives exclude this batch
    result = elbo_batch(f, v, g, snapshot, state.mu, state.omega, cfg.temps, cfg.flags)
    if not np.isfinite(result.loss):
        raise NonFiniteLossError(
            f"loss {result.loss!r} at epoch {state.epoch} (batch of {batch.shape[0]})"
        )

    grads = enc.add_bundles(
        enc.backward(tape_f, result.grad_f, state.student),
        enc.backward(tape_g, result.grad_g, state.student),
    )
    lr = lr_at_epoch(cfg, state.epoch)
    _sgd_step(state.student.vec, grads.vec, state.opt_student, lr, cfg)
    _sgd_step(state.mu, result.grad_mu, state.opt_mu, lr, cfg)

    enc.ema_update(state.teacher, state.student, cfg.ema_momentum)
    labels = hard_assign(result.posterior)
    state.queue.push(v)
    state.accumulator.add(v, labels)
    return {
        "loss": result.loss,
        "elbo": result.elbo,
        "entropy": result.entropy,
        "kl": result.kl_term,
        "labels": labels,
        "size": batch.shape[0],
    }


def end_of_epoch(state: TrainState) -> None:
    """Closed-form prototype update from the epoch's buckets, reset, advance epoch."""
    state.mu = analytic_prototype_update(state.accumulator, state.mu)
    state.accumulator.reset()
    state.epoch += 1


def fit(
    config: TrainConfig,
    dataset: Dataset,
    state: TrainState | None = None,
    stop_epoch: int | None = None,
) -> tuple[TrainState, list[dict]]:
    """Train for config.epochs epochs (continuing from `state` when given).

    `stop_epoch` interrupts the run early (checkpoint-and-resume workflows);
    the learning-rate schedule still follows config.epochs.

    Returns the final state and one metric entry per epoch: batch-weighted mean
    ELBO/loss, mean posterior entropy, hard-assignment occupancy, learning rate,
    and NMI/ACC/ARI against the training-pass assignments when the dataset
    carries ground truth. A dataset with no points is an EmptyInputError.
    """
    if dataset.points.shape[0] == 0:
        raise EmptyInputError("fit needs at least one point")
    if state is None:
        state = init_state(config, dataset)
    elif state.config != config:
        raise ConfigError("resume state was built with a different config")
    points = dataset.points
    n = points.shape[0]
    last = config.epochs if stop_epoch is None else min(stop_epoch, config.epochs)
    log: list[dict] = []
    while state.epoch < last:
        lr = lr_at_epoch(config, state.epoch)
        order = state.rng.permutation(n)
        epoch_labels = np.zeros(n, dtype=np.int64)
        sums = {"loss": 0.0, "elbo": 0.0, "entropy": 0.0, "kl": 0.0}
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            step = train_step(state, points[idx])
            epoch_labels[idx] = step["labels"]
            for key in sums:
                sums[key] += step[key] * step["size"]
        entry = {
            "epoch": state.epoch,
            "lr": lr,
            "loss": sums["loss"] / n,
            "elbo": sums["elbo"] / n,
            "posterior_entropy": sums["entropy"] / n,
            "kl": sums["kl"] / n,
            "occupancy": np.bincount(
                epoch_labels, minlength=config.num_clusters + 1
            )[1:].tolist(),
        }
        if dataset.truth is not None:
            entry["nmi"] = nmi(dataset.truth, epoch_labels)
            entry["acc"] = acc(dataset.truth, epoch_labels)
            entry["ari"] = ari(dataset.truth, epoch_labels)
        end_of_epoch(state)
        log.append(entry)
    return state, log


def _posterior_chunk(state: TrainState, points: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
    cfg = state.config
    f, tape = enc.forward_student(points, state.student)
    v = enc.forward_teacher(points, state.teacher)
    g = enc.gating_from_student_tape(tape, state.student)  # the trunk runs once for f and g
    gate = gating_distribution(g, state.omega, cfg.kappa, cfg.flags)
    scores = expert_log_scores(v, f, state.mu, cfg.tau, cfg.flags)
    partitions = log_partition_estimates(f, v, snapshot, state.mu, cfg.tau, cfg.flags)
    return posterior(gate, scores, partitions)


def evaluate(state: TrainState, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (augmentation-free) labels and posterior for every point.

    Work is split into fixed 256-row chunks and fanned out over a thread pool
    capped by MICE_THREADS; chunking is independent of the worker count, so the
    result is identical for any setting.
    """
    points = dataset.points
    n = points.shape[0]
    snapshot = state.queue.snapshot()
    post = np.zeros((n, state.config.num_clusters))
    starts = list(range(0, n, _EVAL_CHUNK))
    workers = min(worker_count(), len(starts)) or 1

    def run(start: int) -> None:
        stop = min(start + _EVAL_CHUNK, n)
        post[start:stop] = _posterior_chunk(state, points[start:stop], snapshot)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)
    return hard_assign(post), post


def classical_em_run(config: TrainConfig, dataset: Dataset, steps: int, lr: float) -> dict:
    """Full-batch EM with the exact partition function (queue = whole dataset).

    The teacher stays frozen at its initial copy and augmentation must be off so
    the objective is the same function throughout. Each round records the exact
    ELBO after the E-step (fresh posterior) and after the M-step (one plain
    gradient step on student, gating and mu with the posterior held fixed; by the
    evidence identity in `mice.model` that is the gradient with q fresh).
    """
    if config.aug_sigma != 0.0 or config.aug_rho != 0.0:
        raise InvalidInputError("classical_em_run requires augmentation turned off")
    state = init_state(config, dataset)
    points = dataset.points
    v_all = enc.forward_teacher(points, state.teacher)  # frozen for the whole run
    after_e: list[float] = []
    after_m: list[float] = []
    for _ in range(steps):
        f_all, tape_f = enc.forward_student(points, state.student)
        g_all, tape_g = enc.forward_gating(points, state.student)
        result = full_batch_elbo_grads(
            f_all, v_all, g_all, state.mu, state.omega, config.temps, config.flags
        )
        q_fixed = result.posterior  # E-step: responsibilities from current params
        after_e.append(result.elbo)
        # M-step: plain gradient ascent with q fixed (gradient weights equal q).
        grads = enc.add_bundles(
            enc.backward(tape_f, result.grad_f, state.student),
            enc.backward(tape_g, result.grad_g, state.student),
        )
        state.student.vec -= lr * grads.vec
        state.mu = state.mu - lr * result.grad_mu
        f_new, _ = enc.forward_student(points, state.student)
        g_new, _ = enc.forward_gating(points, state.student)
        after_m.append(
            exact_elbo(
                f_new, v_all, g_new, q_fixed, state.mu, state.omega, config.temps, config.flags
            )
        )
    return {"after_e": after_e, "after_m": after_m}


# checkpoint.py imports TrainConfig and TrainState from this module, so its
# names are re-exported only after those are defined.
from .checkpoint import (  # noqa: E402
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
