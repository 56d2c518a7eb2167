"""Training loop: queue-approximated EM over the mixture of contrastive experts.

Each step draws three augmented views per point (student, teacher, gating),
computes the batch ELBO against the queue snapshot, takes one SGD step on the
student encoder and the raw prototypes, EMA-updates the teacher, enqueues the
teacher blocks, and buckets them by hard assignment. Once per epoch the
prototypes are replaced by their closed-form update from the buckets.

The student, its gradient and its SGD momentum buffer are flat vectors in one
encoder `Layout`, and the teacher's vector lines up with a prefix of it, so the
optimizer step and the EMA are a few whole-vector operations. Checkpoints keep
the v1 format, which stores every array by name with each expert head as its
own weight/bias pair; those are row blocks of the stacked head, written and read
as views. Loading validates every section against the stored config.

All randomness (init, augmentation, shuffling) flows through one PCG64 stream
owned by the state, so fixed seeds reproduce runs bitwise and a checkpointed
run continues exactly as the uninterrupted one.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import encoder as enc
from .data import Dataset
from .errors import (
    ConfigError,
    CorruptCheckpointError,
    FlagMismatchError,
    InvalidInputError,
    NonFiniteLossError,
    VersionMismatchError,
)
from .metrics import acc, ari, nmi
from .model import (
    ElboResult,
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

CHECKPOINT_MAGIC = b"MICE"
CHECKPOINT_VERSION = 1

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
    """Everything a run needs besides the dataset. Defaults are desk scale."""

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
    detach_posterior: bool = False
    aug_sigma: float = 0.1
    aug_rho: float = 0.1

    def __post_init__(self):
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

    @property
    def flags(self) -> ModelFlags:
        return ModelFlags(self.a3_uniform_gating, self.a4_single_head, self.a5_no_class_term)

    @property
    def temps(self) -> Temperatures:
        return Temperatures(self.tau, self.kappa)

    @property
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
        """Inverse of to_dict; unknown keys and values of the wrong type are a ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, value in d.items():
            default = cls.__dataclass_fields__[name].default
            if isinstance(default, tuple):
                ok = isinstance(value, (list, tuple)) and all(
                    _of_type(v, type(default[0])) for v in value
                )
            else:
                ok = _of_type(value, type(default))
            if not ok:
                raise ConfigError(f"config key {name!r}: {value!r} has the wrong type")
            kwargs[name] = tuple(value) if isinstance(default, tuple) else value
        return cls(**kwargs)


def _of_type(value, kind: type) -> bool:
    """JSON value check: bools are not numbers, and an int is also a float."""
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


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Learning rate for the given 0-based epoch; milestones are fractions of total epochs."""
    boundaries = [int(round(m * config.epochs)) for m in config.lr_milestones]
    passed = sum(1 for b in boundaries if epoch >= b)
    return config.lr_initial * config.lr_decay**passed


def init_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    """Seeded state: student init, teacher copy, dispersed omega, random unit mu,
    queue pre-filled by one teacher pass over min(queue_size, N) augmented points."""
    rng = make_rng(config.seed)
    student = enc.init_params(
        dataset.points.shape[1],
        list(config.hidden_widths),
        config.embed_dim,
        config.num_clusters,
        rng,
    )
    teacher = student.teacher_copy()
    omega = max_mahalanobis_centers(config.num_clusters, config.embed_dim)
    mu = normalize_rows(rng.uniform(-1.0, 1.0, size=(config.num_clusters, config.embed_dim)))
    queue = EmbeddingQueue(config.queue_size, config.num_clusters, config.embed_dim)
    n_prefill = min(config.queue_size, dataset.points.shape[0])
    warmup = enc.augment(dataset.points[:n_prefill], rng, config.augmentation)
    queue.push(enc.forward_teacher(warmup, teacher))
    acc_ = PrototypeAccumulator(config.num_clusters, config.embed_dim)
    return TrainState(
        config=config,
        student=student,
        teacher=teacher,
        mu=mu,
        omega=omega,
        queue=queue,
        accumulator=acc_,
        opt_student=np.zeros_like(student.vec),
        opt_mu=np.zeros_like(mu),
        epoch=0,
        rng=rng,
    )


def _sgd_step(param: np.ndarray, grad: np.ndarray, buf: np.ndarray, lr: float, cfg: TrainConfig):
    step = grad + cfg.weight_decay * param
    buf *= cfg.sgd_momentum
    buf += step
    param -= lr * buf


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
    carries ground truth.
    """
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
    gradient step on student, gating and mu with the posterior held fixed).
    """
    if not config.detach_posterior:
        raise FlagMismatchError("classical_em_run requires detach_posterior")
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


# ---------------------------------------------------------------------------
# Checkpoints: magic "MICE", u32 version, tagged sections, little-endian f64.
# ---------------------------------------------------------------------------


_ARRAY_SECTIONS = ("student", "teacher", "mu", "omega", "queue", "opt", "accum")
_INT64_MAX = 2**63 - 1


def _pack_arrays(arrays: list[tuple[str, np.ndarray]]) -> bytes:
    out = io.BytesIO()
    out.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        raw = name.encode("utf-8")
        out.write(struct.pack("<H", len(raw)))
        out.write(raw)
        a = np.asarray(arr, dtype=np.float64)
        out.write(struct.pack("<B", a.ndim))
        for dim in a.shape:
            out.write(struct.pack("<I", dim))
        out.write(a.astype("<f8").tobytes())
    return out.getvalue()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpointError("unexpected end of checkpoint data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def name(self) -> str:
        raw = self.take(self.unpack("<H"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(f"undecodable name {raw!r}") from exc


def _unpack_arrays(payload: bytes) -> dict[str, np.ndarray]:
    r = _Reader(payload)
    out: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I")):
        name = r.name()
        shape = tuple(r.unpack("<I") for _ in range(r.unpack("<B")))
        flat = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        try:
            out[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CorruptCheckpointError(f"array {name!r}: {exc}") from exc
    if r.pos != len(payload):
        raise CorruptCheckpointError("trailing bytes in array section")
    return out


def _v1_arrays(params: enc.Params, prefix: str) -> list[tuple[str, np.ndarray]]:
    """Named views of params in the v1 array order: trunk layers, each expert head
    as its own weight/bias pair (row blocks of the stacked head), gating head."""
    layers = [(f"trunk.{i}", layer) for i, layer in enumerate(params.trunk)]
    layers += [(f"head.{k}", layer) for k, layer in enumerate(enc.head_blocks(params))]
    if params.layout.gating:
        layers.append(("gating", params.layer("gating")))
    return [
        (f"{prefix}.{name}.{part}", array)
        for name, (weight, bias) in layers
        for part, array in (("weight", weight), ("bias", bias))
    ]


def _opt_arrays(buffer: np.ndarray, layout: enc.Layout) -> list[tuple[str, np.ndarray]]:
    views = _v1_arrays(enc.Params(layout, buffer), "opt")
    return [(f"opt.student.{i}", view) for i, (_, view) in enumerate(views)]


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize the full training state (config, parameters, queue, optimizer, RNG)."""
    meta = {
        "epoch": state.epoch,
        "queue_head": state.queue.head,
        "queue_fill": state.queue.fill,
        "accum_counts": state.accumulator.counts.tolist(),
    }
    opt = _opt_arrays(state.opt_student, state.student.layout)
    sections: list[tuple[str, bytes]] = [
        ("config", json.dumps(state.config.to_dict(), sort_keys=True).encode("utf-8")),
        ("meta", json.dumps(meta, sort_keys=True).encode("utf-8")),
        ("student", _pack_arrays(_v1_arrays(state.student, "student"))),
        ("teacher", _pack_arrays(_v1_arrays(state.teacher, "teacher"))),
        ("mu", _pack_arrays([("mu", state.mu)])),
        ("omega", _pack_arrays([("omega", state.omega)])),
        ("queue", _pack_arrays([("queue.buffer", state.queue.buffer)])),
        ("opt", _pack_arrays(opt + [("opt.mu", state.opt_mu)])),
        ("accum", _pack_arrays([("accum.sums", state.accumulator.sums)])),
        ("rng", json.dumps(state.rng.bit_generator.state, sort_keys=True).encode("utf-8")),
    ]
    out = io.BytesIO()
    out.write(CHECKPOINT_MAGIC)
    out.write(struct.pack("<I", CHECKPOINT_VERSION))
    out.write(struct.pack("<I", len(sections)))
    for name, payload in sections:
        raw = name.encode("utf-8")
        out.write(struct.pack("<H", len(raw)))
        out.write(raw)
        out.write(struct.pack("<Q", len(payload)))
        out.write(payload)
    Path(path).write_bytes(out.getvalue())


def _check_arrays(section: str, arrays: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """A section must hold exactly the expected arrays, each in the shape the config needs."""
    if set(arrays) != set(shapes):
        raise CorruptCheckpointError(
            f"{section} section: missing arrays {sorted(set(shapes) - set(arrays))}, "
            f"unknown arrays {sorted(set(arrays) - set(shapes))}"
        )
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CorruptCheckpointError(
                f"array {name!r} has shape {arrays[name].shape}, the config needs {shape}"
            )


def _check_int(what: str, value, low: int, high: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise CorruptCheckpointError(f"{what} {value!r} is not an integer in [{low}, {high}]")
    return value


def load_checkpoint(path) -> TrainState:
    """Inverse of save_checkpoint.

    Rejects bad magic, a wrong version, truncation and trailing bytes, and
    validates the contents against the stored config: the names and shapes of
    every array, the meta keys, the queue position, the accumulator counts and
    the RNG state. Every malformed file ends in CorruptCheckpointError (or
    VersionMismatchError).
    """
    data = Path(path).read_bytes()
    r = _Reader(data)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError("bad magic bytes")
    version = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    sections: dict[str, bytes] = {}
    for _ in range(r.unpack("<I")):
        name = r.name()
        sections[name] = r.take(r.unpack("<Q"))
    if r.pos != len(data):
        raise CorruptCheckpointError("trailing bytes after final section")
    missing = {"config", "meta", "rng", *_ARRAY_SECTIONS} - set(sections)
    if missing:
        raise CorruptCheckpointError(f"missing sections: {sorted(missing)}")

    try:
        config = TrainConfig.from_dict(json.loads(sections["config"].decode("utf-8")))
        meta = json.loads(sections["meta"].decode("utf-8"))
        rng_state = json.loads(sections["rng"].decode("utf-8"))
    except (ValueError, ConfigError) as exc:
        raise CorruptCheckpointError(f"unreadable checkpoint metadata: {exc}") from exc
    meta_keys = {"epoch", "queue_head", "queue_fill", "accum_counts"}
    if not isinstance(meta, dict) or not meta_keys <= set(meta):
        raise CorruptCheckpointError(f"meta section needs the keys {sorted(meta_keys)}")
    arrays = {name: _unpack_arrays(sections[name]) for name in _ARRAY_SECTIONS}

    # The config does not record the input dimension; the first student layer does.
    k, d, widths = config.num_clusters, config.embed_dim, config.hidden_widths
    first = arrays["student"].get("student.trunk.0.weight" if widths else "student.head.0.weight")
    rows = widths[0] if widths else d
    if first is None or first.ndim != 2 or first.shape[0] != rows or first.shape[1] < 1:
        raise CorruptCheckpointError("first student layer is missing or does not fit the config")
    layout = enc.Layout(first.shape[1], widths, d, k)
    if 8 * layout.size > len(sections["student"]):
        raise CorruptCheckpointError("student section is too short for the config")
    student, teacher = enc.Params(layout), enc.Params(layout.teacher)
    opt_student = np.zeros(layout.size)
    views = {
        "student": _v1_arrays(student, "student"),
        "teacher": _v1_arrays(teacher, "teacher"),
        "opt": _opt_arrays(opt_student, layout),
    }
    shapes = {section: {name: v.shape for name, v in pairs} for section, pairs in views.items()}
    shapes["opt"]["opt.mu"] = (k, d)
    shapes.update(
        mu={"mu": (k, d)},
        omega={"omega": (k, d)},
        queue={"queue.buffer": (config.queue_size, k, d)},
        accum={"accum.sums": (k, d)},
    )
    for section, expected in shapes.items():
        _check_arrays(section, arrays[section], expected)
    for section, pairs in views.items():
        for name, view in pairs:
            view[...] = arrays[section][name]

    queue = EmbeddingQueue.from_state(
        arrays["queue"]["queue.buffer"],
        _check_int("queue_head", meta["queue_head"], 0, config.queue_size - 1),
        _check_int("queue_fill", meta["queue_fill"], 0, config.queue_size),
    )
    counts = meta["accum_counts"]
    if not isinstance(counts, list) or len(counts) != k:
        raise CorruptCheckpointError(f"accum_counts {counts!r} is not a list of {k} counts")
    accumulator = PrototypeAccumulator(k, d)
    accumulator.sums = arrays["accum"]["accum.sums"]
    accumulator.counts = np.array(
        [_check_int("accum count", c, 0, _INT64_MAX) for c in counts], dtype=np.int64
    )
    rng = make_rng(0)
    try:
        rng.bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise CorruptCheckpointError(f"unusable RNG state: {exc}") from exc
    return TrainState(
        config=config,
        student=student,
        teacher=teacher,
        mu=arrays["mu"]["mu"],
        omega=arrays["omega"]["omega"],
        queue=queue,
        accumulator=accumulator,
        opt_student=opt_student,
        opt_mu=arrays["opt"]["opt.mu"],
        epoch=_check_int("epoch", meta["epoch"], 0, _INT64_MAX),
        rng=rng,
    )


def write_metric_log(path, entries: list[dict]) -> None:
    """Newline-delimited JSON, one object per epoch."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
