"""Workloads, timing loops, output checks and metrics of the mice benchmark.

Every workload is one user session driven through mice's public API in this
process: set-up (generate the seeded dataset, write and re-read it as CSV the way
`mice train --data` does, `init_state`, warm-up), a train phase (`fit` stepped one
epoch at a time, repeated from the same initial state) and an eval phase
(`evaluate` plus the in-process `mice eval` command on a checkpoint of the trained
state). The workloads differ in the shapes that decide which layer dominates;
bench/README.md says which layer each one stresses or bypasses.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import json
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mice import cli, data, trainer
from mice.data import SyntheticSpec
from mice.errors import MiceError
from mice.metrics import acc as accuracy
from mice.trainer import TrainConfig

import tracer as tracing

# Data shape of the c09 acceptance workload and the README example: N = 4 x 500, d_in = 16.
CLUSTERS, INPUT_DIM, CONCENTRATION = 4, 16, 50.0
TRAIN_POINTS_PER_CLUSTER = 500
MIN_EVAL_REPS = 3
SETUP_REPS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest one with this many samples beyond it


@dataclass(frozen=True)
class Workload:
    config: dict  # TrainConfig overrides; the seed comes from --seed
    epochs: int  # epochs per train job
    jobs: int  # train jobs per untraced run, each from the same initial state
    eval_points_per_cluster: int  # equal to the training size: evaluate the training CSV
    pooled: bool  # evaluate with nproc workers (the pool) or with one


WORKLOADS = {
    # c09/README shape; the queue ELBO (elbo_batch) dominates the train step. Its eval phase
    # scores a 10x larger CSV, forward only, in the evaluate pool: CSV parser, pool and
    # partition estimates. Train and eval share one workload so that, within a fixed time
    # budget for all runs, each run is long enough to average out the host's swings in speed.
    "train-default": Workload({}, epochs=20, jobs=4, eval_points_per_cluster=5000, pooled=True),
    # Small batch and queue: encoder passes and per-point bookkeeping dominate instead. It
    # evaluates its N=2000 training set with one worker: pooled, those 30 ms calls were the
    # benchmark's noisiest timing on a shared 2-vCPU VM, slowing by up to 60% in busy spells
    # of the host against 13% for the epochs of the same runs.
    "train-smallbatch": Workload(
        {"batch_size": 32, "queue_size": 128}, epochs=20, jobs=16, eval_points_per_cluster=500,
        pooled=False,
    ),
}


def _median(values) -> float:
    if not values:
        raise RuntimeError("no successful samples to report")
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    pct = 100.0 * rank / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[rank], pct


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes() if isinstance(a, np.ndarray) else a)
    return h.hexdigest()


_DONE = object()


def _drain(job):
    """Run a train_job generator to the end; its return value."""
    while True:
        try:
            next(job)
        except StopIteration as stop:
            return stop.value


def _with_threads(n: int, thunk):
    """Run thunk with the evaluate pool capped at n workers (MICE_THREADS)."""
    previous = os.environ["MICE_THREADS"]
    os.environ["MICE_THREADS"] = str(n)
    try:
        return thunk()
    finally:
        os.environ["MICE_THREADS"] = previous


@dataclass
class Inputs:
    train: data.Dataset
    evaluation: data.Dataset
    eval_csv: Path
    state0: trainer.TrainState


@dataclass
class Samples:
    setup: list[float] = field(default_factory=list)
    epochs: list[float] = field(default_factory=list)
    job_points_per_s: list[float] = field(default_factory=list)
    evaluate: list[float] = field(default_factory=list)
    eval_cmd: list[float] = field(default_factory=list)
    final_loss: float | None = None
    acc: float | None = None


class Session:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.config = TrainConfig(seed=seed, **self.workload.config)
        self.workdir = workdir
        self.nproc = int(os.environ["MICE_THREADS"])  # run.py sets it to the core count
        self.threads = self.nproc if self.workload.pooled else 1
        os.environ["MICE_THREADS"] = str(self.threads)  # read by evaluate and `mice eval`
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.samples = Samples()
        self.digests: dict[str, str] = {}
        self.ckpt = workdir / "run.ckpt"
        self.tail_pct = 0.0
        self.top_self: list[tuple[str, float, float]] = []

    # -- operations and checks ---------------------------------------------------

    def op(self, what: str, thunk, check=None, span: str | None = None):
        """Run and time one operation; (result, seconds), or (None, None) if it failed.

        A MiceError or a failed output check counts the operation as failed.
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            with self.tracer.span(span) if self.tracer and span else nullcontext():
                out = thunk()
        except MiceError as exc:
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        problems = check(out) if check else []
        if problems:
            self._fail(f"{what}: " + "; ".join(problems))
            return None, None
        return out, elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _same(self, key: str, digest: str) -> list[str]:
        """Identical-across-repeats check: the first digest under `key` is the reference."""
        ref = self.digests.setdefault(key, digest)
        return [] if ref == digest else [f"{key} digest differs between repeats of seed {self.seed}"]

    def _check_posterior(self, out) -> list[str]:
        labels, post = out
        k = self.config.num_clusters
        problems = []
        if not np.all(np.abs(post.sum(axis=1) - 1.0) <= 1e-12):
            problems.append("posterior rows do not sum to 1 within 1e-12")
        if not (labels.min() >= 1 and labels.max() <= k):
            problems.append(f"labels outside 1..{k}")
        return problems + self._same("evaluate", _digest(labels, post))

    # -- set-up ------------------------------------------------------------------

    def _spec(self, points_per_cluster: int) -> SyntheticSpec:
        return SyntheticSpec(CLUSTERS, INPUT_DIM, points_per_cluster, CONCENTRATION, seed=self.seed)

    def _setup(self, warm: bool) -> Inputs:
        train_csv = self.workdir / "train.csv"
        data.save_dataset(data.generate(self._spec(TRAIN_POINTS_PER_CLUSTER)), train_csv)
        train = data.load_dataset(train_csv)
        eval_csv, evaluation = train_csv, train
        if self.workload.eval_points_per_cluster != TRAIN_POINTS_PER_CLUSTER:
            eval_csv = self.workdir / "eval.csv"
            data.save_dataset(data.generate(self._spec(self.workload.eval_points_per_cluster)), eval_csv)
            evaluation = data.load_dataset(eval_csv)
        state0 = trainer.init_state(self.config, train)
        if warm:  # first-call costs (allocator, BLAS buffers, thread pool) stay in set-up
            trainer.fit(self.config, train, copy.deepcopy(state0), stop_epoch=1)
            trainer.evaluate(state0, evaluation)
        return Inputs(train, evaluation, eval_csv, state0)

    def setup(self, warm: bool) -> Inputs | None:
        inputs, elapsed = self.op(
            "setup",
            lambda: self._setup(warm),
            check=lambda i: self._same("initial state", self._state_digest(i.state0)),
        )
        if inputs is not None:
            self.samples.setup.append(elapsed)
        return inputs

    def _state_digest(self, state) -> str:
        """Digest of the whole state (mu, teacher, student, queue, rng) via its checkpoint."""
        path = self.workdir / "digest.ckpt"
        trainer.save_checkpoint(state, path)
        return _digest(path.read_bytes())

    # -- phases ------------------------------------------------------------------

    def train_job(self, inputs: Inputs):
        """Generator: train workload.epochs epochs from the initial state, one fit call
        per epoch, yielding after each; returns the trained state, or None on failure."""
        state = copy.deepcopy(inputs.state0)
        times, loss = [], None
        for epoch in range(self.workload.epochs):
            out, elapsed = self.op(
                f"fit epoch {epoch}",
                lambda: trainer.fit(self.config, inputs.train, state, stop_epoch=epoch + 1),
                check=self._check_epoch,
            )
            if out is None:
                return None
            times.append(elapsed)
            loss = out[1][-1]["loss"]
            yield
        problems = self._same("trained state", self._state_digest(state))
        if problems:
            self._fail("; ".join(problems))
            return None
        self.samples.epochs += times
        n = inputs.train.points.shape[0]
        self.samples.job_points_per_s.append(n * self.workload.epochs / sum(times))
        self.samples.final_loss = loss
        return state

    @staticmethod
    def _check_epoch(out) -> list[str]:
        _state, log = out
        bad = [k for k in ("loss", "elbo") if not np.isfinite(log[-1][k])]
        return [f"non-finite {', '.join(bad)}"] if bad else []

    def _eval_cmd(self, eval_csv: Path) -> dict:
        report = self.workdir / "eval.json"
        argv = ["eval", "--ckpt", str(self.ckpt), "--data", str(eval_csv), "--report", str(report)]
        code = cli.cli_main(argv)
        return {"code": code, "final": json.loads(report.read_text())["final"] if code == 0 else None}

    def eval_ops(self, state, inputs: Inputs):
        """One evaluate call (the workload's workers) and one `mice eval` command on the saved
        checkpoint; returns evaluate's (labels, posterior), or None if it failed."""
        evaluation = inputs.evaluation
        out, elapsed = self.op(
            "evaluate",
            lambda: trainer.evaluate(state, evaluation),
            check=self._check_posterior,
            span="bench.evaluate",
        )
        if out is None:
            return None
        self.samples.evaluate.append(elapsed)
        labels = out[0]
        self.samples.acc = accuracy(evaluation.truth, labels)
        occupancy = np.bincount(labels, minlength=self.config.num_clusters + 1)[1:].tolist()

        def check_cmd(result) -> list[str]:
            if result["code"] != 0:
                return [f"mice eval exited {result['code']}"]
            final = result["final"]
            reported = final.get("occupancy", [])  # the report drops trailing empty clusters
            reported = reported + [0] * (len(occupancy) - len(reported))
            if final.get("acc") != self.samples.acc or reported != occupancy:
                return ["mice eval report disagrees with evaluate()"]
            return self._same("eval report", json.dumps(final, sort_keys=True).encode())

        res, elapsed = self.op(
            "mice eval", lambda: self._eval_cmd(inputs.eval_csv), check=check_cmd, span="cli.eval"
        )
        if res is not None:
            self.samples.eval_cmd.append(elapsed)
        return out

    def thread_check(self, state, inputs: Inputs, reference) -> None:
        """evaluate with the other worker count (1 or nproc) must give bit-identical
        labels and posterior."""
        other = 1 if self.threads > 1 else self.nproc
        self.op(
            f"evaluate, {other} workers",
            lambda: _with_threads(other, lambda: trainer.evaluate(state, inputs.evaluation)),
            check=lambda out: [] if _digest(*out) == _digest(*reference) else
            [f"labels/posterior differ between MICE_THREADS=1 and {self.nproc}"],
            span="bench.evaluate_other",
        )

    # -- runs --------------------------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        inputs = None
        for _ in range(SETUP_REPS):
            inputs = self.setup(warm=True) or inputs
        if inputs is None:
            raise RuntimeError("set-up failed")
        start = time.perf_counter()
        state = _drain(self.train_job(inputs))
        if state is None:
            raise RuntimeError("the first train job failed")
        trainer.save_checkpoint(state, self.ckpt)
        # The remaining train epochs and the eval ops are interleaved in proportion to
        # their shares of the run, so that every metric samples the whole run and a
        # slow spell of the machine does not land on one metric only.
        t_train = time.perf_counter() - start
        train_budget = t_train * self.workload.jobs
        eval_budget = max(seconds - train_budget, 0.0)
        epochs = itertools.chain.from_iterable(
            self.train_job(inputs) for _ in range(self.workload.jobs - 1)
        )
        pending, t_eval, reps, last, reference = True, 0.0, 0, 0.0, None
        while True:
            tick = time.perf_counter()
            if pending and t_eval * train_budget >= t_train * eval_budget:
                pending = next(epochs, _DONE) is not _DONE
                t_train += time.perf_counter() - tick
                continue
            if not pending and reps >= MIN_EVAL_REPS and tick + last - start > seconds:
                break
            reference = self.eval_ops(state, inputs) or reference
            reps += 1
            last = time.perf_counter() - tick
            t_eval += last
        if reference is None:
            raise RuntimeError("every evaluate call failed")
        self.thread_check(state, inputs, reference)
        return self.end_to_end(inputs)

    def end_to_end(self, inputs: Inputs) -> dict:
        s = self.samples
        n_eval = inputs.evaluation.points.shape[0]
        tail_s, self.tail_pct = tail(s.epochs)
        return {
            "train_points_per_s": _median(s.job_points_per_s),
            "epoch_ms_p50": 1e3 * _median(s.epochs),
            "epoch_ms_tail": 1e3 * tail_s,
            "eval_points_per_s": n_eval / _median(s.evaluate),
            "eval_cmd_s": _median(s.eval_cmd),
            "final_loss": s.final_loss,
            "setup_s": _median(s.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def unit(self) -> float:
        """One fixed unit of work (set-up, one train job, the eval ops); its wall time."""
        start = time.perf_counter()
        inputs = self.setup(warm=False)
        state = _drain(self.train_job(inputs)) if inputs else None
        if state is None:
            raise RuntimeError("set-up or training failed in a traced unit")
        trainer.save_checkpoint(state, self.ckpt)
        reference = self.eval_ops(state, inputs)
        if reference is None:
            raise RuntimeError("evaluate failed in a traced unit")
        self.thread_check(state, inputs, reference)
        return time.perf_counter() - start

    def run_traced(self, seconds: float, spans_path: Path) -> dict:
        """Alternate untraced and traced units; per-layer medians plus tracing overhead."""
        self.setup(warm=True)
        walls = {"untraced": [], "traced": []}
        layers: list[dict] = []
        start = time.perf_counter()
        while True:
            walls["untraced"].append(self.unit())
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
            try:
                walls["traced"].append(self.unit())
            finally:
                self.tracer.uninstall()
            layers.append(layer_metrics(self.tracer.spans, self.nproc, self.threads))
            now = time.perf_counter()
            pair = walls["untraced"][-1] + walls["traced"][-1]
            if now + pair - start > seconds:
                break
        self.tracer.write(spans_path)
        self.top_self = top_self_times(self.tracer.spans, walls["traced"][-1])
        out = {name: _median([m[name] for m in layers]) for name in layers[0]}
        untraced = _median(walls["untraced"])
        out["trace.overhead_ratio"] = (_median(walls["traced"]) - untraced) / untraced
        self.tracer = None
        return out


# -- per-layer aggregation ------------------------------------------------------

def _children(spans):
    kids: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


def _self_time(span, kids) -> float:
    return span.duration - sum(c.duration for c in kids.get(id(span), ()) if c.thread == span.thread)


def _under(span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans, nproc: int, threads: int) -> dict:
    """Per-layer values of one traced unit (see bench/README.md for their definitions)."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    kids = _children(spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def one(parent_name, name="trainer.evaluate"):
        (span,) = [s for s in by_name[name] if s.parent is not None and s.parent.name == parent_name]
        return span

    steps = by_name["trainer.train_step"]
    trained = sum(s.count for s in steps)
    evaluated = sum(s.count for s in by_name["trainer.evaluate"])
    eval_rows = sum(
        s.count for f in ("student", "teacher", "gating")
        for s in by_name[f"encoder.forward_{f}"] if _under(s, "trainer.evaluate")
    )
    timed, other = one("bench.evaluate"), one("bench.evaluate_other")
    pooled, single = (timed, other) if threads > 1 else (other, timed)
    elbo = by_name["model.elbo_batch"]
    out = {f"{name}.s": total(name) for name in (
        "model.elbo_batch", "numcore.logsumexp_rows", "numcore.softmax_rows",
        "model.log_partition_estimates", "model.expert_log_scores", "model.gating_distribution",
        "model.posterior", "encoder.augment", "encoder.forward_student", "encoder.forward_teacher",
        "encoder.forward_gating", "encoder.backward", "encoder.add_bundles", "encoder.ema_update",
        "model.EmbeddingQueue.push", "model.EmbeddingQueue.snapshot",
        "prototypes.PrototypeAccumulator.add", "prototypes.analytic_prototype_update",
        "trainer.end_of_epoch", "trainer.fit", "trainer.load_checkpoint", "data.load_dataset",
        "data.generate", "trainer.init_state",
    )}
    out.update({
        "model.elbo_batch.logits": sum(s.count[0] for s in elbo),
        "model.elbo_batch.bytes": sum(s.count[1] for s in elbo),
        "model.elbo_batch.share": total("model.elbo_batch") / total("trainer.fit"),
        "encoder.trunk_rows_per_point": eval_rows / evaluated,
        "model.EmbeddingQueue.push.calls_per_point": sum(
            1 for s in by_name["model.EmbeddingQueue.push"] if _under(s, "trainer.train_step")
        ) / trained,
        "model.EmbeddingQueue.snapshot.bytes": sum(
            s.count for s in by_name["model.EmbeddingQueue.snapshot"]
        ),
        "prototypes.PrototypeAccumulator.add.calls_per_point": len(
            by_name["prototypes.PrototypeAccumulator.add"]
        ) / trained,
        "trainer.train_step.self_s": sum(_self_time(s, kids) for s in steps),
        "trainer.train_step.calls": len(steps),
        "trainer.evaluate.s": timed.duration,
        "trainer.evaluate.pool_busy_ratio": sum(c.duration for c in kids.get(id(pooled), ()))
        / (pooled.duration * nproc),
        "trainer.evaluate.speedup_vs_1thread": single.duration / pooled.duration,
        "cli.eval.self_s": sum(_self_time(s, kids) for s in by_name["cli.eval"]),
        "metrics.s": total("metrics.nmi") + total("metrics.acc") + total("metrics.ari"),
    })
    return out


def top_self_times(spans, wall: float, limit: int = 12) -> list[tuple[str, float, float]]:
    """(name, self seconds, share of the unit's wall) for the largest self times."""
    kids = _children(spans)
    selfs: dict[str, float] = {}
    for s in spans:
        if not s.name.startswith("bench."):
            selfs[s.name] = selfs.get(s.name, 0.0) + _self_time(s, kids)
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])[:limit]
    return [(name, t, t / wall) for name, t in ranked]
