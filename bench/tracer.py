"""In-memory span tracer that wraps mice's public functions from outside the package.

A wrapper is installed where the caller looks the function up: a name imported
into a module's namespace (``mice.trainer.elbo_batch``), a module attribute the
caller reaches through the module (``mice.encoder.forward_student``), or a method
on its class (``EmbeddingQueue.push``). Nothing is installed unless ``install``
runs, and ``uninstall`` puts every original back, so untraced runs execute the
unmodified program.

Each span records its name, start, end, parent span and thread, plus an
optional size computed from the call's arguments (rows; logits and bytes). Spans
opened on a worker thread with no open span of its own are parented to the span
open on the installing thread, which is how evaluate()'s thread pool hangs its
chunk work under the evaluate span.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "count")

    def __init__(self, name: str, parent: "Span | None", thread: int, count: float):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.count = count
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    def _begin(self, name: str, count: float) -> Span:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home else None
        span = Span(name, parent, thread, count)
        stack.append(span)
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    @contextmanager
    def span(self, name: str, count: float = 0):
        """A span opened by the benchmark itself around a call into the program."""
        s = self._begin(name, count)
        try:
            yield s
        finally:
            self._finish(s)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr with a recording wrapper; `count(*args)` sizes the span
        (a number, or a tuple of numbers for several sizes)."""
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            s = tracer._begin(name, count(*args, **kwargs) if count else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._finish(s)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON rows [id, name, start, end, parent id, thread, count]."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [i, s.name, s.start, s.end, ids.get(id(s.parent), -1), s.thread, s.count]
            for i, s in enumerate(self.spans)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "thread", "count"],
                       "spans": rows}, fh)


def _rows(x, *_, **__) -> int:
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _elbo_size(f, v, g, queue_blocks, *_, **__) -> tuple[int, int]:
    """Computed (logits, bytes): B*K*(F+1) logits; f, v, g and the queue read once
    plus the logits written once, as float64."""
    batch, k, _d = f.shape
    logits = batch * k * (queue_blocks.shape[0] + 1)
    return logits, 8 * (f.size + v.size + g.size + queue_blocks.size + logits)


def _snapshot_bytes(queue, *_, **__) -> int:
    return 8 * queue.fill * queue.buffer.shape[1] * queue.buffer.shape[2]


def install(tracer: Tracer) -> None:
    """Wrap every public function of the traced layers where its callers look it up."""
    from mice import cli, data, encoder, model, trainer
    from mice.model import EmbeddingQueue
    from mice.prototypes import PrototypeAccumulator

    for owner in (trainer, model):  # elbo_batch calls gating_distribution in model's namespace
        tracer.wrap(owner, "gating_distribution", "model.gating_distribution")
    tracer.wrap(model, "logsumexp_rows", "numcore.logsumexp_rows")
    tracer.wrap(model, "softmax_rows", "numcore.softmax_rows")
    tracer.wrap(trainer, "elbo_batch", "model.elbo_batch", _elbo_size)
    for fn in ("expert_log_scores", "log_partition_estimates", "posterior"):
        tracer.wrap(trainer, fn, f"model.{fn}")
    tracer.wrap(trainer, "analytic_prototype_update", "prototypes.analytic_prototype_update")
    for fn in ("augment", "backward", "add_bundles", "ema_update"):
        tracer.wrap(encoder, fn, f"encoder.{fn}")
    for fn in ("forward_student", "forward_teacher", "forward_gating"):
        tracer.wrap(encoder, fn, f"encoder.{fn}", _rows)
    tracer.wrap(EmbeddingQueue, "push", "model.EmbeddingQueue.push")
    tracer.wrap(EmbeddingQueue, "snapshot", "model.EmbeddingQueue.snapshot", _snapshot_bytes)
    tracer.wrap(PrototypeAccumulator, "add", "prototypes.PrototypeAccumulator.add")
    tracer.wrap(trainer, "train_step", "trainer.train_step", lambda state, batch: batch.shape[0])
    for fn in ("fit", "end_of_epoch", "init_state"):
        tracer.wrap(trainer, fn, f"trainer.{fn}")
    evaluate_rows = lambda state, dataset: dataset.points.shape[0]  # noqa: E731
    tracer.wrap(trainer, "evaluate", "trainer.evaluate", evaluate_rows)
    tracer.wrap(cli, "evaluate", "trainer.evaluate", evaluate_rows)
    tracer.wrap(cli, "load_checkpoint", "trainer.load_checkpoint")
    for owner in (data, cli):
        tracer.wrap(owner, "load_dataset", "data.load_dataset")
    tracer.wrap(data, "generate", "data.generate")
    for owner in (trainer, cli):
        for fn in ("nmi", "acc", "ari"):
            tracer.wrap(owner, fn, f"metrics.{fn}")
