"""Latent-mixture contrastive model: gating, expert scores, posterior, ELBO.

Shapes: per-point arrays carry the batch axis B first, also for one point:
expert embedding blocks are (B, K, d), one row per expert; gating embeddings
are (B, d'); cluster quantities are (B, K); the queue hands out (F, K, d)
blocks, stored expert-major as one (K, d, F) ring. Teacher embeddings and
queue contents are constants: gradients flow only through the student and
gating embeddings and mu. Every scoring entry point checks its inputs in one
place, `_checked`, against the student blocks f, (B, K, d): v has f's shape,
the scored blocks are (F >= 1, K, d), mu is exactly (K, d) unless a5 drops it,
and where gating is scored g is (B, d') and omega (K, d'). A wrong shape
raises DimensionMismatchError, an empty queue EmptyQueueError, a missing mu
InvalidInputError and a zero-norm mu row ZeroNormError. The temperatures are
plain floats: tau <= 0, then kappa <= 0 where gating is scored, is a
NonPositiveTemperatureError, raised before any shape is checked.

One scoring core, `_score_core`, scores the combined embeddings w = f + mu_hat
against a positive and F teacher blocks, with 1/tau folded into w. It walks
the batch in row tiles of at most 1 MiB of logits, so each tile stays in cache
while it is multiplied out, exponentiated in place and summed, and, when
gradients are wanted, multiplied with the blocks again into the softmax
mixture of the blocks. Only one tile-sized buffer per thread exists, reused
across calls. Both GEMMs read a queue snapshot in place, through its (K, d, F)
ring; other blocks are first copied into that layout. A Cauchy-Schwarz bound
on |logit|, taken once per call, lets exp run on the raw logits when no term
can overflow (unit rows at tau >= 1/150); otherwise each tile subtracts its
exact row max first. Its three callers are `elbo_batch` (blocks = the negative
queue, the positive a separate partition term), `log_partition_estimates` (the
`evaluate` path, forward only, no mixture) and `full_batch_elbo_grads` (blocks
= all N teacher blocks, own included, so no separate positive term). Both
ELBOs share one tail, `_elbo_result`: posterior, objective, gradients, KL and
entropy.

The tail runs one shifted exp per call. From s = log p + l_pos - log Z_hat,
`_softmax_checked` takes the row max m and e = exp(s - m) once: the posterior
is e / sum(e) and the ELBO item m + log sum(e), the formulas of `softmax_rows`
and `logsumexp_rows`, so both match them bit for bit. `posterior` shares it,
so a NaN or all -inf row is a DegenerateDistributionError on both paths. KL
and entropy then come from one log q over the same (B, K) array, with terms
where q = 0 contributing 0, so a gating probability that underflows to 0
leaves KL finite. Its gradient through mu reuses the row norms taken when mu
was normalized.

With q computed fresh from the current scores, the evidence-style identity
sum_k q_k (s_k - log q_k) = logsumexp(s) makes the ELBO value and its
first-order gradients identical whether or not q is treated as a constant, so
one gradient formula (weights = q) covers both conventions.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDistributionError,
    DimensionMismatchError,
    EmptyQueueError,
    InvalidInputError,
    NonPositiveTemperatureError,
)
# logsumexp_rows is not called here; bench/tracer.py wraps model.logsumexp_rows by name.
from .numcore import logsumexp_rows, nonzero_row_norms, softmax_rows  # noqa: F401


@dataclass(frozen=True)
class ModelFlags:
    """Ablation switches; each one enables a documented special case.

    a3_uniform_gating: gating distribution pinned to 1/K (no gradient to gating).
    a4_single_head: expert row 0 of student/teacher/queue blocks serves every expert.
    a5_no_class_term: drop mu from the scores (instance term only).
    """

    a3_uniform_gating: bool = False
    a4_single_head: bool = False
    a5_no_class_term: bool = False


class EmbeddingQueue:
    """Fixed-capacity FIFO ring of (K, d) teacher blocks; pushing when full evicts the oldest.

    The ring is stored expert-major, as one (K, d, F) array, so the scoring
    core's GEMMs read the queue where it lives, unit-stride along F.
    """

    def __init__(self, capacity: int, num_experts: int, dim: int):
        if capacity < 1:
            raise InvalidInputError(f"capacity {capacity} must be >= 1")
        self._ring = np.zeros((num_experts, dim, capacity))
        self.head = 0  # next write slot
        self.fill = 0

    @property
    def buffer(self) -> np.ndarray:
        """The ring's slots as a writable (F, K, d) view, the layout the v1 checkpoint stores.

        A view made on each access, so a deep copy of the queue keeps seeing its own ring.
        """
        return self._ring.transpose(2, 0, 1)

    @property
    def capacity(self) -> int:
        return self._ring.shape[2]

    def push(self, blocks: np.ndarray) -> None:
        """Enqueue a (B, K, d) batch of blocks, oldest first.

        A batch is one ring write of at most two slices. When B exceeds the
        capacity only its last `capacity` blocks stay, exactly as after B
        pushes of one block each.
        """
        b = np.asarray(blocks, dtype=np.float64)
        buffer = self.buffer
        if b.ndim != 3 or b.shape[1:] != buffer.shape[1:]:
            raise DimensionMismatchError(
                f"block shape {b.shape} does not match queue blocks {buffer.shape[1:]}"
            )
        cap = self.capacity
        tail = b[-cap:]  # an over-long batch overwrites its own first blocks
        start = (self.head + b.shape[0] - tail.shape[0]) % cap
        first = min(tail.shape[0], cap - start)
        buffer[start : start + first] = tail[:first]
        buffer[: tail.shape[0] - first] = tail[first:]
        self.head = (start + tail.shape[0]) % cap
        self.fill = min(self.fill + b.shape[0], cap)

    def snapshot(self) -> np.ndarray:
        """Read-only (fill, K, d) view of the filled slots in slot order, not oldest first.

        Nothing is copied: the view is valid until the next push, which
        overwrites slots in place. Partition sums over the blocks depend on
        their order only by rounding.
        """
        view = self.buffer[: self.fill]
        view.flags.writeable = False
        return view


def _route_heads(block: np.ndarray, flags: ModelFlags) -> np.ndarray:
    # Under a4 the first expert row is shared by every expert.
    if flags.a4_single_head:
        return np.broadcast_to(block[..., :1, :], block.shape)
    return block


class _Scores(NamedTuple):
    l_pos: np.ndarray  # (B, K) positive logit
    log_z: np.ndarray  # (B, K) log partition estimate
    sig0: np.ndarray  # (B, K) softmax weight of the positive; 0 when it is not a term
    mixture: np.ndarray | None  # (B, K, d) softmax-weighted sum of the blocks; None if not asked


# Bytes of logits scored per tile: a tile stays in a 2 MiB L2 cache through its passes.
_TILE_BYTES = 1 << 20
# Largest |logit| at which exp runs unshifted: no term overflows and each
# row's largest term stays a normal float.
_UNSHIFTED_NATS = 300.0
_scratch = threading.local()


def _scratch_buffer(name: str, size: int, make=np.empty) -> np.ndarray:
    """The first `size` floats of this thread's buffer `name`, kept across calls.

    The buffer grows to the largest size asked for, built by `make(size)`.
    Freed after each call, a buffer of this size goes back to the OS and is
    page-faulted in again on the next call.
    """
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size:
        buf = make(size)
        setattr(_scratch, name, buf)
    return buf[:size]


def _needs_shift(w: np.ndarray, blocks: np.ndarray, l_pos: np.ndarray | None) -> bool:
    """Whether exp must run on logits shifted by their row max.

    It must unless every logit is known to lie within _UNSHIFTED_NATS: the
    block logits by Cauchy-Schwarz (the largest row norm of w times that of
    the blocks), and the positive logits l_pos, when they are terms, by their
    own maximum. A NaN bound also takes the shift, the exact row-max path.
    """
    w_sq = np.einsum("bkd,bkd->bk", w, w).max(initial=0.0)  # initial: B or K may be 0
    bound = math.sqrt(w_sq * np.einsum("fkd,fkd->fk", blocks, blocks).max(initial=0.0))
    if not bound <= _UNSHIFTED_NATS:
        return True
    return l_pos is not None and not np.abs(l_pos).max(initial=0.0) <= _UNSHIFTED_NATS


def _score_core(
    w: np.ndarray,
    positives: np.ndarray,
    blocks: np.ndarray,
    tau: float,
    include_positive: bool = True,
    mix: bool = True,
) -> _Scores:
    """Logits of w against its positives and every block, with their logsumexp.

    w and positives are (B, K, d), blocks (F, K, d), heads already routed. The
    partition sums the F block terms, plus the positive when include_positive.
    The batch is scored in row tiles of at most _TILE_BYTES of logits, in a
    per-thread scratch buffer: GEMM, exp in place, row sums (a BLAS
    matrix-vector product with ones) and, when mix, the mixture GEMM run on a
    tile while it is in cache. No (B, K, F)-sized array exists. Blocks whose
    (K, d, F) transpose is unit-stride along F, as a queue snapshot's is, are
    read in place; others are copied into a per-thread (K, d, F) buffer first.
    Partition sums run in slot order and BLAS summation order. `_needs_shift`
    decides once per call whether exp needs the row max subtracted; it does
    not for unit rows at tau >= 1/150.
    """
    w = w / tau
    l_pos = (positives * w).sum(axis=-1)
    shifted = _needs_shift(w, blocks, l_pos if include_positive else None)
    batch, num_k, dim = w.shape
    num_f = blocks.shape[0]
    rows = max(1, _TILE_BYTES // max(1, num_k * num_f * 8))
    logit_blocks = blocks.transpose(1, 2, 0)  # (K, d, F): a queue snapshot is read in place
    if logit_blocks.strides[-1] != logit_blocks.itemsize:
        # Other blocks are copied once per call: every tile's GEMM reads them,
        # ~1.5x faster than from a view strided along F.
        copied = _scratch_buffer("blocks", blocks.size).reshape(num_k, dim, num_f)
        np.copyto(copied, logit_blocks)
        logit_blocks = copied
    tiles = _scratch_buffer("tiles", num_k * min(rows, batch) * num_f)
    ones = _scratch_buffer("ones", num_f, np.ones)
    w_t = w.transpose(1, 0, 2)  # (K, B, d)
    pos_t = l_pos.T
    mix_blocks = blocks.transpose(1, 0, 2)  # (K, F, d)
    total = np.empty((num_k, batch))
    shift = np.empty((num_k, batch)) if shifted else None
    mixture = np.empty((num_k, batch, dim)) if mix else None
    for start in range(0, batch, rows):
        stop = min(start + rows, batch)
        tile = tiles[: num_k * (stop - start) * num_f].reshape(num_k, stop - start, num_f)
        np.matmul(w_t[:, start:stop], logit_blocks, out=tile)
        if shifted:
            row_max = shift[:, start:stop]
            tile.max(axis=-1, out=row_max)
            if include_positive:
                np.maximum(row_max, pos_t[:, start:stop], out=row_max)
            tile -= row_max[..., np.newaxis]
        np.exp(tile, out=tile)
        np.matmul(tile, ones, out=total[:, start:stop])  # row sums as one BLAS gemv
        if mix:
            np.matmul(tile, mix_blocks, out=mixture[:, start:stop])
    if include_positive:
        sig0 = np.exp(pos_t - shift) if shifted else np.exp(pos_t)
        total += sig0
        sig0 /= total
    else:
        sig0 = np.zeros_like(total)
    log_z = np.log(total)
    if shifted:
        log_z += shift
    if mix:
        mixture /= total[..., np.newaxis]
        mixture = mixture.transpose(1, 0, 2)
    return _Scores(l_pos, log_z.T.copy(), sig0.T.copy(), mixture)


def _checked(f, v, mu, tau: float, flags: ModelFlags, blocks=None, g=None, omega=None, kappa=None):
    """A scoring entry point's inputs, checked by the contract above and routed:
    (w = f + mu_hat, v, blocks, (mu_hat, row norms of mu), gating distribution
    (B, K)), with None for mu's pair under a5 and for blocks and the gating
    distribution when blocks or g are not given. tau is checked first, then
    kappa by `gating_distribution`, then the shapes."""
    if not tau > 0.0:
        raise NonPositiveTemperatureError(f"tau {tau!r} must be > 0")
    gate = None if g is None else gating_distribution(g, omega, kappa, flags)
    fb = np.asarray(f, dtype=np.float64)
    vb = np.asarray(v, dtype=np.float64)
    if vb.shape != fb.shape or fb.ndim != 3:
        raise DimensionMismatchError(f"v {vb.shape} and f {fb.shape} differ or are not (B, K, d)")
    batch, num_k, dim = fb.shape
    if flags.a5_no_class_term:
        protos = None
    elif mu is None:
        raise InvalidInputError("mu is required unless a5_no_class_term is set")
    elif np.shape(mu) != (num_k, dim):
        raise DimensionMismatchError(f"mu shape {np.shape(mu)} is not (K, d) = {(num_k, dim)}")
    else:
        norms = nonzero_row_norms(np.asarray(mu, dtype=np.float64))[:, np.newaxis]
        protos = mu / norms, norms
    if blocks is not None:
        blocks = np.asarray(blocks, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[1:] != (num_k, dim):
            raise DimensionMismatchError(f"blocks {blocks.shape} are not (F, {num_k}, {dim})")
        if blocks.shape[0] == 0:
            raise EmptyQueueError("the partition needs at least one queued block")
        blocks = _route_heads(blocks, flags)
    if gate is not None and gate.shape != (batch, num_k):
        raise DimensionMismatchError(
            f"g {np.shape(g)} and omega {np.shape(omega)} do not fit B = {batch}, K = {num_k}"
        )
    w = _route_heads(fb, flags)
    return (w if protos is None else w + protos[0]), _route_heads(vb, flags), blocks, protos, gate


def gating_distribution(g, omega, kappa: float, flags: ModelFlags) -> np.ndarray:
    """p(z | x) over K clusters, (B, K), from gating embeddings g, (B, d'), and
    gating prototypes omega, (K >= 1, d'); uniform under a3."""
    if not kappa > 0.0:
        raise NonPositiveTemperatureError(f"kappa {kappa!r} must be > 0")
    gb = np.asarray(g, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    k = omega.shape[0] if omega.ndim == 2 else 0
    if gb.ndim != 2 or not k or gb.shape[1] != omega.shape[1]:
        raise DimensionMismatchError(f"g {gb.shape} and omega {omega.shape} are not (B, d'), (K, d')")
    if flags.a3_uniform_gating:
        return np.full((gb.shape[0], k), 1.0 / k)
    return softmax_rows((gb @ omega.T) / kappa)


def expert_log_scores(v, f, mu: np.ndarray | None, tau: float, flags: ModelFlags) -> np.ndarray:
    """Unnormalized per-expert log score v_k . (f_k + mu_k) / tau, (B, K)."""
    w, v_eff, *_ = _checked(f, v, mu, tau, flags)
    return np.sum(v_eff * (w / tau), axis=-1)


def log_partition_estimates(
    f,
    v,
    queue_blocks: np.ndarray,
    mu: np.ndarray | None,
    tau: float,
    flags: ModelFlags,
    include_positive: bool = True,
) -> np.ndarray:
    """Queue estimate of the per-expert log partition function, (B, K).

    The estimator sums the positive score plus one score per queued block; the
    queue-only variant (include_positive=False) exists for bound experiments.
    """
    w, v_eff, blocks, _, _ = _checked(f, v, mu, tau, flags, blocks=queue_blocks)
    return _score_core(w, v_eff, blocks, tau, include_positive, mix=False).log_z


def posterior(gating_probs, log_scores, log_partitions) -> np.ndarray:
    """Variational posterior rows: softmax_k of log p(k|x) + log score - log partition."""
    p = np.asarray(gating_probs, dtype=np.float64)
    s = np.asarray(log_scores, dtype=np.float64)
    z = np.asarray(log_partitions, dtype=np.float64)
    if p.shape != s.shape or s.shape != z.shape or s.ndim == 0:
        raise DimensionMismatchError(
            f"shapes differ or are 0-d: gating {p.shape}, scores {s.shape}, partitions {z.shape}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = np.log(p) + s - z
    return _softmax_checked(logits)[0]


def _softmax_checked(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(softmax_rows(s), row max m, row sum of exp(s - m)); a degenerate row raises."""
    # A NaN anywhere in a row makes its max NaN; only an all -inf row has max -inf.
    row_max = s.max(axis=-1, keepdims=True, initial=-np.inf)
    if not np.isfinite(row_max).all():
        if np.isnan(row_max).any():
            raise DegenerateDistributionError("posterior logits contain NaN")
        if np.isneginf(row_max).any():
            raise DegenerateDistributionError("all unnormalized posterior terms are zero")
    q = s - row_max
    np.exp(q, out=q)
    total = q.sum(axis=-1, keepdims=True)
    q /= total
    return q, row_max, total


def hard_assign(posterior_rows) -> np.ndarray:
    """Argmax cluster per row of (B, K) posterior rows, 1-indexed; ties resolve to
    the lowest index."""
    q = np.asarray(posterior_rows, dtype=np.float64)
    if q.ndim != 2 or not q.shape[1]:
        raise DimensionMismatchError(f"posterior rows {q.shape} are not (B, K >= 1)")
    return np.argmax(q, axis=1) + 1


@dataclass
class ElboResult:
    """Batch objective plus everything the optimizer and the metric log need.

    Gradients are of the loss (= -mean ELBO): grad_f pairs with the student
    block, grad_g with the gating embedding, grad_mu with the raw (unnormalized)
    prototypes.
    """

    loss: float
    elbo: float
    posterior: np.ndarray
    grad_f: np.ndarray
    grad_g: np.ndarray
    grad_mu: np.ndarray
    kl_term: float
    entropy: float


def entropy_mean(q: np.ndarray) -> float:
    """Mean over rows of the entropy of posterior rows q, with 0 log 0 = 0."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim == 0 or not q.size:
        raise DimensionMismatchError(f"posterior rows {q.shape} are 0-d or empty")
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return float(np.mean(-np.sum(terms, axis=-1)))


def _elbo_result(
    checked: tuple,
    omega: np.ndarray,
    tau: float,
    kappa: float,
    flags: ModelFlags,
    include_positive: bool = True,
    q_override: np.ndarray | None = None,
) -> ElboResult:
    """Scores of `_checked`'s (w, v, blocks, protos, gate), then the one-pass tail:
    posterior, batch-mean ELBO, gradients and diagnostics.

    Gradient weights are q_override when given (responsibilities held fixed),
    else the fresh posterior, whose ELBO is logsumexp(s) by the evidence identity.
    """
    w, v_eff, blocks, protos, gate = checked
    batch, num_k, dim = w.shape
    scores = _score_core(w, v_eff, blocks, tau, include_positive)

    with np.errstate(divide="ignore"):
        log_gate = np.log(gate)
    s = log_gate + scores.l_pos
    s -= scores.log_z
    fresh, row_max, total = _softmax_checked(s)
    post = fresh if q_override is None else q_override
    positive = post > 0.0
    log_q = np.log(post, out=np.zeros_like(post), where=positive)  # 0 where q = 0
    # Per-item terms of the ELBO, KL and sum q log q, one plane each, summed over
    # experts and averaged over the batch in one pass. Where q = 0 a term is 0, even
    # against p = 0; q > 0 against p = 0 makes KL +inf.
    terms = np.zeros((3, batch, num_k))
    if q_override is None:
        np.log(total, out=total)
        total += row_max  # logsumexp_rows(s)
        terms[0, :, :1] = total
    else:
        np.multiply(post, s - log_q, out=terms[0], where=positive)
    np.multiply(post, log_q - log_gate, out=terms[1], where=positive)
    np.multiply(post, log_q, out=terms[2])
    elbo, kl_term, neg_entropy = (terms.sum(axis=-1).sum(axis=-1) / batch).tolist()

    # dELBO/dw per item and expert, weights = q:
    # d(l_pos - log_z)/dw = ((1 - sig0) v - sum_f weight_f block_f) / tau
    grad_w = (1.0 - scores.sig0)[..., np.newaxis] * v_eff
    grad_w -= scores.mixture
    grad_w *= post[..., np.newaxis]
    grad_w /= tau
    scale = -1.0 / batch  # dLoss = -(1/B) dSumELBO
    if protos is None:
        grad_mu = np.zeros((num_k, dim))
    else:
        # Chain through row normalization: (I - m m^T)/||mu_k|| applied per row.
        m_hat, norms = protos
        grad_mu = scale * grad_w.sum(axis=0)
        grad_mu -= m_hat * (grad_mu * m_hat).sum(axis=-1, keepdims=True)
        grad_mu /= norms
    if flags.a4_single_head:
        grad_f = np.zeros((batch, num_k, dim))
        grad_f[:, 0, :] = scale * grad_w.sum(axis=1)
    else:
        grad_w *= scale
        grad_f = grad_w
    if flags.a3_uniform_gating:
        grad_g = np.zeros((batch, omega.shape[1]))
    else:
        grad_g = (post - gate) @ omega
        grad_g *= scale
        grad_g /= kappa
    return ElboResult(
        loss=-elbo,
        elbo=elbo,
        posterior=fresh,
        grad_f=grad_f,
        grad_g=grad_g,
        grad_mu=grad_mu,
        kl_term=kl_term,
        entropy=-neg_entropy,
    )


def elbo_batch(
    f,
    v,
    g,
    queue_blocks: np.ndarray,
    mu: np.ndarray | None,
    omega: np.ndarray,
    tau: float,
    kappa: float,
    flags: ModelFlags,
) -> ElboResult:
    """Batch-mean evidence lower bound with queue-estimated partitions, plus gradients.

    Args:
        f: student blocks (B, K, d), unit rows.
        v: teacher blocks (B, K, d), constants.
        g: gating embeddings (B, d).
        queue_blocks: (F, K, d) snapshot taken before the current batch is enqueued.
        mu: raw expert prototypes (K, d); normalized on use. May be None under a5.
        omega: gating prototypes (K, d).

    Returns:
        ElboResult; loss = -mean ELBO, gradients already carry the -1/B scaling.
    """
    checked = _checked(f, v, mu, tau, flags, blocks=queue_blocks, g=g, omega=omega, kappa=kappa)
    return _elbo_result(checked, omega, tau, kappa, flags)


def full_batch_elbo_grads(
    f_all,
    v_all,
    g_all,
    mu: np.ndarray | None,
    omega: np.ndarray,
    tau: float,
    kappa: float,
    flags: ModelFlags,
    q_override: np.ndarray | None = None,
) -> ElboResult:
    """Full-dataset ELBO (exact partition) with gradients; the classical-EM workhorse.

    The scored blocks are all N teacher blocks, each point's own among them. With
    q_override the responsibilities are held fixed (detached posterior, M-step of
    EM); otherwise q is the fresh posterior and the evidence identity applies.
    Gradient weights equal the supplied or fresh q either way.
    """
    w, v_eff, _, protos, gate = _checked(
        f_all, v_all, mu, tau, flags, g=g_all, omega=omega, kappa=kappa
    )
    if q_override is not None:
        q_override = np.asarray(q_override, dtype=np.float64)
        if q_override.shape != w.shape[:2]:
            raise DimensionMismatchError(
                f"q shape {q_override.shape} does not match {w.shape[:2]}"
            )
    return _elbo_result(
        (w, v_eff, v_eff, protos, gate), omega, tau, kappa, flags, include_positive=False,
        q_override=q_override,
    )
