"""Small tanh perceptron encoders over one flat parameter vector.

One shared trunk feeds K expert heads plus one gating head; every head output is
l2-normalized onto the unit sphere. An encoder's parameters live in one float64
vector, and a `Layout` derived from the dimensions names where each array sits
in it, in this order:

    trunk.{i}.weight (width_i, fan_in), trunk.{i}.bias (width_i,)
    heads.weight (K*d, h), heads.bias (K*d,)   expert head k is rows k*d:(k+1)*d
    gating.weight (d, h), gating.bias (d,)

The same layout serves the student's parameters, its gradients and its SGD
momentum buffer, so the optimizer step, the gradient merge and the EMA are
vector operations, and the K expert heads run as one matmul each way. The
teacher is a momentum (EMA) copy of the trunk + expert heads only — gating has
no teacher — so its layout is the student's without the gating entries and its
vector lines up with a prefix of the student's. Gradients are computed by an
explicit reverse pass over the forward tape; the normalization backward uses
the exact Jacobian (I - u u^T / ||u||^2) / ||u||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidMomentumError,
    TapeMismatchError,
    ZeroNormError,
)
from .numcore import ZERO_NORM_EPS, row_norms


@dataclass(frozen=True)
class Layout:
    """Named (offset, shape) slots of one flat float64 parameter vector, in order."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    embed_dim: int
    num_experts: int
    gating: bool = True

    @cached_property
    def slots(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        shapes = []
        fan_in = self.input_dim
        for i, width in enumerate(self.hidden_widths):
            shapes += [(f"trunk.{i}.weight", (width, fan_in)), (f"trunk.{i}.bias", (width,))]
            fan_in = width
        rows = self.num_experts * self.embed_dim
        shapes += [("heads.weight", (rows, fan_in)), ("heads.bias", (rows,))]
        if self.gating:
            d = self.embed_dim
            shapes += [("gating.weight", (d, fan_in)), ("gating.bias", (d,))]
        slots, offset = {}, 0
        for name, shape in shapes:
            slots[name] = (offset, shape)
            offset += math.prod(shape)
        return slots

    @cached_property
    def size(self) -> int:
        return sum(math.prod(shape) for _, shape in self.slots.values())

    @cached_property
    def teacher(self) -> "Layout":
        """The teacher's layout: this one without the gating head, a prefix of it."""
        return replace(self, gating=False)


class Params:
    """One role's parameters (student, teacher or gradient): a flat float64 vector
    and a named view into it per layout slot."""

    def __init__(self, layout: Layout, vec: np.ndarray | None = None):
        if vec is None:
            vec = np.zeros(layout.size)
        elif vec.dtype != np.float64 or vec.shape != (layout.size,):
            raise DimensionMismatchError(
                f"parameter vector {vec.dtype} {vec.shape} does not fit layout size {layout.size}"
            )
        self.layout = layout
        self.vec = vec
        self.arrays = {
            name: vec[offset : offset + math.prod(shape)].reshape(shape)
            for name, (offset, shape) in layout.slots.items()
        }
        self.trunk = [self.layer(f"trunk.{i}") for i in range(len(layout.hidden_widths))]

    # The views point into vec, so a copy rebuilds them on its own vector.
    def __getstate__(self):
        return self.layout, self.vec

    def __setstate__(self, state):
        self.__init__(*state)

    def layer(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(weight, bias) views of one layer: 'trunk.{i}', 'heads' or 'gating'."""
        return self.arrays[f"{name}.weight"], self.arrays[f"{name}.bias"]

    def teacher_copy(self) -> "Params":
        """Copy of the trunk + expert heads, the teacher's starting point."""
        layout = self.layout.teacher
        return Params(layout, self.vec[: layout.size].copy())


def head_blocks(params: Params) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) row-block views of each expert head in the stacked head."""
    w, b = params.layer("heads")
    d, k = params.layout.embed_dim, params.layout.num_experts
    return [(w[i * d : (i + 1) * d], b[i * d : (i + 1) * d]) for i in range(k)]


@dataclass
class Tape:
    """Forward intermediates needed by backward. `head` is 'heads' (student) or 'gating'."""

    head: str
    layout: Layout
    x: np.ndarray  # (B, d_in)
    trunk_outputs: list[np.ndarray]  # post-tanh activations, one per trunk layer
    norms: np.ndarray  # norms of the head outputs before normalization
    normalized: np.ndarray  # the embeddings: (B, K, d) for 'heads', (B, d) for 'gating'


def _init_affine(weight: np.ndarray, bias: np.ndarray, rng: np.random.Generator) -> None:
    # Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weight and bias.
    bound = 1.0 / np.sqrt(weight.shape[1])
    weight[...] = rng.uniform(-bound, bound, size=weight.shape)
    bias[...] = rng.uniform(-bound, bound, size=bias.shape)


def init_params(
    input_dim: int,
    hidden_widths: list[int],
    embed_dim: int,
    num_experts: int,
    rng: np.random.Generator,
) -> Params:
    """Seeded init. Draw order is fixed: trunk layers, expert heads 0..K-1, gating head."""
    if input_dim < 1 or embed_dim < 1 or num_experts < 1:
        raise InvalidInputError("input_dim, embed_dim and num_experts must be >= 1")
    if any(w < 1 for w in hidden_widths):
        raise InvalidInputError("hidden widths must be >= 1")
    params = Params(Layout(input_dim, tuple(hidden_widths), embed_dim, num_experts))
    for layer in params.trunk + head_blocks(params) + [params.layer("gating")]:
        _init_affine(*layer, rng)
    return params


def _as_batch(x, input_dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != input_dim:
        raise DimensionMismatchError(
            f"input shape {np.shape(x)} incompatible with input_dim {input_dim}"
        )
    if not np.isfinite(a).all():
        raise InvalidInputError("encoder input must be finite")
    return a


def _forward(x, params: Params, head: str) -> Tape:
    """Trunk, then the stacked expert heads ('heads', (B, K, d)) or the gating head ((B, d))."""
    layout = params.layout
    xb = _as_batch(x, layout.input_dim)
    trunk_outputs = []
    h = xb
    for w, b in params.trunk:
        h = h @ w.T
        h += b
        np.tanh(h, out=h)
        trunk_outputs.append(h)
    return _head(xb, trunk_outputs, params, head)


def _head(xb, trunk_outputs: list[np.ndarray], params: Params, head: str) -> Tape:
    layout = params.layout
    w, b = params.layer(head)
    raw = (trunk_outputs[-1] if trunk_outputs else xb) @ w.T
    raw += b
    if head == "heads":
        raw = raw.reshape(raw.shape[0], layout.num_experts, layout.embed_dim)
    norms = row_norms(raw)
    if (norms <= ZERO_NORM_EPS).any():
        raise ZeroNormError(f"{head} output collapsed to the zero vector")
    raw /= norms[..., np.newaxis]
    return Tape(head, layout, xb, trunk_outputs, norms, raw)


def forward_student(x, params: Params) -> tuple[np.ndarray, Tape]:
    """All K unit-norm expert embeddings (B, K, d) of a (B, d_in) batch."""
    tape = _forward(x, params, "heads")
    return tape.normalized, tape


def forward_teacher(x, teacher: Params) -> np.ndarray:
    """Teacher expert embeddings (B, K, d); no tape — teacher outputs are always constants."""
    return _forward(x, teacher, "heads").normalized


def forward_gating(x, params: Params) -> tuple[np.ndarray, Tape]:
    """Unit-norm gating embeddings (B, d) of a (B, d_in) batch."""
    tape = _forward(x, params, "gating")
    return tape.normalized, tape


def gating_from_student_tape(tape: Tape, params: Params) -> np.ndarray:
    """forward_gating's embedding of a forward_student tape's points, from the trunk
    output on the tape instead of a second trunk pass; bit-identical to forward_gating."""
    if tape.head != "heads" or tape.layout != params.layout:
        raise TapeMismatchError("expected a forward_student tape of these parameters")
    return _head(tape.x, tape.trunk_outputs, params, "gating").normalized


def backward(tape: Tape, upstream, params: Params) -> Params:
    """Propagate upstream gradients on the normalized embeddings back to all parameters.

    Args:
        tape: produced by forward_student (upstream shape (B, K, d)) or
            forward_gating (upstream shape (B, d)).
        upstream: dLoss/dEmbedding for the embeddings the tape produced.
        params: the parameters used in the forward call.

    Returns:
        Gradients in the parameters' layout; the head family not on this tape
        gets zero gradients.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != tape.normalized.shape:
        raise TapeMismatchError(
            f"upstream shape {g.shape} does not match tape embeddings {tape.normalized.shape}"
        )
    if tape.layout != params.layout:
        raise TapeMismatchError("tape was built for a different parameter layout")
    grads = Params(params.layout)

    # Jacobian of u -> u/||u||: (g - f (f.g)) / ||u||; the K heads stack into one row.
    f = tape.normalized
    du = f * (g * f).sum(axis=-1, keepdims=True)
    np.subtract(g, du, out=du)
    du /= tape.norms[..., np.newaxis]
    du = du.reshape(du.shape[0], -1)
    h_last = tape.trunk_outputs[-1] if tape.trunk_outputs else tape.x
    gw, gb = grads.layer(tape.head)
    np.matmul(du.T, h_last, out=gw)
    du.sum(axis=0, out=gb)

    # Trunk: walk layers in reverse; tanh' = 1 - tanh^2 recovered from saved outputs.
    # Each layer pulls its output gradient through the layer above, so no gradient
    # is formed for the input x.
    dz, w_above = du, params.layer(tape.head)[0]
    for i in range(len(params.trunk) - 1, -1, -1):
        h_out = tape.trunk_outputs[i]
        h_in = tape.trunk_outputs[i - 1] if i > 0 else tape.x
        tanh_grad = h_out * h_out
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        dz = dz @ w_above
        dz *= tanh_grad
        gw, gb = grads.trunk[i]
        np.matmul(dz.T, h_in, out=gw)
        dz.sum(axis=0, out=gb)
        w_above = params.trunk[i][0]
    return grads


def add_bundles(a: Params, b: Params) -> Params:
    """Elementwise a += b in place (used to merge student-path and gating-path gradients)."""
    if a.layout != b.layout:
        raise DimensionMismatchError("gradients of different parameter layouts")
    a.vec += b.vec
    return a


def ema_update(teacher: Params, student: Params, momentum: float) -> Params:
    """Exponential moving average t <- m t + (1-m) s over trunk + expert heads, in place."""
    if not 0.0 <= momentum < 1.0:
        raise InvalidMomentumError(f"momentum {momentum!r} must lie in [0, 1)")
    if teacher.layout != student.layout.teacher:
        raise DimensionMismatchError("teacher layout is not the student's without gating")
    t = teacher.vec
    t *= momentum
    t += (1.0 - momentum) * student.vec[: t.size]
    return teacher


def augment(x, rng: np.random.Generator, sigma: float, rho: float) -> np.ndarray:
    """Additive Gaussian noise of scale sigma >= 0, then coordinate dropout with
    probability rho in [0, 1). sigma=0, rho=0 is the identity.

    Both random draws happen unconditionally so the consumed stream length does
    not depend on sigma and rho. The result, (x + sigma * noise) * keep, is
    built in the noise buffer.
    """
    if not sigma >= 0.0:
        raise InvalidInputError(f"sigma {sigma!r} must be >= 0")
    if not 0.0 <= rho < 1.0:
        raise InvalidInputError(f"rho {rho!r} must lie in [0, 1)")
    a = np.asarray(x, dtype=np.float64)
    noise = rng.standard_normal(a.shape)
    keep = rng.random(a.shape) >= rho
    noise *= sigma
    noise += a
    noise *= keep
    return noise
