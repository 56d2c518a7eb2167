"""Deterministic float64 numeric primitives shared by every other module.

All public operations work on numpy float64 arrays and are single-threaded and
platform-independent. Seeded randomness comes from `make_rng`, which is fixed to
numpy's PCG64 bit generator so that equal seeds give equal streams everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroNormError

# Norms at or below this are treated as zero (degenerate direction).
ZERO_NORM_EPS = 1e-12


def of_type(value, kind: type) -> bool:
    """Settings value check: bools are not numbers, and an int is also a float."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, int) or (kind is float and isinstance(value, float))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator (PCG64). Equal seeds produce equal streams on every platform."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D (or higher; last axis) array."""
    return np.sqrt(np.sum(np.square(m), axis=-1))


def nonzero_row_norms(m: np.ndarray) -> np.ndarray:
    """row_norms, where a row norm at or below ZERO_NORM_EPS is a ZeroNormError."""
    norms = row_norms(m)
    if np.any(norms <= ZERO_NORM_EPS):
        raise ZeroNormError("row norm at or below the zero floor")
    return norms


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Single-pass row normalization for batched embeddings (unit within ~1e-15);
    a row norm at or below ZERO_NORM_EPS is a ZeroNormError."""
    return m / nonzero_row_norms(m)[..., np.newaxis]


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Max-shifted logsumexp over the last axis of a batched array (no validation)."""
    m = np.max(a, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(a - m), axis=-1))


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis (no temperature, no validation)."""
    m = np.max(a, axis=-1, keepdims=True)
    e = np.exp(a - m)
    return e / np.sum(e, axis=-1, keepdims=True)
