"""Deterministic float64 numeric primitives shared by every other module.

All public operations work on numpy float64 arrays and are single-threaded and
platform-independent. Seeded randomness comes from `make_rng`, which is fixed to
numpy's PCG64 bit generator so that equal seeds give equal streams everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, InvalidInputError, ZeroNormError

# Norms at or below this are treated as zero (degenerate direction).
ZERO_NORM_EPS = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator (PCG64). Equal seeds produce equal streams on every platform."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_vector(values) -> np.ndarray:
    """Coerce to a finite float64 1-D array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector entries must be finite")
    return v


# Inputs whose computed norm is already this close to 1.0 are returned unchanged.
# One division pass always lands inside this band (pairwise summation keeps the
# recomputed norm within ~log2(d) ulps of 1), which is what makes repeated
# normalization bitwise stable: the second call sees a norm inside the band and
# short-circuits. Iterating the divide-by-norm map instead can wander forever,
# with the norm alternating one ulp above and below 1.0 while the entries drift.
NEAR_UNIT_TOL = 1e-13


def l2_normalize(v) -> np.ndarray:
    """Scale `v` to unit Euclidean norm (within 1e-13; bitwise idempotent).

    Raises ZeroNormError when ||v|| <= 1e-12. Vectors that are already unit to
    within NEAR_UNIT_TOL come back unchanged, so normalize(normalize(v)) equals
    normalize(v) down to the last bit.
    """
    v = as_vector(v)
    n = float(np.sqrt(np.dot(v, v)))
    if n <= ZERO_NORM_EPS:
        raise ZeroNormError(f"norm {n!r} is at or below {ZERO_NORM_EPS}")
    if abs(n - 1.0) <= NEAR_UNIT_TOL:
        return v.copy()
    w = v / n
    for _ in range(16):
        m = float(np.sqrt(np.dot(w, w)))
        if abs(m - 1.0) <= NEAR_UNIT_TOL:
            return w
        w = w / m
    return w


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D (or higher; last axis) array."""
    return np.sqrt(np.sum(np.square(m), axis=-1))


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Single-pass row normalization for batched embeddings (unit within ~1e-15);
    a row norm at or below ZERO_NORM_EPS is a ZeroNormError."""
    norms = row_norms(m)
    if np.any(norms <= ZERO_NORM_EPS):
        raise ZeroNormError("row norm at or below the zero floor")
    return m / norms[..., np.newaxis]


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) with the max-shift trick; safe for magnitudes ~1e300."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise EmptyInputError("log_sum_exp of an empty sequence")
    if v.ndim != 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("log_sum_exp entries must be finite")
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Max-shifted logsumexp over the last axis of a batched array (no validation)."""
    m = np.max(a, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(a - m), axis=-1))


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis (no temperature, no validation)."""
    m = np.max(a, axis=-1, keepdims=True)
    e = np.exp(a - m)
    return e / np.sum(e, axis=-1, keepdims=True)
