"""Synthetic datasets and the CSV on-disk format.

Points live on the unit sphere: each one is a cluster direction plus isotropic
Gaussian noise scaled by 1/sqrt(concentration), re-normalized. The CSV header is
dim_0,...,dim_{d-1} with an optional trailing `truth` column of 1-indexed
cluster labels. Floats are written with repr (shortest round-trip), so
save/load is lossless. Instance identities used in training are row indices and
are never persisted.

The loader parses whole arrays: all data rows go through numpy's C tokenizer in
one call, and field counts, finiteness and labels are checked on the results.
Only when that fails does a per-line scan run, to name the first bad line.
Float fields follow numpy's grammar: Python's `float` syntax without
underscores or non-ASCII digits, padded by any Unicode whitespace. Labels are
decimal digits (Unicode category Nd, as re's \\d), from 1 to the int64 maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError, ParseError
from .numcore import make_rng, normalize_rows
from .prototypes import max_mahalanobis_centers

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SyntheticSpec:
    num_clusters: int
    input_dim: int
    points_per_cluster: int
    concentration: float
    seed: int = 0

    def __post_init__(self):
        if self.num_clusters < 1:
            raise InvalidSpecError("num_clusters must be >= 1")
        if self.input_dim < 1:
            raise InvalidSpecError("input_dim must be >= 1")
        if self.points_per_cluster < 1:
            raise InvalidSpecError("points_per_cluster must be >= 1")
        if not self.concentration > 0.0:
            raise InvalidSpecError("concentration must be > 0")
        if self.seed < 0:
            raise InvalidSpecError("seed must be >= 0")


@dataclass
class Dataset:
    points: np.ndarray  # (N, d) float64
    truth: np.ndarray | None = None  # (N,) int labels 1..K, or None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise DimensionMismatchError(f"points must be (N, d), got {self.points.shape}")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=np.int64)
            if self.truth.shape != (self.points.shape[0],):
                raise DimensionMismatchError("truth length must match the number of points")


def generate(spec: SyntheticSpec) -> Dataset:
    """Unit-sphere clusters around maximally dispersed directions.

    Directions come from the equiangular construction when num_clusters fits in
    input_dim + 1, otherwise they are seeded random unit vectors (near-orthogonal
    in high dimension). Points are grouped by cluster, truth labels 1..K.
    """
    rng = make_rng(spec.seed)
    k, d, n = spec.num_clusters, spec.input_dim, spec.points_per_cluster
    if 2 <= k <= d + 1:
        directions = max_mahalanobis_centers(k, d)
    else:
        directions = normalize_rows(rng.standard_normal((k, d)))
    noise = rng.standard_normal((k * n, d)) / np.sqrt(spec.concentration)
    raw = np.repeat(directions, n, axis=0) + noise
    points = normalize_rows(raw)
    truth = np.repeat(np.arange(1, k + 1), n)
    return Dataset(points, truth)


def save_dataset(dataset: Dataset, path) -> None:
    d = dataset.points.shape[1]
    header = ",".join(f"dim_{i}" for i in range(d))
    rows = dataset.points.tolist()
    if dataset.truth is not None:
        header += ",truth"
        for row, label in zip(rows, dataset.truth.tolist()):
            row.append(label)
    with open(path, "w", encoding="utf-8") as fh:  # streamed: no whole-file string
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def load_dataset(path) -> Dataset:
    """Parse a CSV written by save_dataset; errors carry 1-based line numbers."""
    try:
        lines = Path(path).read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The placeholder makes a break just before the bad byte count as a line.
        lineno = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"line {lineno}: not valid UTF-8 ({exc.reason})") from None
    if not lines:
        raise ParseError("line 1: empty dataset file")
    header = lines[0].split(",")
    has_truth = header[-1] == "truth"
    dim_columns = header[:-1] if has_truth else header
    if not dim_columns:
        raise ParseError("line 1: no data columns in header")
    for i, name in enumerate(dim_columns):
        if name != f"dim_{i}":
            raise ParseError(f"line 1: expected column dim_{i}, found {name!r}")
    d = len(dim_columns)
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise ParseError("line 2: dataset has a header but no rows")
    parsed = _parse_rows(rows, d, has_truth)
    if parsed is None:
        parsed = _scan_lines(lines, d, has_truth)
    return Dataset(*parsed)


def _parse_rows(rows: list[str], d: int, has_truth: bool):
    """(points, truth) of non-blank data rows with whole-array checks, or None if any row is bad."""
    texts, labels = rows, None
    if has_truth:
        texts, _, labels = zip(*(row.rpartition(",") for row in rows))
        if not all(texts):  # a row without a comma; loadtxt would skip it
            return None
    try:
        points = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if points.shape != (len(rows), d) or not np.isfinite(points).all():
        return None
    if labels is None:
        return points, None
    labels = [label.strip() for label in labels]
    if not all(map(str.isdecimal, labels)):  # isdecimal is re's \d: Unicode category Nd
        return None
    try:
        truth = np.array([int(label) for label in labels], dtype=np.int64)
    except (OverflowError, ValueError):  # beyond int64, or more digits than int() converts
        return None
    return (points, truth) if truth.min() >= 1 else None


def _scan_lines(lines: list[str], d: int, has_truth: bool):
    """The per-line parse, run when the whole-array parse failed: raises for the first bad line."""
    expected_fields = d + (1 if has_truth else 0)
    points = []
    truth = [] if has_truth else None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != expected_fields:
            raise DimensionMismatchError(
                f"line {lineno}: expected {expected_fields} fields, found {len(fields)}"
            )
        try:
            row = [_to_float(x) for x in fields[:d]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not np.isfinite(row).all():
            raise ParseError(f"line {lineno}: non-finite value")
        points.append(row)
        if has_truth:
            truth.append(_truth_label(fields[d], lineno))
    return np.asarray(points, dtype=np.float64), None if truth is None else np.asarray(truth)


def _to_float(field: str) -> float:
    """One field in the grammar of np.loadtxt's float parser."""
    token = field.strip()
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {field!r}")


def _truth_label(field: str, lineno: int) -> int:
    raw = field.strip()
    try:
        value = int(raw) if raw.isdecimal() else 0
    except ValueError:  # more digits than int() converts
        value = _INT64_MAX + 1
    if value < 1:
        raise ParseError(f"line {lineno}: truth label {raw!r} is not a positive integer")
    if value > _INT64_MAX:
        raise ParseError(f"line {lineno}: truth label {raw!r} does not fit in int64")
    return value
