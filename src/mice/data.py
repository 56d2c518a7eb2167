"""Synthetic datasets and the CSV on-disk format.

Points live on the unit sphere: each one is a cluster direction plus isotropic
Gaussian noise scaled by 1/sqrt(concentration), re-normalized. The CSV header is
dim_0,...,dim_{d-1} with an optional trailing `truth` column of 1-indexed
cluster labels. Floats are written with repr (shortest round-trip), so
save/load is lossless. Instance identities used in training are row indices and
are never persisted.

The loader reads the file in blocks of about _READ_BYTES, each cut after its
last line feed, so memory stays near one block plus the parsed arrays. Each
block's rows go through numpy's C tokenizer in one call, and field counts,
finiteness and labels are checked on the results. Only when that fails does a
per-line scan of that block run, to name the first bad line. The writer formats
_WRITE_ROWS rows at a time, and `generate` normalizes its points in place in
blocks of as many rows.

Float fields follow numpy's grammar: Python's `float` syntax without
underscores or non-ASCII digits, padded by any Unicode whitespace. Labels are
decimal digits (Unicode category Nd, as re's \\d), from 1 to the int64 maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, InvalidSpecError, ParseError
from .numcore import make_rng, nonzero_row_norms, normalize_rows, of_type
from .prototypes import max_mahalanobis_centers

_INT64_MAX = int(np.iinfo(np.int64).max)
_READ_BYTES = 1 << 18  # load_dataset reads the file in blocks of about this many bytes
_WRITE_ROWS = 1024  # save_dataset formats, and generate normalizes, this many rows at a time


@dataclass(frozen=True)
class SyntheticSpec:
    num_clusters: int
    input_dim: int
    points_per_cluster: int
    concentration: float
    seed: int = 0

    def __post_init__(self):
        for name, kind in get_type_hints(SyntheticSpec).items():
            if not of_type(getattr(self, name), kind):
                raise InvalidSpecError(f"spec key {name!r}: {getattr(self, name)!r} has the wrong type")
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
        # Real points become float64; integer truth, or integral floats, becomes int64.
        try:
            points = np.asarray(self.points)
            truth = None if self.truth is None else np.asarray(self.truth)
        except ValueError as exc:  # ragged rows
            raise InvalidInputError(f"points and truth must be arrays: {exc}") from None
        if points.dtype.kind not in "biuf":
            raise InvalidInputError(f"points must be numbers, got dtype {points.dtype}")
        self.points = points.astype(np.float64, copy=False)
        if self.points.ndim != 2:
            raise DimensionMismatchError(f"points must be (N, d), got {self.points.shape}")
        if self.points.shape[1] == 0:
            raise InvalidInputError("points must have at least one column")
        if not np.isfinite(self.points).all():
            raise InvalidInputError("points must be finite")
        if truth is not None:
            integral = truth.dtype.kind in "iu" or truth.dtype.kind == "f" and np.all(
                (truth == np.trunc(truth)) & (abs(truth) < 2.0**63)  # NaN and inf fail
            )
            if not integral:
                raise InvalidInputError("truth labels must be finite integers")
            self.truth = truth.astype(np.int64, copy=False)
            if self.truth.shape != (self.points.shape[0],):
                raise DimensionMismatchError("truth length must match the number of points")
            if self.truth.size and self.truth.min() < 1:
                raise InvalidInputError("truth labels must be >= 1")


def generate(spec: SyntheticSpec) -> Dataset:
    """Unit-sphere clusters around maximally dispersed directions.

    Directions come from the equiangular construction when num_clusters fits in
    input_dim + 1, otherwise they are seeded random unit vectors (near-orthogonal
    in high dimension). Points are grouped by cluster, truth labels 1..K.
    """
    rng = make_rng(spec.seed)
    k, d, n = spec.num_clusters, spec.input_dim, spec.points_per_cluster
    try:  # the spec sizes these; numpy raises ValueError for sizes beyond the address space
        if 2 <= k <= d + 1:
            directions = max_mahalanobis_centers(k, d)
        else:
            directions = normalize_rows(rng.standard_normal((k, d)))
        points = rng.standard_normal((k * n, d))  # the noise, made into the points in place
        points /= np.sqrt(spec.concentration)
        points.reshape(k, n, d)[...] += directions[:, np.newaxis, :]
        for start in range(0, k * n, _WRITE_ROWS):  # no (N, d) square of the points
            rows = points[start : start + _WRITE_ROWS]
            rows /= nonzero_row_norms(rows)[:, np.newaxis]
        truth = np.repeat(np.arange(1, k + 1), n)
    except (MemoryError, ValueError) as exc:
        raise InvalidSpecError(f"the spec needs more memory than is available: {exc}") from exc
    return Dataset(points, truth)


def save_dataset(dataset: Dataset, path) -> None:
    points, truth = dataset.points, dataset.truth
    header = ",".join(f"dim_{i}" for i in range(points.shape[1]))
    if truth is not None:
        header += ",truth"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(points), _WRITE_ROWS):
            rows = points[start : start + _WRITE_ROWS].tolist()
            if truth is not None:
                for row, label in zip(rows, truth[start : start + _WRITE_ROWS].tolist()):
                    row.append(label)
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def load_dataset(path) -> Dataset:
    """Parse a CSV written by save_dataset; errors carry 1-based line numbers.

    A bad header or row is raised only once every block has been decoded, so bad UTF-8
    anywhere in the file is the error reported, whatever the block size.
    """
    columns, error, parts = None, None, []
    for lineno, lines in _line_blocks(path):
        if error is not None:
            continue
        try:
            if columns is None:
                columns = _header_columns(lines[0])
                lineno, lines = lineno + 1, lines[1:]
            rows = [line for line in lines if line.strip()]
            if rows:
                parsed = _parse_rows(rows, *columns)
                parts.append(_scan_lines(lines, lineno, *columns) if parsed is None else parsed)
        except (ParseError, DimensionMismatchError) as exc:
            error = exc
    if error is not None:
        raise error
    if columns is None:
        raise ParseError("line 1: empty dataset file")
    if not parts:
        raise ParseError("line 2: dataset has a header but no rows")
    points = np.concatenate([p for p, _ in parts])
    truth = np.concatenate([t for _, t in parts]) if columns[1] else None
    return Dataset(points, truth)


def _line_blocks(path):
    """(number of the first line, its lines) for each block of the file, decoded as UTF-8.

    A block is cut after its last line feed, so only the file's last block can end
    without one. The blocks' splitlines() then add up to the whole text's: "\\r\\n"
    never straddles a cut, and no UTF-8 sequence holds a line feed byte.
    """
    lineno, rest, at_end = 1, b"", False
    with open(path, "rb") as fh:
        while not at_end:
            carried = len(rest)
            asked = max(_READ_BYTES, carried)  # a line longer than a block doubles the reads
            block = rest + fh.read(asked)  # no copy while nothing is carried
            # A buffered read comes back short only at the end of the file. Stopping there
            # spares a read past the end, which allocates all it asks for and returns nothing.
            at_end = len(block) - carried < asked
            # The carried bytes hold no line feed, so only the new ones are searched.
            cut = len(block) if at_end else block.rfind(b"\n", carried) + 1
            if cut == 0:  # no line feed yet, or nothing left at the end
                rest = block
                continue
            try:
                text = str(memoryview(block)[:cut], "utf-8")
            except UnicodeDecodeError as exc:
                # The placeholder makes a break just before the bad byte count as a line.
                before = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
                raise ParseError(f"line {lineno + before - 1}: not valid UTF-8 ({exc.reason})") from None
            # Each form of the block is freed before the next is built, so at most two coexist.
            rest = block[cut:]
            del block
            lines = text.splitlines()
            del text
            yield lineno, lines
            lineno += len(lines)


def _header_columns(header: str) -> tuple[int, bool]:
    """(d, has_truth) of the header line."""
    names = header.split(",")
    has_truth = names[-1] == "truth"
    dim_columns = names[:-1] if has_truth else names
    if not dim_columns:
        raise ParseError("line 1: no data columns in header")
    for i, name in enumerate(dim_columns):
        if name != f"dim_{i}":
            raise ParseError(f"line 1: expected column dim_{i}, found {name!r}")
    return len(dim_columns), has_truth


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


def _scan_lines(lines: list[str], first: int, d: int, has_truth: bool):
    """The per-line parse of a block whose first line is number `first`, run when the
    whole-array parse failed: raises for the first bad line."""
    expected_fields = d + (1 if has_truth else 0)
    points = []
    truth = [] if has_truth else None
    for lineno, line in enumerate(lines, start=first):
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
