"""Checkpoints: the complete training state in one binary file, format v1.

A file is the magic bytes `MICE`, a u32 version and a u32 section count, then
per section a u16-length UTF-8 name, a u64 payload length and the payload. All
integers are little-endian. `save_checkpoint` writes these sections, in order:

    config   JSON of TrainConfig.to_dict() plus "detach_posterior": false, sorted keys
    meta     JSON {epoch, queue_head, queue_fill, accum_counts}
    student, teacher, mu, omega, queue, opt, accum   array sections
    rng      JSON of the PCG64 bit-generator state

An array section is a u32 array count, then per array a u16-length UTF-8 name,
a u8 rank, one u32 per dimension and the data as little-endian float64.

`detach_posterior`, a config key that training never read, is gone from
TrainConfig but not from v1: save writes it as false, load drops any bool there.

`_array_sections` is the one place that says which arrays each section holds:
it pairs every v1 name with a live view into a `TrainState`. Each expert head
is stored as its own weight/bias pair there, a row block of the stacked head in
the flat parameter vector. Saving packs those views. Loading builds an empty
state of the shapes that the stored config and the first stored student layer
imply (the config does not record the input dimension), checks the stored names
and shapes against the same views and copies the stored arrays into them.
Sections with other names are ignored.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from . import encoder as enc
from .errors import ConfigError, CorruptCheckpointError, VersionMismatchError
from .trainer import TrainConfig, TrainState

CHECKPOINT_MAGIC = b"MICE"
CHECKPOINT_VERSION = 1

_INT64_MAX = 2**63 - 1
_LEGACY_KEY = "detach_posterior"  # in every v1 config section; nothing reads it


def _array_sections(state: TrainState) -> dict[str, list[tuple[str, np.ndarray]]]:
    """Every array section in file order, as (v1 name, live view into `state`) pairs.

    Parameters are listed trunk layers first, then each expert head as its own
    weight/bias pair, then the gating head. The SGD momentum buffer shares the
    student's layout and numbers its arrays in the same order.
    """

    def params(p: enc.Params, prefix: str) -> list[tuple[str, np.ndarray]]:
        layers = [(f"trunk.{i}", layer) for i, layer in enumerate(p.trunk)]
        layers += [(f"head.{k}", layer) for k, layer in enumerate(enc.head_blocks(p))]
        if p.layout.gating:
            layers.append(("gating", p.layer("gating")))
        return [
            (f"{prefix}.{name}.{part}", array)
            for name, (weight, bias) in layers
            for part, array in (("weight", weight), ("bias", bias))
        ]

    opt = params(enc.Params(state.student.layout, state.opt_student), "opt")
    return {
        "student": params(state.student, "student"),
        "teacher": params(state.teacher, "teacher"),
        "mu": [("mu", state.mu)],
        "omega": [("omega", state.omega)],
        "queue": [("queue.buffer", state.queue.buffer)],
        "opt": [(f"opt.student.{i}", view) for i, (_, view) in enumerate(opt)]
        + [("opt.mu", state.opt_mu)],
        "accum": [("accum.sums", state.accumulator.sums)],
    }


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def _entries(entries: list[tuple[str, bytes]]) -> bytes:
    """A u32 count, then per entry a u16-length UTF-8 name and the entry's bytes."""
    out = [struct.pack("<I", len(entries))]
    for name, body in entries:
        raw = name.encode("utf-8")
        out += [struct.pack("<H", len(raw)), raw, body]
    return b"".join(out)


def _pack_array(a: np.ndarray) -> bytes:
    return struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape) + a.astype("<f8").tobytes()


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize the full training state (config, parameters, queue, optimizer, RNG)."""
    meta = {
        "epoch": state.epoch,
        "queue_head": state.queue.head,
        "queue_fill": state.queue.fill,
        "accum_counts": state.accumulator.counts.tolist(),
    }
    sections = [
        ("config", _json({**state.config.to_dict(), _LEGACY_KEY: False})),
        ("meta", _json(meta)),
        *(
            (section, _entries([(name, _pack_array(a)) for name, a in views]))
            for section, views in _array_sections(state).items()
        ),
        ("rng", _json(state.rng.bit_generator.state)),
    ]
    body = _entries([(name, struct.pack("<Q", len(payload)) + payload) for name, payload in sections])
    Path(path).write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + body)


class _Reader:
    """Little-endian reads from one buffer; reading past its end is a CorruptCheckpointError."""

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

    def entries(self, read_body, where: str) -> dict:
        """Inverse of `_entries`: name -> read_body(name), and the entries must end the buffer."""
        out = {}
        for _ in range(self.unpack("<I")):
            raw = self.take(self.unpack("<H"))
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptCheckpointError(f"undecodable name {raw!r}") from exc
            out[name] = read_body(name)
        if self.pos != len(self.data):
            raise CorruptCheckpointError(f"trailing bytes {where}")
        return out


def _read_sections(data: bytes) -> dict[str, bytes]:
    r = _Reader(data)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError("bad magic bytes")
    version = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    return r.entries(lambda _: r.take(r.unpack("<Q")), "after final section")


def _unpack_arrays(payload: bytes) -> dict[str, np.ndarray]:
    """The arrays of one section by name, in file order, as read-only views of `payload`."""
    r = _Reader(payload)

    def array(name: str) -> np.ndarray:
        shape = tuple(r.unpack("<I") for _ in range(r.unpack("<B")))
        flat = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        try:
            return flat.reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CorruptCheckpointError(f"array {name!r}: {exc}") from exc

    return r.entries(array, "in array section")


def _require(sections: dict[str, bytes], names) -> None:
    missing = sorted(set(names) - set(sections))
    if missing:
        raise CorruptCheckpointError(f"missing sections: {missing}")


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
    sections = _read_sections(data)
    _require(sections, ("config", "meta", "rng", "student"))
    try:
        config = json.loads(sections["config"].decode("utf-8"))
        if isinstance(config, dict) and not isinstance(config.pop(_LEGACY_KEY, False), bool):
            raise CorruptCheckpointError(f"config key {_LEGACY_KEY!r} is not a bool")
        config = TrainConfig.from_dict(config)
        meta = json.loads(sections["meta"].decode("utf-8"))
        rng_state = json.loads(sections["rng"].decode("utf-8"))
    except (ValueError, ConfigError) as exc:
        raise CorruptCheckpointError(f"unreadable checkpoint metadata: {exc}") from exc
    meta_keys = {"epoch", "queue_head", "queue_fill", "accum_counts"}
    if not isinstance(meta, dict) or not meta_keys <= set(meta):
        raise CorruptCheckpointError(f"meta section needs the keys {sorted(meta_keys)}")

    first = next(iter(_unpack_arrays(sections["student"]).values()), None)
    bad_first = "first student layer is missing or does not fit the config"
    if first is None or first.ndim != 2 or first.shape[1] < 1:
        raise CorruptCheckpointError(bad_first)
    k, d = config.num_clusters, config.embed_dim
    layout = enc.Layout(first.shape[1], config.hidden_widths, d, k)
    # The config is untrusted. The state's largest arrays are a parameter vector
    # and the queue, and a valid file stores both, so neither may need more bytes
    # than the file holds; this bounds the allocation below by the file's size.
    if 8 * max(layout.size, config.queue_size * k * d) > len(data):
        raise CorruptCheckpointError("the stored config needs more array data than the file holds")
    state = TrainState.zeros(config, layout)
    table = _array_sections(state)
    if first.shape != table["student"][0][1].shape:
        raise CorruptCheckpointError(bad_first)
    _require(sections, table)
    for section, views in table.items():
        stored = _unpack_arrays(sections[section])
        names = {name for name, _ in views}
        if set(stored) != names:
            raise CorruptCheckpointError(
                f"{section} section: missing arrays {sorted(names - set(stored))}, "
                f"unknown arrays {sorted(set(stored) - names)}"
            )
        for name, view in views:
            if stored[name].shape != view.shape:
                raise CorruptCheckpointError(
                    f"array {name!r} has shape {stored[name].shape}, the config needs {view.shape}"
                )
            view[...] = stored[name]

    state.queue.head = _check_int("queue_head", meta["queue_head"], 0, config.queue_size - 1)
    state.queue.fill = _check_int("queue_fill", meta["queue_fill"], 0, config.queue_size)
    counts = meta["accum_counts"]
    if not isinstance(counts, list) or len(counts) != k:
        raise CorruptCheckpointError(f"accum_counts {counts!r} is not a list of {k} counts")
    state.accumulator.counts[...] = [_check_int("accum count", c, 0, _INT64_MAX) for c in counts]
    state.epoch = _check_int("epoch", meta["epoch"], 0, _INT64_MAX)
    try:
        state.rng.bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise CorruptCheckpointError(f"unusable RNG state: {exc}") from exc
    return state
