"""Checkpoint format tests: a v1 file from an earlier version of the package,
validation of every section against the stored config, and byte-mutation fuzzing.

`tests/data/v1_tiny.ckpt` was written by the version that stored each expert
head as its own array (before the flat parameter layout). It must load, re-save
to the same bytes, and evaluate to the labels recorded when it was written.
"""

import copy
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mice.data import SyntheticSpec, generate
from mice.errors import CorruptCheckpointError, MiceError
from mice.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
)

FIXTURE = Path(__file__).parent / "data" / "v1_tiny.ckpt"
# Written with TrainConfig(seed=11, num_clusters=3, embed_dim=4, hidden_widths=(5,),
# queue_size=8, batch_size=8, epochs=4) on FIXTURE_DATA: fit to epoch 3, then one
# train_step on the first 5 points (a half-filled accumulator).
FIXTURE_DATA = SyntheticSpec(3, 4, 8, 15.0, seed=6)
FIXTURE_LABELS = [3] * 8 + [2] * 8 + [3] * 7 + [2]


def read_sections(data: bytes) -> list[tuple[str, bytes]]:
    (count,) = struct.unpack_from("<I", data, 8)
    pos, out = 12, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2 : pos + 2 + n].decode("utf-8")
        (size,) = struct.unpack_from("<Q", data, pos + 2 + n)
        start = pos + 10 + n
        out.append((name, data[start : start + size]))
        pos = start + size
    return out


def write_sections(sections: list[tuple[str, bytes]]) -> bytes:
    out = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(sections))
    for name, payload in sections:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<Q", len(payload)) + payload
    return out


def with_json(data: bytes, section: str, edit) -> bytes:
    """The checkpoint with one JSON section replaced by edit(parsed value)."""
    sections = read_sections(data)
    out = []
    for name, payload in sections:
        if name == section:
            payload = json.dumps(edit(json.loads(payload))).encode("utf-8")
        out.append((name, payload))
    return write_sections(out)


def load_bytes(tmp_path, data: bytes):
    path = tmp_path / "edited.ckpt"
    path.write_bytes(data)
    return load_checkpoint(path)


class TestV1Fixture:
    def test_loads_resaves_identically_and_evaluates(self, tmp_path):
        state = load_checkpoint(FIXTURE)
        assert state.epoch == 3
        assert state.queue.head == 5 and state.queue.fill == 8
        assert state.accumulator.counts.tolist() == [0, 1, 4]
        out = tmp_path / "again.ckpt"
        save_checkpoint(state, out)
        assert out.read_bytes() == FIXTURE.read_bytes()
        labels, _ = evaluate(state, generate(FIXTURE_DATA))
        assert labels.tolist() == FIXTURE_LABELS

    def test_deep_copy_trains_without_touching_the_original(self, tmp_path):
        state = load_checkpoint(FIXTURE)
        clone = copy.deepcopy(state)
        assert np.shares_memory(clone.student["heads.weight"], clone.student.vec)
        assert not np.shares_memory(clone.student.vec, state.student.vec)
        assert not np.shares_memory(clone.queue.buffer, state.queue.buffer)
        fit(clone.config, generate(FIXTURE_DATA), clone)
        assert clone.epoch == 4
        # The clone's pushes land in its own ring, seen through its buffer and snapshot.
        assert np.shares_memory(clone.queue.snapshot(), clone.queue.buffer)
        np.testing.assert_array_equal(clone.queue.snapshot(), clone.queue.buffer[: clone.queue.fill])
        assert not np.array_equal(clone.queue.buffer, state.queue.buffer)
        out = tmp_path / "original.ckpt"
        save_checkpoint(state, out)
        assert out.read_bytes() == FIXTURE.read_bytes()
        save_checkpoint(clone, out)
        assert out.read_bytes() != FIXTURE.read_bytes()

    def test_stored_detach_posterior_is_dropped(self, tmp_path):
        """v1 config sections keep the retired key; save writes false, and a stored
        true loads into the same state."""
        data = with_json(FIXTURE.read_bytes(), "config", lambda c: {**c, "detach_posterior": True})
        assert data != FIXTURE.read_bytes()
        out = tmp_path / "again.ckpt"
        save_checkpoint(load_bytes(tmp_path, data), out)
        assert out.read_bytes() == FIXTURE.read_bytes()


class TestValidation:
    def test_renamed_array(self, tmp_path):
        data = FIXTURE.read_bytes().replace(b"student.head.0.weight", b"student.heXd.0.weight")
        with pytest.raises(CorruptCheckpointError, match="heXd"):
            load_bytes(tmp_path, data)

    def test_undecodable_names(self, tmp_path):
        data = FIXTURE.read_bytes()
        for old in (b"teacher.trunk.0.bias", b"omega"):  # an array name, a section name
            with pytest.raises(CorruptCheckpointError, match="undecodable"):
                load_bytes(tmp_path, data.replace(old, b"\xff" + old[1:], 1))

    def test_array_shapes_must_fit_the_config(self, tmp_path):
        data = FIXTURE.read_bytes()
        wider = with_json(data, "config", lambda c: {**c, "hidden_widths": [6]})
        with pytest.raises(CorruptCheckpointError, match="first student layer"):
            load_bytes(tmp_path, wider)
        longer = with_json(data, "config", lambda c: {**c, "queue_size": 9})
        with pytest.raises(CorruptCheckpointError, match="queue.buffer"):
            load_bytes(tmp_path, longer)

    def test_missing_and_unknown_arrays(self, tmp_path):
        sections = read_sections(FIXTURE.read_bytes())
        opt = dict(sections)["opt"]
        # drop opt.mu, the last array of the section: its count, name and data
        name = b"opt.mu"
        cut = opt.rindex(struct.pack("<H", len(name)) + name)
        fewer = struct.pack("<I", struct.unpack_from("<I", opt)[0] - 1) + opt[4:cut]
        edited = [(n, fewer if n == "opt" else p) for n, p in sections]
        with pytest.raises(CorruptCheckpointError, match="missing arrays \\['opt.mu'\\]"):
            load_bytes(tmp_path, write_sections(edited))
        extra = [(n, dict(sections)["omega"] if n == "mu" else p) for n, p in sections]
        with pytest.raises(CorruptCheckpointError, match="unknown arrays \\['omega'\\]"):
            load_bytes(tmp_path, write_sections(extra))

    @pytest.mark.parametrize(
        "edit",
        [
            {"queue_size": 10**11},
            {"hidden_widths": [10**11]},
            {"num_clusters": 10**6, "embed_dim": 10**6},
        ],
    )
    def test_config_beyond_the_file_is_rejected_before_allocating(self, tmp_path, edit):
        """The stored config sizes the state; one far larger than the file allocates nothing."""
        data = with_json(FIXTURE.read_bytes(), "config", lambda c: {**c, **edit})
        tracemalloc.start()
        try:
            with pytest.raises(CorruptCheckpointError):
                load_bytes(tmp_path, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_unknown_extra_section_is_ignored(self, tmp_path):
        sections = read_sections(FIXTURE.read_bytes())
        data = write_sections(sections[:5] + [("notes", b"\xffnot an array section")] + sections[5:])
        out = tmp_path / "again.ckpt"
        save_checkpoint(load_bytes(tmp_path, data), out)
        assert out.read_bytes() == FIXTURE.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: {k: v for k, v in m.items() if k != "queue_fill"},
            lambda m: [m],
            lambda m: {**m, "queue_head": 8},  # capacity is 8
            lambda m: {**m, "queue_head": -1},
            lambda m: {**m, "queue_head": 1.5},
            lambda m: {**m, "queue_fill": 9},
            lambda m: {**m, "queue_fill": True},
            lambda m: {**m, "accum_counts": [0, 1]},
            lambda m: {**m, "accum_counts": [0, 1, -4]},
            lambda m: {**m, "accum_counts": "014"},
            lambda m: {**m, "epoch": -1},
        ],
    )
    def test_bad_meta(self, tmp_path, edit):
        with pytest.raises(CorruptCheckpointError):
            load_bytes(tmp_path, with_json(FIXTURE.read_bytes(), "meta", edit))

    def test_queue_position_at_the_bounds_loads(self, tmp_path):
        edit = lambda m: {**m, "queue_head": 7, "queue_fill": 8}  # noqa: E731
        state = load_bytes(tmp_path, with_json(FIXTURE.read_bytes(), "meta", edit))
        assert state.queue.head == 7 and state.queue.fill == 8

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: {**c, "tau": "1.0"},
            lambda c: {**c, "hidden_widths": 5},
            lambda c: {**c, "hidden_widths": [5.0]},
            lambda c: {**c, "num_clusters": 3.0},
            lambda c: {**c, "a4_single_head": 0},
            lambda c: {**c, "lr_milestones": [True]},
            lambda c: [c],
            lambda c: {**c, "detach_posterior": 0},  # the v1 codec's legacy key is a bool
            lambda c: {**c, "detach_posterior": "false"},
        ],
    )
    def test_config_type_errors(self, tmp_path, edit):
        with pytest.raises(CorruptCheckpointError):
            load_bytes(tmp_path, with_json(FIXTURE.read_bytes(), "config", edit))

    @pytest.mark.parametrize("key", ["tau", "kappa", "lr_initial", "weight_decay", "aug_sigma"])
    def test_infinite_config_value_is_corrupt(self, tmp_path, key):
        """json writes inf as the non-standard Infinity, which Python's reader accepts.
        An integer beyond the float range is no finite float either."""
        data = with_json(FIXTURE.read_bytes(), "config", lambda c: {**c, key: math.inf})
        assert b"Infinity" in data
        with pytest.raises(CorruptCheckpointError, match=f"{key} must be finite"):
            load_bytes(tmp_path, data)
        data = with_json(FIXTURE.read_bytes(), "config", lambda c: {**c, key: 10**400})
        with pytest.raises(CorruptCheckpointError, match=f"{key} must be finite"):
            load_bytes(tmp_path, data)

    def test_int_for_float_config_value_loads(self, tmp_path):
        data = with_json(FIXTURE.read_bytes(), "config", lambda c: {**c, "tau": 1})
        assert load_bytes(tmp_path, data).config.tau == 1

    @pytest.mark.parametrize(
        "rng_state", [[], {"bit_generator": "MT19937"}, {"bit_generator": "PCG64"}]
    )
    def test_bad_rng_state(self, tmp_path, rng_state):
        data = with_json(FIXTURE.read_bytes(), "rng", lambda _: rng_state)
        with pytest.raises(CorruptCheckpointError, match="RNG"):
            load_bytes(tmp_path, data)

    def test_config_from_dict_rejects_wrong_types(self):
        with pytest.raises(MiceError):
            TrainConfig.from_dict({"batch_size": "32"})


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), min_size=1, max_size=3))
def test_byte_mutations_load_or_raise_mice_error(tmp_path, mutations):
    """Every 1-3 byte mutation of a valid checkpoint loads or raises a MiceError."""
    data = bytearray(FIXTURE.read_bytes())
    for position, value in mutations:
        data[position % len(data)] = value
    try:
        load_bytes(tmp_path, bytes(data))
    except MiceError:
        pass
